//! Conflict decision policies — the schedulers compared in §IV.
//!
//! A conflict arises at an object owner when a request reaches an object
//! that is **locked** (being validated by a committing transaction) — the
//! second abort case of TFA (§II, Fig. 2). The owner consults its
//! [`ConflictPolicy`]:
//!
//! * [`TfaPolicy`] — plain TFA: the requester (parent) aborts and retries
//!   immediately, re-fetching every object;
//! * [`BackoffPolicy`] — "TFA+Backoff": the requester aborts and retries
//!   after an exponentially growing backoff;
//! * [`RtsPolicy`] — the paper's contribution (Algorithm 3): keep the
//!   requester **live and enqueued** when it has a lot of completed work and
//!   the contention level is below threshold; abort it otherwise.
//!
//! Policies are pure decision logic over the scheduling table; the network
//! side (sending `ObjResp`, arming backoff timers, forwarding objects to
//! queue heads on release) lives in `hyflow-dstm`.

use crate::ets::Ets;
use crate::ids::ObjectId;
use crate::sched::{Requester, SchedulingTable};
use crate::threshold::ThresholdController;
use dstm_sim::{SimDuration, SimTime};

/// Which scheduler a policy implements (reporting/config).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// TFA without a transactional scheduler.
    Tfa,
    /// TFA with abort-and-backoff contention management.
    TfaBackoff,
    /// The reactive transactional scheduler.
    Rts,
}

impl SchedulerKind {
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Tfa => "TFA",
            SchedulerKind::TfaBackoff => "TFA+Backoff",
            SchedulerKind::Rts => "RTS",
        }
    }

    /// The command-line and reproducer spelling: lowercase, no `+`.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Tfa => "tfa",
            SchedulerKind::TfaBackoff => "backoff",
            SchedulerKind::Rts => "rts",
        }
    }

    /// A scheduler named on a command line or in a reproducer, in any case:
    /// its [`name`](Self::name), its [`label`](Self::label), or one of the
    /// short forms `tfa-backoff` and `tfab`.
    pub fn from_name(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "tfa" => Some(SchedulerKind::Tfa),
            "backoff" | "tfa+backoff" | "tfa-backoff" | "tfab" => Some(SchedulerKind::TfaBackoff),
            "rts" => Some(SchedulerKind::Rts),
            _ => None,
        }
    }

    /// The inverse of [`label`](Self::label) (how traces name a run's
    /// scheduler). Exact: a trace is read back, not typed.
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "TFA" => Some(SchedulerKind::Tfa),
            "TFA+Backoff" => Some(SchedulerKind::TfaBackoff),
            "RTS" => Some(SchedulerKind::Rts),
            _ => None,
        }
    }
}

/// Everything the owner knows about a conflicting request.
#[derive(Clone, Copy, Debug)]
pub struct ConflictCtx {
    pub now: SimTime,
    pub oid: ObjectId,
    /// The conflicting requester (node, transaction, access mode).
    pub requester: Requester,
    /// The ETS timestamps carried in the request.
    pub ets: Ets,
    /// `myCL` carried in the request: demand for objects the requester holds.
    pub requester_cl: u32,
    /// Owner-side local CL of the object (sliding-window distinct requesters).
    pub local_cl: u32,
    /// How many times this transaction has already retried (for backoff
    /// growth in `BackoffPolicy`).
    pub attempt: u32,
}

/// The owner's verdict on a conflicting request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Reply `null` with zero backoff: the requester aborts and retries
    /// immediately (plain TFA).
    Abort,
    /// Reply `null` with a backoff: the requester aborts, sleeps, retries.
    AbortBackoff(SimDuration),
    /// Keep the requester live: it is now in the object's queue and will
    /// receive the object on release, unless `backoff` expires first
    /// (in which case it aborts and re-requests as a new transaction).
    Enqueue { backoff: SimDuration },
}

/// Owner-side conflict resolution strategy.
pub trait ConflictPolicy {
    /// Decide the fate of a request that found `ctx.oid` locked. The policy
    /// may mutate the scheduling `table` (enqueueing, dedup, backlog).
    fn on_conflict(&mut self, ctx: &ConflictCtx, table: &mut SchedulingTable) -> Decision;

    /// Hook: a local commit completed at `now` (drives adaptive thresholds).
    fn on_commit(&mut self, _now: SimTime) {}

    /// The CL threshold currently in force (diagnostics; RTS only).
    fn current_threshold(&self) -> Option<u32> {
        None
    }
}

// ---------------------------------------------------------------------------
// TFA
// ---------------------------------------------------------------------------

/// Plain TFA: every conflicting requester aborts, no scheduling.
#[derive(Clone, Copy, Debug, Default)]
pub struct TfaPolicy;

impl ConflictPolicy for TfaPolicy {
    fn on_conflict(&mut self, _ctx: &ConflictCtx, _table: &mut SchedulingTable) -> Decision {
        Decision::Abort
    }
}

// ---------------------------------------------------------------------------
// TFA + Backoff
// ---------------------------------------------------------------------------

/// Abort with an exponentially growing backoff (the "TFA+Backoff" baseline
/// of §IV-C: *"with the scheduler, a transaction aborts with a backoff time
/// if a conflict occurs"*).
#[derive(Clone, Copy, Debug)]
pub struct BackoffPolicy {
    /// Base backoff, doubled per retry.
    pub base: SimDuration,
    /// Cap on the doubling exponent.
    pub max_exponent: u32,
}

impl BackoffPolicy {
    pub fn new(base: SimDuration) -> Self {
        BackoffPolicy {
            base,
            max_exponent: 6,
        }
    }
}

impl ConflictPolicy for BackoffPolicy {
    fn on_conflict(&mut self, ctx: &ConflictCtx, _table: &mut SchedulingTable) -> Decision {
        let exp = ctx.attempt.min(self.max_exponent);
        Decision::AbortBackoff(self.base * (1u64 << exp))
    }
}

// ---------------------------------------------------------------------------
// RTS
// ---------------------------------------------------------------------------

/// The reactive transactional scheduler (Algorithm 3).
#[derive(Clone, Debug)]
pub struct RtsPolicy {
    threshold: ThresholdController,
}

impl RtsPolicy {
    pub fn new(threshold: ThresholdController) -> Self {
        RtsPolicy { threshold }
    }

    /// Fixed CL threshold (the harness sweeps this for the ablation bench).
    pub fn with_fixed_threshold(t: u32) -> Self {
        RtsPolicy::new(ThresholdController::fixed(t))
    }
}

impl ConflictPolicy for RtsPolicy {
    /// Algorithm 3, lines 5–17, for a locked object:
    ///
    /// ```text
    /// reqlist.removeDuplicate(address)
    /// if bk < |ETS.r − ETS.s|:                      # enough completed work?
    ///     contention = CL(object) + Contention_Level # local + carried myCL
    ///     if contention < CL_Threshold:
    ///         bk += |ETS.c − ETS.r|                  # extend the backlog
    ///         reqlist.addRequester(contention, requester)
    ///         → enqueue with backoff = bk
    /// → otherwise abort (null object, zero backoff)
    /// ```
    fn on_conflict(&mut self, ctx: &ConflictCtx, table: &mut SchedulingTable) -> Decision {
        let list = table.list_mut(ctx.oid);
        // A re-request after backoff expiry supersedes the old queue entry.
        list.remove_duplicate(ctx.requester.tx);

        // "RTS aborts a parent transaction with a short execution time":
        // only transactions whose completed work exceeds the current backlog
        // are worth parking.
        if list.bk() < ctx.ets.executed_so_far() {
            // CL of an object = local CL + remote CL (§III-A).
            let contention = ctx.local_cl.saturating_add(ctx.requester_cl);
            if contention < self.threshold.threshold() {
                let backoff = list.extend_bk(ctx.ets.expected_remaining());
                list.add_requester(contention, ctx.requester);
                return Decision::Enqueue { backoff };
            }
        }
        Decision::Abort
    }

    fn on_commit(&mut self, now: SimTime) {
        self.threshold.on_commit(now);
    }

    fn current_threshold(&self) -> Option<u32> {
        Some(self.threshold.threshold())
    }
}

/// Build the policy for a scheduler kind with harness defaults.
pub fn build_policy(
    kind: SchedulerKind,
    backoff_base: SimDuration,
    cl_threshold: u32,
) -> Box<dyn ConflictPolicy> {
    match kind {
        SchedulerKind::Tfa => Box::new(TfaPolicy),
        SchedulerKind::TfaBackoff => Box::new(BackoffPolicy::new(backoff_base)),
        SchedulerKind::Rts => Box::new(RtsPolicy::with_fixed_threshold(cl_threshold)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TxId;

    #[test]
    fn every_spelling_a_tool_accepted_names_one_kind() {
        use SchedulerKind::*;
        // What `dstm-sweep scenario` read, then what `dstm-verify` read, each
        // with the kind that tool gave it; both read them in any case.
        let table = [
            ("rts", Rts),
            ("tfa", Tfa),
            ("tfa-backoff", TfaBackoff),
            ("tfab", TfaBackoff),
            ("backoff", TfaBackoff),
            ("tfa+backoff", TfaBackoff),
        ];
        for (spelling, kind) in table {
            for s in [spelling.to_string(), spelling.to_ascii_uppercase()] {
                assert_eq!(SchedulerKind::from_name(&s), Some(kind), "{s}");
            }
        }
        for kind in [Tfa, TfaBackoff, Rts] {
            assert_eq!(SchedulerKind::from_name(kind.name()), Some(kind));
            assert_eq!(SchedulerKind::from_name(kind.label()), Some(kind));
            assert_eq!(SchedulerKind::from_label(kind.label()), Some(kind));
        }
        // `ats` and `bi-interval` named the retired §V schedulers.
        for gone in ["bogus", "ats", "bi-interval", "biinterval"] {
            assert_eq!(SchedulerKind::from_name(gone), None, "{gone}");
        }
        for gone in ["ATS", "Bi-interval"] {
            assert_eq!(SchedulerKind::from_label(gone), None, "{gone}");
        }
        assert_eq!(
            SchedulerKind::from_label("rts"),
            None,
            "trace labels stay exact"
        );
    }

    fn t(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    fn ctx_with(
        executed_ms: u64,
        remaining_ms: u64,
        requester_cl: u32,
        local_cl: u32,
        attempt: u32,
        read_only: bool,
        tx_seq: u64,
    ) -> ConflictCtx {
        let start = t(100);
        let request = start + SimDuration::from_millis(executed_ms);
        let expected_commit = request + SimDuration::from_millis(remaining_ms);
        ConflictCtx {
            now: request,
            oid: ObjectId(1),
            requester: Requester {
                node: 4,
                tx: TxId::new(4, tx_seq),
                read_only,
                attempt: 0,
                enqueued_at: request,
            },
            ets: Ets::new(start, request, expected_commit),
            requester_cl,
            local_cl,
            attempt,
        }
    }

    #[test]
    fn tfa_always_aborts() {
        let mut p = TfaPolicy;
        let mut table = SchedulingTable::new();
        let d = p.on_conflict(&ctx_with(100, 10, 0, 0, 0, false, 1), &mut table);
        assert_eq!(d, Decision::Abort);
        assert_eq!(table.total_queued(), 0);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let mut p = BackoffPolicy::new(SimDuration::from_millis(10));
        let mut table = SchedulingTable::new();
        let d0 = p.on_conflict(&ctx_with(5, 5, 0, 0, 0, false, 1), &mut table);
        let d3 = p.on_conflict(&ctx_with(5, 5, 0, 0, 3, false, 1), &mut table);
        let d99 = p.on_conflict(&ctx_with(5, 5, 0, 0, 99, false, 1), &mut table);
        assert_eq!(d0, Decision::AbortBackoff(SimDuration::from_millis(10)));
        assert_eq!(d3, Decision::AbortBackoff(SimDuration::from_millis(80)));
        assert_eq!(d99, Decision::AbortBackoff(SimDuration::from_millis(640)));
    }

    #[test]
    fn rts_enqueues_long_low_contention() {
        // Fig. 3: T4 has long execution (t4−t1) and CL 2 < threshold 3.
        let mut p = RtsPolicy::with_fixed_threshold(3);
        let mut table = SchedulingTable::new();
        let ctx = ctx_with(50, 20, 1, 1, 0, false, 4);
        match p.on_conflict(&ctx, &mut table) {
            Decision::Enqueue { backoff } => {
                assert_eq!(backoff.as_millis(), 20, "backoff = expected remaining");
            }
            other => panic!("expected enqueue, got {other:?}"),
        }
        assert_eq!(table.total_queued(), 1);
    }

    #[test]
    fn rts_aborts_high_contention() {
        // Fig. 3: T5 sees CL 4 >= threshold 3 -> abort even with long exec.
        let mut p = RtsPolicy::with_fixed_threshold(3);
        let mut table = SchedulingTable::new();
        let ctx = ctx_with(50, 20, 2, 2, 0, false, 5);
        assert_eq!(p.on_conflict(&ctx, &mut table), Decision::Abort);
        assert_eq!(table.total_queued(), 0);
    }

    #[test]
    fn rts_aborts_short_execution() {
        // Fig. 3: T6 aborts "due to the short execution time": the queue's
        // backlog exceeds its completed work.
        let mut p = RtsPolicy::with_fixed_threshold(10);
        let mut table = SchedulingTable::new();
        // Seed a backlog of 30 ms from a previously enqueued transaction.
        let first = ctx_with(50, 30, 0, 0, 0, false, 4);
        assert!(matches!(
            p.on_conflict(&first, &mut table),
            Decision::Enqueue { .. }
        ));
        // T6 executed for only 10 ms < bk of 30 ms -> abort.
        let short = ctx_with(10, 5, 0, 0, 0, false, 6);
        assert_eq!(p.on_conflict(&short, &mut table), Decision::Abort);
        assert_eq!(table.total_queued(), 1);
    }

    #[test]
    fn rts_backlog_accumulates_for_later_requesters() {
        // Fig. 3 / §III-B: "if T5 is enqueued, its backoff time will be
        // |t7 − t5| + the expected execution time of T4".
        let mut p = RtsPolicy::with_fixed_threshold(10);
        let mut table = SchedulingTable::new();
        let t4 = ctx_with(100, 25, 0, 0, 0, false, 4);
        let Decision::Enqueue { backoff: b4 } = p.on_conflict(&t4, &mut table) else {
            panic!("T4 should enqueue");
        };
        let t5 = ctx_with(100, 40, 0, 0, 0, false, 5);
        let Decision::Enqueue { backoff: b5 } = p.on_conflict(&t5, &mut table) else {
            panic!("T5 should enqueue");
        };
        assert_eq!(b4.as_millis(), 25);
        assert_eq!(b5.as_millis(), 65, "T5 waits for its own remaining + T4's");
        assert_eq!(table.total_queued(), 2);
    }

    #[test]
    fn rts_rerequest_replaces_duplicate() {
        let mut p = RtsPolicy::with_fixed_threshold(10);
        let mut table = SchedulingTable::new();
        let c1 = ctx_with(100, 25, 0, 0, 0, false, 4);
        assert!(matches!(
            p.on_conflict(&c1, &mut table),
            Decision::Enqueue { .. }
        ));
        // Same transaction re-requests after its backoff expired.
        let c2 = ctx_with(140, 25, 0, 0, 1, false, 4);
        assert!(matches!(
            p.on_conflict(&c2, &mut table),
            Decision::Enqueue { .. }
        ));
        assert_eq!(table.total_queued(), 1, "old entry must be deduplicated");
    }

    #[test]
    fn scheduler_labels_round_trip() {
        for kind in [
            SchedulerKind::Tfa,
            SchedulerKind::TfaBackoff,
            SchedulerKind::Rts,
        ] {
            assert_eq!(SchedulerKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(SchedulerKind::Rts.label(), "RTS");
        assert_eq!(SchedulerKind::from_label("rts"), None, "labels are exact");
        assert_eq!(SchedulerKind::from_label(""), None);
    }
}
