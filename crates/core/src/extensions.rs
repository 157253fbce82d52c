//! Extension schedulers from the paper's related work (§V), implemented on
//! the same [`ConflictPolicy`] interface so the harness can compare them
//! against RTS. These are *not* part of the paper's evaluation — they are
//! the "schedulers [that] cannot directly be used to schedule nested
//! distributed transactions" the paper positions itself against, adapted
//! minimally to this substrate.
//!
//! * [`AtsPolicy`] — after Yoo & Lee's Adaptive Transaction Scheduler:
//!   tracks a **contention intensity** EWMA; under light contention the
//!   loser retries immediately, above the threshold it is stalled with a
//!   backoff that grows with the intensity.
//! * [`QueueAllPolicy`] — a Bi-interval-flavored scheduler: *every*
//!   conflicting requester is enqueued (no CL test), so the owner's
//!   release path serializes writers and fans out consecutive readers into
//!   read intervals.

use crate::policy::{ConflictCtx, ConflictPolicy, Decision};
use crate::sched::SchedulingTable;
use dstm_sim::{SimDuration, SimTime};

/// Adaptive transaction scheduling: contention-intensity-driven backoff.
#[derive(Clone, Debug)]
pub struct AtsPolicy {
    /// EWMA weight of a new sample.
    alpha: f64,
    /// Intensity above which losers are stalled.
    threshold: f64,
    /// Base stall, scaled by intensity.
    base: SimDuration,
    intensity: f64,
}

impl AtsPolicy {
    pub fn new(base: SimDuration) -> Self {
        AtsPolicy {
            alpha: 0.3,
            threshold: 0.5,
            base,
            intensity: 0.0,
        }
    }

    /// Current contention intensity in `[0, 1]`.
    pub fn intensity(&self) -> f64 {
        self.intensity
    }
}

impl ConflictPolicy for AtsPolicy {
    fn on_conflict(&mut self, _ctx: &ConflictCtx, _table: &mut SchedulingTable) -> Decision {
        // A conflict is a contention sample of 1.
        self.intensity = self.alpha + (1.0 - self.alpha) * self.intensity;
        if self.intensity > self.threshold {
            let scale = (self.intensity * 4.0).ceil() as u64; // 3..=4 at high CI
            Decision::AbortBackoff(self.base * scale)
        } else {
            Decision::Abort
        }
    }

    fn on_commit(&mut self, _now: SimTime) {
        // A commit is a contention sample of 0.
        self.intensity *= 1.0 - self.alpha;
    }
}

/// Bi-interval-flavored policy: park every conflicting requester; the
/// owner's release path forms the read/write intervals.
#[derive(Clone, Debug, Default)]
pub struct QueueAllPolicy;

impl ConflictPolicy for QueueAllPolicy {
    fn on_conflict(&mut self, ctx: &ConflictCtx, table: &mut SchedulingTable) -> Decision {
        let list = table.list_mut(ctx.oid);
        list.remove_duplicate(ctx.requester.tx);
        let backoff = list.extend_bk(
            ctx.ets
                .expected_remaining()
                .max(SimDuration::from_millis(1)),
        );
        list.add_requester(list.get_contention().saturating_add(1), ctx.requester);
        Decision::Enqueue { backoff }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ets::Ets;
    use crate::ids::{ObjectId, TxId};
    use crate::sched::Requester;

    fn ctx(seq: u64, read_only: bool) -> ConflictCtx {
        let start = SimTime(1_000_000);
        let request = SimTime(60_000_000);
        ConflictCtx {
            now: request,
            oid: ObjectId(1),
            requester: Requester {
                node: 1,
                tx: TxId::new(1, seq),
                read_only,
                attempt: 0,
                enqueued_at: request,
            },
            ets: Ets::new(start, request, request + SimDuration::from_millis(25)),
            requester_cl: 1,
            local_cl: 1,
            attempt: 0,
        }
    }

    #[test]
    fn ats_escalates_under_sustained_conflicts() {
        let mut p = AtsPolicy::new(SimDuration::from_millis(5));
        let mut table = SchedulingTable::new();
        // First conflicts: intensity still low -> plain abort.
        assert_eq!(p.on_conflict(&ctx(1, false), &mut table), Decision::Abort);
        // Sustained conflicts push intensity over the threshold.
        let mut last = Decision::Abort;
        for i in 2..10 {
            last = p.on_conflict(&ctx(i, false), &mut table);
        }
        assert!(
            matches!(last, Decision::AbortBackoff(_)),
            "sustained conflicts must stall: {last:?}"
        );
        assert!(p.intensity() > 0.5);
    }

    #[test]
    fn ats_relaxes_after_commits() {
        let mut p = AtsPolicy::new(SimDuration::from_millis(5));
        let mut table = SchedulingTable::new();
        for i in 0..10 {
            let _ = p.on_conflict(&ctx(i, false), &mut table);
        }
        assert!(p.intensity() > 0.5);
        for t in 0..20 {
            p.on_commit(SimTime(t));
        }
        assert!(p.intensity() < 0.1, "commits must decay intensity");
        assert_eq!(p.on_conflict(&ctx(99, false), &mut table), Decision::Abort);
    }

    #[test]
    fn queue_all_always_enqueues_and_accumulates() {
        let mut p = QueueAllPolicy;
        let mut table = SchedulingTable::new();
        let d1 = p.on_conflict(&ctx(1, true), &mut table);
        let d2 = p.on_conflict(&ctx(2, false), &mut table);
        let (Decision::Enqueue { backoff: b1 }, Decision::Enqueue { backoff: b2 }) = (d1, d2)
        else {
            panic!("queue-all must enqueue");
        };
        assert!(b2 > b1, "backlog must accumulate");
        assert_eq!(table.total_queued(), 2);
    }
}
