//! Commit/abort accounting.
//!
//! Everything the paper's evaluation reports is derived from these
//! counters: throughput (commits over virtual time, Figs. 4–6) and the
//! nested-abort cause split (Table I: *"nested transaction aborts due to
//! parent transaction's abort / total nested transaction aborts"*).

use dstm_sim::{Histogram, HistogramRecorder, OnlineStats, SimDuration, SimTime};
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

/// Why a whole (parent) transaction attempt aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// Early validation during transactional forwarding found a stale read
    /// (TFA's first abort case, at parent level).
    ForwardValidation,
    /// Commit-time validation failed: a lock was refused or a version was
    /// stale.
    CommitValidation,
    /// The scheduler refused a fetch on a locked object (TFA's second abort
    /// case): plain abort or abort-with-backoff.
    SchedulerAbort,
    /// An RTS queue-wait deadline expired before the object arrived.
    QueueTimeout,
}

impl AbortCause {
    pub const ALL: [AbortCause; 4] = [
        AbortCause::ForwardValidation,
        AbortCause::CommitValidation,
        AbortCause::SchedulerAbort,
        AbortCause::QueueTimeout,
    ];

    pub fn label(self) -> &'static str {
        match self {
            AbortCause::ForwardValidation => "forward-validation",
            AbortCause::CommitValidation => "commit-validation",
            AbortCause::SchedulerAbort => "scheduler-abort",
            AbortCause::QueueTimeout => "queue-timeout",
        }
    }

    /// Inverse of [`AbortCause::label`], used when reading traces back.
    pub fn from_label(s: &str) -> Option<Self> {
        AbortCause::ALL.into_iter().find(|c| c.label() == s)
    }
}

/// Why a *nested* (inner) transaction was rolled back — Table I's split.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NestedAbortCause {
    /// Its own conflict: early validation / object inconsistency inside the
    /// child's execution.
    Own,
    /// Its parent aborted, destroying the child's (possibly committed)
    /// work.
    ParentAbort,
}

/// What one node counts: the counters, then the two Welford statistics.
/// `repr(C)`: the counters are one contiguous run of words at the front.
/// The latency histograms are not here but in the run's one
/// [`RunHistograms`] set.
#[derive(Clone, Debug, Default, PartialEq)]
#[repr(C)]
pub struct NodeCounters {
    /// Top-level commits.
    pub commits: u64,
    /// Top-level aborts by cause.
    pub aborts_forward_validation: u64,
    pub aborts_commit_validation: u64,
    pub aborts_scheduler: u64,
    pub aborts_queue_timeout: u64,
    /// Nested-transaction aborts by cause (Table I).
    pub nested_aborts_own: u64,
    pub nested_aborts_parent: u64,
    /// Nested (child) commits (merged into a parent).
    pub nested_commits: u64,
    /// Closed-nesting child retries caused by lock-busy conflicts (the
    /// child aborts alone and re-requests; the parent survives).
    pub child_conflict_retries: u64,
    /// RTS bookkeeping.
    pub enqueued: u64,
    pub queue_served: u64,
    pub queue_declined: u64,
    /// Fetches served / conflicted at this node as owner.
    pub fetches_served: u64,
    pub fetch_conflicts: u64,
    /// Ownership transfers into this node.
    pub objects_received: u64,
    /// `ObjReq`/`VersionReq` hops forwarded along tombstone chains at this
    /// node (a request that needs k forwards counts k). Always on — it is a
    /// pure counter — and the measure the owner-guess healing test uses.
    pub forwarded_reqs: u64,
    /// Remote-read cache (`DstmConfig::cache`) outcomes. Hits are opens
    /// served from a retained copy (locally owned fast path, clock-current
    /// reuse, or a successful `VersionReq` revalidation); misses are opens
    /// that needed a full payload fetch while caching was on; invalidations
    /// are retained copies dropped on observed staleness or ownership
    /// migration. All zero when the cache is off.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_invalidations: u64,
    /// Wasted-work accounting (always on; each abort costs four integer
    /// adds). `wasted_work_ns` is the virtual time the aborted attempt had
    /// been running (attempt start → abort) and `wasted_msgs` the protocol
    /// messages that attempt sent — both discarded with the attempt.
    pub wasted_work_ns: u64,
    pub wasted_msgs: u64,
    /// Top-level aborts whose aggressor (the lock-holding transaction) was
    /// known at abort time. Queue-timeout aborts know only the awaited
    /// object, not its holder, so this undercounts `total_aborts`.
    pub aborts_attributed: u64,
    /// Nested levels discarded, tallied by the wasted-work path at the
    /// abort sites — must reconcile exactly with Table I's
    /// `nested_aborts_own` / `nested_aborts_parent`
    /// ([`NodeCounters::wasted_work_reconciles`], asserted in tests and by
    /// the benchmark).
    pub wasted_nested_own: u64,
    pub wasted_nested_parent: u64,
    /// Commit latency of successful attempts (start of attempt → commit).
    pub commit_latency: OnlineStats,
    /// Full transaction latency (first start → commit, across retries).
    pub total_latency: OnlineStats,
}

/// Merged results: the counters of a set of nodes plus the run's latency
/// histograms. `PartialEq` so differential tests (telemetry on/off, queue
/// backends) can compare whole runs structurally. Reads of the counters
/// go through `Deref` to [`NodeCounters`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeMetrics {
    pub counters: NodeCounters,
    /// Latency-shape histograms. Units: nanoseconds, except
    /// `retries_per_commit` which counts aborted attempts preceding each
    /// commit.
    pub commit_latency_hist: Histogram,
    pub queue_wait_hist: Histogram,
    pub fetch_rtt_hist: Histogram,
    pub retries_per_commit: Histogram,
}

impl Deref for NodeMetrics {
    type Target = NodeCounters;

    fn deref(&self) -> &NodeCounters {
        &self.counters
    }
}

impl DerefMut for NodeMetrics {
    fn deref_mut(&mut self) -> &mut NodeCounters {
        &mut self.counters
    }
}

/// Handle on the run's one set of latency histograms (always on).
/// `SystemBuilder` clones one handle into every node, as it does the trace
/// log, so the recorders cost one block per run rather than one per node.
/// A run lives on one thread, hence `Rc<RefCell<_>>`. Bucket counts and
/// sums add exactly, so the set holds what merging per-node histograms
/// would; the two `OnlineStats` stay in [`NodeCounters`] because a Welford
/// merge is order-dependent in floating point.
#[derive(Clone, Debug, Default)]
pub struct RunHistograms(Rc<RefCell<Recorders>>);

/// The dense recorders behind [`RunHistograms`]: a record is two array
/// increments and allocates nothing. [`RunHistograms::snapshot`] compacts
/// them into the [`Histogram`]s a [`NodeMetrics`] holds.
#[derive(Debug, Default)]
struct Recorders {
    commit_latency: HistogramRecorder,
    queue_wait: HistogramRecorder,
    fetch_rtt: HistogramRecorder,
    retries_per_commit: HistogramRecorder,
}

impl RunHistograms {
    /// A successful attempt: its latency and the aborted attempts before
    /// it.
    pub fn record_commit(&self, exec: SimDuration, retries: u64) {
        let mut r = self.0.borrow_mut();
        r.commit_latency.record_duration(exec);
        r.retries_per_commit.record(retries);
    }

    /// How long a served requester waited in an owner's queue.
    pub fn record_queue_wait(&self, wait: SimDuration) {
        self.0.borrow_mut().queue_wait.record_duration(wait);
    }

    /// Round trip of a fetch that brought an object.
    pub fn record_fetch_rtt(&self, rtt: SimDuration) {
        self.0.borrow_mut().fetch_rtt.record_duration(rtt);
    }

    /// What has been recorded so far, with every counter zero: the start of
    /// `System::collect`'s merge of the node counters.
    pub fn snapshot(&self) -> NodeMetrics {
        let r = self.0.borrow();
        NodeMetrics {
            counters: NodeCounters::default(),
            commit_latency_hist: r.commit_latency.compact(),
            queue_wait_hist: r.queue_wait.compact(),
            fetch_rtt_hist: r.fetch_rtt.compact(),
            retries_per_commit: r.retries_per_commit.compact(),
        }
    }
}

/// p50/p95/p99 upper bounds plus count/mean for one histogram, as
/// `dstm-sweep scenario` prints them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistSummary {
    pub count: u64,
    pub mean: f64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

impl HistSummary {
    pub fn of(h: &Histogram) -> Self {
        HistSummary {
            count: h.count(),
            mean: h.mean(),
            p50: h.quantile_upper_bound(0.50),
            p95: h.quantile_upper_bound(0.95),
            p99: h.quantile_upper_bound(0.99),
        }
    }
}

impl NodeCounters {
    pub fn record_abort(&mut self, cause: AbortCause) {
        match cause {
            AbortCause::ForwardValidation => self.aborts_forward_validation += 1,
            AbortCause::CommitValidation => self.aborts_commit_validation += 1,
            AbortCause::SchedulerAbort => self.aborts_scheduler += 1,
            AbortCause::QueueTimeout => self.aborts_queue_timeout += 1,
        }
    }

    pub fn record_nested_aborts(&mut self, cause: NestedAbortCause, count: u64) {
        match cause {
            NestedAbortCause::Own => self.nested_aborts_own += count,
            NestedAbortCause::ParentAbort => self.nested_aborts_parent += count,
        }
    }

    /// Record the work discarded by one top-level abort: the attempt's
    /// elapsed virtual nanoseconds, the protocol messages it had sent,
    /// whether its aggressor was identified, and the nested levels the
    /// abort destroyed as parent collateral.
    pub fn record_wasted_work(
        &mut self,
        wasted_ns: u64,
        msgs: u64,
        attributed: bool,
        nested_parent: u64,
    ) {
        self.wasted_work_ns += wasted_ns;
        self.wasted_msgs += msgs;
        self.aborts_attributed += u64::from(attributed);
        self.wasted_nested_parent += nested_parent;
    }

    /// The wasted-work ledger's nested tallies must equal Table I's
    /// own/parent split — the two are incremented on independent paths, so
    /// equality is a cross-check, not a tautology.
    pub fn wasted_work_reconciles(&self) -> bool {
        self.wasted_nested_own == self.nested_aborts_own
            && self.wasted_nested_parent == self.nested_aborts_parent
    }

    pub fn total_aborts(&self) -> u64 {
        self.aborts_forward_validation
            + self.aborts_commit_validation
            + self.aborts_scheduler
            + self.aborts_queue_timeout
    }

    pub fn total_nested_aborts(&self) -> u64 {
        self.nested_aborts_own + self.nested_aborts_parent
    }

    /// Fraction of cache-eligible opens served from the cache. 0.0 when the
    /// cache is off (no lookups at all).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    pub fn merge(&mut self, other: &NodeCounters) {
        self.commits += other.commits;
        self.aborts_forward_validation += other.aborts_forward_validation;
        self.aborts_commit_validation += other.aborts_commit_validation;
        self.aborts_scheduler += other.aborts_scheduler;
        self.aborts_queue_timeout += other.aborts_queue_timeout;
        self.nested_aborts_own += other.nested_aborts_own;
        self.nested_aborts_parent += other.nested_aborts_parent;
        self.nested_commits += other.nested_commits;
        self.child_conflict_retries += other.child_conflict_retries;
        self.enqueued += other.enqueued;
        self.queue_served += other.queue_served;
        self.queue_declined += other.queue_declined;
        self.fetches_served += other.fetches_served;
        self.fetch_conflicts += other.fetch_conflicts;
        self.objects_received += other.objects_received;
        self.forwarded_reqs += other.forwarded_reqs;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_invalidations += other.cache_invalidations;
        self.wasted_work_ns += other.wasted_work_ns;
        self.wasted_msgs += other.wasted_msgs;
        self.aborts_attributed += other.aborts_attributed;
        self.wasted_nested_own += other.wasted_nested_own;
        self.wasted_nested_parent += other.wasted_nested_parent;
        self.commit_latency.merge(&other.commit_latency);
        self.total_latency.merge(&other.total_latency);
    }
}

impl NodeMetrics {
    pub fn merge(&mut self, other: &NodeMetrics) {
        self.counters.merge(&other.counters);
        self.commit_latency_hist.merge(&other.commit_latency_hist);
        self.queue_wait_hist.merge(&other.queue_wait_hist);
        self.fetch_rtt_hist.merge(&other.fetch_rtt_hist);
        self.retries_per_commit.merge(&other.retries_per_commit);
    }

    /// The histograms shadow counters kept on independent paths: one
    /// commit-latency and one retries record per commit, one queue-wait
    /// record per served requester. Catches a node that records into the
    /// shared set twice, or not at all.
    pub fn histograms_reconcile(&self) -> bool {
        self.commit_latency_hist.count() == self.commits
            && self.retries_per_commit.count() == self.commits
            && self.queue_wait_hist.count() == self.queue_served
    }

    /// The four latency-shape summaries, labelled for report emission.
    pub fn hist_summaries(&self) -> [(&'static str, HistSummary); 4] {
        [
            (
                "commit_latency_ns",
                HistSummary::of(&self.commit_latency_hist),
            ),
            ("queue_wait_ns", HistSummary::of(&self.queue_wait_hist)),
            ("fetch_rtt_ns", HistSummary::of(&self.fetch_rtt_hist)),
            (
                "retries_per_commit",
                HistSummary::of(&self.retries_per_commit),
            ),
        ]
    }
}

/// Whole-run results: merged node metrics plus run-level context.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    pub nodes: usize,
    pub merged: NodeMetrics,
    /// Virtual time consumed by the run.
    pub elapsed: SimDuration,
    /// Kernel-level message count.
    pub messages: u64,
    /// Virtual start/end (diagnostics).
    pub started_at: SimTime,
    pub ended_at: SimTime,
}

impl RunMetrics {
    /// Committed transactions per second of virtual time — the paper's
    /// throughput metric.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.merged.commits as f64 / secs
        }
    }

    /// Table I's statistic: nested aborts caused by parent aborts over all
    /// nested aborts.
    pub fn nested_abort_rate(&self) -> f64 {
        let total = self.merged.total_nested_aborts();
        if total == 0 {
            0.0
        } else {
            self.merged.nested_aborts_parent as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every counter precedes the two statistics, so the words handlers
    /// bump are one contiguous run at the front of the struct, and nothing
    /// else is in it: the histograms live in the run's one set.
    #[test]
    fn counters_lead_and_statistics_trail() {
        use std::mem::{offset_of, size_of};
        let tail = 2 * size_of::<OnlineStats>();
        assert_eq!(
            size_of::<NodeCounters>() - offset_of!(NodeCounters, commit_latency),
            tail
        );
        // 24 counters; 2 448 bytes while the four histograms were here too.
        assert_eq!(size_of::<NodeCounters>(), 24 * size_of::<u64>() + tail);
    }

    #[test]
    fn abort_cause_accounting() {
        let mut m = NodeMetrics::default();
        for cause in AbortCause::ALL {
            m.record_abort(cause);
        }
        m.record_abort(AbortCause::SchedulerAbort);
        assert_eq!(m.total_aborts(), 5);
        assert_eq!(m.aborts_scheduler, 2);
    }

    #[test]
    fn nested_cause_split() {
        let mut m = NodeMetrics::default();
        m.record_nested_aborts(NestedAbortCause::Own, 3);
        m.record_nested_aborts(NestedAbortCause::ParentAbort, 7);
        assert_eq!(m.total_nested_aborts(), 10);
        let run = RunMetrics {
            nodes: 1,
            merged: m,
            elapsed: SimDuration::from_secs(2),
            messages: 0,
            started_at: SimTime::ZERO,
            ended_at: SimTime::ZERO,
        };
        assert!((run.nested_abort_rate() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn throughput_over_virtual_time() {
        let m = NodeMetrics {
            counters: NodeCounters {
                commits: 500,
                ..Default::default()
            },
            ..Default::default()
        };
        let run = RunMetrics {
            nodes: 4,
            merged: m,
            elapsed: SimDuration::from_secs(5),
            messages: 0,
            started_at: SimTime::ZERO,
            ended_at: SimTime::ZERO,
        };
        assert!((run.throughput() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn abort_cause_labels_roundtrip() {
        for cause in AbortCause::ALL {
            assert_eq!(AbortCause::from_label(cause.label()), Some(cause));
        }
        assert_eq!(AbortCause::from_label("bogus"), None);
    }

    #[test]
    fn hist_summaries_reflect_recorded_values() {
        let mut m = NodeMetrics::default();
        for v in [100, 200, 400, 800] {
            m.queue_wait_hist.record(v);
        }
        let summaries = m.hist_summaries();
        let (label, qw) = summaries[1];
        assert_eq!(label, "queue_wait_ns");
        assert_eq!(qw.count, 4);
        assert!(qw.p50 >= 100 && qw.p99 >= qw.p50);

        let mut other = NodeMetrics::default();
        other.queue_wait_hist.record(1_000_000);
        m.merge(&other);
        assert_eq!(m.queue_wait_hist.count(), 5);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = NodeMetrics::default();
        let mut b = NodeMetrics::default();
        a.commits = 2;
        b.commits = 3;
        b.enqueued = 1;
        a.merge(&b);
        assert_eq!(a.commits, 5);
        assert_eq!(a.enqueued, 1);
    }

    #[test]
    fn wasted_work_merge_and_reconciliation() {
        let mut a = NodeCounters::default();
        a.record_wasted_work(1_000, 3, true, 2);
        a.record_wasted_work(500, 1, false, 0);
        a.record_nested_aborts(NestedAbortCause::ParentAbort, 2);
        assert_eq!(a.wasted_work_ns, 1_500);
        assert_eq!(a.wasted_msgs, 4);
        assert_eq!(a.aborts_attributed, 1);
        assert!(a.wasted_work_reconciles());

        // A ledger entry without the matching Table-I counter must not
        // reconcile until the counter catches up.
        let mut b = NodeCounters {
            wasted_nested_own: 1,
            ..NodeCounters::default()
        };
        assert!(!b.wasted_work_reconciles());
        b.record_nested_aborts(NestedAbortCause::Own, 1);
        assert!(b.wasted_work_reconciles());

        a.merge(&b);
        assert_eq!(a.wasted_work_ns, 1_500);
        assert_eq!(a.wasted_nested_own, 1);
        assert_eq!(a.wasted_nested_parent, 2);
        assert!(a.wasted_work_reconciles());
    }

    #[test]
    fn histograms_reconcile_with_the_counters_they_shadow() {
        let set = RunHistograms::default();
        let node = set.clone();
        node.record_commit(SimDuration::from_micros(5), 1);
        node.record_queue_wait(SimDuration::from_micros(2));
        node.record_fetch_rtt(SimDuration::from_micros(3));
        let mut m = set.snapshot();
        assert_eq!(
            m.counters,
            NodeCounters::default(),
            "the set holds no counters"
        );
        assert_eq!(m.fetch_rtt_hist.count(), 1);
        assert!(!m.histograms_reconcile(), "records without their counters");
        m.commits = 1;
        m.queue_served = 1;
        assert!(m.histograms_reconcile());

        // A second record of the same commit, through another handle.
        set.record_commit(SimDuration::from_micros(5), 1);
        let counters = m.counters.clone();
        m = set.snapshot();
        m.counters = counters;
        assert!(!m.histograms_reconcile(), "a commit recorded twice");
    }

    #[test]
    fn cache_hit_rate_and_merge() {
        let mut a = NodeCounters::default();
        assert_eq!(a.cache_hit_rate(), 0.0, "no lookups, no rate");
        a.cache_hits = 3;
        a.cache_misses = 1;
        let b = NodeCounters {
            cache_hits: 1,
            cache_invalidations: 2,
            forwarded_reqs: 5,
            ..NodeCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.cache_hits, 4);
        assert_eq!(a.cache_misses, 1);
        assert_eq!(a.cache_invalidations, 2);
        assert_eq!(a.forwarded_reqs, 5);
        assert!((a.cache_hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let run = RunMetrics {
            nodes: 0,
            merged: NodeMetrics::default(),
            elapsed: SimDuration::ZERO,
            messages: 0,
            started_at: SimTime::ZERO,
            ended_at: SimTime::ZERO,
        };
        assert_eq!(run.throughput(), 0.0);
        assert_eq!(run.nested_abort_rate(), 0.0);
    }
}
