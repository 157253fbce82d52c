//! Runtime configuration for a D-STM system.

use dstm_sim::SimDuration;
use rts_core::SchedulerKind;

/// How `OpenNested`/`CloseNested` are executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NestingMode {
    /// Closed nesting (§I/§II): children keep their own read/write sets,
    /// abort independently, and merge into the parent on child commit.
    Closed,
    /// Flat nesting: nested delimiters are inlined into the parent — *"if
    /// a large monolithic transaction is aborted, all nested transactions
    /// are also aborted and rolled back, even if they don't conflict with
    /// the outer transaction"* (§I). Kept for the nesting ablation.
    Flat,
}

/// Which context a lock-busy fetch conflict aborts when the scheduler's
/// verdict is "abort".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConflictScope {
    /// The whole (parent) transaction aborts — TFA as described in §II:
    /// *"parent transactions, which are designated to abort due to the
    /// second case of aborting in TFA"*. The paper's baseline.
    Parent,
    /// Only the innermost closed-nested child aborts and replays (an
    /// alternative contention-management granularity; kept for the
    /// ablation benches).
    Child,
}

/// One variant, kept only because `benchmark/src/workloads.rs` names it; deleted with that call.
#[derive(Clone, Copy, Debug)]
pub enum QueueBackend {
    BinaryHeap,
}

/// All the knobs of a run. `Default` gives the harness's baseline setup.
#[derive(Clone, Debug)]
pub struct DstmConfig {
    /// Which conflict policy owners use.
    pub scheduler: SchedulerKind,
    /// CL threshold for RTS (fixed mode). The harness's ablation bench
    /// sweeps this; per-benchmark peak values are used for the figures.
    pub cl_threshold: u32,
    /// Use the adaptive (hill-climbing) threshold controller instead of the
    /// fixed threshold.
    pub adaptive_threshold: bool,
    /// Base backoff for the TFA+Backoff policy.
    pub backoff_base: SimDuration,
    /// Sliding window for the owner-side local CL.
    pub cl_window: SimDuration,
    /// Extra latency of a *granted* lock acknowledgement, modelling the
    /// paper's slow commit-time validation: "a validation in distributed
    /// systems includes global registration of object ownership, which
    /// takes a relatively long time" (§II). Lengthens the window in which
    /// fetches hit locked objects.
    pub validation_overhead: SimDuration,
    /// Extra slack multiplied onto RTS queue-wait deadlines (percent).
    /// 100 = use the assigned backoff as-is.
    pub queue_deadline_percent: u64,
    /// Abort granularity for lock-busy conflicts (see [`ConflictScope`]).
    pub conflict_scope: ConflictScope,
    /// Closed (the paper's model) or flat nesting (see [`NestingMode`]).
    pub nesting: NestingMode,
    /// Record typed protocol events ([`crate::trace`]) during the run.
    /// Off by default: every instrumentation site is behind a one-branch
    /// guard, so a disabled run allocates nothing for tracing.
    pub trace_protocol: bool,
    /// Record time-resolved telemetry ([`crate::telemetry`]): per-node
    /// 50 ms epoch samples of the commit, abort, wasted-work and cache
    /// counters. Off by default behind the same one-branch guard
    /// discipline as `trace_protocol` — a disabled run takes one branch per
    /// event and allocates nothing.
    pub telemetry: bool,
    /// Clock-validated remote-read caching plus same-tick message
    /// coalescing (`dstm-sweep --cache`). Off by default: the cached
    /// fast paths and per-destination send buffers change message timing,
    /// so the flag must stay opt-in for the golden digests of the default
    /// configuration to remain bit-identical.
    pub cache: bool,
    /// Concurrent transactions each node keeps in flight.
    pub concurrency_per_node: usize,
    /// Read by nothing — the workload size is whatever `WorkloadSource`
    /// holds; kept only because `benchmark/src/layers.rs` assigns it; deleted
    /// with that assignment.
    pub txns_per_node: usize,
}

impl Default for DstmConfig {
    fn default() -> Self {
        DstmConfig {
            scheduler: SchedulerKind::Rts,
            cl_threshold: 16,
            adaptive_threshold: false,
            backoff_base: SimDuration::from_millis(10),
            cl_window: SimDuration::from_millis(500),
            validation_overhead: SimDuration::from_millis(25),
            queue_deadline_percent: 150,
            conflict_scope: ConflictScope::Child,
            nesting: NestingMode::Closed,
            trace_protocol: false,
            telemetry: false,
            cache: false,
            concurrency_per_node: 4,
            txns_per_node: 50,
        }
    }
}

impl DstmConfig {
    pub fn with_scheduler(mut self, s: SchedulerKind) -> Self {
        self.scheduler = s;
        self
    }

    pub fn with_concurrency(mut self, c: usize) -> Self {
        self.concurrency_per_node = c;
        self
    }

    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    pub fn with_cache(mut self, on: bool) -> Self {
        self.cache = on;
        self
    }

    /// The deadline a requester arms when RTS enqueues it with `backoff`.
    pub fn queue_deadline(&self, backoff: SimDuration) -> SimDuration {
        backoff.mul_ratio(self.queue_deadline_percent, 100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = DstmConfig {
            cl_threshold: 7,
            ..DstmConfig::default()
        }
        .with_scheduler(SchedulerKind::Tfa)
        .with_concurrency(2);
        assert_eq!(c.scheduler, SchedulerKind::Tfa);
        assert_eq!(c.cl_threshold, 7);
        assert_eq!(c.concurrency_per_node, 2);
    }

    #[test]
    fn telemetry_defaults_off() {
        let c = DstmConfig::default();
        assert!(!c.telemetry);
        assert!(c.with_telemetry(true).telemetry);
    }

    #[test]
    fn cache_defaults_off() {
        let c = DstmConfig::default();
        assert!(!c.cache, "cache must be opt-in to keep golden digests");
        assert!(c.with_cache(true).cache);
    }

    #[test]
    fn queue_deadline_scales() {
        let c = DstmConfig {
            queue_deadline_percent: 150,
            ..DstmConfig::default()
        };
        assert_eq!(
            c.queue_deadline(SimDuration::from_millis(100)),
            SimDuration::from_millis(150)
        );
    }
}
