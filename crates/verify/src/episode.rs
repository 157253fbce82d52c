//! One fuzz episode: a complete simulated run under a perturbed schedule,
//! followed by the full oracle battery.
//!
//! An episode is an ordinary harness cell executed on a
//! [`PerturbQueue`], so every episode is an execution the simulator could
//! have produced under different link delays and tiebreaks (see
//! `dstm_sim::perturb` for the realizability argument). After the run the
//! oracles check:
//!
//! * **liveness** — the run quiesces and every issued top-level
//!   transaction commits exactly once;
//! * **single writable copy** — [`System::try_object_state`](hyflow_dstm::System::try_object_state) finds each
//!   object owned by exactly one node;
//! * **cache freshness** — no retained read copy is *newer* than the
//!   owner's authoritative version (the cache may lag, never lead);
//! * **node-local structure** — [`hyflow_dstm::Node::local_invariants`]:
//!   live-transaction accounting, shadow-copy ancestry, lock liveness;
//! * **telemetry reconciliation** — per-epoch counter deltas sum exactly
//!   to the final merged counters (no sample lost or double-counted);
//! * **offline trace oracles** — `dstm-trace`'s [`audit`] (span pairing,
//!   commit serializability, the Table-I split and wasted-work ledger
//!   against the counters) and [`analyze`] (every commit bucketed into its
//!   throughput series) both pass on the JSONL-round-tripped trace.
//!
//! The outcome carries a behavior **digest** (FNV-64 over the headline
//! counters and the full trace encoding) so replays can be asserted
//! bit-identical: same [`Schedule`] ⇒ same digest.

use dstm_benchmarks::Benchmark;
use dstm_harness::runner::{build_system_with_queue, take_framed_trace, Cell};
use dstm_harness::traceio::{analyze, audit, DEFAULT_ANALYZE_EPOCH_NS};
use dstm_sim::{PerturbQueue, Schedule};
use hyflow_dstm::{Fnv64, TraceLog};
use rts_core::SchedulerKind;

/// The fixed (schedule-independent) axes of a fuzz episode. The varying
/// part — seed and perturbation list — lives in the [`Schedule`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpisodeSpec {
    pub benchmark: Benchmark,
    pub scheduler: SchedulerKind,
    pub nodes: usize,
    pub txns: usize,
    /// Run the clock-validated remote-read cache (exercises the freshness
    /// oracle and the cache counters).
    pub cache: bool,
}

impl Default for EpisodeSpec {
    fn default() -> Self {
        // Small enough for hundreds of episodes per CI minute, contended
        // enough (2 objects/node, 50% read parents) that schedules actually
        // collide transactions.
        EpisodeSpec {
            benchmark: Benchmark::Bank,
            scheduler: SchedulerKind::Rts,
            nodes: 4,
            txns: 3,
            cache: true,
        }
    }
}

impl EpisodeSpec {
    /// Whether an episode can run: at least one node and no more than the
    /// kernel's event keys can name, and at least one transaction per node
    /// (a run that commits nothing leaves the trace oracles nothing to
    /// check). The error names the offending count.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=dstm_sim::MAX_ACTORS).contains(&self.nodes) {
            return Err(format!(
                "nodes {}: an episode needs 1..={}",
                self.nodes,
                dstm_sim::MAX_ACTORS
            ));
        }
        if self.txns < 1 {
            return Err(format!("txns {}: an episode needs at least 1", self.txns));
        }
        Ok(())
    }

    /// The harness cell this spec runs, under `seed`, with the epoch
    /// sampler on (it feeds the reconciliation oracle).
    pub fn cell(&self, seed: u64) -> Cell {
        let mut cell = Cell::new(self.benchmark, self.scheduler, self.nodes, 0.5)
            .with_txns(self.txns)
            .with_seed(seed)
            .with_cache(self.cache)
            .with_telemetry();
        cell.params.objects_per_node = 2;
        cell.dstm.trace_protocol = true;
        cell
    }
}

/// What one episode produced.
#[derive(Clone, Debug)]
pub struct EpisodeOutcome {
    /// Oracle failures, empty for a clean episode.
    pub violations: Vec<String>,
    /// FNV-64 over the headline counters and the full trace JSONL; equal
    /// digests ⇔ behaviorally identical runs.
    pub digest: u64,
    pub commits: u64,
    /// Kernel pushes/pops the run performed — the step space a schedule's
    /// perturbations can target.
    pub pushes: u64,
    pub pops: u64,
}

impl EpisodeOutcome {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run one episode under `schedule` and apply every oracle.
pub fn run_episode(spec: &EpisodeSpec, schedule: &Schedule) -> EpisodeOutcome {
    run_episode_mutated(spec, schedule, &|_, _| {})
}

/// [`run_episode`] with a trace-mutation hook applied *between* the run
/// and the offline oracles. This is the mutation-test seam: a test can
/// corrupt the recorded trace (duplicate a commit, drop an abort span) and
/// assert the oracle battery catches it and that the shrinker reduces the
/// triggering schedule — validating the fuzzer end-to-end without
/// planting a bug in the protocol itself.
pub fn run_episode_mutated(
    spec: &EpisodeSpec,
    schedule: &Schedule,
    mutate: &dyn Fn(&Schedule, &mut TraceLog),
) -> EpisodeOutcome {
    let cell = spec.cell(schedule.seed);
    let expected = (spec.nodes * spec.txns) as u64;
    let mut system = build_system_with_queue(&cell, PerturbQueue::new(schedule));
    let metrics = system.run_default();
    let pushes = system.world().queue().pushes();
    let pops = system.world().queue().pops();

    let mut violations = Vec::new();

    // Liveness: the run quiesced and nothing was lost or duplicated.
    if !system.all_done() {
        violations.push("run did not quiesce: some node never finished its workload".into());
    }
    if metrics.merged.commits != expected {
        violations.push(format!(
            "commit count {} != issued transactions {expected}",
            metrics.merged.commits
        ));
    }
    // Every node records into the run's one histogram set: once per commit
    // and once per served requester.
    if !metrics.merged.histograms_reconcile() {
        violations.push(
            "latency histograms do not reconcile with the commit and queue-served counters".into(),
        );
    }

    // Safety: exactly one writable copy per object, and no cached read
    // copy ahead of the authoritative version.
    match system.try_object_state() {
        Ok(state) => {
            for node in system.world().actors() {
                for (oid, copy) in node.cached_copies() {
                    match state.get(&oid) {
                        Some(&(_, version)) if copy.version > version => {
                            violations.push(format!(
                                "cache ahead of owner: {oid:?} cached at v{} but owned at v{version}",
                                copy.version
                            ));
                        }
                        Some(_) => {}
                        None => {
                            violations.push(format!("cached copy of {oid:?} which no node owns"))
                        }
                    }
                }
            }
        }
        Err(e) => violations.push(e),
    }

    // Node-local structural invariants.
    for node in system.world().actors() {
        node.local_invariants(&mut violations);
    }

    // Telemetry reconciliation: epoch deltas must sum to the final merged
    // counters. Only exact when no node's ring dropped epochs.
    let reports = system.take_telemetry();
    if reports.iter().all(|r| r.dropped_epochs == 0) {
        let sum = |f: fn(&hyflow_dstm::EpochSample) -> u64| -> u64 {
            reports.iter().flat_map(|r| r.epochs.iter()).map(f).sum()
        };
        let m = &metrics.merged;
        let checks: [(&str, u64, u64); 5] = [
            ("commits", sum(|e| e.commits), m.commits),
            ("aborts", sum(|e| e.aborts), m.total_aborts()),
            ("cache_hits", sum(|e| e.cache_hits), m.cache_hits),
            ("cache_misses", sum(|e| e.cache_misses), m.cache_misses),
            (
                "cache_invalidations",
                sum(|e| e.cache_invalidations),
                m.cache_invalidations,
            ),
        ];
        for (name, epochs, counter) in checks {
            if epochs != counter {
                violations.push(format!(
                    "telemetry does not reconcile: epoch-sum {name} = {epochs}, counter = {counter}"
                ));
            }
        }
    }

    // Offline trace oracles on the JSONL round trip, with the mutation
    // hook in between (identity for real fuzzing).
    let mut trace = take_framed_trace(&mut system, spec.scheduler, &metrics.merged);
    mutate(schedule, &mut trace);
    let jsonl = trace.to_jsonl();
    match TraceLog::parse_jsonl(&jsonl) {
        Ok(parsed) => {
            let report = audit(&parsed);
            for v in report.violations {
                violations.push(format!("audit: {v}"));
            }
            let an = analyze(&parsed, DEFAULT_ANALYZE_EPOCH_NS);
            for v in an.mismatches {
                violations.push(format!("analyze: {v}"));
            }
        }
        Err(e) => violations.push(format!("trace does not round-trip through JSONL: {e}")),
    }

    let mut h = Fnv64::new();
    h.write_u64(metrics.merged.commits);
    h.write_u64(metrics.merged.total_aborts());
    h.write_u64(metrics.messages);
    h.write_u64(metrics.ended_at.0);
    h.write_bytes(jsonl.as_bytes());

    EpisodeOutcome {
        violations,
        digest: h.finish(),
        commits: metrics.merged.commits,
        pushes,
        pops,
    }
}
