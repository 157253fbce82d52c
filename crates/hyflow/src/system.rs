//! System assembly: topology + configuration + objects + workload → a
//! runnable [`GenericWorld`] of [`Node`]s, plus end-of-run aggregation.

use crate::config::DstmConfig;
use crate::message::{Msg, Timer};
use crate::metrics::{RunHistograms, RunMetrics};
use crate::node::Node;
use crate::object::Payload;
use crate::program::BoxedProgram;
use crate::trace::{ProtoTrace, TraceLog};
use dstm_net::Topology;
use dstm_sim::{
    ActorId, BinaryHeapQueue, EventQueue, GenericWorld, KernelEvent, SimDuration, SimTime,
};
use rts_core::{build_policy, ObjectId, RtsPolicy, ThresholdController};
use std::collections::HashMap;
use std::sync::Arc;

/// The kernel event type of a D-STM world (what a queue backend must hold).
pub type NodeEvent = KernelEvent<Msg, Timer>;

/// One variant, kept only because `benchmark/src/workloads.rs` names it; deleted with that call.
#[derive(Clone, Copy, Debug)]
pub enum PartitionStrategy {
    RoundRobin,
}

/// Where a system gets its shared objects and transactions.
///
/// `objects` are placed at their **home node** (`ObjectId::home`), which is
/// how every node's owner cache is implicitly seeded. `programs[i]` is the
/// transaction queue of node `i`.
pub struct WorkloadSource {
    pub objects: Vec<(ObjectId, Payload)>,
    pub programs: Vec<Vec<BoxedProgram>>,
}

/// Builder for a complete simulated D-STM deployment.
pub struct SystemBuilder {
    topo: Arc<Topology>,
    cfg: DstmConfig,
    seed: u64,
}

impl SystemBuilder {
    pub fn new(topo: Topology, cfg: DstmConfig) -> Self {
        SystemBuilder {
            topo: Arc::new(topo),
            cfg,
            seed: 0x5EED,
        }
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Assemble the world on the default binary-heap event queue. Panics if
    /// `programs` does not match the node count or if an object is homed
    /// outside the node range.
    pub fn build(self, workload: WorkloadSource) -> System {
        self.build_with_queue(workload, BinaryHeapQueue::new())
    }

    /// Assemble the world on an explicit event-queue backend (the schedule —
    /// and therefore every metric — is bit-identical across backends; only
    /// host wall-clock differs).
    pub fn build_with_queue<Q: EventQueue<NodeEvent>>(
        self,
        workload: WorkloadSource,
        queue: Q,
    ) -> System<Q> {
        let n = self.topo.n();
        assert_eq!(
            workload.programs.len(),
            n,
            "one program queue per node required"
        );
        let cfg = Arc::new(self.cfg);

        // Partition objects to their home nodes.
        let mut per_node: Vec<Vec<(ObjectId, Payload)>> = (0..n).map(|_| Vec::new()).collect();
        for (oid, payload) in workload.objects {
            per_node[oid.home(n) as usize].push((oid, payload));
        }

        let trace = if cfg.trace_protocol {
            ProtoTrace::enabled()
        } else {
            ProtoTrace::disabled()
        };
        let hists = RunHistograms::default();
        let mut programs = workload.programs;
        let nodes: Vec<Node> = (0..n)
            .map(|i| {
                let policy =
                    if cfg.adaptive_threshold && cfg.scheduler == rts_core::SchedulerKind::Rts {
                        Box::new(RtsPolicy::new(ThresholdController::adaptive(
                            cfg.cl_threshold,
                            1,
                            cfg.cl_threshold * 4,
                            SimDuration::from_millis(500),
                        ))) as Box<dyn rts_core::ConflictPolicy>
                    } else {
                        build_policy(cfg.scheduler, cfg.backoff_base, cfg.cl_threshold)
                    };
                Node::new(
                    i as u32,
                    Arc::clone(&self.topo),
                    Arc::clone(&cfg),
                    policy,
                    std::mem::take(&mut per_node[i]),
                    std::mem::take(&mut programs[i]),
                    trace.clone(),
                    hists.clone(),
                )
            })
            .collect();

        let mut world = GenericWorld::with_queue(nodes, self.seed, queue);
        for i in 0..n {
            world.send_external(ActorId(i as u32), Msg::StartWorkload, SimDuration::ZERO);
        }
        System {
            world,
            topo: self.topo,
            trace,
            hists,
        }
    }
}

/// A runnable deployment, generic over the kernel's event-queue backend
/// (defaults to the binary heap so existing `System` call sites are
/// unchanged).
pub struct System<Q = BinaryHeapQueue<NodeEvent>> {
    world: GenericWorld<Node, Q>,
    topo: Arc<Topology>,
    /// The run-wide protocol-event log every node appends to.
    trace: ProtoTrace,
    /// The run's latency histograms, which every node records into.
    hists: RunHistograms,
}

impl<Q: EventQueue<NodeEvent>> System<Q> {
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    pub fn world(&self) -> &GenericWorld<Node, Q> {
        &self.world
    }

    pub fn world_mut(&mut self) -> &mut GenericWorld<Node, Q> {
        &mut self.world
    }

    /// Drive the system to **quiescence**: every event is processed until
    /// the queue drains (or the runaway `event_budget` backstop trips).
    /// Returns the aggregated run metrics.
    ///
    /// All protocol timers are one-shot and the workload is finite, so a
    /// run always drains shortly after the last node finishes. Quiescence
    /// is — unlike "stop at the event that completed the last node" — a
    /// stop point that does not depend on the order in which the tail's
    /// simultaneous events are delivered: message counts, final object
    /// state and the trace are complete, which is what the golden
    /// digests and the offline audit compare. The makespan reported in the
    /// metrics still ends at the last commit, not at the drain: see
    /// `collect`.
    pub fn run(&mut self, event_budget: u64) -> RunMetrics {
        let started_at = self.world.now();
        self.world.run_budget(event_budget);
        self.collect(started_at)
    }

    fn collect(&self, started_at: SimTime) -> RunMetrics {
        // The run executes to quiescence, but the makespan the figures
        // divide throughput by ends at the last *commit* — the trailing
        // in-flight replies and stale retry timers that drain afterwards
        // are not useful work (RTS in particular leaves long retry timers
        // pending, and counting them would understate its throughput by
        // several-fold). Each node records its own completion time, so the
        // max does not depend on how the tail drains. An incomplete run
        // (budget backstop tripped) has no last commit; fall back to the
        // stop time.
        let ended_at = self
            .world
            .actors()
            .iter()
            .map(|n| n.done_at())
            .try_fold(SimTime::ZERO, |acc, t| t.map(|t| acc.max(t)))
            .unwrap_or_else(|| self.world.now());
        let mut merged = self.hists.snapshot();
        for node in self.world.actors() {
            merged.counters.merge(&node.metrics);
        }
        RunMetrics {
            nodes: self.topo.n(),
            merged,
            elapsed: ended_at.saturating_since(started_at),
            messages: self.world.messages_delivered(),
            started_at,
            ended_at,
        }
    }

    /// Run with a default event budget generous enough for the harness
    /// workloads (≈50k events per transaction).
    pub fn run_default(&mut self) -> RunMetrics {
        self.run(self.default_budget())
    }

    fn default_budget(&self) -> u64 {
        let total_txns: usize = self.world.actors().iter().map(|n| n.backlog()).sum();
        (total_txns as u64 + 16) * 50_000
    }

    /// Whether every node finished its workload.
    pub fn all_done(&self) -> bool {
        self.world.actors().iter().all(|n| n.done())
    }

    /// Snapshot of the current committed state of every object in the
    /// system (owner-held authoritative copies), for invariant checks.
    pub fn object_state(&self) -> HashMap<ObjectId, (Payload, u64)> {
        match self.try_object_state() {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`System::object_state`] for the verification
    /// harness: a double-owned object is reported as a violation string
    /// instead of a panic, so the fuzzer/checker can record it as a finding
    /// (and shrink the schedule that produced it).
    pub fn try_object_state(&self) -> Result<HashMap<ObjectId, (Payload, u64)>, String> {
        let mut out = HashMap::new();
        for node in self.world.actors() {
            for (oid, o) in node.owned_objects() {
                let prev = out.insert(*oid, ((*o.payload).clone(), o.version));
                if prev.is_some() {
                    return Err(format!(
                        "single-writable-copy violated: {oid:?} owned twice \
                         (second owner: node {})",
                        node.id()
                    ));
                }
            }
        }
        Ok(out)
    }

    /// Virtual time now.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// Move the run's protocol-event log out as one time-ordered
    /// [`TraceLog`], ties by node (empty unless the run was built with
    /// `DstmConfig::trace_protocol`). The nodes appended to it in dispatch
    /// order, so only runs of equal time need regrouping
    /// ([`ProtoTrace::take`]). Call after `run`.
    pub fn take_trace(&mut self) -> TraceLog {
        self.trace.take()
    }

    /// Drain every node's telemetry (empty unless the run was built with
    /// `DstmConfig::telemetry`), closing each node's final partial epoch at
    /// the current virtual time. Call after `run`; one report per node, in
    /// node order.
    pub fn take_telemetry(&mut self) -> Vec<crate::telemetry::TelemetryReport> {
        let now = self.world.now();
        self.world
            .actors_mut()
            .iter_mut()
            .map(|n| n.take_telemetry(now))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{nested_increments, ScriptOp, ScriptProgram};
    use dstm_sim::SimRng;
    use rts_core::{SchedulerKind, TxKind};

    fn single_node_system(
        programs: Vec<BoxedProgram>,
        objects: Vec<(ObjectId, Payload)>,
    ) -> System {
        let topo = Topology::complete(1, 1);
        let cfg = DstmConfig::default().with_scheduler(SchedulerKind::Tfa);
        SystemBuilder::new(topo, cfg).build(WorkloadSource {
            objects,
            programs: vec![programs],
        })
    }

    #[test]
    fn single_node_single_tx_commits() {
        let p = ScriptProgram::new(
            TxKind(1),
            vec![
                ScriptOp::Write(ObjectId(1)),
                ScriptOp::AddScalar(ObjectId(1), 5),
            ],
        );
        let mut sys =
            single_node_system(vec![Box::new(p)], vec![(ObjectId(1), Payload::Scalar(10))]);
        let m = sys.run(100_000);
        assert!(sys.all_done());
        assert_eq!(m.merged.commits, 1);
        assert_eq!(m.merged.total_aborts(), 0);
        let state = sys.object_state();
        assert_eq!(state[&ObjectId(1)].0, Payload::Scalar(15));
        assert!(state[&ObjectId(1)].1 > 0, "version bumped by the commit");
    }

    #[test]
    fn nested_commit_merges_and_publishes() {
        let p = nested_increments(TxKind(1), TxKind(2), &[ObjectId(1), ObjectId(2)]);
        let mut sys = single_node_system(
            vec![Box::new(p)],
            vec![
                (ObjectId(1), Payload::Scalar(0)),
                (ObjectId(2), Payload::Scalar(7)),
            ],
        );
        let m = sys.run(100_000);
        assert!(sys.all_done());
        assert_eq!(m.merged.commits, 1);
        assert_eq!(m.merged.nested_commits, 2);
        let state = sys.object_state();
        assert_eq!(state[&ObjectId(1)].0, Payload::Scalar(1));
        assert_eq!(state[&ObjectId(2)].0, Payload::Scalar(8));
    }

    #[test]
    fn two_node_remote_fetch_moves_ownership() {
        // One object, homed somewhere; a writer on each node increments it
        // twice; total must be 4 regardless of schedule.
        let oid = ObjectId(9);
        let topo = Topology::complete(2, 5);
        let cfg = DstmConfig::default()
            .with_scheduler(SchedulerKind::Tfa)
            .with_concurrency(1);
        let mk = || -> BoxedProgram {
            Box::new(ScriptProgram::new(
                TxKind(1),
                vec![ScriptOp::Write(oid), ScriptOp::AddScalar(oid, 1)],
            ))
        };
        let mut sys = SystemBuilder::new(topo, cfg).build(WorkloadSource {
            objects: vec![(oid, Payload::Scalar(0))],
            programs: vec![vec![mk(), mk()], vec![mk(), mk()]],
        });
        let m = sys.run(1_000_000);
        assert!(sys.all_done(), "system stalled");
        assert_eq!(m.merged.commits, 4);
        let state = sys.object_state();
        assert_eq!(
            state[&oid].0,
            Payload::Scalar(4),
            "increments must serialize"
        );
    }

    #[test]
    fn contended_counter_is_linearizable_under_all_schedulers() {
        // 4 nodes × 5 increments of one shared counter each, under each
        // scheduler: the final value must always be exactly 20.
        for scheduler in [
            SchedulerKind::Tfa,
            SchedulerKind::TfaBackoff,
            SchedulerKind::Rts,
        ] {
            let oid = ObjectId(1);
            let mut rng = SimRng::new(7);
            let topo = Topology::uniform_random(4, 1, 10, &mut rng);
            let cfg = DstmConfig::default()
                .with_scheduler(scheduler)
                .with_concurrency(2);
            let mk = || -> BoxedProgram {
                Box::new(ScriptProgram::new(
                    TxKind(1),
                    vec![
                        ScriptOp::Write(oid),
                        ScriptOp::AddScalar(oid, 1),
                        ScriptOp::Compute(SimDuration::from_micros(100)),
                    ],
                ))
            };
            let programs: Vec<Vec<BoxedProgram>> =
                (0..4).map(|_| (0..5).map(|_| mk()).collect()).collect();
            let mut sys = SystemBuilder::new(topo, cfg)
                .seed(99)
                .build(WorkloadSource {
                    objects: vec![(oid, Payload::Scalar(0))],
                    programs,
                });
            let m = sys.run(5_000_000);
            assert!(sys.all_done(), "{scheduler:?} run stalled");
            assert_eq!(m.merged.commits, 20, "{scheduler:?} lost commits");
            let state = sys.object_state();
            assert_eq!(
                state[&oid].0,
                Payload::Scalar(20),
                "{scheduler:?} violated serializability"
            );
        }
    }

    #[test]
    fn protocol_trace_spans_match_counters() {
        // A contended nested workload with tracing on: every Table-I number
        // recomputed from spans must equal the live counters exactly, and
        // the JSONL round trip must be lossless.
        use crate::trace::{ProtoEvent, TraceLog};

        let oid = ObjectId(1);
        let mut rng = SimRng::new(13);
        let topo = Topology::uniform_random(3, 1, 10, &mut rng);
        let cfg = DstmConfig {
            trace_protocol: true,
            ..DstmConfig::default()
        }
        .with_scheduler(SchedulerKind::Rts)
        .with_concurrency(2);
        let programs: Vec<Vec<BoxedProgram>> = (0..3)
            .map(|_| {
                (0..4)
                    .map(|_| {
                        Box::new(nested_increments(TxKind(1), TxKind(2), &[oid, ObjectId(2)]))
                            as BoxedProgram
                    })
                    .collect()
            })
            .collect();
        let mut sys = SystemBuilder::new(topo, cfg).seed(3).build(WorkloadSource {
            objects: vec![(oid, Payload::Scalar(0)), (ObjectId(2), Payload::Scalar(0))],
            programs,
        });
        let m = sys.run(5_000_000);
        assert!(sys.all_done());
        let trace = sys.take_trace();
        assert!(!trace.records.is_empty(), "tracing was enabled");

        let (mut commits, mut nested_commits) = (0u64, 0u64);
        let (mut own, mut parent) = (0u64, 0u64);
        for r in &trace.records {
            match &r.ev {
                ProtoEvent::TxCommit { .. } => commits += 1,
                ProtoEvent::NestedCommit { .. } => nested_commits += 1,
                ProtoEvent::NestedAbort {
                    own: o, parent: p, ..
                } => {
                    own += o;
                    parent += p;
                }
                ProtoEvent::TxAbort { nested_parent, .. } => parent += nested_parent,
                _ => {}
            }
        }
        assert_eq!(commits, m.merged.commits);
        assert_eq!(nested_commits, m.merged.nested_commits);
        assert_eq!(own, m.merged.nested_aborts_own, "Table I own split");
        assert_eq!(
            parent, m.merged.nested_aborts_parent,
            "Table I parent split"
        );

        let back = TraceLog::parse_jsonl(&trace.to_jsonl()).expect("jsonl parses");
        assert_eq!(back.records, trace.records);
    }

    #[test]
    fn telemetry_is_passive_and_epoch_sums_reconcile() {
        // The same contended workload with telemetry on and off: the
        // sampler must not perturb the schedule (identical metrics,
        // messages, end time, object state), the per-epoch deltas must sum
        // to the end-of-run totals, and the wasted-work ledger must
        // reconcile with the Table-I nested-abort split.
        fn build(telemetry: bool) -> System {
            let oid = ObjectId(1);
            let mut rng = SimRng::new(29);
            let topo = Topology::uniform_random(4, 1, 20, &mut rng);
            let cfg = DstmConfig::default()
                .with_scheduler(SchedulerKind::Rts)
                .with_concurrency(2)
                .with_telemetry(telemetry);
            let programs: Vec<Vec<BoxedProgram>> = (0..4)
                .map(|_| {
                    (0..4)
                        .map(|_| {
                            Box::new(nested_increments(TxKind(1), TxKind(2), &[oid, ObjectId(2)]))
                                as BoxedProgram
                        })
                        .collect()
                })
                .collect();
            SystemBuilder::new(topo, cfg)
                .seed(11)
                .build(WorkloadSource {
                    objects: vec![(oid, Payload::Scalar(0)), (ObjectId(2), Payload::Scalar(0))],
                    programs,
                })
        }

        let mut off = build(false);
        let want = off.run(5_000_000);
        assert!(off.all_done());
        assert!(off.take_telemetry().iter().all(|r| r.epochs.is_empty()));

        let mut on = build(true);
        let got = on.run(5_000_000);
        assert!(on.all_done());
        assert_eq!(got.merged, want.merged, "telemetry perturbed the run");
        assert_eq!(got.messages, want.messages);
        assert_eq!(got.ended_at, want.ended_at);
        assert_eq!(on.object_state(), off.object_state());

        let reports = on.take_telemetry();
        let series = crate::telemetry::merge_epoch_series(&reports);
        assert!(series.len() > 1, "contended run spans several epochs");
        let commits: u64 = series.iter().map(|e| e.commits).sum();
        let aborts: u64 = series.iter().map(|e| e.aborts).sum();
        let wasted: u64 = series.iter().map(|e| e.wasted_ns).sum();
        assert_eq!(commits, got.merged.commits);
        assert_eq!(aborts, got.merged.total_aborts());
        assert_eq!(wasted, got.merged.wasted_work_ns);
        assert!(got.merged.wasted_work_reconciles(), "Table-I split ledger");
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let p = ScriptProgram::new(
            TxKind(1),
            vec![
                ScriptOp::Write(ObjectId(1)),
                ScriptOp::AddScalar(ObjectId(1), 1),
            ],
        );
        let mut sys =
            single_node_system(vec![Box::new(p)], vec![(ObjectId(1), Payload::Scalar(0))]);
        sys.run(100_000);
        assert!(sys.take_trace().records.is_empty());
    }

    #[test]
    fn read_only_transactions_commit() {
        let p = ScriptProgram::new(TxKind(1), vec![ScriptOp::Read(ObjectId(1))]);
        let mut sys =
            single_node_system(vec![Box::new(p)], vec![(ObjectId(1), Payload::Scalar(10))]);
        let m = sys.run(100_000);
        assert!(sys.all_done());
        assert_eq!(m.merged.commits, 1);
        // Read-only commit must not bump the version.
        assert_eq!(sys.object_state()[&ObjectId(1)].1, 0);
    }
}
