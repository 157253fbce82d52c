//! System assembly: topology + configuration + objects + workload → a
//! runnable [`World`] of [`Node`]s, plus end-of-run aggregation.

use crate::config::DstmConfig;
use crate::message::{Msg, Timer};
use crate::metrics::{NodeMetrics, RunMetrics};
use crate::node::Node;
use crate::object::Payload;
use crate::program::BoxedProgram;
use crate::trace::TraceLog;
use dstm_net::Topology;
use dstm_sim::{
    ActorId, BinaryHeapQueue, EventQueue, GenericWorld, KernelEvent, Partition, ShardRunStats,
    SimDuration, SimTime,
};
use rts_core::{build_policy, ObjectId, RtsPolicy, ThresholdController};
use std::collections::HashMap;
use std::sync::Arc;

/// The kernel event type of a D-STM world (what a queue backend must hold).
pub type NodeEvent = KernelEvent<Msg, Timer>;

/// How [`System::run_sharded_with`] assigns nodes to executor shards.
///
/// Either way the run is bit-identical to serial — the partition is purely
/// a performance knob (it decides which messages cross shards and therefore
/// how wide the conservative windows can be).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// `node i → shard i % S`. Ignores the workload; the PR-4 default.
    #[default]
    RoundRobin,
    /// Deterministic greedy co-location of object homes with their heaviest
    /// requesters, seeded from the static program access profile
    /// ([`crate::program::TxProgram::access_hint`]) and balance-capped at
    /// +10% actors per shard so a locality-hungry split cannot starve a
    /// shard (the competitive-analysis constraint).
    Locality,
}

impl PartitionStrategy {
    /// Stable name used by CLI flags and bench-row labels.
    pub fn label(self) -> &'static str {
        match self {
            PartitionStrategy::RoundRobin => "round-robin",
            PartitionStrategy::Locality => "locality",
        }
    }

    /// Parse a CLI/env spelling (`round-robin`/`rr`, `locality`/`loc`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "round-robin" | "roundrobin" | "rr" => Some(PartitionStrategy::RoundRobin),
            "locality" | "loc" => Some(PartitionStrategy::Locality),
            _ => None,
        }
    }
}

/// Greedy balanced graph partitioning over the access-affinity adjacency
/// (`affinity[i]` = sorted `(neighbour, weight)` list, symmetric). Nodes are
/// placed in descending order of total affinity (heaviest talkers first,
/// ties by id); each lands on the shard it has the most already-placed
/// affinity with, among shards still under the +10% balance cap; nodes with
/// no placed affinity go to the least-loaded shard. Entirely deterministic.
fn locality_partition(affinity: &[Vec<(u32, u64)>], shards: usize) -> Vec<u32> {
    let n = affinity.len();
    // +10% over a perfectly even split, and never below ⌈n/S⌉ so a
    // feasible shard always exists.
    let cap = (n * 11).div_ceil(shards * 10).max(1);
    let total: Vec<u64> = affinity
        .iter()
        .map(|adj| adj.iter().map(|&(_, w)| w).sum())
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(total[i]), i));
    let mut assign = vec![u32::MAX; n];
    let mut counts = vec![0usize; shards];
    let mut score = vec![0u64; shards];
    for &i in &order {
        score.iter_mut().for_each(|s| *s = 0);
        for &(nb, w) in &affinity[i] {
            let a = assign[nb as usize];
            if a != u32::MAX {
                score[a as usize] += w;
            }
        }
        let mut best: Option<usize> = None;
        for s in 0..shards {
            if counts[s] >= cap {
                continue;
            }
            // Strictly-greater keeps the lowest shard id on full ties;
            // `Reverse(counts)` prefers the emptier shard at equal score,
            // which is also the zero-affinity fallback.
            let better = match best {
                None => true,
                Some(b) => {
                    (score[s], std::cmp::Reverse(counts[s]))
                        > (score[b], std::cmp::Reverse(counts[b]))
                }
            };
            if better {
                best = Some(s);
            }
        }
        let s = best.expect("cap × shards ≥ n, so an open shard exists");
        assign[i] = s as u32;
        counts[s] += 1;
    }
    assign
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

        // Static access profile for the locality partitioner: every hinted
        // access is an affinity edge between the requesting node and the
        // object's home node. Collected here, while the pristine programs
        // are still in hand; self-edges carry no partitioning information
        // and are dropped.
        let mut edges: HashMap<(u32, u32), u64> = HashMap::new();
        let mut hint: Vec<ObjectId> = Vec::new();
        for (i, queue) in workload.programs.iter().enumerate() {
            for prog in queue {
                hint.clear();
                prog.access_hint(&mut hint);
                for oid in hint.drain(..) {
                    let h = oid.home(n);
                    let i = i as u32;
                    if h != i {
                        *edges.entry((i.min(h), i.max(h))).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut sorted_edges: Vec<((u32, u32), u64)> = edges.into_iter().collect();
        sorted_edges.sort_unstable();
        let mut affinity: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for ((a, b), w) in sorted_edges {
            affinity[a as usize].push((b, w));
            affinity[b as usize].push((a, w));
        }

        // Partition objects to their home nodes.
        let mut per_node: Vec<Vec<(ObjectId, Payload)>> = (0..n).map(|_| Vec::new()).collect();
        for (oid, payload) in workload.objects {
            per_node[oid.home(n) as usize].push((oid, payload));
        }

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
            affinity,
            shard_stats: None,
        }
    }
}

/// A runnable deployment, generic over the kernel's event-queue backend
/// (defaults to the binary heap so existing `System` call sites are
/// unchanged).
pub struct System<Q = BinaryHeapQueue<NodeEvent>> {
    world: GenericWorld<Node, Q>,
    topo: Arc<Topology>,
    /// Symmetric requester↔home affinity adjacency from the static access
    /// profile (input to [`PartitionStrategy::Locality`]).
    affinity: Vec<Vec<(u32, u64)>>,
    /// Executor statistics of the most recent sharded run, if any.
    shard_stats: Option<ShardRunStats>,
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
    /// run always drains shortly after the last node finishes; quiescence
    /// is — unlike "stop at the event that completed the last node" — the
    /// *same* stop point the sharded executor reaches, which is what makes
    /// [`run_sharded`](Self::run_sharded) bit-identical to this method.
    /// The makespan reported in the metrics still ends at the last commit,
    /// not at the drain: see [`collect`](Self::collect).
    pub fn run(&mut self, event_budget: u64) -> RunMetrics {
        let started_at = self.world.now();
        self.world.run_while(event_budget, |_| true);
        self.collect(started_at)
    }

    /// Like [`run`](Self::run), but executes on `shards` threads using the
    /// kernel's conservative time-windowed parallel executor with round-robin
    /// partitioning. The outcome — metrics, histograms, object state,
    /// protocol traces — is bit-identical to the serial `run` for every
    /// shard count. Shorthand for [`run_sharded_with`](Self::run_sharded_with)
    /// with [`PartitionStrategy::RoundRobin`].
    pub fn run_sharded(&mut self, event_budget: u64, shards: usize) -> RunMetrics
    where
        Q: Default + Send,
    {
        self.run_sharded_with(event_budget, shards, PartitionStrategy::RoundRobin)
    }

    /// [`run_sharded`](Self::run_sharded) with an explicit partitioning
    /// strategy. The lookahead is the topology's per-shard-pair minimum
    /// cross-delay matrix ([`Topology::cross_min_delay`]) — every pair's
    /// window is at least as wide as the old fleet-wide `min_delay` window,
    /// and far wider wherever the partition keeps chatty nodes together.
    /// Executor statistics (per-shard event counts, barrier-wait ns) are
    /// retained and readable via [`shard_stats`](Self::shard_stats).
    pub fn run_sharded_with(
        &mut self,
        event_budget: u64,
        shards: usize,
        strategy: PartitionStrategy,
    ) -> RunMetrics
    where
        Q: Default + Send,
    {
        let started_at = self.world.now();
        let part = self.partition_for(strategy, shards);
        let lookahead = self.topo.cross_min_delay(part.shard_of(), part.shards());
        let stats = self.world.run_partitioned(part, &lookahead, event_budget);
        self.shard_stats = Some(stats);
        self.collect(started_at)
    }

    /// The node→shard assignment a sharded run with this strategy would
    /// use (shard count clamped to the node count). Exposed so tests and
    /// the harness can audit partition balance without running anything.
    pub fn partition_for(&self, strategy: PartitionStrategy, shards: usize) -> Partition {
        let n = self.topo.n();
        let s = shards.clamp(1, n.max(1));
        match strategy {
            PartitionStrategy::RoundRobin => Partition::round_robin(n, s),
            PartitionStrategy::Locality => {
                Partition::from_assignment(locality_partition(&self.affinity, s), s)
            }
        }
    }

    /// Executor statistics of the most recent sharded run (`None` until one
    /// happens): per-shard event counts and per-shard barrier-wait time.
    pub fn shard_stats(&self) -> Option<&ShardRunStats> {
        self.shard_stats.as_ref()
    }

    fn collect(&self, started_at: SimTime) -> RunMetrics {
        // The run executes to quiescence, but the makespan the figures
        // divide throughput by ends at the last *commit* — the trailing
        // in-flight replies and stale retry timers that drain afterwards
        // are not useful work (RTS in particular leaves long retry timers
        // pending, and counting them would understate its throughput by
        // several-fold). Each node records its own completion time, so the
        // max is identical under serial and sharded execution even though
        // the two drain the tail in different orders. An incomplete run
        // (budget backstop tripped) has no last commit; fall back to the
        // stop time.
        let ended_at = self
            .world
            .actors()
            .iter()
            .map(|n| n.done_at())
            .try_fold(SimTime::ZERO, |acc, t| t.map(|t| acc.max(t)))
            .unwrap_or_else(|| self.world.now());
        let mut merged = NodeMetrics::default();
        for node in self.world.actors() {
            merged.merge(&node.metrics);
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

    /// [`run_sharded`](Self::run_sharded) with the same default event budget
    /// as [`run_default`](Self::run_default).
    pub fn run_sharded_default(&mut self, shards: usize) -> RunMetrics
    where
        Q: Default + Send,
    {
        self.run_sharded(self.default_budget(), shards)
    }

    /// [`run_sharded_with`](Self::run_sharded_with) with the default budget.
    pub fn run_sharded_default_with(
        &mut self,
        shards: usize,
        strategy: PartitionStrategy,
    ) -> RunMetrics
    where
        Q: Default + Send,
    {
        self.run_sharded_with(self.default_budget(), shards, strategy)
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

    /// Drain every node's protocol-event stream into one time-ordered
    /// [`TraceLog`] (empty unless the run was built with
    /// `DstmConfig::trace_protocol`). Call after `run`.
    pub fn take_trace(&mut self) -> TraceLog {
        let streams = self
            .world
            .actors_mut()
            .iter_mut()
            .map(|n| n.take_trace())
            .collect();
        TraceLog::from_node_streams(streams)
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
    fn sharded_run_is_bit_identical_to_serial() {
        // Contended multi-node workload: the conservative windowed executor
        // must reproduce the serial run exactly, for every shard count.
        fn build() -> System {
            let oid = ObjectId(1);
            let mut rng = SimRng::new(23);
            let topo = Topology::uniform_random(6, 1, 20, &mut rng);
            let cfg = DstmConfig::default()
                .with_scheduler(SchedulerKind::Rts)
                .with_concurrency(2);
            let mk = || -> BoxedProgram {
                Box::new(ScriptProgram::new(
                    TxKind(1),
                    vec![
                        ScriptOp::Write(oid),
                        ScriptOp::AddScalar(oid, 1),
                        ScriptOp::Compute(SimDuration::from_micros(250)),
                    ],
                ))
            };
            let programs = (0..6).map(|_| (0..3).map(|_| mk()).collect()).collect();
            SystemBuilder::new(topo, cfg)
                .seed(17)
                .build(WorkloadSource {
                    objects: vec![(ObjectId(1), Payload::Scalar(0))],
                    programs,
                })
        }

        let mut serial = build();
        let want = serial.run(5_000_000);
        assert!(serial.all_done());
        for strategy in [PartitionStrategy::RoundRobin, PartitionStrategy::Locality] {
            for shards in [1, 2, 4, 8] {
                let mut sys = build();
                let got = sys.run_sharded_with(5_000_000, shards, strategy);
                assert!(sys.all_done(), "sharded({shards}, {strategy:?}) stalled");
                assert_eq!(
                    got.merged, want.merged,
                    "metrics diverged at {shards} ({strategy:?})"
                );
                assert_eq!(got.messages, want.messages);
                assert_eq!(got.ended_at, want.ended_at);
                assert_eq!(sys.object_state(), serial.object_state());
                let stats = sys.shard_stats().expect("sharded run records stats");
                assert_eq!(
                    stats.shard_events.iter().sum::<u64>(),
                    stats.steps,
                    "per-shard events must sum to the total"
                );
            }
        }
    }

    #[test]
    fn partition_strategy_names_round_trip() {
        for s in [PartitionStrategy::RoundRobin, PartitionStrategy::Locality] {
            assert_eq!(PartitionStrategy::from_name(s.label()), Some(s));
        }
        assert_eq!(
            PartitionStrategy::from_name("rr"),
            Some(PartitionStrategy::RoundRobin)
        );
        assert_eq!(
            PartitionStrategy::from_name("loc"),
            Some(PartitionStrategy::Locality)
        );
        assert_eq!(PartitionStrategy::from_name("metis"), None);
    }

    #[test]
    fn locality_partition_balances_and_co_locates() {
        // Two chatty cliques {0,1,2} and {3,4,5} plus two silent nodes.
        // The partitioner must keep each clique together and still respect
        // the +10% cap (here: 8 nodes / 2 shards → cap 5).
        let mut affinity: Vec<Vec<(u32, u64)>> = vec![Vec::new(); 8];
        let mut link = |a: u32, b: u32, w: u64| {
            affinity[a as usize].push((b, w));
            affinity[b as usize].push((a, w));
        };
        for &(a, b) in &[(0, 1), (0, 2), (1, 2)] {
            link(a, b, 10);
        }
        for &(a, b) in &[(3, 4), (3, 5), (4, 5)] {
            link(a, b, 10);
        }
        let assign = locality_partition(&affinity, 2);
        assert_eq!(assign[0], assign[1]);
        assert_eq!(assign[0], assign[2]);
        assert_eq!(assign[3], assign[4]);
        assert_eq!(assign[3], assign[5]);
        assert_ne!(assign[0], assign[3], "cliques spread over both shards");
        let mut counts = [0usize; 2];
        for &s in &assign {
            counts[s as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c <= 5), "cap violated: {counts:?}");
        assert_eq!(assign, locality_partition(&affinity, 2), "deterministic");
    }

    #[test]
    fn locality_partition_cap_prevents_starvation() {
        // A star: everyone loves node 0. Greedy-without-cap would dump all
        // 10 nodes on one shard; the +10% cap (⌈10·1.1/2⌉ = 6) must stop
        // that — the competitive-analysis balance requirement.
        let mut affinity: Vec<Vec<(u32, u64)>> = vec![Vec::new(); 10];
        for b in 1..10u32 {
            affinity[0].push((b, 5));
            affinity[b as usize].push((0, 5));
        }
        let assign = locality_partition(&affinity, 2);
        let mut counts = [0usize; 2];
        for &s in &assign {
            counts[s as usize] += 1;
        }
        assert!(
            counts.iter().all(|&c| (4..=6).contains(&c)),
            "star workload starved a shard: {counts:?}"
        );
    }

    #[test]
    fn affinity_profile_reaches_the_partitioner() {
        // 4 nodes, each hammering one object homed at node 0: the built
        // system's affinity adjacency must contain requester→home edges
        // (3 requesters × 1 object each), and `partition_for(Locality)`
        // must produce a legal, balanced partition that differs from
        // round-robin in a way that keeps node 0 with some requester.
        let oid = ObjectId(0); // home = 0 % 4 = 0
        let topo = Topology::complete(4, 5);
        let cfg = DstmConfig::default().with_scheduler(rts_core::SchedulerKind::Tfa);
        let mk = || -> BoxedProgram {
            Box::new(ScriptProgram::new(
                rts_core::TxKind(1),
                vec![ScriptOp::Write(oid), ScriptOp::AddScalar(oid, 1)],
            ))
        };
        let sys = SystemBuilder::new(topo, cfg).build(WorkloadSource {
            objects: vec![(oid, Payload::Scalar(0))],
            programs: (0..4).map(|_| vec![mk()]).collect(),
        });
        // Nodes 1..3 each have one edge to node 0 of weight 1 (node 0's
        // own access is a self-edge and dropped).
        assert_eq!(sys.affinity[0].len(), 3);
        for r in 1..4 {
            assert_eq!(sys.affinity[r], vec![(0u32, 1u64)]);
        }
        let part = sys.partition_for(PartitionStrategy::Locality, 2);
        assert_eq!(part.shards(), 2);
        // Cap for 4 nodes / 2 shards is ⌈4·1.1/2⌉ = 3: node 0 plus two
        // requesters share a shard, the leftover requester gets the other.
        let home_shard = part.shard_of()[0];
        let with_home = part.shard_of().iter().filter(|&&s| s == home_shard).count();
        assert_eq!(with_home, 3, "partition: {:?}", part.shard_of());
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
        let cfg = DstmConfig::default()
            .with_scheduler(SchedulerKind::Rts)
            .with_concurrency(2)
            .with_protocol_trace(true);
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
                .with_telemetry(telemetry)
                .with_epoch(SimDuration::from_millis(5));
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
        assert!(!series.is_empty(), "contended run spans several epochs");
        let commits: u64 = series.iter().map(|e| e.commits).sum();
        let aborts: u64 = series.iter().map(|e| e.aborts).sum();
        let wasted: u64 = series.iter().map(|e| e.wasted_ns).sum();
        assert_eq!(commits, got.merged.commits);
        assert_eq!(aborts, got.merged.total_aborts());
        assert_eq!(wasted, got.merged.wasted_work_ns);
        assert!(got.merged.wasted_work_reconciles(), "Table-I split ledger");
        // Aborts attributed to objects in the rollup are a subset of all
        // top-level aborts (timeout/validation aborts may know no object).
        let rollup = crate::telemetry::merge_object_waste(&reports);
        let rollup_aborts: u64 = rollup.iter().map(|o| o.aborts).sum();
        assert!(rollup_aborts <= got.merged.total_aborts());
        if got.merged.total_aborts() > 0 {
            assert!(!rollup.is_empty(), "contended aborts blame objects");
        }
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
