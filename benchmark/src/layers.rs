//! The traced run: one extra pass per workload that measures every layer
//! from outside, plus replay micro-timings for the three seams that cannot
//! be wrapped (`Topology::delay`, the `rts_core` policy / CL window, and the
//! `TxRuntime` set operations), plus one pass per instrumentation hook
//! (protocol trace, telemetry) to price the hook as on-minus-off.
//!
//! No tracing is added inside the program: every span opens and closes in
//! this package, around calls into a layer.

use crate::json::Json;
use crate::measure::{
    check_and_digest, observe, pass_totals, run_cell_untraced, run_system, untraced_pass, CellRun,
};
use crate::spans::{calibrate_clock_read_ns, now_ns, Spans};
use crate::timed::{Acc, Fold, TimedProgram, TimedQueue, FIRST_TIMER, KINDS};
use crate::workloads::Workload;
use dstm_harness::runner::build_system;
use dstm_harness::{Cell, TopologySpec};
use dstm_net::Topology;
use dstm_sim::{
    Actor, ActorId, BinaryHeapQueue, Ctx, GenericWorld, Histogram, SimDuration, SimRng, SimTime,
};
use hyflow_dstm::program::ScriptProgram;
use hyflow_dstm::{
    AccessMode, BoxedProgram, NodeEvent, Payload, ProtoEvent, System, SystemBuilder, TraceLog,
    TxRuntime, Verdict,
};
use rts_core::{
    build_policy, ConflictCtx, Ets, ObjectClWindow, ObjectId, Requester, SchedulingTable, TxId,
    TxKind,
};
use std::hint::black_box;
use std::sync::Arc;

type TracedSystem = System<TimedQueue<BinaryHeapQueue<NodeEvent>>>;

/// `runner::build_system_with_queue`, re-implemented here because the
/// programs must be wrapped between `Benchmark::generate` and
/// `SystemBuilder`. The traced pass's digest equals the untraced passes'
/// only while the two stay in step, which is what guards this copy.
fn build_traced(cell: &Cell, spans: &mut Spans) -> TracedSystem {
    spans.enter("harness.runner.build");
    let topo = spans.time("net.topology.build", || match cell.topology {
        TopologySpec::UniformRandom { min_ms, max_ms } => {
            let mut rng = SimRng::new(cell.sim_seed);
            Topology::uniform_random(cell.params.nodes, min_ms, max_ms, &mut rng)
        }
        TopologySpec::HashedRandom { min_ms, max_ms } => {
            Topology::hashed_random(cell.params.nodes, min_ms, max_ms, cell.sim_seed)
        }
    });
    let mut dstm = cell.dstm.clone();
    dstm.scheduler = cell.scheduler;
    dstm.txns_per_node = cell.params.txns_per_node;
    let mut workload = spans.time("benchmarks.generate", || {
        cell.benchmark.generate(&cell.params)
    });
    spans.time("bench.wrap_programs", || {
        for queue in &mut workload.programs {
            *queue = std::mem::take(queue)
                .into_iter()
                .map(|p| Box::new(TimedProgram(p)) as BoxedProgram)
                .collect();
        }
    });
    let system = spans.time("hyflow.system.build", || {
        SystemBuilder::new(topo, dstm)
            .seed(cell.sim_seed ^ 0xA5A5_5A5A)
            .build_with_queue(workload, TimedQueue::new(BinaryHeapQueue::new()))
    });
    spans.exit();
    system
}

/// What the traced pass kept of one cell.
struct TracedCell {
    run: CellRun,
    build_fold: Fold,
    run_fold: Fold,
    run_ns: u64,
    collect_ns: u64,
    /// `Topology::delay` replayed over the cell's `(src, dst)` stream: the
    /// count is the number of lookups, the time what they took in isolation.
    delay_replay: Acc,
    jsonl_bytes: usize,
}

fn run_cell_traced(
    cell: &Cell,
    observe_cell: bool,
    budget: Option<u64>,
    spans: &mut Spans,
) -> TracedCell {
    let mut cell = cell.clone();
    if observe_cell {
        cell = cell.with_trace().with_telemetry();
    }
    spans.enter("cell");
    let t0 = now_ns();
    let mut system = build_traced(&cell, spans);
    let build_fold = Fold::take();
    let t1 = now_ns();
    spans.enter("run");
    let metrics = run_system(&mut system, budget);
    let run_end = now_ns();
    let mut run_fold = Fold::take();
    // `System::run` collects the metrics after the queue drains: from the
    // last pop's return to `run`'s.
    let collect_start = run_fold.last_pop_exit_ns.clamp(t1, run_end);
    spans.add("hyflow.system.collect", collect_start, run_end);
    spans.exit();
    let observed = observe_cell.then(|| observe(&cell, &mut system, &metrics, spans));
    let t2 = now_ns();

    let delay_replay = spans.time("bench.replay", || {
        replay_delays(
            system.topology(),
            &std::mem::take(&mut run_fold.delay_stream),
        )
    });
    let (digest, failure) = spans.time("bench.check", || {
        check_and_digest(&cell, &system, &metrics, observed.as_ref())
    });
    spans.exit();
    TracedCell {
        run: CellRun {
            events: metrics.messages + system.world().timers_fired(),
            batched: system.world().batched_messages(),
            metrics,
            digest,
            failure,
            setup_ns: t1 - t0,
            work_ns: t2 - t1,
            cpu_ns: 0,
        },
        build_fold,
        run_fold,
        run_ns: run_end - t1,
        collect_ns: run_end - collect_start,
        delay_replay,
        jsonl_bytes: observed.map_or(0, |o| o.jsonl.len()),
    }
}

/// `Topology::delay` over the cell's own `(src, dst)` stream.
fn replay_delays(topo: &Topology, stream: &[(u32, u32)]) -> Acc {
    let t0 = now_ns();
    let mut sum = 0u64;
    for &(a, b) in stream {
        sum = sum.wrapping_add(topo.delay(ActorId(a), ActorId(b)).as_nanos());
    }
    black_box(sum);
    Acc {
        count: stream.len() as u64,
        ns: now_ns() - t0,
    }
}

/// The two-actor ping-pong of `benches/micro.rs` on the heap backend: the
/// kernel's marginal cost per event, which a `Node` handler cannot go below.
struct PingPong;

impl Actor for PingPong {
    type Msg = u32;
    type Timer = u32;

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32, u32>, _from: ActorId, msg: u32) {
        if msg > 0 {
            let to = ActorId(1 - ctx.me().0);
            let d = SimDuration::from_micros(1 + ctx.rng().below(100));
            ctx.send(to, msg - 1, d);
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32, u32>, _timer: u32) {}
}

fn engine_floor_ns_per_event() -> f64 {
    const EVENTS: u32 = 200_000;
    let mut best = f64::MAX;
    for _ in 0..5 {
        let mut w = GenericWorld::with_queue(vec![PingPong, PingPong], 1, BinaryHeapQueue::new());
        w.send_external(ActorId(0), EVENTS, SimDuration::ZERO);
        let t0 = now_ns();
        w.run();
        let ns = now_ns() - t0;
        best = best.min(ns as f64 / black_box(w.messages_delivered()) as f64);
    }
    best
}

/// What the protocol-trace pass extracts from each cell's records before
/// dropping them.
#[derive(Default)]
struct TraceDigest {
    records: u64,
    take: Acc,
    decisions: u64,
    enqueues: u64,
    queue_depth_max: u64,
    policy: Acc,
    cl: Acc,
    /// Σ (reads + writes) and Σ nested children over commit records.
    commit_objects: u64,
    commit_children: u64,
    commits: u64,
}

/// Largest number of calls one cell contributes to a replay micro-timing:
/// enough for a stable mean, small enough that the prepared inputs stay in
/// memory.
const REPLAY_SAMPLE: usize = 4096;

impl TraceDigest {
    fn absorb(&mut self, cell: &Cell, log: &TraceLog) {
        self.records += log.records.len() as u64;
        let mut decisions: Vec<(ConflictCtx, SchedulingTable)> = Vec::new();
        let mut cl_stream: Vec<(ObjectId, SimTime, TxId)> = Vec::new();
        for rec in &log.records {
            match &rec.ev {
                ProtoEvent::SchedDecision {
                    oid,
                    tx,
                    attempt,
                    local_cl,
                    requester_cl,
                    executed,
                    remaining,
                    queue_depth,
                    bk,
                    verdict,
                    ..
                } => {
                    self.decisions += 1;
                    self.queue_depth_max = self.queue_depth_max.max(*queue_depth);
                    let enqueued = *verdict == Verdict::Enqueue;
                    self.enqueues += u64::from(enqueued);
                    if decisions.len() >= REPLAY_SAMPLE {
                        continue;
                    }
                    // The record holds the table state *after* the decision;
                    // an enqueue added one requester and `remaining` of
                    // backlog.
                    let (depth_before, bk_before) = if enqueued {
                        (
                            queue_depth.saturating_sub(1),
                            SimDuration(bk.0.saturating_sub(remaining.0)),
                        )
                    } else {
                        (*queue_depth, *bk)
                    };
                    let requester = |tx: TxId, attempt: u32| Requester {
                        node: tx.node,
                        tx,
                        read_only: false,
                        attempt,
                        enqueued_at: rec.at,
                    };
                    let mut table = SchedulingTable::new();
                    let list = table.list_mut(*oid);
                    list.extend_bk(bk_before);
                    for i in 0..depth_before {
                        list.add_requester(*local_cl, requester(TxId::new(u32::MAX, i), 0));
                    }
                    let ctx = ConflictCtx {
                        now: rec.at,
                        oid: *oid,
                        requester: requester(*tx, *attempt),
                        ets: Ets::new(
                            SimTime(rec.at.0.saturating_sub(executed.0)),
                            rec.at,
                            SimTime(rec.at.0 + remaining.0),
                        ),
                        requester_cl: *requester_cl,
                        local_cl: *local_cl,
                        attempt: *attempt,
                    };
                    decisions.push((ctx, table));
                }
                ProtoEvent::TxCommit {
                    tx,
                    nested_committed,
                    reads,
                    writes,
                    ..
                } => {
                    self.commits += 1;
                    self.commit_objects += (reads.len() + writes.len()) as u64;
                    self.commit_children += nested_committed;
                    if cl_stream.len() < REPLAY_SAMPLE {
                        cl_stream.extend(reads.iter().map(|(oid, _)| (*oid, rec.at, *tx)));
                    }
                }
                _ => {}
            }
        }

        if !decisions.is_empty() {
            let mut policy = build_policy(
                cell.scheduler,
                cell.dstm.backoff_base,
                cell.dstm.cl_threshold,
            );
            let t0 = now_ns();
            for (ctx, table) in &mut decisions {
                black_box(policy.on_conflict(ctx, table));
            }
            self.policy.merge(&Acc {
                count: decisions.len() as u64,
                ns: now_ns() - t0,
            });
        }

        if !cl_stream.is_empty() {
            // The owner-side window of each object, fed the cell's own
            // (object, time, transaction) request order as its commit
            // records list it.
            let mut oids: Vec<ObjectId> = cl_stream.iter().map(|(o, _, _)| *o).collect();
            oids.sort_unstable();
            oids.dedup();
            let mut windows: Vec<ObjectClWindow> = oids
                .iter()
                .map(|_| ObjectClWindow::new(cell.dstm.cl_window))
                .collect();
            let stream: Vec<(usize, SimTime, TxId)> = cl_stream
                .iter()
                .map(|(o, at, tx)| (oids.binary_search(o).expect("collected above"), *at, *tx))
                .collect();
            let t0 = now_ns();
            for &(i, at, tx) in &stream {
                windows[i].record(at, tx);
                black_box(windows[i].local_cl(at));
            }
            self.cl.merge(&Acc {
                count: stream.len() as u64,
                ns: now_ns() - t0,
            });
        }
    }
}

/// Isolated cost of the `TxRuntime` set operations at the workload's mean
/// footprint: `(ns per open+install+close of one child, ns per whole abort)`.
fn tx_micro(objects_per_tx: usize, children_per_tx: usize, clock_ns: f64) -> (f64, f64) {
    const ROUNDS: u64 = 4000;
    let empty = || -> BoxedProgram { Box::new(ScriptProgram::new(TxKind(0), Vec::new())) };
    let children = children_per_tx.max(1);
    let per_child = objects_per_tx.div_ceil(children).max(1);
    let payload = Arc::new(Payload::Scalar(0));
    let snapshot = empty();
    let mut rt = TxRuntime::new(
        TxId::new(0, 1),
        empty(),
        SimTime::ZERO,
        SimTime(1_000_000),
        0,
    );
    let build = |rt: &mut TxRuntime| {
        for c in 0..children {
            rt.open_nested(TxKind(2), snapshot.clone_box(), SimTime::ZERO);
            for j in 0..per_child {
                rt.install_fetched(
                    ObjectId((c * per_child + j) as u64),
                    Arc::clone(&payload),
                    1,
                    1,
                    0,
                    AccessMode::Read,
                );
            }
            rt.close_nested();
        }
    };
    let (mut open_close, mut abort) = (0u64, 0u64);
    for _ in 0..ROUNDS {
        let t0 = now_ns();
        build(&mut rt);
        let t1 = now_ns();
        black_box(rt.abort_to_level(0));
        let t2 = now_ns();
        open_close += t1 - t0;
        abort += t2 - t1;
    }
    let per =
        |total: u64, ops: u64| (total as f64 - clock_ns * ROUNDS as f64).max(0.0) / ops as f64;
    (
        per(open_close, ROUNDS * children as u64),
        per(abort, ROUNDS),
    )
}

/// One cell with the hooks set as `prepare` leaves them, through the
/// harness's `build_system`; returns the run's wall time.
fn hook_run(
    cell: &Cell,
    budget: Option<u64>,
    prepare: impl Fn(Cell) -> Cell,
    after: impl FnOnce(&mut System),
) -> u64 {
    let mut system = build_system(&prepare(cell.clone()));
    let t0 = now_ns();
    black_box(run_system(&mut system, budget));
    let ns = now_ns() - t0;
    after(&mut system);
    ns
}

/// Result of the traced run of one workload.
pub struct Layers {
    /// `(name, unit, value)` for every per-layer metric of `BENCHMARK.json`.
    pub metrics: Vec<(String, &'static str, f64)>,
    /// Contents of `benchmark/out/<workload>.trace.json`.
    pub trace: Json,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the untraced warm-up pass, and of the traced pass: equal
    /// unless the wrappers perturbed the run.
    pub digest: u64,
    pub traced_digest: u64,
    /// Every self time of the traced pass (layers, then the benchmark's own
    /// shares), clock cost subtracted; with `unattributed_ns` they sum to
    /// `wall_ns`.
    pub self_times: Vec<(String, f64)>,
    pub unattributed_ns: f64,
    pub wall_ns: f64,
}

impl Layers {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
    }
}

/// Cost of one timed call's instrumentation (two clock reads and the fold
/// update), calibrated like the clock read itself. One read's worth sits
/// inside the call's own interval; the rest lands in the enclosing handler.
fn calibrate_probe_ns() -> f64 {
    const BATCH: u32 = 20_000;
    let mut q = TimedQueue::new(NullQueue);
    let mut best = f64::MAX;
    for _ in 0..25 {
        let t0 = now_ns();
        for _ in 0..BATCH {
            black_box(dstm_sim::EventQueue::pop(&mut q));
        }
        best = best.min((now_ns() - t0) as f64 / f64::from(BATCH));
    }
    Fold::take();
    best
}

/// An always-empty backend for [`calibrate_probe_ns`].
struct NullQueue;

impl dstm_sim::EventQueue<NodeEvent> for NullQueue {
    fn push(&mut self, _ev: dstm_sim::Sequenced<NodeEvent>) {}
    fn pop(&mut self) -> Option<dstm_sim::Sequenced<NodeEvent>> {
        None
    }
    fn peek_key(&self) -> Option<dstm_sim::EventKey> {
        None
    }
    fn len(&self) -> usize {
        0
    }
}

pub fn layers(w: &Workload, budget: Option<u64>) -> Layers {
    let clock_ns = calibrate_clock_read_ns();
    let probe_ns = calibrate_probe_ns().max(clock_ns);
    let floor_ns = engine_floor_ns_per_event();

    // Pass 1: untraced, untimed — warms caches and fixes the digest.
    let (_, warm) = untraced_pass(w, budget);
    let attempted = w.attempted();
    let mut failed = warm.failed;

    // Pass 2: the traced pass.
    let mut spans = Spans::on();
    spans.enter("pass");
    let traced: Vec<TracedCell> = w
        .cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            spans.cell = Some(i);
            run_cell_traced(cell, w.observe, budget, &mut spans)
        })
        .collect();
    spans.cell = None;
    spans.exit();
    let wall_ns = spans.spans[0].dur() as f64;
    let traced_totals = pass_totals(&w.cells, traced.iter().map(|t| &t.run));
    failed += if traced_totals.digest == warm.digest {
        traced_totals.failed
    } else {
        eprintln!(
            "FAILED traced pass: digest {:#018x} != untraced {:#018x} (the wrappers are not \
             pass-through, or build_traced drifted from the harness's build_system)",
            traced_totals.digest, warm.digest
        );
        attempted
    };

    // Pass 3: per cell and back to back — the untraced reference the traced
    // pass is compared to, then the same cell with each hook off / on. The
    // host's speed drifts over seconds; pairing the runs keeps the drift out
    // of the on-minus-off differences.
    let mut reference_runs = Vec::with_capacity(w.cells.len());
    let mut td = TraceDigest::default();
    let mut epochs = 0u64;
    let (mut off_ns, mut trace_ns, mut telemetry_ns) = (0u64, 0u64, 0u64);
    for cell in &w.cells {
        let reference = run_cell_untraced(cell, w.observe, budget);
        off_ns += if w.observe {
            // `observe_160`'s ordinary passes run with both hooks on.
            hook_run(cell, budget, |c| c, |_| ())
        } else {
            reference.work_ns
        };
        reference_runs.push(reference);
        trace_ns += hook_run(cell, budget, Cell::with_trace, |system| {
            let t0 = now_ns();
            let log = system.take_trace();
            td.take.merge(&Acc {
                count: 1,
                ns: now_ns() - t0,
            });
            td.absorb(cell, &log);
        });
        telemetry_ns += hook_run(cell, budget, Cell::with_telemetry, |system| {
            epochs += system
                .take_telemetry()
                .iter()
                .map(|r| r.epochs.len() as u64)
                .sum::<u64>();
        });
    }
    let reference = pass_totals(&w.cells, &reference_runs);

    // ---- fold the traced pass ------------------------------------------
    let mut build_fold = Fold::default();
    let mut run_fold = Fold::default();
    let mut delay_replay = Acc::default();
    let (mut run_ns, mut collect_ns) = (0u64, 0u64);
    for t in &traced {
        build_fold.merge(&t.build_fold);
        run_fold.merge(&t.run_fold);
        delay_replay.merge(&t.delay_replay);
        run_ns += t.run_ns;
        collect_ns += t.collect_ns;
    }
    let span_self = spans.self_ns_by_name();
    let span = |name: &str| {
        span_self
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, ns)| *ns as f64)
    };
    // A timed call's interval holds one clock read; the rest of its probe
    // lands in the enclosing handler (or, during the build, in the build).
    let leak_ns = probe_ns - clock_ns;
    let own = |a: &Acc| (a.ns as f64 - clock_ns * a.count as f64).max(0.0);

    let pushes = Acc {
        count: build_fold.push.count + run_fold.push.count,
        ns: build_fold.push.ns + run_fold.push.ns,
    };
    let push_ns = own(&pushes);
    let pop_ns = own(&run_fold.pop);
    let step_ns = own(&run_fold.step);
    let clone_ns = own(&run_fold.clone);
    let handler_ns: Vec<f64> = (0..KINDS.len())
        .map(|k| {
            let probes = run_fold.handler[k].count + run_fold.handler_nested_calls[k];
            (run_fold.handler[k].ns as f64 - leak_ns * probes as f64).max(0.0)
        })
        .collect();
    let timed_calls =
        pushes.count + run_fold.pop.count + run_fold.step.count + run_fold.clone.count;
    let instrumentation_ns = probe_ns * timed_calls as f64;

    // Inside the run span: pops + handlers + their nested calls are folded;
    // what is left is the loop's head and tail.
    let run_folded = (run_fold.pop.ns
        + run_fold.push.ns
        + run_fold.step.ns
        + run_fold.clone.ns
        + run_fold.handler.iter().map(|a| a.ns).sum::<u64>()) as f64;
    let run_unattributed = (run_ns as f64 - collect_ns as f64 - run_folded).max(0.0);
    let system_build_ns = (span("hyflow.system.build")
        - build_fold.push.ns as f64
        - leak_ns * build_fold.push.count as f64)
        .max(0.0);

    let mut self_times: Vec<(String, f64)> = vec![
        ("sim.queue.push_ns".into(), push_ns),
        ("sim.queue.pop_ns".into(), pop_ns),
        ("benchmarks.program.step_ns".into(), step_ns),
        ("benchmarks.program.clone_ns".into(), clone_ns),
        ("hyflow.system.build_ns".into(), system_build_ns),
        ("hyflow.system.collect_ns".into(), collect_ns as f64),
    ];
    // Layers whose self time is a raw span's.
    for name in [
        "net.topology.build",
        "benchmarks.generate",
        "harness.runner.build",
        "hyflow.trace.take",
        "hyflow.telemetry.take",
        "hyflow.trace.to_jsonl",
        "hyflow.trace.parse",
        "harness.traceio.audit",
        "harness.traceio.analyze",
        "harness.traceio.chrome",
    ] {
        self_times.push((format!("{name}_ns"), span(name)));
    }
    for (k, kind) in KINDS.iter().enumerate() {
        let family = if k < FIRST_TIMER { "msg" } else { "timer" };
        self_times.push((
            format!("hyflow.node.{family}.{kind}.self_ns"),
            handler_ns[k],
        ));
    }
    self_times.push(("bench.instrumentation_ns".into(), instrumentation_ns));
    for name in ["bench.wrap_programs", "bench.replay", "bench.check"] {
        self_times.push((format!("{name}_ns"), span(name)));
    }
    // The run span's own self time is what the fold decomposes; only its
    // head/tail remainder is unattributed.
    let unattributed_ns = span("pass") + span("cell") + run_unattributed;

    // ---- counters from the untraced reference pass -----------------------
    let sum = |f: &dyn Fn(&CellRun) -> u64| reference_runs.iter().map(f).sum::<u64>();
    let events = reference.events;
    let messages = sum(&|r| r.metrics.messages);
    let hits = sum(&|r| r.metrics.merged.cache_hits);
    let misses = sum(&|r| r.metrics.merged.cache_misses);
    let mut retries = Histogram::new();
    for r in &reference_runs {
        retries.merge(&r.metrics.merged.retries_per_commit);
    }
    let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let pops_some = run_fold.handler.iter().map(|a| a.count).sum::<u64>();

    let objects_per_tx = ratio(td.commit_objects as f64, td.commits as f64).round() as usize;
    let children_per_tx = ratio(td.commit_children as f64, td.commits as f64).round() as usize;
    let (open_close_ns, abort_ns) = tx_micro(objects_per_tx, children_per_tx, clock_ns);
    let nested_commits = sum(&|r| r.metrics.merged.nested_commits);
    let nested_own = sum(&|r| r.metrics.merged.nested_aborts_own);
    let nested_parent = sum(&|r| r.metrics.merged.nested_aborts_parent);
    let aborts = sum(&|r| r.metrics.merged.total_aborts());
    let policy_ns = ratio(td.policy.ns as f64, td.policy.count as f64);
    let cl_ns = ratio(td.cl.ns as f64, td.cl.count as f64);
    let cl_records = sum(&|r| r.metrics.merged.fetches_served + r.metrics.merged.fetch_conflicts);
    let delay_ns = ratio(delay_replay.ns as f64, delay_replay.count as f64);
    let delay_lookups = delay_replay.count;

    let st = |name: &str| {
        self_times
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let mut m: Vec<(String, &'static str, f64)> = Vec::new();
    let mut put = |name: &str, unit: &'static str, v: f64| m.push((name.to_string(), unit, v));

    put("sim.queue.push_count", "count", pushes.count as f64);
    put("sim.queue.pop_count", "count", run_fold.pop.count as f64);
    put("sim.queue.push_ns", "ns", push_ns);
    put("sim.queue.pop_ns", "ns", pop_ns);
    put("sim.queue.len_max", "count", run_fold.len_max as f64);
    put(
        "sim.queue.len_mean",
        "count",
        ratio(run_fold.len_sum as f64, run_fold.pop.count as f64),
    );
    put(
        "sim.engine.dead_pop_share",
        "ratio",
        ratio(
            pops_some.saturating_sub(traced_totals.events) as f64,
            pops_some as f64,
        ),
    );
    put("sim.engine.floor_ns_per_event", "ns", floor_ns);

    put("net.topology.build_ns", "ns", st("net.topology.build_ns"));
    put("net.topology.delay_lookups", "count", delay_lookups as f64);
    put("net.topology.delay_ns_per_lookup", "ns", delay_ns);
    put(
        "net.topology.delay_est_ns",
        "ns",
        delay_ns * delay_lookups as f64,
    );

    put("core.policy.decisions", "count", td.decisions as f64);
    put(
        "core.policy.enqueue_share",
        "ratio",
        ratio(td.enqueues as f64, td.decisions as f64),
    );
    put(
        "core.policy.queue_served_share",
        "ratio",
        ratio(
            sum(&|r| r.metrics.merged.queue_served) as f64,
            sum(&|r| r.metrics.merged.enqueued) as f64,
        ),
    );
    put("core.policy.decision_ns_per_call", "ns", policy_ns);
    put("core.policy.est_ns", "ns", policy_ns * td.decisions as f64);
    put("core.cl.records", "count", cl_records as f64);
    put("core.cl.record_ns_per_call", "ns", cl_ns);
    put(
        "core.sched.queue_depth_max",
        "count",
        td.queue_depth_max as f64,
    );

    for (k, kind) in KINDS.iter().enumerate() {
        let family = if k < FIRST_TIMER { "msg" } else { "timer" };
        put(
            &format!("hyflow.node.{family}.{kind}.count"),
            "count",
            run_fold.handler[k].count as f64,
        );
        put(
            &format!("hyflow.node.{family}.{kind}.self_ns"),
            "ns",
            handler_ns[k],
        );
    }

    put("hyflow.tx.nested_commits", "count", nested_commits as f64);
    put("hyflow.tx.nested_aborts_own", "count", nested_own as f64);
    put(
        "hyflow.tx.nested_aborts_parent",
        "count",
        nested_parent as f64,
    );
    put("hyflow.tx.open_close_ns_per_op", "ns", open_close_ns);
    put("hyflow.tx.abort_ns_per_op", "ns", abort_ns);
    put(
        "hyflow.tx.est_ns",
        "ns",
        open_close_ns * nested_commits as f64 + abort_ns * (aborts + nested_own) as f64,
    );

    put(
        "hyflow.cache.hit_rate",
        "ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    put(
        "hyflow.cache.invalidations",
        "count",
        sum(&|r| r.metrics.merged.cache_invalidations) as f64,
    );
    put(
        "hyflow.cache.forwarded_reqs",
        "count",
        sum(&|r| r.metrics.merged.forwarded_reqs) as f64,
    );
    put(
        "hyflow.outbox.batched_messages",
        "count",
        sum(&|r| r.batched) as f64,
    );

    put("hyflow.trace.records", "count", td.records as f64);
    put(
        "hyflow.trace.overhead_ns_per_event",
        "ns",
        ratio(trace_ns as f64 - off_ns as f64, events as f64),
    );
    put(
        "hyflow.telemetry.overhead_ns_per_event",
        "ns",
        ratio(telemetry_ns as f64 - off_ns as f64, events as f64),
    );
    put("hyflow.telemetry.epochs", "count", epochs as f64);
    put("hyflow.trace.take_ns", "ns", td.take.ns as f64);
    put(
        "hyflow.trace.to_jsonl_ns",
        "ns",
        st("hyflow.trace.to_jsonl_ns"),
    );
    put(
        "hyflow.trace.jsonl_bytes",
        "count",
        traced.iter().map(|t| t.jsonl_bytes).sum::<usize>() as f64,
    );
    put("hyflow.trace.parse_ns", "ns", st("hyflow.trace.parse_ns"));

    put(
        "hyflow.metrics.wasted_msgs_share",
        "ratio",
        ratio(
            sum(&|r| r.metrics.merged.wasted_msgs) as f64,
            messages as f64,
        ),
    );
    put(
        "hyflow.metrics.retries_per_commit_mean",
        "count",
        retries.mean(),
    );
    put("hyflow.system.build_ns", "ns", system_build_ns);
    put("hyflow.system.collect_ns", "ns", collect_ns as f64);

    put("benchmarks.generate_ns", "ns", st("benchmarks.generate_ns"));
    put(
        "benchmarks.program.step_count",
        "count",
        run_fold.step.count as f64,
    );
    put("benchmarks.program.step_ns", "ns", step_ns);
    put(
        "benchmarks.program.clone_count",
        "count",
        run_fold.clone.count as f64,
    );
    put("benchmarks.program.clone_ns", "ns", clone_ns);

    put(
        "harness.runner.build_ns",
        "ns",
        st("harness.runner.build_ns"),
    );
    put(
        "harness.traceio.audit_ns",
        "ns",
        st("harness.traceio.audit_ns"),
    );
    put(
        "harness.traceio.analyze_ns",
        "ns",
        st("harness.traceio.analyze_ns"),
    );
    put(
        "harness.traceio.chrome_ns",
        "ns",
        st("harness.traceio.chrome_ns"),
    );

    put(
        "bench.unattributed_share",
        "ratio",
        unattributed_ns / wall_ns,
    );
    put("bench.clock_read_ns", "ns", clock_ns);
    put("bench.instrumentation_ns", "ns", instrumentation_ns);
    put("bench.traced_pass_ns", "ns", wall_ns);
    put(
        "bench.trace_overhead_share",
        "ratio",
        (traced_totals.setup_ns + traced_totals.work_ns) as f64
            / (reference.setup_ns + reference.work_ns) as f64
            - 1.0,
    );

    // ---- <workload>.trace.json -------------------------------------------
    let acc_json = |a: &Acc| {
        Json::obj(vec![
            ("count", Json::Num(a.count as f64)),
            ("total_ns", Json::Num(a.ns as f64)),
        ])
    };
    let cells_json = Json::Arr(
        traced
            .iter()
            .zip(&w.cells)
            .enumerate()
            .map(|(i, (t, cell))| {
                let handlers = Json::Obj(
                    KINDS
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| t.run_fold.handler[*k].count > 0)
                        .map(|(k, kind)| {
                            let a = &t.run_fold.handler[k];
                            (
                                (*kind).to_string(),
                                Json::obj(vec![
                                    ("count", Json::Num(a.count as f64)),
                                    ("self_ns", Json::Num(a.ns as f64)),
                                    (
                                        "nested_calls",
                                        Json::Num(t.run_fold.handler_nested_calls[k] as f64),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                );
                Json::obj(vec![
                    ("cell", Json::Num(i as f64)),
                    ("label", Json::Str(crate::workloads::cell_label(cell))),
                    ("events", Json::Num(t.run.events as f64)),
                    ("digest", Json::Str(format!("{:#018x}", t.run.digest))),
                    ("run_ns", Json::Num(t.run_ns as f64)),
                    (
                        "sim.queue.push",
                        acc_json(&Acc {
                            count: t.build_fold.push.count + t.run_fold.push.count,
                            ns: t.build_fold.push.ns + t.run_fold.push.ns,
                        }),
                    ),
                    ("sim.queue.pop", acc_json(&t.run_fold.pop)),
                    ("benchmarks.program.step", acc_json(&t.run_fold.step)),
                    ("benchmarks.program.clone", acc_json(&t.run_fold.clone)),
                    ("hyflow.node", handlers),
                ])
            })
            .collect(),
    );
    let trace = Json::obj(vec![
        ("workload", Json::Str(w.name.to_string())),
        ("clock_read_ns", Json::Num(clock_ns)),
        ("probe_ns", Json::Num(probe_ns)),
        ("wall_ns", Json::Num(wall_ns)),
        ("spans", spans.to_json()),
        ("folded", cells_json),
    ]);

    Layers {
        metrics: m,
        trace,
        attempted: 2 * attempted,
        failed,
        digest: warm.digest,
        traced_digest: traced_totals.digest,
        self_times,
        unattributed_ns,
        wall_ns,
    }
}
