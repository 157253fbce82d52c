//! Simulation-cell runner.
//!
//! One **cell** = one complete deterministic simulation (benchmark ×
//! scheduler × node count × contention level × seed). Cells are independent,
//! so a sweep fans out over a scoped worker pool and merges results in
//! input order.

use dstm_benchmarks::{Benchmark, WorkloadParams};
use dstm_net::Topology;
use dstm_sim::{EventQueue, SimRng};
use hyflow_dstm::{
    DstmConfig, NodeEvent, PartitionStrategy, QueueBackend, RunMetrics, System, SystemBuilder,
    TraceLog,
};
use rts_core::SchedulerKind;

/// How a cell builds its network topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologySpec {
    /// The paper's setup: a dense matrix of sequentially drawn uniform
    /// delays. O(n²) memory; byte-identical to every historical run.
    UniformRandom { min_ms: u64, max_ms: u64 },
    /// Hash-derived uniform delays computed on demand: O(1) memory, for
    /// `dstm-sweep large-smoke` cells past the paper's 80 nodes.
    HashedRandom { min_ms: u64, max_ms: u64 },
}

impl TopologySpec {
    pub fn label(&self) -> &'static str {
        match self {
            TopologySpec::UniformRandom { .. } => "uniform",
            TopologySpec::HashedRandom { .. } => "hashed",
        }
    }
}

/// One point of an experiment sweep.
#[derive(Clone, Debug)]
pub struct Cell {
    pub benchmark: Benchmark,
    pub scheduler: SchedulerKind,
    pub params: WorkloadParams,
    pub dstm: DstmConfig,
    /// Simulation seed (topology + event jitter); the workload seed lives in
    /// `params.seed`.
    pub sim_seed: u64,
    /// Network model (defaults to the paper's 1–50 ms uniform matrix).
    pub topology: TopologySpec,
}

impl Cell {
    /// A cell with harness defaults for the given axes. RTS cells use the
    /// benchmark's peak tuning (§IV-A: threshold at the throughput peak).
    pub fn new(
        benchmark: Benchmark,
        scheduler: SchedulerKind,
        nodes: usize,
        read_ratio: f64,
    ) -> Self {
        let params = WorkloadParams {
            nodes,
            read_ratio,
            ..WorkloadParams::default()
        };
        let mut dstm = DstmConfig::default().with_scheduler(scheduler);
        let (threshold, slack) = benchmark.rts_tuning();
        dstm.cl_threshold = threshold;
        dstm.queue_deadline_percent = slack;
        Cell {
            benchmark,
            scheduler,
            params,
            dstm,
            sim_seed: 0xD57A,
            topology: TopologySpec::UniformRandom {
                min_ms: 1,
                max_ms: 50,
            },
        }
    }

    /// Identity, kept only because `benchmark/src/workloads.rs` calls it; deleted with that call.
    pub fn with_shards(self, _: usize) -> Self {
        self
    }

    /// Identity, kept only because `benchmark/src/workloads.rs` calls it; deleted with that call.
    pub fn with_partition(self, _: PartitionStrategy) -> Self {
        self
    }

    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    pub fn with_txns(mut self, txns: usize) -> Self {
        self.params.txns_per_node = txns;
        self
    }

    pub fn with_threshold(mut self, t: u32) -> Self {
        self.dstm.cl_threshold = t;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.sim_seed = seed;
        self.params.seed = seed.wrapping_mul(0x9E37_79B9);
        self
    }

    /// Identity, kept only because `benchmark/src/workloads.rs` calls it; deleted with that call.
    pub fn with_queue_backend(self, _: QueueBackend) -> Self {
        self
    }

    /// Record typed protocol events during the run (see `hyflow_dstm::trace`).
    pub fn with_trace(mut self) -> Self {
        self.dstm.trace_protocol = true;
        self
    }

    /// Enable the passive epoch sampler (see `hyflow_dstm::telemetry`):
    /// per-node time-resolved commit/abort/wasted-work series, off the hot
    /// path when disabled.
    pub fn with_telemetry(mut self) -> Self {
        self.dstm.telemetry = true;
        self
    }

    /// Clock-validated remote-read caching plus same-tick message
    /// coalescing (see `hyflow_dstm::config::DstmConfig::cache`). Changes
    /// simulated results — fewer fetch round trips — so it is an explicit
    /// protocol variant, off unless a caller asks for it here.
    pub fn with_cache(mut self, cache: bool) -> Self {
        self.dstm.cache = cache;
        self
    }
}

/// Aggregate outcome of one cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    pub cell: Cell,
    pub metrics: RunMetrics,
    pub completed: bool,
    /// Host wall-clock for build + run of this cell, in nanoseconds
    /// (per-cell even when cells run on the worker pool).
    pub wall_ns: u64,
    /// Thread-CPU time for build + run of this cell, in nanoseconds. A
    /// cell runs entirely on one thread, so this is the preemption-immune
    /// cost — on shared/noisy hosts wall clock inflates under contention
    /// while this stays put. Benchmarks key ns/event off this.
    pub cpu_ns: u64,
}

/// Current thread's consumed CPU time in nanoseconds (Linux
/// `CLOCK_THREAD_CPUTIME_ID`; wall-clock fallback elsewhere). Differences
/// of two readings on the same thread time a computation without counting
/// time the thread spent preempted.
pub fn thread_cpu_ns() -> u64 {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clk: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: clock_gettime only writes the timespec it is handed.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0 {
            return ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64;
        }
    }
    use std::sync::OnceLock;
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

impl CellResult {
    pub fn throughput(&self) -> f64 {
        self.metrics.throughput()
    }

    pub fn nested_abort_rate(&self) -> f64 {
        self.metrics.nested_abort_rate()
    }
}

/// Build the system for a cell on an explicit event-queue backend.
pub fn build_system_with_queue<Q: EventQueue<NodeEvent>>(cell: &Cell, queue: Q) -> System<Q> {
    // The paper's static network: 1–50 ms uniform delays (§IV-A), or the
    // O(1)-memory hashed equivalent for large-scale sweeps.
    let topo = match cell.topology {
        TopologySpec::UniformRandom { min_ms, max_ms } => {
            let mut rng = SimRng::new(cell.sim_seed);
            Topology::uniform_random(cell.params.nodes, min_ms, max_ms, &mut rng)
        }
        TopologySpec::HashedRandom { min_ms, max_ms } => {
            Topology::hashed_random(cell.params.nodes, min_ms, max_ms, cell.sim_seed)
        }
    };
    let mut dstm = cell.dstm.clone();
    dstm.scheduler = cell.scheduler;
    let workload = cell.benchmark.generate(&cell.params);
    SystemBuilder::new(topo, dstm)
        .seed(cell.sim_seed ^ 0xA5A5_5A5A)
        .build_with_queue(workload, queue)
}

/// Build the system for a cell (shared by experiments and tests) on the
/// default binary-heap queue.
pub fn build_system(cell: &Cell) -> System {
    build_system_with_queue(cell, dstm_sim::BinaryHeapQueue::new())
}

/// Build the cell's system, run it, let `collect` take what its caller
/// wants out of the finished system, and stamp host time over all of it.
fn run_and_collect(cell: Cell, collect: &mut dyn FnMut(&mut System, &RunMetrics)) -> CellResult {
    let t0 = std::time::Instant::now();
    let c0 = thread_cpu_ns();
    let mut system = build_system(&cell);
    let metrics = system.run_default();
    collect(&mut system, &metrics);
    CellResult {
        completed: system.all_done(),
        cell,
        metrics,
        cpu_ns: thread_cpu_ns() - c0,
        wall_ns: t0.elapsed().as_nanos() as u64,
    }
}

/// Run a single cell to completion.
pub fn run_cell(cell: Cell) -> CellResult {
    run_and_collect(cell, &mut |_, _| {})
}

/// Run a cell with protocol tracing forced on and return the merged,
/// time-ordered trace next to the usual result. A `RunSummary` record with
/// the counter-based totals is appended so offline audits can cross-check
/// span-derived numbers (Table I) against the live counters.
pub fn run_cell_traced(mut cell: Cell) -> (CellResult, TraceLog) {
    cell.dstm.trace_protocol = true;
    let scheduler = cell.scheduler;
    let nodes = cell.params.nodes as u64;
    let mut trace = TraceLog::default();
    let r = run_and_collect(cell, &mut |system, metrics| {
        trace = system.take_trace();
        trace.push_run_info(scheduler, nodes);
        trace.push_summary(system.now(), &metrics.merged);
    });
    (r, trace)
}

/// Run a cell with the epoch sampler forced on and return the per-node
/// telemetry reports next to the usual result. Telemetry is passive: the
/// metrics, traces, and final state are bit-identical to a run without it.
pub fn run_cell_telemetry(mut cell: Cell) -> (CellResult, Vec<hyflow_dstm::TelemetryReport>) {
    cell.dstm.telemetry = true;
    let mut reports = Vec::new();
    let r = run_and_collect(cell, &mut |system, _| reports = system.take_telemetry());
    (r, reports)
}

/// Run many cells on `workers` threads (defaults to the parallelism the OS
/// reports). Results come back in input order. A panicking cell aborts the
/// sweep with a clean panic naming that cell (see [`try_run_cells`]).
pub fn run_cells(cells: Vec<Cell>, workers: Option<usize>) -> Vec<CellResult> {
    match try_run_cells(cells, workers) {
        Ok(results) => results,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible form of [`run_cells`]: a cell that panics surfaces as a clean
/// `Err` naming the failing cell instead of unwinding through the pool —
/// every worker is caught individually, so one bad cell can neither poison
/// the shared claim index nor strand the collector.
pub fn try_run_cells(cells: Vec<Cell>, workers: Option<usize>) -> Result<Vec<CellResult>, String> {
    let workers = workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    });
    pooled_map(
        &cells,
        workers,
        &|c| {
            format!(
                "{}/{}/n={} seed={:#x}",
                c.benchmark.label(),
                c.scheduler.label(),
                c.params.nodes,
                c.sim_seed
            )
        },
        &|c| run_cell(c.clone()),
    )
}

/// Render a caught panic payload (the `&str`/`String` forms `panic!` and
/// `assert!` produce; anything else becomes a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Order-preserving parallel map over `tasks` on a claim-index worker pool,
/// with per-task panic isolation: each invocation of `run` is wrapped in
/// `catch_unwind`, so a panicking task is reported (`Err` naming it via
/// `describe`) rather than tearing down the pool mid-sweep. The first
/// failing task (by input order) wins; later results are discarded.
fn pooled_map<T: Sync, R: Send>(
    tasks: &[T],
    workers: usize,
    describe: &(dyn Fn(&T) -> String + Sync),
    run: &(dyn Fn(&T) -> R + Sync),
) -> Result<Vec<R>, String> {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let n = tasks.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = workers.clamp(1, n);
    let mut slots: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();

    if workers == 1 {
        for (task, slot) in tasks.iter().zip(&mut slots) {
            *slot = Some(catch_unwind(AssertUnwindSafe(|| run(task))).map_err(panic_message));
        }
    } else {
        // Work-stealing by shared index: each worker claims the next
        // unclaimed task, runs it (caught), and sends `(index, result)`
        // back; the collector reorders.
        let next = std::sync::atomic::AtomicUsize::new(0);
        let (res_tx, res_rx) = std::sync::mpsc::channel::<(usize, Result<R, String>)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let res_tx = res_tx.clone();
                let next = &next;
                scope.spawn(move || loop {
                    let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(task) = tasks.get(idx) else { return };
                    let result = catch_unwind(AssertUnwindSafe(|| run(task)));
                    if res_tx.send((idx, result.map_err(panic_message))).is_err() {
                        return;
                    }
                });
            }
            drop(res_tx);
            while let Ok((idx, result)) = res_rx.recv() {
                slots[idx] = Some(result);
            }
        });
    }

    let mut out = Vec::with_capacity(n);
    for (task, slot) in tasks.iter().zip(slots) {
        match slot {
            Some(Ok(r)) => out.push(r),
            Some(Err(msg)) => {
                return Err(format!("cell {} panicked: {msg}", describe(task)));
            }
            // Unreachable in practice: every claimed index sends exactly one
            // result and the channel outlives the workers.
            None => return Err(format!("cell {} produced no result", describe(task))),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(benchmark: Benchmark, scheduler: SchedulerKind) -> Cell {
        let mut c = Cell::new(benchmark, scheduler, 4, 0.5).with_txns(4);
        c.params.objects_per_node = 4;
        c
    }

    #[test]
    fn single_cell_completes() {
        let r = run_cell(tiny(Benchmark::Bank, SchedulerKind::Rts));
        assert!(r.completed, "bank cell stalled");
        assert_eq!(r.metrics.merged.commits, 16);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn all_benchmarks_complete_under_all_schedulers() {
        for b in Benchmark::ALL {
            for s in [
                SchedulerKind::Tfa,
                SchedulerKind::TfaBackoff,
                SchedulerKind::Rts,
            ] {
                let r = run_cell(tiny(b, s));
                assert!(r.completed, "{} under {s:?} stalled", b.label());
                assert_eq!(
                    r.metrics.merged.commits,
                    16,
                    "{} under {s:?} lost transactions",
                    b.label()
                );
            }
        }
    }

    #[test]
    fn cells_are_deterministic() {
        let a = run_cell(tiny(Benchmark::LinkedList, SchedulerKind::Rts));
        let b = run_cell(tiny(Benchmark::LinkedList, SchedulerKind::Rts));
        assert_eq!(a.metrics.merged.commits, b.metrics.merged.commits);
        assert_eq!(a.metrics.messages, b.metrics.messages);
        assert_eq!(a.metrics.elapsed, b.metrics.elapsed);
    }

    #[test]
    fn pool_reports_panicking_task_cleanly() {
        let tasks: Vec<u32> = (0..8).collect();
        let describe = |t: &u32| format!("task{t}");

        // Multi-worker: the pool survives the panic, drains the remaining
        // claims, and names the failing task.
        let err = pooled_map(&tasks, 3, &describe, &|t| {
            if *t == 5 {
                panic!("boom {t}");
            }
            *t * 2
        })
        .unwrap_err();
        assert!(err.contains("task5"), "missing task name: {err}");
        assert!(err.contains("boom 5"), "missing panic message: {err}");

        // Single-worker path catches too.
        let err = pooled_map(&tasks, 1, &describe, &|t| {
            assert!(*t != 2, "assert failure in task");
            *t
        })
        .unwrap_err();
        assert!(err.contains("task2"), "{err}");

        // And the all-good path returns results in input order.
        let ok = pooled_map(&tasks, 3, &describe, &|t| *t * 2).unwrap();
        assert_eq!(ok, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn pool_preserves_order() {
        let cells: Vec<Cell> = (0..6)
            .map(|i| tiny(Benchmark::Dht, SchedulerKind::Tfa).with_seed(i as u64 + 1))
            .collect();
        let seq: Vec<u64> = cells.iter().map(|c| c.sim_seed).collect();
        let results = run_cells(cells, Some(3));
        let got: Vec<u64> = results.iter().map(|r| r.cell.sim_seed).collect();
        assert_eq!(seq, got);
        assert!(results.iter().all(|r| r.completed));
    }
}
