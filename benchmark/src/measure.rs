//! Running cells and passes, checking their outputs, and the end-to-end
//! metrics.
//!
//! A workload is a **closed loop of whole simulation cells**: the cell list
//! runs serially, one untimed warm-up pass and then the workload's fixed
//! number of timed passes. Host metrics are medians over the timed passes;
//! simulated metrics repeat exactly, which the per-pass digest asserts.

use crate::spans::{now_ns, Spans};
use crate::workloads::{cell_attempted, cell_label, Workload};
use dstm_harness::runner::{build_system, thread_cpu_ns};
use dstm_harness::traceio::{analyze, audit, to_chrome_trace, DEFAULT_ANALYZE_EPOCH_NS};
use dstm_harness::Cell;
use dstm_sim::EventQueue;
use hyflow_dstm::{Fnv64, NodeEvent, NodeMetrics, RunMetrics, SchedLabel, System, TraceLog};
use rts_core::SchedulerKind;

/// Outcome of one cell of one pass.
pub struct CellRun {
    pub metrics: RunMetrics,
    /// `messages_delivered + timers_fired`.
    pub events: u64,
    /// Logical messages the outbox folded into `Batch` events.
    pub batched: u64,
    pub digest: u64,
    /// First failed check, if any. A cell that fails a check counts all its
    /// transactions as failed.
    pub failure: Option<String>,
    /// `build_system`: topology + `Benchmark::generate` + `SystemBuilder`.
    pub setup_ns: u64,
    /// Everything after set-up that belongs to the workload: the run, and
    /// on `observe_160` export → parse → audit → analyze → Chrome export.
    pub work_ns: u64,
    /// Thread-CPU time of set-up + work (the same region the wall covers).
    pub cpu_ns: u64,
}

/// What `observe_160` produces per cell besides the run itself.
pub struct Observed {
    /// The exported trace, kept so the (untimed) digest can cover it.
    pub jsonl: String,
    pub failure: Option<String>,
}

/// `observe_160`'s pipeline on a finished system: take the trace (with the
/// harness's run-info/summary records, as `run_cell_traced` does) and the
/// telemetry, then JSONL export → parse → audit → analyze → Chrome export.
pub fn observe<Q: EventQueue<NodeEvent>>(
    cell: &Cell,
    system: &mut System<Q>,
    metrics: &RunMetrics,
    spans: &mut Spans,
) -> Observed {
    let mut trace = spans.time("hyflow.trace.take", || system.take_trace());
    if let Some(label) = SchedLabel::from_label(cell.scheduler.label()) {
        trace.push_run_info(label, cell.params.nodes as u64);
    }
    trace.push_summary(system.now(), &metrics.merged);
    spans.time("hyflow.telemetry.take", || {
        std::hint::black_box(system.take_telemetry());
    });
    let jsonl = spans.time("hyflow.trace.to_jsonl", || trace.to_jsonl());
    let parsed = spans.time("hyflow.trace.parse", || TraceLog::parse_jsonl(&jsonl));
    let mut failure = None;
    match &parsed {
        Ok(parsed) => {
            let a = spans.time("harness.traceio.audit", || audit(parsed));
            let an = spans.time("harness.traceio.analyze", || {
                analyze(parsed, DEFAULT_ANALYZE_EPOCH_NS)
            });
            let chrome = spans.time("harness.traceio.chrome", || to_chrome_trace(parsed));
            if !a.ok() {
                failure = Some(format!("audit: {}", a.violations.join("; ")));
            } else if !an.ok() {
                failure = Some(format!("analyze: {}", an.mismatches.join("; ")));
            } else if chrome.is_empty() {
                failure = Some("empty Chrome trace".into());
            }
        }
        Err(e) => failure = Some(format!("JSONL does not parse back: {e}")),
    }
    Observed { jsonl, failure }
}

/// Output checks and the behaviour digest of a finished cell (untimed: this
/// is the benchmark's work, not the system's).
pub fn check_and_digest<Q: EventQueue<NodeEvent>>(
    cell: &Cell,
    system: &System<Q>,
    metrics: &RunMetrics,
    observed: Option<&Observed>,
) -> (u64, Option<String>) {
    let m = &metrics.merged;
    let attempted = cell_attempted(cell);
    let state = system.try_object_state();
    let failure = if !system.all_done() {
        Some(format!(
            "not completed: {} of {attempted} committed at quiescence",
            m.commits
        ))
    } else if m.commits != attempted {
        Some(format!("commits {} != attempted {attempted}", m.commits))
    } else if !m.wasted_work_reconciles() {
        Some("wasted-work ledger does not reconcile with Table I".into())
    } else if let Err(e) = &state {
        Some(e.clone())
    } else {
        observed.and_then(|o| o.failure.clone())
    };

    let mut h = Fnv64::new();
    for v in [
        m.commits,
        m.aborts_forward_validation,
        m.aborts_commit_validation,
        m.aborts_scheduler,
        m.aborts_queue_timeout,
        m.nested_aborts_own,
        m.nested_aborts_parent,
        m.nested_commits,
        m.child_conflict_retries,
        m.enqueued,
        m.queue_served,
        m.queue_declined,
        m.fetches_served,
        m.fetch_conflicts,
        m.objects_received,
        m.forwarded_reqs,
        m.cache_hits,
        m.cache_misses,
        m.cache_invalidations,
        m.wasted_work_ns,
        m.wasted_msgs,
        metrics.messages,
        system.world().timers_fired(),
        system.world().batched_messages(),
        metrics.elapsed.as_nanos(),
        metrics.ended_at.as_nanos(),
    ] {
        h.write_u64(v);
    }
    for (_, s) in m.hist_summaries() {
        for v in [s.count, s.p50, s.p95, s.p99] {
            h.write_u64(v);
        }
    }
    if let Ok(state) = state {
        let mut objects: Vec<_> = state.into_iter().collect();
        objects.sort_unstable_by_key(|(oid, _)| *oid);
        for (oid, (payload, version)) in objects {
            h.write_u64(oid.0);
            h.write_u64(version);
            payload.hash_into(&mut h);
        }
    }
    if let Some(o) = observed {
        h.write_bytes(o.jsonl.as_bytes());
    }
    (h.finish(), failure)
}

/// Run to quiescence; `budget` replaces the default event budget (the
/// failure-accounting test forces a 1-event budget).
pub fn run_system<Q: EventQueue<NodeEvent>>(
    system: &mut System<Q>,
    budget: Option<u64>,
) -> RunMetrics {
    match budget {
        Some(b) => system.run(b),
        None => system.run_default(),
    }
}

/// One untraced cell through the harness's own `build_system`.
pub fn run_cell_untraced(cell: &Cell, observe_cell: bool, budget: Option<u64>) -> CellRun {
    let mut cell = cell.clone();
    if observe_cell {
        cell = cell.with_trace().with_telemetry();
    }
    let c0 = thread_cpu_ns();
    let t0 = now_ns();
    let mut system = build_system(&cell);
    let t1 = now_ns();
    let metrics = run_system(&mut system, budget);
    let observed = observe_cell.then(|| observe(&cell, &mut system, &metrics, &mut Spans::off()));
    let t2 = now_ns();
    let cpu_ns = thread_cpu_ns() - c0;
    let (digest, failure) = check_and_digest(&cell, &system, &metrics, observed.as_ref());
    CellRun {
        events: metrics.messages + system.world().timers_fired(),
        batched: system.world().batched_messages(),
        metrics,
        digest,
        failure,
        setup_ns: t1 - t0,
        work_ns: t2 - t1,
        cpu_ns,
    }
}

/// Host-side totals of one pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassTotals {
    pub setup_ns: u64,
    pub work_ns: u64,
    pub cpu_ns: u64,
    pub events: u64,
    pub commits: u64,
    pub failed: u64,
    pub digest: u64,
}

pub fn pass_totals<'a>(cells: &[Cell], runs: impl IntoIterator<Item = &'a CellRun>) -> PassTotals {
    let mut t = PassTotals::default();
    let mut h = Fnv64::new();
    let mut failures = 0;
    for (cell, r) in cells.iter().zip(runs) {
        t.setup_ns += r.setup_ns;
        t.work_ns += r.work_ns;
        t.cpu_ns += r.cpu_ns;
        t.events += r.events;
        t.commits += r.metrics.merged.commits;
        if let Some(why) = &r.failure {
            // Name the first few; a systematic failure would otherwise
            // print one line per cell per pass.
            failures += 1;
            if failures <= 3 {
                eprintln!("FAILED {}: {why}", cell_label(cell));
            }
            t.failed += cell_attempted(cell);
        }
        h.write_u64(r.digest);
    }
    if failures > 3 {
        eprintln!("FAILED {} more cell(s) of this pass", failures - 3);
    }
    t.digest = h.finish();
    t
}

pub fn untraced_pass(w: &Workload, budget: Option<u64>) -> (Vec<CellRun>, PassTotals) {
    let runs: Vec<CellRun> = w
        .cells
        .iter()
        .map(|c| run_cell_untraced(c, w.observe, budget))
        .collect();
    let totals = pass_totals(&w.cells, &runs);
    (runs, totals)
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for v in values {
        sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / f64::from(n)).exp()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The simulated metrics: exact for a fixed seed, taken over the workload's
/// RTS cells; the TFA cells feed `sim_rts_vs_tfa` only. Throughput and the
/// RTS ÷ TFA ratio are geometric means over cells (every figure point weighs
/// the same, as in Fig. 6); the rest are sums over sums.
pub fn sim_metrics(cells: &[Cell], runs: &[CellRun]) -> Vec<(&'static str, &'static str, f64)> {
    let rts: Vec<&CellRun> = cells
        .iter()
        .zip(runs)
        .filter(|(c, _)| c.scheduler == SchedulerKind::Rts)
        .map(|(_, r)| r)
        .collect();

    // Cells come in scheduler triples that share a seed; pair each RTS cell
    // with the TFA cell of its own triple.
    let speedups = cells
        .iter()
        .zip(runs)
        .enumerate()
        .filter_map(|(i, (c, r))| {
            if c.scheduler != SchedulerKind::Rts {
                return None;
            }
            let (_, tfa) = cells.iter().zip(runs).skip(i).find(|(t, _)| {
                t.scheduler == SchedulerKind::Tfa
                    && t.benchmark == c.benchmark
                    && t.params.nodes == c.params.nodes
                    && t.sim_seed == c.sim_seed
            })?;
            let base = tfa.metrics.throughput();
            (base > 0.0).then(|| r.metrics.throughput() / base)
        });

    let mut merged = NodeMetrics::default();
    let mut messages = 0;
    for r in &rts {
        merged.merge(&r.metrics.merged);
        messages += r.metrics.messages;
    }

    vec![
        (
            "sim_tps",
            "1/s",
            geomean(rts.iter().map(|r| r.metrics.throughput())),
        ),
        ("sim_rts_vs_tfa", "ratio", geomean(speedups)),
        (
            "sim_msgs_per_commit",
            "count",
            ratio(messages, merged.commits),
        ),
        (
            "sim_aborts_per_commit",
            "count",
            ratio(merged.total_aborts(), merged.commits),
        ),
        (
            "sim_nested_parent_abort_share",
            "ratio",
            ratio(merged.nested_aborts_parent, merged.total_nested_aborts()),
        ),
        // `OnlineStats::push_duration` records milliseconds; the histogram
        // records nanoseconds and answers with its log2 bucket's ceiling.
        (
            "sim_commit_latency_mean_ms",
            "ms",
            merged.commit_latency.mean(),
        ),
        (
            "sim_commit_latency_p99_ms",
            "ms",
            merged.commit_latency_hist.quantile_upper_bound(0.99) as f64 / 1e6,
        ),
    ]
}

/// `VmHWM` of this process in MiB (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Result of an untraced run of one workload.
pub struct EndToEnd {
    /// `(name, unit, value)` for every end-to-end metric of `BENCHMARK.json`.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub cpu_wall_ratio: f64,
}

/// The closed loop: one untimed warm-up pass, then `w.passes` timed passes.
/// `cap_seconds` only guards the caller's time limit: once that much
/// measurement has elapsed the run stops at the pass it is in and reports
/// how many it got. Every pass must reproduce the warm-up pass's digest.
pub fn end_to_end(w: &Workload, cap_seconds: f64, budget: Option<u64>) -> EndToEnd {
    let (warm_runs, warm) = untraced_pass(w, budget);
    let per_pass_attempted = w.attempted();
    let mut attempted = per_pass_attempted;
    let mut failed = warm.failed;

    let mut passes: Vec<PassTotals> = Vec::new();
    let started = now_ns();
    loop {
        let (_, t) = untraced_pass(w, budget);
        attempted += per_pass_attempted;
        failed += if t.digest == warm.digest {
            t.failed
        } else {
            eprintln!(
                "FAILED pass {}: digest {:#018x} != warm-up {:#018x}",
                passes.len() + 1,
                t.digest,
                warm.digest
            );
            per_pass_attempted
        };
        passes.push(t);
        let elapsed = (now_ns() - started) as f64 / 1e9;
        if passes.len() >= w.passes || elapsed >= cap_seconds {
            break;
        }
    }

    let med = |f: &dyn Fn(&PassTotals) -> f64| {
        let mut v: Vec<f64> = passes.iter().map(f).collect();
        median(&mut v)
    };
    let wall: u64 = passes.iter().map(|p| p.setup_ns + p.work_ns).sum();
    let cpu: u64 = passes.iter().map(|p| p.cpu_ns).sum();

    let mut metrics = vec![
        ("setup_s", "s", med(&|p| p.setup_ns as f64 / 1e9)),
        (
            "host_events_per_s",
            "1/s",
            med(&|p| p.events as f64 / (p.work_ns as f64 / 1e9)),
        ),
        (
            "host_us_per_commit",
            "us",
            med(&|p| (p.setup_ns + p.work_ns) as f64 / 1e3 / p.commits.max(1) as f64),
        ),
        ("host_peak_rss_mb", "MiB", peak_rss_mb()),
    ];
    metrics.extend(sim_metrics(&w.cells, &warm_runs));

    EndToEnd {
        metrics,
        passes: passes.len(),
        attempted,
        failed,
        digest: warm.digest,
        cpu_wall_ratio: ratio(cpu, wall),
    }
}
