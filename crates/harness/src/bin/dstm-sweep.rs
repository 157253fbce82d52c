//! `dstm-sweep` — run one benchmark × scheduler grid from the command line.
//!
//! ```text
//! dstm-sweep [nodes] [txns_per_node] [benchmark] [--hist-out out.json]
//!            [--telemetry] [--epoch-ns N] [--cache]
//! dstm-sweep scenario [rts|tfa|tfa-backoff] [writers] [readers]
//! dstm-sweep kernel [out.json] [--scale S] [--trials N] [--baseline old.json]
//!                   [--filter substr]
//! dstm-sweep large-smoke [nodes] [--shards S] [--cache]
//! ```
//!
//! `--cache` (env `DSTM_CACHE=1`) turns on clock-validated remote-read
//! caching plus same-tick message coalescing — a **protocol variant** that
//! changes simulated results (fewer fetch round trips), unlike `--shards`.
//! `kernel` mode always measures dedicated `"cache": "on"` rows next to the
//! pinned cache-off grid regardless of the flag; those rows never gate the
//! baseline check (old reports lack them) but feed the intra-report
//! `DSTM_CACHE_TOLERANCE` overhead guard (default +40% cpu-ns/commit).
//!
//! `--filter <substr>` (env `DSTM_FILTER`) restricts `kernel` mode to grid
//! cells whose `benchmark/scheduler/nN/kind` label contains the
//! substring (case-insensitive) — for local iteration on one cell family;
//! a filtered report is partial, so don't commit it or gate baselines on it.
//!
//! All simulation modes accept `--shards S` (env `DSTM_SHARDS`) to run each
//! cell on the conservative time-windowed parallel executor
//! (`GenericWorld::run_partitioned`, per-shard-pair lookahead windows), and
//! `--partition round-robin|locality` (env `DSTM_PARTITION`) to pick the
//! node→shard assignment. Results are bit-identical to `--shards 1` under
//! either partitioner — the flags change host wall-clock only — which is
//! what the CI shard-determinism job byte-diffs. `kernel` mode additionally
//! appends a fixed sharded block (160-node Bank/RTS at 1/2/4/8 shards under
//! both partitioners, plus saturated-load rows at
//! `concurrency_per_node = 32`) to every report, regardless of `--shards`;
//! sharded rows carry per-shard event counts and barrier-wait nanoseconds
//! so a speedup (or an honest slowdown on a 1-core host) is attributable.
//!
//! All modes accept `--trace <path>` / `--trace-format jsonl|chrome` (or the
//! `DSTM_TRACE` / `DSTM_TRACE_FORMAT` environment variables) to record
//! protocol events: `scenario` and `large-smoke` trace their whole run, the
//! default sweep traces its first RTS low-contention cell as a
//! representative sample, and `kernel` ignores tracing flags (its `"on"`
//! rows measure the enabled path without writing the log anywhere).
//!
//! `--telemetry` (env `DSTM_TELEMETRY=1`) enables the sim-time epoch
//! sampler on the default sweep's first RTS high-contention cell and
//! writes the merged per-epoch counter series plus per-object wasted-work
//! ranking to `BENCH_timeseries.json`; `--epoch-ns N` (env `DSTM_EPOCH_NS`)
//! overrides the 50 ms epoch length. `kernel` mode always measures
//! telemetry-on rows (`"telemetry": "on"` in the sidecar) and gates the
//! sampler's overhead against the matching plain rows of the same report
//! (`DSTM_TELEMETRY_TOLERANCE`, default +40%).
//!
//! The default mode prints throughput, nested-abort rate, and speedups for
//! every (benchmark, contention, scheduler) cell and writes the latency
//! histogram summaries (commit latency, queue wait, fetch RTT, retries) to
//! `BENCH_trace.json` — override with `--hist-out`.
//!
//! `scenario` mode replays the Fig. 2/3 single-object collision under the
//! given scheduler (default RTS, 6 writers, 2 readers); with `--trace` the
//! JSONL it writes is exactly what `dstm-trace audit` consumes.
//!
//! `kernel` mode times the host wall-clock of every Fig. 4 sweep cell and
//! writes a machine-readable JSON report, by default `BENCH_kernel.json`.
//! Each cell runs one untimed warm-up plus
//! `--trials` timed repeats (default 5, env `DSTM_TRIALS`) and reports the
//! **median** wall clock; built with `--features bench-alloc` the final
//! trial also reports heap allocations per event and peak live bytes. Each
//! cell carries a `"trace"` field: `"off"` rows are the production path
//! (tracing compiled in, disabled) and `"on"` rows rerun the bank benchmark
//! with event recording enabled, so the sidecar documents both the
//! zero-cost claim and the enabled-path price. `--scale large` (or
//! `DSTM_SCALE=large`) switches to the 80/160/320-node sweep on the
//! O(1)-memory hashed topology, fanned out over the worker pool, with the
//! sweep-wide peak-allocation counter recorded at the top level.
//!
//! `--baseline old.json` compares the fresh trace-off rows against a
//! previously committed report and exits non-zero if the median ns/event
//! ratio regresses beyond 20% (override with `DSTM_BENCH_TOLERANCE=0.30`).
//!
//! `large-smoke` is the CI entry point for the large-scale path: one
//! 160-node (or `[nodes]`, up to 10k) Bank/RTS cell on the hashed topology.
//! With `--trace` the run records protocol events for `dstm-trace audit`;
//! without it the cell runs untraced (how the 10k-node smoke stays within
//! CI time and memory).
//!
//! An argument starting with `--` that is not one of the flags above, a flag
//! without its value, a value that does not parse and an unknown `scenario`
//! scheduler each end the program with one `error:` line on stderr and exit
//! status 2, before anything runs.

use dstm_benchmarks::Benchmark;
use dstm_harness::alloc_counter;
use dstm_harness::experiments::scenarios::{render, run_collision_traced};
use dstm_harness::experiments::Scale;
use dstm_harness::runner::{
    run_cell, run_cell_telemetry, run_cell_traced, run_cells, warn_dropped_epochs, Cell,
    CellResult, TopologySpec,
};
use dstm_harness::traceio::to_chrome_trace;
use hyflow_dstm::{HistSummary, PartitionStrategy, TelemetryReport, TraceLog};
use rts_core::SchedulerKind;
use std::fmt::Write as _;

#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Jsonl,
    Chrome,
}

impl TraceFormat {
    fn parse(s: &str) -> Option<TraceFormat> {
        match s {
            "jsonl" => Some(TraceFormat::Jsonl),
            "chrome" => Some(TraceFormat::Chrome),
            _ => None,
        }
    }
}

struct TraceOpts {
    path: Option<String>,
    format: TraceFormat,
}

impl TraceOpts {
    fn write(&self, trace: &TraceLog) {
        let Some(path) = &self.path else { return };
        let body = match self.format {
            TraceFormat::Jsonl => trace.to_jsonl(),
            TraceFormat::Chrome => to_chrome_trace(trace),
        };
        match std::fs::write(path, body) {
            Ok(()) => println!("[trace: {} records written to {path}]", trace.records.len()),
            Err(e) => eprintln!("could not write trace to {path}: {e}"),
        }
    }
}

struct Flags {
    positional: Vec<String>,
    topts: TraceOpts,
    hist_out: Option<String>,
    /// `--scale` overrides `DSTM_SCALE`; `None` falls through to the env.
    scale: Option<String>,
    /// `--trials` overrides `DSTM_TRIALS`; `None` falls through to the env.
    trials: Option<usize>,
    /// Committed kernel report to regression-check against.
    baseline: Option<String>,
    /// `--shards` overrides `DSTM_SHARDS`; 1 (serial) when absent.
    shards: usize,
    /// `--partition` overrides `DSTM_PARTITION`; round-robin when absent.
    partition: PartitionStrategy,
    /// `--telemetry` (env `DSTM_TELEMETRY=1`): enable the sim-time epoch
    /// sampler on the representative cell and write `BENCH_timeseries.json`.
    telemetry: bool,
    /// `--epoch-ns N` (env `DSTM_EPOCH_NS`): epoch length for the sampler;
    /// `None` keeps the 50 ms default.
    epoch_ns: Option<u64>,
    /// `--cache` (env `DSTM_CACHE=1`): enable the remote-read cache +
    /// message coalescing on the cells this invocation runs.
    cache: bool,
    /// `--filter substr` (env `DSTM_FILTER`): kernel-mode cell filter.
    filter: Option<String>,
}

/// The value that must follow flag `name`.
fn value<'a>(name: &str, it: &mut std::slice::Iter<'a, String>) -> Result<&'a str, String> {
    match it.as_slice().first() {
        Some(v) if !v.starts_with("--") => {
            it.next();
            Ok(v)
        }
        _ => Err(format!("{name} needs a value")),
    }
}

/// The value after flag `name`, through `parse`.
fn parsed<T>(
    name: &str,
    it: &mut std::slice::Iter<'_, String>,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    let v = value(name, it)?;
    parse(v).ok_or_else(|| format!("{name}: cannot use {v:?}"))
}

/// Pull the `--flag value` pairs (with `DSTM_*` env fallbacks) out of the
/// argument list; the rest stay positional.
fn split_flags(args: &[String]) -> Result<Flags, String> {
    let mut positional = Vec::new();
    let mut trace_path = std::env::var("DSTM_TRACE").ok().filter(|s| !s.is_empty());
    let mut format = None;
    let mut hist_out = None;
    let mut scale = None;
    let mut trials = None;
    let mut baseline = None;
    let mut shards = None;
    let mut partition = None;
    let mut telemetry = matches!(
        std::env::var("DSTM_TELEMETRY").ok().as_deref(),
        Some("1") | Some("true") | Some("on")
    );
    let mut epoch_ns = std::env::var("DSTM_EPOCH_NS")
        .ok()
        .and_then(|s| s.parse().ok());
    let mut cache = matches!(
        std::env::var("DSTM_CACHE").ok().as_deref(),
        Some("1") | Some("true") | Some("on")
    );
    let mut filter = std::env::var("DSTM_FILTER").ok().filter(|s| !s.is_empty());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let a = a.as_str();
        match a {
            "--trace" => trace_path = Some(value(a, &mut it)?.to_string()),
            "--trace-format" => format = Some(parsed(a, &mut it, TraceFormat::parse)?),
            "--hist-out" => hist_out = Some(value(a, &mut it)?.to_string()),
            "--scale" => scale = Some(value(a, &mut it)?.to_string()),
            "--trials" => trials = Some(parsed(a, &mut it, |s| s.parse().ok())?),
            "--baseline" => baseline = Some(value(a, &mut it)?.to_string()),
            "--shards" => shards = Some(parsed(a, &mut it, |s| s.parse().ok())?),
            "--telemetry" => telemetry = true,
            "--epoch-ns" => epoch_ns = Some(parsed(a, &mut it, |s| s.parse().ok())?),
            "--cache" => cache = true,
            "--filter" => filter = Some(value(a, &mut it)?.to_string()),
            "--partition" => partition = Some(parsed(a, &mut it, PartitionStrategy::from_name)?),
            _ if a.starts_with("--") => return Err(format!("unknown flag {a}")),
            _ => positional.push(a.to_string()),
        }
    }
    let shards = shards
        .or_else(|| {
            std::env::var("DSTM_SHARDS")
                .ok()
                .and_then(|s| s.parse().ok())
        })
        .unwrap_or(1)
        .max(1);
    let partition = partition
        .or_else(|| {
            std::env::var("DSTM_PARTITION")
                .ok()
                .and_then(|s| PartitionStrategy::from_name(&s))
        })
        .unwrap_or_default();
    let format = format.unwrap_or_else(|| match std::env::var("DSTM_TRACE_FORMAT") {
        Ok(s) => TraceFormat::parse(&s).unwrap_or_else(|| {
            eprintln!("unknown trace format {s:?} (expected jsonl|chrome), using jsonl");
            TraceFormat::Jsonl
        }),
        Err(_) => TraceFormat::Jsonl,
    });
    Ok(Flags {
        positional,
        topts: TraceOpts {
            path: trace_path,
            format,
        },
        hist_out,
        scale,
        trials,
        baseline,
        shards,
        partition,
        telemetry,
        epoch_ns,
        cache,
        filter,
    })
}

/// Worker threads the cell pool will use: `DSTM_WORKERS` if set, else the
/// parallelism the OS reports. Recorded in every report header so numbers
/// are attributable to the host configuration that produced them.
fn effective_workers() -> usize {
    std::env::var("DSTM_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
}

fn scheduler_from_name(s: &str) -> Option<SchedulerKind> {
    match s.to_ascii_lowercase().as_str() {
        "rts" => Some(SchedulerKind::Rts),
        "tfa" => Some(SchedulerKind::Tfa),
        "tfa-backoff" | "tfab" => Some(SchedulerKind::TfaBackoff),
        _ => None,
    }
}

const KERNEL_SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Rts,
    SchedulerKind::Tfa,
    SchedulerKind::TfaBackoff,
];

/// Which instrumented path a kernel-grid row measures.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RowKind {
    /// Production path: tracing compiled in but disabled, sampler off.
    Plain,
    /// Protocol-event recording enabled (`run_cell_traced`).
    Traced,
    /// Epoch sampler enabled (`run_cell_telemetry`).
    Telemetry,
    /// Remote-read cache + message coalescing enabled (`--cache`). A
    /// protocol variant: fewer events per commit, so its ns/event is not
    /// comparable to the plain rows' and never gates the baseline.
    Cache,
}

impl RowKind {
    fn label(self) -> &'static str {
        match self {
            RowKind::Plain => "plain",
            RowKind::Traced => "traced",
            RowKind::Telemetry => "telemetry",
            RowKind::Cache => "cache",
        }
    }
}

/// `--filter` predicate: does this grid cell's label contain the substring
/// (case-insensitive)? Labels look like `bank/rts/n20/plain`.
fn spec_matches(filter: Option<&str>, cell: &Cell, kind: &str) -> bool {
    let Some(f) = filter else { return true };
    let label = format!(
        "{}/{}/n{}/{}",
        cell.benchmark.label(),
        cell.scheduler.label(),
        cell.params.nodes,
        kind
    )
    .to_ascii_lowercase();
    label.contains(&f.to_ascii_lowercase())
}

/// One measured kernel cell, ready for printing and the JSON sidecar.
struct KernelRow {
    benchmark: Benchmark,
    nodes: usize,
    scheduler: SchedulerKind,
    topology: &'static str,
    trace: bool,
    /// Whether the epoch sampler ran for this row. `"on"` rows price the
    /// telemetry path; they never gate the baseline check (old reports
    /// lack them) but feed the intra-report overhead guard.
    telemetry: bool,
    /// Whether the remote-read cache (and message coalescing) was on. Cache
    /// rows are a protocol variant — never baseline-gated; they feed the
    /// `DSTM_CACHE_TOLERANCE` overhead guard.
    cache: bool,
    /// Fraction of cache lookups served without a payload fetch (0 with the
    /// cache off).
    cache_hit_rate: f64,
    trials: usize,
    /// Shards of the time-windowed parallel executor (1 = serial loop).
    shards: usize,
    /// Partition strategy label (`round-robin`/`locality`); only meaningful
    /// when `shards > 1` but always recorded for row identity.
    partition: &'static str,
    /// `concurrency_per_node` of the cell (default 4; saturated-load rows
    /// raise it to 32+).
    concurrency: usize,
    /// Events executed by each shard (empty for serial rows). Sums to
    /// `events` minus nothing — every delivered message and timer counts.
    shard_events: Vec<u64>,
    /// Nanoseconds each shard spent waiting at window barriers (empty for
    /// serial rows). High values on few-core hosts are the honest cost of
    /// conservative windows; on real parallel hosts they expose imbalance.
    barrier_wait_ns: Vec<u64>,
    /// Nanoseconds each shard spent executing events inside windows (empty
    /// for serial rows). With `barrier_wait_ns` and `drain_ns` this
    /// decomposes a shard's wall clock into work / waiting / mail exchange.
    execute_ns: Vec<u64>,
    /// Nanoseconds each shard spent posting and draining cross-shard
    /// mailboxes (empty for serial rows).
    drain_ns: Vec<u64>,
    /// Wall clock of the median trial, nanoseconds.
    wall_ns: u64,
    /// Thread-CPU time of the median trial, nanoseconds. ns/event keys off
    /// this: on shared hosts wall clock inflates whenever the bench thread
    /// is preempted, while consumed CPU stays put.
    cpu_ns: u64,
    events: u64,
    commits: u64,
    /// Allocations per event on the final timed trial (0 without
    /// `bench-alloc`, or in pooled large mode where trials overlap).
    allocs_per_event: f64,
    /// Peak live heap bytes on the final timed trial (same caveats).
    peak_alloc_bytes: usize,
}

impl KernelRow {
    fn ns_per_event(&self) -> f64 {
        self.cpu_ns as f64 / self.events.max(1) as f64
    }

    /// Delivered kernel messages per committed transaction — the axis the
    /// cache + coalescing variant moves (a coalesced batch counts once).
    fn messages_per_commit(&self) -> f64 {
        self.events as f64 / self.commits.max(1) as f64
    }

    fn print(&self) {
        let mut line = format!(
            "{:<12} n={:<3} {:<12} {:<8} trace={:<3} {:>9.1} ms  {:>7.0} ns/event",
            self.benchmark.label(),
            self.nodes,
            self.scheduler.label(),
            self.topology,
            if self.trace { "on" } else { "off" },
            self.cpu_ns as f64 / 1e6,
            self.ns_per_event(),
        );
        if self.telemetry {
            line += "  telem=on";
        }
        if self.cache {
            let _ = write!(
                line,
                "  cache=on hit={:.0}% msgs/commit={:.1}",
                self.cache_hit_rate * 100.0,
                self.messages_per_commit()
            );
        }
        if self.shards > 1 || self.concurrency != 4 {
            let _ = write!(
                line,
                "  shards={} part={} conc={} wall {:.1} ms",
                self.shards,
                self.partition,
                self.concurrency,
                self.wall_ns as f64 / 1e6
            );
        }
        if !self.barrier_wait_ns.is_empty() {
            let total: u64 = self.barrier_wait_ns.iter().sum();
            let _ = write!(line, "  barrier {:.1} ms", total as f64 / 1e6);
        }
        if !self.execute_ns.is_empty() {
            let exec: u64 = self.execute_ns.iter().sum();
            let drain: u64 = self.drain_ns.iter().sum();
            let _ = write!(
                line,
                "  exec {:.1} ms drain {:.1} ms",
                exec as f64 / 1e6,
                drain as f64 / 1e6
            );
        }
        if alloc_counter::enabled() && self.allocs_per_event > 0.0 {
            let _ = write!(
                line,
                "  {:>6.2} allocs/event  peak {} KiB",
                self.allocs_per_event,
                self.peak_alloc_bytes / 1024
            );
        }
        println!("{line}");
    }
}

/// Run one cell `trials` times after an untimed warm-up; return the row
/// with the **median** wall clock. The final trial is bracketed by the
/// allocation counters (a no-op without `bench-alloc`).
/// The sequential kernel grid: every benchmark × node count × scheduler
/// (trace off), plus Bank rerun with tracing on.
/// Sequential so timings are not polluted by sibling cells.
///
/// Trials are interleaved **grid-major**: after one untimed warm-up pass,
/// trial `t` runs every cell once before trial `t+1` starts. Back-to-back
/// trials of one cell complete within milliseconds, so a host-contention
/// burst (seconds on shared machines) used to poison all of a cell's
/// trials at once; spread over full grid passes, a burst lands in at most
/// one or two trials of any given cell and the per-cell median rejects it.
fn kernel_grid(scale: &Scale, trials: usize, filter: Option<&str>) -> Vec<KernelRow> {
    let mut specs: Vec<(Cell, RowKind)> = Vec::new();
    for b in Benchmark::ALL {
        for &nodes in &scale.node_counts {
            for s in KERNEL_SCHEDULERS {
                // Pinned serial even under DSTM_SHARDS (and cache-off even
                // under DSTM_CACHE): these rows are the baseline-gated
                // kernel-cost measurements; the sharded and cache blocks
                // cover the variants.
                let cell = Cell::new(b, s, nodes, 0.9)
                    .with_txns(scale.txns_per_node)
                    .with_shards(1)
                    .with_cache(false);
                specs.push((cell, RowKind::Plain));
            }
        }
    }
    // Enabled-path rows: bank only, every node count. Traced
    // rows price event recording, telemetry rows price the epoch sampler;
    // both compare against the matching plain row.
    for kind in [RowKind::Traced, RowKind::Telemetry] {
        for &nodes in &scale.node_counts {
            for s in KERNEL_SCHEDULERS {
                let cell = Cell::new(Benchmark::Bank, s, nodes, 0.9)
                    .with_txns(scale.txns_per_node)
                    .with_shards(1)
                    .with_cache(false);
                specs.push((cell, kind));
            }
        }
    }
    // Cache-variant rows: every benchmark (the acceptance bar wants the
    // messages-per-commit drop visible on more than one), every node
    // count × scheduler, against the matching plain rows.
    for b in Benchmark::ALL {
        for &nodes in &scale.node_counts {
            for s in KERNEL_SCHEDULERS {
                let cell = Cell::new(b, s, nodes, 0.9)
                    .with_txns(scale.txns_per_node)
                    .with_shards(1)
                    .with_cache(true);
                specs.push((cell, RowKind::Cache));
            }
        }
    }
    specs.retain(|(cell, kind)| spec_matches(filter, cell, kind.label()));

    // `warn`: the warm-up speaks for every repeat of a cell.
    let run = |c: &Cell, kind: RowKind, warn: bool| match kind {
        RowKind::Plain | RowKind::Cache => run_cell(c.clone()),
        RowKind::Traced => run_cell_traced(c.clone()).0,
        RowKind::Telemetry => {
            let (r, reports) = run_cell_telemetry(c.clone());
            if warn {
                warn_dropped_epochs(c, &reports);
            }
            r
        }
    };
    for (cell, kind) in &specs {
        let _warmup = run(cell, *kind, true);
    }
    let mut timings: Vec<Vec<(u64, u64)>> = vec![Vec::with_capacity(trials); specs.len()];
    let mut counts = vec![(0u64, 0u64); specs.len()]; // (events, commits)
    let mut rates = vec![0f64; specs.len()]; // cache hit rate
    let mut allocs = vec![(0u64, 0usize); specs.len()]; // (allocs, peak bytes)
    for t in 0..trials {
        let counted = t + 1 == trials;
        for (i, (cell, kind)) in specs.iter().enumerate() {
            if counted {
                alloc_counter::reset();
            }
            let r = run(cell, *kind, false);
            if counted {
                allocs[i] = alloc_counter::snapshot();
            }
            assert!(
                r.completed,
                "{} under {:?} stalled",
                cell.benchmark.label(),
                cell.scheduler
            );
            timings[i].push((r.cpu_ns, r.wall_ns));
            counts[i] = (r.metrics.messages, r.metrics.merged.commits);
            rates[i] = r.metrics.merged.cache_hit_rate();
        }
    }

    let mut rows = Vec::new();
    for (i, (cell, kind)) in specs.iter().enumerate() {
        timings[i].sort_unstable();
        let (cpu_ns, wall_ns) = timings[i][timings[i].len() / 2];
        let (events, commits) = counts[i];
        let (cell_allocs, peak) = allocs[i];
        let row = KernelRow {
            benchmark: cell.benchmark,
            nodes: cell.params.nodes,
            scheduler: cell.scheduler,
            topology: cell.topology.label(),
            trace: *kind == RowKind::Traced,
            telemetry: *kind == RowKind::Telemetry,
            cache: cell.dstm.cache,
            cache_hit_rate: rates[i],
            trials,
            shards: cell.shards,
            partition: cell.partition.label(),
            concurrency: cell.dstm.concurrency_per_node,
            wall_ns,
            cpu_ns,
            events,
            commits,
            allocs_per_event: cell_allocs as f64 / events.max(1) as f64,
            peak_alloc_bytes: peak,
            shard_events: Vec::new(),
            barrier_wait_ns: Vec::new(),
            execute_ns: Vec::new(),
            drain_ns: Vec::new(),
        };
        row.print();
        rows.push(row);
    }
    rows
}

/// The `--scale large` grid: Bank/Vacation/DHT × 160–10k nodes × three
/// schedulers on the hashed O(1)-memory topology, fanned out over the
/// worker pool (per-cell wall clocks come from the runner, so pooling does
/// not skew ns/event). Trials stay at 1 per cell: the pool overlaps cells,
/// so repeat medians would measure scheduling noise, and the cells are big
/// enough that one run is stable.
fn kernel_grid_large(
    scale: &Scale,
    shards: usize,
    partition: PartitionStrategy,
    filter: Option<&str>,
) -> (Vec<KernelRow>, u64, usize) {
    let benches = [Benchmark::Bank, Benchmark::Vacation, Benchmark::Dht];
    let mut cells = Vec::new();
    for b in benches {
        for &nodes in &scale.node_counts {
            for s in KERNEL_SCHEDULERS {
                cells.push(
                    Cell::new(b, s, nodes, 0.9)
                        .with_txns(scale.txns_per_node)
                        .with_topology(TopologySpec::HashedRandom {
                            min_ms: 1,
                            max_ms: 50,
                        })
                        .with_shards(shards)
                        .with_partition(partition),
                );
            }
        }
    }
    cells.retain(|c| spec_matches(filter, c, "large"));
    alloc_counter::reset();
    let results = run_cells(cells, None);
    let (sweep_allocs, sweep_peak) = alloc_counter::snapshot();
    let mut rows = Vec::new();
    for r in results {
        assert!(
            r.completed,
            "{} under {:?} stalled at n={}",
            r.cell.benchmark.label(),
            r.cell.scheduler,
            r.cell.params.nodes
        );
        let row = KernelRow {
            benchmark: r.cell.benchmark,
            nodes: r.cell.params.nodes,
            scheduler: r.cell.scheduler,
            topology: r.cell.topology.label(),
            trace: false,
            telemetry: false,
            cache: r.cell.dstm.cache,
            cache_hit_rate: r.metrics.merged.cache_hit_rate(),
            trials: 1,
            shards: r.cell.shards,
            partition: r.cell.partition.label(),
            concurrency: r.cell.dstm.concurrency_per_node,
            wall_ns: r.wall_ns,
            cpu_ns: r.cpu_ns,
            events: r.metrics.messages,
            commits: r.metrics.merged.commits,
            // Cells overlap on the pool, so per-cell allocation numbers
            // would be cross-talk; the sweep-wide totals go at the top level.
            allocs_per_event: 0.0,
            peak_alloc_bytes: 0,
            shard_events: r
                .shard_stats
                .as_ref()
                .map(|s| s.shard_events.clone())
                .unwrap_or_default(),
            barrier_wait_ns: r
                .shard_stats
                .as_ref()
                .map(|s| s.barrier_wait_ns.clone())
                .unwrap_or_default(),
            execute_ns: r
                .shard_stats
                .as_ref()
                .map(|s| s.profiles.iter().map(|p| p.execute_ns).collect())
                .unwrap_or_default(),
            drain_ns: r
                .shard_stats
                .as_ref()
                .map(|s| s.profiles.iter().map(|p| p.drain_ns).collect())
                .unwrap_or_default(),
        };
        row.print();
        rows.push(row);
    }
    (rows, sweep_allocs, sweep_peak)
}

/// The fixed sharded block appended to every kernel report: a 160-node
/// Bank/RTS and RTS/Vacation cell on the hashed topology at 1/2/4/8 shards
/// under both partitioners, plus saturated-load rows
/// (`concurrency_per_node = 32`) at 1 and 4 shards. Simulated results are
/// bit-identical across the whole block (the differential suite proves it),
/// so row-to-row deltas isolate the host cost/benefit of the time-windowed
/// parallel executor and of the partitioner. Speedup claims must key off
/// `wall_ns`: the thread-CPU clock only sees the coordinating thread once
/// worker shards exist. Sharded rows also carry per-shard event counts and
/// barrier-wait nanoseconds (from the last trial; they are deterministic up
/// to barrier timing) so slowdowns are attributable.
///
/// Sequential and grid-major like `kernel_grid`, for the same
/// burst-rejection reason; trials are capped at 3 because each 160-node
/// cell is ~10^3 heavier than the small-grid cells.
fn kernel_grid_sharded(trials: usize, filter: Option<&str>) -> Vec<KernelRow> {
    let trials = trials.min(3);
    let mk = |b, conc: usize, shards: usize, partition: PartitionStrategy| {
        let mut cell = Cell::new(b, SchedulerKind::Rts, 160, 0.9)
            .with_txns(Scale::large().txns_per_node)
            .with_topology(TopologySpec::HashedRandom {
                min_ms: 1,
                max_ms: 50,
            })
            .with_shards(shards)
            .with_partition(partition)
            // Pinned cache-off like the serial grid: these rows gate the
            // sharded baseline, which predates the cache variant.
            .with_cache(false);
        cell.dstm.concurrency_per_node = conc;
        cell
    };
    let mut specs: Vec<Cell> = Vec::new();
    for b in [Benchmark::Bank, Benchmark::Vacation] {
        for shards in [1usize, 2, 4, 8] {
            specs.push(mk(b, 4, shards, PartitionStrategy::RoundRobin));
        }
        // Locality rows: same cells, topology-aware partitioning. The
        // serial row above is the shared baseline.
        for shards in [2usize, 4] {
            specs.push(mk(b, 4, shards, PartitionStrategy::Locality));
        }
    }
    // Saturated-load rows: enough in-flight transactions per node that the
    // pending-event population dwarfs the shard count. These gate the
    // sharded baseline guard.
    for shards in [1usize, 4] {
        specs.push(mk(
            Benchmark::Bank,
            32,
            shards,
            PartitionStrategy::RoundRobin,
        ));
    }
    specs.retain(|c| spec_matches(filter, c, "sharded"));

    for cell in &specs {
        let _warmup = run_cell(cell.clone());
    }
    let mut timings: Vec<Vec<(u64, u64)>> = vec![Vec::with_capacity(trials); specs.len()];
    let mut counts = vec![(0u64, 0u64); specs.len()];
    let mut stats: Vec<Option<dstm_sim::ShardRunStats>> = vec![None; specs.len()];
    for _ in 0..trials {
        for (i, cell) in specs.iter().enumerate() {
            let r = run_cell(cell.clone());
            assert!(
                r.completed,
                "sharded block {} stalled at {} shards ({})",
                cell.benchmark.label(),
                cell.shards,
                cell.partition.label()
            );
            // Median by wall clock: that is the axis sharding moves.
            timings[i].push((r.wall_ns, r.cpu_ns));
            counts[i] = (r.metrics.messages, r.metrics.merged.commits);
            stats[i] = r.shard_stats;
        }
    }

    let mut rows = Vec::new();
    for (i, cell) in specs.iter().enumerate() {
        timings[i].sort_unstable();
        let (wall_ns, cpu_ns) = timings[i][timings[i].len() / 2];
        let (events, commits) = counts[i];
        let stat = stats[i].take();
        let row = KernelRow {
            benchmark: cell.benchmark,
            nodes: cell.params.nodes,
            scheduler: cell.scheduler,
            topology: cell.topology.label(),
            trace: false,
            telemetry: false,
            cache: cell.dstm.cache,
            cache_hit_rate: 0.0,
            trials,
            shards: cell.shards,
            partition: cell.partition.label(),
            concurrency: cell.dstm.concurrency_per_node,
            wall_ns,
            cpu_ns,
            events,
            commits,
            allocs_per_event: 0.0,
            peak_alloc_bytes: 0,
            shard_events: stat
                .as_ref()
                .map(|s| s.shard_events.clone())
                .unwrap_or_default(),
            barrier_wait_ns: stat
                .as_ref()
                .map(|s| s.barrier_wait_ns.clone())
                .unwrap_or_default(),
            execute_ns: stat
                .as_ref()
                .map(|s| s.profiles.iter().map(|p| p.execute_ns).collect())
                .unwrap_or_default(),
            drain_ns: stat
                .map(|s| s.profiles.iter().map(|p| p.drain_ns).collect())
                .unwrap_or_default(),
        };
        row.print();
        rows.push(row);
    }
    for b in [Benchmark::Bank, Benchmark::Vacation] {
        let base = rows
            .iter()
            .find(|r| r.benchmark == b && r.shards == 1 && r.concurrency == 4);
        let best = rows
            .iter()
            .filter(|r| r.benchmark == b && r.shards > 1 && r.concurrency == 4)
            .min_by_key(|r| r.wall_ns);
        if let (Some(base), Some(best)) = (base, best) {
            println!(
                "[sharded {}: best wall-clock {:.2}x at {} shards ({}) vs serial]",
                b.label(),
                base.wall_ns as f64 / best.wall_ns.max(1) as f64,
                best.shards,
                best.partition
            );
        }
    }
    rows
}

fn kernel_json(
    rows: &[KernelRow],
    scale_name: &str,
    sweep_allocs: u64,
    sweep_peak: usize,
) -> String {
    let total_events: u64 = rows.iter().map(|r| r.events).sum();
    let mut json = String::from("{\n  \"unit\": \"ns\",\n  \"clock\": \"thread_cpu\",\n");
    let _ = writeln!(json, "  \"scale\": \"{scale_name}\",");
    let _ = writeln!(json, "  \"workers\": {},", effective_workers());
    let _ = writeln!(
        json,
        "  \"host_cores\": {},",
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    );
    let _ = writeln!(json, "  \"alloc_counter\": {},", alloc_counter::enabled());
    let _ = writeln!(
        json,
        "  \"sweep_allocs_per_event\": {:.2},",
        sweep_allocs as f64 / total_events.max(1) as f64
    );
    let _ = writeln!(json, "  \"sweep_peak_alloc_bytes\": {sweep_peak},");
    json.push_str("  \"cells\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"benchmark\": \"{}\", \"nodes\": {}, \"scheduler\": \"{}\", \
             \"topology\": \"{}\", \"trace\": \"{}\", \
             \"telemetry\": \"{}\", \"cache\": \"{}\", \
             \"trials\": {}, \"shards\": {}, \"partition\": \"{}\", \
             \"concurrency\": {}, \"wall_ns\": {}, \"cpu_ns\": {}, \"events\": {}, \
             \"ns_per_event\": {:.1}, \"commits\": {}, \
             \"messages_per_commit\": {:.2}, \"cache_hit_rate\": {:.3}, \
             \"allocs_per_event\": {:.2}, \"peak_alloc_bytes\": {}",
            r.benchmark.label(),
            r.nodes,
            r.scheduler.label(),
            r.topology,
            if r.trace { "on" } else { "off" },
            if r.telemetry { "on" } else { "off" },
            if r.cache { "on" } else { "off" },
            r.trials,
            r.shards,
            r.partition,
            r.concurrency,
            r.wall_ns,
            r.cpu_ns,
            r.events,
            r.ns_per_event(),
            r.commits,
            r.messages_per_commit(),
            r.cache_hit_rate,
            r.allocs_per_event,
            r.peak_alloc_bytes,
        );
        // Per-shard attribution, sharded rows only. Kept at the line's
        // tail: the line-oriented parser reads scalars by the first
        // `"key": ` match, and these arrays contain no quoted keys.
        if !r.shard_events.is_empty() {
            let fmt = |v: &[u64]| {
                v.iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let _ = write!(
                json,
                ", \"shard_events\": [{}], \"barrier_wait_ns\": [{}]",
                fmt(&r.shard_events),
                fmt(&r.barrier_wait_ns)
            );
            if !r.execute_ns.is_empty() {
                let _ = write!(
                    json,
                    ", \"execute_ns\": [{}], \"drain_ns\": [{}]",
                    fmt(&r.execute_ns),
                    fmt(&r.drain_ns)
                );
            }
        }
        let _ = writeln!(json, "}}{}", if i + 1 == rows.len() { "" } else { "," });
    }
    json.push_str("  ]\n}\n");
    json
}

/// Extract a `"key": "string"` field from one JSON row line.
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// Extract a `"key": number` field from one JSON row line.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Parse the `cells` rows of a kernel report into
/// `(benchmark/nodes/scheduler/trace, ns_per_event)` pairs. The writer
/// emits one row per line, so a line-oriented scan is exact.
///
/// Rows from the sharded block (`shards > 1` or a non-default
/// `concurrency`) are skipped: their ns/event reflects host parallelism
/// and saturation, not kernel cost, and reports written before those
/// fields existed (which omit them — hence the defaults here) could never
/// match them anyway.
fn parse_kernel_rows(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|line| {
            let b = json_str(line, "benchmark")?;
            let nodes = json_num(line, "nodes")?;
            let s = json_str(line, "scheduler")?;
            let trace = json_str(line, "trace")?;
            let nspe = json_num(line, "ns_per_event")?;
            let shards = json_num(line, "shards").unwrap_or(1.0);
            let concurrency = json_num(line, "concurrency").unwrap_or(4.0);
            // Telemetry and cache rows never gate: reports written before
            // those variants existed omit the fields (hence the "off"
            // defaults here), and the cache variant runs a different
            // message pattern so its ns/event is not comparable anyway.
            let telemetry = json_str(line, "telemetry").unwrap_or("off");
            let cache = json_str(line, "cache").unwrap_or("off");
            if shards != 1.0 || concurrency != 4.0 || telemetry == "on" || cache == "on" {
                return None;
            }
            Some((format!("{b}/{nodes}/{s}/{trace}"), nspe))
        })
        .collect()
}

/// Parse the saturated-load sharded rows (`concurrency == 32`) of a kernel
/// report into `(key, wall_ns_per_event)` pairs. Wall clock — not thread
/// CPU — is the axis sharding moves, so it is what the sharded guard gates.
fn parse_sharded_rows(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|line| {
            let b = json_str(line, "benchmark")?;
            let nodes = json_num(line, "nodes")?;
            let s = json_str(line, "scheduler")?;
            let trace = json_str(line, "trace")?;
            let shards = json_num(line, "shards")?;
            let concurrency = json_num(line, "concurrency")?;
            let partition = json_str(line, "partition").unwrap_or("round-robin");
            let wall = json_num(line, "wall_ns")?;
            let events = json_num(line, "events")?;
            if trace != "off" || concurrency != 32.0 || events <= 0.0 {
                return None;
            }
            Some((
                format!("{b}/{nodes}/{s}/shards{shards}/{partition}"),
                wall / events,
            ))
        })
        .collect()
}

/// `benchmark/nodes/scheduler`: what pairs a row with its counterpart, in
/// this report or in a baseline.
fn cell_key(r: &KernelRow) -> String {
    format!(
        "{}/{}/{}",
        r.benchmark.label(),
        r.nodes,
        r.scheduler.label()
    )
}

/// A serial, default-concurrency row with tracing, telemetry and the cache
/// off: what the baseline gates and what the intra-report guards compare
/// the instrumented and cache rows against.
fn is_plain(r: &KernelRow) -> bool {
    !r.trace && !r.telemetry && !r.cache && r.shards == 1 && r.concurrency == 4
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_unstable_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// What the four kernel guards share: the median of `ratios` (not empty)
/// may exceed 1 by at most the tolerance in `env`, or `default_tolerance`
/// when that is unset. Prints `report(pairs, median, 1 + tolerance)`; past
/// the tolerance it also says `{alarm} is N% over {over} (allowed M%)` on
/// stderr and returns `false`.
fn median_guard(
    mut ratios: Vec<f64>,
    env: &str,
    default_tolerance: f64,
    report: impl Fn(usize, f64, f64) -> String,
    alarm: &str,
    over: &str,
) -> bool {
    let median = median(&mut ratios);
    let tolerance: f64 = std::env::var(env)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default_tolerance);
    println!("{}", report(ratios.len(), median, 1.0 + tolerance));
    if median > 1.0 + tolerance {
        eprintln!(
            "{alarm} is {:.1}% over {over} (allowed {:.0}%)",
            (median - 1.0) * 100.0,
            tolerance * 100.0
        );
        return false;
    }
    true
}

/// The sharded arm of the baseline guard: compare the saturated-load
/// (`concurrency = 32`) rows' wall-ns/event against the baseline's. Sharded
/// wall clock depends on host parallelism, so the tolerance is looser than
/// the serial guard's and `host_cores`-gated: on a 1-core host the executor
/// is pure overhead measurement and scheduling noise dominates (+60%
/// allowed); with real cores +35%. `DSTM_BENCH_TOLERANCE_SHARDED`
/// overrides. A baseline without matching rows (written before these rows
/// existed) skips with a note rather than failing.
fn sharded_baseline_guard(rows: &[KernelRow], baseline_text: &str, baseline_path: &str) -> bool {
    let old: std::collections::HashMap<String, f64> =
        parse_sharded_rows(baseline_text).into_iter().collect();
    let ratios: Vec<f64> = rows
        .iter()
        .filter(|r| !r.trace && !r.cache && r.concurrency == 32 && r.events > 0)
        .filter_map(|r| {
            let key = format!("{}/shards{}/{}", cell_key(r), r.shards, r.partition);
            let old_nspe = *old.get(&key)?;
            let new_nspe = r.wall_ns as f64 / r.events as f64;
            (old_nspe > 0.0).then_some(new_nspe / old_nspe)
        })
        .collect();
    if ratios.is_empty() {
        println!(
            "[baseline {baseline_path}: no sharded conc=32 rows to compare \
             (pre-partition baseline?), skipping sharded guard]"
        );
        return true;
    }
    let host_cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    median_guard(
        ratios,
        "DSTM_BENCH_TOLERANCE_SHARDED",
        if host_cores == 1 { 0.60 } else { 0.35 },
        |pairs, median, limit| {
            format!(
                "[sharded baseline: {pairs} matching conc=32 rows, median wall-ns/event ratio \
                 {median:.3} (tolerance {limit:.2}, host_cores {host_cores})]"
            )
        },
        "BENCH REGRESSION (sharded): median wall-ns/event",
        "the baseline",
    )
}

/// Intra-report telemetry-overhead guard: every telemetry-on row compares
/// against the plain row of the same (benchmark, nodes, scheduler) **from
/// the same report**, so host speed cancels out and no baseline file is
/// needed. The epoch sampler is a single branch per event when disabled and
/// a counter snapshot per 50 ms epoch when enabled, so the median
/// cpu-ns/event ratio must stay within `DSTM_TELEMETRY_TOLERANCE` (default
/// +40% — small cells flush few epochs, so the bound mostly rejects
/// accidental hot-path work).
fn telemetry_overhead_guard(rows: &[KernelRow]) -> bool {
    let plain: std::collections::HashMap<String, f64> = rows
        .iter()
        .filter(|r| is_plain(r))
        .map(|r| (cell_key(r), r.ns_per_event()))
        .collect();
    let ratios: Vec<f64> = rows
        .iter()
        .filter(|r| r.telemetry)
        .filter_map(|r| {
            let base = *plain.get(&cell_key(r))?;
            (base > 0.0).then(|| r.ns_per_event() / base)
        })
        .collect();
    if ratios.is_empty() {
        return true;
    }
    median_guard(
        ratios,
        "DSTM_TELEMETRY_TOLERANCE",
        0.40,
        |pairs, median, limit| {
            format!(
                "[telemetry overhead: {pairs} row pairs, median ns/event ratio {median:.3} \
                 (tolerance {limit:.2})]"
            )
        },
        "TELEMETRY OVERHEAD: median ns/event with the epoch sampler on",
        "the plain path",
    )
}

/// Intra-report cache-overhead guard: every cache-on row compares against
/// the plain row of the same (benchmark, nodes, scheduler) **from the same
/// report**, so host speed cancels out. The cache removes events (fewer
/// fetch round trips), so ns/event would rise mechanically even at zero
/// overhead — the cost axis gated here is **cpu-ns per commit** (host cost
/// per unit of committed work), whose median ratio must stay within
/// `DSTM_CACHE_TOLERANCE` (default +40%). The variant must also actually
/// pay: the median messages-per-commit ratio must not exceed 1.0, with a
/// nonzero median hit rate.
fn cache_overhead_guard(rows: &[KernelRow]) -> bool {
    let cpu_per_commit = |r: &KernelRow| r.cpu_ns as f64 / r.commits.max(1) as f64;
    let plain: std::collections::HashMap<String, (f64, f64)> = rows
        .iter()
        .filter(|r| is_plain(r))
        .map(|r| (cell_key(r), (cpu_per_commit(r), r.messages_per_commit())))
        .collect();
    let mut cost_ratios: Vec<f64> = Vec::new();
    let mut mpc_ratios: Vec<f64> = Vec::new();
    let mut hit_rates: Vec<f64> = Vec::new();
    for r in rows.iter().filter(|r| r.cache) {
        let Some(&(base_cost, base_mpc)) = plain.get(&cell_key(r)) else {
            continue;
        };
        if base_cost > 0.0 {
            cost_ratios.push(cpu_per_commit(r) / base_cost);
        }
        if base_mpc > 0.0 {
            mpc_ratios.push(r.messages_per_commit() / base_mpc);
        }
        hit_rates.push(r.cache_hit_rate);
    }
    if cost_ratios.is_empty() {
        return true;
    }
    let mpc = median(&mut mpc_ratios);
    let hits = median(&mut hit_rates);
    let cost_ok = median_guard(
        cost_ratios,
        "DSTM_CACHE_TOLERANCE",
        0.40,
        |pairs, cost, limit| {
            format!(
                "[cache guard: {pairs} row pairs, median cpu-ns/commit ratio {cost:.3} \
                 (tolerance {limit:.2}), median msgs/commit ratio {mpc:.3}, \
                 median hit rate {:.1}%]",
                hits * 100.0
            )
        },
        "CACHE OVERHEAD: median cpu-ns/commit with the cache on",
        "the plain path",
    );
    if !cost_ok {
        return false;
    }
    if mpc > 1.0 || hits <= 0.0 {
        eprintln!(
            "CACHE INEFFECTIVE: median msgs/commit ratio {mpc:.3} (must be ≤ 1.0), \
             median hit rate {:.3} (must be > 0)",
            hits
        );
        return false;
    }
    true
}

/// Compare fresh trace-off rows against a committed report: the median
/// new/old ns-per-event ratio across matching rows must stay within the
/// tolerance (default +20%, env `DSTM_BENCH_TOLERANCE`). Returns `false`
/// on regression so `main` can exit non-zero. The saturated sharded rows
/// get their own looser, `host_cores`-gated check
/// ([`sharded_baseline_guard`]).
fn baseline_guard(rows: &[KernelRow], baseline_path: &str) -> bool {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("could not read baseline {baseline_path}: {e}");
            return false;
        }
    };
    let old: std::collections::HashMap<String, f64> =
        parse_kernel_rows(&text).into_iter().collect();
    // Plain rows only: the sharded block's numbers depend on host core
    // count, so they never gate, and the telemetry and cache rows have
    // their own intra-report guards.
    let ratios: Vec<f64> = rows
        .iter()
        .filter(|r| is_plain(r))
        .filter_map(|r| {
            let old_nspe = *old.get(&format!("{}/off", cell_key(r)))?;
            (old_nspe > 0.0).then(|| r.ns_per_event() / old_nspe)
        })
        .collect();
    if ratios.is_empty() {
        eprintln!("baseline {baseline_path}: no matching trace-off rows");
        return false;
    }
    median_guard(
        ratios,
        "DSTM_BENCH_TOLERANCE",
        0.20,
        |pairs, median, limit| {
            format!(
                "\n[baseline {baseline_path}: {pairs} matching rows, median ns/event ratio \
                 {median:.3} (tolerance {limit:.2})]"
            )
        },
        "BENCH REGRESSION: median ns/event",
        "the baseline",
    ) && sharded_baseline_guard(rows, &text, baseline_path)
}

/// Wall-clock the kernel grid and write the JSON report; `true` on success
/// (including the optional baseline check).
fn kernel_report(out_path: &str, flags: &Flags) -> bool {
    let scale_name = flags
        .scale
        .clone()
        .or_else(|| std::env::var("DSTM_SCALE").ok())
        .unwrap_or_else(|| "full".into());
    let Some(scale) = Scale::from_name(&scale_name) else {
        eprintln!("unknown scale {scale_name:?} (expected smoke|quick|full|large)");
        return false;
    };
    let trials = flags
        .trials
        .or_else(|| {
            std::env::var("DSTM_TRIALS")
                .ok()
                .and_then(|s| s.parse().ok())
        })
        .unwrap_or(5)
        .max(1);
    println!(
        "[workers={} host_cores={}]",
        effective_workers(),
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    );
    let filter = flags.filter.as_deref();
    if let Some(f) = filter {
        println!("[filter {f:?}: report will be partial — do not commit as a baseline]");
    }
    let (mut rows, sweep_allocs, sweep_peak) = if scale_name == "large" {
        kernel_grid_large(&scale, flags.shards, flags.partition, filter)
    } else {
        alloc_counter::reset();
        let rows = kernel_grid(&scale, trials, filter);
        let (a, p) = alloc_counter::snapshot();
        (rows, a, p)
    };
    println!("\n[sharded block: 160-node hashed cells, wall-clock medians]");
    rows.extend(kernel_grid_sharded(trials, filter));
    let json = kernel_json(&rows, &scale_name, sweep_allocs, sweep_peak);
    match std::fs::write(out_path, &json) {
        Ok(()) => println!("\n[written to {out_path}]"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
    let telemetry_ok = telemetry_overhead_guard(&rows);
    let cache_ok = cache_overhead_guard(&rows);
    let baseline_ok = match &flags.baseline {
        Some(b) => baseline_guard(&rows, b),
        None => true,
    };
    telemetry_ok && cache_ok && baseline_ok
}

/// One large-scale cell, for CI smoke + `dstm-trace audit`. With `--trace`
/// the run records protocol events and writes them out (what the
/// shard-determinism job byte-diffs at 1 vs 4 shards); without it the cell
/// runs untraced, which is what lets the 10k-node smoke cell fit CI time
/// and memory — a 10k-node trace log is millions of records. `--shards` /
/// `--partition` select the executor configuration.
fn large_smoke(positional: &[String], flags: &Flags) {
    let nodes: usize = positional
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(160);
    let cell = Cell::new(Benchmark::Bank, SchedulerKind::Rts, nodes, 0.9)
        .with_txns(Scale::large().txns_per_node)
        .with_topology(TopologySpec::HashedRandom {
            min_ms: 1,
            max_ms: 50,
        })
        .with_shards(flags.shards)
        .with_partition(flags.partition)
        .with_cache(flags.cache);
    let (r, trace) = if flags.topts.path.is_some() {
        let (r, t) = run_cell_traced(cell);
        (r, Some(t))
    } else {
        (run_cell(cell), None)
    };
    assert!(r.completed, "large-smoke cell stalled at n={nodes}");
    let mut line = format!(
        "large-smoke: Bank/RTS n={nodes} hashed topology shards={} part={} cache={}  commits={}  \
         events={}  {:.1} ms wall  {:.0} ns/event",
        flags.shards,
        flags.partition.label(),
        if flags.cache { "on" } else { "off" },
        r.metrics.merged.commits,
        r.metrics.messages,
        r.wall_ns as f64 / 1e6,
        r.cpu_ns as f64 / r.metrics.messages.max(1) as f64,
    );
    if flags.cache {
        let _ = write!(
            line,
            "  cache hit rate {:.1}% ({} hits, {} misses, {} inval)",
            r.metrics.merged.cache_hit_rate() * 100.0,
            r.metrics.merged.cache_hits,
            r.metrics.merged.cache_misses,
            r.metrics.merged.cache_invalidations
        );
    }
    if let Some(t) = &trace {
        let _ = write!(line, "  {} trace records", t.records.len());
    }
    if let Some(stats) = &r.shard_stats {
        let barrier: u64 = stats.barrier_wait_ns.iter().sum();
        let exec: u64 = stats.profiles.iter().map(|p| p.execute_ns).sum();
        let drain: u64 = stats.profiles.iter().map(|p| p.drain_ns).sum();
        let _ = write!(
            line,
            "  windows={} shard_events={:?} barrier {:.1} ms exec {:.1} ms drain {:.1} ms",
            stats.windows,
            stats.shard_events,
            barrier as f64 / 1e6,
            exec as f64 / 1e6,
            drain as f64 / 1e6
        );
    }
    println!("{line}");
    if let Some(t) = &trace {
        flags.topts.write(t);
    }
}

/// Replay the Fig. 2/3 collision under one scheduler with tracing on.
fn scenario_mode(positional: &[String], topts: &TraceOpts) -> Result<(), String> {
    let scheduler = match positional.first() {
        Some(s) => scheduler_from_name(s)
            .ok_or_else(|| format!("unknown scheduler {s:?} (rts|tfa|tfa-backoff)"))?,
        None => SchedulerKind::Rts,
    };
    let writers: usize = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(6);
    let readers: usize = positional.get(2).and_then(|s| s.parse().ok()).unwrap_or(2);
    let (result, trace) = run_collision_traced(scheduler, writers, readers);
    assert!(result.all_done, "scenario stalled");
    let title = format!(
        "collision scenario: {} writers + {} readers under {}",
        writers,
        readers,
        scheduler.label()
    );
    print!("{}", render(&title, &result));
    for (name, h) in result.metrics.merged.hist_summaries() {
        println!(
            "{name:<22} n={:<5} mean={:<12.0} p50={:<10} p95={:<10} p99={}",
            h.count, h.mean, h.p50, h.p95, h.p99
        );
    }
    topts.write(&trace);
    Ok(())
}

type HistRow = (
    Benchmark,
    f64,
    SchedulerKind,
    [(&'static str, HistSummary); 4],
);

/// Write the `BENCH_timeseries.json` sidecar for one telemetry-enabled
/// cell: kernel-report-style provenance headers, then one epoch row per
/// line (counters merged across nodes by epoch index) and the per-object
/// wasted-work ranking. Per-epoch deltas sum to the end-of-run totals —
/// `telemetry_is_passive_and_epoch_sums_reconcile` asserts it, and the
/// `commits`/`aborts`/`wasted_ns` headers here restate the totals so the
/// sidecar is checkable standalone.
fn timeseries_sidecar(out_path: &str, cell: &Cell, r: &CellResult, reports: &[TelemetryReport]) {
    warn_dropped_epochs(cell, reports);
    let epochs = hyflow_dstm::merge_epoch_series(reports);
    let objects = hyflow_dstm::merge_object_waste(reports);
    let dropped: u64 = reports.iter().map(|t| t.dropped_epochs).sum();
    let mut json = String::from("{\n  \"unit\": \"ns\",\n  \"clock\": \"sim_time\",\n");
    let _ = writeln!(json, "  \"epoch_ns\": {},", cell.dstm.epoch.0);
    let _ = writeln!(json, "  \"benchmark\": \"{}\",", cell.benchmark.label());
    let _ = writeln!(json, "  \"scheduler\": \"{}\",", cell.scheduler.label());
    let _ = writeln!(json, "  \"nodes\": {},", cell.params.nodes);
    let _ = writeln!(json, "  \"read_ratio\": {},", cell.params.read_ratio);
    let _ = writeln!(json, "  \"txns_per_node\": {},", cell.params.txns_per_node);
    let _ = writeln!(json, "  \"shards\": {},", cell.shards);
    let _ = writeln!(json, "  \"partition\": \"{}\",", cell.partition.label());
    let _ = writeln!(json, "  \"workers\": {},", effective_workers());
    let _ = writeln!(
        json,
        "  \"host_cores\": {},",
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    );
    let _ = writeln!(json, "  \"dropped_epochs\": {dropped},");
    let _ = writeln!(json, "  \"commits\": {},", r.metrics.merged.commits);
    let _ = writeln!(json, "  \"aborts\": {},", r.metrics.merged.total_aborts());
    let _ = writeln!(
        json,
        "  \"wasted_ns\": {},",
        r.metrics.merged.wasted_work_ns
    );
    json.push_str("  \"epochs\": [\n");
    for (i, e) in epochs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"epoch\": {}, \"commits\": {}, \"aborts\": {}, \
             \"nested_aborts\": {}, \"enqueued\": {}, \"wasted_ns\": {}, \
             \"wasted_msgs\": {}, \"queue_depth\": {}, \"in_flight\": {}, \
             \"cl_open\": {}}}{}",
            e.epoch,
            e.commits,
            e.aborts,
            e.nested_aborts,
            e.enqueued,
            e.wasted_ns,
            e.wasted_msgs,
            e.queue_depth,
            e.in_flight,
            e.cl_open,
            if i + 1 == epochs.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n  \"objects\": [\n");
    for (i, o) in objects.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"oid\": {}, \"aborts\": {}, \"wasted_ns\": {}}}{}",
            o.oid.0,
            o.aborts,
            o.wasted_ns,
            if i + 1 == objects.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    match std::fs::write(out_path, &json) {
        Ok(()) => println!(
            "[telemetry: {} epochs, {} hot objects written to {out_path}]",
            epochs.len(),
            objects.len()
        ),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
}

fn hist_sidecar(out_path: &str, rows: &[HistRow], nodes: usize, txns: usize, flags: &Flags) {
    let mut json = String::from("{\n  \"unit\": \"ns\",\n");
    let _ = writeln!(json, "  \"nodes\": {nodes},");
    let _ = writeln!(json, "  \"txns_per_node\": {txns},");
    let _ = writeln!(json, "  \"shards\": {},", flags.shards);
    let _ = writeln!(json, "  \"partition\": \"{}\",", flags.partition.label());
    let _ = writeln!(json, "  \"workers\": {},", effective_workers());
    let _ = writeln!(
        json,
        "  \"host_cores\": {},",
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    );
    json.push_str("  \"cells\": [\n");
    for (i, (b, read_ratio, s, summaries)) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"benchmark\": \"{}\", \"read_ratio\": {}, \"scheduler\": \"{}\"",
            b.label(),
            read_ratio,
            s.label()
        );
        for (name, h) in summaries {
            let _ = write!(
                json,
                ", \"{name}\": {{\"count\": {}, \"mean\": {:.1}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                h.count, h.mean, h.p50, h.p95, h.p99
            );
        }
        let _ = writeln!(json, "}}{}", if i + 1 == rows.len() { "" } else { "," });
    }
    json.push_str("  ]\n}\n");
    match std::fs::write(out_path, &json) {
        Ok(()) => println!("\n[histogram summaries written to {out_path}]"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = split_flags(&args)?;
    let positional = &flags.positional;
    match positional.first().map(String::as_str) {
        Some("kernel") => {
            let out = positional
                .get(1)
                .map(String::as_str)
                .unwrap_or("BENCH_kernel.json");
            if !kernel_report(out, &flags) {
                std::process::exit(1);
            }
            return Ok(());
        }
        Some("large-smoke") => {
            large_smoke(&positional[1..], &flags);
            return Ok(());
        }
        Some("scenario") => return scenario_mode(&positional[1..], &flags.topts),
        _ => {}
    }
    let nodes: usize = positional
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let txns: usize = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(20);
    let only: Option<Benchmark> = positional.get(2).and_then(|s| Benchmark::from_name(s));

    println!(
        "dstm-sweep: {nodes} nodes, {txns} txns/node, delays 1-50 ms, shards={} part={} cache={}\n",
        flags.shards,
        flags.partition.label(),
        if flags.cache { "on" } else { "off" }
    );
    let mut hist_rows = Vec::new();
    let mut trace_opts = Some(&flags.topts); // first RTS low-contention cell only
    let mut telemetry_slot = flags.telemetry; // first RTS high-contention cell only
    for b in Benchmark::ALL {
        if only.is_some_and(|o| o != b) {
            continue;
        }
        for read_ratio in [0.9, 0.1] {
            let contention = if read_ratio > 0.5 { "low " } else { "high" };
            let mut tputs = Vec::new();
            let mut line = format!("{:<12} {contention}", b.label());
            for s in [
                SchedulerKind::Rts,
                SchedulerKind::Tfa,
                SchedulerKind::TfaBackoff,
            ] {
                let mut cell = Cell::new(b, s, nodes, read_ratio)
                    .with_txns(txns)
                    .with_shards(flags.shards)
                    .with_partition(flags.partition)
                    .with_cache(flags.cache);
                if let Some(ns) = flags.epoch_ns {
                    cell = cell.with_epoch_ns(ns);
                }
                let r = if s == SchedulerKind::Rts && read_ratio > 0.5 {
                    if let Some(t) = trace_opts.take().filter(|t| t.path.is_some()) {
                        let (r, trace) = run_cell_traced(cell);
                        t.write(&trace);
                        r
                    } else {
                        run_cell(cell)
                    }
                } else if s == SchedulerKind::Rts && read_ratio < 0.5 && telemetry_slot {
                    // The representative high-contention cell: the one
                    // whose epoch series is worth a sidecar.
                    telemetry_slot = false;
                    let spec = cell.clone();
                    let (r, reports) = run_cell_telemetry(cell);
                    timeseries_sidecar("BENCH_timeseries.json", &spec, &r, &reports);
                    r
                } else {
                    run_cell(cell)
                };
                assert!(r.completed, "{} under {s:?} stalled", b.label());
                tputs.push(r.throughput());
                line += &format!(
                    "  {}={:8.2} tx/s (nested {:.2})",
                    s.label(),
                    r.throughput(),
                    r.nested_abort_rate()
                );
                let summaries = r.metrics.merged.hist_summaries();
                hist_rows.push((b, read_ratio, s, summaries));
            }
            line += &format!(
                "  | RTS speedup: {:.2}x vs TFA, {:.2}x vs TFA+Backoff",
                tputs[0] / tputs[1],
                tputs[0] / tputs[2]
            );
            println!("{line}");
        }
    }
    hist_sidecar(
        flags.hist_out.as_deref().unwrap_or("BENCH_trace.json"),
        &hist_rows,
        nodes,
        txns,
        &flags,
    );
    Ok(())
}
