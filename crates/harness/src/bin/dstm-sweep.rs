//! `dstm-sweep` — run one benchmark × scheduler grid from the command line.
//!
//! ```text
//! dstm-sweep [nodes] [txns_per_node] [benchmark] [--hist-out out.json]
//!            [--telemetry] [--epoch-ns N] [--cache]
//! dstm-sweep scenario [rts|tfa|tfa-backoff] [writers] [readers]
//! dstm-sweep large-smoke [nodes] [--cache]
//! ```
//!
//! `--cache` turns on clock-validated remote-read caching plus same-tick
//! message coalescing — a **protocol variant** that changes simulated
//! results (fewer fetch round trips).
//!
//! All modes accept `--trace <path>` to record protocol events as JSONL:
//! `scenario` and `large-smoke` trace their whole run, and the default sweep
//! traces its first RTS low-contention cell as a representative sample.
//! `dstm-trace chrome <in.jsonl> <out.json>` turns the file into a Chrome
//! trace.
//!
//! `--telemetry` enables the sim-time epoch sampler on the default sweep's
//! first RTS high-contention cell and writes the merged per-epoch counter
//! series plus per-object wasted-work ranking to `BENCH_timeseries.json`;
//! `--epoch-ns N` overrides the 50 ms epoch length.
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
//! `large-smoke` is the CI entry point for the large-scale path: one
//! 160-node (or `[nodes]`, up to 10k) Bank/RTS cell on the hashed topology.
//! With `--trace` the run records protocol events for `dstm-trace audit`;
//! without it the cell runs untraced (how the 10k-node smoke stays within
//! CI time and memory). Its summary line ends with `peak_rss=<MiB>`, the
//! process's peak resident set (`VmHWM`; `n/a` off Linux), which CI holds
//! to a budget.
//!
//! Every setting comes from the command line; no environment variable is
//! read. An argument starting with `--` that is not one of the flags above,
//! a flag without its value, a flag or positional value that does not parse,
//! and a positional argument the mode has no place for each end the program
//! with one `error:` line on stderr and exit status 2, before anything runs.

use dstm_benchmarks::Benchmark;
use dstm_harness::experiments::scenarios::{render, run_collision_traced};
use dstm_harness::experiments::Scale;
use dstm_harness::runner::{
    run_cell, run_cell_telemetry, run_cell_traced, warn_dropped_epochs, Cell, CellResult,
    TopologySpec,
};
use hyflow_dstm::{HistSummary, TelemetryReport, TraceLog};
use rts_core::SchedulerKind;
use std::fmt::Write as _;

/// Write `trace` to `path` as JSONL.
fn write_trace(path: &str, trace: &TraceLog) {
    match std::fs::write(path, trace.to_jsonl()) {
        Ok(()) => println!("[trace: {} records written to {path}]", trace.records.len()),
        Err(e) => eprintln!("could not write trace to {path}: {e}"),
    }
}

struct Flags {
    positional: Vec<String>,
    /// `--trace <path>`: where the traced run's JSONL goes.
    trace: Option<String>,
    hist_out: Option<String>,
    /// `--telemetry`: enable the sim-time epoch sampler on the
    /// representative cell and write `BENCH_timeseries.json`.
    telemetry: bool,
    /// `--epoch-ns N`: epoch length for the sampler; `None` keeps the 50 ms
    /// default.
    epoch_ns: Option<u64>,
    /// `--cache`: enable the remote-read cache + message coalescing on the
    /// cells this invocation runs.
    cache: bool,
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

/// `v`, the value given for flag or positional argument `name`, through
/// `parse`.
fn parsed<T>(name: &str, v: &str, parse: impl Fn(&str) -> Option<T>) -> Result<T, String> {
    parse(v).ok_or_else(|| format!("{name}: cannot use {v:?}"))
}

/// Positional argument `i`, called `name` in errors, through `parse`;
/// `default` when absent.
fn positional<T>(
    args: &[String],
    i: usize,
    name: &str,
    parse: impl Fn(&str) -> Option<T>,
    default: T,
) -> Result<T, String> {
    args.get(i).map_or(Ok(default), |v| parsed(name, v, parse))
}

/// No positional argument past the `max` the mode reads.
fn at_most(args: &[String], max: usize) -> Result<(), String> {
    match args.get(max) {
        Some(extra) => Err(format!("unexpected argument {extra:?}")),
        None => Ok(()),
    }
}

fn number<T: std::str::FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

/// Pull the `--flag value` pairs out of the argument list; the rest stay
/// positional.
fn split_flags(args: &[String]) -> Result<Flags, String> {
    let mut positional = Vec::new();
    let mut trace = None;
    let mut hist_out = None;
    let mut telemetry = false;
    let mut epoch_ns = None;
    let mut cache = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let a = a.as_str();
        match a {
            "--trace" => trace = Some(value(a, &mut it)?.to_string()),
            "--hist-out" => hist_out = Some(value(a, &mut it)?.to_string()),
            "--telemetry" => telemetry = true,
            "--epoch-ns" => epoch_ns = Some(parsed(a, value(a, &mut it)?, number)?),
            "--cache" => cache = true,
            _ if a.starts_with("--") => return Err(format!("unknown flag {a}")),
            _ => positional.push(a.to_string()),
        }
    }
    Ok(Flags {
        positional,
        trace,
        hist_out,
        telemetry,
        epoch_ns,
        cache,
    })
}

/// Cores the OS reports; both sidecars record it.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn scheduler_from_name(s: &str) -> Option<SchedulerKind> {
    match s.to_ascii_lowercase().as_str() {
        "rts" => Some(SchedulerKind::Rts),
        "tfa" => Some(SchedulerKind::Tfa),
        "tfa-backoff" | "tfab" => Some(SchedulerKind::TfaBackoff),
        _ => None,
    }
}

/// A node count a run can hold: at least one node, and no more than the
/// kernel's event keys can name.
fn node_count(s: &str) -> Option<usize> {
    number(s).filter(|n| (1..=dstm_sim::MAX_ACTORS).contains(n))
}

/// Peak resident set of this process in MiB: `VmHWM` from
/// `/proc/self/status`, `None` where there is no such file (off Linux).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// One large-scale cell, for CI smoke + `dstm-trace audit`. With `--trace`
/// the run records protocol events and writes them out; without it the cell
/// runs untraced, which is what lets the 10k-node smoke cell fit CI time
/// and memory — a 10k-node trace log is millions of records.
fn large_smoke(args: &[String], flags: &Flags) -> Result<(), String> {
    at_most(args, 1)?;
    let name = format!("nodes (1..={})", dstm_sim::MAX_ACTORS);
    let nodes: usize = positional(args, 0, &name, node_count, 160)?;
    let cell = Cell::new(Benchmark::Bank, SchedulerKind::Rts, nodes, 0.9)
        .with_txns(Scale::large().txns_per_node)
        .with_topology(TopologySpec::HashedRandom {
            min_ms: 1,
            max_ms: 50,
        })
        .with_cache(flags.cache);
    let (r, trace) = if flags.trace.is_some() {
        let (r, t) = run_cell_traced(cell);
        (r, Some(t))
    } else {
        (run_cell(cell), None)
    };
    assert!(r.completed, "large-smoke cell stalled at n={nodes}");
    let mut line = format!(
        "large-smoke: Bank/RTS n={nodes} hashed topology cache={}  commits={}  \
         events={}  {:.1} ms wall  {:.0} ns/event",
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
    match peak_rss_mib() {
        Some(mib) => {
            let _ = write!(line, "  peak_rss={mib:.1}");
        }
        None => line.push_str("  peak_rss=n/a"),
    }
    println!("{line}");
    if let (Some(path), Some(t)) = (&flags.trace, &trace) {
        write_trace(path, t);
    }
    Ok(())
}

/// Replay the Fig. 2/3 collision under one scheduler with tracing on.
fn scenario_mode(args: &[String], trace_path: Option<&str>) -> Result<(), String> {
    at_most(args, 3)?;
    let scheduler = positional(
        args,
        0,
        "scheduler (rts|tfa|tfa-backoff)",
        scheduler_from_name,
        SchedulerKind::Rts,
    )?;
    let writers: usize = positional(args, 1, "writers", number, 6)?;
    let readers: usize = positional(args, 2, "readers", number, 2)?;
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
    if let Some(path) = trace_path {
        write_trace(path, &trace);
    }
    Ok(())
}

type HistRow = (
    Benchmark,
    f64,
    SchedulerKind,
    [(&'static str, HistSummary); 4],
);

/// Write the `BENCH_timeseries.json` sidecar for one telemetry-enabled
/// cell: provenance headers (cell, host), then one epoch row per
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
    let _ = writeln!(json, "  \"host_cores\": {},", host_cores());
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

fn hist_sidecar(out_path: &str, rows: &[HistRow], nodes: usize, txns: usize) {
    let mut json = String::from("{\n  \"unit\": \"ns\",\n");
    let _ = writeln!(json, "  \"nodes\": {nodes},");
    let _ = writeln!(json, "  \"txns_per_node\": {txns},");
    let _ = writeln!(json, "  \"host_cores\": {},", host_cores());
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
    let args = &flags.positional;
    match args.first().map(String::as_str) {
        Some("large-smoke") => return large_smoke(&args[1..], &flags),
        Some("scenario") => return scenario_mode(&args[1..], flags.trace.as_deref()),
        _ => {}
    }
    at_most(args, 3)?;
    let nodes: usize = positional(args, 0, "nodes", number, 20)?;
    let txns: usize = positional(args, 1, "txns_per_node", number, 20)?;
    let only: Option<Benchmark> = positional(
        args,
        2,
        "benchmark",
        |s| Benchmark::from_name(s).map(Some),
        None,
    )?;

    println!(
        "dstm-sweep: {nodes} nodes, {txns} txns/node, delays 1-50 ms, cache={}\n",
        if flags.cache { "on" } else { "off" }
    );
    let mut hist_rows = Vec::new();
    let mut trace_path = flags.trace.as_deref(); // first RTS low-contention cell only
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
                    .with_cache(flags.cache);
                if let Some(ns) = flags.epoch_ns {
                    cell = cell.with_epoch_ns(ns);
                }
                let r = if s == SchedulerKind::Rts && read_ratio > 0.5 {
                    if let Some(path) = trace_path.take() {
                        let (r, trace) = run_cell_traced(cell);
                        write_trace(path, &trace);
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
    );
    Ok(())
}
