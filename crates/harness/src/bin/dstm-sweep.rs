//! `dstm-sweep` — run one benchmark × scheduler grid from the command line.
//!
//! ```text
//! dstm-sweep [nodes] [txns_per_node] [benchmark] [--cache]
//! dstm-sweep scenario [rts|tfa|backoff|ats|bi-interval] [writers] [readers]
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
//! The default mode prints throughput, nested-abort rate, and speedups for
//! every (benchmark, contention, scheduler) cell, and writes no file unless
//! `--trace` asks for one.
//!
//! `scenario` mode replays the Fig. 2/3 single-object collision under the
//! given scheduler (default RTS, 6 writers, 2 readers) and prints the
//! latency histogram summaries (commit latency, queue wait, fetch RTT,
//! retries); with `--trace` the JSONL it writes is exactly what
//! `dstm-trace audit` consumes.
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
//! a count no run can use (a node count outside `1..=MAX_ACTORS`, zero
//! transactions per node), and a positional argument the mode has no place
//! for each end the program with one `error:` line on stderr and exit status
//! 2, before anything runs.

use dstm_benchmarks::Benchmark;
use dstm_harness::experiments::scenarios::{render, run_collision_traced};
use dstm_harness::experiments::Scale;
use dstm_harness::runner::{run_cell, run_cell_traced, Cell, TopologySpec};
use hyflow_dstm::TraceLog;
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
    let mut cache = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let a = a.as_str();
        match a {
            "--trace" => trace = Some(value(a, &mut it)?.to_string()),
            "--cache" => cache = true,
            _ if a.starts_with("--") => return Err(format!("unknown flag {a}")),
            _ => positional.push(a.to_string()),
        }
    }
    Ok(Flags {
        positional,
        trace,
        cache,
    })
}

/// A node count a run can hold: at least one node, and no more than the
/// kernel's event keys can name.
fn node_count(s: &str) -> Option<usize> {
    number(s).filter(|n| (1..=dstm_sim::MAX_ACTORS).contains(n))
}

/// What a node-count argument is called in errors, with its range.
fn nodes_name() -> String {
    format!("nodes (1..={})", dstm_sim::MAX_ACTORS)
}

/// A count that must not be zero: a sweep of no transactions has no
/// throughput to compare.
fn positive(s: &str) -> Option<usize> {
    number(s).filter(|&n| n > 0)
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
    let nodes: usize = positional(args, 0, &nodes_name(), node_count, 160)?;
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
        "scheduler (rts|tfa|backoff|ats|bi-interval)",
        SchedulerKind::from_name,
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
    let nodes: usize = positional(args, 0, &nodes_name(), node_count, 20)?;
    let txns: usize = positional(args, 1, "txns_per_node (≥ 1)", positive, 20)?;
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
    let mut trace_path = flags.trace.as_deref(); // first RTS low-contention cell only
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
                let cell = Cell::new(b, s, nodes, read_ratio)
                    .with_txns(txns)
                    .with_cache(flags.cache);
                let traced = s == SchedulerKind::Rts && read_ratio > 0.5;
                let r = match trace_path.take_if(|_| traced) {
                    Some(path) => {
                        let (r, trace) = run_cell_traced(cell);
                        write_trace(path, &trace);
                        r
                    }
                    None => run_cell(cell),
                };
                assert!(r.completed, "{} under {s:?} stalled", b.label());
                tputs.push(r.throughput());
                line += &format!(
                    "  {}={:8.2} tx/s (nested {:.2})",
                    s.label(),
                    r.throughput(),
                    r.nested_abort_rate()
                );
            }
            line += &format!(
                "  | RTS speedup: {:.2}x vs TFA, {:.2}x vs TFA+Backoff",
                tputs[0] / tputs[1],
                tputs[0] / tputs[2]
            );
            println!("{line}");
        }
    }
    Ok(())
}
