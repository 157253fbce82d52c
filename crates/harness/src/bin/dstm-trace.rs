//! `dstm-trace` — offline audit and conversion of protocol-event traces.
//!
//! ```text
//! dstm-trace audit   <trace.jsonl>            # check invariants; exit 1 on violation
//! dstm-trace stats   <trace.jsonl>            # record census (split per traced run)
//! dstm-trace analyze <trace.jsonl> [--json] [--epoch-ns N]
//!                                             # contention analytics: hot objects,
//!                                             # abort chains, throughput knee;
//!                                             # exit 1 on ledger mismatch
//! dstm-trace chrome  <trace.jsonl> [out.json] # convert to Chrome trace_event JSON
//! dstm-trace jsonl   <trace.jsonl> [out.jsonl]
//!                                             # parse and re-export: the canonical form
//!                                             # (fixed field order, no whitespace,
//!                                             # unknown keys dropped)
//! ```
//!
//! Traces are the JSONL streams written by `dstm-sweep --trace` (or any
//! caller of `TraceLog::to_jsonl`). `audit` replays the trace and checks
//! what the live counters cannot: every commit's read/write footprint is
//! consistent with a serial order, every queue-timeout abort was actually
//! enqueued, the Table-I nested-abort split recomputed from spans
//! matches the counter-based `RunSummary` exactly, and time never goes
//! backwards within a run. `analyze` builds the
//! object-conflict picture from abort attribution — which objects caused
//! the aborts, which transactions discarded whose work, where throughput
//! knees over — and reconciles the event-derived wasted-work ledger
//! against the live counters.
//!
//! An argument starting with `--` that the subcommand does not take, a flag
//! value that does not parse, and a positional argument the subcommand has
//! no place for each print the usage text on stderr and exit with status 2
//! before any file is read or written. `chrome` and `jsonl` likewise refuse,
//! with one line on stderr and status 2, an output path that resolves to the
//! input trace: writing it would destroy the trace it was converted from.

use dstm_harness::traceio::{analyze, audit, to_chrome_trace, trace_stats};
use hyflow_dstm::TraceLog;
use std::process::ExitCode;

fn load(path: &str) -> Result<TraceLog, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    TraceLog::parse_jsonl(&text)
}

/// Load `path`, render it, and write the result to `out` (default: `path`
/// with its `.jsonl` replaced by `default_ext`).
fn convert(
    path: &str,
    out: Option<&str>,
    default_ext: &str,
    render: fn(&TraceLog) -> String,
    note: &str,
) -> ExitCode {
    let out_path = out.map_or_else(
        || format!("{}{default_ext}", path.trim_end_matches(".jsonl")),
        str::to_string,
    );
    if same_file(path, &out_path) {
        eprintln!("refusing to write {out_path}: it is the input trace {path}");
        return ExitCode::from(2);
    }
    let written = load(path).and_then(|log| {
        std::fs::write(&out_path, render(&log)).map_err(|e| format!("cannot write {out_path}: {e}"))
    });
    match written {
        Ok(()) => {
            println!("[written to {out_path}{note}]");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Whether `a` and `b` resolve to one existing file.
fn same_file(a: &str, b: &str) -> bool {
    match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  dstm-trace audit   <trace.jsonl>\n  dstm-trace stats   <trace.jsonl>\n  \
         dstm-trace analyze <trace.jsonl> [--json] [--epoch-ns N]\n  \
         dstm-trace chrome  <trace.jsonl> [out.json]\n  \
         dstm-trace jsonl   <trace.jsonl> [out.jsonl]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    // `analyze` is the one subcommand with flags; everything else that
    // starts with `--` is a mistake, not a file name.
    let mut json = false;
    let mut epoch_ns = 0u64; // 0 = analyzer default (50 ms)
    let mut positional: Vec<&str> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" if cmd == "analyze" => json = true,
            "--epoch-ns" if cmd == "analyze" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => epoch_ns = n,
                _ => return usage(),
            },
            flag if flag.starts_with("--") => return usage(),
            path => positional.push(path),
        }
    }
    match (cmd.as_str(), positional.as_slice()) {
        ("audit", [path]) => match load(path) {
            Ok(log) => {
                let report = audit(&log);
                print!("{}", report.render());
                if report.ok() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        ("stats", [path]) => match load(path) {
            Ok(log) => {
                print!("{}", trace_stats(&log));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        ("analyze", [path]) => match load(path) {
            Ok(log) => {
                let report = analyze(&log, epoch_ns);
                if json {
                    print!("{}", report.to_json());
                } else {
                    print!("{}", report.render());
                }
                if report.ok() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        ("chrome", [path, out @ ..]) if out.len() <= 1 => convert(
            path,
            out.first().copied(),
            ".chrome.json",
            to_chrome_trace,
            " — open in chrome://tracing or Perfetto",
        ),
        ("jsonl", [path, out @ ..]) if out.len() <= 1 => convert(
            path,
            out.first().copied(),
            ".canonical.jsonl",
            TraceLog::to_jsonl,
            "",
        ),
        _ => usage(),
    }
}
