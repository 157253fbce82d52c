//! `dstm-trace` — offline audit, analysis and Chrome export of
//! protocol-event traces.
//!
//! ```text
//! dstm-trace audit   <trace.jsonl>            # check invariants; exit 1 on violation
//! dstm-trace analyze <trace.jsonl> [--epoch-ns N]
//!                                             # contention analytics: hot objects,
//!                                             # abort chains, throughput knee, and
//!                                             # a record census per traced run
//! dstm-trace chrome  <trace.jsonl> [out.json] # convert to Chrome trace_event JSON
//! ```
//!
//! Traces are the JSONL streams written by `dstm-sweep --trace` (or any
//! caller of `TraceLog::to_jsonl`); a line in any other layout is refused
//! with its line number and the byte where it leaves the writer's. `audit`
//! replays the trace and checks what the live counters cannot: every
//! commit's read/write footprint is consistent with a serial order, every
//! queue-timeout abort was actually enqueued, the Table-I nested-abort
//! split and the wasted-work ledger recomputed from spans match the
//! counter-based `RunSummary` exactly, and time never goes backwards within
//! a run. `analyze` builds the object-conflict picture from abort
//! attribution — which objects caused the aborts, which transactions
//! discarded whose work, where throughput knees over — and counts each
//! run's records by kind, with its queue-timeout, enqueue and cache totals.
//! It exits 1 only on a commit stamped too far out to bucket.
//!
//! An argument starting with `--` that the subcommand does not take, a flag
//! value that does not parse or is 0, and a positional argument the
//! subcommand has no place for each print the usage text on stderr and exit
//! with status 2 before any file is read or written. `chrome` likewise
//! refuses, with one line on stderr and status 2, an output path that
//! resolves to the input trace: writing it would destroy the trace it was
//! converted from.

use dstm_harness::traceio::{analyze, audit, to_chrome_trace, DEFAULT_ANALYZE_EPOCH_NS};
use hyflow_dstm::TraceLog;
use std::process::ExitCode;

fn load(path: &str) -> Result<TraceLog, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    TraceLog::parse_jsonl(&text)
}

/// Load `path` and print the report `check` renders of it: exit status 1
/// if the report is not ok, 2 if the trace cannot be read.
fn print_report(path: &str, check: impl FnOnce(&TraceLog) -> (String, bool)) -> ExitCode {
    match load(path) {
        Ok(log) => {
            let (text, ok) = check(&log);
            print!("{text}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
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
        "usage:\n  dstm-trace audit   <trace.jsonl>\n  \
         dstm-trace analyze <trace.jsonl> [--epoch-ns N]\n  \
         dstm-trace chrome  <trace.jsonl> [out.json]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    // `analyze --epoch-ns` is the one flag; everything else that starts
    // with `--` is a mistake, not a file name.
    let mut epoch_ns = DEFAULT_ANALYZE_EPOCH_NS;
    let mut positional: Vec<&str> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--epoch-ns" if cmd == "analyze" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => epoch_ns = n,
                _ => return usage(),
            },
            flag if flag.starts_with("--") => return usage(),
            path => positional.push(path),
        }
    }
    match (cmd.as_str(), positional.as_slice()) {
        ("audit", [path]) => print_report(path, |log| {
            let report = audit(log);
            (report.render(), report.ok())
        }),
        ("analyze", [path]) => print_report(path, |log| {
            let report = analyze(log, epoch_ns);
            (report.render(), report.ok())
        }),
        ("chrome", [path, out @ ..]) if out.len() <= 1 => {
            let out_path = out.first().map_or_else(
                || format!("{}.chrome.json", path.trim_end_matches(".jsonl")),
                |out| out.to_string(),
            );
            if same_file(path, &out_path) {
                eprintln!("refusing to write {out_path}: it is the input trace {path}");
                return ExitCode::from(2);
            }
            let written = load(path).and_then(|log| {
                std::fs::write(&out_path, to_chrome_trace(&log))
                    .map_err(|e| format!("cannot write {out_path}: {e}"))
            });
            match written {
                Ok(()) => {
                    println!("[written to {out_path} — open in chrome://tracing or Perfetto]");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => usage(),
    }
}
