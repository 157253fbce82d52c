//! A command line `dstm-trace` cannot use must stop it, not shorten what it
//! does.
//!
//! Every subcommand used to read the arguments it had a place for and drop
//! the rest: `audit a.jsonl b.jsonl` audited `a.jsonl` alone and exited 0,
//! and a stray word after `chrome` was ignored the same way.
//! Each is now the usage text on stderr and exit status 2 before any file
//! is read or written, as are a subcommand and a flag the tool does not
//! have; checked through the binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn trace_tool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dstm-trace"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("dstm-trace runs")
}

/// A scratch path of this test's own (tests run on parallel threads).
fn scratch(name: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("trace_flags_{name}"));
    let _ = std::fs::remove_file(&path);
    path
}

/// The Fig. 3 collision trace, recorded the way CI records it.
fn recorded(name: &str) -> String {
    let path = scratch(name);
    let path = path.to_str().expect("utf-8 scratch path");
    let out = Command::new(env!("CARGO_BIN_EXE_dstm-sweep"))
        .args(["scenario", "rts", "6", "2", "--trace", path])
        .output()
        .expect("dstm-sweep runs");
    assert!(out.status.success(), "scenario failed: {out:?}");
    path.to_string()
}

/// `dstm-trace <args>` must print usage, exit 2, report on nothing and leave
/// `untouched` nonexistent.
fn refused(args: &[&str], untouched: &[&Path]) {
    let out = trace_tool(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{args:?} did something: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("usage:"), "{args:?}: {stderr}");
    for path in untouched {
        assert!(!path.exists(), "{args:?} wrote {}", path.display());
    }
}

#[test]
fn audit_refuses_a_second_trace_and_an_unknown_flag() {
    let good = recorded("audit.jsonl");
    refused(&["audit", &good, "missing.jsonl"], &[]);
    refused(&["audit", &good, "--strict"], &[]);
}

/// `stats` printed a record census that `analyze` now prints per run.
#[test]
fn stats_is_not_a_subcommand() {
    let good = recorded("stats.jsonl");
    refused(&["stats", &good], &[]);
    refused(&["stats", &good, "bogus"], &[]);
}

#[test]
fn analyze_refuses_a_stray_argument_and_a_bad_epoch() {
    let good = recorded("analyze.jsonl");
    refused(&["analyze", &good, "bogus"], &[]);
    refused(&["analyze", &good, "--epoch-ns", "soon"], &[]);
    // 0 meant the 50 ms default.
    refused(&["analyze", &good, "--epoch-ns", "0"], &[]);
    // The JSON rendering of the report is gone.
    refused(&["analyze", &good, "--json"], &[]);
}

/// `jsonl` re-exported a trace in the writer's layout; the reader now
/// accepts nothing else, so there is nothing left for it to rewrite.
#[test]
fn jsonl_is_not_a_subcommand() {
    let good = recorded("jsonl.jsonl");
    let out = scratch("jsonl.re.jsonl");
    refused(&["jsonl", &good, out.to_str().unwrap()], &[&out]);
    refused(&["jsonl", &good], &[]);
}

#[test]
fn chrome_refuses_an_argument_past_the_output_path() {
    let good = recorded("convert.jsonl");
    let out = scratch("extra.chrome.json");
    refused(&["chrome", &good, out.to_str().unwrap(), "extra"], &[&out]);
    // A flag is not an output path either.
    refused(&["chrome", &good, "--out"], &[Path::new("--out")]);
}

/// Converting a trace onto itself used to replace it with the output:
/// Chrome JSON that `audit` can no longer read. The output path is now
/// refused, however it is spelled, before anything is written.
#[test]
fn chrome_refuses_to_overwrite_its_input() {
    let good = recorded("self.jsonl");
    let before = std::fs::read(&good).expect("read trace");
    let path = Path::new(&good);
    let dotted = path
        .parent()
        .unwrap()
        .join(".")
        .join(path.file_name().unwrap());
    for out in [good.as_str(), dotted.to_str().unwrap()] {
        let run = trace_tool(&["chrome", &good, out]);
        assert_eq!(run.status.code(), Some(2), "{out}: {run:?}");
        assert!(run.stdout.is_empty(), "{out}: {run:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(stderr.lines().count(), 1, "{out}: {stderr}");
        assert!(stderr.contains("input"), "{out}: {stderr}");
        assert!(
            std::fs::read(&good).expect("read trace") == before,
            "{out} changed its input"
        );
    }
    assert!(trace_tool(&["audit", &good]).status.success());
}

/// `demo` wrote what `dstm-sweep scenario rts 6 2 --trace` writes; it is gone.
#[test]
fn demo_is_not_a_subcommand() {
    let out = scratch("demo.jsonl");
    refused(&["demo", out.to_str().unwrap()], &[&out]);
}

#[test]
fn the_invocations_ci_makes_still_succeed() {
    let good = recorded("ci.jsonl");
    for cmd in ["audit", "analyze"] {
        let out = trace_tool(&[cmd, &good]);
        assert!(out.status.success(), "{cmd}: {out:?}");
        assert!(!out.stdout.is_empty(), "{cmd} printed nothing");
    }
    let out_path = scratch("ci.chrome.json");
    let out = trace_tool(&["chrome", &good, out_path.to_str().unwrap()]);
    assert!(out.status.success(), "chrome: {out:?}");
    assert!(
        out_path.metadata().is_ok_and(|m| m.len() > 0),
        "chrome wrote nothing"
    );
}

/// A commit stamped at the end of time used to make `analyze` size its
/// per-epoch series by the timestamp and die allocating 2.9 TB. It is now a
/// mismatch naming the span and an epoch that fits, with exit status 1.
#[test]
fn analyze_refuses_a_far_future_commit_without_dying() {
    let path = scratch("far_future.jsonl");
    std::fs::write(
        &path,
        "{\"at\":18446744073709551615,\"node\":0,\"ev\":\"tx_commit\",\"tx\":[0,1],\
         \"attempt\":0,\"nested_committed\":0,\"reads\":[],\"writes\":[]}\n",
    )
    .expect("write trace");
    let path = path.to_str().unwrap();
    assert!(trace_tool(&["audit", path]).status.success());

    let out = trace_tool(&["analyze", path]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("commits span 18446744073709551615 ns")
            && stdout.contains("rerun with --epoch-ns 17592186044416"),
        "{stdout}"
    );
    let out = trace_tool(&["analyze", path, "--epoch-ns", "17592186044416"]);
    assert!(out.status.success(), "{out:?}");
}

/// `audit` used to pass a run whose clock went backwards — this committed
/// two-line trace, a commit stamped before its own start, printed "OK" and
/// exited 0. The first decreasing record of a run is now a violation, while
/// a log of runs one after another (each starting at time zero) passes.
#[test]
fn audit_refuses_a_run_whose_time_goes_backwards() {
    let reversed = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/time_reversed.jsonl"
    );
    let out = trace_tool(&["audit", reversed]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("time goes backwards at record 2 of the run: t=1 after t=5"),
        "{stdout}"
    );

    let good = std::fs::read_to_string(recorded("twice.jsonl")).expect("read trace");
    let twice = scratch("twice_concatenated.jsonl");
    std::fs::write(&twice, format!("{good}{good}")).expect("write trace");
    let out = trace_tool(&["audit", twice.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
}

/// `audit` used to pass a Fig. 3 trace with one line indented and a blank
/// line inserted: the reader trimmed the one and skipped the other. The
/// writer makes neither, so each now stops the tool with the line and byte
/// where the text departs from it, and exit status 2.
#[test]
fn audit_refuses_an_indented_line_and_a_blank_line() {
    let good = std::fs::read_to_string(recorded("padded.jsonl")).expect("read trace");
    let edited = |edit: &dyn Fn(usize, &str) -> String| -> String {
        good.lines()
            .enumerate()
            .map(|(i, line)| edit(i + 1, line))
            .collect()
    };
    let indented = edited(&|k, line| match k {
        3 => format!("  {line}\n"),
        _ => format!("{line}\n"),
    });
    let blank = edited(&|k, line| match k {
        4 => format!("\n{line}\n"),
        _ => format!("{line}\n"),
    });
    for (name, text, line) in [("indented", indented, 3), ("blank", blank, 4)] {
        let path = scratch(&format!("{name}.jsonl"));
        std::fs::write(&path, text).expect("write trace");
        let out = trace_tool(&["audit", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{name}: {out:?}");
        assert!(out.stdout.is_empty(), "{name}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr,
            format!("line {line}: byte 0: not the writer's \"at\" field\n"),
            "{name}"
        );
    }
}
