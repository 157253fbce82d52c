//! A command line `dstm-sweep` cannot use must stop it, not change what it
//! runs; the environment does not reach it at all.
//!
//! A mistyped flag used to become a positional argument; a flag value or a
//! positional argument that did not parse used to fall back to the default;
//! a trailing flag lost its value silently — each of which ran a *different*
//! sweep and exited 0 — and an unknown `scenario` scheduler panicked. Each
//! is now one `error:` line on stderr and exit status 2 before anything
//! runs; checked through the binary.

use std::path::Path;
use std::process::{Command, Output};

/// `dstm-sweep <args>` in `cwd` with `env` set.
fn sweep(cwd: &Path, env: &[(&str, &str)], args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dstm-sweep"))
        .args(args)
        .envs(env.iter().copied())
        .current_dir(cwd)
        .output()
        .expect("dstm-sweep runs")
}

/// Run `dstm-sweep <args>`, expect the refusal, return its `error:` line.
fn refused(args: &[&str]) -> String {
    let out = sweep(Path::new(env!("CARGO_TARGET_TMPDIR")), &[], args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{args:?} ran something: {out:?}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert!(
        matches!(lines[..], [line] if line.starts_with("error: ")),
        "{args:?}: stderr is not one error line: {stderr}"
    );
    lines[0].to_string()
}

#[test]
fn a_mistyped_flag_is_refused() {
    assert!(refused(&["large-smoke", "40", "--epoch", "4"]).contains("--epoch"));
}

#[test]
fn a_value_that_does_not_parse_is_refused() {
    let line = refused(&["4", "three", "bank"]);
    assert!(
        line.contains("txns_per_node") && line.contains("three"),
        "{line}"
    );
    // A retired scheduler (§V's ATS) is refused, and its trace not written.
    let trace = Path::new(env!("CARGO_TARGET_TMPDIR")).join("retired-ats.jsonl");
    let _ = std::fs::remove_file(&trace);
    let path = trace.to_str().expect("a UTF-8 path");
    assert!(refused(&["scenario", "ats", "--trace", path]).contains("\"ats\""));
    assert!(!trace.exists(), "a refused run wrote its trace");
}

#[test]
fn a_flag_without_its_value_is_refused() {
    assert!(refused(&["large-smoke", "40", "--trace"]).contains("--trace"));
    // The next flag is not the missing value.
    assert!(refused(&["large-smoke", "40", "--trace", "--cache"]).contains("--trace"));
}

#[test]
fn an_unknown_scenario_scheduler_is_refused() {
    assert!(refused(&["scenario", "bogus"]).contains("bogus"));
}

#[test]
fn a_scenario_takes_every_scheduler_spelling_dstm_verify_takes() {
    for (spelling, label) in [("BACKOFF", "TFA+Backoff"), ("tfa+backoff", "TFA+Backoff")] {
        let out = sweep(
            Path::new(env!("CARGO_TARGET_TMPDIR")),
            &[],
            &["scenario", spelling, "1", "0"],
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{spelling}: {out:?}");
        assert!(
            stdout.contains(&format!("under {label}")),
            "{spelling}: {stdout}"
        );
    }
}

#[test]
fn a_positional_argument_that_does_not_parse_is_refused() {
    assert!(refused(&["large-smoke", "abc"]).contains("abc"));
    assert!(refused(&["6", "4", "bnak"]).contains("bnak"));
    assert!(refused(&["scenario", "rts", "six"]).contains("six"));
    // One more than the mode reads.
    assert!(refused(&["large-smoke", "40", "4"]).contains("\"4\""));
}

#[test]
fn a_node_count_no_run_can_hold_is_refused() {
    // No nodes panicked in the topology; more than the event keys can name
    // aborted on allocation.
    assert!(refused(&["large-smoke", "0"]).contains("\"0\""));
    assert!(refused(&["large-smoke", "99999999999"]).contains("99999999999"));
    assert!(refused(&["large-smoke", "16777217"]).contains("16777217"));
}

#[test]
fn the_default_sweep_refuses_counts_no_run_can_use() {
    // No nodes panicked in the topology, too many aborted on allocation,
    // and no transactions printed NaN speedups; all three exited non-2.
    assert!(refused(&["0", "2", "bank"]).contains("\"0\""));
    assert!(refused(&["20000000", "1", "bank"]).contains("20000000"));
    let line = refused(&["1", "0", "bank"]);
    assert!(
        line.contains("txns_per_node") && line.contains("\"0\""),
        "{line}"
    );
}

#[test]
fn a_scenario_refuses_counts_no_run_can_use() {
    // An empty collision printed a table of nothing and exited 0.
    assert!(refused(&["scenario", "rts", "0", "0"]).contains("no collision"));
    // The owner plus one node per transaction, one past what the event keys
    // can name; and a sum that does not fit a count at all.
    let max = dstm_sim::MAX_ACTORS.to_string();
    assert!(refused(&["scenario", "tfa", &max, "0"]).contains("need more than"));
    assert!(refused(&["scenario", "tfa", "1", &max]).contains("need more than"));
    let huge = usize::MAX.to_string();
    assert!(refused(&["scenario", "rts", &huge, "1"]).contains("need more than"));
}

#[test]
fn large_smoke_reports_its_peak_resident_set() {
    let out = sweep(
        Path::new(env!("CARGO_TARGET_TMPDIR")),
        &[],
        &["large-smoke", "12"],
    );
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("large-smoke: "))
        .expect("summary line");
    let rss = line
        .rsplit_once("  peak_rss=")
        .map(|(_, v)| v)
        .expect("peak_rss at the end of the summary line");
    if cfg!(target_os = "linux") {
        let mib: f64 = rss.parse().expect("a number of MiB");
        assert!(mib > 0.0, "{line}");
    } else {
        assert_eq!(rss, "n/a");
    }
    // What CI greps the line for still matches.
    assert!(line.contains("cache=off"), "{line}");
}

#[test]
fn the_retired_kernel_mode_is_refused() {
    // `kernel` is not a node count, and its flags are no longer flags.
    assert!(refused(&["kernel"]).contains("kernel"));
    assert!(refused(&["kernel", "out.json", "--scale", "quick"]).contains("--scale"));
}

#[test]
fn the_retired_executor_flags_are_refused() {
    // A script that still asks for the parallel executor must fail, not run
    // serially and report success.
    assert!(refused(&["large-smoke", "40", "--shards", "2"]).contains("unknown flag --shards"));
    assert!(refused(&["large-smoke", "40", "--partition", "locality"])
        .contains("unknown flag --partition"));
    // `--trace` writes JSONL only; `dstm-trace chrome` converts it.
    assert!(refused(&["large-smoke", "40", "--trace-format", "chrome"])
        .contains("unknown flag --trace-format"));
    // The sweep writes no sidecar, so nothing is left to sample or name.
    for args in [
        &["4", "3", "bank", "--telemetry"][..],
        &["4", "3", "bank", "--epoch-ns", "5"],
        &["4", "3", "bank", "--hist-out", "x"],
    ] {
        let flag = args[3];
        assert!(refused(args).contains(&format!("unknown flag {flag}")));
    }
}

#[test]
fn a_trace_that_cannot_be_written_is_an_error() {
    // The run printed "could not write" and exited 0.
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir/x.jsonl");
    let _ = std::fs::remove_dir_all(path.parent().expect("a parent"));
    let path = path.to_str().expect("a UTF-8 path");
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for args in [
        &["scenario", "rts", "2", "0", "--trace", path][..],
        &["large-smoke", "8", "--trace", path],
        &["4", "2", "bank", "--trace", path],
    ] {
        let out = sweep(cwd, &[], args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let lines: Vec<&str> = stderr.lines().collect();
        assert!(
            matches!(lines[..], [line] if line.starts_with(&format!("error: cannot write {path}"))),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn the_default_sweep_writes_no_file() {
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sweep-no-file");
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("scratch directory");
    let out = sweep(&cwd, &[], &["4", "3", "bank"]);
    assert!(out.status.success(), "{out:?}");
    let left: Vec<_> = std::fs::read_dir(&cwd)
        .expect("scratch directory")
        .map(|e| e.expect("directory entry").file_name())
        .collect();
    assert!(left.is_empty(), "the sweep left {left:?}");
}

#[test]
fn the_environment_does_not_reach_the_sweep() {
    // The flags alone decide: with none given this is a plain cache-off,
    // untraced run, whatever these variables say.
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sweep-env");
    std::fs::create_dir_all(&cwd).expect("scratch directory");
    let _ = std::fs::remove_file(cwd.join("t.jsonl"));
    let out = sweep(
        &cwd,
        &[
            ("DSTM_CACHE", "1"),
            ("DSTM_TELEMETRY", "yes"),
            ("DSTM_EPOCH_NS", "abc"),
            ("DSTM_TRACE", "t.jsonl"),
            ("DSTM_TRACE_FORMAT", "xml"),
        ],
        &["large-smoke", "40"],
    );
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache=off"), "{stdout}");
    assert!(!cwd.join("t.jsonl").exists(), "DSTM_TRACE wrote a trace");
}
