//! A command line or environment `dstm-sweep` cannot use must stop it, not
//! change what it runs.
//!
//! A mistyped flag used to become a positional argument; a flag value, a
//! positional argument or a `DSTM_*` variable that did not parse used to
//! fall back to the default; a trailing flag lost its value silently — each
//! of which ran a *different* sweep and exited 0 — and an unknown `scenario`
//! scheduler panicked. Each is now one `error:` line on
//! stderr and exit status 2 before anything runs; checked through the binary.

use std::process::{Command, Output};

/// `dstm-sweep <args>` with `env` set and every other `DSTM_*` variable
/// removed, so the caller's environment cannot change the case under test.
fn sweep(env: &[(&str, &str)], args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dstm-sweep"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("DSTM_") {
            cmd.env_remove(name);
        }
    }
    cmd.args(args)
        .envs(env.iter().copied())
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("dstm-sweep runs")
}

/// Run `dstm-sweep <args>` under `env`, expect the refusal, return its
/// `error:` line.
fn refused_under(env: &[(&str, &str)], args: &[&str]) -> String {
    let out = sweep(env, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{env:?} {args:?}: {out:?}");
    assert!(
        out.stdout.is_empty(),
        "{env:?} {args:?} ran something: {out:?}"
    );
    let lines: Vec<&str> = stderr.lines().collect();
    assert!(
        matches!(lines[..], [line] if line.starts_with("error: ")),
        "{env:?} {args:?}: stderr is not one error line: {stderr}"
    );
    lines[0].to_string()
}

fn refused(args: &[&str]) -> String {
    refused_under(&[], args)
}

#[test]
fn a_mistyped_flag_is_refused() {
    assert!(refused(&["large-smoke", "40", "--epoch", "4"]).contains("--epoch"));
}

#[test]
fn a_value_that_does_not_parse_is_refused() {
    let line = refused(&["large-smoke", "40", "--epoch-ns", "four"]);
    assert!(
        line.contains("--epoch-ns") && line.contains("four"),
        "{line}"
    );
    refused(&["large-smoke", "40", "--trace-format", "xml"]);
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
fn a_positional_argument_that_does_not_parse_is_refused() {
    assert!(refused(&["large-smoke", "abc"]).contains("abc"));
    assert!(refused(&["6", "4", "bnak"]).contains("bnak"));
    assert!(refused(&["scenario", "rts", "six"]).contains("six"));
    // One more than the mode reads.
    assert!(refused(&["large-smoke", "40", "4"]).contains("\"4\""));
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
}

#[test]
fn a_malformed_environment_value_is_refused_like_its_flag() {
    for (name, value) in [
        ("DSTM_EPOCH_NS", "abc"),
        ("DSTM_TRACE_FORMAT", "xml"),
        ("DSTM_TELEMETRY", "yes"),
        ("DSTM_CACHE", "yes"),
    ] {
        let line = refused_under(&[(name, value)], &["large-smoke", "40"]);
        assert!(line.contains(name) && line.contains(value), "{line}");
    }
}
