//! A command line `dstm-verify` cannot use must stop it, not change what it
//! checks.
//!
//! Flags were looked up by name, so whatever was not looked up was ignored:
//! `check --parent-scop` explored the 652-state child-scope model — not the
//! only model in which the schedulers diverge — and exited 0, `fuzz --bogus
//! 1` and `check extra positional` ran the defaults, `--out --no-cache`
//! wrote the reproducer to a file called `--no-cache`. Each is now one
//! `dstm-verify:` line plus the usage on stderr and exit status 2 before
//! anything runs; checked through the binary.

use std::process::{Command, Output};

fn verify(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dstm-verify"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("dstm-verify runs")
}

/// Run `dstm-verify <args>`, expect the refusal, return its error line.
fn refused(args: &[&str]) -> String {
    let out = verify(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{args:?} ran something: {out:?}");
    let mut lines = stderr.lines();
    let first = lines.next().unwrap_or_default().to_string();
    assert!(first.starts_with("dstm-verify: "), "{args:?}: {stderr}");
    assert_eq!(lines.next(), Some("usage:"), "{args:?}: {stderr}");
    assert!(
        !stderr
            .lines()
            .skip(1)
            .any(|l| l.starts_with("dstm-verify: ")),
        "{args:?}: more than one error line: {stderr}"
    );
    first
}

#[test]
fn check_takes_every_scheduler_spelling_dstm_sweep_takes() {
    for spelling in ["tfab", "TFA-Backoff"] {
        let out = verify(&["check", "--scheduler", spelling, "--max-states", "20"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("checking backoff on "),
            "{spelling}: {out:?}"
        );
    }
}

#[test]
fn a_mistyped_flag_is_refused() {
    assert!(refused(&["check", "--parent-scop", "--scheduler", "tfa"]).contains("--parent-scop"));
    assert!(refused(&["fuzz", "--episodes", "2", "--bogus", "1"]).contains("--bogus"));
    // A flag of the other subcommand is not a flag of this one.
    assert!(refused(&["check", "--episodes", "2"]).contains("--episodes"));
}

#[test]
fn a_stray_positional_argument_is_refused() {
    assert!(refused(&["check", "extra", "positional"]).contains("`extra`"));
    assert!(refused(&["fuzz", "--episodes", "2", "3"]).contains("`3`"));
    assert!(refused(&["replay", "a.txt", "b.txt"]).contains("`b.txt`"));
}

#[test]
fn a_flag_without_its_value_is_refused() {
    assert!(refused(&["check", "--nodes"]).contains("--nodes"));
    // The next flag is not the missing value.
    assert!(refused(&["fuzz", "--out", "--no-cache"]).contains("--out"));
    assert!(refused(&["check", "--max-states", "--parent-scope"]).contains("--max-states"));
}

#[test]
fn a_value_that_does_not_parse_is_refused() {
    let line = refused(&["check", "--nodes", "three"]);
    assert!(line.contains("--nodes") && line.contains("three"), "{line}");
    assert!(refused(&["check", "--scheduler", "tfaa"]).contains("tfaa"));
    // A retired scheduler (§V's Bi-interval) is refused, not model-checked.
    assert!(refused(&["check", "--scheduler", "bi-interval"]).contains("bi-interval"));
    assert!(refused(&["fuzz", "--benchmark", "bnak"]).contains("bnak"));
}

#[test]
fn a_count_no_run_can_use_is_refused() {
    // These panicked in `build_model` or the topology (exit 101), or, with
    // no transactions, reported a violation of a run that never ran.
    assert!(refused(&["check", "--nodes", "0"]).contains("--nodes 0"));
    assert!(refused(&["check", "--nodes", "1"]).contains("--nodes 1"));
    assert!(refused(&["check", "--objects", "0"]).contains("--objects 0"));
    assert!(refused(&["fuzz", "--nodes", "0"]).contains("--nodes 0"));
    assert!(refused(&["fuzz", "--nodes", "16777217"]).contains("--nodes 16777217"));
    assert!(refused(&["fuzz", "--txns", "0"]).contains("--txns 0"));
    // A reproducer is held to the same counts as the flags.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, count) in [
        ("no-nodes", "nodes 0"),
        ("too-many-nodes", "nodes 3000000000"),
        ("no-txns", "txns 0"),
    ] {
        let path = dir.join(format!("{name}.txt"));
        std::fs::write(&path, format!("benchmark bank\n{count}\nseed 7\n"))
            .expect("reproducer written");
        let line = refused(&["replay", path.to_str().expect("utf-8 path")]);
        assert!(line.contains(count), "{line}");
    }
}

/// The flag sets of CI's `verify-smoke` job, at sizes a debug binary runs in
/// seconds where a size flag exists.
#[test]
fn the_ci_invocations_are_still_accepted() {
    for args in [
        &["check", "--scheduler", "all"][..],
        &[
            "check",
            "--scheduler",
            "all",
            "--parent-scope",
            "--max-states",
            "300",
        ],
        &["fuzz", "--episodes", "2", "--out", "verify-reproducer.txt"],
    ] {
        let out = verify(args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("no invariant violations") || stdout.contains("no violations"));
    }
    // `--parent-scope` does select the parent-scope model.
    let out = verify(&[
        "check",
        "--scheduler",
        "rts",
        "--parent-scope",
        "--max-states",
        "300",
    ]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("parent scope"));
}
