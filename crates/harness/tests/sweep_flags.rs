//! A command line `dstm-sweep` cannot use must stop it, not change what it
//! runs.
//!
//! A mistyped flag used to become a positional argument, a flag value that
//! did not parse used to fall back to the default, a trailing flag lost its
//! value silently — each of which ran a *different* sweep and exited 0, so
//! CI's `cmp serial.jsonl sharded.jsonl` compared two serial runs — and an
//! unknown `scenario` scheduler panicked. Each is now one `error:` line on
//! stderr and exit status 2 before anything runs; checked through the binary.

use std::process::Command;

/// Run `dstm-sweep <args>`, expect the refusal, return its `error:` line.
fn refused(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dstm-sweep"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("dstm-sweep runs");
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
    assert!(refused(&["large-smoke", "40", "--shard", "4"]).contains("--shard"));
}

#[test]
fn a_value_that_does_not_parse_is_refused() {
    let line = refused(&["large-smoke", "40", "--shards", "four"]);
    assert!(line.contains("--shards") && line.contains("four"), "{line}");
    refused(&["large-smoke", "40", "--partition", "nearest"]);
}

#[test]
fn a_flag_without_its_value_is_refused() {
    assert!(refused(&["large-smoke", "40", "--trace"]).contains("--trace"));
    // The next flag is not the missing value.
    assert!(refused(&["large-smoke", "40", "--trace", "--shards", "2"]).contains("--trace"));
}

#[test]
fn an_unknown_scenario_scheduler_is_refused() {
    assert!(refused(&["scenario", "bogus"]).contains("bogus"));
}
