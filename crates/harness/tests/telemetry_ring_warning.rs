//! A run that outlives the telemetry ring must say so.
//!
//! The sampler keeps the last 4096 epochs per node; older ones are
//! overwritten and only counted, in the sidecar's `dropped_epochs` field.
//! `dstm-sweep` additionally prints one `warning:` line per affected cell on
//! stderr — checked here through the binary, so the call site is covered and
//! not only the helper — and stays quiet when nothing was lost.

use std::path::PathBuf;
use std::process::{Command, Output};

/// `dstm-sweep 4 3 bank --telemetry <extra>` in a directory of its own (the
/// default sweep writes its sidecars to the working directory).
fn sweep(dir: &str, extra: &[&str]) -> (Output, PathBuf) {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    std::fs::create_dir_all(&cwd).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_dstm-sweep"))
        .args(["4", "3", "bank", "--telemetry"])
        .args(extra)
        .current_dir(&cwd)
        .output()
        .expect("dstm-sweep runs");
    assert!(out.status.success(), "dstm-sweep failed: {out:?}");
    (out, cwd)
}

fn dropped_in_sidecar(cwd: &std::path::Path) -> u64 {
    let text = std::fs::read_to_string(cwd.join("BENCH_timeseries.json")).expect("sidecar");
    let field = "\"dropped_epochs\": ";
    let at = text.find(field).expect("dropped_epochs field") + field.len();
    text[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .expect("a number")
}

#[test]
fn a_run_longer_than_the_ring_warns_on_stderr() {
    // 10 µs epochs: a few simulated seconds are several ring-fulls.
    let (out, cwd) = sweep("ring-overrun", &["--epoch-ns", "10000"]);
    let dropped = dropped_in_sidecar(&cwd);
    assert!(dropped > 0, "the run was meant to outlive the ring");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let warnings: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("warning:"))
        .collect();
    assert_eq!(warnings.len(), 1, "stderr: {stderr}");
    assert!(warnings[0].contains("Bank/RTS/n4"), "{}", warnings[0]);
    assert!(
        warnings[0].contains(&format!("overwrote {dropped} epochs")),
        "{} (sidecar says {dropped})",
        warnings[0]
    );
}

#[test]
fn a_run_that_fits_the_ring_is_quiet() {
    let (out, cwd) = sweep("ring-fits", &[]);
    assert_eq!(dropped_in_sidecar(&cwd), 0);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("warning:"), "stderr: {stderr}");
}
