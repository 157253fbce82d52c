//! # dstm-bench — regeneration targets for every table and figure
//!
//! Each `cargo bench -p dstm-bench --bench <target>` either runs Criterion
//! micro-benchmarks (`micro`) or regenerates one artifact of the paper's
//! evaluation (printing the table/series and writing it under
//! `paper_results/`). Set `DSTM_SCALE=quick` or `DSTM_SCALE=smoke` to run
//! reduced sweeps.

use std::io::Write as _;
use std::path::PathBuf;

/// Where regenerated artifacts are written: `paper_results/` at the
/// workspace root (override with `DSTM_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    let path = match std::env::var("DSTM_RESULTS_DIR") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("paper_results"),
    };
    let _ = std::fs::create_dir_all(&path);
    path
}

/// Print a regenerated artifact and persist it for EXPERIMENTS.md.
///
/// Every file gets a one-line provenance header recording the worker-pool
/// width that produced it, so numbers in `paper_results/` are attributable
/// to a host configuration. Simulated results are identical at any
/// `workers` setting — only wall clocks move.
pub fn emit(name: &str, contents: &str) {
    println!("{contents}");
    let path = results_dir().join(format!("{name}.txt"));
    let header = format!(
        "# workers={} (host-parallelism knob; simulated results are independent of it)\n",
        effective_workers()
    );
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let _ = f.write_all(header.as_bytes());
            let _ = f.write_all(contents.as_bytes());
            println!("[written to {}]", path.display());
        }
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Worker-thread budget for the sweeps (`DSTM_WORKERS` override).
pub fn workers() -> Option<usize> {
    std::env::var("DSTM_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
}

/// The worker-pool width the sweeps actually run with: `DSTM_WORKERS` if
/// set, else the parallelism the OS reports (the `run_cells` default).
pub fn effective_workers() -> usize {
    workers().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}
