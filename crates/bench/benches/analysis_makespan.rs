//! Regenerates the **§III-D analysis**: Lemma 3.2/3.3 makespan bounds,
//! Theorem 3.4's RCR, and the measured worst-case makespans (N
//! transactions, one object) under TFA and RTS.

use dstm_bench::settings;
use dstm_harness::experiments::analysis;

fn main() {
    let settings = settings();
    let counts: Vec<usize> = settings.scale.node_counts.clone();
    let t0 = std::time::Instant::now();
    let rows = analysis::run(&counts);
    let mut out = analysis::render(&rows);
    out.push_str(&format!("\n[{} s]\n", t0.elapsed().as_secs()));
    settings.emit("analysis_makespan", &out);
}
