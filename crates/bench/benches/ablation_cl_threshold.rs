//! Ablation: sweep the CL threshold and locate the throughput peak — the
//! paper's §IV-A procedure ("at a certain point of the CL's threshold, we
//! observe a peak point of transactional throughput"). Also compares the
//! adaptive hill-climbing controller.

use dstm_bench::settings;
use dstm_benchmarks::Benchmark;
use dstm_harness::experiments::threshold;

fn main() {
    let settings = settings();
    let scale = &settings.scale;
    let t0 = std::time::Instant::now();
    let sweeps = threshold::run(
        scale,
        &[Benchmark::Bank, Benchmark::Dht, Benchmark::Vacation],
        &[2, 4, 8, 16, 32, 64, 128],
        settings.workers,
    );
    let mut out = threshold::render(&sweeps);
    out.push_str(&format!("\n[{} s]\n", t0.elapsed().as_secs()));
    settings.emit("ablation_cl_threshold", &out);
}
