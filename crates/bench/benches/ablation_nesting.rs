//! Ablation: closed vs flat nesting — §I's motivating claim that flat
//! nesting's monolithic rollbacks hurt, quantified on this substrate.

use dstm_bench::settings;
use dstm_benchmarks::Benchmark;
use dstm_harness::experiments::nesting;

fn main() {
    let settings = settings();
    let scale = &settings.scale;
    let t0 = std::time::Instant::now();
    let rows = nesting::run(
        scale,
        &[Benchmark::Bank, Benchmark::Vacation, Benchmark::Dht],
        settings.workers,
    );
    let mut out = nesting::render(&rows);
    out.push_str(&format!("\n[{} s]\n", t0.elapsed().as_secs()));
    settings.emit("ablation_nesting", &out);
}
