//! Extension: five-way scheduler comparison (RTS, TFA, TFA+Backoff, and
//! §V's related-work schedulers ATS and Bi-interval) on three benchmarks.

use dstm_bench::settings;
use dstm_benchmarks::Benchmark;
use dstm_harness::experiments::ext_schedulers;

fn main() {
    let settings = settings();
    let scale = &settings.scale;
    let t0 = std::time::Instant::now();
    let rows = ext_schedulers::run(
        scale,
        &[Benchmark::Bank, Benchmark::Vacation, Benchmark::Dht],
        settings.workers,
    );
    let mut out = ext_schedulers::render(&rows);
    out.push_str(&format!("\n[{} s]\n", t0.elapsed().as_secs()));
    settings.emit("ext_schedulers", &out);
}
