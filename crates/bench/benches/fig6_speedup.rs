//! Regenerates **Figure 6** — summary of RTS's throughput speedup over TFA
//! and TFA+Backoff at low and high contention (re-running Figs. 4 and 5
//! and summarizing, as the paper does).

use dstm_bench::settings;
use dstm_harness::experiments::speedup;

fn main() {
    let settings = settings();
    let scale = &settings.scale;
    let t0 = std::time::Instant::now();
    let (_, _, summary) = speedup::run(scale, settings.workers);
    let mut out = String::from("Figure 6 — Summary of Throughput Speedup (RTS / competitor)\n\n");
    out.push_str(&summary.render());
    out.push_str(&format!(
        "\nspeedup range: {:.2}x – {:.2}x (paper: up to 1.53x low / 1.88x high)\n[{} s]\n",
        summary.min_speedup(),
        summary.max_speedup(),
        t0.elapsed().as_secs()
    ));
    settings.emit("fig6_speedup", &out);
}
