//! Regenerates **Figure 4** — transactional throughput vs node count at
//! low contention (90% read transactions), six benchmarks × three
//! schedulers.

use dstm_bench::settings;
use dstm_harness::experiments::throughput;

fn main() {
    let settings = settings();
    let scale = &settings.scale;
    let t0 = std::time::Instant::now();
    let fig = throughput::run(scale, 0.9, settings.workers);
    let mut out =
        String::from("Figure 4 — Transactional throughput on LOW contention (90% reads)\n\n");
    out.push_str(&fig.render());
    let incomplete = fig.raw.iter().filter(|r| !r.completed).count();
    out.push_str(&format!(
        "cells: {} ({} incomplete)\n[{} s]\n",
        fig.raw.len(),
        incomplete,
        t0.elapsed().as_secs()
    ));
    settings.emit("fig4_throughput_low", &out);
}
