//! Regenerates **Figure 5** — transactional throughput vs node count at
//! high contention (10% read transactions).

use dstm_bench::settings;
use dstm_harness::experiments::throughput;

fn main() {
    let settings = settings();
    let scale = &settings.scale;
    let t0 = std::time::Instant::now();
    let fig = throughput::run(scale, 0.1, settings.workers);
    let mut out =
        String::from("Figure 5 — Transactional throughput on HIGH contention (10% reads)\n\n");
    out.push_str(&fig.render());
    let incomplete = fig.raw.iter().filter(|r| !r.completed).count();
    out.push_str(&format!(
        "cells: {} ({} incomplete)\n[{} s]\n",
        fig.raw.len(),
        incomplete,
        t0.elapsed().as_secs()
    ));
    settings.emit("fig5_throughput_high", &out);
}
