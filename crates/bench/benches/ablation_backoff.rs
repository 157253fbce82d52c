//! Ablation: RTS queue-deadline slack and the TFA+Backoff base backoff
//! (design choices the paper leaves implicit; see DESIGN.md AB2).

use dstm_bench::settings;
use dstm_harness::experiments::backoff;

fn main() {
    let settings = settings();
    let scale = &settings.scale;
    let t0 = std::time::Instant::now();
    let a = backoff::run(scale, settings.workers);
    let mut out = backoff::render(&a);
    out.push_str(&format!("\n[{} s]\n", t0.elapsed().as_secs()));
    settings.emit("ablation_backoff", &out);
}
