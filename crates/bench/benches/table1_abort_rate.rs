//! Regenerates **Table I** — abort rate of nested transactions (RTS vs TFA
//! at low/high contention, all six benchmarks).

use dstm_bench::settings;
use dstm_harness::experiments::table1;

fn main() {
    let settings = settings();
    let scale = &settings.scale;
    let t0 = std::time::Instant::now();
    let table = table1::run(scale, settings.workers);
    let mut out = String::new();
    out.push_str(&format!(
        "Table I — Abort rate of nested transactions (nested aborts caused by a parent abort / all nested aborts)\n\
         {} nodes, {} txns/node, 1-50 ms delays\n\n",
        scale.table1_nodes, scale.txns_per_node
    ));
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nMean reduction of the rate under RTS vs TFA: {:.0}% (paper reports ≈60%)\n",
        100.0 * table.mean_reduction()
    ));
    out.push_str("\nPaper's Table I for comparison (Low RTS/TFA, High RTS/TFA):\n");
    for (i, (lr, lt, hr, ht)) in table1::PAPER_TABLE1.iter().enumerate() {
        out.push_str(&format!(
            "  {:<12} {lr:>5.1}% {lt:>5.1}%   {hr:>5.1}% {ht:>5.1}%\n",
            dstm_benchmarks::Benchmark::ALL[i].label()
        ));
    }
    out.push_str(&format!("\n[{} s]\n", t0.elapsed().as_secs()));
    settings.emit("table1_abort_rate", &out);
}
