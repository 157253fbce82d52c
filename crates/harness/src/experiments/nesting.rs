//! Nesting-model ablation: closed vs flat nesting (§I's motivation).
//!
//! *"Flat nesting results in large monolithic transactions, which limits
//! concurrency: when a large monolithic transaction is aborted, all nested
//! transactions are also aborted and rolled back, even if they don't
//! conflict with the outer transaction."* Closed nesting lets a child
//! abort and replay alone. This sweep measures the throughput cost of
//! flattening under each scheduler.

use super::Scale;
use crate::runner::{run_cells, Cell};
use crate::table::TextTable;
use dstm_benchmarks::Benchmark;
use hyflow_dstm::NestingMode;
use rts_core::SchedulerKind;

/// One (benchmark, scheduler) comparison.
#[derive(Clone, Debug)]
pub struct NestingRow {
    pub benchmark: Benchmark,
    pub scheduler: SchedulerKind,
    pub closed_tput: f64,
    pub flat_tput: f64,
}

impl NestingRow {
    /// Throughput advantage of closed over flat nesting.
    pub fn closed_advantage(&self) -> f64 {
        if self.flat_tput <= 0.0 {
            0.0
        } else {
            self.closed_tput / self.flat_tput
        }
    }
}

/// The schedulers each nesting model runs under.
const COMPARED: [SchedulerKind; 2] = [SchedulerKind::Rts, SchedulerKind::Tfa];

/// Compare nesting models at high contention.
pub fn run(scale: &Scale, benchmarks: &[Benchmark], workers: Option<usize>) -> Vec<NestingRow> {
    let nodes = *scale.node_counts.last().unwrap_or(&20).min(&20);
    let mut cells = Vec::new();
    for &b in benchmarks {
        for s in COMPARED {
            for mode in [NestingMode::Closed, NestingMode::Flat] {
                let mut c = Cell::new(b, s, nodes, 0.1).with_txns(scale.txns_per_node);
                c.dstm.nesting = mode;
                cells.push(c);
            }
        }
    }
    let results = run_cells(cells, workers);
    let keys = benchmarks.iter().flat_map(|&b| COMPARED.map(|s| (b, s)));
    keys.zip(results.chunks_exact(2))
        .map(|((benchmark, scheduler), pair)| NestingRow {
            benchmark,
            scheduler,
            closed_tput: pair[0].throughput(),
            flat_tput: pair[1].throughput(),
        })
        .collect()
}

pub fn render(rows: &[NestingRow]) -> String {
    let mut t = TextTable::new(vec![
        "Benchmark",
        "Scheduler",
        "Closed (tx/s)",
        "Flat (tx/s)",
        "Closed advantage",
    ]);
    for r in rows {
        t.row(vec![
            r.benchmark.label().to_string(),
            r.scheduler.label().to_string(),
            format!("{:.2}", r.closed_tput),
            format!("{:.2}", r.flat_tput),
            format!("{:.2}x", r.closed_advantage()),
        ]);
    }
    format!(
        "Nesting-model ablation (high contention): closed vs flat nesting\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_nesting_ablation() {
        let rows = run(&Scale::smoke(), &[Benchmark::Bank], Some(1));
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.closed_tput > 0.0 && r.flat_tput > 0.0);
        }
        assert!(render(&rows).contains("Closed advantage"));
    }
}
