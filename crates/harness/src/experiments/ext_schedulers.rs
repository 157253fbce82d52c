//! Extension comparison: RTS against the related-work schedulers of §V
//! (ATS-style adaptive scheduling, Bi-interval-style queue-everything) on
//! top of the paper's three evaluated systems.

use super::Scale;
use crate::runner::{run_cells, Cell, CellResult};
use crate::table::TextTable;
use dstm_benchmarks::Benchmark;
use rts_core::SchedulerKind;

pub const EXT_SCHEDULERS: [SchedulerKind; 5] = [
    SchedulerKind::Rts,
    SchedulerKind::Tfa,
    SchedulerKind::TfaBackoff,
    SchedulerKind::Ats,
    SchedulerKind::BiInterval,
];

/// Throughput of every scheduler on one benchmark/contention.
#[derive(Clone, Debug)]
pub struct ExtRow {
    pub benchmark: Benchmark,
    pub read_ratio: f64,
    /// Parallel to [`EXT_SCHEDULERS`].
    pub throughput: Vec<f64>,
}

/// Run the five-way comparison.
pub fn run(scale: &Scale, benchmarks: &[Benchmark], workers: Option<usize>) -> Vec<ExtRow> {
    let nodes = *scale.node_counts.last().unwrap_or(&20).min(&20);
    let mut cells = Vec::new();
    for &b in benchmarks {
        for read_ratio in [0.9, 0.1] {
            for s in EXT_SCHEDULERS {
                cells.push(Cell::new(b, s, nodes, read_ratio).with_txns(scale.txns_per_node));
            }
        }
    }
    let results = run_cells(cells, workers);
    let keys = benchmarks.iter().flat_map(|&b| [(b, 0.9), (b, 0.1)]);
    keys.zip(results.chunks_exact(EXT_SCHEDULERS.len()))
        .map(|((benchmark, read_ratio), cells)| ExtRow {
            benchmark,
            read_ratio,
            throughput: cells.iter().map(CellResult::throughput).collect(),
        })
        .collect()
}

pub fn render(rows: &[ExtRow]) -> String {
    let mut header = vec!["Benchmark".to_string(), "Contention".to_string()];
    header.extend(EXT_SCHEDULERS.iter().map(|s| s.label().to_string()));
    let mut t = TextTable::new(header);
    for r in rows {
        let mut row = vec![
            r.benchmark.label().to_string(),
            if r.read_ratio > 0.5 { "low" } else { "high" }.to_string(),
        ];
        row.extend(r.throughput.iter().map(|y| format!("{y:.2}")));
        t.row(row);
    }
    format!(
        "Extension comparison — throughput (txns/s) of RTS vs the §V related-work schedulers\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_way_comparison_runs() {
        let rows = run(&Scale::smoke(), &[Benchmark::Dht], Some(1));
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.throughput.len(), 5);
            assert!(r.throughput.iter().all(|y| *y > 0.0), "{r:?}");
        }
        assert!(render(&rows).contains("Bi-interval"));
    }
}
