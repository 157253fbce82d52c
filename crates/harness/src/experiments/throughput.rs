//! Figures 4 and 5 — transactional throughput vs node count.
//!
//! One sub-figure per benchmark; three series (RTS, TFA, TFA+Backoff);
//! x-axis 10..80 nodes. Fig. 4 is low contention (90% reads), Fig. 5 high
//! contention (10% reads). The paper's qualitative claims, which the bench
//! checks: RTS dominates both baselines on every benchmark, TFA generally
//! beats TFA+Backoff, high contention lowers absolute throughput but
//! *increases* RTS's relative advantage, and the short-transaction
//! microbenchmarks out-throughput Vacation/Bank.

use super::{Scale, SCHEDULERS};
use crate::runner::{run_cells, Cell, CellResult};
use crate::table::SeriesTable;
use dstm_benchmarks::Benchmark;

/// All sub-figures of one contention level.
#[derive(Clone, Debug)]
pub struct ThroughputFigure {
    pub read_ratio: f64,
    pub figures: Vec<(Benchmark, SeriesTable)>,
    pub raw: Vec<CellResult>,
}

impl ThroughputFigure {
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (_, fig) in &self.figures {
            out.push_str(&fig.render());
            out.push('\n');
        }
        out
    }

    /// Throughput series of one benchmark × scheduler.
    pub fn series(&self, b: Benchmark, scheduler_label: &str) -> Vec<f64> {
        self.figures
            .iter()
            .find(|(fb, _)| *fb == b)
            .map(|(_, fig)| fig.series(scheduler_label))
            .unwrap_or_default()
    }

    /// Mean throughput of one benchmark × scheduler across node counts.
    pub fn mean(&self, b: Benchmark, scheduler_label: &str) -> f64 {
        let s = self.series(b, scheduler_label);
        if s.is_empty() {
            0.0
        } else {
            s.iter().sum::<f64>() / s.len() as f64
        }
    }
}

/// Run one contention level (0.9 → Fig. 4, 0.1 → Fig. 5).
pub fn run(scale: &Scale, read_ratio: f64, workers: Option<usize>) -> ThroughputFigure {
    let mut cells = Vec::new();
    for &b in &Benchmark::ALL {
        for &nodes in &scale.node_counts {
            for s in SCHEDULERS {
                cells.push(Cell::new(b, s, nodes, read_ratio).with_txns(scale.txns_per_node));
            }
        }
    }
    let results = run_cells(cells, workers);

    let contention = if read_ratio >= 0.5 { "Low" } else { "High" };
    let mut points = results.chunks_exact(SCHEDULERS.len());
    let mut figures = Vec::new();
    for &b in &Benchmark::ALL {
        let mut fig = SeriesTable::new(
            format!("{} in {} Contention (txns/s)", b.label(), contention),
            "nodes".to_string(),
            SCHEDULERS.iter().map(|s| s.label().to_string()).collect(),
        );
        for (&nodes, cells) in scale.node_counts.iter().zip(&mut points) {
            fig.point(
                nodes as u64,
                cells.iter().map(CellResult::throughput).collect(),
            );
        }
        figures.push((b, fig));
    }
    ThroughputFigure {
        read_ratio,
        figures,
        raw: results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_figure_structure() {
        let f = run(&Scale::smoke(), 0.9, Some(1));
        assert_eq!(f.figures.len(), 6);
        for (b, fig) in &f.figures {
            assert_eq!(fig.points.len(), 2, "{}", b.label());
            for (_, ys) in &fig.points {
                assert!(ys.iter().all(|y| *y > 0.0), "{} zero throughput", b.label());
            }
        }
        // Every cell must have completed its whole workload.
        assert!(f.raw.iter().all(|r| r.completed), "some cells stalled");
        let rendered = f.render();
        assert!(rendered.contains("Low Contention"));
    }
}
