//! CL-threshold ablation (§III-B / §IV-A).
//!
//! *"Under long execution time and large CL's threshold, Vacation and Bank
//! benchmarks suffer from high contention ... under long execution time and
//! short CL's threshold, the aborts of parent transactions increase. At a
//! certain point of the CL's threshold, we observe a peak point of
//! transactional throughput. Thus, in this experiment, the CL's threshold
//! corresponding to the peak point is determined."*
//!
//! This sweep regenerates that peak-finding procedure, and additionally
//! compares the fixed peak against the adaptive (hill-climbing) controller.

use super::Scale;
use crate::runner::{run_cells, Cell};
use crate::table::TextTable;
use dstm_benchmarks::Benchmark;
use rts_core::SchedulerKind;

/// Result of a threshold sweep for one benchmark.
#[derive(Clone, Debug)]
pub struct ThresholdSweep {
    pub benchmark: Benchmark,
    /// (threshold, throughput)
    pub points: Vec<(u32, f64)>,
    /// Throughput with the adaptive controller.
    pub adaptive: f64,
}

impl ThresholdSweep {
    /// The threshold at peak throughput.
    pub fn peak(&self) -> (u32, f64) {
        let better = |best: (u32, f64), p: (u32, f64)| if p.1 > best.1 { p } else { best };
        self.points
            .iter()
            .copied()
            .fold((0, f64::NEG_INFINITY), better)
    }
}

/// Sweep thresholds for the given benchmarks at high contention.
pub fn run(
    scale: &Scale,
    benchmarks: &[Benchmark],
    thresholds: &[u32],
    workers: Option<usize>,
) -> Vec<ThresholdSweep> {
    let nodes = *scale.node_counts.last().unwrap_or(&20).min(&20);
    let mut cells = Vec::new();
    for &b in benchmarks {
        for &t in thresholds {
            cells.push(
                Cell::new(b, SchedulerKind::Rts, nodes, 0.1)
                    .with_txns(scale.txns_per_node)
                    .with_threshold(t),
            );
        }
        // One adaptive cell per benchmark.
        let mut adaptive =
            Cell::new(b, SchedulerKind::Rts, nodes, 0.1).with_txns(scale.txns_per_node);
        adaptive.dstm.adaptive_threshold = true;
        cells.push(adaptive);
    }
    let results = run_cells(cells, workers);
    let per_benchmark = results.chunks_exact(thresholds.len() + 1);
    benchmarks
        .iter()
        .zip(per_benchmark)
        .map(|(&benchmark, r)| ThresholdSweep {
            benchmark,
            points: thresholds
                .iter()
                .zip(r)
                .map(|(&t, r)| (t, r.throughput()))
                .collect(),
            adaptive: r[thresholds.len()].throughput(),
        })
        .collect()
}

/// Render the sweeps side by side.
pub fn render(sweeps: &[ThresholdSweep]) -> String {
    let mut out = String::new();
    for s in sweeps {
        let mut t = TextTable::new(vec!["CL threshold", "throughput (txns/s)"]);
        for (th, y) in &s.points {
            t.row(vec![th.to_string(), format!("{y:.2}")]);
        }
        t.row(vec!["adaptive".to_string(), format!("{:.2}", s.adaptive)]);
        let (peak_t, peak_y) = s.peak();
        out.push_str(&format!(
            "{} (high contention) — peak at threshold {} ({:.2} txns/s)\n{}\n",
            s.benchmark.label(),
            peak_t,
            peak_y,
            t.render()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep() {
        let sweeps = run(&Scale::smoke(), &[Benchmark::Bank], &[1, 4], Some(1));
        assert_eq!(sweeps.len(), 1);
        assert_eq!(sweeps[0].points.len(), 2);
        assert!(sweeps[0].points.iter().all(|(_, y)| *y > 0.0));
        assert!(sweeps[0].adaptive > 0.0);
        let (peak, _) = sweeps[0].peak();
        assert!(peak == 1 || peak == 4);
        assert!(render(&sweeps).contains("peak at threshold"));
    }
}
