//! Figure 6 — summary of throughput speedup.
//!
//! *"We computed the throughput speedup of RTS over TFA and TFA+Backoff —
//! i.e., the ratio of RTS's throughput to that of the respective
//! competitors. ... RTS improves throughput over D-STM without RTS by as
//! much as 1.53× ∼ 1.88× speedup in low and high contention,
//! respectively."* One bar group per benchmark; four bars: TFA(Low),
//! TFA+Backoff(Low), TFA(High), TFA+Backoff(High).

use super::throughput::ThroughputFigure;
use crate::table::TextTable;
use dstm_benchmarks::Benchmark;

/// Speedups of RTS over a competitor, per benchmark.
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    pub benchmark: Benchmark,
    pub vs_tfa_low: f64,
    pub vs_backoff_low: f64,
    pub vs_tfa_high: f64,
    pub vs_backoff_high: f64,
}

#[derive(Clone, Debug)]
pub struct SpeedupSummary {
    pub rows: Vec<SpeedupRow>,
}

impl SpeedupSummary {
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Benchmark",
            "TFA(Low)",
            "TFA+Backoff(Low)",
            "TFA(High)",
            "TFA+Backoff(High)",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.benchmark.label().to_string(),
                format!("{:.2}x", r.vs_tfa_low),
                format!("{:.2}x", r.vs_backoff_low),
                format!("{:.2}x", r.vs_tfa_high),
                format!("{:.2}x", r.vs_backoff_high),
            ]);
        }
        t.render()
    }

    /// Every speedup of every row.
    fn speedups(&self) -> impl Iterator<Item = f64> + '_ {
        self.rows.iter().flat_map(|r| {
            [
                r.vs_tfa_low,
                r.vs_backoff_low,
                r.vs_tfa_high,
                r.vs_backoff_high,
            ]
        })
    }

    /// Max speedup over any competitor/contention (the paper's headline
    /// 1.53–1.88×).
    pub fn max_speedup(&self) -> f64 {
        self.speedups().fold(0.0, f64::max)
    }

    pub fn min_speedup(&self) -> f64 {
        self.speedups().fold(f64::INFINITY, f64::min)
    }
}

/// Derive Fig. 6 from the two throughput figures (it is a summary of
/// Figs. 4–5, so reuse their runs rather than re-simulating).
pub fn from_throughput(low: &ThroughputFigure, high: &ThroughputFigure) -> SpeedupSummary {
    let ratio = |fig: &ThroughputFigure, b: Benchmark, denom_label: &str| -> f64 {
        let num = fig.mean(b, "RTS");
        let den = fig.mean(b, denom_label);
        if den <= 0.0 {
            0.0
        } else {
            num / den
        }
    };
    let rows = Benchmark::ALL
        .iter()
        .map(|&b| SpeedupRow {
            benchmark: b,
            vs_tfa_low: ratio(low, b, "TFA"),
            vs_backoff_low: ratio(low, b, "TFA+Backoff"),
            vs_tfa_high: ratio(high, b, "TFA"),
            vs_backoff_high: ratio(high, b, "TFA+Backoff"),
        })
        .collect();
    SpeedupSummary { rows }
}

#[cfg(test)]
mod tests {
    use super::super::{throughput, Scale};
    use super::*;

    #[test]
    fn smoke_summary() {
        let low = throughput::run(&Scale::smoke(), 0.9, Some(1));
        let high = throughput::run(&Scale::smoke(), 0.1, Some(1));
        let s = from_throughput(&low, &high);
        assert_eq!(s.rows.len(), 6);
        assert!(s.max_speedup() > 0.0);
        assert!(s.min_speedup() > 0.0);
        let rendered = s.render();
        assert!(rendered.contains("TFA+Backoff(High)"));
    }
}
