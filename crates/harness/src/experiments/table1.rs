//! Table I — abort rate of nested transactions.
//!
//! *"Table I shows the abort rate of nested transactions (i.e., nested
//! transaction aborts due to parent transaction's abort / total nested
//! transaction aborts) under ten thousand transactions and 80 nodes."*
//! RTS vs TFA, at low (90% reads) and high (10% reads) contention, for all
//! six benchmarks. The paper's observation: *"Under RTS, the abort rate of
//! nested transactions decreases approximately 60%."*

use super::Scale;
use crate::runner::{run_cells, Cell};
use crate::table::TextTable;
use dstm_benchmarks::Benchmark;
use rts_core::SchedulerKind;

/// Paper-reported values (percent), for side-by-side comparison.
/// Rows follow `Benchmark::ALL`; columns: (low RTS, low TFA, high RTS, high TFA).
pub const PAPER_TABLE1: [(f64, f64, f64, f64); 6] = [
    (25.6, 55.5, 29.1, 67.5), // Vacation
    (21.5, 46.4, 23.3, 63.7), // Bank
    (14.4, 37.6, 17.9, 43.2), // Linked List
    (13.7, 32.2, 22.4, 45.1), // RB Tree
    (11.1, 29.4, 17.5, 37.4), // BST
    (12.8, 31.3, 19.9, 39.2), // DHT
];

/// One benchmark's measured row.
#[derive(Clone, Debug)]
pub struct Table1Row {
    pub benchmark: Benchmark,
    pub low_rts: f64,
    pub low_tfa: f64,
    pub high_rts: f64,
    pub high_tfa: f64,
}

/// Full Table I result.
#[derive(Clone, Debug)]
pub struct Table1 {
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Render in the paper's layout (percentages).
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Benchmark",
            "Low RTS",
            "Low TFA",
            "High RTS",
            "High TFA",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.benchmark.label().to_string(),
                format!("{:.1}%", 100.0 * r.low_rts),
                format!("{:.1}%", 100.0 * r.low_tfa),
                format!("{:.1}%", 100.0 * r.high_rts),
                format!("{:.1}%", 100.0 * r.high_tfa),
            ]);
        }
        t.render()
    }

    /// The paper's headline check: mean reduction of the nested-abort rate
    /// under RTS relative to TFA (paper: ≈60%).
    pub fn mean_reduction(&self) -> f64 {
        let mut acc = 0.0;
        let mut n = 0.0;
        for r in &self.rows {
            if r.low_tfa > 0.0 {
                acc += 1.0 - r.low_rts / r.low_tfa;
                n += 1.0;
            }
            if r.high_tfa > 0.0 {
                acc += 1.0 - r.high_rts / r.high_tfa;
                n += 1.0;
            }
        }
        if n == 0.0 {
            0.0
        } else {
            acc / n
        }
    }
}

/// Regenerate Table I at the given scale.
pub fn run(scale: &Scale, workers: Option<usize>) -> Table1 {
    let mut cells = Vec::new();
    for b in Benchmark::ALL {
        for read_ratio in [0.9, 0.1] {
            for s in [SchedulerKind::Rts, SchedulerKind::Tfa] {
                cells.push(
                    Cell::new(b, s, scale.table1_nodes, read_ratio).with_txns(scale.txns_per_node),
                );
            }
        }
    }
    let results = run_cells(cells, workers);
    let rows = Benchmark::ALL
        .iter()
        .zip(results.chunks_exact(4))
        .map(|(&benchmark, r)| Table1Row {
            benchmark,
            low_rts: r[0].nested_abort_rate(),
            low_tfa: r[1].nested_abort_rate(),
            high_rts: r[2].nested_abort_rate(),
            high_tfa: r[3].nested_abort_rate(),
        })
        .collect();
    Table1 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table_has_all_rows() {
        let t = run(&Scale::smoke(), Some(1));
        assert_eq!(t.rows.len(), 6);
        let rendered = t.render();
        for b in Benchmark::ALL {
            assert!(rendered.contains(b.label()));
        }
        for r in &t.rows {
            for v in [r.low_rts, r.low_tfa, r.high_rts, r.high_tfa] {
                assert!((0.0..=1.0).contains(&v), "rate {v} out of range");
            }
        }
    }

    #[test]
    fn paper_constants_shape() {
        // Sanity of the embedded paper numbers: RTS < TFA everywhere, and
        // high contention >= low contention per scheduler.
        for (lr, lt, hr, ht) in PAPER_TABLE1 {
            assert!(lr < lt && hr < ht);
            assert!(hr >= lr && ht >= lt - 0.1);
        }
    }
}
