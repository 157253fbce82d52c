//! One module per regenerated paper artifact. Every module exposes a
//! `run(...) -> ...` entry returning both structured results (asserted on by
//! tests and benches) and a rendered table matching the paper's layout.

pub mod analysis;
pub mod backoff;
pub mod nesting;
pub mod scenarios;
pub mod speedup;
pub mod table1;
pub mod threshold;
pub mod throughput;

use rts_core::SchedulerKind;

/// The three schedulers compared throughout §IV.
pub const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Rts,
    SchedulerKind::Tfa,
    SchedulerKind::TfaBackoff,
];

/// Shared sizing knobs for the figure/table regenerations. The paper's
/// full scale (80 nodes, 10 000 transactions) takes a while in one process;
/// the defaults reproduce the *shape* quickly, and benches can scale up.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Node counts for the x-axes of Figs. 4–5.
    pub node_counts: Vec<usize>,
    /// Node count for Table I (paper: 80).
    pub table1_nodes: usize,
    /// Transactions per node per cell.
    pub txns_per_node: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            node_counts: vec![10, 20, 40, 60, 80],
            table1_nodes: 80,
            txns_per_node: 15,
        }
    }
}

impl Scale {
    /// A configuration small enough for unit tests.
    pub fn smoke() -> Self {
        Scale {
            node_counts: vec![4, 8],
            table1_nodes: 8,
            txns_per_node: 6,
        }
    }

    /// A fast sanity-run configuration (a strict subset of the paper's
    /// node counts).
    pub fn quick() -> Self {
        Scale {
            node_counts: vec![10, 20, 40],
            table1_nodes: 20,
            txns_per_node: 10,
        }
    }
}
