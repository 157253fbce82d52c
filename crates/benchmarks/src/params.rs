//! Workload parameters shared by all six benchmarks.

use dstm_sim::{SimDuration, SimRng};

/// Knobs of a benchmark workload (§IV-A defaults).
#[derive(Clone, Debug)]
pub struct WorkloadParams {
    /// Number of nodes (the x-axis of Figs. 4–5: 10..80).
    pub nodes: usize,
    /// Shared objects per node ("five to ten").
    pub objects_per_node: usize,
    /// Fraction of read-only parent transactions: 0.9 = low contention,
    /// 0.1 = high contention.
    pub read_ratio: f64,
    /// Top-level transactions issued per node.
    pub txns_per_node: usize,
    /// Each parent runs `1..=max_nested_ops` closed-nested children.
    pub max_nested_ops: usize,
    /// Local computation per child operation (the analysis' γ).
    pub compute: SimDuration,
    /// Workload-generation seed (independent from the simulation seed).
    pub seed: u64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            nodes: 10,
            objects_per_node: 8,
            read_ratio: 0.9,
            txns_per_node: 30,
            max_nested_ops: 3,
            compute: SimDuration::from_micros(500),
            seed: 0xBEEF,
        }
    }
}

impl WorkloadParams {
    /// Total shared objects in the system.
    pub fn total_objects(&self) -> usize {
        self.nodes * self.objects_per_node
    }

    /// RNG for workload generation, split per node so per-node streams are
    /// stable under changes elsewhere.
    pub fn node_rng(&self, node: usize) -> SimRng {
        SimRng::new(self.seed).split(node as u64)
    }

    /// Sample the number of nested children for one parent.
    pub fn sample_nested_ops(&self, rng: &mut SimRng) -> usize {
        rng.range_inclusive(1, self.max_nested_ops.max(1) as u64) as usize
    }

    /// Sample whether a parent transaction is read-only.
    pub fn sample_read_only(&self, rng: &mut SimRng) -> bool {
        rng.chance(self.read_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_objects_counts_every_node() {
        let p = WorkloadParams {
            nodes: 40,
            ..WorkloadParams::default()
        };
        assert_eq!(p.total_objects(), 40 * 8);
    }

    #[test]
    fn per_node_rngs_are_stable_and_distinct() {
        let p = WorkloadParams::default();
        let mut a1 = p.node_rng(0);
        let mut a2 = p.node_rng(0);
        let mut b = p.node_rng(1);
        assert_eq!(a1.next(), a2.next());
        let mut a3 = p.node_rng(0);
        a3.next();
        assert_ne!(a3.next(), b.next());
    }

    #[test]
    fn nested_ops_in_range() {
        let p = WorkloadParams::default();
        let mut rng = p.node_rng(3);
        for _ in 0..1000 {
            let k = p.sample_nested_ops(&mut rng);
            assert!((1..=p.max_nested_ops).contains(&k));
        }
    }

    #[test]
    fn read_ratio_respected() {
        let p = WorkloadParams {
            read_ratio: 0.9,
            ..WorkloadParams::default()
        };
        let mut rng = p.node_rng(0);
        let reads = (0..10_000).filter(|_| p.sample_read_only(&mut rng)).count();
        assert!((8_700..9_300).contains(&reads), "reads = {reads}");
    }
}
