//! The benchmark suite: one enum to dispatch the six applications, in the
//! order the paper's tables and figures list them.

use crate::params::WorkloadParams;
use hyflow_dstm::WorkloadSource;

/// The six applications of §IV-A.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Benchmark {
    Vacation,
    Bank,
    LinkedList,
    RbTree,
    Bst,
    Dht,
}

impl Benchmark {
    /// Paper order (Table I / Fig. 6 rows).
    pub const ALL: [Benchmark; 6] = [
        Benchmark::Vacation,
        Benchmark::Bank,
        Benchmark::LinkedList,
        Benchmark::RbTree,
        Benchmark::Bst,
        Benchmark::Dht,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Benchmark::Vacation => "Vacation",
            Benchmark::Bank => "Bank",
            Benchmark::LinkedList => "Linked List",
            Benchmark::RbTree => "RB Tree",
            Benchmark::Bst => "BST",
            Benchmark::Dht => "DHT",
        }
    }

    /// Generate the workload for this benchmark.
    pub fn generate(self, p: &WorkloadParams) -> WorkloadSource {
        match self {
            Benchmark::Vacation => crate::vacation::generate(p),
            Benchmark::Bank => crate::bank::generate(p),
            Benchmark::LinkedList => crate::list::generate(p),
            Benchmark::RbTree => crate::rbtree::generate(p),
            Benchmark::Bst => crate::bst::generate(p),
            Benchmark::Dht => crate::dht::generate(p),
        }
    }

    /// The RTS tuning `(CL threshold, queue-deadline slack %)` of each
    /// benchmark, fixed per benchmark as in the paper's procedure: *"At a
    /// certain point of the CL's threshold, we observe a peak point of
    /// transactional throughput. Thus ... the CL's threshold corresponding
    /// to the peak point is determined"* (§IV-A). Transactions in the
    /// traversal benchmarks hold many objects, so their carried `myCL` is
    /// intrinsically large and the threshold is set very high.
    ///
    /// The committed `ablation_cl_threshold` and `ablation_backoff` tables
    /// rerun that search with one seed per cell, and do not all peak here:
    /// Bank peaks at threshold 16 but at slack 100 %, DHT and Vacation at
    /// threshold 4. Differences that size are inside seed noise.
    pub fn rts_tuning(self) -> (u32, u64) {
        match self {
            Benchmark::Vacation => (32, 300),
            Benchmark::Bank => (16, 150),
            Benchmark::LinkedList => (1_000_000, 1200),
            Benchmark::RbTree => (1_000_000, 1200),
            Benchmark::Bst => (1_000_000, 150),
            Benchmark::Dht => (16, 150),
        }
    }

    /// Parse a CLI-ish name.
    pub fn from_name(name: &str) -> Option<Benchmark> {
        match name.to_ascii_lowercase().as_str() {
            "vacation" => Some(Benchmark::Vacation),
            "bank" => Some(Benchmark::Bank),
            "ll" | "list" | "linked-list" | "linkedlist" => Some(Benchmark::LinkedList),
            "rb" | "rbtree" | "rb-tree" => Some(Benchmark::RbTree),
            "bst" => Some(Benchmark::Bst),
            "dht" => Some(Benchmark::Dht),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_generate() {
        let p = WorkloadParams {
            nodes: 3,
            txns_per_node: 5,
            ..WorkloadParams::default()
        };
        for b in Benchmark::ALL {
            let w = b.generate(&p);
            assert_eq!(w.programs.len(), 3, "{}", b.label());
            assert!(!w.objects.is_empty(), "{}", b.label());
            // Object ids unique within a workload.
            let mut seen = std::collections::HashSet::new();
            for (oid, _) in &w.objects {
                assert!(seen.insert(*oid), "{}: duplicate {oid:?}", b.label());
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for b in Benchmark::ALL {
            assert_eq!(
                Benchmark::from_name(b.label().replace(' ', "-").as_str())
                    .or_else(|| Benchmark::from_name(b.label().replace(' ', "").as_str())),
                Some(b)
            );
        }
        assert_eq!(Benchmark::from_name("nope"), None);
    }
}
