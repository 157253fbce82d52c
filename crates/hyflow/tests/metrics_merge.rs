//! Property tests for metrics aggregation: merging per-node metrics must
//! be a plain sum for every counter (each `AbortCause` and
//! `NestedAbortCause` independently), and histogram merging must be
//! order-independent — the guarantees the trace audits lean on when they
//! cross-check span-derived numbers against counters.

use dstm_sim::Histogram;
use hyflow_dstm::{AbortCause, NestedAbortCause, NodeMetrics};
use proptest::collection::vec;
use proptest::prelude::*;

/// Build one node's metrics from a compact seed vector: four abort-cause
/// counts, two nested-cause counts, commits/nested commits, and a few
/// histogram samples.
fn node_from_seed(seed: &[u64]) -> NodeMetrics {
    let mut m = NodeMetrics::default();
    for (i, cause) in AbortCause::ALL.into_iter().enumerate() {
        for _ in 0..seed[i] % 7 {
            m.record_abort(cause);
        }
    }
    m.record_nested_aborts(NestedAbortCause::Own, seed[4] % 11);
    m.record_nested_aborts(NestedAbortCause::ParentAbort, seed[5] % 11);
    m.commits = seed[6] % 100;
    m.nested_commits = seed[7] % 100;
    m.enqueued = seed[8] % 50;
    m.queue_served = seed[9] % 50;
    for &s in &seed[10..] {
        m.commit_latency_hist.record(s);
        m.queue_wait_hist.record(s / 2);
        m.fetch_rtt_hist.record(s / 3);
        m.retries_per_commit.record(s % 16);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn merged_metrics_equal_sum_of_per_node_counters(
        seeds in vec(vec(0u64..1_000_000_000, 16..17), 1..8),
    ) {
        let nodes: Vec<NodeMetrics> = seeds.iter().map(|s| node_from_seed(s)).collect();
        let mut merged = NodeMetrics::default();
        for n in &nodes {
            merged.merge(n);
        }

        // Every AbortCause tallies independently.
        let sum_by_cause = |f: fn(&NodeMetrics) -> u64| nodes.iter().map(f).sum::<u64>();
        prop_assert_eq!(
            merged.aborts_forward_validation,
            sum_by_cause(|n| n.aborts_forward_validation)
        );
        prop_assert_eq!(
            merged.aborts_commit_validation,
            sum_by_cause(|n| n.aborts_commit_validation)
        );
        prop_assert_eq!(merged.aborts_scheduler, sum_by_cause(|n| n.aborts_scheduler));
        prop_assert_eq!(
            merged.aborts_queue_timeout,
            sum_by_cause(|n| n.aborts_queue_timeout)
        );
        prop_assert_eq!(merged.total_aborts(), sum_by_cause(|n| n.total_aborts()));

        // Both NestedAbortCause legs (the Table-I split).
        prop_assert_eq!(merged.nested_aborts_own, sum_by_cause(|n| n.nested_aborts_own));
        prop_assert_eq!(
            merged.nested_aborts_parent,
            sum_by_cause(|n| n.nested_aborts_parent)
        );

        // Remaining scalar counters.
        prop_assert_eq!(merged.commits, sum_by_cause(|n| n.commits));
        prop_assert_eq!(merged.nested_commits, sum_by_cause(|n| n.nested_commits));
        prop_assert_eq!(merged.enqueued, sum_by_cause(|n| n.enqueued));
        prop_assert_eq!(merged.queue_served, sum_by_cause(|n| n.queue_served));

        // Histogram counts and means survive the merge.
        prop_assert_eq!(
            merged.commit_latency_hist.count(),
            sum_by_cause(|n| n.commit_latency_hist.count())
        );
        prop_assert_eq!(
            merged.retries_per_commit.count(),
            sum_by_cause(|n| n.retries_per_commit.count())
        );
    }

    #[test]
    fn histogram_merge_is_order_independent(
        samples_a in vec(0u64..u64::MAX / 2, 0..40),
        samples_b in vec(0u64..u64::MAX / 2, 0..40),
        samples_c in vec(0u64..u64::MAX / 2, 0..40),
    ) {
        let mk = |samples: &[u64]| {
            let mut h = Histogram::default();
            for &s in samples {
                h.record(s);
            }
            h
        };
        let (a, b, c) = (mk(&samples_a), mk(&samples_b), mk(&samples_c));

        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // c + (b + a)
        let mut right = c.clone();
        right.merge(&b);
        right.merge(&a);
        prop_assert_eq!(&left, &right);

        // Merging also equals recording the concatenated stream directly.
        let mut all: Vec<u64> = samples_a.clone();
        all.extend_from_slice(&samples_b);
        all.extend_from_slice(&samples_c);
        let direct = mk(&all);
        prop_assert_eq!(&left, &direct);
        for q in [0.5, 0.95, 0.99] {
            prop_assert_eq!(left.quantile_upper_bound(q), direct.quantile_upper_bound(q));
        }
    }

    #[test]
    fn node_metrics_merge_is_order_independent(
        seeds in vec(vec(0u64..1_000_000_000, 16..17), 2..6),
    ) {
        let nodes: Vec<NodeMetrics> = seeds.iter().map(|s| node_from_seed(s)).collect();
        let mut fwd = NodeMetrics::default();
        for n in nodes.iter() {
            fwd.merge(n);
        }
        let mut rev = NodeMetrics::default();
        for n in nodes.iter().rev() {
            rev.merge(n);
        }
        prop_assert_eq!(fwd.total_aborts(), rev.total_aborts());
        prop_assert_eq!(fwd.total_nested_aborts(), rev.total_nested_aborts());
        prop_assert_eq!(&fwd.commit_latency_hist, &rev.commit_latency_hist);
        prop_assert_eq!(&fwd.queue_wait_hist, &rev.queue_wait_hist);
        prop_assert_eq!(&fwd.fetch_rtt_hist, &rev.fetch_rtt_hist);
        prop_assert_eq!(&fwd.retries_per_commit, &rev.retries_per_commit);
    }
}
