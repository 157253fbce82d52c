//! Property-based whole-system tests: random small configurations must
//! always terminate, commit exactly the issued transactions, and preserve
//! each benchmark's application invariant under each scheduler.
//!
//! Case counts are kept small — each case is a complete multi-node
//! simulation.

use closed_nesting_dstm::benchmarks::{bank, bst, dht, list, rbtree, vacation};
use closed_nesting_dstm::harness::runner::{build_system, Cell};
use closed_nesting_dstm::prelude::*;
use proptest::prelude::*;

fn scheduler_strategy() -> impl Strategy<Value = SchedulerKind> {
    prop_oneof![
        Just(SchedulerKind::Rts),
        Just(SchedulerKind::Tfa),
        Just(SchedulerKind::TfaBackoff),
    ]
}

fn benchmark_strategy() -> impl Strategy<Value = Benchmark> {
    prop_oneof![
        Just(Benchmark::Vacation),
        Just(Benchmark::Bank),
        Just(Benchmark::LinkedList),
        Just(Benchmark::RbTree),
        Just(Benchmark::Bst),
        Just(Benchmark::Dht),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 8,
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_runs_terminate_and_keep_invariants(
        benchmark in benchmark_strategy(),
        scheduler in scheduler_strategy(),
        nodes in 2usize..6,
        txns in 1usize..6,
        read_pct in 0u32..=10,
        seed in 0u64..1000,
    ) {
        let mut cell = Cell::new(benchmark, scheduler, nodes, read_pct as f64 / 10.0)
            .with_txns(txns)
            .with_seed(seed);
        cell.params.objects_per_node = 4;
        let params = cell.params.clone();
        let mut system = build_system(&cell);
        let metrics = system.run_default();

        prop_assert!(system.all_done(), "stalled: {} {:?}", benchmark.label(), scheduler);
        prop_assert_eq!(metrics.merged.commits as usize, nodes * txns, "commit count wrong");

        // object_state() itself asserts single-writable-copy.
        let state = system.object_state();
        match benchmark {
            Benchmark::Bank => {
                prop_assert_eq!(bank::total_balance(&state), bank::expected_total(&params));
            }
            Benchmark::Vacation => {
                prop_assert!(vacation::billing_matches_inventory(&state, &params));
            }
            Benchmark::LinkedList => {
                let v = list::collect_list(&state);
                prop_assert!(v.windows(2).all(|w| w[0] < w[1]), "unsorted list {:?}", v);
            }
            Benchmark::Bst => {
                let v = bst::collect_inorder(&state);
                prop_assert!(v.windows(2).all(|w| w[0] < w[1]), "unsorted BST");
            }
            Benchmark::RbTree => {
                prop_assert!(rbtree::check_rb(&state).is_ok(), "{:?}", rbtree::check_rb(&state));
            }
            Benchmark::Dht => {
                prop_assert!(dht::check_placement(&state, params.total_objects() as u64).is_ok());
            }
        }

        // Table-I accounting is a partition: causes sum to the total.
        let m = &metrics.merged;
        prop_assert_eq!(
            m.total_nested_aborts(),
            m.nested_aborts_own + m.nested_aborts_parent
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn event_kernel_total_order(times in proptest::collection::vec(0u64..10_000_000, 1..500)) {
        use closed_nesting_dstm::sim::{BinaryHeapQueue, EventQueue, Sequenced, SimTime};
        let mut heap = BinaryHeapQueue::new();
        for (i, &t) in times.iter().enumerate() {
            heap.push(Sequenced::new(SimTime(t), i as u64, i));
        }
        let mut last = None;
        let mut popped = 0;
        while let Some(ev) = heap.pop() {
            if let Some(prev) = last {
                prop_assert!(prev < ev.key, "heap order violated");
            }
            prop_assert_eq!(ev.key.time, SimTime(times[ev.payload]));
            last = Some(ev.key);
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    #[test]
    fn topology_always_well_formed(n in 1usize..40, seed in 0u64..100) {
        let mut rng = SimRng::new(seed);
        let t = Topology::uniform_random(n, 1, 50, &mut rng);
        prop_assert!(t.is_well_formed());
        let t2 = Topology::metric_plane(n, 40.0, 1, &mut rng);
        prop_assert!(t2.is_well_formed());
        prop_assert!(t2.is_metric());
    }
}
