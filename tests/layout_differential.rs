//! Differential tests for the protocol-layer data-layout overhaul.
//!
//! The dense id-indexed node state (slab object store, seq-indexed tx
//! table), the FxHash-backed protocol maps, the pooled scratch buffers, and
//! the on-demand topology representations are all pure performance knobs:
//! none of them may perturb a single simulated outcome. Two layers of proof:
//!
//! 1. **Golden digests** — a grid of small cells (benchmark × scheduler)
//!    was run *before* the refactor and its full outcome (metrics + the
//!    complete protocol trace) hashed into the constants below. The
//!    refactored layouts must reproduce every digest bit-for-bit.
//! 2. **Property tests** — on-demand topology representations must agree
//!    with a materialized dense matrix at every pair, and whole runs driven
//!    through either representation must be trajectory-identical.

mod common;

use closed_nesting_dstm::harness::runner::{build_system, run_cell_traced, Cell, TopologySpec};
use closed_nesting_dstm::prelude::*;
use common::{outcome_line, run_traced_on, ModelQueue};
use dstm_net::Topology;
use dstm_sim::{ActorId, BinaryHeapQueue, SimRng};
use proptest::prelude::*;
use rts_core::SchedulerKind;

const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Rts,
    SchedulerKind::Tfa,
    SchedulerKind::TfaBackoff,
];

fn golden_cells() -> Vec<(&'static str, Cell)> {
    let mut out = Vec::new();
    for (b, blabel) in [(Benchmark::Bank, "bank"), (Benchmark::Vacation, "vacation")] {
        for s in SCHEDULERS {
            let mut cell = Cell::new(b, s, 6, 0.5).with_txns(6).with_seed(7);
            cell.params.objects_per_node = 4;
            let name: &'static str =
                Box::leak(format!("{blabel}/{}/heap", s.label()).into_boxed_str());
            out.push((name, cell));
        }
    }
    out
}

/// One line per cell: every observable outcome of the run, including a hash
/// of the full protocol trace (lossless JSONL form).
fn digest(cell: Cell) -> String {
    let (r, trace) = run_cell_traced(cell);
    assert!(r.completed, "golden cell stalled");
    outcome_line(&r.metrics, &trace)
}

/// Captured from the pre-refactor layouts (HashMap-backed node state, dense
/// delay matrix) — see the module docs. Regenerate with
/// `cargo test --release print_layout_digests -- --ignored --nocapture`
/// ONLY for a change that is *meant* to alter simulated behaviour.
///
/// Migrated ONCE for the interleaving-independent `EventKey` tiebreak
/// (`(time, issuing actor, per-actor seq)` replacing the global issue
/// sequence): every metric, message count, and timestamp was unchanged;
/// only the three vacation trace hashes moved (same-timestamp deliveries now order by actor id —
/// before/after pairs recorded in EXPERIMENTS.md).
///
/// Migrated a SECOND time for the trace-format additions of the telemetry
/// layer: `run_cell_traced` now prepends a `RunInfo` header record
/// (scheduler + node count, for per-run `dstm-trace stats` segmentation)
/// and `RunSummary`/`TxAbort` records carry the wasted-work ledger fields.
/// Every metric, message count, and timestamp was again unchanged; every
/// cell's record count moved by exactly +1 (the header).
const GOLDEN: &[(&str, &str)] = &[
    ("bank/RTS/heap", "commits=36 aborts=84 nested_commits=375 nested_own=218 nested_parent=281 messages=2551 elapsed=3415709000 ended_at=3415709000 trace_records=1398 trace_fnv=fef08a6a58984aa6"),
    ("bank/TFA/heap", "commits=36 aborts=76 nested_commits=357 nested_own=305 nested_parent=259 messages=2650 elapsed=3686089000 ended_at=3686089000 trace_records=1413 trace_fnv=b9152a6b3751108f"),
    ("bank/TFA+Backoff/heap", "commits=36 aborts=81 nested_commits=354 nested_own=371 nested_parent=258 messages=2645 elapsed=3418078000 ended_at=3418078000 trace_records=1481 trace_fnv=e9597a89af570da8"),
    ("vacation/RTS/heap", "commits=36 aborts=39 nested_commits=147 nested_own=138 nested_parent=80 messages=1272 elapsed=2002658000 ended_at=2002658000 trace_records=672 trace_fnv=ca282a6f1a872b07"),
    ("vacation/TFA/heap", "commits=36 aborts=47 nested_commits=169 nested_own=77 nested_parent=104 messages=1260 elapsed=2577996000 ended_at=2577996000 trace_records=669 trace_fnv=7b8f6f97263216a6"),
    ("vacation/TFA+Backoff/heap", "commits=36 aborts=47 nested_commits=169 nested_own=70 nested_parent=104 messages=1243 elapsed=2488553000 ended_at=2488553000 trace_records=661 trace_fnv=ecb33351940005a4"),
];

#[test]
#[ignore = "generator for the GOLDEN table"]
fn print_layout_digests() {
    for (name, cell) in golden_cells() {
        println!("    (\"{name}\", \"{}\"),", digest(cell));
    }
}

#[test]
fn refactored_layouts_match_pre_refactor_goldens() {
    let cells = golden_cells();
    assert_eq!(cells.len(), GOLDEN.len(), "golden table out of date");
    for ((name, cell), (gname, want)) in cells.into_iter().zip(GOLDEN) {
        assert_eq!(name, *gname, "golden table order changed");
        let got = digest(cell);
        assert_eq!(got, *want, "layout changed simulated behaviour in {name}");
    }
}

/// A node keeps a slot only for what it holds. After a 160-node hashed
/// Bank run, with and without the read cache, every slot the object index
/// names owns or caches its object and every other slot is on the free
/// list (`Node::local_invariants` checks both) — where a node used to keep
/// a slot for every object it had ever touched.
#[test]
fn a_node_keeps_slots_only_for_what_it_holds() {
    for cache in [false, true] {
        let cell = Cell::new(Benchmark::Bank, SchedulerKind::Rts, 160, 0.9)
            .with_txns(4)
            .with_topology(TopologySpec::HashedRandom {
                min_ms: 1,
                max_ms: 50,
            })
            .with_cache(cache);
        let mut system = build_system(&cell);
        system.run_default();
        assert!(system.all_done(), "cell stalled, cache {cache}");
        let mut broken = Vec::new();
        for node in system.world().actors() {
            node.local_invariants(&mut broken);
        }
        assert_eq!(broken, Vec::<String>::new(), "cache {cache}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Same cell, run twice: the dense layouts must be deterministic (no
    /// map-iteration-order leakage into protocol behaviour).
    #[test]
    fn runs_are_reproducible_across_layout(seed in 1u64..10_000, sched in 0usize..3) {
        let mk = || {
            let mut c = Cell::new(Benchmark::Bank, SCHEDULERS[sched], 5, 0.5)
                .with_txns(4)
                .with_seed(seed);
            c.params.objects_per_node = 3;
            c
        };
        prop_assert_eq!(digest(mk()), digest(mk()));
    }

    /// Every on-demand topology representation must agree with its own
    /// materialized dense matrix at every pair — the O(n)-memory layouts
    /// are pure storage changes.
    #[test]
    fn on_demand_topology_matches_dense(n in 2usize..24, seed in 1u64..1_000) {
        let mut rng = SimRng::new(seed);
        for t in [
            Topology::ring(n, 3),
            Topology::clustered(n, 3, 1, 9),
            Topology::complete(n, 5),
            Topology::metric_plane(n, 40.0, 1, &mut rng),
            Topology::hashed_random(n, 1, 50, seed),
        ] {
            let dense = t.to_dense();
            for a in 0..n as u32 {
                for b in 0..n as u32 {
                    prop_assert_eq!(
                        t.delay(ActorId(a), ActorId(b)),
                        dense.delay(ActorId(a), ActorId(b)),
                        "{:?} pair ({a},{b})", t.kind()
                    );
                }
            }
        }
    }

    /// Whole runs on the hashed O(1)-memory topology: deterministic, and
    /// bit-identical on the heap and on a queue that shares no code with it
    /// (the same proof the goldens give the dense-matrix path, extended to
    /// `--scale large`'s network model).
    #[test]
    fn hashed_topology_runs_bit_identical_across_backends(
        seed in 1u64..10_000, sched in 0usize..3,
    ) {
        let mk = || {
            let mut c = Cell::new(Benchmark::Bank, SCHEDULERS[sched], 5, 0.5)
                .with_txns(4)
                .with_seed(seed)
                .with_topology(TopologySpec::HashedRandom { min_ms: 1, max_ms: 50 });
            c.params.objects_per_node = 3;
            c
        };
        let on_heap = || {
            let (m, trace) = run_traced_on(mk(), BinaryHeapQueue::new());
            outcome_line(&m, &trace)
        };
        let (m, trace) = run_traced_on(mk(), ModelQueue::default());
        prop_assert!(m.merged.commits > 0, "nothing committed");
        let heap = on_heap();
        prop_assert_eq!(&heap, &outcome_line(&m, &trace));
        prop_assert_eq!(heap, on_heap());
    }
}
