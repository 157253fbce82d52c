//! Differential tests for the conservative sharded executor.
//!
//! `GenericWorld::run_sharded` (surfaced as `Cell::with_shards` /
//! `--shards`) is a pure host-parallelism knob: a sharded run must be
//! **bit-identical** to the serial run — same commits/aborts, same Table-I
//! nested splits, same message counts, same latency histograms, same
//! virtual end time, and the same protocol trace byte-for-byte — for every
//! shard count, every scheduler, every partitioner (round-robin and the
//! locality-greedy one behind `--partition`), and with tracing on or off.
//! The per-shard-pair lookahead matrix and the node→shard assignment are
//! pure performance knobs; neither may leak into simulated results. Same
//! bar the queue-backend and data-layout refactors had to clear
//! (`layout_differential.rs`), extended to parallel execution.

mod common;

use closed_nesting_dstm::harness::runner::{run_cell, run_cell_traced, Cell, TopologySpec};
use closed_nesting_dstm::prelude::*;
use common::{outcome_line, run_traced_on, ModelQueue};
use dstm_sim::BinaryHeapQueue;
use proptest::prelude::*;
use rts_core::SchedulerKind;

const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Rts,
    SchedulerKind::Tfa,
    SchedulerKind::TfaBackoff,
];

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

const PARTITIONS: [PartitionStrategy; 2] =
    [PartitionStrategy::RoundRobin, PartitionStrategy::Locality];

fn small_cell(benchmark: Benchmark, scheduler: SchedulerKind, seed: u64) -> Cell {
    let mut cell = Cell::new(benchmark, scheduler, 6, 0.5)
        .with_txns(5)
        .with_seed(seed);
    cell.params.objects_per_node = 4;
    cell
}

/// Every observable outcome of a traced run, trace hashed in its lossless
/// JSONL form.
fn traced_digest(cell: Cell) -> String {
    let (r, trace) = run_cell_traced(cell);
    assert!(r.completed, "cell stalled");
    outcome_line(&r.metrics, &trace)
}

#[test]
fn sharded_traced_runs_match_serial_across_schedulers() {
    for benchmark in [Benchmark::Bank, Benchmark::Vacation] {
        for scheduler in SCHEDULERS {
            let serial = traced_digest(small_cell(benchmark, scheduler, 7));
            for shards in SHARD_COUNTS {
                for partition in PARTITIONS {
                    let sharded = traced_digest(
                        small_cell(benchmark, scheduler, 7)
                            .with_shards(shards)
                            .with_partition(partition),
                    );
                    assert_eq!(
                        serial,
                        sharded,
                        "{}/{} diverged at {shards} shards under {}",
                        benchmark.label(),
                        scheduler.label(),
                        partition.label()
                    );
                }
            }
        }
    }
}

#[test]
fn sharded_untraced_runs_match_serial_including_histograms() {
    // Whole-struct comparison: NodeMetrics PartialEq covers every counter
    // *and* every latency histogram bucket.
    let serial = run_cell(small_cell(Benchmark::Bank, SchedulerKind::Rts, 11));
    assert!(serial.completed);
    for shards in SHARD_COUNTS {
        for partition in PARTITIONS {
            let sharded = run_cell(
                small_cell(Benchmark::Bank, SchedulerKind::Rts, 11)
                    .with_shards(shards)
                    .with_partition(partition),
            );
            assert!(
                sharded.completed,
                "sharded({shards}, {}) stalled",
                partition.label()
            );
            assert_eq!(serial.metrics.merged, sharded.metrics.merged);
            assert_eq!(serial.metrics.messages, sharded.metrics.messages);
            assert_eq!(serial.metrics.elapsed, sharded.metrics.elapsed);
            assert_eq!(serial.metrics.ended_at, sharded.metrics.ended_at);
        }
    }
}

#[test]
fn sharding_composes_with_queue_backend_and_topology() {
    // The orthogonal execution knobs — shard count, partitioner, network
    // representation, and which queue every shard runs on — must all leave
    // the outcome untouched. The hashed topology matters here: its lookahead
    // matrix is the generator-floor lower bound, not the exact pairwise
    // minimum.
    let mk = |shards, partition| {
        let mut c = small_cell(Benchmark::Bank, SchedulerKind::Rts, 3)
            .with_topology(TopologySpec::HashedRandom {
                min_ms: 1,
                max_ms: 50,
            })
            .with_shards(shards)
            .with_partition(partition);
        c.params.objects_per_node = 3;
        c
    };
    let want = traced_digest(mk(1, PartitionStrategy::RoundRobin));
    // The same cell without the runner's header and summary records, which
    // `run_traced_on` does not add: what the model-queue runs must equal.
    let (m, trace) = run_traced_on(mk(1, PartitionStrategy::RoundRobin), BinaryHeapQueue::new());
    let want_on_model = outcome_line(&m, &trace);
    for shards in [1, 2, 4] {
        for partition in PARTITIONS {
            assert_eq!(
                want,
                traced_digest(mk(shards, partition)),
                "diverged at {shards} shards / {}",
                partition.label()
            );
            let (m, trace) = run_traced_on(mk(shards, partition), ModelQueue::default());
            assert_eq!(
                want_on_model,
                outcome_line(&m, &trace),
                "diverged at {shards} shards / {} on the model queue",
                partition.label()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    /// Randomized sweep of the whole determinism claim: any seed, any
    /// scheduler, any shard count, either partitioner, tracing on or off —
    /// sharded equals serial.
    #[test]
    fn serial_vs_sharded_digest_equality(
        seed in 1u64..10_000,
        sched in 0usize..3,
        shards in 2usize..=8,
        partition in 0usize..2,
        traced in 0u8..2,
    ) {
        let traced = traced == 1;
        let partition = PARTITIONS[partition];
        let mk = |shards: usize| {
            let mut c = Cell::new(Benchmark::Bank, SCHEDULERS[sched], 5, 0.5)
                .with_txns(4)
                .with_seed(seed)
                .with_shards(shards)
                .with_partition(partition);
            c.params.objects_per_node = 3;
            c
        };
        if traced {
            prop_assert_eq!(traced_digest(mk(1)), traced_digest(mk(shards)));
        } else {
            let serial = run_cell(mk(1));
            let sharded = run_cell(mk(shards));
            prop_assert!(serial.completed && sharded.completed);
            prop_assert_eq!(&serial.metrics.merged, &sharded.metrics.merged);
            prop_assert_eq!(serial.metrics.messages, sharded.metrics.messages);
            prop_assert_eq!(serial.metrics.ended_at, sharded.metrics.ended_at);
        }
    }

    /// Regression guard on the event-order contract the executor rests on:
    /// `EventKey::compose` is a total order, lexicographic on
    /// `(time, issuer, per-actor seq)` — stable under any packing change.
    #[test]
    fn event_key_order_is_total_and_stable(
        ta in 0u64..1_000, ia in 0u32..512, sa in 0u64..1_000,
        tb in 0u64..1_000, ib in 0u32..512, sb in 0u64..1_000,
    ) {
        use dstm_sim::{EventKey, SimTime};
        let ka = EventKey::compose(SimTime(ta), ia, sa);
        let kb = EventKey::compose(SimTime(tb), ib, sb);
        // Exactly the lexicographic order on the triple.
        prop_assert_eq!(ka.cmp(&kb), (ta, ia, sa).cmp(&(tb, ib, sb)));
        // Antisymmetric + roundtrip: distinct triples give distinct keys.
        prop_assert_eq!(kb.cmp(&ka), ka.cmp(&kb).reverse());
        prop_assert_eq!((ka.time, ka.issuer(), ka.local_seq()), (SimTime(ta), ia, sa));
    }
}
