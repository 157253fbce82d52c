//! Allocation guard for the serial event path.
//!
//! A simulated event should cost a pop, a dispatch, a handler and a few
//! pushes — not a trip to the allocator. What legitimately allocates in
//! steady state is protocol content: the `clone_box` snapshots of a
//! (re)started or nested transaction, a fresh payload `Arc` on the first
//! write to a fetched object, a `PublishAck`'s requester hand-off. What must
//! not is bookkeeping: scratch sets rebuilt per handler, a boxed iterator
//! per loop, a runtime moved through the heap, a scheduling-table entry
//! created and deleted around a lookup. This test turns that split into a
//! number: allocator calls per popped event over the **second half** of
//! three fixed write-dominated cells (every pool and scratch buffer is warm
//! by then), plus exact counts for the `TxRuntime` scratch paths.
//!
//! Only meaningful with the counting allocator installed; without the
//! feature the probes read zero and the test would pass vacuously, so it is
//! compiled out entirely. One test per binary: the counters are global.
#![cfg(feature = "bench-alloc")]

use dstm_benchmarks::Benchmark;
use dstm_harness::runner::build_system;
use dstm_harness::{alloc_counter, Cell};
use dstm_sim::SimTime;
use hyflow_dstm::program::{ScriptOp, ScriptProgram};
use hyflow_dstm::{AccessMode, Payload, TxRuntime};
use rts_core::{ObjectId, SchedulerKind, TxId, TxKind};
use std::sync::Arc;

fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    alloc_counter::reset();
    let out = f();
    (alloc_counter::snapshot().0, out)
}

fn cell(benchmark: Benchmark) -> Cell {
    Cell::new(benchmark, SchedulerKind::Rts, 8, 0.1)
        .with_txns(12)
        .with_shards(1)
        .with_cache(false)
        .with_seed(0xD57A)
}

/// `(allocator calls, events)` of the second half of `benchmark`'s cell.
fn second_half(benchmark: Benchmark) -> (u64, u64) {
    let total = {
        let mut system = build_system(&cell(benchmark));
        let events = system.world_mut().run_while(u64::MAX, |_| true);
        assert!(system.all_done(), "{benchmark:?} cell stalled");
        events
    };
    let mut system = build_system(&cell(benchmark));
    let first = system.world_mut().run_while(total / 2, |_| true);
    assert_eq!(first, total / 2);
    let (allocs, rest) = allocs_of(|| system.world_mut().run_while(u64::MAX, |_| true));
    assert_eq!(first + rest, total, "the run is not deterministic");
    assert!(system.all_done());
    (allocs, rest)
}

/// A runtime two levels deep holding `objects` objects, half of them dirty:
/// the shape `abort_to_level` and the commit-time summaries work on.
fn loaded_runtime(objects: u64) -> TxRuntime {
    let program = ScriptProgram::new(TxKind(1), vec![ScriptOp::Read(ObjectId(0))]);
    let mut rt = TxRuntime::new(
        TxId::new(0, 1),
        Box::new(program),
        SimTime::ZERO,
        SimTime(1_000_000),
        0,
    );
    load(&mut rt, objects);
    rt
}

fn load(rt: &mut TxRuntime, objects: u64) {
    let snapshot = rt.program.clone_box();
    for oid in 0..objects {
        if oid == objects / 2 {
            rt.open_nested(TxKind(2), snapshot.clone_box(), SimTime::ZERO);
        }
        let payload = Arc::new(Payload::Scalar(oid as i64));
        rt.install_fetched(ObjectId(oid), payload, 1, 1, 0, AccessMode::Write);
        if oid % 2 == 0 {
            rt.write_local(ObjectId(oid), Payload::Scalar(-1));
        }
    }
}

/// Allocator calls per 1000 popped events over the second half of the run
/// that each cell may not exceed. The counts are exact (one thread, one
/// seed): Bank 5119 / 10176 events = 503, Linked List 10813 / 31081 = 347,
/// RB Tree 4535 / 9289 = 488; the bounds leave 2 % for a `Vec` doubling
/// landing on the other side of the midpoint under another `std`. What is
/// left is content — in Bank's second half 1028 `OpenNested` snapshots,
/// 1033 + 2 × 180 rollback and restart `clone_box`es, 1071 fresh payload
/// `Arc`s — plus one sized-once `pending` set per validation or lock round
/// and the CL window of an object that changed owner.
const BOUNDS_PER_1000_EVENTS: [(Benchmark, u64); 3] = [
    (Benchmark::Bank, 513),
    (Benchmark::LinkedList, 354),
    (Benchmark::RbTree, 498),
];

#[test]
fn the_event_path_allocates_for_protocol_content_only() {
    assert!(alloc_counter::enabled());

    for (benchmark, bound) in BOUNDS_PER_1000_EVENTS {
        let (allocs, events) = second_half(benchmark);
        let per_1000 = allocs * 1000 / events;
        println!("{benchmark:?}: {allocs} allocations over {events} events = {per_1000} per 1000");
        assert!(
            per_1000 <= bound,
            "{benchmark:?}: {per_1000} allocator calls per 1000 events in steady state \
             (bound {bound}): per-event bookkeeping is allocating again"
        );
    }

    // The commit-time summaries into warm buffers: nothing.
    let rt = loaded_runtime(8);
    let (mut summary, mut write_back) = (Vec::new(), Vec::new());
    rt.write_back_set_into(&mut summary, &mut write_back);
    assert_eq!((summary.len(), write_back.len()), (8, 4));
    let (allocs, _) = allocs_of(|| rt.object_summary_into(&mut summary));
    assert_eq!(allocs, 0, "object_summary_into with a warm buffer");
    let (allocs, _) = allocs_of(|| rt.write_back_set_into(&mut summary, &mut write_back));
    assert_eq!(allocs, 0, "write_back_set_into with warm buffers");

    // A whole-transaction rollback over a runtime that has aborted before:
    // the one `clone_box` of the snapshot it restores.
    let mut rt = loaded_runtime(8);
    let (snapshot_cost, _) = allocs_of(|| rt.levels[0].snapshot.clone_box());
    rt.abort_to_level(0);
    load(&mut rt, 8);
    let (allocs, _) = allocs_of(|| rt.abort_to_level(0));
    assert_eq!(allocs, snapshot_cost, "abort_to_level over a warm runtime");
}
