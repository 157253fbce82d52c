//! Allocation guard for the serial event path.
//!
//! A simulated event should cost a pop, a dispatch, a handler and a few
//! pushes — not a trip to the allocator. What legitimately allocates in
//! steady state is protocol content: a fresh payload `Arc` on the first
//! write to a fetched object, the CL window of an object that changed
//! owner, a `PublishAck`'s requester hand-off. What must not is
//! bookkeeping: a program copied to be able to retry it, a working set per
//! nesting level, a runtime per transaction, scratch sets rebuilt per
//! handler or protocol round, a boxed iterator per loop, a runtime moved
//! through the heap, a scheduling-table entry created and deleted around a
//! lookup. This test turns that split into a number: allocator calls per
//! popped event over the **second half** of three fixed write-dominated
//! cells (every pool and scratch buffer is warm by then), plus exact counts
//! — zero — for nesting, rollback and runtime reuse on a warm `TxRuntime`.
//!
//! Measured with the counting allocator of `common/`, which this binary
//! installs. One test per binary: the counters are global.

mod common;

use dstm_benchmarks::Benchmark;
use dstm_harness::runner::build_system;
use dstm_harness::Cell;
use dstm_sim::SimTime;
use hyflow_dstm::program::{ScriptOp, ScriptProgram};
use hyflow_dstm::{AccessMode, BoxedProgram, Payload, ProgramSnapshot, TxRuntime};
use rts_core::{ObjectId, SchedulerKind, TxId, TxKind};
use std::sync::Arc;

fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    common::reset();
    let out = f();
    (common::snapshot().0, out)
}

fn cell(benchmark: Benchmark) -> Cell {
    Cell::new(benchmark, SchedulerKind::Rts, 8, 0.1)
        .with_txns(12)
        .with_cache(false)
        .with_seed(0xD57A)
}

/// `(allocator calls, events)` of the second half of `benchmark`'s cell.
fn second_half(benchmark: Benchmark) -> (u64, u64) {
    let total = {
        let mut system = build_system(&cell(benchmark));
        let events = system.world_mut().run_budget(u64::MAX);
        assert!(system.all_done(), "{benchmark:?} cell stalled");
        events
    };
    let mut system = build_system(&cell(benchmark));
    let first = system.world_mut().run_budget(total / 2);
    assert_eq!(first, total / 2);
    let (allocs, rest) = allocs_of(|| system.world_mut().run_budget(u64::MAX));
    assert_eq!(first + rest, total, "the run is not deterministic");
    assert!(system.all_done());
    (allocs, rest)
}

fn program() -> BoxedProgram {
    Box::new(ScriptProgram::new(
        TxKind(1),
        vec![ScriptOp::Read(ObjectId(0))],
    ))
}

/// The payloads `load` installs, built ahead so that a measured `load`
/// counts the runtime's allocations, not the fixture's.
fn payloads(objects: u64) -> Vec<Arc<Payload>> {
    (0..objects)
        .map(|oid| Arc::new(Payload::Scalar(oid as i64)))
        .collect()
}

/// Make `rt` two levels deep holding one object per payload, the second half
/// fetched by the child, every other one dirty: the shape `abort_to_level`
/// and the commit-time summaries work on. Snapshots the program the way the
/// executor does.
fn load(rt: &mut TxRuntime, payloads: &[Arc<Payload>]) {
    for (oid, payload) in (0u64..).zip(payloads) {
        if oid as usize == payloads.len() / 2 {
            let snapshot = ProgramSnapshot::of(rt.program.as_ref());
            rt.open_nested(TxKind(2), snapshot, SimTime::ZERO);
        }
        rt.install_fetched(
            ObjectId(oid),
            Arc::clone(payload),
            1,
            1,
            0,
            AccessMode::Write,
        );
        if oid % 2 == 0 {
            rt.write_local(ObjectId(oid), Payload::Scalar(-1));
        }
    }
}

fn loaded_runtime(payloads: &[Arc<Payload>]) -> TxRuntime {
    let mut rt = TxRuntime::new(
        TxId::new(0, 1),
        program(),
        SimTime::ZERO,
        SimTime(1_000_000),
        0,
    );
    load(&mut rt, payloads);
    rt
}

/// Allocator calls per 1000 popped events over the second half of the run
/// that each cell may not exceed. The counts are exact (one thread, one
/// seed): Bank 1892 / 10176 events = 185, Linked List 1768 / 31081 = 56,
/// RB Tree 805 / 9289 = 86 (503 / 347 / 488 while every nesting level and
/// every retry copied the program; RB Tree 833 = 89 while each fixup built
/// its write plan in a fresh `Vec`); the bounds leave 2 % for a `Vec`
/// doubling landing on the other side of the midpoint under another `std`.
/// What is left, by call site, in Bank's second half: 1071 fresh payload
/// `Arc`s (`write_local` on a shared payload), 477 for the CL windows of
/// objects that changed owner (a new owner's window and its ring growing),
/// 179 `granted` lists of lock rounds and 95 `stale` lists of failed
/// validations, 46 requester-queue entries and hand-offs, 24 others (table
/// and buffer growth; 28 while a node kept a slot for every object it had
/// touched) — and no program copy: the in-tree programs all
/// checkpoint, so the `clone_box` fallback (a program without
/// `checkpoint`: one copy per transaction, per `OpenNested` and per
/// rollback) does not run here, and no stats-table sketch update. RB
/// Tree's largest single site is its programs' own model maps (182).
const BOUNDS_PER_1000_EVENTS: [(Benchmark, u64); 3] = [
    (Benchmark::Bank, 190),
    (Benchmark::LinkedList, 58),
    (Benchmark::RbTree, 88),
];

#[test]
fn the_event_path_allocates_for_protocol_content_only() {
    common::assert_counting();

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
    let fetched = payloads(8);
    let mut rt = loaded_runtime(&fetched);
    let (mut summary, mut write_back) = (Vec::new(), Vec::new());
    rt.write_back_set_into(&mut summary, &mut write_back);
    assert_eq!((summary.len(), write_back.len()), (8, 4));
    let (allocs, _) = allocs_of(|| rt.object_summary_into(&mut summary));
    assert_eq!(allocs, 0, "object_summary_into with a warm buffer");
    let (allocs, _) = allocs_of(|| rt.write_back_set_into(&mut summary, &mut write_back));
    assert_eq!(allocs, 0, "write_back_set_into with warm buffers");
    write_back.clear();

    // Rolling back — a child, then the whole transaction — over a runtime
    // that has been this deep and this full before: nothing. The program is
    // rewound, not copied; the log is truncated, not freed.
    let (allocs, _) = allocs_of(|| rt.abort_to_level(1));
    assert_eq!(allocs, 0, "abort_to_level(1) over a warm runtime");
    let (allocs, _) = allocs_of(|| rt.abort_to_level(0));
    assert_eq!(allocs, 0, "abort_to_level(0) over a warm runtime");

    // Opening a child, installing a fetch and committing the child into its
    // parent, on the same warm runtime: nothing.
    let (allocs, _) = allocs_of(|| {
        let snapshot = ProgramSnapshot::of(rt.program.as_ref());
        rt.open_nested(TxKind(2), snapshot, SimTime::ZERO);
        rt.install_fetched(
            ObjectId(0),
            Arc::clone(&fetched[0]),
            1,
            1,
            0,
            AccessMode::Read,
        );
        rt.close_nested();
    });
    assert_eq!(allocs, 0, "open_nested + install_fetched + close_nested");
    rt.abort_to_level(0);

    // The next transaction in the same runtime, as `Node::pump` starts it:
    // nothing beyond its payloads — here the fresh `Arc` of the first write
    // to each of the four fetched (hence shared) payloads it dirties.
    let next = program();
    let (allocs, _) = allocs_of(|| {
        rt.recycle(TxId::new(0, 2), next, SimTime(5), SimTime(2_000_000), 7);
        load(&mut rt, &fetched);
    });
    assert_eq!(allocs, 4, "a second transaction in a recycled runtime");
    assert_eq!((rt.id, rt.attempt, rt.wv), (TxId::new(0, 2), 0, 7));
}
