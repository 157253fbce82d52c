//! Allocation guard for the trace text codec and the end-of-run take.
//!
//! The codec's contract is that no step allocates per record: parsing a
//! line touches the heap only for a `TxCommit`'s two result vectors, export
//! allocates its output buffer (plus a constant number of small helpers)
//! however many records pass through, and `System::take_trace` moves the
//! run's one log out at the same constant cost for any length. This test
//! turns that into assertions under the counting allocator.
//!
//! Measured with the counting allocator of `common/`, which this binary
//! installs. One test per binary: the counters are global.

mod common;

use dstm_benchmarks::Benchmark;
use dstm_harness::runner::build_system;
use dstm_harness::traceio::to_chrome_trace;
use dstm_harness::{run_cell_traced, Cell};
use hyflow_dstm::{ProtoEvent, TraceLog, TraceRecord};
use rts_core::SchedulerKind;

fn traced_cell(scheduler: SchedulerKind) -> TraceLog {
    let mut cell = Cell::new(Benchmark::Bank, scheduler, 8, 0.5)
        .with_txns(6)
        .with_cache(false);
    cell.params.objects_per_node = 4;
    run_cell_traced(cell).1
}

fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    common::reset();
    let out = f();
    (common::snapshot().0, out)
}

/// Allocator calls a `Vec` makes growing to `len` one push at a time.
fn growth_steps(len: usize) -> u64 {
    let mut cap = 0;
    let mut steps = 0;
    while cap < len {
        cap = (cap * 2).max(4);
        steps += 1;
    }
    steps
}

#[test]
fn the_codec_allocates_per_buffer_not_per_record() {
    common::assert_counting();
    let mut records = traced_cell(SchedulerKind::Rts).records;
    records.extend(traced_cell(SchedulerKind::Tfa).records);
    let kinds: std::collections::HashSet<_> = records
        .iter()
        .map(|r| std::mem::discriminant(&r.ev))
        .collect();
    assert_eq!(kinds.len(), 12, "a ProtoEvent variant is not covered");

    // Parse: zero allocations, except a commit's result vectors.
    let mut line = String::with_capacity(4096);
    for rec in &records {
        line.clear();
        rec.write_jsonl(&mut line);
        let (allocs, parsed) = allocs_of(|| TraceRecord::parse(line.trim_end()));
        let allowed = match &rec.ev {
            ProtoEvent::TxCommit { reads, writes, .. } => {
                growth_steps(reads.len()) + growth_steps(writes.len())
            }
            _ => 0,
        };
        assert!(
            allocs <= allowed,
            "parsing allocated {allocs} times (allowed {allowed}): {line}"
        );
        assert_eq!(parsed.as_ref(), Ok(rec));
    }

    // Export and Chrome export: the same handful of allocations for a log
    // of n records as for the log repeated eight times over.
    let log = TraceLog {
        records: records.clone(),
    };
    let big = TraceLog {
        records: std::iter::repeat_n(&records, 8)
            .flatten()
            .cloned()
            .collect(),
    };
    for (step, small, large) in [
        (
            "to_jsonl",
            allocs_of(|| log.to_jsonl().len()).0,
            allocs_of(|| big.to_jsonl().len()).0,
        ),
        (
            "to_chrome_trace",
            allocs_of(|| to_chrome_trace(&log).len()).0,
            allocs_of(|| to_chrome_trace(&big).len()).0,
        ),
    ] {
        // Slack: buffers that grow by doubling take a few more steps to
        // reach eight times the size.
        assert!(
            large <= small + 8,
            "{step} allocates per record: {small} allocations for n records, {large} for 8n"
        );
    }

    // Take: the same count for a cell that leaves n records as for one that
    // leaves eight times as many.
    let take = |txns: usize| {
        let mut cell = Cell::new(Benchmark::Bank, SchedulerKind::Rts, 8, 0.5)
            .with_txns(txns)
            .with_cache(false)
            .with_trace();
        cell.params.objects_per_node = 4;
        let mut system = build_system(&cell);
        system.run_default();
        allocs_of(|| system.take_trace().records.len())
    };
    let ((small, n), (large, n8)) = (take(6), take(48));
    assert!(n8 >= 7 * n, "{n8} records is not about 8 × {n}");
    assert_eq!(
        small, large,
        "take_trace allocates per record: {small} allocations for {n} records, {large} for {n8}"
    );
}
