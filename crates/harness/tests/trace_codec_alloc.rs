//! Allocation guard for the trace codec and the end-of-run take.
//!
//! The codec's contract is that no step allocates per record: the live
//! log's `ProtoTrace::push` allocates only when its one buffer grows,
//! parsing text reads straight into the log's one buffer (a `TxCommit`
//! included), export allocates its output buffer (plus a constant number
//! of small helpers) however many records pass through, and
//! `System::take_trace` moves the run's one log out at the same constant
//! cost for any length. And a taken log holds at most 16 bytes per record
//! (a `TraceRecord` alone is 112). This test turns that into assertions
//! under the counting allocator.
//!
//! Measured with the counting allocator of `common/`, which this binary
//! installs. One test per binary: the counters are global.

mod common;

use dstm_benchmarks::Benchmark;
use dstm_harness::runner::build_system;
use dstm_harness::traceio::to_chrome_trace;
use dstm_harness::{run_cell_traced, Cell};
use hyflow_dstm::{ProtoTrace, TraceLog, TraceRecord};
use rts_core::SchedulerKind;

/// A log takes at most this many bytes of heap per record.
const MAX_BYTES_PER_RECORD: usize = 16;

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
    let rts = traced_cell(SchedulerKind::Rts);
    let records: Vec<TraceRecord> = rts
        .records
        .iter()
        .chain(&traced_cell(SchedulerKind::Tfa).records)
        .collect();
    let kinds: std::collections::HashSet<_> = records
        .iter()
        .map(|r| std::mem::discriminant(&r.ev))
        .collect();
    assert_eq!(kinds.len(), 12, "a ProtoEvent variant is not covered");

    // Push: an allocation only where the one buffer grows.
    let live = ProtoTrace::enabled();
    let mut pushes_that_allocated = 0;
    for r in &rts.records {
        let (allocs, ()) = allocs_of(|| live.push(r.at, r.node, r.ev));
        assert!(allocs <= 1, "one push allocated {allocs} times");
        pushes_that_allocated += allocs;
    }
    let bound = growth_steps(MAX_BYTES_PER_RECORD * rts.records.len());
    assert!(
        pushes_that_allocated <= bound,
        "{pushes_that_allocated} of {} pushes allocated: the buffer grows at most {bound} times",
        rts.records.len()
    );

    // Parse: one line at a time, the log's one buffer and nothing else —
    // for a commit's read and write sets too.
    let mut line = String::with_capacity(4096);
    for rec in &records {
        line.clear();
        rec.write_jsonl(&mut line);
        let (allocs, parsed) = allocs_of(|| TraceLog::parse_jsonl(&line));
        assert!(allocs <= 1, "parsing allocated {allocs} times: {line}");
        let parsed = parsed.expect("the writer's line parses");
        assert_eq!(parsed.records, vec![rec.clone()]);
    }

    // Export, Chrome export and parse: the same handful of allocations for
    // a log of n records as for the log repeated eight times over.
    let log: TraceLog = records.iter().cloned().collect();
    let big: TraceLog = std::iter::repeat_n(&records, 8)
        .flatten()
        .cloned()
        .collect();
    let (text, big_text) = (log.to_jsonl(), big.to_jsonl());
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
        (
            "parse_jsonl",
            allocs_of(|| TraceLog::parse_jsonl(&text).map(|l| l.records.len())).0,
            allocs_of(|| TraceLog::parse_jsonl(&big_text).map(|l| l.records.len())).0,
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
    // leaves eight times as many; and the log it hands over holds at most
    // `MAX_BYTES_PER_RECORD` bytes a record.
    let take = |txns: usize| {
        let mut cell = Cell::new(Benchmark::Bank, SchedulerKind::Rts, 8, 0.5)
            .with_txns(txns)
            .with_cache(false)
            .with_trace();
        cell.params.objects_per_node = 4;
        let mut system = build_system(&cell);
        system.run_default();
        let (allocs, trace) = allocs_of(|| system.take_trace());
        let live = common::live_bytes();
        let n = trace.records.len();
        drop(trace);
        let held = live - common::live_bytes();
        assert!(
            held <= MAX_BYTES_PER_RECORD * n,
            "a taken log of {n} records holds {held} bytes, more than {MAX_BYTES_PER_RECORD} a record"
        );
        (allocs, n)
    };
    let ((small, n), (large, n8)) = (take(6), take(48));
    assert!(n8 >= 7 * n, "{n8} records is not about 8 × {n}");
    assert_eq!(
        small, large,
        "take_trace allocates per record: {small} allocations for {n} records, {large} for {n8}"
    );
}
