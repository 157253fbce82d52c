//! Allocation guard for the trace text codec and the stream merge.
//!
//! The codec's contract is that no step allocates per record: parsing a
//! line touches the heap only for a `TxCommit`'s two result vectors, and
//! export and merge allocate their output buffer (plus a constant number of
//! small helpers) however many records pass through. This test turns that
//! into assertions under the counting allocator.
//!
//! Only meaningful with the counting allocator installed; without the
//! feature the probes read zero and the test would pass vacuously, so it is
//! compiled out entirely. One test per binary: the counters are global.
#![cfg(feature = "bench-alloc")]

use dstm_benchmarks::Benchmark;
use dstm_harness::traceio::to_chrome_trace;
use dstm_harness::{alloc_counter, run_cell_traced, Cell};
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
    alloc_counter::reset();
    let out = f();
    (alloc_counter::snapshot().0, out)
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
    assert!(alloc_counter::enabled());
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

    // Export, merge and Chrome export: the same handful of allocations for
    // a log of n records as for the log repeated eight times over.
    let log = TraceLog {
        records: records.clone(),
    };
    let big = TraceLog {
        records: std::iter::repeat_n(&records, 8)
            .flatten()
            .cloned()
            .collect(),
    };
    let streams = |log: &TraceLog| {
        let mut streams = vec![Vec::new(); 8];
        for r in &log.records {
            streams[r.node as usize % 8].push(r.clone());
        }
        for s in &mut streams {
            s.sort_by_key(|r| (r.at, r.node));
        }
        streams
    };
    let (small_streams, big_streams) = (streams(&log), streams(&big));
    for (step, small, large) in [
        (
            "to_jsonl",
            allocs_of(|| log.to_jsonl().len()).0,
            allocs_of(|| big.to_jsonl().len()).0,
        ),
        (
            "from_node_streams",
            allocs_of(|| TraceLog::from_node_streams(small_streams).records.len()).0,
            allocs_of(|| TraceLog::from_node_streams(big_streams).records.len()).0,
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
}
