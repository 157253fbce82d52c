//! Allocation guard for what a finished run keeps.
//!
//! Every Table I cell and every point of Figs. 4–6 is one run's
//! `RunMetrics`, and a sweep holds all of them at once. Its four latency
//! histograms keep `u32` counts for their occupied log2 buckets only,
//! boxed; the run's dense 64-bucket recorders are freed with the system.
//! This test pins the inline size of a `RunMetrics` and the exact heap
//! bytes one Bank cell's and one Linked List cell's keep after `collect`,
//! so a finer bucket layout cannot silently re-inflate it: at the dense
//! layout the value was 2 496 bytes and kept no heap.
//!
//! Measured with the counting allocator of `common/`, which this binary
//! installs. One test per binary: the counters are global.

mod common;

use dstm_benchmarks::Benchmark;
use dstm_harness::{run_cell, Cell};
use hyflow_dstm::RunMetrics;
use rts_core::SchedulerKind;

/// 24 counters and two Welford statistics (272 B), four compact histograms
/// (48 B each), five run-level words, padded to the 16-byte alignment of
/// the histograms' `u128` sums.
const RUN_METRICS_BYTES: usize = 512;

/// `(benchmark, heap bytes its RunMetrics keeps)`: four bytes per bucket
/// from each histogram's first occupied bucket to its last. Bank spans 11
/// commit-latency, 3 queue-wait, 14 fetch-RTT and 5 retry buckets; Linked
/// List 8, 8, 16 and 5. At 8 sub-buckets per octave these would be eight
/// times as large.
const KEPT: [(Benchmark, usize); 2] = [(Benchmark::Bank, 132), (Benchmark::LinkedList, 148)];

/// A Fig. 4 cell: low contention, RTS.
fn cell(benchmark: Benchmark) -> Cell {
    Cell::new(benchmark, SchedulerKind::Rts, 10, 0.9).with_seed(0xD57A)
}

/// Heap bytes `metrics` keeps: what dropping it frees.
fn kept(metrics: RunMetrics) -> usize {
    let before = common::live_bytes();
    drop(metrics);
    before - common::live_bytes()
}

#[test]
fn a_finished_run_keeps_512_bytes_and_its_occupied_buckets() {
    common::assert_counting();
    assert_eq!(std::mem::size_of::<RunMetrics>(), RUN_METRICS_BYTES);

    for (benchmark, bytes) in KEPT {
        let r = run_cell(cell(benchmark));
        assert!(r.completed, "{benchmark:?} cell stalled");
        let m = &r.metrics.merged;
        let spans = [
            &m.commit_latency_hist,
            &m.queue_wait_hist,
            &m.fetch_rtt_hist,
            &m.retries_per_commit,
        ]
        .map(|h| {
            (
                h.count(),
                h.quantile_upper_bound(0.0),
                h.quantile_upper_bound(1.0),
            )
        });
        let heap = kept(r.metrics);
        println!(
            "{}: {heap} B kept past {RUN_METRICS_BYTES} B inline; \
             (count, min bucket ceiling, max bucket ceiling) per histogram: {spans:?}",
            benchmark.label()
        );
        assert_eq!(
            heap,
            bytes,
            "{}: a finished run's histograms keep {heap} B of heap",
            benchmark.label()
        );
    }
}
