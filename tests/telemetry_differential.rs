//! Differential tests for the epoch-sampling telemetry layer.
//!
//! The sampler (`Cell::with_telemetry` / `--telemetry`) must be a pure
//! observer: a run with telemetry on must be **bit-identical** to the same
//! run with it off — same metrics (including the always-on wasted-work
//! ledger), same message count, same virtual end time, same protocol trace
//! byte-for-byte — under every scheduler.

use closed_nesting_dstm::harness::experiments::scenarios::run_collision;
use closed_nesting_dstm::harness::runner::{
    run_cell, run_cell_telemetry, run_cell_traced, Cell, TopologySpec,
};
use closed_nesting_dstm::hyflow::{merge_epoch_series, EpochSample};
use closed_nesting_dstm::prelude::*;
use proptest::prelude::*;
use rts_core::SchedulerKind;

const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Rts,
    SchedulerKind::Tfa,
    SchedulerKind::TfaBackoff,
];

/// FNV-1a over a byte string (stable, dependency-free).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A small contended cell: high write ratio and few objects so the epoch
/// series carries aborts and wasted work, not just commits.
fn contended_cell(scheduler: SchedulerKind, seed: u64) -> Cell {
    let mut cell = Cell::new(Benchmark::Bank, scheduler, 6, 0.2)
        .with_txns(5)
        .with_seed(seed);
    cell.params.objects_per_node = 3;
    cell
}

/// Every observable outcome of a traced run, trace hashed in its lossless
/// JSONL form.
fn traced_digest(cell: Cell) -> String {
    let (r, trace) = run_cell_traced(cell);
    assert!(r.completed, "cell stalled");
    let m = &r.metrics;
    format!(
        "commits={} aborts={} nested_own={} nested_parent={} wasted_ns={} \
         wasted_msgs={} attributed={} messages={} ended_at={} trace_fnv={:016x}",
        m.merged.commits,
        m.merged.total_aborts(),
        m.merged.nested_aborts_own,
        m.merged.nested_aborts_parent,
        m.merged.wasted_work_ns,
        m.merged.wasted_msgs,
        m.merged.aborts_attributed,
        m.messages,
        m.ended_at.as_nanos(),
        fnv1a(trace.to_jsonl().as_bytes()),
    )
}

#[test]
fn telemetry_on_matches_off_under_every_scheduler() {
    for scheduler in SCHEDULERS {
        let baseline = run_cell(contended_cell(scheduler, 13));
        assert!(baseline.completed);
        let (r, reports) = run_cell_telemetry(contended_cell(scheduler, 13));
        assert!(r.completed);
        // Whole-struct comparison: NodeMetrics PartialEq covers every
        // counter (wasted-work ledger included) and every latency
        // histogram bucket.
        assert_eq!(
            baseline.metrics.merged,
            r.metrics.merged,
            "{} diverged with telemetry",
            scheduler.label()
        );
        assert_eq!(baseline.metrics.messages, r.metrics.messages);
        assert_eq!(baseline.metrics.ended_at, r.metrics.ended_at);
        let series = merge_epoch_series(&reports);
        assert!(!series.is_empty(), "contended run spans epochs");
    }
}

/// FNV-1a over every field of every epoch of the merged series, gauges
/// (`queue_depth`, `in_flight`, `cl_open`) included.
fn series_digest(cell: Cell) -> u64 {
    let (r, reports) = run_cell_telemetry(cell);
    assert!(r.completed, "cell stalled");
    let series = merge_epoch_series(&reports);
    let mut bytes = Vec::new();
    for e in &series {
        let EpochSample {
            epoch,
            commits,
            aborts,
            nested_aborts,
            enqueued,
            wasted_ns,
            wasted_msgs,
            cache_hits,
            cache_misses,
            cache_invalidations,
            queue_depth,
            in_flight,
            cl_open,
        } = *e;
        for v in [
            epoch,
            commits,
            aborts,
            nested_aborts,
            enqueued,
            wasted_ns,
            wasted_msgs,
            cache_hits,
            cache_misses,
            cache_invalidations,
            queue_depth,
            in_flight,
            cl_open,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    // Pin something: the gauges must read nonzero somewhere.
    for (gauge, sum) in [
        ("in_flight", series.iter().map(|e| e.in_flight).sum::<u64>()),
        ("cl_open", series.iter().map(|e| e.cl_open).sum()),
    ] {
        assert!(sum > 0, "{gauge} never sampled nonzero");
    }
    fnv1a(&bytes)
}

/// The 160-node hashed Bank cell of the pinned gauges.
fn hashed_bank_160() -> Cell {
    Cell::new(Benchmark::Bank, SchedulerKind::Rts, 160, 0.1)
        .with_txns(4)
        .with_topology(TopologySpec::HashedRandom {
            min_ms: 1,
            max_ms: 50,
        })
}

/// The gauges are read at flush time from node state the sampler does not
/// own; these digests of the merged series were taken while the `cl_open`
/// gauge still scanned every object slot, and the gauges that replaced
/// that scan must reproduce them.
#[test]
fn epoch_series_digests_are_pinned() {
    let cells = [
        ("contended RTS", contended_cell(SchedulerKind::Rts, 13)),
        ("contended TFA", contended_cell(SchedulerKind::Tfa, 13)),
        (
            "contended TFA+Backoff",
            contended_cell(SchedulerKind::TfaBackoff, 13),
        ),
        ("hashed Bank RTS @ 160", hashed_bank_160()),
    ];
    let got: Vec<(&str, u64)> = cells
        .into_iter()
        .map(|(label, cell)| (label, series_digest(cell)))
        .collect();
    let want = [
        ("contended RTS", 0xfb9e_6c5b_f56b_7364),
        ("contended TFA", 0xd835_0273_8a2d_3723),
        ("contended TFA+Backoff", 0x98df_a2e1_9758_e46d),
        ("hashed Bank RTS @ 160", 0x129f_2e61_021c_34ec),
    ];
    assert_eq!(
        got, want,
        "the merged epoch series moved — got {got:#018x?}"
    );
}

#[test]
fn epoch_sums_match_end_of_run_totals_through_the_harness() {
    // The acceptance check behind `dstm-sweep --telemetry`: the per-epoch
    // deltas in the sidecar sum to the end-of-run NodeMetrics totals.
    let (r, reports) = run_cell_telemetry(contended_cell(SchedulerKind::Rts, 91));
    assert!(r.completed);
    let series = merge_epoch_series(&reports);
    let m = &r.metrics.merged;
    let sum = |f: fn(&closed_nesting_dstm::hyflow::EpochSample) -> u64| -> u64 {
        series.iter().map(f).sum()
    };
    assert_eq!(sum(|e| e.commits), m.commits);
    assert_eq!(sum(|e| e.aborts), m.total_aborts());
    assert_eq!(sum(|e| e.nested_aborts), m.total_nested_aborts());
    assert_eq!(sum(|e| e.enqueued), m.enqueued);
    assert_eq!(sum(|e| e.wasted_ns), m.wasted_work_ns);
    assert_eq!(sum(|e| e.wasted_msgs), m.wasted_msgs);
    assert_eq!(sum(|e| e.cache_hits), 0, "cache off ⇒ no hits sampled");
    assert_eq!(sum(|e| e.cache_misses), 0);

    // Same reconciliation with the cache on: the sampler must track the
    // new counters epoch by epoch too.
    let (r, reports) = run_cell_telemetry(contended_cell(SchedulerKind::Rts, 91).with_cache(true));
    assert!(r.completed);
    let series = merge_epoch_series(&reports);
    let m = r.metrics.merged.clone();
    let sum = |f: fn(&closed_nesting_dstm::hyflow::EpochSample) -> u64| -> u64 {
        series.iter().map(f).sum()
    };
    assert_eq!(sum(|e| e.commits), m.commits);
    assert_eq!(sum(|e| e.cache_hits), m.cache_hits);
    assert_eq!(sum(|e| e.cache_misses), m.cache_misses);
    assert!(m.cache_hits > 0, "contended cache-on run must hit");
}

#[test]
fn wasted_work_ledger_reconciles_on_the_collision_scenarios() {
    // Fig. 2 (TFA) and Fig. 3 (RTS) single-object collisions: the nested
    // tallies of the wasted-work ledger are bumped on the abort path while
    // Table I's own/parent counters are bumped in the nesting layer, so
    // their equality cross-checks the attribution plumbing end to end.
    for scheduler in [SchedulerKind::Tfa, SchedulerKind::Rts] {
        let r = run_collision(scheduler, 6, 2);
        assert!(r.all_done, "{} collision stalled", scheduler.label());
        let m = &r.metrics.merged;
        assert!(
            m.total_nested_aborts() > 0,
            "{} collision must abort children",
            scheduler.label()
        );
        assert!(m.wasted_work_ns > 0, "aborted work must be accounted");
        assert!(
            m.wasted_work_reconciles(),
            "{}: ledger (own {}, parent {}) != Table I ({}, {})",
            scheduler.label(),
            m.wasted_nested_own,
            m.wasted_nested_parent,
            m.nested_aborts_own,
            m.nested_aborts_parent
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    /// Randomized sweep of the pure-observer claim: any seed, any
    /// scheduler, tracing on or off — the run with the sampler enabled
    /// equals the run without it.
    #[test]
    fn telemetry_on_vs_off_digest_equality(
        seed in 1u64..10_000,
        sched in 0usize..3,
        traced in 0u8..2,
    ) {
        let traced = traced == 1;
        let mk = |telemetry: bool| {
            let mut cell = contended_cell(SCHEDULERS[sched], seed);
            if telemetry {
                cell = cell.with_telemetry();
            }
            cell
        };
        if traced {
            prop_assert_eq!(traced_digest(mk(false)), traced_digest(mk(true)));
        } else {
            let off = run_cell(mk(false));
            let (on, _reports) = run_cell_telemetry(mk(false));
            prop_assert!(off.completed && on.completed);
            prop_assert_eq!(&off.metrics.merged, &on.metrics.merged);
            prop_assert_eq!(off.metrics.messages, on.metrics.messages);
            prop_assert_eq!(off.metrics.ended_at, on.metrics.ended_at);
        }
    }
}
