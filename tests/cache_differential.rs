//! Differential tests for clock-validated remote-read caching and message
//! coalescing (`Cell::with_cache` / `--cache`).
//!
//! The cache is a **protocol variant**: it changes the simulated message
//! pattern (fewer fetch round trips), so cache-on results legitimately
//! differ from cache-off ones. The contract split is:
//!
//! * **Cache off (the default)** must be bit-identical to the pre-cache
//!   protocol — zero cache counters, no cache fields in traces, and the
//!   golden digests in `layout_differential.rs` unchanged.
//! * **Cache on** must still be a correct TFA execution: every trace passes
//!   the offline audit — serializability, and the Table-I split and
//!   wasted-work ledger against the run's counters — under every
//!   scheduler, and a cache-on run repeats bit for bit.
//! * On contended workloads the cache must actually pay: fewer kernel
//!   messages per commit, a nonzero hit rate, and (via conflict-verdict
//!   owner healing) no more tombstone forwards than the cache-off run.

use closed_nesting_dstm::harness::audit;
use closed_nesting_dstm::harness::runner::{run_cell, run_cell_telemetry, run_cell_traced, Cell};
use closed_nesting_dstm::hyflow::{merge_epoch_series, EpochSample};
use closed_nesting_dstm::prelude::*;
use rts_core::SchedulerKind;

const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Rts,
    SchedulerKind::Tfa,
    SchedulerKind::TfaBackoff,
];

/// A read-heavy contended cell: few objects, many readers — the shape the
/// cache is built for.
fn contended_cell(benchmark: Benchmark, scheduler: SchedulerKind, seed: u64) -> Cell {
    let mut cell = Cell::new(benchmark, scheduler, 8, 0.8)
        .with_txns(6)
        .with_seed(seed);
    cell.params.objects_per_node = 2;
    cell
}

#[test]
fn cache_off_runs_carry_no_cache_state() {
    for scheduler in SCHEDULERS {
        let cell = contended_cell(Benchmark::Bank, scheduler, 5).with_cache(false);
        let (r, trace) = run_cell_traced(cell);
        assert!(r.completed);
        let m = &r.metrics.merged;
        assert_eq!(
            (m.cache_hits, m.cache_misses, m.cache_invalidations),
            (0, 0, 0),
            "cache-off run under {} recorded cache activity",
            scheduler.label()
        );
        // The conditional RunSummary fields must stay absent so pre-cache
        // golden traces (and their FNV digests) remain byte-identical.
        assert!(
            !trace.to_jsonl().contains("cache"),
            "cache-off trace under {} mentions the cache",
            scheduler.label()
        );
    }
}

#[test]
fn cache_on_passes_audit_and_ledger_reconciliation() {
    for benchmark in [Benchmark::Bank, Benchmark::Vacation] {
        for scheduler in SCHEDULERS {
            let cell = contended_cell(benchmark, scheduler, 9).with_cache(true);
            let (r, trace) = run_cell_traced(cell);
            assert!(
                r.completed,
                "{}/{} with cache stalled",
                benchmark.label(),
                scheduler.label()
            );
            let report = audit(&trace);
            assert!(
                report.ok(),
                "{}/{} with cache failed audit: {:?}",
                benchmark.label(),
                scheduler.label(),
                report.violations
            );
            assert!(report.summary_checked);
        }
    }
}

#[test]
fn cache_on_runs_repeat_bit_for_bit() {
    // Coalescing packs whatever one handler sent to one destination into a
    // batch; which messages share a batch, and in what order, must be a
    // function of the seed alone.
    for scheduler in SCHEDULERS {
        let digest = || {
            let (r, trace) = run_cell_traced(
                contended_cell(Benchmark::Vacation, scheduler, 13).with_cache(true),
            );
            assert!(r.completed);
            let m = &r.metrics;
            format!(
                "commits={} aborts={} messages={} ended_at={} trace={}",
                m.merged.commits,
                m.merged.total_aborts(),
                m.messages,
                m.ended_at.as_nanos(),
                trace.to_jsonl()
            )
        };
        assert_eq!(
            digest(),
            digest(),
            "cache-on run under {} did not repeat",
            scheduler.label()
        );
    }
}

#[test]
fn cache_counters_reconcile_with_epoch_sums_under_every_scheduler() {
    // The passive epoch sampler and the end-of-run counters are maintained
    // on different paths (per-epoch deltas vs monotone totals), so their
    // agreement cross-checks the cache instrumentation.
    for scheduler in SCHEDULERS {
        let who = scheduler.label();
        let cell = contended_cell(Benchmark::Bank, scheduler, 9).with_cache(true);
        let (r, reports) = run_cell_telemetry(cell);
        assert!(r.completed, "{who}: cache+telemetry stalled");
        assert!(
            reports.iter().all(|rep| rep.dropped_epochs == 0),
            "{who}: sampler dropped epochs"
        );
        let series = merge_epoch_series(&reports);
        let m = &r.metrics.merged;
        let sum = |f: fn(&EpochSample) -> u64| -> u64 { series.iter().map(f).sum() };
        for (name, epochs, counter) in [
            ("cache_hits", sum(|e| e.cache_hits), m.cache_hits),
            ("cache_misses", sum(|e| e.cache_misses), m.cache_misses),
            (
                "cache_invalidations",
                sum(|e| e.cache_invalidations),
                m.cache_invalidations,
            ),
            ("commits", sum(|e| e.commits), m.commits),
        ] {
            assert_eq!(
                epochs, counter,
                "{who}: epoch-sum {name} diverged from the end-of-run counter"
            );
        }
        assert!(m.cache_hits > 0, "{who}: contended cache-on run never hit");
    }
}

#[test]
fn latency_histograms_reconcile_with_their_counters_on_every_benchmark() {
    // Every node records into the run's one histogram set: one commit
    // latency and one retries record per commit, one queue wait per served
    // requester. A node that records twice, or not at all, breaks it.
    let mut served = 0;
    for benchmark in Benchmark::ALL {
        for scheduler in SCHEDULERS {
            for cache in [false, true] {
                let r = run_cell(contended_cell(benchmark, scheduler, 17).with_cache(cache));
                let m = &r.metrics.merged;
                assert!(r.completed && m.commits > 0);
                assert!(
                    m.histograms_reconcile(),
                    "{}/{} cache={cache}: {} commits, {} served; histogram counts \
                     {} / {} / {}",
                    benchmark.label(),
                    scheduler.label(),
                    m.commits,
                    m.queue_served,
                    m.commit_latency_hist.count(),
                    m.retries_per_commit.count(),
                    m.queue_wait_hist.count()
                );
                served += m.queue_served;
            }
        }
    }
    assert!(served > 0, "no cell served a queued requester");
}

#[test]
fn cache_reduces_messages_per_commit_on_contended_reads() {
    for benchmark in [Benchmark::Bank, Benchmark::Vacation] {
        let off = run_cell(contended_cell(benchmark, SchedulerKind::Rts, 21).with_cache(false));
        let on = run_cell(contended_cell(benchmark, SchedulerKind::Rts, 21).with_cache(true));
        assert!(off.completed && on.completed);
        // Same workload, same transaction population: commits must agree.
        assert_eq!(off.metrics.merged.commits, on.metrics.merged.commits);
        assert!(
            on.metrics.merged.cache_hits > 0,
            "{}: cache never hit (misses {})",
            benchmark.label(),
            on.metrics.merged.cache_misses
        );
        let mpc = |r: &closed_nesting_dstm::harness::CellResult| {
            r.metrics.messages as f64 / r.metrics.merged.commits.max(1) as f64
        };
        assert!(
            mpc(&on) < mpc(&off),
            "{}: cache did not reduce messages/commit ({:.2} on vs {:.2} off)",
            benchmark.label(),
            mpc(&on),
            mpc(&off)
        );
    }
}

#[test]
fn conflict_verdict_healing_does_not_lengthen_forwarding_chains() {
    // Satellite check on owner-guess staleness: with the cache on, conflict
    // verdicts heal the requester's owner guess, so tombstone forwards per
    // fetch must not rise — and on migration-heavy cells they drop.
    let mut shortened = false;
    for seed in [21u64, 33, 47] {
        let off = run_cell(
            contended_cell(Benchmark::Vacation, SchedulerKind::Rts, seed).with_cache(false),
        );
        let on = run_cell(
            contended_cell(Benchmark::Vacation, SchedulerKind::Rts, seed).with_cache(true),
        );
        assert!(off.completed && on.completed);
        let rate = |r: &closed_nesting_dstm::harness::CellResult| {
            r.metrics.merged.forwarded_reqs as f64 / r.metrics.merged.fetches_served.max(1) as f64
        };
        assert!(
            rate(&on) <= rate(&off),
            "seed {seed}: forwards per served fetch rose with healing on \
             ({:.3} vs {:.3})",
            rate(&on),
            rate(&off)
        );
        if rate(&on) < rate(&off) {
            shortened = true;
        }
    }
    assert!(
        shortened,
        "owner-guess healing never shortened a forwarding chain on any seed"
    );
}

#[test]
fn a_zombie_tree_walk_is_aborted_instead_of_spinning_forever() {
    // With the cache on, an attempt may read a stale cached copy next to
    // fresh ones until its next validation. On this seed an RB Tree walk
    // over such a view closes a cycle through nodes the attempt already
    // holds: every step is served locally, no event is ever scheduled, and
    // before the step limit in `Node::drive` the handler never returned.
    use closed_nesting_dstm::harness::runner::{build_system, take_framed_trace};
    use closed_nesting_dstm::hyflow::{AbortCause, ProtoEvent};

    let mut cell = Cell::new(Benchmark::RbTree, SchedulerKind::Tfa, 10, 0.9)
        .with_txns(10)
        .with_cache(true)
        .with_seed(0xba08_d4da_75ec_ca7b);
    cell.dstm.trace_protocol = true;
    let mut system = build_system(&cell);
    let metrics = system.run_default();
    assert!(system.all_done(), "the reproducer stalled");
    assert_eq!(metrics.merged.commits, 100, "every transaction commits");
    system
        .try_object_state()
        .expect("single writable copy per object");

    let trace = take_framed_trace(&mut system, SchedulerKind::Tfa, &metrics.merged);
    // The guard's abort is a forward-validation failure that blames no
    // object (a real one always names the stale object it found).
    let zombies = trace
        .records
        .iter()
        .filter(|r| {
            matches!(
                &r.ev,
                ProtoEvent::TxAbort {
                    cause: AbortCause::ForwardValidation,
                    oid: None,
                    ..
                }
            )
        })
        .count();
    assert!(zombies > 0, "the seed no longer reaches the zombie walk");

    let report = audit(&trace);
    assert!(report.ok(), "audit failed: {:?}", report.violations);
    assert!(report.summary_checked);
}
