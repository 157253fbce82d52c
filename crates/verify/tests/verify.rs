//! End-to-end tests for the two verification prongs.
//!
//! The mutation test is the load-bearing one: it plants a fault (a
//! duplicated commit record) that only manifests under perturbed
//! schedules, and asserts the fuzz loop detects it, shrinks the
//! triggering schedule to a minimal reproducer, and that the reproducer
//! text round-trips.

use dstm_sim::{Perturb, Schedule};
use dstm_verify::{
    check_model, fuzz_mutated, parse_reproducer, reproducer_text, run_episode, CheckReport,
    EpisodeSpec, FuzzConfig, ModelCfg,
};
use hyflow_dstm::{ProtoEvent, TraceLog, TraceRecord};
use rts_core::SchedulerKind;

// -- prong 2: small-model checker ----------------------------------------

fn assert_exhausted(cfg: &ModelCfg, report: &CheckReport) {
    assert!(
        report.complete,
        "{:?}: exploration hit a cap (explored {})",
        cfg.scheduler, report.explored
    );
    assert!(report.explored > 0);
    assert!(report.terminals > 0, "no quiescent state ever reached");
    assert!(
        report.ok(),
        "{:?}: model checker found violations: {:#?}",
        cfg.scheduler,
        report.violations
    );
}

/// Every scheduler exhausts the default 3-node / 2-object / 2-deep model
/// with zero violations. (The same sweep the CI smoke job runs via the
/// binary; kept small enough for a debug-profile test run.)
#[test]
fn check_exhausts_default_model_for_all_schedulers() {
    for scheduler in [
        SchedulerKind::Tfa,
        SchedulerKind::TfaBackoff,
        SchedulerKind::Rts,
    ] {
        let cfg = ModelCfg {
            scheduler,
            ..ModelCfg::default()
        };
        let report = check_model(&cfg);
        assert_exhausted(&cfg, &report);
        assert!(
            report.max_aborts_seen > 0,
            "{scheduler:?}: no interleaving ever produced a conflict — \
             the model is not exercising contention"
        );
    }
}

/// The cache-off model has a much larger reachable space (every read is a
/// remote fetch, and fetch retries never revisit a state), so run it as a
/// bounded sweep: the oracles must stay clean over everything explored.
#[test]
fn bounded_cache_off_model_stays_clean() {
    let cfg = ModelCfg {
        scheduler: SchedulerKind::Rts,
        cache: false,
        max_states: 4_000,
        max_depth: 120,
        ..ModelCfg::default()
    };
    let report = check_model(&cfg);
    assert!(report.ok(), "violations: {:#?}", report.violations);
    assert!(report.explored > 0);
}

/// Parent-scope adjudication is unbounded by construction (retry loops
/// never revisit a state), so a capped run must terminate via the cap,
/// still violation-free, and must actually reach the scheduler: RTS parks
/// at least one requester.
#[test]
fn bounded_parent_scope_run_reaches_the_scheduler() {
    let cfg = ModelCfg {
        scheduler: SchedulerKind::Rts,
        parent_scope: true,
        max_states: 4_000,
        max_depth: 120,
        ..ModelCfg::default()
    };
    let report = check_model(&cfg);
    assert!(report.ok(), "violations: {:#?}", report.violations);
    assert!(!report.complete, "parent scope should hit the state cap");
    assert!(report.max_aborts_seen > 0);
    assert!(
        report.max_enqueued_seen > 0,
        "RTS never enqueued a requester under parent scope"
    );
}

// -- prong 1: fuzz episodes ----------------------------------------------

fn perturbed_schedule() -> Schedule {
    Schedule {
        seed: 0xD15C_0B01,
        perturbations: vec![
            Perturb::Delay {
                push_step: 7,
                extra_ns: 1_500_000,
            },
            Perturb::TieSwap {
                pop_step: 31,
                rank: 1,
            },
            Perturb::Delay {
                push_step: 64,
                extra_ns: 250_000,
            },
        ],
    }
}

/// Same schedule ⇒ bit-identical episode, down to the trace digest.
#[test]
fn episode_replay_is_bit_identical() {
    let spec = EpisodeSpec::default();
    let schedule = perturbed_schedule();
    let a = run_episode(&spec, &schedule);
    let b = run_episode(&spec, &schedule);
    assert!(a.ok(), "violations: {:#?}", a.violations);
    assert_eq!(
        a.digest, b.digest,
        "replay diverged under the same schedule"
    );
    assert_eq!(a.commits, b.commits);
    assert_eq!((a.pushes, a.pops), (b.pushes, b.pops));
}

/// Different perturbations really change behavior (otherwise the fuzzer
/// explores nothing).
#[test]
fn perturbations_change_the_episode_digest() {
    let spec = EpisodeSpec::default();
    let base = Schedule {
        seed: 0xD15C_0B01,
        perturbations: Vec::new(),
    };
    let a = run_episode(&spec, &base);
    let b = run_episode(&spec, &perturbed_schedule());
    assert!(a.ok() && b.ok());
    assert_ne!(
        a.digest, b.digest,
        "a delayed+reordered schedule produced the exact same trace"
    );
}

/// The planted "bug", which triggers under any perturbed schedule:
/// duplicate the first commit record, which breaks both the audit span
/// pairing and the summary cross-check.
fn duplicate_first_commit(schedule: &Schedule, trace: &mut TraceLog) {
    if schedule.perturbations.is_empty() {
        return;
    }
    let mut records: Vec<TraceRecord> = trace.records.iter().collect();
    if let Some(pos) = records
        .iter()
        .position(|r| matches!(r.ev, ProtoEvent::TxCommit { .. }))
    {
        records.insert(pos, records[pos].clone());
        *trace = records.into_iter().collect();
    }
}

/// Mutation test: plant a fault that only fires under perturbed schedules
/// (a duplicated commit record in the trace) and assert the fuzz loop
/// catches it via the offline oracles and shrinks the triggering schedule
/// to a minimal reproducer.
#[test]
fn fuzz_catches_and_shrinks_a_planted_fault() {
    let spec = EpisodeSpec::default();
    let cfg = FuzzConfig {
        episodes: 50,
        ..FuzzConfig::default()
    };
    let report = fuzz_mutated(&spec, &cfg, &duplicate_first_commit, &mut |_, _| {});
    let failure = report
        .failure
        .expect("fuzz never caught the planted duplicate-commit fault");
    assert!(
        !failure.violations.is_empty(),
        "failure reported without violations"
    );
    assert!(
        failure.shrunk.perturbations.len() <= 10,
        "shrinker left {} perturbations (wanted <= 10): {:?}",
        failure.shrunk.perturbations.len(),
        failure.shrunk.perturbations
    );
    // Any non-empty perturbation list triggers the fault, so ddmin must
    // reach the 1-event minimum.
    assert_eq!(
        failure.shrunk.perturbations.len(),
        1,
        "shrinker stopped early: {:?}",
        failure.shrunk.perturbations
    );
    // The shrunk schedule still reproduces standalone (what `replay` runs).
    let outcome = dstm_verify::run_episode_mutated(&spec, &failure.shrunk, &duplicate_first_commit);
    assert!(!outcome.ok(), "shrunk schedule no longer reproduces");
}

/// The on-disk reproducer format round-trips spec + schedule exactly.
#[test]
fn reproducer_text_round_trips() {
    let spec = EpisodeSpec {
        benchmark: dstm_benchmarks::Benchmark::Vacation,
        scheduler: SchedulerKind::TfaBackoff,
        nodes: 6,
        txns: 5,
        cache: false,
    };
    let schedule = perturbed_schedule();
    let text = reproducer_text(&spec, &schedule);
    let (spec2, schedule2) = parse_reproducer(&text).expect("reproducer must parse");
    assert_eq!(spec, spec2);
    assert_eq!(schedule, schedule2);
    // And a reproducer with comments / blank lines still parses.
    let commented = format!("# written by a test\n\n{text}\n# trailing comment\n");
    let (spec3, schedule3) = parse_reproducer(&commented).expect("comments must be tolerated");
    assert_eq!(spec, spec3);
    assert_eq!(schedule, schedule3);
}

/// A clean fuzz sweep over a non-default cell stays clean (the CI smoke
/// configuration, miniaturized).
#[test]
fn short_clean_fuzz_sweep() {
    let spec = EpisodeSpec {
        scheduler: SchedulerKind::Tfa,
        ..EpisodeSpec::default()
    };
    let cfg = FuzzConfig {
        episodes: 30,
        ..FuzzConfig::default()
    };
    let report = dstm_verify::fuzz(&spec, &cfg, |_, _| {});
    assert!(
        report.failure.is_none(),
        "clean protocol flagged: {:#?}",
        report.failure.map(|f| f.violations)
    );
    assert_eq!(report.episodes_run, 30);
}
