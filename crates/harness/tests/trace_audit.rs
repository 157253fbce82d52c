//! End-to-end: record real runs with protocol tracing, round-trip the
//! JSONL, and audit the invariants offline — the same path the CI smoke
//! job exercises through the `dstm-trace` binary.

use dstm_benchmarks::Benchmark;
use dstm_harness::experiments::scenarios::run_collision_traced;
use dstm_harness::traceio::{analyze, audit, DEFAULT_ANALYZE_EPOCH_NS};
use dstm_harness::{run_cell_traced, Cell};
use hyflow_dstm::{ProtoEvent, TraceLog};
use rts_core::{SchedulerKind, TxId};
use std::collections::HashSet;

fn audit_round_tripped(trace: &TraceLog) -> dstm_harness::AuditReport {
    // Audit the parsed-back trace, not the in-memory one, so the JSONL
    // encoding itself is under test.
    let parsed = TraceLog::parse_jsonl(&trace.to_jsonl()).expect("trace must parse");
    assert_eq!(parsed.records.len(), trace.records.len());
    audit(&parsed)
}

#[test]
fn fig3_scenario_trace_passes_audit() {
    let (result, trace) = run_collision_traced(SchedulerKind::Rts, 6, 2);
    assert!(result.all_done);
    let report = audit_round_tripped(&trace);
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(report.summary_checked, "RunSummary record missing");
    assert!(report.commits_checked as u64 >= result.metrics.merged.commits);
    // The RTS collision parks requesters, so enqueue decisions must appear.
    assert!(trace
        .records
        .iter()
        .any(|r| matches!(&r.ev, ProtoEvent::SchedDecision { .. })));
}

#[test]
fn fig2_tfa_scenario_trace_passes_audit() {
    let (result, trace) = run_collision_traced(SchedulerKind::Tfa, 6, 0);
    assert!(result.all_done);
    let report = audit_round_tripped(&trace);
    assert!(report.ok(), "violations: {:?}", report.violations);
    // Fig. 2 shows aborts; every one must appear as a span.
    let aborts = trace
        .records
        .iter()
        .filter(|r| matches!(&r.ev, ProtoEvent::TxAbort { .. }))
        .count() as u64;
    assert_eq!(aborts, result.metrics.merged.total_aborts());
}

#[test]
fn benchmark_cell_traces_pass_audit_under_all_schedulers() {
    for s in [
        SchedulerKind::Tfa,
        SchedulerKind::TfaBackoff,
        SchedulerKind::Rts,
    ] {
        let mut cell = Cell::new(Benchmark::Bank, s, 4, 0.5).with_txns(4);
        cell.params.objects_per_node = 4;
        let (result, trace) = run_cell_traced(cell);
        assert!(result.completed, "{s:?} cell stalled");
        let report = audit_round_tripped(&trace);
        assert!(report.ok(), "{s:?} violations: {:?}", report.violations);
        assert!(report.summary_checked);
        assert_eq!(report.commits_checked as u64, result.metrics.merged.commits);
    }
}

#[test]
fn concatenated_runs_are_audited_one_by_one() {
    // The Fig. 2 and Fig. 3 traces, one file after the other: each run has
    // its own version chains and its own `RunSummary` to reconcile with.
    let (fig2, first) = run_collision_traced(SchedulerKind::Tfa, 6, 0);
    let (fig3, second) = run_collision_traced(SchedulerKind::Rts, 6, 2);
    let concatenated = |second: &TraceLog| {
        TraceLog::parse_jsonl(&(first.to_jsonl() + &second.to_jsonl())).expect("trace must parse")
    };
    let report = audit(&concatenated(&second));
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(report.summary_checked);
    assert_eq!(
        report.commits_checked as u64,
        fig2.metrics.merged.commits + fig3.metrics.merged.commits
    );

    // `analyze` splits the log the same way, and counts each run's records
    // by kind on their own. Both runs number their transactions from
    // scratch, so a chain that crossed from one run into the other would
    // join strangers: every link of the longest chain must be an abort of
    // one and the same run.
    let both = analyze(&concatenated(&second), DEFAULT_ANALYZE_EPOCH_NS);
    assert!(both.ok(), "mismatches: {:?}", both.mismatches);
    let by_kind = |run: &TraceLog| {
        let mut counts = [0u64; ProtoEvent::KINDS];
        for r in &run.records {
            counts[r.ev.kind_index()] += 1;
        }
        counts
    };
    let census: Vec<_> = both.runs.iter().map(|p| p.by_kind).collect();
    assert_eq!(census, [by_kind(&first), by_kind(&second)]);
    let text = both.render();
    assert!(
        text.starts_with(&format!("analyzed {} records (2 runs)\n", both.records)),
        "{text}"
    );
    // Each scenario's trace names its run like a sweep cell's does.
    for (k, run, label) in [(1, &first, "TFA @ 7 nodes"), (2, &second, "RTS @ 9 nodes")] {
        let header = format!("run {k} census [{label}]: {} records, ", run.records.len());
        assert!(text.contains(&header), "{text}");
    }
    let links = |run: &TraceLog| -> HashSet<(TxId, TxId)> {
        run.records
            .iter()
            .filter_map(|r| match r.ev {
                ProtoEvent::TxAbort {
                    tx,
                    aggressor: Some(agg),
                    ..
                } => Some((tx, agg)),
                _ => None,
            })
            .collect()
    };
    let chain = &both.longest_chain;
    assert!(chain.len() > 1, "the collisions abort on a known aggressor");
    assert!(
        [links(&first), links(&second)]
            .iter()
            .any(|run| chain.windows(2).all(|l| run.contains(&(l[0], l[1])))),
        "chain {chain:?} is not one run's"
    );

    // A lost update in the second run is still found, and named by its run.
    let mut records: Vec<_> = second.records.iter().collect();
    let last_write = records
        .iter_mut()
        .rev()
        .find_map(|r| match &mut r.ev {
            ProtoEvent::TxCommit { writes, .. } if !writes.is_empty() => Some(&mut writes[0]),
            _ => None,
        })
        .expect("the Fig. 3 run commits writes");
    last_write.1 = 0;
    let planted: TraceLog = records.into_iter().collect();
    let report = audit(&concatenated(&planted));
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.starts_with("run 2: lost update")),
        "violations: {:?}",
        report.violations
    );
}

#[test]
fn empty_trace_fails_audit() {
    // Regression: a truncated capture or untraced run must not vacuously
    // pass (`dstm-trace audit` exits non-zero on a violating report).
    let report = audit(&TraceLog::default());
    assert!(!report.ok(), "empty trace passed the audit");
    assert!(
        report.violations[0].contains("no protocol records"),
        "unexpected violation: {:?}",
        report.violations
    );
}

#[test]
fn header_only_trace_fails_audit() {
    use dstm_sim::SimTime;
    use hyflow_dstm::NodeMetrics;
    let mut trace = TraceLog::default();
    trace.push_run_info(SchedulerKind::Rts, 4);
    trace.push_summary(SimTime(1_000), &NodeMetrics::default());
    // Round-trip through JSONL like the CLI does.
    let parsed = TraceLog::parse_jsonl(&trace.to_jsonl()).expect("header-only trace must parse");
    let report = audit(&parsed);
    assert!(!report.ok(), "header-only trace passed the audit");
    assert!(report.violations[0].contains("no protocol records"));
}

#[test]
fn auditing_a_hot_object_takes_milliseconds() {
    // One object installed 50 000 times, every commit reading the version
    // before its own: each read's window lookup must not scan the
    // object's whole history.
    use dstm_sim::SimTime;
    use hyflow_dstm::TraceRecord;
    use rts_core::{ObjectId, TxId};
    const COMMITS: u64 = 50_000;
    let o = ObjectId(1);
    let records = (0..COMMITS)
        .map(|i| TraceRecord {
            at: SimTime(10 * (i + 1)),
            node: 0,
            ev: ProtoEvent::TxCommit {
                tx: TxId::new(0, i + 1),
                attempt: 0,
                nested_committed: 0,
                reads: vec![(o, i)],
                writes: vec![(o, i, i + 1)],
            },
        })
        .collect();
    let log = TraceLog { records };
    let started = std::time::Instant::now();
    let report = audit(&log);
    let took = started.elapsed();
    assert!(
        report.ok(),
        "first violation: {:?}",
        report.violations.first()
    );
    assert_eq!(report.reads_checked as u64, COMMITS);
    assert!(
        took < std::time::Duration::from_secs(1),
        "audit of {COMMITS} installs of one object took {took:?}"
    );
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // Determinism guard: recording events must not change any simulated
    // outcome — identical commits, messages, and virtual elapsed time.
    let mk = || {
        let mut c = Cell::new(Benchmark::LinkedList, SchedulerKind::Rts, 4, 0.5).with_txns(4);
        c.params.objects_per_node = 4;
        c
    };
    let plain = dstm_harness::run_cell(mk());
    let (traced, trace) = run_cell_traced(mk());
    assert!(!trace.records.is_empty());
    assert_eq!(plain.metrics.merged.commits, traced.metrics.merged.commits);
    assert_eq!(
        plain.metrics.merged.total_aborts(),
        traced.metrics.merged.total_aborts()
    );
    assert_eq!(plain.metrics.messages, traced.metrics.messages);
    assert_eq!(plain.metrics.elapsed, traced.metrics.elapsed);
}
