//! The trace text formats are artefacts other tools consume, so they are
//! pinned byte for byte: FNV-64 digests of the JSONL and the Chrome
//! `trace_event` JSON of four fixed traced cells, a lossless
//! parse → re-export round trip on the same cells, and guards for the
//! Chrome exporter's end-of-run flush: deterministic, and run by run.
//!
//! The digests were taken from the pre-rewrite codec (the `write!`-based
//! writer, DOM parser and `{:.3}` float timestamps of PR 2); the
//! allocation-free codec that replaced it must reproduce them exactly.

use dstm_benchmarks::Benchmark;
use dstm_harness::traceio::to_chrome_trace;
use dstm_harness::{run_cell_traced, Cell};
use dstm_sim::SimTime;
use hyflow_dstm::{Fnv64, ProtoEvent, TraceLog, TraceRecord};
use rts_core::{SchedulerKind, TxId, TxKind};

/// One fixed 8-node Bank cell, contended enough (4 objects per node, half
/// writes) that every scheduler aborts, nests, forwards and migrates.
fn traced_cell(scheduler: SchedulerKind, cache: bool) -> TraceLog {
    let mut cell = Cell::new(Benchmark::Bank, scheduler, 8, 0.5)
        .with_txns(6)
        .with_cache(cache);
    cell.params.objects_per_node = 4;
    let (result, trace) = run_cell_traced(cell);
    assert!(result.completed, "{scheduler:?} cell stalled");
    trace
}

fn fnv(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(text.as_bytes());
    h.finish()
}

/// `(label, scheduler, cache, records, JSONL digest, Chrome digest)`.
const CELLS: [(&str, SchedulerKind, bool, usize, u64, u64); 4] = [
    (
        "RTS",
        SchedulerKind::Rts,
        false,
        1450,
        0x3944_82b9_2d60_5a1d,
        0xf89e_6f38_95de_5666,
    ),
    (
        "TFA",
        SchedulerKind::Tfa,
        false,
        1470,
        0xece7_af70_c0d3_cea8,
        0x9b80_7663_00a6_5351,
    ),
    (
        "TFA+Backoff",
        SchedulerKind::TfaBackoff,
        false,
        1527,
        0xdf7e_0a52_e27a_84a8,
        0x580d_247d_42ad_83b0,
    ),
    (
        "RTS cache-on",
        SchedulerKind::Rts,
        true,
        1468,
        0x7b17_2253_637d_06b4,
        0x49e8_434d_7017_84a9,
    ),
];

#[test]
fn jsonl_and_chrome_text_match_pinned_digests() {
    let mut kinds = std::collections::HashSet::new();
    for (label, scheduler, cache, records, jsonl_digest, chrome_digest) in CELLS {
        let trace = traced_cell(scheduler, cache);
        let got = (
            trace.records.len(),
            fnv(&trace.to_jsonl()),
            fnv(&to_chrome_trace(&trace)),
        );
        assert_eq!(
            got,
            (records, jsonl_digest, chrome_digest),
            "{label}: (records, JSONL digest, Chrome digest) moved — got \
             ({}, {:#018x}, {:#018x})",
            got.0,
            got.1,
            got.2
        );
        kinds.extend(trace.records.iter().map(|r| std::mem::discriminant(&r.ev)));
    }
    // The digests only pin what the cells emit: between them the four
    // cells must exercise every record kind.
    assert_eq!(kinds.len(), 12, "a ProtoEvent variant is not covered");
}

#[test]
fn parse_then_reexport_is_lossless_and_byte_equal() {
    for (label, scheduler, cache, ..) in CELLS {
        let trace = traced_cell(scheduler, cache);
        let text = trace.to_jsonl();
        let parsed = TraceLog::parse_jsonl(&text).expect("exported trace parses");
        assert_eq!(parsed.records, trace.records, "{label}: records changed");
        assert_eq!(parsed.to_jsonl(), text, "{label}: re-export differs");
        assert_eq!(
            to_chrome_trace(&parsed),
            to_chrome_trace(&trace),
            "{label}: Chrome export of the parsed log differs"
        );
    }
}

#[test]
fn chrome_export_of_unfinished_attempts_is_deterministic() {
    // A budget-cut run: 32 attempts (each with an open child) that never
    // commit or abort, so every span is closed by the end-of-log flush.
    let mut records = Vec::new();
    for i in 0..32u32 {
        let tx = TxId::new(i % 8, u64::from(i / 8) + 1);
        records.push(TraceRecord {
            at: SimTime(1_000 * u64::from(i)),
            node: tx.node,
            ev: ProtoEvent::TxStart {
                tx,
                kind: TxKind(1),
                attempt: 0,
            },
        });
        records.push(TraceRecord {
            at: SimTime(1_000 * u64::from(i) + 500),
            node: tx.node,
            ev: ProtoEvent::NestedOpen {
                tx,
                attempt: 0,
                level: 1,
                kind: TxKind(2),
            },
        });
    }
    let log: TraceLog = records.into_iter().collect();
    let first = to_chrome_trace(&log);
    assert_eq!(first.matches("unfinished").count(), 32);
    assert_eq!(first.matches("child L1").count(), 32);
    for _ in 0..4 {
        assert_eq!(to_chrome_trace(&log), first, "export order changed");
    }
    // Leftover spans are flushed in TxId order.
    let order: Vec<usize> = (0..8u32)
        .flat_map(|node| (1..=4u64).map(move |seq| TxId::new(node, seq)))
        .map(|tx| {
            first
                .find(&format!("\"{tx}#a0 unfinished\""))
                .expect("span present")
        })
        .collect();
    assert!(order.windows(2).all(|w| w[0] < w[1]), "not in TxId order");
}

#[test]
fn chrome_export_closes_each_runs_spans_at_that_runs_end() {
    let tx = TxId::new(0, 1);
    let rec = |at, ev| TraceRecord {
        at: SimTime(at),
        node: 0,
        ev,
    };
    let info = || {
        rec(
            0,
            ProtoEvent::RunInfo {
                scheduler: SchedulerKind::Rts,
                nodes: 1,
            },
        )
    };
    let start = |at| {
        rec(
            at,
            ProtoEvent::TxStart {
                tx,
                kind: TxKind(1),
                attempt: 0,
            },
        )
    };
    let mut summary = TraceLog::default();
    summary.push_summary(SimTime(9_000), &Default::default());
    // Run 1 leaves T0.1 open, with a child, at its summary; run 2 starts
    // and commits a T0.1 of its own.
    let open = ProtoEvent::NestedOpen {
        tx,
        attempt: 0,
        level: 1,
        kind: TxKind(2),
    };
    let mut first = vec![info(), start(5_000), rec(6_000, open)];
    first.extend(&summary.records);
    let commit = ProtoEvent::TxCommit {
        tx,
        attempt: 0,
        nested_committed: 0,
        reads: vec![],
        writes: vec![],
    };
    let second = vec![info(), start(1_000), rec(3_000, commit)];
    let spans = |records: &[TraceRecord]| -> Vec<String> {
        to_chrome_trace(&records.iter().cloned().collect())
            .lines()
            .filter(|l| l.contains("\"ph\":\"X\""))
            .map(|l| l.trim().trim_end_matches(',').to_string())
            .collect()
    };
    let alone = spans(&first);
    assert_eq!(
        alone,
        [
            "{\"name\":\"child L1\",\"cat\":\"nested\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\
             \"ts\":6.000,\"dur\":3.000}",
            "{\"name\":\"T0.1#a0 unfinished\",\"cat\":\"tx\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\
             \"ts\":5.000,\"dur\":4.000}",
        ]
    );
    let both = [first, second.clone()].concat();
    assert_eq!(spans(&both), [alone, spans(&second)].concat());
}
