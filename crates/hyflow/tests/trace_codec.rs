//! Property tests for the trace text codec and the run-wide log's order.
//!
//! * every `ProtoEvent` variant, with field values biased towards the edges
//!   of their types, survives `write_jsonl` → `parse` unchanged;
//! * the layout reader and the keyed reader each read that line back to
//!   the same record, and on the same record's line shuffled, padded, with
//!   unknown or repeated keys, a narrow field past its type or a 20-digit
//!   number, `parse` answers exactly what the keyed reader alone does;
//! * mangled lines (truncated, byte-flipped, spliced) make `parse` and
//!   `parse_jsonl` return `Ok` or `Err` — never panic — and whatever they do
//!   accept re-exports to text that parses to the same record;
//! * `ProtoTrace::take` on a log that nodes appended to in dispatch order
//!   equals the obvious reference — split by node, flatten, stable sort by
//!   `(at, node)` — on pushes full of duplicate timestamps.

use dstm_sim::{SimDuration, SimTime};
use hyflow_dstm::{AbortCause, ProtoEvent, ProtoTrace, TraceLog, TraceRecord, Verdict};
use proptest::collection::vec;
use proptest::prelude::*;
use rts_core::{ObjectId, SchedulerKind, TxId, TxKind};

const VARIANTS: usize = 12;

/// Spread raw entropy over the interesting parts of `u64`: zero, small
/// values (what real traces hold), the `u32` boundary, and the full range.
fn edge(w: u64) -> u64 {
    match w % 4 {
        0 => (w >> 2) % 1_000,
        1 => u64::from(u32::MAX) - (w >> 2) % 2,
        2 => u64::MAX - (w >> 2) % 2,
        _ => w,
    }
}

/// Build a record of variant `variant % 12` from 16 words of entropy.
fn record_from(variant: usize, w: &[u64]) -> TraceRecord {
    let n = |i: usize| edge(w[i]);
    let n32 = |i: usize| edge(w[i]).min(u64::from(u32::MAX)) as u32;
    let tx = TxId::new(n32(0), n(1));
    let oid = ObjectId(n(2));
    let attempt = n32(3);
    let ev = match variant % VARIANTS {
        0 => ProtoEvent::TxStart {
            tx,
            kind: TxKind(n(4).min(u64::from(u16::MAX)) as u16),
            attempt,
        },
        1 => ProtoEvent::TxForward {
            tx,
            attempt,
            oid,
            wv_old: n(4),
            wv_new: n(5),
        },
        2 => ProtoEvent::TxCommit {
            tx,
            attempt,
            nested_committed: n(4),
            reads: (0..w[5] % 5)
                .map(|i| (ObjectId(n(6) ^ i), n(7).wrapping_add(i)))
                .collect(),
            writes: (0..w[8] % 4)
                .map(|i| (ObjectId(n(9) ^ i), n(10), n(11).wrapping_sub(i)))
                .collect(),
        },
        3 => ProtoEvent::TxAbort {
            tx,
            attempt,
            cause: AbortCause::ALL[(w[4] % 4) as usize],
            nested_parent: n(5),
            backoff: SimDuration(n(6)),
            wasted_ns: n(7),
            msgs: n(8),
            oid: (w[9] & 1 == 0).then_some(oid),
            aggressor: (w[10] & 1 == 0).then(|| TxId::new(n32(11), n(12))),
        },
        4 => ProtoEvent::NestedOpen {
            tx,
            attempt,
            level: n32(4),
            kind: TxKind(n(5).min(u64::from(u16::MAX)) as u16),
        },
        5 => ProtoEvent::NestedCommit {
            tx,
            attempt,
            level: n32(4),
        },
        6 => ProtoEvent::NestedAbort {
            tx,
            attempt,
            level: n32(4),
            own: n(5),
            parent: n(6),
        },
        7 => ProtoEvent::SchedDecision {
            oid,
            tx,
            attempt,
            local_cl: n32(4),
            requester_cl: n32(5),
            window_requests: n32(6),
            executed: SimDuration(n(7)),
            remaining: SimDuration(n(8)),
            queue_depth: n(9),
            bk: SimDuration(n(10)),
            threshold: (w[11] & 1 == 0).then(|| n32(12)),
            verdict: [Verdict::Abort, Verdict::AbortBackoff, Verdict::Enqueue]
                [(w[13] % 3) as usize],
            backoff: SimDuration(n(14)),
        },
        8 => ProtoEvent::QueueServed {
            oid,
            tx,
            attempt,
            wait: SimDuration(n(4)),
        },
        9 => ProtoEvent::Migrate {
            oid,
            tx,
            from: n32(4),
            to: n32(5),
            version: n(6),
        },
        10 => ProtoEvent::RunInfo {
            scheduler: [
                SchedulerKind::Rts,
                SchedulerKind::Tfa,
                SchedulerKind::TfaBackoff,
                SchedulerKind::Ats,
                SchedulerKind::BiInterval,
            ][(w[4] % 5) as usize],
            nodes: n(5),
        },
        _ => {
            // Cache counters are written only when one is nonzero.
            let cached = w[12] & 1 == 0;
            ProtoEvent::RunSummary {
                commits: n(0),
                aborts: n(1),
                nested_own: n(2),
                nested_parent: n(3),
                nested_commits: n(4),
                wasted_ns: n(5),
                wasted_msgs: n(6),
                attributed: n(7),
                cache_hits: if cached { n(8) } else { 0 },
                cache_misses: if cached { n(9) } else { 0 },
                cache_invalidations: if cached { n(10) } else { 0 },
            }
        }
    };
    TraceRecord {
        at: SimTime(n(15)),
        node: n32(14),
        ev,
    }
}

fn line_of(rec: &TraceRecord) -> String {
    let mut line = String::new();
    rec.write_jsonl(&mut line);
    line
}

/// The line's top-level `"key":value` members, in order.
fn members(line: &str) -> Vec<&str> {
    let body = &line[1..line.len() - 1];
    let (mut out, mut depth, mut start) = (Vec::new(), 0, 0);
    for (i, b) in body.bytes().enumerate() {
        match b {
            b'[' => depth += 1,
            b']' => depth -= 1,
            b',' if depth == 0 => {
                out.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&body[start..]);
    out
}

/// `line` with the first digit run after `"key":` (or `"key":[`) replaced
/// by `value`; `None` if the line has no such key.
fn with_value(line: &str, key: &str, value: &str) -> Option<String> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let start = at + usize::from(line[at..].starts_with('['));
    let len = line[start..].bytes().take_while(u8::is_ascii_digit).count();
    Some(format!("{}{value}{}", &line[..start], &line[start + len..]))
}

/// Numeric keys narrower than `u64`, with one past their type's maximum.
const NARROW: [(&str, u64); 12] = [
    ("node", 1 << 32),
    ("tx", 1 << 32),
    ("aggr", 1 << 32),
    ("attempt", 1 << 32),
    ("level", 1 << 32),
    ("kind", 1 << 16),
    ("from", 1 << 32),
    ("to", 1 << 32),
    ("local_cl", 1 << 32),
    ("requester_cl", 1 << 32),
    ("window_requests", 1 << 32),
    ("threshold", 1 << 32),
];

/// `rec`'s line in layouts the writer never produces, each paired with
/// what the keyed reader must make of it: a record, or (`None`) an error.
fn non_canonical(rec: &TraceRecord, w: &[u64]) -> Vec<(String, Option<TraceRecord>)> {
    let line = line_of(rec);
    let line = line.trim_end();
    let m = members(line);
    let mut out = Vec::new();

    // Keys shuffled (Fisher–Yates on the entropy words).
    let mut shuffled = m.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, (w[i % w.len()] % (i as u64 + 1)) as usize);
    }
    out.push((format!("{{{}}}", shuffled.join(",")), Some(rec.clone())));

    // Whitespace at token boundaries, where the grammar allows it.
    let spaced: Vec<String> = m.iter().map(|kv| kv.replacen("\":", "\" :\t", 1)).collect();
    out.push((
        format!(" {{ {} }}\t", spaced.join(" , ")),
        Some(rec.clone()),
    ));

    // An unknown key first or further in; a repeated key last.
    let unknown = "\"later\":[[1,2],\"x\",[]]";
    let mut with_unknown = m.clone();
    with_unknown.insert(1 + (w[0] as usize) % m.len(), unknown);
    out.push((format!("{{{}}}", with_unknown.join(",")), Some(rec.clone())));
    out.push((format!("{{{unknown},{}}}", m.join(",")), Some(rec.clone())));
    let repeated = m[(w[1] as usize) % m.len()];
    out.push((format!("{{{},{repeated}}}", m.join(",")), Some(rec.clone())));

    // A narrow field one past its type.
    for (key, past) in NARROW {
        if let Some(l) = with_value(line, key, &past.to_string()) {
            out.push((l, None));
        }
    }

    // Numbers of 20 digits, out of range and in.
    for (digits, at) in [
        ("18446744073709551616", None),
        ("99999999999999999999", None),
        ("18446744073709551615", Some(u64::MAX)),
        ("00000000000000000007", Some(7)),
    ] {
        let l = with_value(line, "at", digits).expect("every line has \"at\"");
        let want = at.map(|at| TraceRecord {
            at: SimTime(at),
            ..rec.clone()
        });
        out.push((l, want));
    }
    out
}

/// Whatever the parser accepts must be a fixed point of export → parse.
fn check_accepted(rec: &TraceRecord) -> Result<(), TestCaseError> {
    let again = TraceRecord::parse(line_of(rec).trim_end());
    prop_assert_eq!(again.as_ref(), Ok(rec));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    #[test]
    fn every_variant_round_trips_at_the_edges(
        variant in 0usize..VARIANTS,
        words in vec(0u64..=u64::MAX, 16..17),
    ) {
        let rec = record_from(variant, &words);
        let line = line_of(&rec);
        prop_assert!(line.ends_with("}\n") && line.is_ascii());
        let back = TraceRecord::parse(line.trim_end());
        prop_assert_eq!(back, Ok(rec), "line was {}", line);
    }

    #[test]
    fn the_layout_reader_agrees_with_the_keyed_reader(
        variant in 0usize..VARIANTS,
        words in vec(0u64..=u64::MAX, 16..17),
    ) {
        let rec = record_from(variant, &words);
        let line = line_of(&rec);
        let line = line.trim_end();
        // The writer's own layout: each reader alone reads `rec`.
        prop_assert_eq!(TraceRecord::parse_layout(line), Some(rec.clone()), "line was {}", line);
        prop_assert_eq!(TraceRecord::parse_keyed(line), Ok(rec.clone()), "line was {}", line);
        // Any other layout: `parse` answers exactly what the keyed reader
        // alone does — the same record, or the same error text.
        for (other, want) in non_canonical(&rec, &words) {
            let keyed = TraceRecord::parse_keyed(&other);
            prop_assert_eq!(TraceRecord::parse(&other), keyed.clone(), "line was {}", other);
            match want {
                Some(want) => prop_assert_eq!(keyed, Ok(want), "line was {}", other),
                None => prop_assert!(keyed.is_err(), "line was {}", other),
            }
        }
    }

    #[test]
    fn mangled_lines_never_panic(
        variant in 0usize..VARIANTS,
        other in 0usize..VARIANTS,
        words in vec(0u64..=u64::MAX, 16..17),
        cut in 0usize..400,
        flips in vec((0usize..400, 0u8..128), 1..4),
    ) {
        let a = line_of(&record_from(variant, &words));
        let b = line_of(&record_from(other, &words));
        let (a, b) = (a.trim_end(), b.trim_end());

        // Truncation.
        let truncated = &a[..cut % (a.len() + 1)];
        if let Ok(rec) = TraceRecord::parse(truncated) {
            check_accepted(&rec)?;
        }

        // Byte flips (kept ASCII so the line stays a `&str`).
        let mut flipped = a.as_bytes().to_vec();
        for &(at, byte) in &flips {
            let at = at % flipped.len();
            flipped[at] = byte;
        }
        let flipped = String::from_utf8(flipped).expect("ASCII stays UTF-8");
        if let Ok(rec) = TraceRecord::parse(&flipped) {
            check_accepted(&rec)?;
        }

        // Splice: a prefix of one line glued onto a suffix of another.
        let spliced = format!("{}{}", &a[..cut % (a.len() + 1)], &b[cut % (b.len() + 1)..]);
        if let Ok(rec) = TraceRecord::parse(&spliced) {
            check_accepted(&rec)?;
        }

        // The same garbage inside a multi-line text.
        let text = format!("{a}\n{truncated}\n\n{flipped}\n{spliced}\n{b}\n");
        if let Ok(log) = TraceLog::parse_jsonl(&text) {
            for rec in &log.records {
                check_accepted(rec)?;
            }
        }
    }

    #[test]
    fn take_equals_split_by_node_then_stable_sort(
        nodes in 1u32..9,
        pushes in vec((0u32..8, 0u64..8), 0..300),
    ) {
        // Three in four pushes keep the clock where it is, so most records
        // tie on `at` with their neighbours — across nodes and within one;
        // the `seq` of each record's `tx` makes every record distinguishable.
        let log = ProtoTrace::enabled();
        let handles: Vec<ProtoTrace> = (0..nodes).map(|_| log.clone()).collect();
        let mut streams: Vec<Vec<TraceRecord>> = vec![Vec::new(); nodes as usize];
        let mut at = 0u64;
        for (seq, &(node, d)) in (1u64..).zip(&pushes) {
            let node = node % nodes;
            at += d / 6;
            let rec = TraceRecord {
                at: SimTime(at),
                node,
                ev: ProtoEvent::NestedCommit {
                    tx: TxId::new(node, seq),
                    attempt: 0,
                    level: 1,
                },
            };
            handles[node as usize].push(rec.at, rec.node, rec.ev.clone());
            streams[node as usize].push(rec);
        }

        let mut reference: Vec<TraceRecord> = streams.into_iter().flatten().collect();
        reference.sort_by_key(|r| (r.at, r.node));

        prop_assert_eq!(log.take().records, reference);
    }
}
