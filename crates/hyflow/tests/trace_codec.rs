//! Property tests for the trace text codec and the run-wide log's order.
//!
//! * one record of every kind — optional fields present and absent, empty
//!   and non-empty tuple arrays, every scheduler label — is written as a
//!   pinned line, which `parse` reads back to that record;
//! * a `run_info` line naming a retired scheduler is an error naming the
//!   byte of its `scheduler` field, not a panic;
//! * every `ProtoEvent` variant, with field values biased towards the edges
//!   of their types, survives `write_jsonl` → `parse` unchanged;
//! * the same record's line in any form the writer never makes — shuffled,
//!   padded, with an unknown or repeated key, a narrow field past its type,
//!   a 20-digit or leading-zero number, a `run_summary` cache group that is
//!   all zero or partial, a line without the abort-attribution fields — is
//!   an error naming the byte where it leaves the writer's layout;
//! * mangled lines (truncated, byte-flipped, spliced) make `parse` and
//!   `parse_jsonl` return `Ok` or `Err` — never panic — and whatever they do
//!   accept is, byte for byte, what the writer makes of the record read;
//!   a text is accepted only as the writer makes it, so never with a blank,
//!   padded or unterminated line;
//! * records of every kind — every number 0 and at its type's maximum,
//!   every `Option` `None` and `Some`, tuple lists empty, short and longer
//!   than one length byte holds — collected into a `TraceLog` read back
//!   equal from its in-memory encoding, and export to the concatenation of
//!   their own lines;
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
            ][(w[4] % 3) as usize],
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

/// Where the first digit run after `"key":` (or `"key":[`) starts; `None`
/// if the line has no such key.
fn digits_of(line: &str, key: &str) -> Option<usize> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    Some(at + usize::from(line[at..].starts_with('[')))
}

/// `line` with the first digit run after `"key":` (or `"key":[`) replaced
/// by `value`; `None` if the line has no such key.
fn with_value(line: &str, key: &str, value: &str) -> Option<String> {
    let start = digits_of(line, key)?;
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

/// `run_summary`'s cache counters: on the line all together or not at all.
const CACHE_KEYS: [&str; 3] = ["cache_hits", "cache_misses", "cache_inval"];

/// `rec`'s line changed into lines the writer never makes.
fn non_canonical(rec: &TraceRecord, w: &[u64]) -> Vec<String> {
    let line = line_of(rec);
    let line = line.trim_end();
    let m = members(line);
    let object = |members: &[&str]| format!("{{{}}}", members.join(","));
    let mut out = Vec::new();

    // Keys shuffled (Fisher–Yates on the entropy words), and two swapped
    // if that left them in place.
    let mut shuffled = m.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, (w[i % w.len()] % (i as u64 + 1)) as usize);
    }
    if shuffled == m {
        shuffled.swap(0, 1);
    }
    out.push(object(&shuffled));

    // Whitespace at token boundaries: everywhere, after one comma, and
    // after the closing brace.
    let spaced: Vec<String> = m.iter().map(|kv| kv.replacen("\":", "\" :\t", 1)).collect();
    out.push(format!(" {{ {} }}\t", spaced.join(" , ")));
    let comma = 1 + (w[2] as usize) % (m.len() - 1);
    out.push(format!(
        "{{{}, {}}}",
        m[..comma].join(","),
        m[comma..].join(",")
    ));
    out.push(format!("{line} "));

    // An unknown key first, further in or last; a repeated key last.
    for unknown in ["\"later\":[[1,2],\"x\",[]]", "\"zz\":[1,[2]]"] {
        let mut with_unknown = m.clone();
        with_unknown.insert(1 + (w[0] as usize) % m.len(), unknown);
        out.push(object(&with_unknown));
        out.push(format!("{{{unknown},{}}}", m.join(",")));
    }
    let repeated = m[(w[1] as usize) % m.len()];
    out.push(format!("{{{},{repeated}}}", m.join(",")));

    // A narrow field one past its type.
    for (key, past) in NARROW {
        if let Some(l) = with_value(line, key, &past.to_string()) {
            out.push(l);
        }
    }

    // Numbers of 20 digits past u64, and numbers with a leading zero.
    for digits in ["18446744073709551616", "99999999999999999999"] {
        out.push(with_value(line, "at", digits).expect("every line has \"at\""));
    }
    out.push(with_value(line, "at", "00000000000000000007").expect("every line has \"at\""));
    for key in ["at", "node", "tx"] {
        if let Some(start) = digits_of(line, key) {
            out.push(format!("{}0{}", &line[..start], &line[start..]));
        }
    }

    // Lines from before abort attribution: no `wasted_ns`, `msgs`,
    // `wasted_msgs` or `attributed`.
    let attribution = [
        "\"wasted_ns\":",
        "\"msgs\":",
        "\"wasted_msgs\":",
        "\"attributed\":",
    ];
    let unattributed: Vec<&str> = m
        .iter()
        .copied()
        .filter(|kv| !attribution.iter().any(|key| kv.starts_with(key)))
        .collect();
    if unattributed.len() < m.len() {
        out.push(object(&unattributed));
    }

    // A `run_summary` whose cache counters are all written and all zero,
    // or only partly written.
    if let ProtoEvent::RunSummary { .. } = rec.ev {
        let zeroed = CACHE_KEYS
            .iter()
            .try_fold(line.to_string(), |l, key| with_value(&l, key, "0"));
        out.push(zeroed.unwrap_or_else(|| {
            format!(
                "{},\"cache_hits\":0,\"cache_misses\":0,\"cache_inval\":0}}",
                &line[..line.len() - 1]
            )
        }));
        let partial: Vec<&str> = m
            .iter()
            .copied()
            .filter(|kv| !kv.starts_with("\"cache_hits\":"))
            .collect();
        if partial.len() < m.len() {
            out.push(object(&partial));
        }
    }
    out
}

/// Whatever `parse` accepts must be exactly the line the writer makes of
/// the record it read.
fn check_accepted(line: &str) -> Result<(), TestCaseError> {
    if let Ok(rec) = TraceRecord::parse(line) {
        prop_assert_eq!(line_of(&rec), format!("{line}\n"));
    }
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
    fn every_line_the_writer_does_not_make_is_refused(
        variant in 0usize..VARIANTS,
        words in vec(0u64..=u64::MAX, 16..17),
    ) {
        let rec = record_from(variant, &words);
        for other in non_canonical(&rec, &words) {
            match TraceRecord::parse(&other) {
                Ok(read) => prop_assert!(false, "accepted {} as {:?}", other, read),
                Err(e) => prop_assert!(e.starts_with("byte "), "{}: {}", other, e),
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
        check_accepted(truncated)?;

        // Byte flips (kept ASCII so the line stays a `&str`).
        let mut flipped = a.as_bytes().to_vec();
        for &(at, byte) in &flips {
            let at = at % flipped.len();
            flipped[at] = byte;
        }
        let flipped = String::from_utf8(flipped).expect("ASCII stays UTF-8");
        check_accepted(&flipped)?;

        // Splice: a prefix of one line glued onto a suffix of another.
        let spliced = format!("{}{}", &a[..cut % (a.len() + 1)], &b[cut % (b.len() + 1)..]);
        check_accepted(&spliced)?;

        // The same garbage inside a multi-line text: what is accepted is
        // the writer's text, byte for byte — so never a text with a blank
        // line in it.
        let text = format!("{a}\n{truncated}\n{flipped}\n{spliced}\n{b}\n");
        if let Ok(log) = TraceLog::parse_jsonl(&text) {
            prop_assert_eq!(log.to_jsonl(), text);
        }
        let blank = format!("{a}\n{truncated}\n\n{flipped}\n{spliced}\n{b}\n");
        prop_assert!(TraceLog::parse_jsonl(&blank).is_err());
    }

    #[test]
    fn any_records_round_trip_through_the_encoding(
        picks in vec((0usize..VARIANTS, vec(0u64..=u64::MAX, 16..17)), 0..24),
    ) {
        let records: Vec<TraceRecord> =
            picks.iter().map(|(variant, words)| record_from(*variant, words)).collect();
        assert_round_trips(&records)?;
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

/// `records` collected into a log read back equal — owned, lent, and
/// through its JSONL — and export to the concatenation of their lines.
fn assert_round_trips(records: &[TraceRecord]) -> Result<(), TestCaseError> {
    let log: TraceLog = records.iter().cloned().collect();
    prop_assert_eq!(log.records.len(), records.len());
    prop_assert_eq!(log.records.iter().collect::<Vec<_>>(), records);
    let mut lent = log.records.reader();
    for want in records {
        prop_assert_eq!(lent.read(), Some(want));
    }
    prop_assert_eq!(lent.read(), None);
    let text = log.to_jsonl();
    prop_assert_eq!(&text, &records.iter().map(line_of).collect::<String>());
    let parsed = TraceLog::parse_jsonl(&text).map_err(TestCaseError::fail)?;
    prop_assert_eq!(parsed.records, log.records);
    Ok(())
}

#[test]
fn every_kind_round_trips_through_the_encoding_at_its_edges() {
    // Entropy words that `record_from` turns into: 0 everywhere, every
    // `Option` `Some`, lists empty (0); every number at its type's maximum,
    // `Some` (2); `u32::MAX` for wide and narrow numbers alike, `None`, one
    // element per list (1); small values, `None`, three elements (3).
    let mut records: Vec<TraceRecord> = (0..VARIANTS)
        .flat_map(|variant| [0, 2, 1, 3].map(|fill| record_from(variant, &[fill; 16])))
        .collect();
    // Lists longer than one length byte holds.
    let long = |n: u64| 0..n;
    records.push(TraceRecord {
        at: SimTime(u64::MAX),
        node: u32::MAX,
        ev: ProtoEvent::TxCommit {
            tx: TxId::new(u32::MAX, u64::MAX),
            attempt: u32::MAX,
            nested_committed: u64::MAX,
            reads: long(300).map(|i| (ObjectId(u64::MAX - i), i)).collect(),
            writes: long(200)
                .map(|i| (ObjectId(i), u64::MAX - i, i << 40))
                .collect(),
        },
    });
    let covered: std::collections::HashSet<usize> =
        records.iter().map(|r| r.ev.kind_index()).collect();
    assert_eq!(covered.len(), ProtoEvent::KINDS);
    assert_round_trips(&records).unwrap();
}

/// One record of every kind, covering the branches a whole-run digest can
/// miss — optional fields present and absent, empty and non-empty tuple
/// arrays, the cache counters of `run_summary` written and left out, every
/// scheduler label — each paired with the exact line the writer makes of it.
fn pinned() -> Vec<(TraceRecord, &'static str)> {
    let tx = TxId::new(3, 17);
    let rec = |at: u64, node: u32, ev: ProtoEvent| TraceRecord {
        at: SimTime(at),
        node,
        ev,
    };
    let abort = |oid: Option<u64>, aggressor: Option<TxId>| ProtoEvent::TxAbort {
        tx,
        attempt: 2,
        cause: AbortCause::QueueTimeout,
        nested_parent: 4,
        backoff: SimDuration(7_000_000),
        wasted_ns: 123_456,
        msgs: 9,
        oid: oid.map(ObjectId),
        aggressor,
    };
    let decision = |threshold: Option<u32>, verdict: Verdict| ProtoEvent::SchedDecision {
        oid: ObjectId(7),
        tx,
        attempt: 3,
        local_cl: 2,
        requester_cl: 1,
        window_requests: 5,
        executed: SimDuration(50),
        remaining: SimDuration(20),
        queue_depth: 2,
        bk: SimDuration(45),
        threshold,
        verdict,
        backoff: SimDuration(44),
    };
    let summary = |hits: u64, misses: u64, inval: u64| ProtoEvent::RunSummary {
        commits: 10,
        aborts: 4,
        nested_own: 2,
        nested_parent: 5,
        nested_commits: 12,
        wasted_ns: 1_000_000,
        wasted_msgs: 40,
        attributed: 3,
        cache_hits: hits,
        cache_misses: misses,
        cache_invalidations: inval,
    };
    let mut out = vec![
        (
            rec(
                5,
                1,
                ProtoEvent::TxStart {
                    tx,
                    kind: TxKind(2),
                    attempt: 0,
                },
            ),
            r#"{"at":5,"node":1,"ev":"tx_start","tx":[3,17],"kind":2,"attempt":0}"#,
        ),
        (
            rec(
                6,
                1,
                ProtoEvent::TxForward {
                    tx,
                    attempt: 1,
                    oid: ObjectId(9),
                    wv_old: 4,
                    wv_new: 11,
                },
            ),
            r#"{"at":6,"node":1,"ev":"tx_forward","tx":[3,17],"attempt":1,"oid":9,"wv_old":4,"wv_new":11}"#,
        ),
        (
            rec(
                7,
                1,
                ProtoEvent::TxCommit {
                    tx,
                    attempt: 0,
                    nested_committed: 0,
                    reads: vec![],
                    writes: vec![],
                },
            ),
            r#"{"at":7,"node":1,"ev":"tx_commit","tx":[3,17],"attempt":0,"nested_committed":0,"reads":[],"writes":[]}"#,
        ),
        (
            rec(
                8,
                1,
                ProtoEvent::TxCommit {
                    tx,
                    attempt: 2,
                    nested_committed: 3,
                    reads: vec![(ObjectId(1), 5), (ObjectId(2), 0)],
                    writes: vec![(ObjectId(1), 5, 9)],
                },
            ),
            r#"{"at":8,"node":1,"ev":"tx_commit","tx":[3,17],"attempt":2,"nested_committed":3,"reads":[[1,5],[2,0]],"writes":[[1,5,9]]}"#,
        ),
        (
            rec(
                9,
                1,
                ProtoEvent::TxCommit {
                    tx,
                    attempt: 1,
                    nested_committed: 1,
                    reads: vec![(ObjectId(4), 1)],
                    writes: vec![(ObjectId(4), 1, 2), (ObjectId(6), 0, 3)],
                },
            ),
            r#"{"at":9,"node":1,"ev":"tx_commit","tx":[3,17],"attempt":1,"nested_committed":1,"reads":[[4,1]],"writes":[[4,1,2],[6,0,3]]}"#,
        ),
        (
            rec(10, 1, abort(Some(42), Some(TxId::new(5, 77)))),
            r#"{"at":10,"node":1,"ev":"tx_abort","tx":[3,17],"attempt":2,"cause":"queue-timeout","nested_parent":4,"backoff":7000000,"wasted_ns":123456,"msgs":9,"oid":42,"aggr":[5,77]}"#,
        ),
        (
            rec(10, 1, abort(Some(42), None)),
            r#"{"at":10,"node":1,"ev":"tx_abort","tx":[3,17],"attempt":2,"cause":"queue-timeout","nested_parent":4,"backoff":7000000,"wasted_ns":123456,"msgs":9,"oid":42}"#,
        ),
        (
            rec(10, 1, abort(None, Some(TxId::new(5, 77)))),
            r#"{"at":10,"node":1,"ev":"tx_abort","tx":[3,17],"attempt":2,"cause":"queue-timeout","nested_parent":4,"backoff":7000000,"wasted_ns":123456,"msgs":9,"aggr":[5,77]}"#,
        ),
        (
            rec(10, 1, abort(None, None)),
            r#"{"at":10,"node":1,"ev":"tx_abort","tx":[3,17],"attempt":2,"cause":"queue-timeout","nested_parent":4,"backoff":7000000,"wasted_ns":123456,"msgs":9}"#,
        ),
        (
            rec(
                11,
                2,
                ProtoEvent::NestedOpen {
                    tx,
                    attempt: 0,
                    level: 1,
                    kind: TxKind(8),
                },
            ),
            r#"{"at":11,"node":2,"ev":"nested_open","tx":[3,17],"attempt":0,"level":1,"kind":8}"#,
        ),
        (
            rec(
                12,
                2,
                ProtoEvent::NestedCommit {
                    tx,
                    attempt: 0,
                    level: 1,
                },
            ),
            r#"{"at":12,"node":2,"ev":"nested_commit","tx":[3,17],"attempt":0,"level":1}"#,
        ),
        (
            rec(
                13,
                2,
                ProtoEvent::NestedAbort {
                    tx,
                    attempt: 1,
                    level: 2,
                    own: 1,
                    parent: 6,
                },
            ),
            r#"{"at":13,"node":2,"ev":"nested_abort","tx":[3,17],"attempt":1,"level":2,"own":1,"parent":6}"#,
        ),
        (
            rec(14, 0, decision(Some(16), Verdict::Enqueue)),
            r#"{"at":14,"node":0,"ev":"sched_decision","oid":7,"tx":[3,17],"attempt":3,"local_cl":2,"requester_cl":1,"window_requests":5,"executed":50,"remaining":20,"queue_depth":2,"bk":45,"threshold":16,"verdict":"enqueue","backoff":44}"#,
        ),
        (
            rec(14, 0, decision(None, Verdict::Abort)),
            r#"{"at":14,"node":0,"ev":"sched_decision","oid":7,"tx":[3,17],"attempt":3,"local_cl":2,"requester_cl":1,"window_requests":5,"executed":50,"remaining":20,"queue_depth":2,"bk":45,"verdict":"abort","backoff":44}"#,
        ),
        (
            rec(14, 0, decision(None, Verdict::AbortBackoff)),
            r#"{"at":14,"node":0,"ev":"sched_decision","oid":7,"tx":[3,17],"attempt":3,"local_cl":2,"requester_cl":1,"window_requests":5,"executed":50,"remaining":20,"queue_depth":2,"bk":45,"verdict":"abort-backoff","backoff":44}"#,
        ),
        (
            rec(
                15,
                0,
                ProtoEvent::QueueServed {
                    oid: ObjectId(7),
                    tx,
                    attempt: 1,
                    wait: SimDuration(12),
                },
            ),
            r#"{"at":15,"node":0,"ev":"queue_served","oid":7,"tx":[3,17],"attempt":1,"wait":12}"#,
        ),
        (
            rec(
                16,
                0,
                ProtoEvent::Migrate {
                    oid: ObjectId(7),
                    tx,
                    from: 0,
                    to: 3,
                    version: 12,
                },
            ),
            r#"{"at":16,"node":0,"ev":"migrate","oid":7,"tx":[3,17],"from":0,"to":3,"version":12}"#,
        ),
        (
            rec(17, 0, summary(0, 0, 0)),
            r#"{"at":17,"node":0,"ev":"run_summary","commits":10,"aborts":4,"nested_own":2,"nested_parent":5,"nested_commits":12,"wasted_ns":1000000,"wasted_msgs":40,"attributed":3}"#,
        ),
        (
            rec(17, 0, summary(15, 4, 2)),
            r#"{"at":17,"node":0,"ev":"run_summary","commits":10,"aborts":4,"nested_own":2,"nested_parent":5,"nested_commits":12,"wasted_ns":1000000,"wasted_msgs":40,"attributed":3,"cache_hits":15,"cache_misses":4,"cache_inval":2}"#,
        ),
        (
            rec(17, 0, summary(0, 0, 2)),
            r#"{"at":17,"node":0,"ev":"run_summary","commits":10,"aborts":4,"nested_own":2,"nested_parent":5,"nested_commits":12,"wasted_ns":1000000,"wasted_msgs":40,"attributed":3,"cache_hits":0,"cache_misses":0,"cache_inval":2}"#,
        ),
    ];
    for (nodes, (scheduler, line)) in (8..).zip([
        (
            SchedulerKind::Rts,
            r#"{"at":0,"node":0,"ev":"run_info","scheduler":"RTS","nodes":8}"#,
        ),
        (
            SchedulerKind::Tfa,
            r#"{"at":0,"node":0,"ev":"run_info","scheduler":"TFA","nodes":9}"#,
        ),
        (
            SchedulerKind::TfaBackoff,
            r#"{"at":0,"node":0,"ev":"run_info","scheduler":"TFA+Backoff","nodes":10}"#,
        ),
    ]) {
        out.push((rec(0, 0, ProtoEvent::RunInfo { scheduler, nodes }), line));
    }
    out
}

#[test]
fn every_kind_writes_its_pinned_line_and_parse_reads_it_back() {
    for (rec, want) in pinned() {
        let line = line_of(&rec);
        assert_eq!(line, format!("{want}\n"));
        assert_eq!(TraceRecord::parse(want), Ok(rec), "{want}");
    }
}

#[test]
fn a_retired_scheduler_label_is_refused() {
    // Traces from builds that still had §V's ATS and Bi-interval schedulers.
    for line in [
        r#"{"at":0,"node":0,"ev":"run_info","scheduler":"ATS","nodes":11}"#,
        r#"{"at":0,"node":0,"ev":"run_info","scheduler":"Bi-interval","nodes":12}"#,
    ] {
        let at = line.find(",\"scheduler\":").expect("a scheduler field");
        let want = format!("byte {at}: not the writer's \"scheduler\" field");
        assert_eq!(TraceRecord::parse(line), Err(want.clone()), "{line}");
        assert_eq!(
            TraceLog::parse_jsonl(&format!("{line}\n")).err(),
            Some(format!("line 1: {want}")),
            "{line}"
        );
    }
}
