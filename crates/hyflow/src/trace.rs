//! Protocol-level tracing: typed events for transaction lifecycle spans,
//! closed-nesting child spans, scheduler decisions, queue service, and
//! object migration — attributed to virtual time and node.
//!
//! Events carry protocol semantics (`TxId`s, versions, `AbortCause`s,
//! CL/ETS numbers), which is what the offline `dstm-trace` auditor and the
//! Chrome exporter need; the kernel itself records nothing.
//!
//! Cost discipline: every instrumentation site in `node.rs` goes through
//! [`ProtoTrace::emit`], which calls the closure that builds the event
//! only when tracing is on — one branch on an `Option` — so no event (or
//! its `Vec` payloads) is constructed when tracing is off. When it is on, every
//! node appends to one run-wide log in dispatch order.
//!
//! Serialization is hand-rolled JSONL (one record per line) because the
//! workspace is offline and carries no serde, and allocation- and
//! `core::fmt`-free because a 160-node run leaves ~10^5 records per cell and
//! the trace only earns its keep if it is cheap enough to leave on.
//!
//! **One field list.** The `events!` table below is the line format: each
//! kind's label, then per field its JSON key, its type — whose `Value`
//! impl is the value's shape on the line and in memory — and when the field
//! is on the line (`required`: always; `optional`: an `Option` field, when
//! it is `Some`; `nonzero`: the kind's `nonzero` fields all together, when
//! one of them is nonzero). The enum, the writer, the reader and the
//! in-memory encoding are generated from it, so a new field is one line of
//! the table.
//!
//! **One in-memory form.** A log keeps its records in one append-only byte
//! string, [`TraceRecords`], never as a `Vec<TraceRecord>`. A record is its
//! `at` as a LEB128 varint delta from the record before it, its `node` as a
//! varint, its kind's table index as one byte, then every field in table
//! order: a number as a varint, a `TxId` as two, a label as its variant's
//! index, an `Option` as a `0`/`1` byte and the value, a tuple list as its
//! length and then its numbers. An `observe_160` Bank record takes ~11.6
//! bytes this way, against 112 for a `TraceRecord` (plus its commit's two
//! vectors). Nodes append to it, [`TraceLog::parse_jsonl`] reads text
//! straight into it, and records come back out one at a time: a
//! [`RecordReader`] lends each and decodes into the last record of its
//! kind, so a pass over the log allocates nothing per record, while
//! `for rec in &log.records` yields owned ones.
//!
//! **One format: the writer's bytes.** [`TraceRecord::parse`] accepts
//! exactly the lines [`TraceRecord::write_jsonl`] makes: one flat object,
//! the table's key order, no whitespace, unsigned decimal numbers without
//! leading zeros that fit `u64`, label strings without escapes. It walks
//! that layout without looking a key up, comparing each literal `,"key":`
//! fragment as bytes, and range-checks a field narrower than `u64`
//! (`node`, `attempt`, `level`, `kind`, …) instead of truncating it. At the
//! first byte that departs from the layout it stops; the error names that
//! byte and the field that should have started there. Whatever it accepts,
//! the writer writes back byte for byte, and [`TraceLog::parse_jsonl`]
//! likewise accepts only the writer's text: each line ends in `\n`, and a
//! blank or padded line is refused like any other.

use crate::metrics::{AbortCause, NodeCounters};
use dstm_sim::{SimDuration, SimTime};
use rts_core::{ObjectId, SchedulerKind, TxId, TxKind};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// The scheduler's verdict shape, as recorded in a trace (the backoff
/// magnitude travels separately so the variant stays label-encodable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Abort,
    AbortBackoff,
    Enqueue,
}

impl Verdict {
    pub const ALL: [Verdict; 3] = [Verdict::Abort, Verdict::AbortBackoff, Verdict::Enqueue];

    pub fn label(self) -> &'static str {
        match self {
            Verdict::Abort => "abort",
            Verdict::AbortBackoff => "abort-backoff",
            Verdict::Enqueue => "enqueue",
        }
    }

    pub fn from_label(s: &str) -> Option<Self> {
        Verdict::ALL.into_iter().find(|v| v.label() == s)
    }
}

/// Every scheduler a `run_info` record can name, in the order its encoding
/// numbers them.
const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Tfa,
    SchedulerKind::TfaBackoff,
    SchedulerKind::Rts,
];

/// Declares [`ProtoEvent`] from its line format and generates the writer,
/// the reader and the in-memory encoding from the same list (see the
/// module docs).
macro_rules! events {
    (
        $(#[$doc:meta])*
        pub enum ProtoEvent {$(
            $(#[$kind_doc:meta])*
            $kind:ident = $label:literal {$(
                $(#[$field_doc:meta])*
                $field:ident: $ty:ty = $key:literal $rule:ident,
            )*},
        )*}
    ) => {
        $(#[$doc])*
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum ProtoEvent {$(
            $(#[$kind_doc])*
            $kind {$($(#[$field_doc])* $field: $ty,)*},
        )*}

        /// Each kind's position in the table, for [`ProtoEvent::kind_index`].
        enum KindIndex {$($kind,)*}

        /// Each kind's position in the table as the byte that opens its
        /// encoding.
        #[allow(non_upper_case_globals)]
        mod kind_byte {
            $(pub(super) const $kind: u8 = super::KindIndex::$kind as u8;)*
        }

        impl ProtoEvent {
            /// Every kind's label, in table order.
            pub const LABELS: &'static [&'static str] = &[$($label),*];

            /// How many kinds the table declares.
            pub const KINDS: usize = ProtoEvent::LABELS.len();

            /// This event's kind's position in the table: its label is
            /// `ProtoEvent::LABELS[self.kind_index()]`.
            pub fn kind_index(&self) -> usize {
                match self {$(
                    ProtoEvent::$kind { .. } => KindIndex::$kind as usize,
                )*}
            }

            /// Append `,"ev":"<label>"` and every field the line carries.
            fn write_fields(&self, out: &mut String) {
                match self {$(
                    ProtoEvent::$kind { $($field),* } => {
                        out.push_str(concat!(",\"ev\":\"", $label, "\""));
                        #[allow(unused_variables)]
                        let any_nonzero = false $(|| is_nonzero!($rule, $field))*;
                        $(write_field!($rule, out, any_nonzero, $field, concat!(",\"", $key, "\":"));)*
                    }
                )*}
            }

            /// Read `,"ev":"<label>"` and the fields of that kind, in the
            /// writer's order and bytes, appending the event's encoding to
            /// `out`.
            fn read(c: &mut Cursor<'_>, out: &mut Vec<u8>) -> Option<()> {
                let start = c.pos;
                match c.label_field(",\"ev\":")? {
                    $($label => {
                        out.push(kind_byte::$kind);
                        #[allow(unused_mut)]
                        let mut group = Group::Unread;
                        $(read_field!($rule, $ty, c, out, group, concat!(",\"", $key, "\":"));)*
                        group.check(c)
                    })*
                    _ => c.stop(start, ",\"ev\":"),
                }
            }

            /// Append the encoding: the kind's byte, then every field in
            /// table order.
            fn encode(&self, out: &mut Vec<u8>) {
                match self {$(
                    ProtoEvent::$kind { $($field),* } => {
                        out.push(kind_byte::$kind);
                        $($field.encode(out);)*
                    }
                )*}
            }

            /// The event of kind byte `kind` whose fields `b` starts with.
            fn decode(kind: u8, b: &mut &[u8]) -> ProtoEvent {
                match kind {
                    $(kind_byte::$kind => ProtoEvent::$kind {$($field: Value::decode(b),)*},)*
                    _ => unreachable!("kind byte {kind} is not in the table"),
                }
            }

            /// Overwrite the fields with the next ones of this kind in `b`,
            /// keeping their buffers.
            fn decode_into(&mut self, b: &mut &[u8]) {
                match self {$(
                    ProtoEvent::$kind { $($field),* } => {
                        $(Value::decode_into($field, b);)*
                    }
                )*}
            }

            /// Step `b` past the fields of an event of kind byte `kind`.
            fn skip(kind: u8, b: &mut &[u8]) {
                match kind {
                    $(kind_byte::$kind => {
                        $(<$ty as Value>::skip(b);)*
                    })*
                    _ => unreachable!("kind byte {kind} is not in the table"),
                }
            }
        }
    };
}

/// Whether a `nonzero` field holds a value worth writing. Names every
/// rule, so a misspelt one fails to compile.
macro_rules! is_nonzero {
    (nonzero, $v:ident) => {
        *$v != 0
    };
    (required, $v:ident) => {
        false
    };
    (optional, $v:ident) => {
        false
    };
}

/// The writer's step for one field: `"key":` and the value, when the
/// field's rule puts it on the line (`$any`: one of the kind's `nonzero`
/// fields is).
macro_rules! write_field {
    (required, $out:ident, $any:ident, $v:ident, $fragment:expr) => {
        $out.push_str($fragment);
        $v.write($out);
    };
    (optional, $out:ident, $any:ident, $v:ident, $fragment:expr) => {
        if $v.is_some() {
            $out.push_str($fragment);
            $v.write($out);
        }
    };
    (nonzero, $out:ident, $any:ident, $v:ident, $fragment:expr) => {
        if $any {
            $out.push_str($fragment);
            $v.write($out);
        }
    };
}

/// The reader's step for one field, whose rule says whether the line may
/// leave it off: the field's encoding goes to `$out` either way.
macro_rules! read_field {
    (required, $ty:ty, $c:ident, $out:ident, $group:ident, $fragment:expr) => {
        $c.field::<$ty>($fragment, $out)?
    };
    (optional, $ty:ty, $c:ident, $out:ident, $group:ident, $fragment:expr) => {
        if $c.rest().starts_with($fragment.as_bytes()) {
            $c.field::<$ty>($fragment, $out)?
        } else {
            <$ty as Value>::encode(&None, $out)
        }
    };
    (nonzero, $ty:ty, $c:ident, $out:ident, $group:ident, $fragment:expr) => {
        <$ty as Value>::encode(&$group.field($c, $fragment)?, $out)
    };
}

events! {
    /// One typed protocol occurrence. Times live on the enclosing
    /// [`TraceRecord`]; durations inside events are plain nanosecond values.
    pub enum ProtoEvent {
        /// A top-level attempt began executing (attempt 0 = first start,
        /// higher = retry after an abort).
        TxStart = "tx_start" {
            tx: TxId = "tx" required,
            kind: TxKind = "kind" required,
            attempt: u32 = "attempt" required,
        },
        /// Transactional forwarding: a fetched version exceeded the
        /// transaction's write-version clock, triggering early validation.
        TxForward = "tx_forward" {
            tx: TxId = "tx" required,
            attempt: u32 = "attempt" required,
            oid: ObjectId = "oid" required,
            wv_old: u64 = "wv_old" required,
            wv_new: u64 = "wv_new" required,
        },
        /// The attempt reached its serialization point (locks held, reads
        /// validated). `reads` is every `(object, version)` the commit is based
        /// on; `writes` is `(object, expected_version, new_version)` for each
        /// published object. For a read-only commit `writes` is empty and the
        /// record is emitted at finalization.
        TxCommit = "tx_commit" {
            tx: TxId = "tx" required,
            attempt: u32 = "attempt" required,
            nested_committed: u64 = "nested_committed" required,
            reads: Vec<(ObjectId, u64)> = "reads" required,
            writes: Vec<(ObjectId, u64, u64)> = "writes" required,
        },
        /// The whole (parent) transaction aborted; it will retry as
        /// `attempt + 1`. `nested_parent` children died with it (Table I).
        ///
        /// Abort attribution rides along unconditionally (the fields are plain
        /// integers, so recording them costs nothing extra): `wasted_ns` is the
        /// virtual time the attempt had been running, `msgs` the protocol
        /// messages it had sent — both discarded. `oid` is the contended object
        /// (when the abort traces to one) and `aggressor` the transaction
        /// holding its lock, when the owner knew it (queue timeouts know the
        /// object but not the holder).
        TxAbort = "tx_abort" {
            tx: TxId = "tx" required,
            attempt: u32 = "attempt" required,
            cause: AbortCause = "cause" required,
            nested_parent: u64 = "nested_parent" required,
            backoff: SimDuration = "backoff" required,
            wasted_ns: u64 = "wasted_ns" required,
            msgs: u64 = "msgs" required,
            oid: Option<ObjectId> = "oid" optional,
            aggressor: Option<TxId> = "aggr" optional,
        },
        /// A closed-nested child level opened.
        NestedOpen = "nested_open" {
            tx: TxId = "tx" required,
            attempt: u32 = "attempt" required,
            level: u32 = "level" required,
            kind: TxKind = "kind" required,
        },
        /// The innermost child merged into its parent.
        NestedCommit = "nested_commit" {
            tx: TxId = "tx" required,
            attempt: u32 = "attempt" required,
            level: u32 = "level" required,
        },
        /// A child level rolled back for its own conflict (`own`) taking
        /// `parent`-caused casualties (committed descendants) with it.
        NestedAbort = "nested_abort" {
            tx: TxId = "tx" required,
            attempt: u32 = "attempt" required,
            level: u32 = "level" required,
            own: u64 = "own" required,
            parent: u64 = "parent" required,
        },
        /// The owner-side scheduler adjudicated a lock-busy fetch
        /// (Algorithm 3): the full decision inputs and the verdict.
        SchedDecision = "sched_decision" {
            oid: ObjectId = "oid" required,
            tx: TxId = "tx" required,
            attempt: u32 = "attempt" required,
            local_cl: u32 = "local_cl" required,
            requester_cl: u32 = "requester_cl" required,
            window_requests: u32 = "window_requests" required,
            executed: SimDuration = "executed" required,
            remaining: SimDuration = "remaining" required,
            queue_depth: u64 = "queue_depth" required,
            bk: SimDuration = "bk" required,
            threshold: Option<u32> = "threshold" optional,
            verdict: Verdict = "verdict" required,
            backoff: SimDuration = "backoff" required,
        },
        /// A queued requester was handed the object on release, after `wait`.
        QueueServed = "queue_served" {
            oid: ObjectId = "oid" required,
            tx: TxId = "tx" required,
            attempt: u32 = "attempt" required,
            wait: SimDuration = "wait" required,
        },
        /// Ownership of `oid` moved from `from` to `to` at a commit.
        Migrate = "migrate" {
            oid: ObjectId = "oid" required,
            tx: TxId = "tx" required,
            from: u32 = "from" required,
            to: u32 = "to" required,
            version: u64 = "version" required,
        },
        /// Run identity prepended by the harness (scheduler and node count) so
        /// offline tools can label and segment multi-run logs.
        RunInfo = "run_info" {
            scheduler: SchedulerKind = "scheduler" required,
            nodes: u64 = "nodes" required,
        },
        /// End-of-run counter snapshot appended by the harness so an offline
        /// audit can compare span-derived totals — the Table-I split and the
        /// wasted-work ledger — against the live counters.
        RunSummary = "run_summary" {
            commits: u64 = "commits" required,
            aborts: u64 = "aborts" required,
            nested_own: u64 = "nested_own" required,
            nested_parent: u64 = "nested_parent" required,
            nested_commits: u64 = "nested_commits" required,
            wasted_ns: u64 = "wasted_ns" required,
            wasted_msgs: u64 = "wasted_msgs" required,
            attributed: u64 = "attributed" required,
            /// Remote-read cache totals (`DstmConfig::cache`), left off the
            /// line when all are zero so cache-off traces stay byte-identical
            /// to the pre-cache format.
            cache_hits: u64 = "cache_hits" nonzero,
            cache_misses: u64 = "cache_misses" nonzero,
            cache_invalidations: u64 = "cache_inval" nonzero,
        },
    }
}

/// Kept only because `benchmark/src/measure.rs` names it; deleted with that call.
pub type SchedLabel = SchedulerKind;

/// A timestamped, node-attributed protocol event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    pub at: SimTime,
    /// The node that observed/recorded the event (requester side for
    /// lifecycle events, owner side for scheduler/queue events).
    pub node: u32,
    pub ev: ProtoEvent,
}

/// Append `v` in decimal. The writers' replacement for `write!("{}")`: two
/// digits per division out of a lookup table, no `core::fmt` machinery.
pub fn push_u64(out: &mut String, mut v: u64) {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
                                2021222324252627282930313233343536373839\
                                4041424344454647484950515253545556575859\
                                6061626364656667686970717273747576777879\
                                8081828384858687888990919293949596979899";
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let d = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[d..d + 2]);
    }
    if v >= 10 {
        let d = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[d..d + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    // One unchecked copy: `from_utf8` re-checks what the loop above
    // guarantees and measured slower than even a `char`-wise append; this
    // measured faster than both.
    // SAFETY: every byte of `buf[i..]` came from `PAIRS` or is `b'0' + v`
    // with `v < 10` — all ASCII digits — so `out` stays UTF-8.
    unsafe { out.as_mut_vec() }.extend_from_slice(&buf[i..]);
}

/// Capacity for a buffer sized by a whole run: `n` rounded up to a power of
/// two. Successive runs' buffers then fall into the same few size classes,
/// so the allocator reuses the hole the last run's buffer left instead of
/// growing the heap next to a hole a few percent too small. The rounded-up
/// tail is never touched; it costs address space, not memory.
pub fn size_class(n: usize) -> usize {
    n.next_power_of_two()
}

impl TraceRecord {
    /// Append this record as one JSONL line (including the newline).
    pub fn write_jsonl(&self, out: &mut String) {
        out.push_str("{\"at\":");
        self.at.write(out);
        out.push_str(",\"node\":");
        self.node.write(out);
        self.ev.write_fields(out);
        out.push_str("}\n");
    }

    /// Parse one line [`TraceRecord::write_jsonl`] made (without its
    /// newline). Any other line is an error naming the byte where it
    /// leaves the writer's layout. This is [`TraceLog::parse_jsonl`]'s
    /// reader, on one line.
    pub fn parse(line: &str) -> Result<TraceRecord, String> {
        let mut one = TraceRecords::default();
        one.read_line(line)?;
        Ok(one.iter().next().expect("the record just read"))
    }
}

/// Bytes a log leaves free in front of its first record, so that
/// [`TraceLog::push_run_info`] writes the run's header there instead of
/// shifting the whole log: a `run_info` record at time zero is 5–14 bytes.
const FRONT_ROOM: usize = 16;

/// Bytes a log's first allocation holds for records.
const FIRST_RECORDS_BYTES: usize = 240;

/// A log's records, encoded back to back in one byte string (see the
/// module docs): the only form a [`TraceLog`] holds them in. Iterate it
/// with [`TraceRecords::reader`] (borrowed records, no allocation per
/// record) or `for rec in &records` (owned ones).
#[derive(Clone, Default)]
pub struct TraceRecords {
    /// The encoding. Records start at `head`; the bytes before it are
    /// free room for one at the front.
    bytes: Vec<u8>,
    head: usize,
    len: usize,
    /// The last record's `at`, which the next one is stored relative to.
    last_at: u64,
}

impl TraceRecords {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All the records, as a span to read from the first.
    fn span(&self) -> RecordSpan<'_> {
        RecordSpan {
            bytes: &self.bytes[self.head..],
            at: 0,
            len: self.len,
        }
    }

    /// Lend the records one at a time, allocating nothing per record.
    pub fn reader(&self) -> RecordReader<'_> {
        self.span().reader()
    }

    /// The records as owned values.
    pub fn iter(&self) -> Iter<'_> {
        Iter { rest: self.span() }
    }

    /// Append a record; the byte it starts at.
    #[inline]
    fn push(&mut self, at: SimTime, node: u32, ev: &ProtoEvent) -> usize {
        let delta = at.0.wrapping_sub(self.last_at);
        let out = self.tail();
        let start = out.len();
        put_varint(out, delta);
        put_varint(out, u64::from(node));
        ev.encode(out);
        self.last_at = at.0;
        self.len += 1;
        start
    }

    /// An empty log with its front room, and room for about `bytes` of
    /// records behind it.
    fn with_capacity(bytes: usize) -> Self {
        let mut room = Vec::with_capacity(size_class(FRONT_ROOM + bytes));
        room.resize(FRONT_ROOM, 0);
        TraceRecords {
            bytes: room,
            head: FRONT_ROOM,
            ..TraceRecords::default()
        }
    }

    /// The encoding, to append to. A log's first record allocates it, with
    /// [`FRONT_ROOM`] in front and room for a few records.
    #[inline]
    fn tail(&mut self) -> &mut Vec<u8> {
        if self.bytes.is_empty() {
            *self = TraceRecords::with_capacity(FIRST_RECORDS_BYTES);
        }
        &mut self.bytes
    }

    /// Insert a record before the first. It goes into the free room in
    /// front of the log when it fits (a run header always does), and
    /// shifts the log otherwise.
    fn push_front(&mut self, at: SimTime, node: u32, ev: &ProtoEvent) {
        if self.is_empty() {
            self.push(at, node, ev);
            return;
        }
        // The old first record's delta is rebased on `at`.
        let mut rest = &self.bytes[self.head..];
        let first_at = get_varint(&mut rest);
        let end = self.bytes.len() - rest.len();
        let mut front = Vec::with_capacity(FRONT_ROOM);
        put_varint(&mut front, at.0);
        put_varint(&mut front, u64::from(node));
        ev.encode(&mut front);
        put_varint(&mut front, first_at.wrapping_sub(at.0));
        if front.len() <= end {
            self.head = end - front.len();
            self.bytes[self.head..end].copy_from_slice(&front);
        } else {
            self.bytes.splice(self.head..end, front);
        }
        self.len += 1;
    }

    /// Append the record `line` holds if it is one
    /// [`TraceRecord::write_jsonl`] makes (without the newline), and
    /// name the byte where it leaves that layout otherwise.
    fn read_line(&mut self, line: &str) -> Result<(), String> {
        let mut c = Cursor {
            text: line,
            pos: 0,
            stop: (0, ""),
        };
        let start = self.tail().len();
        match self.read(&mut c) {
            Some(at) => {
                self.last_at = at;
                self.len += 1;
                Ok(())
            }
            None => {
                self.bytes.truncate(start);
                Err(c.error())
            }
        }
    }

    /// [`TraceRecords::read_line`]'s walk over the line: the record's `at`,
    /// with its encoding appended.
    fn read(&mut self, c: &mut Cursor<'_>) -> Option<u64> {
        let at = c.number_field("{\"at\":")?;
        put_varint(&mut self.bytes, at.wrapping_sub(self.last_at));
        c.field::<u32>(",\"node\":", &mut self.bytes)?;
        ProtoEvent::read(c, &mut self.bytes)?;
        if c.lit("}").is_none() {
            return c.stop(c.pos, "}");
        }
        if c.pos != c.text.len() {
            return c.stop(c.pos, "");
        }
        Some(at)
    }
}

/// The record at byte `pos`: its time delta, its node, and the byte after it.
fn record_at(bytes: &[u8], pos: usize) -> (u64, u32, usize) {
    let mut b = &bytes[pos..];
    let delta = get_varint(&mut b);
    let node = get_varint(&mut b) as u32;
    let kind = get_u8(&mut b);
    ProtoEvent::skip(kind, &mut b);
    (delta, node, bytes.len() - b.len())
}

/// Move the last record of `tie` — the records from `tie`'s start on,
/// which share one `at` — back behind the last one whose node is not
/// later than its `node`: one step of a stable insertion sort by node.
/// The record starts at byte `last` and moves in front of at least one.
fn settle_last(tie: &mut [u8], last: usize, node: u32) {
    let mut to = 0;
    loop {
        let (_, n, end) = record_at(tie, to);
        if n > node {
            break;
        }
        to = end;
    }
    let width = tie.len() - last;
    tie[to..].rotate_right(width);
    if to > 0 {
        return;
    }
    // The record is now the tie's first, with the one-byte zero delta of a
    // tied record, while the old first behind it holds the tie's delta:
    // swap them.
    let (delta, _, _) = record_at(tie, width);
    if delta != 0 {
        let delta_width = varint_len(delta);
        tie[..width + delta_width].rotate_right(delta_width);
        tie[delta_width..width + delta_width].rotate_left(1);
    }
}

impl PartialEq for TraceRecords {
    fn eq(&self, other: &Self) -> bool {
        // One sequence of records has one encoding.
        self.len == other.len && self.bytes[self.head..] == other.bytes[other.head..]
    }
}

impl Eq for TraceRecords {}

impl PartialEq<Vec<TraceRecord>> for TraceRecords {
    fn eq(&self, other: &Vec<TraceRecord>) -> bool {
        let mut r = self.reader();
        self.len == other.len() && other.iter().all(|o| r.read() == Some(o))
    }
}

impl fmt::Debug for TraceRecords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl<'a> IntoIterator for &'a TraceRecords {
    type Item = TraceRecord;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<TraceRecord> for TraceRecords {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(records: I) -> Self {
        let mut out = TraceRecords::default();
        for r in records {
            out.push(r.at, r.node, &r.ev);
        }
        out
    }
}

/// Consecutive records of a [`TraceRecords`], from its first: what a
/// `&[TraceRecord]` is to a `Vec` of them. Copying one is free.
#[derive(Clone, Copy)]
pub struct RecordSpan<'a> {
    /// The encoding from the span's first record on (to the end of the
    /// log: `len` says where the span stops).
    bytes: &'a [u8],
    /// The `at` the first record is stored relative to.
    at: u64,
    len: usize,
}

impl<'a> RecordSpan<'a> {
    /// The first `n` records (all of them, if there are fewer).
    pub fn prefix(self, n: usize) -> RecordSpan<'a> {
        RecordSpan {
            len: self.len.min(n),
            ..self
        }
    }

    /// Lend the records one at a time, allocating nothing per record.
    pub fn reader(self) -> RecordReader<'a> {
        RecordReader {
            rest: self,
            last: [const { None }; ProtoEvent::KINDS],
        }
    }

    /// Step past the next record's time and node, and return them with its
    /// kind byte; its fields come next.
    #[inline]
    fn header(&mut self) -> Option<(SimTime, u32, u8)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        self.at = self.at.wrapping_add(get_varint(&mut self.bytes));
        let node = get_varint(&mut self.bytes) as u32;
        Some((SimTime(self.at), node, get_u8(&mut self.bytes)))
    }
}

/// Reads a [`RecordSpan`] a record at a time, lending each. It keeps one
/// record of each kind it has met and decodes the next record of that
/// kind into it, so the vectors of a `tx_commit` are reused rather than
/// allocated for every commit.
pub struct RecordReader<'a> {
    rest: RecordSpan<'a>,
    /// The last record read of each kind, by kind index.
    last: [Option<TraceRecord>; ProtoEvent::KINDS],
}

impl<'a> RecordReader<'a> {
    /// The next record, if there is one.
    #[inline]
    pub fn read(&mut self) -> Option<&TraceRecord> {
        let (at, node, kind) = self.rest.header()?;
        let b = &mut self.rest.bytes;
        let last = &mut self.last[usize::from(kind)];
        match last {
            Some(rec) => {
                rec.at = at;
                rec.node = node;
                rec.ev.decode_into(b);
            }
            None => {
                let ev = ProtoEvent::decode(kind, b);
                *last = Some(TraceRecord { at, node, ev });
            }
        }
        last.as_ref()
    }

    /// The records not read yet.
    pub fn rest(&self) -> RecordSpan<'a> {
        self.rest
    }
}

/// A log's records as owned values, each decoded afresh.
pub struct Iter<'a> {
    rest: RecordSpan<'a>,
}

impl Iterator for Iter<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let (at, node, kind) = self.rest.header()?;
        let ev = ProtoEvent::decode(kind, &mut self.rest.bytes);
        Some(TraceRecord { at, node, ev })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.rest.len, Some(self.rest.len))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// A node's handle on its run's protocol-event log. Disabled by default;
/// callers hand [`ProtoTrace::emit`] a closure that builds the event, so
/// the disabled path is one branch and zero allocation.
///
/// An enabled handle shares one log with every other node of the run
/// (`SystemBuilder` clones one [`ProtoTrace::enabled`] into each node), so
/// records land in dispatch order on one warm tail. A run executes on one
/// thread, hence `Rc<RefCell<_>>`: a node holding a handle is `!Send`.
#[derive(Clone, Debug, Default)]
pub struct ProtoTrace {
    log: Option<Rc<RefCell<LiveLog>>>,
}

/// A run's log as its nodes append to it, kept in the order
/// [`ProtoTrace::take`] hands it over in: by time, ties by node.
#[derive(Debug, Default)]
struct LiveLog {
    records: TraceRecords,
    /// The byte where the records stamped with the last `at` start.
    tie: usize,
    /// The last record's node: the latest node of that tie.
    last_node: u32,
}

impl LiveLog {
    /// Out of line: inlined, the encoder grew every `emit` site in the
    /// node's handlers, which run with tracing off as well.
    #[inline(never)]
    fn push(&mut self, at: SimTime, node: u32, ev: &ProtoEvent) {
        debug_assert!(
            self.records.is_empty() || self.records.last_at <= at.0,
            "trace time went backwards"
        );
        let tied = !self.records.is_empty() && self.records.last_at == at.0;
        let start = self.records.push(at, node, ev);
        if !tied {
            self.tie = start;
        } else if node < self.last_node {
            // Dispatch order ran ahead of node order within the tie.
            settle_last(&mut self.records.bytes[self.tie..], start - self.tie, node);
            return;
        }
        self.last_node = node;
    }
}

impl ProtoTrace {
    pub fn disabled() -> Self {
        ProtoTrace::default()
    }

    /// A fresh, empty run-wide log.
    pub fn enabled() -> Self {
        ProtoTrace {
            log: Some(Rc::default()),
        }
    }

    /// Whether events are recorded.
    #[inline]
    pub fn on(&self) -> bool {
        self.log.is_some()
    }

    /// Append the event `ev` builds; `ev` runs only when tracing is on.
    #[inline]
    pub fn emit(&self, at: SimTime, node: u32, ev: impl FnOnce() -> ProtoEvent) {
        if self.on() {
            self.push(at, node, ev());
        }
    }

    /// Append a record. Every caller stamps the kernel's clock, so `at`
    /// never decreases along the log. A record that ties on `at` with a
    /// later node's goes in front of it (see [`ProtoTrace::take`]).
    #[inline]
    pub fn push(&self, at: SimTime, node: u32, ev: ProtoEvent) {
        if let Some(log) = &self.log {
            log.borrow_mut().push(at, node, &ev);
        }
    }

    /// Move the recorded log out (end-of-run collection) in the global
    /// order offline tools rely on: by time, ties by node, records with
    /// equal `(at, node)` in the order their node pushed them. Records
    /// arrive in time order, and [`ProtoTrace::push`] moves the few that
    /// arrive ahead of a tie's later nodes back into place, so the log is
    /// in that order already. It gives back the room it grew into and did
    /// not fill.
    pub fn take(&self) -> TraceLog {
        let Some(log) = &self.log else {
            return TraceLog::default();
        };
        let mut records = std::mem::take(&mut *log.borrow_mut()).records;
        records.bytes.shrink_to_fit();
        TraceLog { records }
    }
}

/// A whole run's trace, time-ordered across nodes (ties by node).
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    pub records: TraceRecords,
}

impl FromIterator<TraceRecord> for TraceLog {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(records: I) -> Self {
        TraceLog {
            records: records.into_iter().collect(),
        }
    }
}

impl TraceLog {
    /// Prepend the run-identity record (scheduler, node count) offline
    /// tools use to label and segment the log. Sits at time zero, before
    /// every protocol event, in the room the log keeps at its front.
    pub fn push_run_info(&mut self, scheduler: SchedulerKind, nodes: u64) {
        self.records
            .push_front(SimTime::ZERO, 0, &ProtoEvent::RunInfo { scheduler, nodes });
    }

    /// Append the end-of-run counter snapshot the auditor cross-checks
    /// span-derived totals against.
    pub fn push_summary(&mut self, at: SimTime, merged: &NodeCounters) {
        self.records.push(
            at,
            0,
            &ProtoEvent::RunSummary {
                commits: merged.commits,
                aborts: merged.total_aborts(),
                nested_own: merged.nested_aborts_own,
                nested_parent: merged.nested_aborts_parent,
                nested_commits: merged.nested_commits,
                wasted_ns: merged.wasted_work_ns,
                wasted_msgs: merged.wasted_msgs,
                attributed: merged.aborts_attributed,
                cache_hits: merged.cache_hits,
                cache_misses: merged.cache_misses,
                cache_invalidations: merged.cache_invalidations,
            },
        );
    }

    pub fn to_jsonl(&self) -> String {
        // Bytes per line vary several-fold with the workload and drift
        // within a run (timestamps gain digits, aborts set in); per byte of
        // the encoding they hardly move, so the buffer is sized from the
        // first records' lines per byte of theirs. An eighth of slack
        // covers the digits timestamps gain.
        const SAMPLES: usize = 256;
        let all = self.records.span();
        let mut sample = all.reader();
        let mut out = String::new();
        for _ in 0..SAMPLES {
            let Some(r) = sample.read() else { break };
            r.write_jsonl(&mut out);
        }
        let sampled = all.bytes.len() - sample.rest.bytes.len();
        let estimate = out.len() * all.bytes.len() / sampled.max(1);
        out.clear();
        out.reserve(size_class(estimate + estimate / 8));
        let mut reader = all.reader();
        while let Some(r) = reader.read() {
            r.write_jsonl(&mut out);
        }
        out
    }

    /// Read back the text [`TraceLog::to_jsonl`] makes, and only that:
    /// every line is one the writer makes and ends in `\n`. Anything else
    /// is an error naming the line and the byte where it departs.
    pub fn parse_jsonl(text: &str) -> Result<TraceLog, String> {
        // The encoding takes about an eighth of the text's bytes.
        const TEXT_BYTES_PER_BYTE: usize = 8;
        let mut records = match text.len() {
            0 => TraceRecords::default(),
            n => TraceRecords::with_capacity((n / TEXT_BYTES_PER_BYTE).max(FIRST_RECORDS_BYTES)),
        };
        let mut rest = text;
        let mut line_no = 0;
        while !rest.is_empty() {
            line_no += 1;
            let end = rest.find('\n');
            let line = &rest[..end.unwrap_or(rest.len())];
            records
                .read_line(line)
                .map_err(|e| format!("line {line_no}: {e}"))?;
            let Some(end) = end else {
                return Err(format!(
                    "line {line_no}: byte {}: no newline after the closing '}}'",
                    line.len()
                ));
            };
            rest = &rest[end + 1..];
        }
        Ok(TraceLog { records })
    }
}

/// Longest LEB128 varint: a `u64`'s 64 bits in 7-bit groups.
const MAX_VARINT: usize = 10;

/// Write `v` as a LEB128 varint to the front of `buf`; its length.
#[inline]
fn varint_bytes(buf: &mut [u8; MAX_VARINT], mut v: u64) -> usize {
    let mut i = 0;
    while v >= 0x80 {
        buf[i] = v as u8 | 0x80;
        v >>= 7;
        i += 1;
    }
    buf[i] = v as u8;
    i + 1
}

/// The bytes of `v` as a varint.
fn varint_len(v: u64) -> usize {
    varint_bytes(&mut [0; MAX_VARINT], v)
}

/// Append `v` as a LEB128 varint.
#[inline]
fn put_varint(out: &mut Vec<u8>, v: u64) {
    if v < 0x80 {
        out.push(v as u8);
    } else {
        let mut buf = [0; MAX_VARINT];
        let n = varint_bytes(&mut buf, v);
        out.extend_from_slice(&buf[..n]);
    }
}

/// The varint `b` starts with; `b` steps past it. The encoding is only
/// ever what the encoder wrote, so a cut-off varint is a bug.
#[inline]
fn get_varint(b: &mut &[u8]) -> u64 {
    let mut byte = get_u8(b);
    let mut v = u64::from(byte & 0x7f);
    let mut shift = 0;
    while byte >= 0x80 {
        byte = get_u8(b);
        shift += 7;
        v |= u64::from(byte & 0x7f) << shift;
    }
    v
}

/// The byte `b` starts with; `b` steps past it.
#[inline]
fn get_u8(b: &mut &[u8]) -> u8 {
    let (&v, rest) = b.split_first().expect("a byte the encoder wrote");
    *b = rest;
    v
}

/// A field value: how the writer puts it after its `"key":`, how the
/// reader takes it back, and how the in-memory log encodes it. The impl
/// for a field's type is that field's shape on the line and in memory.
trait Value: Sized {
    fn write(&self, out: &mut String);

    /// Read the value at the cursor, if it is one the writer could have
    /// put there, and append its encoding to `out` (the cursor is then past
    /// it, and otherwise anywhere).
    fn read(c: &mut Cursor<'_>, out: &mut Vec<u8>) -> Option<()>;

    /// Append the value's encoding.
    fn encode(&self, out: &mut Vec<u8>);

    /// The value whose encoding `b` starts with; `b` steps past it.
    fn decode(b: &mut &[u8]) -> Self;

    /// [`Value::decode`] into `self`, keeping the buffers it holds.
    #[inline]
    fn decode_into(&mut self, b: &mut &[u8]) {
        *self = Self::decode(b);
    }

    /// Step past the value's encoding.
    #[inline]
    fn skip(b: &mut &[u8]) {
        Self::decode(b);
    }
}

/// Numbers: range-checked into their type, never truncated; a varint in
/// memory.
macro_rules! numbers {
    ($($t:ty),*) => {$(
        impl Value for $t {
            #[inline]
            fn write(&self, out: &mut String) {
                push_u64(out, u64::from(*self));
            }

            #[inline(always)]
            fn read(c: &mut Cursor<'_>, out: &mut Vec<u8>) -> Option<()> {
                Self::try_from(c.number()?).ok()?.encode(out);
                Some(())
            }

            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                put_varint(out, u64::from(*self));
            }

            #[inline]
            fn decode(b: &mut &[u8]) -> Self {
                // The encoder wrote a value of this type.
                get_varint(b) as $t
            }
        }
    )*};
}
numbers!(u64, u32, u16);

/// Newtypes, written and encoded as the number they wrap.
macro_rules! wrapped {
    ($($t:ident($inner:ty)),*) => {$(
        impl Value for $t {
            #[inline]
            fn write(&self, out: &mut String) {
                self.0.write(out);
            }

            #[inline(always)]
            fn read(c: &mut Cursor<'_>, out: &mut Vec<u8>) -> Option<()> {
                <$inner>::read(c, out)
            }

            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }

            #[inline]
            fn decode(b: &mut &[u8]) -> Self {
                $t(<$inner>::decode(b))
            }
        }
    )*};
}
wrapped!(SimTime(u64), SimDuration(u64), ObjectId(u64), TxKind(u16));

impl Value for TxId {
    #[inline]
    fn write(&self, out: &mut String) {
        write_tuples(out, [[u64::from(self.node), self.seq]]);
    }

    #[inline(always)]
    fn read(c: &mut Cursor<'_>, out: &mut Vec<u8>) -> Option<()> {
        let [node, seq] = c.tuple()?;
        TxId::new(u32::try_from(node).ok()?, seq).encode(out);
        Some(())
    }

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.node.encode(out);
        self.seq.encode(out);
    }

    #[inline]
    fn decode(b: &mut &[u8]) -> Self {
        let node = u32::decode(b);
        TxId::new(node, u64::decode(b))
    }
}

/// Enums written as their label and encoded as their position in `$all`.
macro_rules! labels {
    ($($t:ty = $all:expr),*) => {$(
        impl Value for $t {
            #[inline]
            fn write(&self, out: &mut String) {
                out.push('"');
                out.push_str(self.label());
                out.push('"');
            }

            #[inline(always)]
            fn read(c: &mut Cursor<'_>, out: &mut Vec<u8>) -> Option<()> {
                <$t>::from_label(c.label()?)?.encode(out);
                Some(())
            }

            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                let i = $all.iter().position(|v| v == self).expect("every variant is listed");
                out.push(i as u8);
            }

            #[inline]
            fn decode(b: &mut &[u8]) -> Self {
                $all[usize::from(get_u8(b))]
            }
        }
    )*};
}
labels!(
    AbortCause = AbortCause::ALL,
    Verdict = Verdict::ALL,
    SchedulerKind = SCHEDULERS
);

/// An `optional` field: on the line, the value itself when there is one
/// (the field's rule leaves the key off for `None`); in memory, a `0` or
/// `1` byte and then the value.
impl<T: Value> Value for Option<T> {
    #[inline]
    fn write(&self, out: &mut String) {
        if let Some(v) = self {
            v.write(out);
        }
    }

    #[inline(always)]
    fn read(c: &mut Cursor<'_>, out: &mut Vec<u8>) -> Option<()> {
        out.push(1);
        T::read(c, out)
    }

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    #[inline]
    fn decode(b: &mut &[u8]) -> Self {
        (get_u8(b) != 0).then(|| T::decode(b))
    }
}

impl Value for Vec<(ObjectId, u64)> {
    #[inline]
    fn write(&self, out: &mut String) {
        out.push('[');
        write_tuples(out, self.iter().map(|&(oid, v)| [oid.0, v]));
        out.push(']');
    }

    #[inline(always)]
    fn read(c: &mut Cursor<'_>, out: &mut Vec<u8>) -> Option<()> {
        c.tuples::<2>(out)
    }

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        encode_tuples(out, self.len(), self.iter().map(|&(oid, v)| [oid.0, v]));
    }

    #[inline]
    fn decode(b: &mut &[u8]) -> Self {
        let mut v = Vec::new();
        v.decode_into(b);
        v
    }

    #[inline]
    fn decode_into(&mut self, b: &mut &[u8]) {
        decode_tuples(b, self, |[oid, v]| (ObjectId(oid), v));
    }

    #[inline]
    fn skip(b: &mut &[u8]) {
        skip_tuples::<2>(b);
    }
}

impl Value for Vec<(ObjectId, u64, u64)> {
    #[inline]
    fn write(&self, out: &mut String) {
        out.push('[');
        write_tuples(out, self.iter().map(|&(oid, e, n)| [oid.0, e, n]));
        out.push(']');
    }

    #[inline(always)]
    fn read(c: &mut Cursor<'_>, out: &mut Vec<u8>) -> Option<()> {
        c.tuples::<3>(out)
    }

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        encode_tuples(
            out,
            self.len(),
            self.iter().map(|&(oid, e, n)| [oid.0, e, n]),
        );
    }

    #[inline]
    fn decode(b: &mut &[u8]) -> Self {
        let mut v = Vec::new();
        v.decode_into(b);
        v
    }

    #[inline]
    fn decode_into(&mut self, b: &mut &[u8]) {
        decode_tuples(b, self, |[oid, e, n]| (ObjectId(oid), e, n));
    }

    #[inline]
    fn skip(b: &mut &[u8]) {
        skip_tuples::<3>(b);
    }
}

/// Append `[a,b,…]` for each tuple, comma-separated.
fn write_tuples<const N: usize>(out: &mut String, tuples: impl IntoIterator<Item = [u64; N]>) {
    for (i, t) in tuples.into_iter().enumerate() {
        out.push_str(if i == 0 { "[" } else { ",[" });
        for (j, &v) in t.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_u64(out, v);
        }
        out.push(']');
    }
}

/// Append a list of `len` tuples: its length, then their numbers.
fn encode_tuples<const N: usize>(
    out: &mut Vec<u8>,
    len: usize,
    tuples: impl Iterator<Item = [u64; N]>,
) {
    put_varint(out, len as u64);
    for v in tuples.flatten() {
        put_varint(out, v);
    }
}

/// Replace `list` with the list of `N`-tuples `b` starts with, each made
/// into an element by `make`.
fn decode_tuples<const N: usize, T>(
    b: &mut &[u8],
    list: &mut Vec<T>,
    make: impl Fn([u64; N]) -> T,
) {
    let len = get_varint(b) as usize;
    list.clear();
    list.reserve(len);
    for _ in 0..len {
        list.push(make(std::array::from_fn(|_| get_varint(b))));
    }
}

/// Step past a list of `N`-tuples.
fn skip_tuples<const N: usize>(b: &mut &[u8]) {
    for _ in 0..get_varint(b) as usize * N {
        get_varint(b);
    }
}

/// How a kind's `nonzero` fields stand on the line, read in table order.
/// The writer puts all of them there when one is nonzero, and none of
/// them otherwise.
enum Group {
    /// None of them read yet.
    Unread,
    /// The line leaves them off: all zero.
    Absent,
    /// The line carries them, from the field `fragment` starts at byte
    /// `at`; `nonzero` once one of them is.
    Present {
        at: usize,
        fragment: &'static str,
        nonzero: bool,
    },
}

impl Group {
    /// The group's next field: required once the first is there, absent
    /// once the first is not.
    fn field(&mut self, c: &mut Cursor<'_>, fragment: &'static str) -> Option<u64> {
        let v = match *self {
            Group::Absent => return Some(0),
            Group::Present { .. } => c.number_field(fragment)?,
            Group::Unread => {
                if !c.rest().starts_with(fragment.as_bytes()) {
                    *self = Group::Absent;
                    return Some(0);
                }
                *self = Group::Present {
                    at: c.pos,
                    fragment,
                    nonzero: false,
                };
                c.number_field(fragment)?
            }
        };
        if let Group::Present { nonzero, .. } = self {
            *nonzero |= v != 0;
        }
        Some(v)
    }

    /// Refuse a group the writer would have left off: there, but all zero.
    fn check(&self, c: &mut Cursor<'_>) -> Option<()> {
        match *self {
            Group::Present {
                at,
                fragment,
                nonzero: false,
            } => c.stop(at, fragment),
            _ => Some(()),
        }
    }
}

/// Byte cursor over one line. Not a JSON reader: it knows exactly the
/// writer's layout.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// Where the reader stopped, and the fragment it expected there: a
    /// field's `,"key":`, the closing `}`, or `""` for the end of the line.
    stop: (usize, &'static str),
}

impl<'a> Cursor<'a> {
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// What is left of the line, as bytes.
    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.pos..]
    }

    /// Step over `fragment`, which must come next, byte for byte.
    #[inline(always)]
    fn lit(&mut self, fragment: &str) -> Option<()> {
        let end = self.pos + fragment.len();
        if self.text.as_bytes().get(self.pos..end)? != fragment.as_bytes() {
            return None;
        }
        self.pos = end;
        Some(())
    }

    /// Stop reading: the line leaves the writer's layout at byte `at`,
    /// where `fragment` should have started.
    #[cold]
    fn stop<T>(&mut self, at: usize, fragment: &'static str) -> Option<T> {
        self.stop = (at, fragment);
        None
    }

    /// The error for where the reader stopped.
    #[cold]
    fn error(&self) -> String {
        let (at, fragment) = self.stop;
        match fragment {
            "}" => format!("byte {at}: not the writer's closing '}}'"),
            "" => format!("byte {at}: text after the closing '}}'"),
            _ => {
                let key = fragment.trim_matches(['{', ',', '"', ':']);
                format!("byte {at}: not the writer's {key:?} field")
            }
        }
    }

    /// `fragment`, then a value of `T`, whose encoding goes to `out`: one
    /// step of the reader.
    #[inline(never)]
    fn field<T: Value>(&mut self, fragment: &'static str, out: &mut Vec<u8>) -> Option<()> {
        let start = self.pos;
        match self.lit(fragment).and_then(|()| T::read(self, out)) {
            Some(()) => Some(()),
            None => self.stop(start, fragment),
        }
    }

    /// `fragment`, then a number, returned rather than encoded.
    fn number_field(&mut self, fragment: &'static str) -> Option<u64> {
        let start = self.pos;
        match self.lit(fragment).and_then(|()| self.number()) {
            Some(v) => Some(v),
            None => self.stop(start, fragment),
        }
    }

    /// `fragment`, then a label, returned rather than encoded.
    fn label_field(&mut self, fragment: &'static str) -> Option<&'a str> {
        let start = self.pos;
        match self.lit(fragment).and_then(|()| self.label()) {
            Some(v) => Some(v),
            None => self.stop(start, fragment),
        }
    }

    /// A string without escapes, if one comes next.
    #[inline(always)]
    fn label(&mut self) -> Option<&'a str> {
        if self.byte() != Some(b'"') {
            return None;
        }
        let start = self.pos + 1;
        let rest = &self.text.as_bytes()[start..];
        let n = rest.iter().position(|&b| b == b'"' || b == b'\\')?;
        if rest[n] != b'"' {
            return None;
        }
        self.pos = start + n + 1;
        // Both ends sit next to an ASCII quote: char boundaries.
        Some(&self.text[start..start + n])
    }

    /// The number at the cursor, if one starts there, fits `u64` and has
    /// no leading zero (the writer writes zero as `0`); the cursor stays
    /// put when there is none.
    #[inline(always)]
    fn number(&mut self) -> Option<u64> {
        // 19 digits cannot overflow a u64; only a 20th needs the check.
        const UNCHECKED_DIGITS: usize = 19;
        let digits = self.rest();
        let mut v = 0u64;
        let mut len = 0;
        for &b in digits {
            let d = u64::from(b.wrapping_sub(b'0'));
            if d > 9 {
                break;
            }
            v = if len < UNCHECKED_DIGITS {
                v * 10 + d
            } else {
                v.checked_mul(10)?.checked_add(d)?
            };
            len += 1;
        }
        if len == 0 || (len > 1 && digits[0] == b'0') {
            return None;
        }
        self.pos += len;
        Some(v)
    }

    /// `[n,n,…]` with exactly `N` numbers, or `None` (cursor anywhere).
    #[inline(always)]
    fn tuple<const N: usize>(&mut self) -> Option<[u64; N]> {
        let mut t = [0; N];
        let mut opener = b'[';
        for n in &mut t {
            if self.byte() != Some(opener) {
                return None;
            }
            self.pos += 1;
            *n = self.number()?;
            opener = b',';
        }
        if self.byte() != Some(b']') {
            return None;
        }
        self.pos += 1;
        Some(t)
    }

    /// `[]` or `[[…],[…],…]` of `N`-tuples, appended to `out` as a list
    /// ([`encode_tuples`]); `None` on any other shape (cursor anywhere).
    fn tuples<const N: usize>(&mut self, out: &mut Vec<u8>) -> Option<()> {
        if self.byte() != Some(b'[') {
            return None;
        }
        self.pos += 1;
        let start = out.len();
        let mut len = 0;
        if self.byte() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                for v in self.tuple::<N>()? {
                    put_varint(out, v);
                }
                len += 1;
                match self.byte() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return None,
                }
            }
        }
        // The length goes in front of the numbers, now that it is known.
        let mut buf = [0; MAX_VARINT];
        let n = varint_bytes(&mut buf, len);
        out.splice(start..start, buf[..n].iter().copied());
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: TraceRecord) {
        let mut line = String::new();
        rec.write_jsonl(&mut line);
        let back = TraceRecord::parse(line.trim_end()).expect("parse back");
        assert_eq!(rec, back, "line was {line}");
    }

    #[test]
    fn all_variants_roundtrip() {
        let tx = TxId::new(3, 17);
        let variants = vec![
            ProtoEvent::TxStart {
                tx,
                kind: TxKind(2),
                attempt: 0,
            },
            ProtoEvent::TxForward {
                tx,
                attempt: 1,
                oid: ObjectId(9),
                wv_old: 4,
                wv_new: 11,
            },
            ProtoEvent::TxCommit {
                tx,
                attempt: 2,
                nested_committed: 3,
                reads: vec![(ObjectId(1), 5), (ObjectId(2), 0)],
                writes: vec![(ObjectId(1), 5, 9)],
            },
            ProtoEvent::TxCommit {
                tx,
                attempt: 0,
                nested_committed: 0,
                reads: vec![],
                writes: vec![],
            },
            ProtoEvent::TxAbort {
                tx,
                attempt: 2,
                cause: AbortCause::QueueTimeout,
                nested_parent: 4,
                backoff: SimDuration::from_millis(7),
                wasted_ns: 123_456,
                msgs: 9,
                oid: Some(ObjectId(42)),
                aggressor: None,
            },
            ProtoEvent::TxAbort {
                tx,
                attempt: 0,
                cause: AbortCause::SchedulerAbort,
                nested_parent: 0,
                backoff: SimDuration::ZERO,
                wasted_ns: 0,
                msgs: 0,
                oid: Some(ObjectId(3)),
                aggressor: Some(TxId::new(5, 77)),
            },
            ProtoEvent::NestedOpen {
                tx,
                attempt: 0,
                level: 1,
                kind: TxKind(8),
            },
            ProtoEvent::NestedCommit {
                tx,
                attempt: 0,
                level: 1,
            },
            ProtoEvent::NestedAbort {
                tx,
                attempt: 1,
                level: 2,
                own: 1,
                parent: 1,
            },
            ProtoEvent::SchedDecision {
                oid: ObjectId(7),
                tx,
                attempt: 3,
                local_cl: 2,
                requester_cl: 1,
                window_requests: 5,
                executed: SimDuration::from_millis(50),
                remaining: SimDuration::from_millis(20),
                queue_depth: 2,
                bk: SimDuration::from_millis(45),
                threshold: Some(16),
                verdict: Verdict::Enqueue,
                backoff: SimDuration::from_millis(45),
            },
            ProtoEvent::SchedDecision {
                oid: ObjectId(7),
                tx,
                attempt: 0,
                local_cl: 0,
                requester_cl: 0,
                window_requests: 1,
                executed: SimDuration::ZERO,
                remaining: SimDuration::ZERO,
                queue_depth: 0,
                bk: SimDuration::ZERO,
                threshold: None,
                verdict: Verdict::Abort,
                backoff: SimDuration::ZERO,
            },
            ProtoEvent::QueueServed {
                oid: ObjectId(7),
                tx,
                attempt: 1,
                wait: SimDuration::from_millis(12),
            },
            ProtoEvent::Migrate {
                oid: ObjectId(7),
                tx,
                from: 0,
                to: 3,
                version: 12,
            },
            ProtoEvent::RunInfo {
                scheduler: SchedulerKind::TfaBackoff,
                nodes: 160,
            },
            ProtoEvent::RunSummary {
                commits: 10,
                aborts: 4,
                nested_own: 2,
                nested_parent: 5,
                nested_commits: 12,
                wasted_ns: 1_000_000,
                wasted_msgs: 40,
                attributed: 3,
                cache_hits: 0,
                cache_misses: 0,
                cache_invalidations: 0,
            },
            ProtoEvent::RunSummary {
                commits: 10,
                aborts: 4,
                nested_own: 2,
                nested_parent: 5,
                nested_commits: 12,
                wasted_ns: 1_000_000,
                wasted_msgs: 40,
                attributed: 3,
                cache_hits: 15,
                cache_misses: 4,
                cache_invalidations: 2,
            },
        ];
        // Every kind has a sample, and each writes the label its index names.
        let mut sampled = [false; ProtoEvent::KINDS];
        for (i, ev) in variants.into_iter().enumerate() {
            sampled[ev.kind_index()] = true;
            let rec = TraceRecord {
                at: SimTime(1_000 + i as u64),
                node: i as u32 % 4,
                ev,
            };
            let mut line = String::new();
            rec.write_jsonl(&mut line);
            let label = ProtoEvent::LABELS[rec.ev.kind_index()];
            assert!(line.contains(&format!(",\"ev\":\"{label}\"")), "{line}");
            roundtrip(rec);
        }
        assert_eq!(sampled, [true; ProtoEvent::KINDS]);
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let t = ProtoTrace::disabled();
        assert!(!t.on());
        t.push(
            SimTime(1),
            0,
            ProtoEvent::TxStart {
                tx: TxId::new(0, 1),
                kind: TxKind(1),
                attempt: 0,
            },
        );
        assert!(t.take().records.is_empty());
    }

    #[test]
    fn take_regroups_equal_times_by_node() {
        let mk = |at: u64, node: u32, seq: u64| TraceRecord {
            at: SimTime(at),
            node,
            ev: ProtoEvent::NestedCommit {
                tx: TxId::new(node, seq),
                attempt: 0,
                level: 1,
            },
        };
        let node0 = ProtoTrace::enabled();
        let node1 = node0.clone();
        // Dispatch order: node 1 runs first at every shared time.
        let pushed = [
            (1, 1, 1),
            (5, 0, 1),
            (9, 1, 2),
            (9, 0, 2),
            (9, 1, 3),
            (9, 0, 3),
        ];
        for (at, node, seq) in pushed {
            let handle = if node == 0 { &node0 } else { &node1 };
            let r = mk(at, node, seq);
            handle.push(r.at, r.node, r.ev);
        }
        let want = [
            (1, 1, 1),
            (5, 0, 1),
            (9, 0, 2),
            (9, 0, 3),
            (9, 1, 2),
            (9, 1, 3),
        ];
        let want: Vec<_> = want
            .into_iter()
            .map(|(at, node, seq)| mk(at, node, seq))
            .collect();
        assert_eq!(node0.take().records, want);
        assert!(node1.take().records.is_empty(), "one log, moved out once");
    }

    #[test]
    fn jsonl_text_roundtrip_with_summary() {
        let mut log: TraceLog = [TraceRecord {
            at: SimTime(3),
            node: 2,
            ev: ProtoEvent::QueueServed {
                oid: ObjectId(1),
                tx: TxId::new(2, 4),
                attempt: 0,
                wait: SimDuration::from_millis(3),
            },
        }]
        .into_iter()
        .collect();
        let metrics = NodeCounters {
            commits: 6,
            nested_commits: 8,
            nested_aborts_own: 1,
            nested_aborts_parent: 2,
            aborts_scheduler: 3,
            ..NodeCounters::default()
        };
        log.push_run_info(SchedulerKind::Rts, 8);
        log.push_summary(SimTime(10), &metrics);
        let first = log.records.iter().next().map(|r| r.ev);
        assert!(matches!(first, Some(ProtoEvent::RunInfo { .. })));
        let text = log.to_jsonl();
        let back = TraceLog::parse_jsonl(&text).unwrap();
        assert_eq!(log.records, back.records);
    }

    /// Assert that `parse` refuses `line` at byte `at`, the start of the
    /// field `key` it expected there.
    fn refused(line: &str, at: usize, key: &str) {
        let want = format!("byte {at}: not the writer's {key:?} field");
        assert_eq!(TraceRecord::parse(line), Err(want), "line was {line}");
    }

    /// Assert that `parse` refuses `line` at byte `at`, where the writer
    /// puts the closing brace.
    fn refused_before_brace(line: &str, at: usize) {
        let want = format!("byte {at}: not the writer's closing '}}'");
        assert_eq!(TraceRecord::parse(line), Err(want), "line was {line}");
    }

    #[test]
    fn pre_attribution_lines_are_refused() {
        // A tx_abort line written before the wasted-work fields existed.
        let line = "{\"at\":5,\"node\":1,\"ev\":\"tx_abort\",\"tx\":[1,2],\"attempt\":0,\
                    \"cause\":\"scheduler-abort\",\"nested_parent\":0,\"backoff\":0}";
        refused(line, line.len() - 1, "wasted_ns");
        // Same for a pre-attribution run_summary.
        let line = "{\"at\":9,\"node\":0,\"ev\":\"run_summary\",\"commits\":3,\"aborts\":1,\
                    \"nested_own\":0,\"nested_parent\":0,\"nested_commits\":2}";
        refused(line, line.len() - 1, "wasted_ns");
    }

    #[test]
    fn field_order_whitespace_unknown_and_repeated_keys_are_refused() {
        let canonical = "{\"at\":7,\"node\":2,\"ev\":\"queue_served\",\"oid\":9,\
                         \"tx\":[2,4],\"attempt\":1,\"wait\":300}";
        assert!(TraceRecord::parse(canonical).is_ok());
        let at = |fragment: &str| canonical.find(fragment).expect("a field of the line");
        // Each is refused at its first departure from the writer's bytes.
        let shuffled = "{\"wait\":300,\"tx\":[2,4],\"ev\":\"queue_served\",\"attempt\":1,\
                        \"oid\":9,\"node\":2,\"at\":7}";
        refused(shuffled, 0, "at");
        refused(&format!(" {canonical}"), 0, "at");
        refused(&canonical.replace(":9,", ": 9,"), at(",\"oid\":"), "oid");
        let unknown = canonical.replace(",\"tx\":", ",\"future\":[[1,\"x\"],[],7],\"tx\":");
        refused(&unknown, at(",\"tx\":"), "tx");
        let repeated = canonical.replace(",\"attempt\":1", ",\"attempt\":1,\"attempt\":1");
        refused(&repeated, at(",\"wait\":"), "wait");
        // A key another event kind owns is just as foreign here.
        let foreign = canonical.replace("}", ",\"aggr\":5}");
        refused_before_brace(&foreign, canonical.len() - 1);
        // Nothing may follow the closing brace.
        assert_eq!(
            TraceRecord::parse(&format!("{canonical} ")),
            Err(format!(
                "byte {}: text after the closing '}}'",
                canonical.len()
            ))
        );
    }

    #[test]
    fn numbers_have_no_leading_zeros() {
        let line = |at: &str| {
            format!(
                "{{\"at\":{at},\"node\":0,\"ev\":\"nested_commit\",\"tx\":[1,2],\
                 \"attempt\":0,\"level\":1}}"
            )
        };
        assert_eq!(TraceRecord::parse(&line("0")).map(|r| r.at), Ok(SimTime(0)));
        for zeroed in ["00", "05", "007"] {
            refused(&line(zeroed), 0, "at");
        }
        let tx = line("1").replace("[1,2]", "[1,02]");
        refused(&tx, tx.find(",\"tx\":").expect("a tx field"), "tx");
    }

    #[test]
    fn a_cache_group_the_writer_would_leave_off_is_refused() {
        let summary = "{\"at\":9,\"node\":0,\"ev\":\"run_summary\",\"commits\":3,\"aborts\":1,\
                       \"nested_own\":0,\"nested_parent\":0,\"nested_commits\":2,\"wasted_ns\":0,\
                       \"wasted_msgs\":0,\"attributed\":0";
        assert!(TraceRecord::parse(&format!("{summary}}}")).is_ok());
        let one = format!("{summary},\"cache_hits\":0,\"cache_misses\":1,\"cache_inval\":0}}");
        assert!(TraceRecord::parse(&one).is_ok());
        // All three written and all zero: the writer leaves them off.
        let zero = format!("{summary},\"cache_hits\":0,\"cache_misses\":0,\"cache_inval\":0}}");
        refused(&zero, summary.len(), "cache_hits");
        // Some written without the others: the writer writes all three.
        let partial = format!("{summary},\"cache_misses\":1,\"cache_inval\":0}}");
        refused_before_brace(&partial, summary.len());
        let short = format!("{summary},\"cache_hits\":1}}");
        refused(&short, short.len() - 1, "cache_misses");
    }

    #[test]
    fn cache_off_summary_line_has_no_cache_fields() {
        // Bit-identity guard: with all cache counters zero the summary line
        // must be byte-identical to the pre-cache format.
        let mut log = TraceLog::default();
        log.push_summary(SimTime(10), &NodeCounters::default());
        let text = log.to_jsonl();
        assert!(!text.contains("cache"), "line was {text}");
        let mut cached = TraceLog::default();
        cached.push_summary(
            SimTime(10),
            &NodeCounters {
                cache_hits: 3,
                ..NodeCounters::default()
            },
        );
        assert!(cached.to_jsonl().contains("\"cache_hits\":3"));
    }

    #[test]
    fn narrow_fields_are_range_checked_and_overflow_is_an_error() {
        // One valid line per event kind that has a field narrower than u64;
        // pushing any such field one past its type's maximum must be an
        // error naming the field and its byte, never a silent wrap to a
        // small value.
        let cases: [(&str, &[(&str, u64)]); 5] = [
            (
                "{\"at\":1,\"node\":NODE,\"ev\":\"nested_open\",\"tx\":[TX,2],\
                 \"attempt\":ATTEMPT,\"level\":LEVEL,\"kind\":KIND}",
                &[
                    ("node", u32::MAX as u64),
                    ("tx", u32::MAX as u64),
                    ("attempt", u32::MAX as u64),
                    ("level", u32::MAX as u64),
                    ("kind", u16::MAX as u64),
                ],
            ),
            (
                "{\"at\":1,\"node\":0,\"ev\":\"tx_start\",\"tx\":[1,2],\"kind\":KIND,\
                 \"attempt\":0}",
                &[("kind", u16::MAX as u64)],
            ),
            (
                "{\"at\":1,\"node\":0,\"ev\":\"migrate\",\"oid\":7,\"tx\":[1,2],\
                 \"from\":FROM,\"to\":TO,\"version\":3}",
                &[("from", u32::MAX as u64), ("to", u32::MAX as u64)],
            ),
            (
                "{\"at\":1,\"node\":0,\"ev\":\"sched_decision\",\"oid\":7,\"tx\":[1,2],\
                 \"attempt\":0,\"local_cl\":LOCAL_CL,\"requester_cl\":REQUESTER_CL,\
                 \"window_requests\":WINDOW_REQUESTS,\"executed\":5,\"remaining\":6,\
                 \"queue_depth\":1,\"bk\":2,\"threshold\":THRESHOLD,\"verdict\":\"enqueue\",\
                 \"backoff\":2}",
                &[
                    ("local_cl", u32::MAX as u64),
                    ("requester_cl", u32::MAX as u64),
                    ("window_requests", u32::MAX as u64),
                    ("threshold", u32::MAX as u64),
                ],
            ),
            (
                "{\"at\":1,\"node\":0,\"ev\":\"tx_abort\",\"tx\":[1,2],\"attempt\":0,\
                 \"cause\":\"queue-timeout\",\"nested_parent\":0,\"backoff\":0,\
                 \"wasted_ns\":0,\"msgs\":0,\"aggr\":[AGGR,9]}",
                &[("aggr", u32::MAX as u64)],
            ),
        ];
        for (template, fields) in cases {
            let fill = |bumped: Option<&str>| {
                fields
                    .iter()
                    .fold(template.to_string(), |line, (field, max)| {
                        let v = max + u64::from(bumped == Some(field));
                        line.replace(&field.to_uppercase(), &v.to_string())
                    })
            };
            TraceRecord::parse(&fill(None)).expect("every field at its maximum is valid");
            for (field, _) in fields {
                let line = fill(Some(field));
                let at = line.find(&format!(",\"{field}\":")).expect("the field");
                refused(&line, at, field);
            }
        }

        // u64::MAX is a value; one more is an error, not a wrap.
        let line = |at: &str| {
            format!(
                "{{\"at\":{at},\"node\":0,\"ev\":\"nested_commit\",\"tx\":[1,2],\
                 \"attempt\":0,\"level\":1}}"
            )
        };
        let max = TraceRecord::parse(&line("18446744073709551615")).unwrap();
        assert_eq!(max.at, SimTime(u64::MAX));
        for too_big in [
            "18446744073709551616",
            "99999999999999999999",
            "1".repeat(40).as_str(),
        ] {
            refused(&line(too_big), 0, "at");
        }
        // ... even in a field this version does not know.
        let unknown = line("1").replace("\"level\"", "\"later\":[18446744073709551616],\"level\"");
        assert!(TraceRecord::parse(&unknown).is_err());
    }

    #[test]
    fn run_info_goes_in_front_of_any_log() {
        let info = |scheduler, nodes| TraceRecord {
            at: SimTime::ZERO,
            node: 0,
            ev: ProtoEvent::RunInfo { scheduler, nodes },
        };
        for first_at in [0, 5, u64::MAX] {
            let first = TraceRecord {
                at: SimTime(first_at),
                node: 3,
                ev: ProtoEvent::NestedCommit {
                    tx: TxId::new(3, 1),
                    attempt: 0,
                    level: 1,
                },
            };
            let mut log: TraceLog = [first.clone()].into_iter().collect();
            log.push_run_info(SchedulerKind::Rts, 8);
            // The first header used up the room in front: this one shifts.
            log.push_run_info(SchedulerKind::Tfa, u64::MAX);
            let want = vec![
                info(SchedulerKind::Tfa, u64::MAX),
                info(SchedulerKind::Rts, 8),
                first,
            ];
            assert_eq!(log.records, want);
            // One sequence of records has one encoding, however it was built.
            assert_eq!(log.records, want.into_iter().collect::<TraceRecords>());
        }
    }

    #[test]
    fn parse_jsonl_accepts_only_the_writers_text() {
        let line = "{\"at\":7,\"node\":2,\"ev\":\"queue_served\",\"oid\":9,\
                    \"tx\":[2,4],\"attempt\":1,\"wait\":300}";
        let parsed = |text: String| TraceLog::parse_jsonl(&text).map(|log| log.to_jsonl());
        let text = format!("{line}\n{line}\n");
        assert_eq!(parsed(text.clone()), Ok(text));
        assert_eq!(parsed(String::new()), Ok(String::new()));
        let not_at = "byte 0: not the writer's \"at\" field";
        for (text, want) in [
            (format!("{line}\n\n{line}\n"), format!("line 2: {not_at}")),
            (format!("{line}\n  {line}\n"), format!("line 2: {not_at}")),
            (format!("\n{line}\n"), format!("line 1: {not_at}")),
            (
                format!("{line}\r\n"),
                format!("line 1: byte {}: text after the closing '}}'", line.len()),
            ),
            (
                format!("{line}\n{line}"),
                format!(
                    "line 2: byte {}: no newline after the closing '}}'",
                    line.len()
                ),
            ),
        ] {
            assert_eq!(parsed(text), Err(want));
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(TraceRecord::parse("{\"at\":1}").is_err());
        assert!(TraceRecord::parse("not json").is_err());
        assert!(TraceRecord::parse("{\"at\":1,\"node\":0,\"ev\":\"bogus\"}").is_err());
        assert!(TraceLog::parse_jsonl("{\"at\":oops\n").is_err());
    }
}
