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
//! impl is the value's shape on the line — and what a missing value means
//! (`required`; `default`: older traces lack it, it reads as zero or
//! `None`; `nonzero`: written only when one of the kind's `nonzero` fields
//! is). The enum, the writer and both readers are generated from it, so a
//! new field is one line of the table.
//!
//! **Accepted grammar** ([`TraceRecord::parse`]): one flat object per line;
//! a value is an unsigned integer that fits `u64`, a label string without
//! escapes, or an array of values (in practice `[a,b]` and arrays of 2- or
//! 3-tuples); ASCII whitespace is allowed between tokens. Fields may come
//! in any order, unknown keys are skipped (their values must still be
//! well-formed), and the first occurrence of a repeated key wins. A field
//! narrower than `u64` (`node`, `attempt`, `level`, `kind`, …) is
//! range-checked, never truncated.
//!
//! Two readers share that grammar. The layout reader
//! ([`TraceRecord::parse_layout`]) knows only the writer's own bytes —
//! the table's key order, no whitespace between fields — and reads them
//! without looking a key up; the keyed reader
//! ([`TraceRecord::parse_keyed`]) reads anything the grammar allows.
//! `parse` tries the first and hands any line it refuses to the second,
//! which words every error.

use crate::metrics::{AbortCause, NodeCounters};
use dstm_sim::{SimDuration, SimTime};
use rts_core::{ObjectId, SchedulerKind, TxId, TxKind};
use std::cell::RefCell;
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
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Abort => "abort",
            Verdict::AbortBackoff => "abort-backoff",
            Verdict::Enqueue => "enqueue",
        }
    }

    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "abort" => Some(Verdict::Abort),
            "abort-backoff" => Some(Verdict::AbortBackoff),
            "enqueue" => Some(Verdict::Enqueue),
            _ => None,
        }
    }
}

/// Declares [`ProtoEvent`] from its line format and generates the writer
/// and both readers from the same list (see the module docs).
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
                        $(if written!($rule, any_nonzero) && $field.present() {
                            out.push_str(concat!(",\"", $key, "\":"));
                            $field.write(out);
                        })*
                    }
                )*}
            }

            /// The fields of a `label` line in the writer's order and bytes.
            fn read_layout(label: &str, c: &mut Cursor<'_>) -> Option<ProtoEvent> {
                Some(match label {
                    $($label => ProtoEvent::$kind {$(
                        $field: layout_field!($rule, c, concat!(",\"", $key, "\":")),
                    )*},)*
                    _ => return None,
                })
            }

            /// The fields of a `label` line, keys in any order.
            fn read_keyed(label: &str, line: &str) -> Result<ProtoEvent, String> {
                Ok(match label {
                    $($label => {
                        $(let mut $field = Slot::<$ty>::Unseen;)*
                        scan(line, |key, c| match key {
                            $($key => $field.take(c),)*
                            _ => false,
                        })?;
                        ProtoEvent::$kind {$(
                            $field: match $field.value($key)? {
                                Some(v) => v,
                                None => if_absent!($rule, $ty, $key),
                            },
                        )*}
                    })*
                    other => return Err(format!("unknown event kind {other:?}")),
                })
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
    (default, $v:ident) => {
        false
    };
}

/// Whether a field of this rule is written, given whether any of the
/// kind's `nonzero` fields is.
macro_rules! written {
    (nonzero, $any:ident) => {
        $any
    };
    ($rule:ident, $any:ident) => {
        true
    };
}

/// The layout reader's step for one field: `"key":` and the value, which a
/// field that may be missing may also leave out.
macro_rules! layout_field {
    (required, $c:ident, $fragment:expr) => {
        $c.field($fragment)?
    };
    ($rule:ident, $c:ident, $fragment:expr) => {
        match $c.lit($fragment) {
            Some(()) => Value::read($c)??,
            None => Default::default(),
        }
    };
}

/// The keyed reader's answer for a field the line does not carry.
macro_rules! if_absent {
    (required, $ty:ty, $key:literal) => {
        return Err(missing::<$ty>($key))
    };
    ($rule:ident, $ty:ty, $key:literal) => {
        <$ty>::default()
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
            wasted_ns: u64 = "wasted_ns" default,
            msgs: u64 = "msgs" default,
            oid: Option<ObjectId> = "oid" default,
            aggressor: Option<TxId> = "aggr" default,
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
            threshold: Option<u32> = "threshold" default,
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
            wasted_ns: u64 = "wasted_ns" default,
            wasted_msgs: u64 = "wasted_msgs" default,
            attributed: u64 = "attributed" default,
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
/// growing the heap next to a hole a few percent too small (`observe_160`
/// peak RSS: 103 MiB with exact capacities, 88 MiB with these). The
/// rounded-up tail is never touched; it costs address space, not memory.
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

    /// Parse one JSONL line written by [`TraceRecord::write_jsonl`] — or
    /// any line of the module-level grammar. A line in the writer's exact
    /// layout is read by [`TraceRecord::parse_layout`]; any other line —
    /// reordered, padded, with unknown or repeated keys, legacy, or
    /// malformed — by [`TraceRecord::parse_keyed`], which also words every
    /// error. The only heap allocations are a `TxCommit`'s two result
    /// vectors (and the message of an `Err`).
    pub fn parse(line: &str) -> Result<TraceRecord, String> {
        match TraceRecord::parse_layout(line) {
            Some(rec) => Ok(rec),
            None => TraceRecord::parse_keyed(line),
        }
    }

    /// Read `line` in the layout [`TraceRecord::write_jsonl`] emits: the
    /// table's key order, each `,"key":` fragment compared as bytes,
    /// narrow fields range-checked. `None` at the first byte that departs
    /// from that layout; whatever it accepts, [`TraceRecord::parse_keyed`]
    /// reads as the same record.
    pub fn parse_layout(line: &str) -> Option<TraceRecord> {
        let c = &mut Cursor { text: line, pos: 0 };
        let at = layout_field!(required, c, "{\"at\":");
        let node = layout_field!(required, c, ",\"node\":");
        let label = layout_field!(required, c, ",\"ev\":");
        let ev = ProtoEvent::read_layout(label, c)?;
        c.lit("}")?;
        (c.pos == line.len()).then_some(TraceRecord { at, node, ev })
    }

    /// Read `line` key by key, in whatever order and spacing the
    /// module-level grammar allows: one pass checks the line and reads the
    /// header (`at`, `node`, `ev`), a second reads the fields of the kind
    /// `ev` names. [`TraceRecord::parse`] falls back to it for every line
    /// the layout reader refuses, and it is the reference that reader is
    /// tested against.
    pub fn parse_keyed(line: &str) -> Result<TraceRecord, String> {
        let mut at = Slot::<SimTime>::Unseen;
        let mut node = Slot::<u32>::Unseen;
        let mut ev = Slot::<&str>::Unseen;
        scan(line, |key, c| match key {
            "at" => at.take(c),
            "node" => node.take(c),
            "ev" => ev.take(c),
            _ => false,
        })?;
        let at = at.value("at")?.ok_or_else(|| missing::<SimTime>("at"))?;
        let node = node.value("node")?.ok_or_else(|| missing::<u32>("node"))?;
        let label = ev.value("ev")?.ok_or_else(|| missing::<&str>("ev"))?;
        let ev = ProtoEvent::read_keyed(label, line)?;
        Ok(TraceRecord { at, node, ev })
    }
}

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
    log: Option<Rc<RefCell<Vec<TraceRecord>>>>,
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
    /// never decreases along the log.
    #[inline]
    pub fn push(&self, at: SimTime, node: u32, ev: ProtoEvent) {
        if let Some(log) = &self.log {
            let mut log = log.borrow_mut();
            debug_assert!(
                log.last().is_none_or(|r| r.at <= at),
                "trace time went backwards"
            );
            log.push(TraceRecord { at, node, ev });
        }
    }

    /// Move the recorded log out (end-of-run collection) in the global
    /// order offline tools rely on: by time, ties by node, records with
    /// equal `(at, node)` in the order their node pushed them. The log is
    /// already ordered by time, so that means a stable sort of each run of
    /// equal `at` by node — and only the few runs that are not already in
    /// node order are touched.
    pub fn take(&self) -> TraceLog {
        let Some(log) = &self.log else {
            return TraceLog::default();
        };
        let mut records = std::mem::take(&mut *log.borrow_mut());
        for tie in records.chunk_by_mut(|a, b| a.at == b.at) {
            if !tie.is_sorted_by_key(|r| r.node) {
                tie.sort_by_key(|r| r.node);
            }
        }
        TraceLog { records }
    }
}

/// A whole run's trace, time-ordered across nodes (ties by node).
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    pub records: Vec<TraceRecord>,
}

impl TraceLog {
    /// Prepend the run-identity record (scheduler, node count) offline
    /// tools use to label and segment the log. Sits at time zero, before
    /// every protocol event.
    pub fn push_run_info(&mut self, scheduler: SchedulerKind, nodes: u64) {
        self.records.insert(
            0,
            TraceRecord {
                at: SimTime::ZERO,
                node: 0,
                ev: ProtoEvent::RunInfo { scheduler, nodes },
            },
        );
    }

    /// Append the end-of-run counter snapshot the auditor cross-checks
    /// span-derived totals against.
    pub fn push_summary(&mut self, at: SimTime, merged: &NodeCounters) {
        self.records.push(TraceRecord {
            at,
            node: 0,
            ev: ProtoEvent::RunSummary {
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
        });
    }

    pub fn to_jsonl(&self) -> String {
        // Bytes per record vary several-fold with the workload and drift
        // within a run (timestamps gain digits, aborts set in), so the
        // buffer is sized from a sample strided over the whole log. An
        // eighth of slack is five standard errors of that estimate.
        const SAMPLES: usize = 256;
        let stride = self.records.len() / SAMPLES + 1;
        let mut out = String::new();
        let mut sampled = 0;
        for r in self.records.iter().step_by(stride) {
            r.write_jsonl(&mut out);
            sampled += 1;
        }
        let estimate = out.len() * self.records.len() / sampled.max(1);
        out.clear();
        out.reserve(size_class(estimate + estimate / 8));
        for r in &self.records {
            r.write_jsonl(&mut out);
        }
        out
    }

    pub fn parse_jsonl(text: &str) -> Result<TraceLog, String> {
        // No valid line is shorter than this, which bounds what a file of
        // bare newlines can make us reserve.
        const MIN_LINE_BYTES: usize = 32;
        // (Counted in u8 lanes, 255 bytes at a time, so it vectorises.)
        let lines = 1 + text
            .as_bytes()
            .chunks(255)
            .map(|c| usize::from(c.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>()))
            .sum::<usize>();
        let mut records = Vec::with_capacity(size_class(lines.min(text.len() / MIN_LINE_BYTES)));
        for (i, line) in text.lines().enumerate() {
            // Only a line that is not `{…}` already can need trimming.
            let line = match line.as_bytes() {
                [b'{', .., b'}'] => line,
                _ => line.trim(),
            };
            if line.is_empty() {
                continue;
            }
            records.push(TraceRecord::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(TraceLog { records })
    }
}

/// A field value of the line format: how the writer puts it after its
/// `"key":`, and how both readers take it back. The impl for a field's type
/// is that field's shape on the line.
trait Value<'a>: Sized {
    /// The shape, as the keyed reader's error for a missing field names it.
    const SHAPE: &'static str;

    /// Whether the field goes on the line at all (an absent `Option` does
    /// not).
    #[inline]
    fn present(&self) -> bool {
        true
    }

    fn write(&self, out: &mut String);

    /// The value at the cursor: `None` if it has another shape (the cursor
    /// is then anywhere), `Some(None)` if it has this shape but is no value
    /// of this type.
    fn read(c: &mut Cursor<'a>) -> Option<Option<Self>>;

    /// The keyed reader's error for `raw`, a value of this shape that
    /// [`Value::read`] found no value of this type in.
    fn invalid(key: &str, _raw: &str) -> String {
        format!("field {key:?} out of range")
    }
}

/// Numbers: range-checked into their type, never truncated.
macro_rules! numbers {
    ($($t:ty),*) => {$(
        impl<'a> Value<'a> for $t {
            const SHAPE: &'static str = "numeric";

            #[inline]
            fn write(&self, out: &mut String) {
                push_u64(out, u64::from(*self));
            }

            #[inline(always)]
            fn read(c: &mut Cursor<'a>) -> Option<Option<Self>> {
                c.number().map(|v| Self::try_from(v).ok())
            }
        }
    )*};
}
numbers!(u64, u32, u16);

/// Newtypes, written as the number they wrap.
macro_rules! wrapped {
    ($($t:ident($inner:ty)),*) => {$(
        impl<'a> Value<'a> for $t {
            const SHAPE: &'static str = "numeric";

            #[inline]
            fn write(&self, out: &mut String) {
                self.0.write(out);
            }

            #[inline(always)]
            fn read(c: &mut Cursor<'a>) -> Option<Option<Self>> {
                Some(<$inner>::read(c)?.map($t))
            }
        }
    )*};
}
wrapped!(SimTime(u64), SimDuration(u64), ObjectId(u64), TxKind(u16));

impl<'a> Value<'a> for TxId {
    const SHAPE: &'static str = "[node,seq]";

    #[inline]
    fn write(&self, out: &mut String) {
        write_tuples(out, [[u64::from(self.node), self.seq]]);
    }

    #[inline(always)]
    fn read(c: &mut Cursor<'a>) -> Option<Option<Self>> {
        let [node, seq] = c.tuple()?;
        Some(u32::try_from(node).ok().map(|node| TxId::new(node, seq)))
    }
}

/// Enums written as their label; `$what` names them in errors.
macro_rules! labels {
    ($($t:ty = $what:literal),*) => {$(
        impl<'a> Value<'a> for $t {
            const SHAPE: &'static str = $what;

            #[inline]
            fn write(&self, out: &mut String) {
                self.label().write(out);
            }

            #[inline(always)]
            fn read(c: &mut Cursor<'a>) -> Option<Option<Self>> {
                Some(<$t>::from_label(c.label()?))
            }

            fn invalid(_key: &str, raw: &str) -> String {
                format!("unknown {} {raw}", $what)
            }
        }
    )*};
}
labels!(
    AbortCause = "abort cause",
    Verdict = "verdict",
    SchedulerKind = "scheduler"
);

impl<'a> Value<'a> for &'a str {
    const SHAPE: &'static str = "string";

    #[inline]
    fn write(&self, out: &mut String) {
        out.push('"');
        out.push_str(self);
        out.push('"');
    }

    #[inline(always)]
    fn read(c: &mut Cursor<'a>) -> Option<Option<Self>> {
        c.label().map(Some)
    }
}

impl<'a, T: Value<'a>> Value<'a> for Option<T> {
    const SHAPE: &'static str = T::SHAPE;

    #[inline]
    fn present(&self) -> bool {
        self.is_some()
    }

    #[inline]
    fn write(&self, out: &mut String) {
        if let Some(v) = self {
            v.write(out);
        }
    }

    #[inline(always)]
    fn read(c: &mut Cursor<'a>) -> Option<Option<Self>> {
        Some(T::read(c)?.map(Some))
    }

    fn invalid(key: &str, raw: &str) -> String {
        T::invalid(key, raw)
    }
}

impl<'a> Value<'a> for Vec<(ObjectId, u64)> {
    const SHAPE: &'static str = "[[oid,version],...]";

    #[inline]
    fn write(&self, out: &mut String) {
        out.push('[');
        write_tuples(out, self.iter().map(|&(oid, v)| [oid.0, v]));
        out.push(']');
    }

    #[inline(always)]
    fn read(c: &mut Cursor<'a>) -> Option<Option<Self>> {
        c.tuples(|[oid, v]| (ObjectId(oid), v)).map(Some)
    }
}

impl<'a> Value<'a> for Vec<(ObjectId, u64, u64)> {
    const SHAPE: &'static str = "[[oid,expected,new],...]";

    #[inline]
    fn write(&self, out: &mut String) {
        out.push('[');
        write_tuples(out, self.iter().map(|&(oid, e, n)| [oid.0, e, n]));
        out.push(']');
    }

    #[inline(always)]
    fn read(c: &mut Cursor<'a>) -> Option<Option<Self>> {
        c.tuples(|[oid, e, n]| (ObjectId(oid), e, n)).map(Some)
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

/// The keyed reader's error for a required field the line lacks, or holds
/// a value of another shape in.
fn missing<'a, T: Value<'a>>(key: &str) -> String {
    format!("missing {} field {key:?}", T::SHAPE)
}

/// What the keyed reader has made of one field so far.
enum Slot<'a, T> {
    /// The key has not come up.
    Unseen,
    /// Its first occurrence held a value of another shape: absent.
    Absent,
    Got(T),
    /// Its first occurrence held this text, of the field's shape but no
    /// value of its type.
    Bad(&'a str),
}

impl<'a, T: Value<'a>> Slot<'a, T> {
    /// Read the value at `c` if this is the key's first occurrence
    /// (`true`); otherwise leave it to be skipped (`false`).
    fn take(&mut self, c: &mut Cursor<'a>) -> bool {
        if !matches!(self, Slot::Unseen) {
            return false;
        }
        let start = c.pos;
        *self = match T::read(c) {
            Some(Some(v)) => Slot::Got(v),
            Some(None) => Slot::Bad(&c.text[start..c.pos]),
            None => Slot::Absent,
        };
        !matches!(self, Slot::Absent)
    }

    /// The value `key` holds, `None` if the line has none of its shape.
    fn value(self, key: &str) -> Result<Option<T>, String> {
        match self {
            Slot::Got(v) => Ok(Some(v)),
            Slot::Bad(raw) => Err(T::invalid(key, raw)),
            Slot::Unseen | Slot::Absent => Ok(None),
        }
    }
}

/// Walk the object on `line`, checking it against the module-level grammar,
/// and hand each key with the cursor at its value to `member`, which reads
/// the value (`true`) or leaves it to be checked and skipped (`false`).
fn scan<'a>(
    line: &'a str,
    mut member: impl FnMut(&'a str, &mut Cursor<'a>) -> bool,
) -> Result<(), String> {
    let mut c = Cursor { text: line, pos: 0 };
    c.expect(b'{')?;
    if c.peek() == Some(b'}') {
        c.pos += 1;
    } else {
        loop {
            let key = c.string()?;
            c.expect(b':')?;
            c.peek();
            let start = c.pos;
            if !member(key, &mut c) {
                c.pos = start;
                c.skip_value()?;
            }
            match c.peek() {
                Some(b',') => c.pos += 1,
                Some(b'}') => {
                    c.pos += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", c.pos)),
            }
        }
    }
    c.skip_ws();
    if c.pos != line.len() {
        return Err("trailing garbage after object".into());
    }
    Ok(())
}

/// Byte cursor over one line. Not a general JSON reader: it knows exactly
/// the module-level grammar.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// What is left of the line, as bytes.
    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.pos..]
    }

    /// Cold: the writer emits no whitespace.
    #[cold]
    fn skip_ws(&mut self) {
        while self.byte().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// The next byte that is not whitespace.
    #[inline(always)]
    fn peek(&mut self) -> Option<u8> {
        // Every ASCII whitespace byte is <= b' ', and the writer emits none.
        match self.byte() {
            Some(b) if b > b' ' => Some(b),
            _ => {
                self.skip_ws();
                self.byte()
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
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

    /// `fragment`, then a value of `T`: one step of the layout reader.
    #[inline(never)]
    fn field<T: Value<'a>>(&mut self, fragment: &str) -> Option<T> {
        self.lit(fragment)?;
        T::read(self)?
    }

    /// A string without escapes, if one comes next.
    #[inline(always)]
    fn label(&mut self) -> Option<&'a str> {
        if self.peek() != Some(b'"') {
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

    /// [`Cursor::label`], with the reason it found none worded.
    fn string(&mut self) -> Result<&'a str, String> {
        if let Some(s) = self.label() {
            return Ok(s);
        }
        self.expect(b'"')?;
        Err(if self.rest().contains(&b'\\') {
            "escape sequences are not part of the trace format".into()
        } else {
            "unterminated string".into()
        })
    }

    /// The number at the cursor, if one starts there and fits `u64`; the
    /// cursor stays put when it does not fit.
    #[inline(always)]
    fn number(&mut self) -> Option<u64> {
        // 19 digits cannot overflow a u64; only a 20th needs the check.
        const UNCHECKED_DIGITS: usize = 19;
        let mut v = 0u64;
        let mut len = 0;
        for &b in self.rest() {
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
        self.pos += len;
        (len > 0).then_some(v)
    }

    /// `[n,n,…]` with exactly `N` numbers, or `None` (cursor anywhere).
    #[inline(always)]
    fn tuple<const N: usize>(&mut self) -> Option<[u64; N]> {
        let mut t = [0; N];
        let mut opener = b'[';
        for n in &mut t {
            if self.peek() != Some(opener) {
                return None;
            }
            self.pos += 1;
            self.peek();
            *n = self.number()?;
            opener = b',';
        }
        if self.peek() != Some(b']') {
            return None;
        }
        self.pos += 1;
        Some(t)
    }

    /// `[]` or `[[…],[…],…]` of `N`-tuples, each turned into an element by
    /// `make`; `None` on any other shape (cursor anywhere).
    fn tuples<const N: usize, T>(&mut self, make: impl Fn([u64; N]) -> T) -> Option<Vec<T>> {
        if self.peek() != Some(b'[') {
            return None;
        }
        self.pos += 1;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(out);
        }
        loop {
            out.push(make(self.tuple()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Some(out);
                }
                _ => return None,
            }
        }
    }

    /// Check and step over one value of any shape. Iterative, so nesting
    /// depth costs no stack.
    fn skip_value(&mut self) -> Result<(), String> {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.string()?;
                }
                Some(b'[') => {
                    self.pos += 1;
                    if self.peek() != Some(b']') {
                        depth += 1;
                        continue;
                    }
                    self.pos += 1;
                }
                Some(b) if b.is_ascii_digit() => {
                    if self.number().is_none() {
                        return Err(format!(
                            "number at byte {} does not fit in 64 bits",
                            self.pos
                        ));
                    }
                }
                _ => return Err(format!("unexpected value at byte {}", self.pos)),
            }
            // A value just ended: close arrays until a comma asks for more.
            loop {
                if depth == 0 {
                    return Ok(());
                }
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        break;
                    }
                    Some(b']') => {
                        self.pos += 1;
                        depth -= 1;
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }
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
        let mut log = TraceLog {
            records: vec![TraceRecord {
                at: SimTime(3),
                node: 2,
                ev: ProtoEvent::QueueServed {
                    oid: ObjectId(1),
                    tx: TxId::new(2, 4),
                    attempt: 0,
                    wait: SimDuration::from_millis(3),
                },
            }],
        };
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
        assert!(matches!(log.records[0].ev, ProtoEvent::RunInfo { .. }));
        let text = log.to_jsonl();
        let back = TraceLog::parse_jsonl(&text).unwrap();
        assert_eq!(log.records, back.records);
    }

    #[test]
    fn pre_attribution_traces_still_parse() {
        // A tx_abort line written before the wasted-work fields existed.
        let line = "{\"at\":5,\"node\":1,\"ev\":\"tx_abort\",\"tx\":[1,2],\"attempt\":0,\
                    \"cause\":\"scheduler-abort\",\"nested_parent\":0,\"backoff\":0}";
        let rec = TraceRecord::parse(line).unwrap();
        match rec.ev {
            ProtoEvent::TxAbort {
                wasted_ns,
                msgs,
                oid,
                aggressor,
                ..
            } => {
                assert_eq!((wasted_ns, msgs), (0, 0));
                assert!(oid.is_none() && aggressor.is_none());
            }
            other => panic!("parsed {other:?}"),
        }
        // Same for a pre-attribution run_summary.
        let line = "{\"at\":9,\"node\":0,\"ev\":\"run_summary\",\"commits\":3,\"aborts\":1,\
                    \"nested_own\":0,\"nested_parent\":0,\"nested_commits\":2}";
        let rec = TraceRecord::parse(line).unwrap();
        assert!(matches!(
            rec.ev,
            ProtoEvent::RunSummary {
                wasted_ns: 0,
                wasted_msgs: 0,
                attributed: 0,
                cache_hits: 0,
                cache_misses: 0,
                cache_invalidations: 0,
                ..
            }
        ));
    }

    #[test]
    fn field_order_whitespace_unknown_and_repeated_keys_are_tolerated() {
        let canonical = "{\"at\":7,\"node\":2,\"ev\":\"queue_served\",\"oid\":9,\
                         \"tx\":[2,4],\"attempt\":1,\"wait\":300}";
        // Shuffled, padded with whitespace, carrying keys this version does
        // not know (of every value shape) and a repeated key: the first
        // occurrence wins.
        let shuffled = " { \"wait\" : 300 , \"future\":[[1,\"x\"],[],7] ,\"tx\":[ 2 , 4 ],\
                        \"ev\":\"queue_served\",\"note\":\"hi\",\"attempt\":1,\"oid\":9,\
                        \"node\":2,\"at\":7,\"at\":8,\"wait\":\"later\" } ";
        let rec = TraceRecord::parse(canonical).unwrap();
        assert_eq!(TraceRecord::parse(shuffled), Ok(rec.clone()));
        assert_eq!(rec.at, SimTime(7));
        // A key another event kind owns is just an unknown key here, even
        // when its value has the wrong shape for that kind.
        let foreign = "{\"at\":7,\"node\":2,\"ev\":\"queue_served\",\"oid\":9,\"tx\":[2,4],\
                       \"attempt\":1,\"wait\":300,\"reads\":\"none\",\"aggr\":5,\"cause\":3}";
        assert_eq!(TraceRecord::parse(foreign), Ok(rec));
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
        // error naming the field, never a silent wrap to a small value.
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
                 \"aggr\":[AGGR,9]}",
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
                let err = TraceRecord::parse(&fill(Some(field))).unwrap_err();
                assert_eq!(err, format!("field {field:?} out of range"));
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
            let err = TraceRecord::parse(&line(too_big)).unwrap_err();
            assert!(err.contains("does not fit in 64 bits"), "{err}");
        }
        // ... even in a field this version does not know.
        let unknown = line("1").replace("\"level\"", "\"later\":[18446744073709551616],\"level\"");
        assert!(TraceRecord::parse(&unknown).is_err());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(TraceRecord::parse("{\"at\":1}").is_err());
        assert!(TraceRecord::parse("not json").is_err());
        assert!(TraceRecord::parse("{\"at\":1,\"node\":0,\"ev\":\"bogus\"}").is_err());
        assert!(TraceLog::parse_jsonl("{\"at\":oops\n").is_err());
    }
}
