//! Trace export and offline analysis of protocol-event logs.
//!
//! Three consumers of a [`TraceLog`], each of which reads the log once,
//! record by record, and splits it into runs the same way (a log may hold
//! several, one file after another): a run ends at its `RunSummary`, or
//! just before the `RunInfo` that starts the next one.
//!
//! * [`audit`] — replays a trace and checks protocol invariants that the
//!   live counters cannot express: commit-footprint consistency (a
//!   necessary condition for serializability), write version chains,
//!   enqueue/queue-timeout pairing, the Table-I nested-abort split and the
//!   wasted-work ledger recomputed from spans against the counter-based
//!   `RunSummary` record, and time order within each run;
//! * [`analyze`] — the object-conflict picture (hot objects, aggressors,
//!   abort chains, throughput knee) and a per-run census of the records;
//! * [`to_chrome_trace`] — renders the log in Chrome `trace_event` JSON
//!   (open in `chrome://tracing` or Perfetto): one process per node, one
//!   thread lane per transaction, complete-event spans per attempt and
//!   nested child, instants for scheduler decisions / queue service /
//!   migrations.

use dstm_sim::SimTime;
use hyflow_dstm::trace::{push_u64, size_class};
use hyflow_dstm::{ProtoEvent, RecordReader, TraceLog, TraceRecord, Verdict};
use rts_core::{FxHashMap, FxHashSet, ObjectId, SchedulerKind, TxId};
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Audit
// ---------------------------------------------------------------------------

/// Outcome of an offline invariant audit.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    pub commits_checked: usize,
    pub reads_checked: usize,
    pub writes_checked: usize,
    pub timeout_aborts_checked: usize,
    /// Whether a `RunSummary` record was present to cross-check against.
    pub summary_checked: bool,
    pub violations: Vec<String>,
}

impl AuditReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "audited {} commits ({} reads, {} writes), {} queue-timeout aborts; \
             counter cross-check: {}\n",
            self.commits_checked,
            self.reads_checked,
            self.writes_checked,
            self.timeout_aborts_checked,
            if self.summary_checked {
                "yes"
            } else {
                "no summary record"
            },
        );
        if self.ok() {
            out.push_str("OK: all invariants hold\n");
        } else {
            let _ = writeln!(out, "{} violation(s):", self.violations.len());
            for v in &self.violations {
                let _ = writeln!(out, "  - {v}");
            }
        }
        out
    }
}

/// Replay a (time-ordered) trace and check protocol invariants.
///
/// **Footprint consistency.** Each commit's read set `(object, version)`
/// must admit a single instant at which every read version was
/// simultaneously current: version `v` of an object is current from its
/// install (the committing writer's serialization point, which is when the
/// `TxCommit` record is stamped) until the install of the next recorded
/// version. An empty intersection means the commit observed two states that
/// never coexisted — a serializability violation. Under TFA this can never
/// happen (every read is re-validated after the last fetch), so any hit is
/// a protocol bug, not workload noise. A later version may be recorded
/// after the commit that read an earlier one, so the read sets are checked
/// once the run has ended, against all of its installs.
///
/// **Write chains.** Per object, committed writes must form a linear
/// version history: each write's expected (locked) version equals the
/// previously installed one, and the published version strictly exceeds it.
/// A mismatch is a lost update.
///
/// **Queue-timeout pairing.** Every `QueueTimeout` abort must be preceded
/// by a scheduler decision that *enqueued* that same `(tx, attempt)` — a
/// timeout without an enqueue means a deadline timer fired for a requester
/// the owner never parked.
///
/// **Time order.** The writer never lets `at` decrease within a run, so
/// the first record of a run stamped earlier than the one before it is
/// reported: a log out of time order cannot be replayed.
///
/// A log may hold several runs, one after another (concatenated traces). A
/// run ends at its `RunSummary`, or just before the `RunInfo` that starts
/// the next one; each is audited on its own, in one pass over its records,
/// and the counts summed. A run without a protocol record is a violation;
/// when there is more than one run, each violation names its run, counting
/// from 1.
pub fn audit(log: &TraceLog) -> AuditReport {
    let mut report = AuditReport::default();
    let mut protocol_records = 0;
    // Where each run's violations start.
    let mut starts = Vec::new();
    let mut run = RunAudit::default();
    let mut runs = Runs::new(log);
    loop {
        let first = report.violations.len();
        if !runs.read(|r| run.record(r, &mut report)) {
            break;
        }
        protocol_records += run.finish(&mut report, first);
        starts.push(first);
    }

    // An empty or header-only trace (no protocol records, just RunInfo /
    // RunSummary metadata) means nothing was actually checked: a truncated
    // capture, a run built without `trace_protocol`, or a wrong file.
    // Vacuously passing such an audit is worse than failing it.
    if protocol_records == 0 {
        return AuditReport {
            violations: vec![
                "trace contains no protocol records (empty or header-only file): \
                 nothing to audit — was the run traced with trace_protocol?"
                    .to_string(),
            ],
            ..AuditReport::default()
        };
    }
    if starts.len() > 1 {
        starts.push(report.violations.len());
        for (k, w) in starts.windows(2).enumerate() {
            for v in &mut report.violations[w[0]..w[1]] {
                *v = format!("run {}: {v}", k + 1);
            }
        }
    }
    report
}

/// Splits a log into its runs in one pass over its records. A run ends at
/// its `RunSummary`, or just before the `RunInfo` that starts the next run;
/// a log with neither is one run. [`audit`], [`analyze`] and
/// [`to_chrome_trace`] all split a log this way.
struct Runs<'a> {
    reader: RecordReader<'a>,
    /// The `RunInfo` that ended the last run: the next run's first record.
    next_info: Option<TraceRecord>,
}

impl<'a> Runs<'a> {
    fn new(log: &'a TraceLog) -> Self {
        Runs {
            reader: log.records.reader(),
            next_info: None,
        }
    }

    /// Hand `each` the next run's records in order; `false` past the last
    /// run.
    fn read(&mut self, mut each: impl FnMut(&TraceRecord)) -> bool {
        let mut started = self.next_info.take().inspect(|info| each(info)).is_some();
        while let Some(r) = self.reader.read() {
            if started && matches!(r.ev, ProtoEvent::RunInfo { .. }) {
                self.next_info = Some(r.clone());
                break;
            }
            started = true;
            each(r);
            if matches!(r.ev, ProtoEvent::RunSummary { .. }) {
                break;
            }
        }
        started
    }
}

/// What [`audit`] keeps of the run it is reading. [`RunAudit::finish`]
/// clears it for the next run, keeping its buffers' room.
#[derive(Default)]
struct RunAudit {
    /// The run's records so far, and its protocol records among them (all
    /// but `RunInfo` and `RunSummary`).
    records: usize,
    protocol_records: usize,
    last_at: SimTime,
    /// The first record stamped earlier than the one before it: its
    /// position in the run, its `at` and the one before.
    backwards: Option<(usize, SimTime, SimTime)>,
    /// Every install, in record order until [`index_installs`].
    installs: Vec<Install>,
    /// The version last installed of each object.
    installed: FxHashMap<ObjectId, u64>,
    enqueued: FxHashSet<(TxId, u32)>,
    spans: SpanTotals,
    /// Every commit's read set, back to back.
    reads: Vec<(ObjectId, u64)>,
    /// Each commit: its transaction, attempt and time, and where its read
    /// set ends in `reads`.
    commits: Vec<(TxId, u32, SimTime, usize)>,
}

impl RunAudit {
    /// Check the run's next record, adding its counts and violations to
    /// `report`; a commit's read set waits for [`RunAudit::finish`].
    fn record(&mut self, r: &TraceRecord, report: &mut AuditReport) {
        self.records += 1;
        if r.at < self.last_at && self.backwards.is_none() {
            self.backwards = Some((self.records, r.at, self.last_at));
        }
        self.last_at = r.at;
        let spans = &mut self.spans;
        match &r.ev {
            ProtoEvent::TxCommit {
                tx,
                attempt,
                reads,
                writes,
                ..
            } => {
                report.commits_checked += 1;
                report.reads_checked += reads.len();
                spans.commits += 1;
                self.reads.extend_from_slice(reads);
                self.commits.push((*tx, *attempt, r.at, self.reads.len()));

                for &(oid, expect, new) in writes {
                    report.writes_checked += 1;
                    if new <= expect {
                        report.violations.push(format!(
                            "write of {oid} by {tx} does not advance the version \
                             ({expect} -> {new})"
                        ));
                    }
                    if let Some(prev) = self.installed.insert(oid, new) {
                        if expect != prev {
                            report.violations.push(format!(
                                "lost update on {oid}: {tx} committed against version \
                                 {expect} but the last installed version is {prev}"
                            ));
                        }
                    }
                    self.installs.push(Install {
                        oid,
                        version: new,
                        at: r.at.0,
                        earliest_from_here: r.at.0,
                    });
                }
            }
            ProtoEvent::SchedDecision {
                tx,
                attempt,
                verdict: Verdict::Enqueue,
                ..
            } => {
                self.enqueued.insert((*tx, *attempt));
            }
            ProtoEvent::TxAbort {
                tx,
                attempt,
                cause,
                nested_parent,
                wasted_ns,
                msgs,
                aggressor,
                ..
            } => {
                spans.aborts += 1;
                spans.nested_parent += nested_parent;
                spans.wasted_ns += wasted_ns;
                spans.wasted_msgs += msgs;
                spans.attributed += u64::from(aggressor.is_some());
                if *cause == hyflow_dstm::AbortCause::QueueTimeout {
                    report.timeout_aborts_checked += 1;
                    if !self.enqueued.contains(&(*tx, *attempt)) {
                        report.violations.push(format!(
                            "queue-timeout abort of {tx} (attempt {attempt}) at t={} has \
                             no preceding enqueue decision",
                            r.at.0
                        ));
                    }
                }
            }
            ProtoEvent::NestedCommit { .. } => spans.nested_commits += 1,
            ProtoEvent::NestedAbort { own, parent, .. } => {
                spans.nested_own += own;
                spans.nested_parent += parent;
            }
            ProtoEvent::RunSummary {
                commits,
                aborts,
                nested_own,
                nested_parent,
                nested_commits,
                wasted_ns,
                wasted_msgs,
                attributed,
                ..
            } => {
                report.summary_checked = true;
                let pairs = [
                    ("commits", spans.commits, *commits),
                    ("aborts", spans.aborts, *aborts),
                    ("nested-own aborts", spans.nested_own, *nested_own),
                    ("nested-parent aborts", spans.nested_parent, *nested_parent),
                    ("nested commits", spans.nested_commits, *nested_commits),
                    ("wasted-work ns", spans.wasted_ns, *wasted_ns),
                    ("wasted messages", spans.wasted_msgs, *wasted_msgs),
                    ("attributed aborts", spans.attributed, *attributed),
                ];
                for (label, from_spans, from_counters) in pairs {
                    if from_spans != from_counters {
                        report.violations.push(format!(
                            "Table-I cross-check failed for {label}: {from_spans} \
                             recomputed from spans vs {from_counters} from counters"
                        ));
                    }
                }
                return;
            }
            ProtoEvent::RunInfo { .. } => return,
            _ => {}
        }
        self.protocol_records += 1;
    }

    /// End the run whose violations start at `first` in `report`: report
    /// its time-order break first, check every read set against all of the
    /// run's installs, and clear for the next run. The run's protocol
    /// records.
    fn finish(&mut self, report: &mut AuditReport, first: usize) -> usize {
        if let Some((i, at, last)) = self.backwards {
            report.violations.insert(
                first,
                format!(
                    "time goes backwards at record {i} of the run: t={} after t={}",
                    at.0, last.0
                ),
            );
        }
        index_installs(&mut self.installs);
        let mut start = 0;
        for &(tx, attempt, at, end) in &self.commits {
            let reads = &self.reads[start..end];
            start = end;
            let mut lo_max = 0u64;
            let mut hi_min = u64::MAX;
            for &(oid, version) in reads {
                let (lo, hi) = read_window(&self.installs, oid, version);
                lo_max = lo_max.max(lo);
                hi_min = hi_min.min(hi);
            }
            if lo_max >= hi_min {
                report.violations.push(format!(
                    "commit of {tx} (attempt {attempt}) at t={} has an inconsistent \
                     read footprint: no instant at which all {} read versions coexisted",
                    at.0,
                    reads.len()
                ));
            }
        }
        if self.protocol_records == 0 {
            report
                .violations
                .push("no protocol records (a header-only run): nothing to audit".to_string());
        }
        let protocol_records = self.protocol_records;
        (self.records, self.protocol_records) = (0, 0);
        (self.last_at, self.backwards) = (SimTime::ZERO, None);
        self.spans = SpanTotals::default();
        self.installs.clear();
        self.installed.clear();
        self.enqueued.clear();
        self.reads.clear();
        self.commits.clear();
        protocol_records
    }
}

/// One recorded install of an object version, for [`read_window`].
#[derive(Clone, Copy, Debug)]
struct Install {
    oid: ObjectId,
    version: u64,
    at: u64,
    /// After [`index_installs`]: the earliest `at` from this entry to the
    /// end of its object's history.
    earliest_from_here: u64,
}

/// Index a run's installs: sort them by object and version — stably, so
/// installs of one version keep their record order — and fill in each
/// entry's `earliest_from_here`. Install times need not rise with versions
/// (a corrupt trace), hence the suffix minimum.
fn index_installs(installs: &mut [Install]) {
    installs.sort_by_key(|i| (i.oid, i.version));
    for hist in installs.chunk_by_mut(|a, b| a.oid == b.oid) {
        let mut earliest = u64::MAX;
        for i in hist.iter_mut().rev() {
            earliest = earliest.min(i.at);
            i.earliest_from_here = earliest;
        }
    }
}

/// Window of validity of `version` of `oid` in indexed installs: from its
/// first recorded install to the earliest install of any higher version.
/// Unknown installs (seed versions) open at 0; no successor leaves the
/// window open-ended. Two binary searches.
fn read_window(installs: &[Install], oid: ObjectId, version: u64) -> (u64, u64) {
    let first = installs.partition_point(|i| (i.oid, i.version) < (oid, version));
    let this = |i: &&Install| i.oid == oid && i.version == version;
    let lo = installs.get(first).filter(this).map_or(0, |i| i.at);
    let later = first + installs[first..].partition_point(|i| this(&i));
    let hi = installs
        .get(later)
        .filter(|i| i.oid == oid)
        .map_or(u64::MAX, |i| i.earliest_from_here);
    (lo, hi)
}

/// Span-derived totals accumulated during replay (the numbers the
/// counter-based `RunSummary` must match exactly).
#[derive(Default)]
struct SpanTotals {
    commits: u64,
    aborts: u64,
    nested_own: u64,
    nested_parent: u64,
    nested_commits: u64,
    wasted_ns: u64,
    wasted_msgs: u64,
    attributed: u64,
}

// ---------------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------------

/// Append `ns` as microseconds with exactly three decimals. Integer
/// arithmetic, so the digits are exact at any magnitude; for `ns < 2^50`
/// (13 days of virtual time) they are also what `{:.3}` prints for
/// `ns as f64 / 1000.0`, the form this exporter used to go through.
fn push_us(out: &mut String, ns: u64) {
    push_u64(out, ns / 1000);
    let frac = (ns % 1000) as u16;
    let digit = |d: u16| b'0' + d as u8;
    let tail = [
        b'.',
        digit(frac / 100),
        digit(frac / 10 % 10),
        digit(frac % 10),
    ];
    // SAFETY: `frac < 1000`, so each `digit` is an ASCII digit; with the
    // point, all four bytes are ASCII and `out` stays UTF-8. (`from_utf8`
    // here measured slower than four `char` pushes; this, faster.)
    unsafe { out.as_mut_vec() }.extend_from_slice(&tail);
}

/// The Chrome `traceEvents` array under construction. Events are written
/// straight into `out` from literal fragments — no per-event `String`, no
/// `core::fmt`.
struct ChromeEvents {
    out: String,
    first: bool,
}

impl ChromeEvents {
    /// Start an event: the separator, then `{"name":"` + `name`.
    fn open(&mut self, name: &str) -> &mut Self {
        self.out.push_str(if self.first {
            "\n  {\"name\":\""
        } else {
            ",\n  {\"name\":\""
        });
        self.first = false;
        self.out.push_str(name);
        self
    }

    fn text(&mut self, fragment: &str) -> &mut Self {
        self.out.push_str(fragment);
        self
    }

    fn num(&mut self, fragment: &str, v: impl Into<u64>) -> &mut Self {
        self.out.push_str(fragment);
        push_u64(&mut self.out, v.into());
        self
    }

    /// `fragment` + `tx` as `TxId`'s `Display` prints it.
    fn tx(&mut self, fragment: &str, tx: TxId) -> &mut Self {
        self.text(fragment).num("T", tx.node).num(".", tx.seq)
    }

    /// `,"pid":<tx.node>,"tid":<tx.seq>,"ts":<started>,"dur":<at - started>`
    /// after `fragment` — the lane and extent of a complete (`X`) event.
    fn span(&mut self, fragment: &str, tx: TxId, started: u64, at: u64) -> &mut Self {
        self.num(fragment, tx.node)
            .num(",\"tid\":", tx.seq)
            .us(",\"ts\":", started)
            .us(",\"dur\":", at.saturating_sub(started))
    }

    /// Open attempt `a` of `tx` as a complete event named `<tx>#a<a><how>`,
    /// up to and including its `dur`.
    fn attempt(&mut self, tx: TxId, a: u32, how: &str, started: u64, at: u64) -> &mut Self {
        self.open("").tx("", tx).num("#a", a).text(how).span(
            "\",\"cat\":\"tx\",\"ph\":\"X\",\"pid\":",
            tx,
            started,
            at,
        )
    }

    fn us(&mut self, fragment: &str, ns: u64) -> &mut Self {
        self.out.push_str(fragment);
        push_us(&mut self.out, ns);
        self
    }

    /// Close every open child of `tx` at level `down_to` or deeper.
    fn close_children(&mut self, tx: TxId, down_to: u32, at: u64, stack: &mut Vec<(u32, u64)>) {
        while let Some(&(level, started)) = stack.last().filter(|&&(level, _)| level >= down_to) {
            stack.pop();
            self.open("child L")
                .num("", level)
                .span(
                    "\",\"cat\":\"nested\",\"ph\":\"X\",\"pid\":",
                    tx,
                    started,
                    at,
                )
                .text("}");
        }
    }
}

/// Render the log as Chrome `trace_event` JSON (the "JSON array format"
/// wrapped in an object). pid = node, tid = transaction sequence number on
/// its origin node; each attempt is an `X` complete event and nested child
/// levels stack beneath it; scheduler decisions, queue service, forwarding
/// and migration are instants on the node that observed them. Timestamps
/// are exact: integer microseconds and three decimals of nanoseconds. An
/// attempt or child still open at the end of its run is closed at the
/// run's last record, so the spans of a concatenated log are those of its
/// runs exported one by one.
pub fn to_chrome_trace(log: &TraceLog) -> String {
    const HEADER: &str = "{\"traceEvents\": [";
    let mut ev = ChromeEvents {
        // ~56 bytes per record on a Bank trace; where that falls short,
        // doubling takes over.
        out: String::with_capacity(size_class(64 * log.records.len() + 64)),
        // The process metadata goes in front of the events, once the loop
        // below has seen every node.
        first: false,
    };
    ev.out.push_str(HEADER);

    // Open attempt spans and nested-child stacks per transaction of the run
    // being read (an emptied stack stays in the map, for the next run's
    // transaction of that id), and, at the run's end, what is still open.
    let mut open_attempt: FxHashMap<TxId, (u64, u32)> = FxHashMap::default();
    let mut open_children: FxHashMap<TxId, Vec<(u32, u64)>> = FxHashMap::default();
    let mut unfinished: Vec<(TxId, (u64, u32))> = Vec::new();
    let mut with_children: Vec<TxId> = Vec::new();
    let mut end_of_run = 0;
    let mut nodes: FxHashSet<u32> = FxHashSet::default();

    let mut runs = Runs::new(log);
    loop {
        let read = runs.read(|r| {
            let at = r.at.0;
            end_of_run = at;
            nodes.insert(r.node);
            match &r.ev {
                ProtoEvent::TxStart { tx, attempt, .. } => {
                    open_attempt.insert(*tx, (at, *attempt));
                }
                ProtoEvent::TxCommit { tx, attempt, .. } => {
                    if let Some(stack) = open_children.get_mut(tx) {
                        ev.close_children(*tx, 1, at, stack);
                    }
                    let (started, a) = open_attempt.remove(tx).unwrap_or((at, *attempt));
                    ev.attempt(*tx, a, " commit", started, at)
                        .text(",\"args\":{\"outcome\":\"commit\"}}");
                }
                ProtoEvent::TxAbort {
                    tx, attempt, cause, ..
                } => {
                    if let Some(stack) = open_children.get_mut(tx) {
                        ev.close_children(*tx, 1, at, stack);
                    }
                    let (started, a) = open_attempt.remove(tx).unwrap_or((at, *attempt));
                    ev.attempt(*tx, a, " abort", started, at)
                        .text(",\"args\":{\"outcome\":\"abort\",\"cause\":\"")
                        .text(cause.label())
                        .text("\"}}");
                }
                ProtoEvent::NestedOpen { tx, level, .. } => {
                    open_children.entry(*tx).or_default().push((*level, at));
                }
                ProtoEvent::NestedCommit { tx, level, .. }
                | ProtoEvent::NestedAbort { tx, level, .. } => {
                    if let Some(stack) = open_children.get_mut(tx) {
                        ev.close_children(*tx, *level, at, stack);
                    }
                }
                ProtoEvent::TxForward { tx, oid, .. } => {
                    ev.open("forward o")
                        .num("", oid.0)
                        .num(
                            "\",\"cat\":\"tfa\",\"ph\":\"i\",\"s\":\"t\",\"pid\":",
                            tx.node,
                        )
                        .num(",\"tid\":", tx.seq)
                        .us(",\"ts\":", at)
                        .text("}");
                }
                ProtoEvent::SchedDecision {
                    oid, tx, verdict, ..
                } => {
                    ev.open(verdict.label())
                        .num(" o", oid.0)
                        .tx(" for ", *tx)
                        .num(
                            "\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"p\",\"pid\":",
                            r.node,
                        )
                        .us(",\"tid\":0,\"ts\":", at)
                        .text("}");
                }
                ProtoEvent::QueueServed { oid, tx, .. } => {
                    ev.open("serve o")
                        .num("", oid.0)
                        .tx(" to ", *tx)
                        .num(
                            "\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"p\",\"pid\":",
                            r.node,
                        )
                        .us(",\"tid\":0,\"ts\":", at)
                        .text("}");
                }
                ProtoEvent::Migrate { oid, from, to, .. } => {
                    ev.open("migrate o")
                        .num("", oid.0)
                        .num(": ", *from)
                        .num("->", *to)
                        .num("\",\"cat\":\"cc\",\"ph\":\"i\",\"s\":\"g\",\"pid\":", *to)
                        .us(",\"tid\":0,\"ts\":", at)
                        .text("}");
                }
                ProtoEvent::RunInfo { .. } | ProtoEvent::RunSummary { .. } => {}
            }
        });
        if !read {
            break;
        }
        // Close anything still open at the run's last record (stalled or
        // budget-cut transactions) — in `TxId` order, not the maps' order,
        // so the same log always exports to the same bytes.
        with_children.extend(
            open_children
                .iter()
                .filter(|(_, stack)| !stack.is_empty())
                .map(|(&tx, _)| tx),
        );
        with_children.sort_unstable();
        for tx in with_children.drain(..) {
            let stack = open_children
                .get_mut(&tx)
                .expect("a transaction with children");
            ev.close_children(tx, 1, end_of_run, stack);
        }
        unfinished.extend(open_attempt.drain());
        unfinished.sort_unstable_by_key(|&(tx, _)| tx);
        for (tx, (started, a)) in unfinished.drain(..) {
            ev.attempt(tx, a, " unfinished", started, end_of_run)
                .text("}");
        }
    }

    ev.out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");

    // Process metadata: one "process" per node, first in the array.
    let mut meta = ChromeEvents {
        out: String::new(),
        first: true,
    };
    let mut nodes: Vec<u32> = nodes.into_iter().collect();
    nodes.sort_unstable();
    for &n in &nodes {
        meta.open("process_name\",\"ph\":\"M\",\"pid\":")
            .num("", n)
            .num(",\"tid\":0,\"args\":{\"name\":\"node ", n)
            .text("\"}}");
    }
    ev.out.insert_str(HEADER.len(), &meta.out);
    ev.out
}

// ---------------------------------------------------------------------------
// Contention analytics
// ---------------------------------------------------------------------------

/// Epoch `dstm-trace analyze` buckets commits into for knee detection unless
/// `--epoch-ns` says otherwise — the epoch sampler's own width.
pub const DEFAULT_ANALYZE_EPOCH_NS: u64 = hyflow_dstm::telemetry::EPOCH.as_nanos();

/// Most epochs [`analyze`] buckets commits into (8 MiB of counters). A real
/// run spans a few hundred at the default epoch; a commit stamped further
/// out than this is refused with a mismatch rather than a dense series
/// sized by its timestamp.
const MAX_ANALYZE_EPOCHS: u64 = 1 << 20;

/// Contention profile of one object, derived from abort attribution,
/// queue-service, and migration records.
#[derive(Clone, Debug)]
pub struct HotObject {
    /// The run the object belongs to, counted from 1.
    pub run: usize,
    pub oid: ObjectId,
    /// Parent-level aborts that blamed this object.
    pub aborts_caused: u64,
    /// Virtual nanoseconds of work those aborts discarded.
    pub wasted_ns: u64,
    /// Times a queued requester was handed this object on release.
    pub serves: u64,
    /// Total queue wait this object induced (sum over `QueueServed`).
    pub wait_induced_ns: u64,
    /// Ownership migrations of this object.
    pub migrations: u64,
}

/// One aggressor transaction's toll: how many victim attempts it killed and
/// how much of their work was discarded.
#[derive(Clone, Debug)]
pub struct Aggressor {
    /// The run the transaction belongs to, counted from 1.
    pub run: usize,
    pub tx: TxId,
    pub victim_aborts: u64,
    pub wasted_ns: u64,
}

/// One run's commits bucketed into fixed sim-time epochs, plus the
/// detected knee.
#[derive(Clone, Debug, Default)]
pub struct ThroughputSeries {
    pub epoch_ns: u64,
    pub commits_per_epoch: Vec<u64>,
    /// Epoch with the most commits (first such epoch on ties).
    pub peak_epoch: usize,
    /// First epoch after the peak from which throughput never again reaches
    /// half the peak rate — the sustained-collapse point. `None` while the
    /// run keeps (re)attaining ≥ 50% of peak until the end.
    pub knee_epoch: Option<usize>,
}

/// One run of an analyzed log: its record census and its commit series.
#[derive(Clone, Debug, Default)]
pub struct RunProfile {
    /// The cell the run's leading `RunInfo` record names, if it has one.
    pub info: Option<(SchedulerKind, u64)>,
    /// Records of each kind, indexed by [`ProtoEvent::kind_index`].
    pub by_kind: [u64; ProtoEvent::KINDS],
    /// Aborts whose cause is a queue timeout.
    pub queue_timeouts: u64,
    /// Scheduler decisions that enqueued the requester.
    pub enqueues: u64,
    /// Remote-read cache totals from the run's `RunSummary` record; all
    /// zero unless the run had the cache on.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_invalidations: u64,
    pub throughput: ThroughputSeries,
}

/// Result of [`analyze`]: hot objects, abort causal chains, and per run a
/// record census and the throughput knee.
#[derive(Clone, Debug, Default)]
pub struct AnalyzeReport {
    pub records: usize,
    /// One profile per run in the log, split as [`audit`] splits them.
    pub runs: Vec<RunProfile>,
    pub hot_objects: Vec<HotObject>,
    pub aggressors: Vec<Aggressor>,
    /// Longest victim → aggressor → … causal chain found within one run
    /// (cycle-free walk; the earliest run wins a tie).
    pub longest_chain: Vec<TxId>,
    /// The run that chain belongs to, counted from 1.
    pub longest_chain_run: usize,
    /// What the report could not cover: a commit stamped past the last
    /// epoch a series holds. Empty on every log whose commits fit.
    pub mismatches: Vec<String>,
    // Event-derived totals.
    pub commits: u64,
    pub aborts: u64,
    pub attributed: u64,
    pub wasted_ns: u64,
    pub wasted_msgs: u64,
}

impl AnalyzeReport {
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        // Names a row's run when the log holds more than one.
        let run = |k: usize| {
            if self.runs.len() > 1 {
                format!("run {k} ")
            } else {
                String::new()
            }
        };
        let mut out = format!(
            "analyzed {} records ({} run{})\n",
            self.records,
            self.runs.len(),
            if self.runs.len() == 1 { "" } else { "s" },
        );
        let _ = writeln!(
            out,
            "event totals: {} commits, {} aborts ({} attributed to an aggressor), \
             {:.3} ms wasted, {} messages discarded",
            self.commits,
            self.aborts,
            self.attributed,
            ms(self.wasted_ns),
            self.wasted_msgs
        );
        for (k, p) in self.runs.iter().enumerate() {
            let _ = write!(out, "{}census", run(k + 1));
            if let Some((scheduler, nodes)) = p.info {
                let _ = write!(out, " [{} @ {nodes} nodes]", scheduler.label());
            }
            let _ = writeln!(
                out,
                ": {} records, {} queue timeouts, {} enqueues",
                p.by_kind.iter().sum::<u64>(),
                p.queue_timeouts,
                p.enqueues
            );
            for (label, &n) in ProtoEvent::LABELS.iter().zip(&p.by_kind) {
                if n > 0 {
                    let _ = writeln!(out, "  {label:<16} {n}");
                }
            }
            let lookups = p.cache_hits + p.cache_misses;
            if lookups > 0 || p.cache_invalidations > 0 {
                let _ = writeln!(
                    out,
                    "  cache hits {}, misses {} ({:.1}% hit rate), invalidations {}",
                    p.cache_hits,
                    p.cache_misses,
                    p.cache_hits as f64 * 100.0 / lookups.max(1) as f64,
                    p.cache_invalidations
                );
            }
        }
        if !self.hot_objects.is_empty() {
            let _ = writeln!(
                out,
                "hot objects (top {} by aborts caused):",
                self.hot_objects.len()
            );
            let _ = writeln!(
                out,
                "  {:<10} {:>7} {:>11} {:>7} {:>10} {:>11}",
                "object", "aborts", "wasted(ms)", "serves", "wait(ms)", "migrations"
            );
            for h in &self.hot_objects {
                let _ = writeln!(
                    out,
                    "  {:<10} {:>7} {:>11.3} {:>7} {:>10.3} {:>11}",
                    format!("{}{}", run(h.run), h.oid),
                    h.aborts_caused,
                    ms(h.wasted_ns),
                    h.serves,
                    ms(h.wait_induced_ns),
                    h.migrations
                );
            }
        }
        if !self.aggressors.is_empty() {
            let _ = writeln!(out, "top aggressors (by wasted work induced):");
            for a in &self.aggressors {
                let _ = writeln!(
                    out,
                    "  {:<10} victims {:<5} wasted(ms) {:.3}",
                    format!("{}{}", run(a.run), a.tx),
                    a.victim_aborts,
                    ms(a.wasted_ns)
                );
            }
        }
        if self.longest_chain.len() > 1 {
            let chain: Vec<String> = self.longest_chain.iter().map(|t| t.to_string()).collect();
            let _ = writeln!(
                out,
                "longest abort chain: {}{}",
                run(self.longest_chain_run),
                chain.join(" <- ")
            );
        }
        for (k, t) in self.runs.iter().map(|p| &p.throughput).enumerate() {
            if t.commits_per_epoch.is_empty() {
                continue;
            }
            let peak = t.commits_per_epoch[t.peak_epoch];
            let knee = match t.knee_epoch {
                Some(k) => format!("knee at epoch {k} (sustained < 50% of peak)"),
                None => "no knee detected".to_string(),
            };
            let _ = writeln!(
                out,
                "{}throughput: peak {} commits in epoch {} ({} ms); {knee}",
                run(k + 1),
                peak,
                t.peak_epoch,
                t.epoch_ns / 1_000_000,
            );
        }
        for m in &self.mismatches {
            let _ = writeln!(out, "MISMATCH: {m}");
        }
        out
    }
}

/// [`analyze`]'s way out of its loop for a commit past the end of the
/// per-epoch series: grow the series to hold epoch `e` — unless that is
/// past [`MAX_ANALYZE_EPOCHS`], in which case the commit goes unbucketed.
#[cold]
#[inline(never)]
fn first_in_epoch(series: &mut Vec<u64>, e: u64) {
    if e < MAX_ANALYZE_EPOCHS {
        series.resize(e as usize + 1, 0);
        series[e as usize] = 1;
    }
}

fn hot_entry(
    map: &mut FxHashMap<(usize, ObjectId), HotObject>,
    run: usize,
    oid: ObjectId,
) -> &mut HotObject {
    map.entry((run, oid)).or_insert_with(|| HotObject {
        run,
        oid,
        aborts_caused: 0,
        wasted_ns: 0,
        serves: 0,
        wait_induced_ns: 0,
        migrations: 0,
    })
}

/// The longest victim -> aggressor -> (that aggressor's own aggressor, if
/// it too aborted) -> … chain of one run's `blamed_by` map; of chains as
/// long, the one that starts at the smallest id. Cycle-guarded.
fn longest_chain(blamed_by: &FxHashMap<TxId, TxId>) -> Vec<TxId> {
    let mut best: Vec<TxId> = Vec::new();
    for &start in blamed_by.keys() {
        let mut chain = vec![start];
        let mut seen: FxHashSet<TxId> = FxHashSet::default();
        seen.insert(start);
        let mut cur = start;
        while let Some(&next) = blamed_by.get(&cur) {
            if !seen.insert(next) {
                break;
            }
            chain.push(next);
            cur = next;
        }
        if chain.len() > best.len()
            || (chain.len() == best.len()
                && best
                    .first()
                    .is_some_and(|b| (start.node, start.seq) < (b.node, b.seq)))
        {
            best = chain;
        }
    }
    best
}

/// One run's commit series with its peak and knee: the knee is the first
/// post-peak epoch from which every later epoch stays below half the peak
/// rate.
fn throughput(commits_per_epoch: Vec<u64>, epoch_ns: u64) -> ThroughputSeries {
    let peak_epoch = commits_per_epoch
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut knee = None;
    if let Some(&peak) = commits_per_epoch.get(peak_epoch) {
        let half = peak.div_ceil(2);
        for i in (peak_epoch + 1..commits_per_epoch.len()).rev() {
            if commits_per_epoch[i] >= half {
                break;
            }
            knee = Some(i);
        }
    }
    ThroughputSeries {
        epoch_ns,
        commits_per_epoch,
        peak_epoch,
        knee_epoch: knee,
    }
}

/// Build the object-conflict picture of a trace: rank hot objects by the
/// aborts and queue wait they caused, rank aggressor transactions by the
/// work they discarded, walk the victim → aggressor causal chains, bucket
/// commits into `epoch_ns` sim-time epochs to locate the throughput knee,
/// and count each run's records by kind. It checks nothing against the
/// `RunSummary` counters — that is [`audit`]'s work. [`AnalyzeReport::ok`]
/// is false only when a commit lies past the last epoch a series can hold;
/// `dstm-trace analyze` exits non-zero on it.
///
/// # Panics
///
/// If `epoch_ns` is 0.
pub fn analyze(log: &TraceLog, epoch_ns: u64) -> AnalyzeReport {
    const TOP_OBJECTS: usize = 8;
    const TOP_AGGRESSORS: usize = 5;
    assert!(epoch_ns > 0, "analyze: an epoch of 0 ns holds no commit");

    let mut report = AnalyzeReport {
        records: log.records.len(),
        ..AnalyzeReport::default()
    };
    let mut objects: FxHashMap<(usize, ObjectId), HotObject> = FxHashMap::default();
    let mut aggressors: FxHashMap<(usize, TxId), (u64, u64)> = FxHashMap::default();

    // Transaction and object ids repeat from run to run and each run's
    // clock starts at 0, so the tallies below are kept per run: each run
    // walks its own victim → aggressor map and buckets its own commits.
    // The furthest commit, for a mismatch naming an epoch that fits.
    let mut span = 0;
    let mut runs = Runs::new(log);
    for k in 0.. {
        let mut profile = RunProfile::default();
        let mut blamed_by: FxHashMap<TxId, TxId> = FxHashMap::default();
        let mut commits_per_epoch: Vec<u64> = Vec::new();
        let read = runs.read(|r| {
            profile.by_kind[r.ev.kind_index()] += 1;
            match &r.ev {
                ProtoEvent::TxCommit { .. } => {
                    report.commits += 1;
                    span = span.max(r.at.0);
                    let e = r.at.0 / epoch_ns;
                    match commits_per_epoch.get_mut(e as usize) {
                        Some(n) => *n += 1,
                        None => first_in_epoch(&mut commits_per_epoch, e),
                    }
                }
                ProtoEvent::TxAbort {
                    tx,
                    cause,
                    wasted_ns,
                    msgs,
                    oid,
                    aggressor,
                    ..
                } => {
                    report.aborts += 1;
                    report.wasted_ns += wasted_ns;
                    report.wasted_msgs += msgs;
                    profile.queue_timeouts +=
                        u64::from(*cause == hyflow_dstm::AbortCause::QueueTimeout);
                    if let Some(blamed) = oid {
                        let h = hot_entry(&mut objects, k + 1, *blamed);
                        h.aborts_caused += 1;
                        h.wasted_ns += wasted_ns;
                    }
                    if let Some(agg) = aggressor {
                        report.attributed += 1;
                        let slot = aggressors.entry((k + 1, *agg)).or_default();
                        slot.0 += 1;
                        slot.1 += wasted_ns;
                        blamed_by.insert(*tx, *agg);
                    }
                }
                ProtoEvent::SchedDecision { verdict, .. } => {
                    profile.enqueues += u64::from(*verdict == Verdict::Enqueue);
                }
                ProtoEvent::QueueServed { oid, wait, .. } => {
                    let h = hot_entry(&mut objects, k + 1, *oid);
                    h.serves += 1;
                    h.wait_induced_ns += wait.as_nanos();
                }
                ProtoEvent::Migrate { oid, .. } => {
                    hot_entry(&mut objects, k + 1, *oid).migrations += 1;
                }
                ProtoEvent::RunSummary {
                    cache_hits,
                    cache_misses,
                    cache_invalidations,
                    ..
                } => {
                    profile.cache_hits += cache_hits;
                    profile.cache_misses += cache_misses;
                    profile.cache_invalidations += cache_invalidations;
                }
                // Only a run's first record can be its `RunInfo`.
                ProtoEvent::RunInfo { scheduler, nodes } => {
                    profile.info = Some((*scheduler, *nodes));
                }
                _ => {}
            }
        });
        if !read {
            break;
        }
        let chain = longest_chain(&blamed_by);
        if chain.len() > report.longest_chain.len() {
            report.longest_chain = chain;
            report.longest_chain_run = k + 1;
        }
        profile.throughput = throughput(commits_per_epoch, epoch_ns);
        report.runs.push(profile);
    }

    let bucketed: u64 = report
        .runs
        .iter()
        .map(|p| p.throughput.commits_per_epoch.iter().sum::<u64>())
        .sum();
    if bucketed < report.commits {
        report.mismatches.push(format!(
            "commits span {span} ns, more than {MAX_ANALYZE_EPOCHS} epochs of {epoch_ns} ns; \
             rerun with --epoch-ns {} or more",
            span / MAX_ANALYZE_EPOCHS + 1
        ));
    }

    // Hot objects: aborts caused, then wasted work, then queue wait.
    let mut hot: Vec<HotObject> = objects.into_values().collect();
    hot.sort_by(|a, b| {
        (
            b.aborts_caused,
            b.wasted_ns,
            b.wait_induced_ns,
            a.run,
            a.oid.0,
        )
            .cmp(&(
                a.aborts_caused,
                a.wasted_ns,
                a.wait_induced_ns,
                b.run,
                b.oid.0,
            ))
    });
    hot.truncate(TOP_OBJECTS);
    report.hot_objects = hot;

    // Aggressors by wasted work induced.
    let mut aggs: Vec<Aggressor> = aggressors
        .into_iter()
        .map(|((run, tx), (victim_aborts, wasted_ns))| Aggressor {
            run,
            tx,
            victim_aborts,
            wasted_ns,
        })
        .collect();
    aggs.sort_by(|a, b| {
        (b.wasted_ns, b.victim_aborts, (a.run, a.tx.node, a.tx.seq)).cmp(&(
            a.wasted_ns,
            a.victim_aborts,
            (b.run, b.tx.node, b.tx.seq),
        ))
    });
    aggs.truncate(TOP_AGGRESSORS);
    report.aggressors = aggs;

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstm_sim::{SimDuration, SimTime};
    use hyflow_dstm::{AbortCause, TraceRecord};
    use rts_core::{SchedulerKind, TxKind};

    fn log_of(records: Vec<TraceRecord>) -> TraceLog {
        records.into_iter().collect()
    }

    fn rec(at: u64, node: u32, ev: ProtoEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime(at),
            node,
            ev,
        }
    }

    fn commit(
        at: u64,
        tx: TxId,
        reads: Vec<(ObjectId, u64)>,
        writes: Vec<(ObjectId, u64, u64)>,
    ) -> TraceRecord {
        rec(
            at,
            tx.node,
            ProtoEvent::TxCommit {
                tx,
                attempt: 0,
                nested_committed: 0,
                reads,
                writes,
            },
        )
    }

    fn run_info(at: u64, scheduler: SchedulerKind, nodes: u64) -> TraceRecord {
        rec(at, 0, ProtoEvent::RunInfo { scheduler, nodes })
    }

    /// A `RunSummary` of counters `c`, in field order, the cache's zero.
    fn summary(at: u64, c: [u64; 8]) -> TraceRecord {
        let [commits, aborts, nested_own, nested_parent, nested_commits, wasted_ns, wasted_msgs, attributed] =
            c;
        rec(
            at,
            0,
            ProtoEvent::RunSummary {
                commits,
                aborts,
                nested_own,
                nested_parent,
                nested_commits,
                wasted_ns,
                wasted_msgs,
                attributed,
                cache_hits: 0,
                cache_misses: 0,
                cache_invalidations: 0,
            },
        )
    }

    #[test]
    fn clean_history_passes() {
        let t1 = TxId::new(0, 1);
        let t2 = TxId::new(1, 1);
        let o = ObjectId(1);
        let log = log_of(vec![
            commit(100, t1, vec![(o, 0)], vec![(o, 0, 1)]),
            commit(200, t2, vec![(o, 1)], vec![(o, 1, 2)]),
        ]);
        let report = audit(&log);
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.commits_checked, 2);
    }

    #[test]
    fn lost_update_is_flagged() {
        let t1 = TxId::new(0, 1);
        let t2 = TxId::new(1, 1);
        let o = ObjectId(1);
        // Both commits were built against version 0: the second one
        // overwrites the first's update.
        let log = log_of(vec![
            commit(100, t1, vec![(o, 0)], vec![(o, 0, 1)]),
            commit(200, t2, vec![(o, 0)], vec![(o, 0, 2)]),
        ]);
        let report = audit(&log);
        assert!(!report.ok());
        assert!(report.violations[0].contains("lost update"), "{report:?}");
    }

    #[test]
    fn inconsistent_read_footprint_is_flagged() {
        let (t1, t2, t3) = (TxId::new(0, 1), TxId::new(1, 1), TxId::new(2, 1));
        let (a, b) = (ObjectId(1), ObjectId(2));
        // a@1 dies at t=200 (a@2 installed); b@5 is born at t=300. A commit
        // reading {a@1, b@5} observed two states that never coexisted, also
        // when it is recorded before b@5's install.
        for at in [400, 250] {
            let mut records = vec![
                commit(100, t1, vec![], vec![(a, 0, 1)]),
                commit(200, t1, vec![], vec![(a, 1, 2)]),
                commit(300, t2, vec![], vec![(b, 0, 5)]),
                commit(at, t3, vec![(a, 1), (b, 5)], vec![]),
            ];
            records.sort_by_key(|r| r.at);
            assert_eq!(
                audit(&log_of(records)).violations,
                [format!(
                    "commit of {t3} (attempt 0) at t={at} has an inconsistent read \
                     footprint: no instant at which all 2 read versions coexisted"
                )]
            );
        }
    }

    #[test]
    fn timeout_without_enqueue_is_flagged() {
        let tx = TxId::new(1, 1);
        let log = log_of(vec![rec(
            500,
            1,
            ProtoEvent::TxAbort {
                tx,
                attempt: 0,
                cause: AbortCause::QueueTimeout,
                nested_parent: 0,
                backoff: SimDuration::ZERO,
                wasted_ns: 0,
                msgs: 0,
                oid: None,
                aggressor: None,
            },
        )]);
        let report = audit(&log);
        assert!(!report.ok());
        assert!(
            report.violations[0].contains("no preceding enqueue"),
            "{report:?}"
        );
    }

    #[test]
    fn paired_timeout_passes() {
        let tx = TxId::new(1, 1);
        let o = ObjectId(1);
        let log = log_of(vec![
            rec(
                100,
                0,
                ProtoEvent::SchedDecision {
                    oid: o,
                    tx,
                    attempt: 0,
                    local_cl: 1,
                    requester_cl: 0,
                    window_requests: 1,
                    executed: SimDuration::from_millis(10),
                    remaining: SimDuration::from_millis(5),
                    queue_depth: 1,
                    bk: SimDuration::from_millis(5),
                    threshold: Some(16),
                    verdict: Verdict::Enqueue,
                    backoff: SimDuration::from_millis(5),
                },
            ),
            rec(
                900,
                1,
                ProtoEvent::TxAbort {
                    tx,
                    attempt: 0,
                    cause: AbortCause::QueueTimeout,
                    nested_parent: 0,
                    backoff: SimDuration::ZERO,
                    wasted_ns: 0,
                    msgs: 0,
                    oid: Some(o),
                    aggressor: None,
                },
            ),
        ]);
        let report = audit(&log);
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.timeout_aborts_checked, 1);
    }

    #[test]
    fn summary_mismatch_is_flagged() {
        // A commit with a committed child, and an abort that blames the
        // committer and takes a child with it after another child rolled
        // back on its own: every counter the summary carries is nonzero.
        let (tx, victim) = (TxId::new(0, 1), TxId::new(1, 1));
        let spans = [
            rec(
                100,
                0,
                ProtoEvent::NestedCommit {
                    tx,
                    attempt: 0,
                    level: 1,
                },
            ),
            commit(150, tx, vec![], vec![]),
            rec(
                200,
                1,
                ProtoEvent::NestedAbort {
                    tx: victim,
                    attempt: 0,
                    level: 1,
                    own: 1,
                    parent: 0,
                },
            ),
            rec(
                300,
                1,
                ProtoEvent::TxAbort {
                    tx: victim,
                    attempt: 0,
                    cause: AbortCause::SchedulerAbort,
                    nested_parent: 1,
                    backoff: SimDuration::ZERO,
                    wasted_ns: 500,
                    msgs: 2,
                    oid: Some(ObjectId(1)),
                    aggressor: Some(tx),
                },
            ),
        ];
        let audited = |c: [u64; 8]| {
            let mut records = spans.to_vec();
            records.push(summary(400, c));
            audit(&log_of(records))
        };
        let counters = [1, 1, 1, 1, 1, 500, 2, 1];
        let report = audited(counters);
        assert!(report.summary_checked);
        assert!(report.ok(), "{:?}", report.violations);
        // Each counter one off is caught on its own, and named.
        let labels = [
            "commits",
            "aborts",
            "nested-own aborts",
            "nested-parent aborts",
            "nested commits",
            "wasted-work ns",
            "wasted messages",
            "attributed aborts",
        ];
        for (i, label) in labels.into_iter().enumerate() {
            let mut corrupt = counters;
            corrupt[i] += 1;
            assert_eq!(
                audited(corrupt).violations,
                [format!(
                    "Table-I cross-check failed for {label}: {} recomputed from spans \
                     vs {} from counters",
                    counters[i], corrupt[i]
                )]
            );
        }
    }

    #[test]
    fn chrome_export_produces_valid_shape() {
        let tx = TxId::new(0, 1);
        let log = log_of(vec![
            rec(
                0,
                0,
                ProtoEvent::TxStart {
                    tx,
                    kind: TxKind(1),
                    attempt: 0,
                },
            ),
            rec(
                1_000,
                0,
                ProtoEvent::NestedOpen {
                    tx,
                    attempt: 0,
                    level: 1,
                    kind: TxKind(2),
                },
            ),
            rec(
                2_000,
                0,
                ProtoEvent::NestedCommit {
                    tx,
                    attempt: 0,
                    level: 1,
                },
            ),
            commit(3_000, tx, vec![(ObjectId(1), 0)], vec![(ObjectId(1), 0, 1)]),
        ]);
        let chrome = to_chrome_trace(&log);
        assert!(chrome.starts_with("{\"traceEvents\": ["));
        assert!(chrome.contains("\"ph\":\"M\""), "process metadata present");
        assert!(chrome.contains("child L1"), "nested span present");
        assert!(chrome.contains("commit"), "attempt span present");
        // Balanced braces/brackets as a cheap well-formedness check.
        let balance =
            |open: char, close: char| chrome.matches(open).count() == chrome.matches(close).count();
        assert!(balance('{', '}') && balance('[', ']'));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 4096,
            ..proptest::ProptestConfig::default()
        })]

        #[test]
        fn integer_microseconds_match_the_float_rendering(
            ns in 0u64..1 << 50,
            edge in 0u64..4_000,
        ) {
            // Random magnitudes, plus the neighbourhood of a microsecond
            // boundary at every magnitude (where rounding would bite).
            for ns in [ns, ns / 1000 * 1000 + edge % 1000, edge, (1 << 50) - 1 - edge] {
                let mut exact = String::new();
                push_us(&mut exact, ns);
                proptest::prop_assert_eq!(exact, format!("{:.3}", ns as f64 / 1000.0));
            }
        }

        #[test]
        fn indexed_read_windows_match_the_linear_scan(
            hist in proptest::collection::vec((0u64..8, 0u64..100), 0..40),
        ) {
            // Few versions, so most repeat; random times, so installs are
            // not monotone in version (the shape of a corrupt trace).
            let linear = |version: u64| {
                let lo = hist
                    .iter()
                    .find(|&&(v, _)| v == version)
                    .map_or(0, |&(_, t)| t);
                let hi = hist
                    .iter()
                    .filter(|&&(v, _)| v > version)
                    .map(|&(_, t)| t)
                    .min()
                    .unwrap_or(u64::MAX);
                (lo, hi)
            };
            // Installs of other objects on either side stay out of the window.
            let other = |oid, version| Install { oid: ObjectId(oid), version, at: 0, earliest_from_here: 0 };
            let mut indexed: Vec<Install> = hist
                .iter()
                .map(|&(version, at)| Install { oid: ObjectId(1), version, at, earliest_from_here: at })
                .chain([other(0, 9), other(2, 0)])
                .collect();
            index_installs(&mut indexed);
            for version in 0..10 {
                proptest::prop_assert_eq!(read_window(&indexed, ObjectId(1), version), linear(version));
            }
        }
    }

    #[test]
    fn analyze_counts_each_run_by_kind() {
        let tx = TxId::new(0, 1);
        let o = ObjectId(1);
        let log = log_of(vec![
            rec(
                0,
                0,
                ProtoEvent::TxStart {
                    tx,
                    kind: TxKind(1),
                    attempt: 0,
                },
            ),
            rec(
                100,
                0,
                ProtoEvent::SchedDecision {
                    oid: o,
                    tx,
                    attempt: 0,
                    local_cl: 1,
                    requester_cl: 0,
                    window_requests: 1,
                    executed: SimDuration::ZERO,
                    remaining: SimDuration::ZERO,
                    queue_depth: 1,
                    bk: SimDuration::ZERO,
                    threshold: None,
                    verdict: Verdict::Enqueue,
                    backoff: SimDuration::ZERO,
                },
            ),
            rec(
                200,
                0,
                ProtoEvent::TxAbort {
                    tx,
                    attempt: 0,
                    cause: AbortCause::QueueTimeout,
                    nested_parent: 0,
                    backoff: SimDuration::ZERO,
                    wasted_ns: 0,
                    msgs: 0,
                    oid: Some(o),
                    aggressor: None,
                },
            ),
            commit(1_000, tx, vec![], vec![]),
            rec(
                2_000,
                0,
                ProtoEvent::RunSummary {
                    commits: 1,
                    aborts: 1,
                    nested_own: 0,
                    nested_parent: 0,
                    nested_commits: 0,
                    wasted_ns: 0,
                    wasted_msgs: 0,
                    attributed: 0,
                    cache_hits: 3,
                    cache_misses: 1,
                    cache_invalidations: 2,
                },
            ),
        ]);
        let report = analyze(&log, DEFAULT_ANALYZE_EPOCH_NS);
        let [run] = &report.runs[..] else {
            panic!("{} runs", report.runs.len());
        };
        let kind = |ev: &ProtoEvent| run.by_kind[ev.kind_index()];
        for r in &log.records {
            assert_eq!(kind(&r.ev), 1, "{:?}", r.ev);
        }
        assert_eq!(run.by_kind.iter().sum::<u64>(), 5);
        assert_eq!((run.queue_timeouts, run.enqueues), (1, 1));
        assert_eq!(
            (run.cache_hits, run.cache_misses, run.cache_invalidations),
            (3, 1, 2)
        );
        let text = report.render();
        assert!(
            text.contains("census: 5 records, 1 queue timeouts, 1 enqueues\n"),
            "{text}"
        );
        assert!(text.contains("\n  tx_start         1\n"), "{text}");
        assert!(text.contains("\n  tx_commit        1\n"), "{text}");
        assert!(
            text.contains("cache hits 3, misses 1 (75.0% hit rate), invalidations 2"),
            "{text}"
        );
    }

    #[test]
    fn analyze_labels_each_run_with_its_cell() {
        let tx = TxId::new(0, 1);
        let log = log_of(vec![
            run_info(0, SchedulerKind::Rts, 8),
            commit(1_000, tx, vec![], vec![]),
            run_info(2_000, SchedulerKind::Tfa, 16),
            commit(3_000, tx, vec![], vec![]),
            commit(4_000, tx, vec![], vec![]),
        ]);
        let report = analyze(&log, DEFAULT_ANALYZE_EPOCH_NS);
        let cells: Vec<_> = report
            .runs
            .iter()
            .map(|p| (p.info, p.by_kind.iter().sum::<u64>()))
            .collect();
        assert_eq!(
            cells,
            [
                (Some((SchedulerKind::Rts, 8)), 2),
                (Some((SchedulerKind::Tfa, 16)), 3)
            ]
        );
        let text = report.render();
        assert!(text.starts_with("analyzed 5 records (2 runs)\n"), "{text}");
        assert!(
            text.contains("run 1 census [RTS @ 8 nodes]: 2 records"),
            "{text}"
        );
        assert!(
            text.contains("run 2 census [TFA @ 16 nodes]: 3 records"),
            "{text}"
        );
    }

    fn abort_blaming(
        at: u64,
        tx: TxId,
        wasted_ns: u64,
        msgs: u64,
        oid: Option<ObjectId>,
        aggressor: Option<TxId>,
    ) -> TraceRecord {
        rec(
            at,
            tx.node,
            ProtoEvent::TxAbort {
                tx,
                attempt: 0,
                cause: AbortCause::SchedulerAbort,
                nested_parent: 0,
                backoff: SimDuration::ZERO,
                wasted_ns,
                msgs,
                oid,
                aggressor,
            },
        )
    }

    #[test]
    fn analyze_ranks_hot_objects_chains_and_aggressors() {
        let (t0, t1, t2) = (TxId::new(0, 1), TxId::new(1, 1), TxId::new(2, 1));
        let (a, b) = (ObjectId(1), ObjectId(2));
        let log = log_of(vec![
            run_info(0, SchedulerKind::Rts, 3),
            // t1 aborted twice on `a` at t0's hands; t0 once on `b` at t2's.
            abort_blaming(1_000, t1, 500, 2, Some(a), Some(t0)),
            abort_blaming(2_000, t1, 700, 3, Some(a), Some(t0)),
            abort_blaming(3_000, t0, 300, 1, Some(b), Some(t2)),
            rec(
                4_000,
                0,
                ProtoEvent::QueueServed {
                    oid: a,
                    tx: t1,
                    attempt: 2,
                    wait: SimDuration::from_nanos(900),
                },
            ),
            rec(
                5_000,
                1,
                ProtoEvent::Migrate {
                    oid: a,
                    tx: t1,
                    from: 0,
                    to: 1,
                    version: 1,
                },
            ),
            commit(6_000, t1, vec![], vec![(a, 0, 1)]),
            summary(7_000, [1, 3, 0, 0, 0, 1_500, 6, 3]),
        ]);
        let report = analyze(&log, DEFAULT_ANALYZE_EPOCH_NS);
        assert!(report.ok(), "{:?}", report.mismatches);
        assert_eq!(report.runs.len(), 1);
        assert_eq!(
            (report.commits, report.aborts, report.attributed),
            (1, 3, 3)
        );
        assert_eq!((report.wasted_ns, report.wasted_msgs), (1_500, 6));
        // `a` caused 2 aborts (1200 ns wasted), served once, migrated once.
        let top = &report.hot_objects[0];
        assert_eq!(top.oid, a);
        assert_eq!(
            (
                top.aborts_caused,
                top.wasted_ns,
                top.serves,
                top.wait_induced_ns,
                top.migrations
            ),
            (2, 1_200, 1, 900, 1)
        );
        // t0 discarded the most work (1200 ns over 2 victims).
        assert_eq!(report.aggressors[0].tx, t0);
        assert_eq!(
            (
                report.aggressors[0].victim_aborts,
                report.aggressors[0].wasted_ns
            ),
            (2, 1_200)
        );
        // Causal chain t1 <- t0 <- t2.
        assert_eq!(report.longest_chain, vec![t1, t0, t2]);
        // Human rendering names the hot object and the chain.
        let text = report.render();
        assert!(text.contains("hot objects"), "{text}");
        assert!(text.contains("longest abort chain"), "{text}");
    }

    #[test]
    fn audit_flags_wasted_work_mismatch() {
        let t1 = TxId::new(1, 1);
        let log = log_of(vec![
            abort_blaming(1_000, t1, 500, 2, Some(ObjectId(1)), None),
            // The events say 500 ns wasted.
            summary(2_000, [0, 1, 0, 0, 0, 499, 2, 0]),
        ]);
        assert_eq!(
            audit(&log).violations,
            [
                "Table-I cross-check failed for wasted-work ns: 500 recomputed from spans \
              vs 499 from counters"
            ]
        );
    }

    #[test]
    fn audit_reconciles_each_run_on_its_own() {
        let tx = TxId::new(0, 1);
        let summary = |at, commits| summary(at, [commits, 0, 0, 0, 0, 0, 0, 0]);
        // One commit against a summary of 2, then two against 1: the
        // log-wide sums agree, each run's do not.
        let log = log_of(vec![
            commit(100, tx, vec![], vec![]),
            summary(200, 2),
            commit(100, tx, vec![], vec![]),
            commit(150, tx, vec![], vec![]),
            summary(200, 1),
        ]);
        assert_eq!(
            audit(&log).violations,
            [
                "run 1: Table-I cross-check failed for commits: 1 recomputed from spans \
                 vs 2 from counters",
                "run 2: Table-I cross-check failed for commits: 2 recomputed from spans \
                 vs 1 from counters",
            ]
        );
    }

    #[test]
    fn analyze_finds_throughput_knee() {
        let tx = TxId::new(0, 1);
        let epoch = 1_000u64;
        // Epochs: 4, 4, 1, 1 commits — sustained collapse from epoch 2 on.
        let mut records = Vec::new();
        for (e, n) in [(0u64, 4u64), (1, 4), (2, 1), (3, 1)] {
            for i in 0..n {
                records.push(commit(e * epoch + i, tx, vec![], vec![]));
            }
        }
        let log = log_of(records);
        let series = analyze(&log, epoch).runs[0].throughput.clone();
        assert_eq!(series.commits_per_epoch, vec![4, 4, 1, 1]);
        assert_eq!(series.peak_epoch, 0);
        assert_eq!(series.knee_epoch, Some(2));
        // A flat series has no knee.
        let flat = log_of(
            (0..4)
                .map(|e| commit(e * epoch, tx, vec![], vec![]))
                .collect(),
        );
        assert_eq!(analyze(&flat, epoch).runs[0].throughput.knee_epoch, None);
    }

    #[test]
    fn analyze_keeps_every_tally_within_its_run() {
        let (t0, t1, t2, t3) = (
            TxId::new(0, 1),
            TxId::new(1, 1),
            TxId::new(2, 1),
            TxId::new(3, 1),
        );
        let a = ObjectId(1);
        let info = |at| run_info(at, SchedulerKind::Rts, 4);
        let epoch = 1_000u64;
        // Run 1 blames T1.1 on T2.1, run 2 blames T2.1 on T3.1: no chain
        // T1.1 <- T2.1 <- T3.1, since run 2's T2.1 is another transaction.
        // T3.1 aggresses in both runs.
        let log = log_of(vec![
            info(0),
            abort_blaming(100, t1, 500, 1, Some(a), Some(t2)),
            abort_blaming(150, t0, 200, 1, Some(a), Some(t3)),
            commit(200, t1, vec![], vec![]),
            commit(300, t0, vec![], vec![]),
            info(0),
            abort_blaming(100, t2, 700, 1, Some(a), Some(t3)),
            commit(2_500, t2, vec![], vec![]),
        ]);
        let report = analyze(&log, epoch);
        assert_eq!(report.runs.len(), 2);
        assert_eq!(report.longest_chain, vec![t0, t3], "run 1's, the earliest");
        assert_eq!(report.longest_chain_run, 1);
        // Two entries for T3.1, not one summed across runs.
        let t3_tolls: Vec<_> = report
            .aggressors
            .iter()
            .filter(|g| g.tx == t3)
            .map(|g| (g.run, g.victim_aborts, g.wasted_ns))
            .collect();
        assert_eq!(t3_tolls, vec![(2, 1, 700), (1, 1, 200)]);
        // Object `a` likewise, once per run.
        let a_tolls: Vec<_> = report
            .hot_objects
            .iter()
            .map(|h| (h.run, h.oid, h.aborts_caused, h.wasted_ns))
            .collect();
        assert_eq!(a_tolls, vec![(1, a, 2, 700), (2, a, 1, 700)]);
        // Each run's commits are bucketed from its own time 0.
        let series: Vec<_> = report
            .runs
            .iter()
            .map(|p| p.throughput.commits_per_epoch.clone())
            .collect();
        assert_eq!(series, vec![vec![2], vec![0, 0, 1]]);
        let text = report.render();
        assert!(text.contains("run 2 T3.1"), "{text}");
        assert!(text.contains("run 1 throughput: peak 2"), "{text}");
    }
}
