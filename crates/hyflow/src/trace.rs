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
//! fixed key order per kind, no whitespace — and reads them without
//! looking a key up; the keyed reader ([`TraceRecord::parse_keyed`]) reads
//! anything the grammar allows. `parse` tries the first and hands any line
//! it refuses to the second, which words every error.

use crate::metrics::{AbortCause, NodeMetrics};
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

/// One typed protocol occurrence. Times live on the enclosing
/// [`TraceRecord`]; durations inside events are plain nanosecond values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoEvent {
    /// A top-level attempt began executing (attempt 0 = first start,
    /// higher = retry after an abort).
    TxStart {
        tx: TxId,
        kind: TxKind,
        attempt: u32,
    },
    /// Transactional forwarding: a fetched version exceeded the
    /// transaction's write-version clock, triggering early validation.
    TxForward {
        tx: TxId,
        attempt: u32,
        oid: ObjectId,
        wv_old: u64,
        wv_new: u64,
    },
    /// The attempt reached its serialization point (locks held, reads
    /// validated). `reads` is every `(object, version)` the commit is based
    /// on; `writes` is `(object, expected_version, new_version)` for each
    /// published object. For a read-only commit `writes` is empty and the
    /// record is emitted at finalization.
    TxCommit {
        tx: TxId,
        attempt: u32,
        nested_committed: u64,
        reads: Vec<(ObjectId, u64)>,
        writes: Vec<(ObjectId, u64, u64)>,
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
    TxAbort {
        tx: TxId,
        attempt: u32,
        cause: AbortCause,
        nested_parent: u64,
        backoff: SimDuration,
        wasted_ns: u64,
        msgs: u64,
        oid: Option<ObjectId>,
        aggressor: Option<TxId>,
    },
    /// A closed-nested child level opened.
    NestedOpen {
        tx: TxId,
        attempt: u32,
        level: u32,
        kind: TxKind,
    },
    /// The innermost child merged into its parent.
    NestedCommit { tx: TxId, attempt: u32, level: u32 },
    /// A child level rolled back for its own conflict (`own`) taking
    /// `parent`-caused casualties (committed descendants) with it.
    NestedAbort {
        tx: TxId,
        attempt: u32,
        level: u32,
        own: u64,
        parent: u64,
    },
    /// The owner-side scheduler adjudicated a lock-busy fetch
    /// (Algorithm 3): the full decision inputs and the verdict.
    SchedDecision {
        oid: ObjectId,
        tx: TxId,
        attempt: u32,
        local_cl: u32,
        requester_cl: u32,
        window_requests: u32,
        executed: SimDuration,
        remaining: SimDuration,
        queue_depth: u64,
        bk: SimDuration,
        threshold: Option<u32>,
        verdict: Verdict,
        backoff: SimDuration,
    },
    /// A queued requester was handed the object on release, after `wait`.
    QueueServed {
        oid: ObjectId,
        tx: TxId,
        attempt: u32,
        wait: SimDuration,
    },
    /// Ownership of `oid` moved from `from` to `to` at a commit.
    Migrate {
        oid: ObjectId,
        tx: TxId,
        from: u32,
        to: u32,
        version: u64,
    },
    /// Run identity prepended by the harness (scheduler and node count) so
    /// offline tools can label and segment multi-run logs.
    RunInfo {
        scheduler: SchedulerKind,
        nodes: u64,
    },
    /// End-of-run counter snapshot appended by the harness so an offline
    /// audit can compare span-derived totals against the live counters.
    /// The wasted-work totals let `dstm-trace analyze` reconcile its
    /// event-derived ledger against the live counters.
    RunSummary {
        commits: u64,
        aborts: u64,
        nested_own: u64,
        nested_parent: u64,
        nested_commits: u64,
        wasted_ns: u64,
        wasted_msgs: u64,
        attributed: u64,
        /// Remote-read cache totals (`DstmConfig::cache`). Written only
        /// when any is nonzero so cache-off traces stay byte-identical to
        /// the pre-cache format; absent fields parse as zero.
        cache_hits: u64,
        cache_misses: u64,
        cache_invalidations: u64,
    },
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

/// Append a literal fragment (`,"key":` with whatever precedes it) and a
/// number.
#[inline]
fn field(out: &mut String, fragment: &str, v: impl Into<u64>) {
    out.push_str(fragment);
    push_u64(out, v.into());
}

/// Append `<fragment>a,b]` — `fragment` ends in the opening bracket.
#[inline]
fn pair(out: &mut String, fragment: &str, tx: TxId) {
    field(out, fragment, tx.node);
    field(out, ",", tx.seq);
    out.push(']');
}

impl TraceRecord {
    /// Append this record as one JSONL line (including the newline).
    pub fn write_jsonl(&self, out: &mut String) {
        field(out, "{\"at\":", self.at.0);
        field(out, ",\"node\":", self.node);
        match &self.ev {
            ProtoEvent::TxStart { tx, kind, attempt } => {
                pair(out, ",\"ev\":\"tx_start\",\"tx\":[", *tx);
                field(out, ",\"kind\":", kind.0);
                field(out, ",\"attempt\":", *attempt);
            }
            ProtoEvent::TxForward {
                tx,
                attempt,
                oid,
                wv_old,
                wv_new,
            } => {
                pair(out, ",\"ev\":\"tx_forward\",\"tx\":[", *tx);
                field(out, ",\"attempt\":", *attempt);
                field(out, ",\"oid\":", oid.0);
                field(out, ",\"wv_old\":", *wv_old);
                field(out, ",\"wv_new\":", *wv_new);
            }
            ProtoEvent::TxCommit {
                tx,
                attempt,
                nested_committed,
                reads,
                writes,
            } => {
                pair(out, ",\"ev\":\"tx_commit\",\"tx\":[", *tx);
                field(out, ",\"attempt\":", *attempt);
                field(out, ",\"nested_committed\":", *nested_committed);
                out.push_str(",\"reads\":[");
                for (i, (oid, v)) in reads.iter().enumerate() {
                    field(out, if i == 0 { "[" } else { ",[" }, oid.0);
                    field(out, ",", *v);
                    out.push(']');
                }
                out.push_str("],\"writes\":[");
                for (i, (oid, expect, new)) in writes.iter().enumerate() {
                    field(out, if i == 0 { "[" } else { ",[" }, oid.0);
                    field(out, ",", *expect);
                    field(out, ",", *new);
                    out.push(']');
                }
                out.push(']');
            }
            ProtoEvent::TxAbort {
                tx,
                attempt,
                cause,
                nested_parent,
                backoff,
                wasted_ns,
                msgs,
                oid,
                aggressor,
            } => {
                pair(out, ",\"ev\":\"tx_abort\",\"tx\":[", *tx);
                field(out, ",\"attempt\":", *attempt);
                out.push_str(",\"cause\":\"");
                out.push_str(cause.label());
                field(out, "\",\"nested_parent\":", *nested_parent);
                field(out, ",\"backoff\":", backoff.0);
                field(out, ",\"wasted_ns\":", *wasted_ns);
                field(out, ",\"msgs\":", *msgs);
                if let Some(oid) = oid {
                    field(out, ",\"oid\":", oid.0);
                }
                if let Some(a) = aggressor {
                    pair(out, ",\"aggr\":[", *a);
                }
            }
            ProtoEvent::NestedOpen {
                tx,
                attempt,
                level,
                kind,
            } => {
                pair(out, ",\"ev\":\"nested_open\",\"tx\":[", *tx);
                field(out, ",\"attempt\":", *attempt);
                field(out, ",\"level\":", *level);
                field(out, ",\"kind\":", kind.0);
            }
            ProtoEvent::NestedCommit { tx, attempt, level } => {
                pair(out, ",\"ev\":\"nested_commit\",\"tx\":[", *tx);
                field(out, ",\"attempt\":", *attempt);
                field(out, ",\"level\":", *level);
            }
            ProtoEvent::NestedAbort {
                tx,
                attempt,
                level,
                own,
                parent,
            } => {
                pair(out, ",\"ev\":\"nested_abort\",\"tx\":[", *tx);
                field(out, ",\"attempt\":", *attempt);
                field(out, ",\"level\":", *level);
                field(out, ",\"own\":", *own);
                field(out, ",\"parent\":", *parent);
            }
            ProtoEvent::SchedDecision {
                oid,
                tx,
                attempt,
                local_cl,
                requester_cl,
                window_requests,
                executed,
                remaining,
                queue_depth,
                bk,
                threshold,
                verdict,
                backoff,
            } => {
                field(out, ",\"ev\":\"sched_decision\",\"oid\":", oid.0);
                pair(out, ",\"tx\":[", *tx);
                field(out, ",\"attempt\":", *attempt);
                field(out, ",\"local_cl\":", *local_cl);
                field(out, ",\"requester_cl\":", *requester_cl);
                field(out, ",\"window_requests\":", *window_requests);
                field(out, ",\"executed\":", executed.0);
                field(out, ",\"remaining\":", remaining.0);
                field(out, ",\"queue_depth\":", *queue_depth);
                field(out, ",\"bk\":", bk.0);
                if let Some(t) = threshold {
                    field(out, ",\"threshold\":", *t);
                }
                out.push_str(",\"verdict\":\"");
                out.push_str(verdict.label());
                field(out, "\",\"backoff\":", backoff.0);
            }
            ProtoEvent::QueueServed {
                oid,
                tx,
                attempt,
                wait,
            } => {
                field(out, ",\"ev\":\"queue_served\",\"oid\":", oid.0);
                pair(out, ",\"tx\":[", *tx);
                field(out, ",\"attempt\":", *attempt);
                field(out, ",\"wait\":", wait.0);
            }
            ProtoEvent::Migrate {
                oid,
                tx,
                from,
                to,
                version,
            } => {
                field(out, ",\"ev\":\"migrate\",\"oid\":", oid.0);
                pair(out, ",\"tx\":[", *tx);
                field(out, ",\"from\":", *from);
                field(out, ",\"to\":", *to);
                field(out, ",\"version\":", *version);
            }
            ProtoEvent::RunInfo { scheduler, nodes } => {
                out.push_str(",\"ev\":\"run_info\",\"scheduler\":\"");
                out.push_str(scheduler.label());
                field(out, "\",\"nodes\":", *nodes);
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
                cache_hits,
                cache_misses,
                cache_invalidations,
            } => {
                field(out, ",\"ev\":\"run_summary\",\"commits\":", *commits);
                field(out, ",\"aborts\":", *aborts);
                field(out, ",\"nested_own\":", *nested_own);
                field(out, ",\"nested_parent\":", *nested_parent);
                field(out, ",\"nested_commits\":", *nested_commits);
                field(out, ",\"wasted_ns\":", *wasted_ns);
                field(out, ",\"wasted_msgs\":", *wasted_msgs);
                field(out, ",\"attributed\":", *attributed);
                if *cache_hits != 0 || *cache_misses != 0 || *cache_invalidations != 0 {
                    field(out, ",\"cache_hits\":", *cache_hits);
                    field(out, ",\"cache_misses\":", *cache_misses);
                    field(out, ",\"cache_inval\":", *cache_invalidations);
                }
            }
        }
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

    /// Read `line` in exactly the layout [`TraceRecord::write_jsonl`]
    /// emits: the kind's fixed key order, literal fragments compared as
    /// bytes, digits accumulated inline, narrow fields range-checked.
    /// `None` at the first byte that departs from that layout; whatever it
    /// accepts, [`TraceRecord::parse_keyed`] reads as the same record.
    pub fn parse_layout(line: &str) -> Option<TraceRecord> {
        let mut l = Layout { text: line, pos: 0 };
        let at = SimTime(l.num("{\"at\":")?);
        let node = l.narrow(",\"node\":")?;
        let ev = match l.label(",\"ev\":\"")? {
            "tx_start" => ProtoEvent::TxStart {
                tx: l.tx(",\"tx\":[")?,
                kind: TxKind(l.narrow(",\"kind\":")?),
                attempt: l.narrow(",\"attempt\":")?,
            },
            "tx_forward" => ProtoEvent::TxForward {
                tx: l.tx(",\"tx\":[")?,
                attempt: l.narrow(",\"attempt\":")?,
                oid: ObjectId(l.num(",\"oid\":")?),
                wv_old: l.num(",\"wv_old\":")?,
                wv_new: l.num(",\"wv_new\":")?,
            },
            "tx_commit" => ProtoEvent::TxCommit {
                tx: l.tx(",\"tx\":[")?,
                attempt: l.narrow(",\"attempt\":")?,
                nested_committed: l.num(",\"nested_committed\":")?,
                reads: l.tuples(",\"reads\":[", |[oid, v]| (ObjectId(oid), v))?,
                writes: l.tuples(",\"writes\":[", |[oid, e, n]| (ObjectId(oid), e, n))?,
            },
            "tx_abort" => ProtoEvent::TxAbort {
                tx: l.tx(",\"tx\":[")?,
                attempt: l.narrow(",\"attempt\":")?,
                cause: AbortCause::from_label(l.label(",\"cause\":\"")?)?,
                nested_parent: l.num(",\"nested_parent\":")?,
                backoff: SimDuration(l.num(",\"backoff\":")?),
                wasted_ns: l.num(",\"wasted_ns\":")?,
                msgs: l.num(",\"msgs\":")?,
                oid: l.opt(",\"oid\":", |l| l.num(""))?.map(ObjectId),
                aggressor: l.opt(",\"aggr\":[", |l| l.tx(""))?,
            },
            "nested_open" => ProtoEvent::NestedOpen {
                tx: l.tx(",\"tx\":[")?,
                attempt: l.narrow(",\"attempt\":")?,
                level: l.narrow(",\"level\":")?,
                kind: TxKind(l.narrow(",\"kind\":")?),
            },
            "nested_commit" => ProtoEvent::NestedCommit {
                tx: l.tx(",\"tx\":[")?,
                attempt: l.narrow(",\"attempt\":")?,
                level: l.narrow(",\"level\":")?,
            },
            "nested_abort" => ProtoEvent::NestedAbort {
                tx: l.tx(",\"tx\":[")?,
                attempt: l.narrow(",\"attempt\":")?,
                level: l.narrow(",\"level\":")?,
                own: l.num(",\"own\":")?,
                parent: l.num(",\"parent\":")?,
            },
            "sched_decision" => ProtoEvent::SchedDecision {
                oid: ObjectId(l.num(",\"oid\":")?),
                tx: l.tx(",\"tx\":[")?,
                attempt: l.narrow(",\"attempt\":")?,
                local_cl: l.narrow(",\"local_cl\":")?,
                requester_cl: l.narrow(",\"requester_cl\":")?,
                window_requests: l.narrow(",\"window_requests\":")?,
                executed: SimDuration(l.num(",\"executed\":")?),
                remaining: SimDuration(l.num(",\"remaining\":")?),
                queue_depth: l.num(",\"queue_depth\":")?,
                bk: SimDuration(l.num(",\"bk\":")?),
                threshold: l.opt(",\"threshold\":", |l| l.narrow(""))?,
                verdict: Verdict::from_label(l.label(",\"verdict\":\"")?)?,
                backoff: SimDuration(l.num(",\"backoff\":")?),
            },
            "queue_served" => ProtoEvent::QueueServed {
                oid: ObjectId(l.num(",\"oid\":")?),
                tx: l.tx(",\"tx\":[")?,
                attempt: l.narrow(",\"attempt\":")?,
                wait: SimDuration(l.num(",\"wait\":")?),
            },
            "migrate" => ProtoEvent::Migrate {
                oid: ObjectId(l.num(",\"oid\":")?),
                tx: l.tx(",\"tx\":[")?,
                from: l.narrow(",\"from\":")?,
                to: l.narrow(",\"to\":")?,
                version: l.num(",\"version\":")?,
            },
            "run_info" => ProtoEvent::RunInfo {
                scheduler: SchedulerKind::from_label(l.label(",\"scheduler\":\"")?)?,
                nodes: l.num(",\"nodes\":")?,
            },
            "run_summary" => ProtoEvent::RunSummary {
                commits: l.num(",\"commits\":")?,
                aborts: l.num(",\"aborts\":")?,
                nested_own: l.num(",\"nested_own\":")?,
                nested_parent: l.num(",\"nested_parent\":")?,
                nested_commits: l.num(",\"nested_commits\":")?,
                wasted_ns: l.num(",\"wasted_ns\":")?,
                wasted_msgs: l.num(",\"wasted_msgs\":")?,
                attributed: l.num(",\"attributed\":")?,
                cache_hits: l.opt(",\"cache_hits\":", |l| l.num(""))?.unwrap_or(0),
                cache_misses: l.opt(",\"cache_misses\":", |l| l.num(""))?.unwrap_or(0),
                cache_invalidations: l.opt(",\"cache_inval\":", |l| l.num(""))?.unwrap_or(0),
            },
            _ => return None,
        };
        l.lit("}")?;
        (l.pos == line.len()).then_some(TraceRecord { at, node, ev })
    }

    /// Read `line` key by key, in whatever order and spacing the
    /// module-level grammar allows: one pass over the bytes fills a stack
    /// scratch of typed slots. [`TraceRecord::parse`] falls back to it for
    /// every line the layout reader refuses, and it is the reference that
    /// reader is tested against.
    pub fn parse_keyed(line: &str) -> Result<TraceRecord, String> {
        let f = Fields::scan(line)?;
        let at = SimTime(f.num(Slot::At)?);
        let node = f.narrow(Slot::Node)?;
        let ev = match f.label(Slot::Ev)? {
            "tx_start" => ProtoEvent::TxStart {
                tx: f.tx()?,
                kind: TxKind(f.narrow(Slot::Kind)?),
                attempt: f.narrow(Slot::Attempt)?,
            },
            "tx_forward" => ProtoEvent::TxForward {
                tx: f.tx()?,
                attempt: f.narrow(Slot::Attempt)?,
                oid: ObjectId(f.num(Slot::Oid)?),
                wv_old: f.num(Slot::WvOld)?,
                wv_new: f.num(Slot::WvNew)?,
            },
            "tx_commit" => {
                if !f.has(Slot::Reads) || !f.has(Slot::Writes) {
                    return Err("\"reads\" must hold 2-tuples and \"writes\" 3-tuples".into());
                }
                ProtoEvent::TxCommit {
                    tx: f.tx()?,
                    attempt: f.narrow(Slot::Attempt)?,
                    nested_committed: f.num(Slot::NestedCommitted)?,
                    reads: f.reads,
                    writes: f.writes,
                }
            }
            "tx_abort" => ProtoEvent::TxAbort {
                tx: f.tx()?,
                attempt: f.narrow(Slot::Attempt)?,
                cause: {
                    let label = f.label(Slot::Cause)?;
                    AbortCause::from_label(label)
                        .ok_or_else(|| format!("unknown abort cause {label:?}"))?
                },
                nested_parent: f.num(Slot::NestedParent)?,
                backoff: SimDuration(f.num(Slot::Backoff)?),
                // Attribution fields default to zero/absent so traces
                // written before they existed still parse.
                wasted_ns: f.opt(Slot::WastedNs).unwrap_or(0),
                msgs: f.opt(Slot::Msgs).unwrap_or(0),
                oid: f.opt(Slot::Oid).map(ObjectId),
                aggressor: f.opt_tx(Slot::Aggr)?,
            },
            "nested_open" => ProtoEvent::NestedOpen {
                tx: f.tx()?,
                attempt: f.narrow(Slot::Attempt)?,
                level: f.narrow(Slot::Level)?,
                kind: TxKind(f.narrow(Slot::Kind)?),
            },
            "nested_commit" => ProtoEvent::NestedCommit {
                tx: f.tx()?,
                attempt: f.narrow(Slot::Attempt)?,
                level: f.narrow(Slot::Level)?,
            },
            "nested_abort" => ProtoEvent::NestedAbort {
                tx: f.tx()?,
                attempt: f.narrow(Slot::Attempt)?,
                level: f.narrow(Slot::Level)?,
                own: f.num(Slot::Own)?,
                parent: f.num(Slot::Parent)?,
            },
            "sched_decision" => ProtoEvent::SchedDecision {
                oid: ObjectId(f.num(Slot::Oid)?),
                tx: f.tx()?,
                attempt: f.narrow(Slot::Attempt)?,
                local_cl: f.narrow(Slot::LocalCl)?,
                requester_cl: f.narrow(Slot::RequesterCl)?,
                window_requests: f.narrow(Slot::WindowRequests)?,
                executed: SimDuration(f.num(Slot::Executed)?),
                remaining: SimDuration(f.num(Slot::Remaining)?),
                queue_depth: f.num(Slot::QueueDepth)?,
                bk: SimDuration(f.num(Slot::Bk)?),
                threshold: f
                    .has(Slot::Threshold)
                    .then(|| f.narrow(Slot::Threshold))
                    .transpose()?,
                verdict: {
                    let label = f.label(Slot::Verdict)?;
                    Verdict::from_label(label)
                        .ok_or_else(|| format!("unknown verdict {label:?}"))?
                },
                backoff: SimDuration(f.num(Slot::Backoff)?),
            },
            "queue_served" => ProtoEvent::QueueServed {
                oid: ObjectId(f.num(Slot::Oid)?),
                tx: f.tx()?,
                attempt: f.narrow(Slot::Attempt)?,
                wait: SimDuration(f.num(Slot::Wait)?),
            },
            "migrate" => ProtoEvent::Migrate {
                oid: ObjectId(f.num(Slot::Oid)?),
                tx: f.tx()?,
                from: f.narrow(Slot::From)?,
                to: f.narrow(Slot::To)?,
                version: f.num(Slot::Version)?,
            },
            "run_info" => ProtoEvent::RunInfo {
                scheduler: {
                    let label = f.label(Slot::Scheduler)?;
                    SchedulerKind::from_label(label)
                        .ok_or_else(|| format!("unknown scheduler {label:?}"))?
                },
                nodes: f.num(Slot::Nodes)?,
            },
            "run_summary" => ProtoEvent::RunSummary {
                commits: f.num(Slot::Commits)?,
                aborts: f.num(Slot::Aborts)?,
                nested_own: f.num(Slot::NestedOwn)?,
                nested_parent: f.num(Slot::NestedParent)?,
                nested_commits: f.num(Slot::NestedCommits)?,
                wasted_ns: f.opt(Slot::WastedNs).unwrap_or(0),
                wasted_msgs: f.opt(Slot::WastedMsgs).unwrap_or(0),
                attributed: f.opt(Slot::Attributed).unwrap_or(0),
                cache_hits: f.opt(Slot::CacheHits).unwrap_or(0),
                cache_misses: f.opt(Slot::CacheMisses).unwrap_or(0),
                cache_invalidations: f.opt(Slot::CacheInval).unwrap_or(0),
            },
            other => return Err(format!("unknown event kind {other:?}")),
        };
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
    pub fn push_summary(&mut self, at: SimTime, merged: &NodeMetrics) {
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

/// Cursor of [`TraceRecord::parse_layout`]. Each step names the literal
/// fragment the writer puts before a value and answers `None` as soon as
/// the line departs from it — the position is then of no further use.
struct Layout<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Layout<'a> {
    /// Step over `fragment`, which must come next.
    #[inline]
    fn lit(&mut self, fragment: &str) -> Option<()> {
        let end = self.pos + fragment.len();
        if self.text.as_bytes().get(self.pos..end)? != fragment.as_bytes() {
            return None;
        }
        self.pos = end;
        Some(())
    }

    /// `fragment`, then a run of at least one digit that fits `u64`.
    #[inline]
    fn num(&mut self, fragment: &str) -> Option<u64> {
        // 19 digits cannot overflow a u64; only a 20th needs the check.
        const UNCHECKED_DIGITS: usize = 19;
        self.lit(fragment)?;
        let mut v = 0u64;
        let mut len = 0;
        for &b in &self.text.as_bytes()[self.pos..] {
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

    /// A number that fits the narrower `T`.
    #[inline]
    fn narrow<T: TryFrom<u64>>(&mut self, fragment: &str) -> Option<T> {
        T::try_from(self.num(fragment)?).ok()
    }

    /// `fragment` (ending in `[`), then `node,seq]`.
    #[inline]
    fn tx(&mut self, fragment: &str) -> Option<TxId> {
        let node = self.narrow(fragment)?;
        let seq = self.num(",")?;
        self.lit("]")?;
        Some(TxId::new(node, seq))
    }

    /// `fragment` (ending in the opening quote), then a label up to its
    /// closing quote.
    #[inline]
    fn label(&mut self, fragment: &str) -> Option<&'a str> {
        self.lit(fragment)?;
        let text = self.text;
        let n = text.as_bytes()[self.pos..]
            .iter()
            .position(|&b| b == b'"')?;
        // Both ends sit next to an ASCII quote: char boundaries.
        let label = &text[self.pos..self.pos + n];
        self.pos += n + 1;
        Some(label)
    }

    /// An optional field: `Some(None)` when `fragment` does not come next,
    /// `Some(Some(v))` when it does and `value` reads what follows it.
    #[inline]
    fn opt<T>(
        &mut self,
        fragment: &str,
        value: impl FnOnce(&mut Self) -> Option<T>,
    ) -> Option<Option<T>> {
        match self.lit(fragment) {
            Some(()) => value(self).map(Some),
            None => Some(None),
        }
    }

    /// `fragment` (ending in `[`), then `]` or `[…],…,[…]]` of `N`-tuples,
    /// each turned into an element by `make`.
    fn tuples<const N: usize, T>(
        &mut self,
        fragment: &str,
        make: impl Fn([u64; N]) -> T,
    ) -> Option<Vec<T>> {
        self.lit(fragment)?;
        let mut out = Vec::new();
        if self.lit("]").is_some() {
            return Some(out);
        }
        loop {
            let mut t = [0; N];
            let mut before = "[";
            for n in &mut t {
                *n = self.num(before)?;
                before = ",";
            }
            self.lit("]")?;
            out.push(make(t));
            if self.lit("]").is_some() {
                return Some(out);
            }
            self.lit(",")?;
        }
    }
}

/// Declares [`Slot`]: one scratch slot per key of the line format, and the
/// key → slot dispatch generated from the same list.
macro_rules! slots {
    ($($slot:ident = $key:literal),* $(,)?) => {
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        enum Slot { $($slot),* }

        impl Slot {
            const KEYS: &'static [&'static str] = &[$($key),*];

            fn of(key: &str) -> Option<Slot> {
                match key {
                    $($key => Some(Slot::$slot),)*
                    _ => None,
                }
            }
        }
    };
}

slots! {
    // Listed the way the dispatch tries them: the keys every line carries
    // first, the end-of-run summary's last.
    // Label strings.
    Ev = "ev", Cause = "cause", Verdict = "verdict", Scheduler = "scheduler",
    // `[node,seq]` pairs.
    Tx = "tx", Aggr = "aggr",
    // Arrays of 2- and 3-tuples.
    Reads = "reads", Writes = "writes",
    // Unsigned integers.
    At = "at", Node = "node", Attempt = "attempt", Level = "level", Kind = "kind",
    Oid = "oid", Own = "own", Parent = "parent", WvOld = "wv_old", WvNew = "wv_new",
    From = "from", To = "to", Version = "version", NestedParent = "nested_parent",
    Backoff = "backoff", WastedNs = "wasted_ns", Msgs = "msgs",
    NestedCommitted = "nested_committed", Wait = "wait", LocalCl = "local_cl",
    RequesterCl = "requester_cl", WindowRequests = "window_requests",
    Executed = "executed", Remaining = "remaining", QueueDepth = "queue_depth",
    Bk = "bk", Threshold = "threshold", Nodes = "nodes", Commits = "commits",
    Aborts = "aborts", NestedOwn = "nested_own", NestedCommits = "nested_commits",
    WastedMsgs = "wasted_msgs", Attributed = "attributed",
    CacheHits = "cache_hits", CacheMisses = "cache_misses",
    CacheInval = "cache_inval",
}

impl Slot {
    const LABELS: usize = Slot::Tx as usize;
    const PAIRS: usize = Slot::Reads as usize - Slot::Tx as usize;
    const NUMS: usize = Slot::KEYS.len() - Slot::At as usize;

    fn key(self) -> &'static str {
        Slot::KEYS[self as usize]
    }

    fn bit(self) -> u64 {
        1 << self as u32
    }
}

// `Fields` keeps one bit per slot in a `u64`.
const _: () = assert!(Slot::KEYS.len() <= 64);

/// The typed scratch one line is scanned into: a slot per known key,
/// whatever the order the keys came in.
struct Fields<'a> {
    /// Keys met so far — a repeated key is skipped (first occurrence wins).
    seen: u64,
    /// Slots holding a value of the slot's own shape. A known key with a
    /// value of another shape counts as absent, which is an error exactly
    /// when the event kind on the line requires that field.
    have: u64,
    nums: [u64; Slot::NUMS],
    labels: [&'a str; Slot::LABELS],
    pairs: [[u64; 2]; Slot::PAIRS],
    reads: Vec<(ObjectId, u64)>,
    writes: Vec<(ObjectId, u64, u64)>,
}

impl<'a> Fields<'a> {
    fn scan(line: &'a str) -> Result<Self, String> {
        let mut f = Fields {
            seen: 0,
            have: 0,
            nums: [0; Slot::NUMS],
            labels: [""; Slot::LABELS],
            pairs: [[0; 2]; Slot::PAIRS],
            reads: Vec::new(),
            writes: Vec::new(),
        };
        let mut c = Cursor { text: line, pos: 0 };
        c.expect(b'{')?;
        if c.peek() == Some(b'}') {
            c.pos += 1;
        } else {
            loop {
                let key = c.string()?;
                c.expect(b':')?;
                match Slot::of(key) {
                    Some(slot) if f.seen & slot.bit() == 0 => {
                        f.seen |= slot.bit();
                        if c.value_into(slot, &mut f)? {
                            f.have |= slot.bit();
                        }
                    }
                    _ => c.skip_value()?,
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
        Ok(f)
    }

    fn has(&self, slot: Slot) -> bool {
        self.have & slot.bit() != 0
    }

    fn opt(&self, slot: Slot) -> Option<u64> {
        self.has(slot)
            .then(|| self.nums[slot as usize - Slot::At as usize])
    }

    fn num(&self, slot: Slot) -> Result<u64, String> {
        self.opt(slot)
            .ok_or_else(|| format!("missing numeric field {:?}", slot.key()))
    }

    /// A numeric field whose type is narrower than `u64`.
    fn narrow<T: TryFrom<u64>>(&self, slot: Slot) -> Result<T, String> {
        T::try_from(self.num(slot)?).map_err(|_| format!("field {:?} out of range", slot.key()))
    }

    fn label(&self, slot: Slot) -> Result<&'a str, String> {
        if self.has(slot) {
            Ok(self.labels[slot as usize])
        } else {
            Err(format!("missing string field {:?}", slot.key()))
        }
    }

    /// The `[node,seq]` pair in `slot`, if the line has one.
    fn opt_tx(&self, slot: Slot) -> Result<Option<TxId>, String> {
        if !self.has(slot) {
            return Ok(None);
        }
        let [node, seq] = self.pairs[slot as usize - Slot::Tx as usize];
        match u32::try_from(node) {
            Ok(node) => Ok(Some(TxId::new(node, seq))),
            Err(_) => Err(format!("field {:?} out of range", slot.key())),
        }
    }

    fn tx(&self) -> Result<TxId, String> {
        self.opt_tx(Slot::Tx)?
            .ok_or_else(|| "tx must be [node,seq]".into())
    }
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

    fn skip_ws(&mut self) {
        while self.byte().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// The next byte that is not whitespace.
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

    fn string(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let rest = self.rest();
        match rest.iter().position(|&b| b == b'"' || b == b'\\') {
            Some(n) if rest[n] == b'"' => {
                // Both ends sit next to an ASCII quote: char boundaries.
                let s = &self.text[self.pos..self.pos + n];
                self.pos += n + 1;
                Ok(s)
            }
            Some(_) => Err("escape sequences are not part of the trace format".into()),
            None => Err("unterminated string".into()),
        }
    }

    /// The run of digits at the cursor (the caller has seen the first).
    fn number(&mut self) -> Result<u64, String> {
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
                v.checked_mul(10)
                    .and_then(|v| v.checked_add(d))
                    .ok_or_else(|| format!("number at byte {} does not fit in 64 bits", self.pos))?
            };
            len += 1;
        }
        self.pos += len;
        Ok(v)
    }

    fn at_digit(&mut self) -> bool {
        self.peek().is_some_and(|b| b.is_ascii_digit())
    }

    /// `[n,n,…]` with exactly `N` numbers, or `None` (cursor anywhere).
    fn tuple<const N: usize>(&mut self) -> Option<[u64; N]> {
        let mut t = [0; N];
        let mut opener = b'[';
        for n in &mut t {
            if self.peek() != Some(opener) {
                return None;
            }
            self.pos += 1;
            if !self.at_digit() {
                return None;
            }
            *n = self.number().ok()?;
            opener = b',';
        }
        if self.peek() != Some(b']') {
            return None;
        }
        self.pos += 1;
        Some(t)
    }

    /// `[]` or `[[…],[…],…]` of `N`-tuples, each handed to `push`; `false`
    /// on any other shape (cursor anywhere, some tuples already pushed).
    fn tuples<const N: usize>(&mut self, mut push: impl FnMut([u64; N])) -> bool {
        if self.peek() != Some(b'[') {
            return false;
        }
        self.pos += 1;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return true;
        }
        while let Some(t) = self.tuple() {
            push(t);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return true;
                }
                _ => break,
            }
        }
        false
    }

    /// Read the value at the cursor into `slot` if it has the slot's shape
    /// (`true`); otherwise skip it like an unknown key's (`false`).
    fn value_into(&mut self, slot: Slot, f: &mut Fields<'a>) -> Result<bool, String> {
        let start = self.pos;
        let i = slot as usize;
        let fits = match slot {
            Slot::Reads => {
                self.tuples(|[oid, v]| f.reads.push((ObjectId(oid), v))) || {
                    f.reads.clear();
                    false
                }
            }
            Slot::Writes => {
                self.tuples(|[oid, e, n]| f.writes.push((ObjectId(oid), e, n))) || {
                    f.writes.clear();
                    false
                }
            }
            Slot::Tx | Slot::Aggr => match self.tuple() {
                Some(pair) => {
                    f.pairs[i - Slot::Tx as usize] = pair;
                    true
                }
                None => false,
            },
            _ if i < Slot::LABELS => {
                let quoted = self.peek() == Some(b'"');
                if quoted {
                    f.labels[i] = self.string()?;
                }
                quoted
            }
            _ => {
                let digit = self.at_digit();
                if digit {
                    f.nums[i - Slot::At as usize] = self.number()?;
                }
                digit
            }
        };
        if !fits {
            self.pos = start;
            self.skip_value()?;
        }
        Ok(fits)
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
                    self.number()?;
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
        for (i, ev) in variants.into_iter().enumerate() {
            roundtrip(TraceRecord {
                at: SimTime(1_000 + i as u64),
                node: i as u32 % 4,
                ev,
            });
        }
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
        let metrics = NodeMetrics {
            commits: 6,
            nested_commits: 8,
            nested_aborts_own: 1,
            nested_aborts_parent: 2,
            aborts_scheduler: 3,
            ..NodeMetrics::default()
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
        log.push_summary(SimTime(10), &NodeMetrics::default());
        let text = log.to_jsonl();
        assert!(!text.contains("cache"), "line was {text}");
        let mut cached = TraceLog::default();
        cached.push_summary(
            SimTime(10),
            &NodeMetrics {
                cache_hits: 3,
                ..NodeMetrics::default()
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
