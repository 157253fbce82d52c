//! Protocol-level tracing: typed events for transaction lifecycle spans,
//! closed-nesting child spans, scheduler decisions, queue service, and
//! object migration — attributed to virtual time and node.
//!
//! This sits **above** the kernel's [`dstm_sim::TraceSink`] (which sees raw
//! message delivery): events here carry protocol semantics (`TxId`s,
//! versions, `AbortCause`s, CL/ETS numbers), which is what the offline
//! `dstm-trace` auditor and the Chrome exporter need.
//!
//! Cost discipline: every instrumentation site in `node.rs` is guarded by
//! [`ProtoTrace::on`] — one branch on a bool — and no event (or its `Vec`
//! payloads) is constructed when tracing is off.
//!
//! Serialization is hand-rolled JSONL (one record per line) because the
//! workspace is offline and carries no serde; the format is a flat object
//! whose values are unsigned integers, short label strings, or arrays of
//! integer arrays, and [`TraceRecord::parse`] reads exactly that subset
//! back.

use crate::metrics::{AbortCause, NodeMetrics};
use dstm_sim::{SimDuration, SimTime};
use rts_core::{ObjectId, TxId, TxKind};
use std::fmt::Write as _;

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
    RunInfo { scheduler: SchedLabel, nodes: u64 },
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

/// Scheduler identity as recorded in traces — a copy of the harness's
/// scheduler axis that stays label-encodable without depending on the
/// scheduler crate's internals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedLabel {
    Rts,
    Tfa,
    TfaBackoff,
    Ats,
    BiInterval,
}

impl SchedLabel {
    pub fn label(self) -> &'static str {
        match self {
            SchedLabel::Rts => "RTS",
            SchedLabel::Tfa => "TFA",
            SchedLabel::TfaBackoff => "TFA+Backoff",
            SchedLabel::Ats => "ATS",
            SchedLabel::BiInterval => "Bi-interval",
        }
    }

    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "RTS" => Some(SchedLabel::Rts),
            "TFA" => Some(SchedLabel::Tfa),
            "TFA+Backoff" => Some(SchedLabel::TfaBackoff),
            "ATS" => Some(SchedLabel::Ats),
            "Bi-interval" => Some(SchedLabel::BiInterval),
            _ => None,
        }
    }
}

/// A timestamped, node-attributed protocol event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    pub at: SimTime,
    /// The node that observed/recorded the event (requester side for
    /// lifecycle events, owner side for scheduler/queue events).
    pub node: u32,
    pub ev: ProtoEvent,
}

fn write_tx(out: &mut String, tx: TxId) {
    let _ = write!(out, "\"tx\":[{},{}]", tx.node, tx.seq);
}

impl TraceRecord {
    /// Append this record as one JSONL line (including the newline).
    pub fn write_jsonl(&self, out: &mut String) {
        let _ = write!(out, "{{\"at\":{},\"node\":{},", self.at.0, self.node);
        match &self.ev {
            ProtoEvent::TxStart { tx, kind, attempt } => {
                out.push_str("\"ev\":\"tx_start\",");
                write_tx(out, *tx);
                let _ = write!(out, ",\"kind\":{},\"attempt\":{attempt}", kind.0);
            }
            ProtoEvent::TxForward {
                tx,
                attempt,
                oid,
                wv_old,
                wv_new,
            } => {
                out.push_str("\"ev\":\"tx_forward\",");
                write_tx(out, *tx);
                let _ = write!(
                    out,
                    ",\"attempt\":{attempt},\"oid\":{},\"wv_old\":{wv_old},\"wv_new\":{wv_new}",
                    oid.0
                );
            }
            ProtoEvent::TxCommit {
                tx,
                attempt,
                nested_committed,
                reads,
                writes,
            } => {
                out.push_str("\"ev\":\"tx_commit\",");
                write_tx(out, *tx);
                let _ = write!(
                    out,
                    ",\"attempt\":{attempt},\"nested_committed\":{nested_committed},\"reads\":["
                );
                for (i, (oid, v)) in reads.iter().enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    let _ = write!(out, "{sep}[{},{v}]", oid.0);
                }
                out.push_str("],\"writes\":[");
                for (i, (oid, expect, new)) in writes.iter().enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    let _ = write!(out, "{sep}[{},{expect},{new}]", oid.0);
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
                out.push_str("\"ev\":\"tx_abort\",");
                write_tx(out, *tx);
                let _ = write!(
                    out,
                    ",\"attempt\":{attempt},\"cause\":\"{}\",\"nested_parent\":{nested_parent},\"backoff\":{}\
                     ,\"wasted_ns\":{wasted_ns},\"msgs\":{msgs}",
                    cause.label(),
                    backoff.0
                );
                if let Some(oid) = oid {
                    let _ = write!(out, ",\"oid\":{}", oid.0);
                }
                if let Some(a) = aggressor {
                    let _ = write!(out, ",\"aggr\":[{},{}]", a.node, a.seq);
                }
            }
            ProtoEvent::NestedOpen {
                tx,
                attempt,
                level,
                kind,
            } => {
                out.push_str("\"ev\":\"nested_open\",");
                write_tx(out, *tx);
                let _ = write!(
                    out,
                    ",\"attempt\":{attempt},\"level\":{level},\"kind\":{}",
                    kind.0
                );
            }
            ProtoEvent::NestedCommit { tx, attempt, level } => {
                out.push_str("\"ev\":\"nested_commit\",");
                write_tx(out, *tx);
                let _ = write!(out, ",\"attempt\":{attempt},\"level\":{level}");
            }
            ProtoEvent::NestedAbort {
                tx,
                attempt,
                level,
                own,
                parent,
            } => {
                out.push_str("\"ev\":\"nested_abort\",");
                write_tx(out, *tx);
                let _ = write!(
                    out,
                    ",\"attempt\":{attempt},\"level\":{level},\"own\":{own},\"parent\":{parent}"
                );
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
                let _ = write!(out, "\"ev\":\"sched_decision\",\"oid\":{},", oid.0);
                write_tx(out, *tx);
                let _ = write!(
                    out,
                    ",\"attempt\":{attempt},\"local_cl\":{local_cl},\"requester_cl\":{requester_cl},\
                     \"window_requests\":{window_requests},\"executed\":{},\"remaining\":{},\
                     \"queue_depth\":{queue_depth},\"bk\":{}",
                    executed.0, remaining.0, bk.0
                );
                if let Some(t) = threshold {
                    let _ = write!(out, ",\"threshold\":{t}");
                }
                let _ = write!(
                    out,
                    ",\"verdict\":\"{}\",\"backoff\":{}",
                    verdict.label(),
                    backoff.0
                );
            }
            ProtoEvent::QueueServed {
                oid,
                tx,
                attempt,
                wait,
            } => {
                let _ = write!(out, "\"ev\":\"queue_served\",\"oid\":{},", oid.0);
                write_tx(out, *tx);
                let _ = write!(out, ",\"attempt\":{attempt},\"wait\":{}", wait.0);
            }
            ProtoEvent::Migrate {
                oid,
                tx,
                from,
                to,
                version,
            } => {
                let _ = write!(out, "\"ev\":\"migrate\",\"oid\":{},", oid.0);
                write_tx(out, *tx);
                let _ = write!(out, ",\"from\":{from},\"to\":{to},\"version\":{version}");
            }
            ProtoEvent::RunInfo { scheduler, nodes } => {
                let _ = write!(
                    out,
                    "\"ev\":\"run_info\",\"scheduler\":\"{}\",\"nodes\":{nodes}",
                    scheduler.label()
                );
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
                let _ = write!(
                    out,
                    "\"ev\":\"run_summary\",\"commits\":{commits},\"aborts\":{aborts},\
                     \"nested_own\":{nested_own},\"nested_parent\":{nested_parent},\
                     \"nested_commits\":{nested_commits},\"wasted_ns\":{wasted_ns},\
                     \"wasted_msgs\":{wasted_msgs},\"attributed\":{attributed}"
                );
                if *cache_hits != 0 || *cache_misses != 0 || *cache_invalidations != 0 {
                    let _ = write!(
                        out,
                        ",\"cache_hits\":{cache_hits},\"cache_misses\":{cache_misses},\
                         \"cache_inval\":{cache_invalidations}"
                    );
                }
            }
        }
        out.push_str("}\n");
    }

    /// Parse one JSONL line written by [`TraceRecord::write_jsonl`].
    pub fn parse(line: &str) -> Result<TraceRecord, String> {
        let obj = json::parse_object(line)?;
        let at = SimTime(obj.num("at")?);
        let node = obj.num("node")? as u32;
        let ev_name = obj.str("ev")?;
        let tx = || -> Result<TxId, String> {
            let pair = obj.num_array("tx")?;
            if pair.len() != 2 {
                return Err("tx must be [node,seq]".into());
            }
            Ok(TxId::new(pair[0] as u32, pair[1]))
        };
        let attempt = || obj.num("attempt").map(|a| a as u32);
        let ev = match ev_name {
            "tx_start" => ProtoEvent::TxStart {
                tx: tx()?,
                kind: TxKind(obj.num("kind")? as u16),
                attempt: attempt()?,
            },
            "tx_forward" => ProtoEvent::TxForward {
                tx: tx()?,
                attempt: attempt()?,
                oid: ObjectId(obj.num("oid")?),
                wv_old: obj.num("wv_old")?,
                wv_new: obj.num("wv_new")?,
            },
            "tx_commit" => {
                let reads = obj
                    .pair_array("reads")?
                    .into_iter()
                    .map(|p| (ObjectId(p[0]), p[1]))
                    .collect();
                let writes = obj
                    .triple_array("writes")?
                    .into_iter()
                    .map(|p| (ObjectId(p[0]), p[1], p[2]))
                    .collect();
                ProtoEvent::TxCommit {
                    tx: tx()?,
                    attempt: attempt()?,
                    nested_committed: obj.num("nested_committed")?,
                    reads,
                    writes,
                }
            }
            "tx_abort" => ProtoEvent::TxAbort {
                tx: tx()?,
                attempt: attempt()?,
                cause: AbortCause::from_label(obj.str("cause")?)
                    .ok_or_else(|| format!("unknown abort cause {:?}", obj.str("cause")))?,
                nested_parent: obj.num("nested_parent")?,
                backoff: SimDuration(obj.num("backoff")?),
                // Attribution fields default to zero/absent so traces
                // written before they existed still parse.
                wasted_ns: obj.opt_num("wasted_ns").unwrap_or(0),
                msgs: obj.opt_num("msgs").unwrap_or(0),
                oid: obj.opt_num("oid").map(ObjectId),
                aggressor: obj.opt_pair("aggr").map(|[n, s]| TxId::new(n as u32, s)),
            },
            "nested_open" => ProtoEvent::NestedOpen {
                tx: tx()?,
                attempt: attempt()?,
                level: obj.num("level")? as u32,
                kind: TxKind(obj.num("kind")? as u16),
            },
            "nested_commit" => ProtoEvent::NestedCommit {
                tx: tx()?,
                attempt: attempt()?,
                level: obj.num("level")? as u32,
            },
            "nested_abort" => ProtoEvent::NestedAbort {
                tx: tx()?,
                attempt: attempt()?,
                level: obj.num("level")? as u32,
                own: obj.num("own")?,
                parent: obj.num("parent")?,
            },
            "sched_decision" => ProtoEvent::SchedDecision {
                oid: ObjectId(obj.num("oid")?),
                tx: tx()?,
                attempt: attempt()?,
                local_cl: obj.num("local_cl")? as u32,
                requester_cl: obj.num("requester_cl")? as u32,
                window_requests: obj.num("window_requests")? as u32,
                executed: SimDuration(obj.num("executed")?),
                remaining: SimDuration(obj.num("remaining")?),
                queue_depth: obj.num("queue_depth")?,
                bk: SimDuration(obj.num("bk")?),
                threshold: obj.opt_num("threshold").map(|t| t as u32),
                verdict: Verdict::from_label(obj.str("verdict")?)
                    .ok_or_else(|| format!("unknown verdict {:?}", obj.str("verdict")))?,
                backoff: SimDuration(obj.num("backoff")?),
            },
            "queue_served" => ProtoEvent::QueueServed {
                oid: ObjectId(obj.num("oid")?),
                tx: tx()?,
                attempt: attempt()?,
                wait: SimDuration(obj.num("wait")?),
            },
            "migrate" => ProtoEvent::Migrate {
                oid: ObjectId(obj.num("oid")?),
                tx: tx()?,
                from: obj.num("from")? as u32,
                to: obj.num("to")? as u32,
                version: obj.num("version")?,
            },
            "run_info" => ProtoEvent::RunInfo {
                scheduler: SchedLabel::from_label(obj.str("scheduler")?)
                    .ok_or_else(|| format!("unknown scheduler {:?}", obj.str("scheduler")))?,
                nodes: obj.num("nodes")?,
            },
            "run_summary" => ProtoEvent::RunSummary {
                commits: obj.num("commits")?,
                aborts: obj.num("aborts")?,
                nested_own: obj.num("nested_own")?,
                nested_parent: obj.num("nested_parent")?,
                nested_commits: obj.num("nested_commits")?,
                wasted_ns: obj.opt_num("wasted_ns").unwrap_or(0),
                wasted_msgs: obj.opt_num("wasted_msgs").unwrap_or(0),
                attributed: obj.opt_num("attributed").unwrap_or(0),
                cache_hits: obj.opt_num("cache_hits").unwrap_or(0),
                cache_misses: obj.opt_num("cache_misses").unwrap_or(0),
                cache_invalidations: obj.opt_num("cache_inval").unwrap_or(0),
            },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok(TraceRecord { at, node, ev })
    }
}

/// Per-node protocol-event sink. Disabled by default; every caller guards
/// with [`ProtoTrace::on`] before building an event, so the disabled path is
/// one branch and zero allocation.
#[derive(Debug, Default)]
pub struct ProtoTrace {
    enabled: bool,
    records: Vec<TraceRecord>,
}

impl ProtoTrace {
    pub fn disabled() -> Self {
        ProtoTrace::default()
    }

    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// The one-branch guard callers check before constructing an event.
    #[inline]
    pub fn on(&self) -> bool {
        self.enabled
    }

    #[inline]
    pub fn push(&mut self, at: SimTime, node: u32, ev: ProtoEvent) {
        if self.enabled {
            self.records.push(TraceRecord { at, node, ev });
        }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drain the recorded events (end-of-run collection).
    pub fn take(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records)
    }
}

/// A whole run's merged trace, time-ordered across nodes.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    pub records: Vec<TraceRecord>,
}

impl TraceLog {
    /// Merge per-node record streams (each already time-ordered) into one
    /// deterministic global order: by time, ties by node.
    pub fn from_node_streams(streams: Vec<Vec<TraceRecord>>) -> Self {
        let mut records: Vec<TraceRecord> = streams.into_iter().flatten().collect();
        records.sort_by_key(|r| (r.at, r.node));
        TraceLog { records }
    }

    /// Prepend the run-identity record (scheduler, node count) offline
    /// tools use to label and segment the log. Sits at time zero, before
    /// every protocol event.
    pub fn push_run_info(&mut self, scheduler: SchedLabel, nodes: u64) {
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
        let mut out = String::with_capacity(self.records.len() * 96);
        for r in &self.records {
            r.write_jsonl(&mut out);
        }
        out
    }

    pub fn parse_jsonl(text: &str) -> Result<TraceLog, String> {
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            records.push(TraceRecord::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(TraceLog { records })
    }
}

/// Minimal JSON-subset reader for the flat objects this module writes:
/// string keys; values are unsigned integers, short strings, or arrays of
/// integer arrays. Not a general JSON parser.
mod json {
    pub struct Obj {
        fields: Vec<(String, Val)>,
    }

    pub enum Val {
        Num(u64),
        Str(String),
        Arr(Vec<Val>),
    }

    impl Obj {
        fn get(&self, key: &str) -> Option<&Val> {
            self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }

        pub fn num(&self, key: &str) -> Result<u64, String> {
            match self.get(key) {
                Some(Val::Num(n)) => Ok(*n),
                _ => Err(format!("missing numeric field {key:?}")),
            }
        }

        pub fn opt_num(&self, key: &str) -> Option<u64> {
            match self.get(key) {
                Some(Val::Num(n)) => Some(*n),
                _ => None,
            }
        }

        /// An optional `[a,b]` field (absent → `None`; malformed → `None`
        /// too, matching `opt_num`'s lenient shape).
        pub fn opt_pair(&self, key: &str) -> Option<[u64; 2]> {
            match self.get(key) {
                Some(Val::Arr(items)) if items.len() == 2 => match (&items[0], &items[1]) {
                    (Val::Num(a), Val::Num(b)) => Some([*a, *b]),
                    _ => None,
                },
                _ => None,
            }
        }

        pub fn str(&self, key: &str) -> Result<&str, String> {
            match self.get(key) {
                Some(Val::Str(s)) => Ok(s),
                _ => Err(format!("missing string field {key:?}")),
            }
        }

        pub fn num_array(&self, key: &str) -> Result<Vec<u64>, String> {
            match self.get(key) {
                Some(Val::Arr(items)) => items
                    .iter()
                    .map(|v| match v {
                        Val::Num(n) => Ok(*n),
                        _ => Err(format!("non-numeric element in {key:?}")),
                    })
                    .collect(),
                _ => Err(format!("missing array field {key:?}")),
            }
        }

        fn tuple_array(&self, key: &str, arity: usize) -> Result<Vec<Vec<u64>>, String> {
            match self.get(key) {
                Some(Val::Arr(items)) => items
                    .iter()
                    .map(|v| match v {
                        Val::Arr(inner) if inner.len() == arity => inner
                            .iter()
                            .map(|n| match n {
                                Val::Num(n) => Ok(*n),
                                _ => Err(format!("non-numeric tuple element in {key:?}")),
                            })
                            .collect(),
                        _ => Err(format!("{key:?} must hold {arity}-tuples")),
                    })
                    .collect(),
                _ => Err(format!("missing array field {key:?}")),
            }
        }

        pub fn pair_array(&self, key: &str) -> Result<Vec<Vec<u64>>, String> {
            self.tuple_array(key, 2)
        }

        pub fn triple_array(&self, key: &str) -> Result<Vec<Vec<u64>>, String> {
            self.tuple_array(key, 3)
        }
    }

    pub fn parse_object(line: &str) -> Result<Obj, String> {
        let mut p = Parser {
            bytes: line.as_bytes(),
            pos: 0,
        };
        let obj = p.object()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err("trailing garbage after object".into());
        }
        Ok(obj)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", b as char, self.pos))
            }
        }

        fn peek(&mut self) -> Option<u8> {
            self.skip_ws();
            self.bytes.get(self.pos).copied()
        }

        fn object(&mut self) -> Result<Obj, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Obj { fields });
            }
            loop {
                let key = self.string()?;
                self.expect(b':')?;
                let val = self.value()?;
                fields.push((key, val));
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Obj { fields });
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }

        fn value(&mut self) -> Result<Val, String> {
            match self.peek() {
                Some(b'"') => Ok(Val::Str(self.string()?)),
                Some(b'[') => {
                    self.pos += 1;
                    let mut items = Vec::new();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        return Ok(Val::Arr(items));
                    }
                    loop {
                        items.push(self.value()?);
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b']') => {
                                self.pos += 1;
                                return Ok(Val::Arr(items));
                            }
                            _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                        }
                    }
                }
                Some(b) if b.is_ascii_digit() => {
                    let start = self.pos;
                    while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
                        self.pos += 1;
                    }
                    let s =
                        std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are utf8");
                    s.parse::<u64>()
                        .map(Val::Num)
                        .map_err(|e| format!("bad number {s:?}: {e}"))
                }
                _ => Err(format!("unexpected value at byte {}", self.pos)),
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?
                        .to_string();
                    self.pos += 1;
                    return Ok(s);
                }
                if b == b'\\' {
                    return Err("escape sequences are not part of the trace format".into());
                }
                self.pos += 1;
            }
            Err("unterminated string".into())
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
                scheduler: SchedLabel::TfaBackoff,
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
        let mut t = ProtoTrace::disabled();
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
        assert!(t.is_empty());
    }

    #[test]
    fn log_merges_streams_in_time_order() {
        let mk = |at: u64, node: u32| TraceRecord {
            at: SimTime(at),
            node,
            ev: ProtoEvent::NestedCommit {
                tx: TxId::new(node, 1),
                attempt: 0,
                level: 1,
            },
        };
        let log =
            TraceLog::from_node_streams(vec![vec![mk(5, 0), mk(9, 0)], vec![mk(1, 1), mk(9, 1)]]);
        let order: Vec<(u64, u32)> = log.records.iter().map(|r| (r.at.0, r.node)).collect();
        assert_eq!(order, vec![(1, 1), (5, 0), (9, 0), (9, 1)]);
    }

    #[test]
    fn jsonl_text_roundtrip_with_summary() {
        let mut log = TraceLog::from_node_streams(vec![vec![TraceRecord {
            at: SimTime(3),
            node: 2,
            ev: ProtoEvent::QueueServed {
                oid: ObjectId(1),
                tx: TxId::new(2, 4),
                attempt: 0,
                wait: SimDuration::from_millis(3),
            },
        }]]);
        let metrics = NodeMetrics {
            commits: 6,
            nested_commits: 8,
            nested_aborts_own: 1,
            nested_aborts_parent: 2,
            aborts_scheduler: 3,
            ..NodeMetrics::default()
        };
        log.push_run_info(SchedLabel::Rts, 8);
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
    fn parse_rejects_malformed_lines() {
        assert!(TraceRecord::parse("{\"at\":1}").is_err());
        assert!(TraceRecord::parse("not json").is_err());
        assert!(TraceRecord::parse("{\"at\":1,\"node\":0,\"ev\":\"bogus\"}").is_err());
        assert!(TraceLog::parse_jsonl("{\"at\":oops\n").is_err());
    }
}
