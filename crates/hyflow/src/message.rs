//! The D-STM wire protocol.
//!
//! Five conversations:
//!
//! 1. **Fetch** (`ObjReq` → `ObjResp`, possibly forwarded along the
//!    ownership chain): Algorithm 2's `Open_Object` / Algorithm 3's
//!    `Retrieve_Request`. A fetch is one [`FetchReq`] value carrying the ETS
//!    timestamps and `myCL`, re-sent unchanged when forwarded; responses
//!    carry the object or a scheduler verdict.
//! 2. **Commit** (`LockReq`/`LockResp`, then `Publish`/`PublishAck` or
//!    `Unlock`): TFA's validation — lock every written object at its owner,
//!    check versions, then publish new versions (moving ownership to the
//!    committer) or roll back.
//! 3. **Version checks** (`VersionCheck` → `VersionResp`): TFA's early
//!    validation during transactional forwarding and read-set validation at
//!    commit.
//! 4. **Queue service** (`ObjResp` pushed to enqueued requesters on
//!    release; `ObjectDecline` when the requester has moved on) —
//!    Algorithm 4's `Retrieve_Response`.
//! 5. **Workload** (`StartWorkload`) — kicks off each node's transaction
//!    supply at time zero.
//!
//! A request names its requester by `tx` alone: the answer goes to
//! `tx.node`, whichever node the request was forwarded through.

use crate::object::Payload;
use dstm_sim::SimDuration;
use rts_core::{Ets, ObjectId, TxId};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::program::AccessMode;

/// Outcome of a fetch, carried in [`Msg::ObjResp`].
#[derive(Clone, Debug)]
pub enum FetchResult {
    /// The object copy, its version, the owner-side local CL of the object
    /// (folded into the requester's `myCL`), and the current owner (to heal
    /// the requester's owner cache). The payload is shared (`Arc`): granting
    /// a copy is a pointer bump, not a deep clone (copy-on-write discipline —
    /// writers replace payloads, never mutate them in place).
    Granted {
        payload: Arc<Payload>,
        version: u64,
        local_cl: u32,
        owner: u32,
        /// The owner's TFA clock at grant time. Stored alongside the payload
        /// by caching requesters (`DstmConfig::cache`): a later open may
        /// reuse the copy without any message while the requester's own
        /// clock has not passed this value.
        owner_clock: u64,
    },
    /// The object is being validated and the scheduler decided against this
    /// requester. `enqueued == true` is the RTS path: stay live and wait up
    /// to `backoff` for the object; `enqueued == false` aborts now and
    /// retries after `backoff` (zero for plain TFA).
    Conflict {
        backoff: SimDuration,
        enqueued: bool,
        owner: u32,
        /// The transaction holding the object's lock when the conflict was
        /// adjudicated — the aggressor for abort attribution. `None` when
        /// the verdict was produced without a live lock holder (e.g. a
        /// child-scope early return before the owner resolved one).
        aggressor: Option<TxId>,
    },
}

/// Everything but a conflict's `backoff`, which is wall-clock-valued: the
/// model checker's fingerprints treat verdicts that differ only in how long
/// to wait as the same protocol event. The patterns name every field, so a
/// new one must be placed on one side or the other.
impl Hash for FetchResult {
    fn hash<H: Hasher>(&self, h: &mut H) {
        match self {
            FetchResult::Granted {
                payload,
                version,
                local_cl,
                owner,
                owner_clock,
            } => (0u8, payload, version, local_cl, owner, owner_clock).hash(h),
            FetchResult::Conflict {
                backoff: _,
                enqueued,
                owner,
                aggressor,
            } => (1u8, enqueued, owner, aggressor).hash(h),
        }
    }
}

/// A request for `oid` (Algorithm 2 sends "oid, txid, myCL, and ETS"):
/// what [`Msg::ObjReq`] carries and [`Msg::VersionReq`] spreads inline.
#[derive(Clone, Copy, Debug, Hash)]
pub struct FetchReq {
    pub oid: ObjectId,
    pub tx: TxId,
    pub attempt: u32,
    pub mode: AccessMode,
    pub ets: Ets,
    pub my_cl: u32,
    /// Whether the request was issued inside a closed-nested child. The
    /// scheduler only adjudicates parent-level requests (§III-A: RTS acts
    /// on "a losing parent transaction"); child-level conflicts are
    /// ordinary closed-nesting retries.
    pub nested: bool,
}

impl FetchReq {
    /// The message that sends this fetch: a plain [`Msg::ObjReq`], or, for
    /// a requester holding `cached_version`, a [`Msg::VersionReq`].
    pub(crate) fn into_msg(self, cached_version: Option<u64>) -> Msg {
        let Some(version) = cached_version else {
            return Msg::ObjReq(self);
        };
        Msg::VersionReq {
            oid: self.oid,
            tx: self.tx,
            attempt: self.attempt,
            mode: self.mode,
            ets: self.ets,
            my_cl: self.my_cl,
            nested: self.nested,
            version,
        }
    }

    /// The [`Msg::ObjResp`] answering this fetch with `result`.
    pub(crate) fn answer(&self, result: FetchResult) -> Msg {
        Msg::ObjResp {
            oid: self.oid,
            tx: self.tx,
            attempt: self.attempt,
            result,
        }
    }
}

/// Protocol messages between TM proxies.
///
/// The derived `Hash` is the model checker's time-abstract fingerprint of an
/// in-flight message: every field counts, logical clocks and versions
/// included, except the ETS and a conflict's backoff, which `Ets` and
/// `FetchResult` leave out.
#[derive(Clone, Debug, Hash)]
pub enum Msg {
    /// Request an object.
    ObjReq(FetchReq),
    /// Response to a fetch, or a queue-service push on release.
    ObjResp {
        oid: ObjectId,
        tx: TxId,
        attempt: u32,
        result: FetchResult,
    },
    /// The requester no longer wants a pushed object (it aborted/retried in
    /// the meantime); the owner should serve the next queued requester.
    ObjectDecline { oid: ObjectId, tx: TxId },

    /// Cache revalidation (`DstmConfig::cache`): an `ObjReq` that names the
    /// version the requester already holds. Forwarded along the ownership
    /// chain exactly like `ObjReq`; the owner answers with a payload-free
    /// [`Msg::VersionAck`] when the copy is still current and unlocked, and
    /// otherwise falls back to the full fetch path (so a stale cache never
    /// costs an extra round trip).
    VersionReq {
        oid: ObjectId,
        tx: TxId,
        attempt: u32,
        mode: AccessMode,
        ets: Ets,
        my_cl: u32,
        nested: bool,
        /// Version of the requester's cached copy.
        version: u64,
    },
    /// Positive answer to [`Msg::VersionReq`]: the cached copy is current.
    /// Carries everything a `Granted` does except the payload.
    VersionAck {
        oid: ObjectId,
        tx: TxId,
        attempt: u32,
        version: u64,
        local_cl: u32,
        owner: u32,
        owner_clock: u64,
    },

    /// Commit step 1: lock `oid` at its owner if `expect_version` is still
    /// current.
    LockReq {
        oid: ObjectId,
        tx: TxId,
        attempt: u32,
        expect_version: u64,
    },
    LockResp {
        oid: ObjectId,
        tx: TxId,
        attempt: u32,
        granted: bool,
    },
    /// Commit abandoned: release a previously granted lock.
    Unlock { oid: ObjectId, tx: TxId },
    /// Commit step 2: install the new version; ownership moves to
    /// `new_owner` (the committer). The old owner replies with the object's
    /// queued requesters so the queue follows the object.
    Publish {
        oid: ObjectId,
        tx: TxId,
        payload: Arc<Payload>,
        new_version: u64,
        new_owner: u32,
    },
    /// Ack of `Publish`, carrying the handed-off requester queue.
    PublishAck {
        oid: ObjectId,
        tx: TxId,
        queue: Vec<rts_core::Requester>,
    },

    /// Early/commit validation: is `expect_version` still the current
    /// version of `oid`? (A moved object means an intervening write commit,
    /// hence stale.)
    VersionCheck {
        oid: ObjectId,
        tx: TxId,
        attempt: u32,
        expect_version: u64,
    },
    VersionResp {
        oid: ObjectId,
        tx: TxId,
        attempt: u32,
        ok: bool,
    },

    /// Bootstrap: start issuing this node's transactions.
    StartWorkload,

    /// Transport-level coalescing (`DstmConfig::cache`): every message one
    /// node sends to one neighbor with the same departure tick and latency,
    /// folded into a single DES event. The receiver unpacks in order, so
    /// the protocol history is identical to k separate deliveries; only the
    /// event count (and the kernel's delivered-message tally) shrinks.
    Batch(Vec<Msg>),
}

/// Node-local timers.
#[derive(Clone, Debug, Hash)]
pub enum Timer {
    /// A `Compute(d)` step finished for this transaction.
    ComputeDone { tx: TxId, attempt: u32 },
    /// An RTS queue-wait deadline expired before the object arrived:
    /// abort and re-request (Algorithm 2 lines 9–15).
    QueueDeadline {
        tx: TxId,
        attempt: u32,
        oid: ObjectId,
    },
    /// A TFA+Backoff retry delay elapsed: restart the transaction.
    RetryBackoff { tx: TxId, attempt: u32 },
}

impl Msg {
    /// Short tag for traces.
    pub fn tag(&self) -> &'static str {
        match self {
            Msg::ObjReq { .. } => "ObjReq",
            Msg::ObjResp { .. } => "ObjResp",
            Msg::ObjectDecline { .. } => "ObjectDecline",
            Msg::LockReq { .. } => "LockReq",
            Msg::LockResp { .. } => "LockResp",
            Msg::Unlock { .. } => "Unlock",
            Msg::Publish { .. } => "Publish",
            Msg::PublishAck { .. } => "PublishAck",
            Msg::VersionCheck { .. } => "VersionCheck",
            Msg::VersionResp { .. } => "VersionResp",
            Msg::VersionReq { .. } => "VersionReq",
            Msg::VersionAck { .. } => "VersionAck",
            Msg::StartWorkload => "StartWorkload",
            Msg::Batch(_) => "Batch",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::small::Fnv64;

    /// Every simulated message is moved into the kernel's payload slab, out
    /// of it again and into its handler: a fatter `Msg` is memmove traffic
    /// on every event. Growing one of these is a decision, not a side
    /// effect — box the new field instead.
    #[test]
    fn event_payloads_stay_small() {
        assert!(std::mem::size_of::<Msg>() <= 72);
        assert!(std::mem::size_of::<crate::NodeEvent>() <= 80);
    }

    #[test]
    fn tags_cover_all_variants() {
        let m = Msg::ObjectDecline {
            oid: ObjectId(1),
            tx: TxId::new(0, 1),
        };
        assert_eq!(m.tag(), "ObjectDecline");
        assert_eq!(Msg::StartWorkload.tag(), "StartWorkload");
        assert_eq!(Msg::Batch(Vec::new()).tag(), "Batch");
    }

    fn fp(m: &Msg) -> u64 {
        let mut h = Fnv64::new();
        m.hash(&mut h);
        h.finish()
    }

    fn fp_timer(t: &Timer) -> u64 {
        let mut h = Fnv64::new();
        t.hash(&mut h);
        h.finish()
    }

    /// One `fn(&mut $t)` per edit; each edit runs on a value matching `$pat`.
    macro_rules! edits {
        ($t:ty, $pat:pat => $($edit:expr),+ $(,)?) => {
            vec![$((|v: &mut $t| {
                let $pat = v else { unreachable!() };
                let _ = $edit;
            }) as fn(&mut $t)),+]
        };
    }

    /// `base`'s fingerprint ignores every edit in `same` and moves under
    /// every edit in `differ`. Returns the fingerprint.
    fn pin<T: Clone + std::fmt::Debug>(
        fp: fn(&T) -> u64,
        base: T,
        same: Vec<fn(&mut T)>,
        differ: Vec<fn(&mut T)>,
    ) -> u64 {
        let want = fp(&base);
        for (i, edit) in same.iter().enumerate() {
            let mut v = base.clone();
            edit(&mut v);
            assert_eq!(fp(&v), want, "time-valued edit {i} moved {base:?}");
        }
        for (i, edit) in differ.iter().enumerate() {
            let mut v = base.clone();
            edit(&mut v);
            assert_ne!(fp(&v), want, "edit {i} did not move {base:?}");
        }
        want
    }

    /// The checker's time abstraction, field by field: a fingerprint leaves
    /// out exactly the ETS, a conflict's backoff and a queued requester's
    /// enqueue time, and covers every other field of every message and
    /// timer.
    #[test]
    #[allow(unused_variables)]
    fn the_fingerprint_leaves_out_exactly_the_time_valued_fields() {
        use dstm_sim::SimTime;
        use rts_core::Requester;

        let req = FetchReq {
            oid: ObjectId(1),
            tx: TxId::new(1, 2),
            attempt: 3,
            mode: AccessMode::Write,
            ets: Ets::new(SimTime(4), SimTime(5), SimTime(6)),
            my_cl: 7,
            nested: true,
        };
        let granted = FetchResult::Granted {
            payload: Arc::new(Payload::Scalar(8)),
            version: 9,
            local_cl: 10,
            owner: 11,
            owner_clock: 12,
        };
        let conflict = FetchResult::Conflict {
            backoff: SimDuration(13),
            enqueued: true,
            owner: 14,
            aggressor: Some(TxId::new(2, 15)),
        };
        let queued = |attempt| Requester {
            node: 2,
            tx: TxId::new(2, 16),
            read_only: false,
            attempt,
            enqueued_at: SimTime(17),
        };
        let (oid, tx) = (ObjectId(1), TxId::new(1, 2));
        let resp_header = edits!(Msg, Msg::ObjResp { oid, tx, attempt, .. } =>
            oid.0 += 1, tx.node += 1, tx.seq += 1, *attempt += 1);

        let mut msgs = vec![
            pin(
                fp,
                Msg::ObjReq(req),
                edits!(Msg, Msg::ObjReq(r) =>
                    r.ets.start.0 += 1, r.ets.request.0 += 1, r.ets.expected_commit.0 += 1),
                edits!(Msg, Msg::ObjReq(r) =>
                    r.oid.0 += 1, r.tx.node += 1, r.tx.seq += 1, r.attempt += 1,
                    r.mode = AccessMode::Read, r.my_cl += 1, r.nested ^= true),
            ),
            pin(
                fp,
                req.answer(granted),
                vec![],
                [
                    resp_header.clone(),
                    edits!(Msg, Msg::ObjResp { result: FetchResult::Granted {
                        payload, version, local_cl, owner, owner_clock }, .. } =>
                        *payload = Arc::new(Payload::Scalar(0)), *version += 1, *local_cl += 1,
                        *owner += 1, *owner_clock += 1),
                    edits!(Msg, Msg::ObjResp { result, .. } =>
                    *result = FetchResult::Conflict {
                        backoff: SimDuration(13),
                        enqueued: true,
                        owner: 14,
                        aggressor: Some(TxId::new(2, 15)),
                    }),
                ]
                .concat(),
            ),
            pin(
                fp,
                req.answer(conflict),
                edits!(Msg, Msg::ObjResp { result: FetchResult::Conflict { backoff, .. }, .. } =>
                    backoff.0 += 1),
                [
                    resp_header,
                    edits!(Msg, Msg::ObjResp { result: FetchResult::Conflict {
                        backoff, enqueued, owner, aggressor }, .. } =>
                        *enqueued ^= true, *owner += 1, *aggressor = None,
                        *aggressor = Some(TxId::new(3, 15)), *aggressor = Some(TxId::new(2, 0))),
                ]
                .concat(),
            ),
            pin(
                fp,
                Msg::ObjectDecline { oid, tx },
                vec![],
                edits!(Msg, Msg::ObjectDecline { oid, tx } =>
                    oid.0 += 1, tx.node += 1, tx.seq += 1),
            ),
            pin(
                fp,
                req.into_msg(Some(18)),
                edits!(Msg, Msg::VersionReq { ets, .. } =>
                    ets.start.0 += 1, ets.request.0 += 1, ets.expected_commit.0 += 1),
                edits!(Msg, Msg::VersionReq { oid, tx, attempt, mode, ets, my_cl, nested, version } =>
                    oid.0 += 1, tx.node += 1, tx.seq += 1, *attempt += 1,
                    *mode = AccessMode::Read, *my_cl += 1, *nested ^= true, *version += 1),
            ),
            pin(
                fp,
                Msg::VersionAck {
                    oid,
                    tx,
                    attempt: 3,
                    version: 9,
                    local_cl: 10,
                    owner: 11,
                    owner_clock: 12,
                },
                vec![],
                edits!(Msg, Msg::VersionAck { oid, tx, attempt, version, local_cl, owner, owner_clock } =>
                    oid.0 += 1, tx.node += 1, tx.seq += 1, *attempt += 1, *version += 1,
                    *local_cl += 1, *owner += 1, *owner_clock += 1),
            ),
            pin(
                fp,
                Msg::LockReq {
                    oid,
                    tx,
                    attempt: 3,
                    expect_version: 9,
                },
                vec![],
                edits!(Msg, Msg::LockReq { oid, tx, attempt, expect_version } =>
                    oid.0 += 1, tx.node += 1, tx.seq += 1, *attempt += 1, *expect_version += 1),
            ),
            pin(
                fp,
                Msg::LockResp {
                    oid,
                    tx,
                    attempt: 3,
                    granted: true,
                },
                vec![],
                edits!(Msg, Msg::LockResp { oid, tx, attempt, granted } =>
                    oid.0 += 1, tx.node += 1, tx.seq += 1, *attempt += 1, *granted ^= true),
            ),
            pin(
                fp,
                Msg::Unlock { oid, tx },
                vec![],
                edits!(Msg, Msg::Unlock { oid, tx } => oid.0 += 1, tx.node += 1, tx.seq += 1),
            ),
            pin(
                fp,
                Msg::Publish {
                    oid,
                    tx,
                    payload: Arc::new(Payload::Scalar(8)),
                    new_version: 9,
                    new_owner: 11,
                },
                vec![],
                edits!(Msg, Msg::Publish { oid, tx, payload, new_version, new_owner } =>
                    oid.0 += 1, tx.node += 1, tx.seq += 1, *payload = Arc::new(Payload::Scalar(0)),
                    *new_version += 1, *new_owner += 1),
            ),
            pin(
                fp,
                Msg::PublishAck {
                    oid,
                    tx,
                    queue: vec![queued(1), queued(2)],
                },
                edits!(Msg, Msg::PublishAck { queue, .. } =>
                    queue[0].enqueued_at.0 += 1, queue[1].enqueued_at.0 += 1),
                edits!(Msg, Msg::PublishAck { oid, tx, queue } =>
                    oid.0 += 1, tx.node += 1, tx.seq += 1, queue[0].node += 1,
                    queue[0].tx.node += 1, queue[0].tx.seq += 1, queue[0].read_only ^= true,
                    queue[0].attempt += 1, queue.pop(), queue.swap(0, 1)),
            ),
            pin(
                fp,
                Msg::VersionCheck {
                    oid,
                    tx,
                    attempt: 3,
                    expect_version: 9,
                },
                vec![],
                edits!(Msg, Msg::VersionCheck { oid, tx, attempt, expect_version } =>
                    oid.0 += 1, tx.node += 1, tx.seq += 1, *attempt += 1, *expect_version += 1),
            ),
            pin(
                fp,
                Msg::VersionResp {
                    oid,
                    tx,
                    attempt: 3,
                    ok: true,
                },
                vec![],
                edits!(Msg, Msg::VersionResp { oid, tx, attempt, ok } =>
                    oid.0 += 1, tx.node += 1, tx.seq += 1, *attempt += 1, *ok ^= true),
            ),
            fp(&Msg::StartWorkload),
            pin(
                fp,
                Msg::Batch(vec![Msg::ObjReq(req), Msg::StartWorkload]),
                edits!(Msg, Msg::Batch(ms) => if let Msg::ObjReq(r) = &mut ms[0] {
                    r.ets.start.0 += 1
                }),
                edits!(Msg, Msg::Batch(ms) =>
                ms.pop(), ms.swap(0, 1), if let Msg::ObjReq(r) = &mut ms[0] {
                    r.my_cl += 1
                }),
            ),
        ];
        let mut timers = vec![
            pin(
                fp_timer,
                Timer::ComputeDone { tx, attempt: 3 },
                vec![],
                edits!(Timer, Timer::ComputeDone { tx, attempt } =>
                    tx.node += 1, tx.seq += 1, *attempt += 1),
            ),
            pin(
                fp_timer,
                Timer::QueueDeadline {
                    tx,
                    attempt: 3,
                    oid,
                },
                vec![],
                edits!(Timer, Timer::QueueDeadline { tx, attempt, oid } =>
                    tx.node += 1, tx.seq += 1, *attempt += 1, oid.0 += 1),
            ),
            pin(
                fp_timer,
                Timer::RetryBackoff { tx, attempt: 3 },
                vec![],
                edits!(Timer, Timer::RetryBackoff { tx, attempt } =>
                    tx.node += 1, tx.seq += 1, *attempt += 1),
            ),
        ];
        // Variants with the same fields still fingerprint apart.
        for fps in [&mut msgs, &mut timers] {
            let n = fps.len();
            fps.sort_unstable();
            fps.dedup();
            assert_eq!(fps.len(), n, "two variants share a fingerprint");
        }
    }
}
