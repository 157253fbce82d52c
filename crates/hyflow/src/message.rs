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
use crate::small::Fnv64;
use dstm_sim::SimDuration;
use rts_core::{Ets, ObjectId, TxId};
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

/// A request for `oid` (Algorithm 2 sends "oid, txid, myCL, and ETS"):
/// what [`Msg::ObjReq`] carries and [`Msg::VersionReq`] spreads inline.
#[derive(Clone, Copy, Debug)]
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

    /// The [`Msg::hash_into`] part of a fetch: everything but the ETS.
    fn hash_into(&self, h: &mut Fnv64) {
        h.write_u64(self.oid.0);
        tx_into(h, &self.tx, self.attempt);
        h.write_u8(matches!(self.mode, AccessMode::Write) as u8);
        h.write_u64(u64::from(self.my_cl));
        h.write_u8(u8::from(self.nested));
    }
}

fn tx_into(h: &mut Fnv64, tx: &TxId, attempt: u32) {
    h.write_u64(u64::from(tx.node));
    h.write_u64(tx.seq);
    h.write_u64(u64::from(attempt));
}

/// Protocol messages between TM proxies.
#[derive(Clone, Debug)]
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
#[derive(Clone, Debug)]
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

    /// Fold this message into a **time-abstract** structural fingerprint.
    ///
    /// Used by the model checker to deduplicate protocol states: two
    /// in-flight messages that differ only in wall-clock-valued fields
    /// ([`Ets`] deadlines, backoff durations) are the same protocol event
    /// under a different schedule, so those fields are deliberately
    /// excluded. Logical TFA clocks (`my_cl`, `local_cl`, `owner_clock`)
    /// and versions *are* protocol state and are included.
    pub fn hash_into(&self, h: &mut Fnv64) {
        h.write_bytes(self.tag().as_bytes());
        match self {
            Msg::ObjReq(req) => req.hash_into(h),
            Msg::ObjResp {
                oid,
                tx,
                attempt,
                result,
            } => {
                h.write_u64(oid.0);
                tx_into(h, tx, *attempt);
                match result {
                    FetchResult::Granted {
                        payload,
                        version,
                        local_cl,
                        owner,
                        owner_clock,
                    } => {
                        h.write_u8(1);
                        payload.hash_into(h);
                        h.write_u64(*version);
                        h.write_u64(u64::from(*local_cl));
                        h.write_u64(u64::from(*owner));
                        h.write_u64(*owner_clock);
                    }
                    FetchResult::Conflict {
                        backoff: _,
                        enqueued,
                        owner,
                        aggressor,
                    } => {
                        h.write_u8(2);
                        h.write_u8(u8::from(*enqueued));
                        h.write_u64(u64::from(*owner));
                        match aggressor {
                            Some(a) => tx_into(h, a, 0),
                            None => h.write_u8(0),
                        }
                    }
                }
            }
            Msg::ObjectDecline { oid, tx } => {
                h.write_u64(oid.0);
                tx_into(h, tx, 0);
            }
            Msg::VersionReq {
                oid,
                tx,
                attempt,
                mode,
                ets: _,
                my_cl,
                nested,
                version,
            } => {
                h.write_u64(oid.0);
                tx_into(h, tx, *attempt);
                h.write_u8(matches!(mode, AccessMode::Write) as u8);
                h.write_u64(u64::from(*my_cl));
                h.write_u8(u8::from(*nested));
                h.write_u64(*version);
            }
            Msg::VersionAck {
                oid,
                tx,
                attempt,
                version,
                local_cl,
                owner,
                owner_clock,
            } => {
                h.write_u64(oid.0);
                tx_into(h, tx, *attempt);
                h.write_u64(*version);
                h.write_u64(u64::from(*local_cl));
                h.write_u64(u64::from(*owner));
                h.write_u64(*owner_clock);
            }
            Msg::LockReq {
                oid,
                tx,
                attempt,
                expect_version,
            } => {
                h.write_u64(oid.0);
                tx_into(h, tx, *attempt);
                h.write_u64(*expect_version);
            }
            Msg::LockResp {
                oid,
                tx,
                attempt,
                granted,
            } => {
                h.write_u64(oid.0);
                tx_into(h, tx, *attempt);
                h.write_u8(u8::from(*granted));
            }
            Msg::Unlock { oid, tx } => {
                h.write_u64(oid.0);
                tx_into(h, tx, 0);
            }
            Msg::Publish {
                oid,
                tx,
                payload,
                new_version,
                new_owner,
            } => {
                h.write_u64(oid.0);
                tx_into(h, tx, 0);
                payload.hash_into(h);
                h.write_u64(*new_version);
                h.write_u64(u64::from(*new_owner));
            }
            Msg::PublishAck { oid, tx, queue } => {
                h.write_u64(oid.0);
                tx_into(h, tx, 0);
                h.write_u64(queue.len() as u64);
                for r in queue {
                    h.write_u64(u64::from(r.node));
                    tx_into(h, &r.tx, r.attempt);
                    h.write_u8(u8::from(r.read_only));
                }
            }
            Msg::VersionCheck {
                oid,
                tx,
                attempt,
                expect_version,
            } => {
                h.write_u64(oid.0);
                tx_into(h, tx, *attempt);
                h.write_u64(*expect_version);
            }
            Msg::VersionResp {
                oid,
                tx,
                attempt,
                ok,
            } => {
                h.write_u64(oid.0);
                tx_into(h, tx, *attempt);
                h.write_u8(u8::from(*ok));
            }
            Msg::StartWorkload => {}
            Msg::Batch(msgs) => {
                h.write_u64(msgs.len() as u64);
                for m in msgs {
                    m.hash_into(h);
                }
            }
        }
    }
}

impl Timer {
    /// Time-abstract fingerprint companion to [`Msg::hash_into`].
    pub fn hash_into(&self, h: &mut Fnv64) {
        let (tag, tx, attempt, oid) = match self {
            Timer::ComputeDone { tx, attempt } => (1u8, tx, *attempt, None),
            Timer::QueueDeadline { tx, attempt, oid } => (2, tx, *attempt, Some(*oid)),
            Timer::RetryBackoff { tx, attempt } => (3, tx, *attempt, None),
        };
        h.write_u8(tag);
        h.write_u64(u64::from(tx.node));
        h.write_u64(tx.seq);
        h.write_u64(u64::from(attempt));
        if let Some(oid) = oid {
            h.write_u64(oid.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
