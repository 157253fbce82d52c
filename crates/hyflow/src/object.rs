//! Versioned shared objects.
//!
//! An object's **version** is the TFA clock value of the transaction that
//! last committed a write to it; versions are strictly increasing per
//! object, which is what early validation checks. The **owner** of an
//! object is the single node holding its writable copy (dataflow model);
//! reads are served as copies, and ownership moves to the committing
//! writer.

use rts_core::{ObjectId, TxId};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The application-visible contents of an object. The benchmarks of §IV
/// need scalars (Bank accounts, Vacation inventories), pointer-shaped nodes
/// (Linked-List, BST, RB-Tree), and key–value buckets (DHT).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// A plain integer cell.
    Scalar(i64),
    /// A mutable reference cell (list head / tree root).
    Ptr(Option<ObjectId>),
    /// Singly linked list node.
    ListNode { value: i64, next: Option<ObjectId> },
    /// Binary tree node; `red` is used by the RB-Tree benchmark and ignored
    /// by the plain BST.
    TreeNode {
        value: i64,
        left: Option<ObjectId>,
        right: Option<ObjectId>,
        red: bool,
    },
    /// DHT bucket of key → value pairs.
    Bucket(Vec<(u64, i64)>),
}

impl Payload {
    /// Convenience accessor for `Scalar`.
    pub fn as_scalar(&self) -> i64 {
        match self {
            Payload::Scalar(v) => *v,
            other => panic!("expected Scalar payload, found {other:?}"),
        }
    }

    /// Convenience accessor for `Ptr`.
    pub fn as_ptr(&self) -> Option<ObjectId> {
        match self {
            Payload::Ptr(p) => *p,
            other => panic!("expected Ptr payload, found {other:?}"),
        }
    }

    /// Fold the payload's full contents into a structural fingerprint
    /// (see [`crate::small::Fnv64`]); also its [`Hash`] impl. Written out
    /// by hand so that the bytes, which benchmark behaviour digests pin, do
    /// not depend on how `derive(Hash)` lays out an enum.
    pub fn hash_into<H: Hasher>(&self, h: &mut H) {
        fn opt_oid<H: Hasher>(h: &mut H, o: &Option<ObjectId>) {
            match o {
                Some(oid) => {
                    h.write_u8(1);
                    h.write_u64(oid.0);
                }
                None => h.write_u8(0),
            }
        }
        match self {
            Payload::Scalar(v) => {
                h.write_u8(1);
                h.write_u64(*v as u64);
            }
            Payload::Ptr(p) => {
                h.write_u8(2);
                opt_oid(h, p);
            }
            Payload::ListNode { value, next } => {
                h.write_u8(3);
                h.write_u64(*value as u64);
                opt_oid(h, next);
            }
            Payload::TreeNode {
                value,
                left,
                right,
                red,
            } => {
                h.write_u8(4);
                h.write_u64(*value as u64);
                opt_oid(h, left);
                opt_oid(h, right);
                h.write_u8(u8::from(*red));
            }
            Payload::Bucket(kvs) => {
                h.write_u8(5);
                h.write_u64(kvs.len() as u64);
                for (k, v) in kvs {
                    h.write_u64(*k);
                    h.write_u64(*v as u64);
                }
            }
        }
    }
}

impl Hash for Payload {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.hash_into(h);
    }
}

/// A read copy retained after a grant (`DstmConfig::cache`). Reuse is a
/// freshness heuristic, never a correctness mechanism: a cached copy that
/// turns out stale is caught by the same commit-time validation (lock
/// `expect_version` for writes, `VersionCheck` for clean reads) that guards
/// every ordinary fetch.
#[derive(Clone, Debug, Hash)]
pub struct CachedCopy {
    pub payload: Arc<Payload>,
    /// Version of the copy at grant time.
    pub version: u64,
    /// The owner's TFA clock when the copy was granted: while the caching
    /// node's own clock has not passed this value, no commit the node has
    /// observed can have overwritten the copy.
    pub owner_clock: u64,
    /// Owner-side local CL at grant time (folded into `myCL` on reuse).
    pub local_cl: u32,
    /// Who granted the copy.
    pub owner: u32,
}

/// An object as held by its owner node.
///
/// The payload is behind an [`Arc`]: serving a read copy, migrating
/// ownership, and installing fetched copies are all pointer bumps
/// (copy-on-write — a writer builds a *new* payload and swaps the pointer,
/// it never mutates through the `Arc`).
#[derive(Clone, Debug, Hash)]
pub struct OwnedObject {
    pub payload: Arc<Payload>,
    /// TFA commit clock of the last writer.
    pub version: u64,
    /// `Some(tx)` while a committing transaction holds the validation lock —
    /// the paper's "object is being validated" state that triggers the
    /// scheduler.
    pub lock: Option<TxId>,
}

impl OwnedObject {
    pub fn new(payload: Payload) -> Self {
        Self::new_shared(Arc::new(payload))
    }

    /// Install an already-shared payload (the zero-copy migration path).
    pub fn new_shared(payload: Arc<Payload>) -> Self {
        OwnedObject {
            payload,
            version: 0,
            lock: None,
        }
    }

    #[inline]
    pub fn is_locked(&self) -> bool {
        self.lock.is_some()
    }

    /// Try to take the validation lock for `tx`. Re-entrant for the same
    /// transaction (a committer may lock several of its objects at one
    /// owner).
    pub fn try_lock(&mut self, tx: TxId) -> bool {
        match self.lock {
            None => {
                self.lock = Some(tx);
                true
            }
            Some(holder) => holder == tx,
        }
    }

    /// Release the lock if held by `tx`; returns whether it was released.
    pub fn unlock(&mut self, tx: TxId) -> bool {
        if self.lock == Some(tx) {
            self.lock = None;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_protocol() {
        let mut o = OwnedObject::new(Payload::Scalar(5));
        let t1 = TxId::new(0, 1);
        let t2 = TxId::new(1, 1);
        assert!(!o.is_locked());
        assert!(o.try_lock(t1));
        assert!(o.try_lock(t1), "re-entrant for the same tx");
        assert!(!o.try_lock(t2), "second tx must not steal the lock");
        assert!(!o.unlock(t2), "non-holder cannot unlock");
        assert!(o.unlock(t1));
        assert!(!o.is_locked());
        assert!(o.try_lock(t2));
    }

    #[test]
    fn payload_accessors() {
        assert_eq!(Payload::Scalar(7).as_scalar(), 7);
        assert_eq!(Payload::Ptr(Some(ObjectId(3))).as_ptr(), Some(ObjectId(3)));
        assert_eq!(Payload::Ptr(None).as_ptr(), None);
    }

    #[test]
    #[should_panic(expected = "expected Scalar")]
    fn wrong_accessor_panics() {
        Payload::Ptr(None).as_scalar();
    }
}
