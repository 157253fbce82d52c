//! A small vec-backed set of [`ObjectId`]s, and the fingerprint hasher.
//!
//! The object sets of one protocol round — what a validation, lock or
//! publish round still waits for — are a handful of ids, so a `HashSet`
//! would pay hashing and heap-bucket overhead on every access for no
//! benefit. [`ObjSet`] stores them in a plain `Vec` with linear search, and
//! iteration order becomes deterministic insertion order (one less source of
//! accidental nondeterminism; note that no protocol message order may depend
//! on it — summaries are sorted by object id before use, see
//! `TxRuntime::object_summary_into`).
//!
//! A transaction's object copies are not kept here: they are one log in
//! `crate::tx`, whose module doc records how long it gets per benchmark.

use rts_core::ObjectId;

/// Insertion-ordered set of [`ObjectId`]s, vec-backed.
#[derive(Clone, Debug, Default)]
pub struct ObjSet {
    entries: Vec<ObjectId>,
}

impl ObjSet {
    pub fn new() -> Self {
        ObjSet {
            entries: Vec::new(),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    pub fn contains(&self, oid: &ObjectId) -> bool {
        self.entries.contains(oid)
    }

    /// Insert; returns `true` if newly added.
    pub fn insert(&mut self, oid: ObjectId) -> bool {
        if self.entries.contains(&oid) {
            return false;
        }
        self.entries.push(oid);
        true
    }

    /// Remove; returns `true` if it was present. Order-preserving is not
    /// required of a set, so this uses `swap_remove`.
    pub fn remove(&mut self, oid: &ObjectId) -> bool {
        match self.entries.iter().position(|k| k == oid) {
            Some(i) => {
                self.entries.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Empty the set, keeping its allocation for the next round.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    pub fn iter(&self) -> impl Iterator<Item = &ObjectId> {
        self.entries.iter()
    }
}

/// Tiny FNV-1a accumulator for structural fingerprints.
///
/// The verification harness hashes protocol state (transaction runtimes,
/// object tables, in-flight messages) into a single `u64` so the model
/// checker can deduplicate explored states. FNV-1a is enough: fingerprints
/// only prune the search — any reported violation is re-validated by replay,
/// so a collision can at worst hide a duplicate, never invent a failure.
#[derive(Clone, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
    }

    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_is_order_sensitive_and_stable() {
        let mut a = Fnv64::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv64::new();
        c.write_u64(1);
        c.write_u64(2);
        assert_eq!(a.finish(), c.finish());
        // Empty hasher yields the offset basis.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn set_insert_remove() {
        let mut s = ObjSet::new();
        assert!(s.insert(ObjectId(1)));
        assert!(!s.insert(ObjectId(1)), "duplicate insert rejected");
        assert!(s.insert(ObjectId(2)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(&ObjectId(1)));
        assert!(!s.remove(&ObjectId(1)));
        assert!(!s.is_empty());
        assert!(s.remove(&ObjectId(2)));
        assert!(s.is_empty());
    }
}
