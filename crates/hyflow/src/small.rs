//! Small inline vec-backed collections keyed by [`ObjectId`].
//!
//! Per-transaction read/write sets are tiny — a handful of objects for every
//! benchmark in §IV — so `HashMap`/`HashSet` pay hashing and heap-bucket
//! overhead on every access for no benefit. [`ObjMap`] and [`ObjSet`] store
//! entries in a plain `Vec` with linear search: O(n) in theory, but with
//! n ≤ ~10 a linear scan over a contiguous line of `u64` keys beats SipHash
//! by a wide margin, and iteration order becomes deterministic insertion
//! order (one less source of accidental nondeterminism; note that no
//! protocol message order may depend on map iteration order — summaries are
//! sorted by object id before use, see `TxRuntime::object_summary_into`).

use rts_core::ObjectId;

/// Insertion-ordered map from [`ObjectId`] to `V`, vec-backed.
#[derive(Clone, Debug, Default)]
pub struct ObjMap<V> {
    entries: Vec<(ObjectId, V)>,
}

impl<V> ObjMap<V> {
    pub fn new() -> Self {
        ObjMap {
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
    pub fn contains_key(&self, oid: &ObjectId) -> bool {
        self.entries.iter().any(|(k, _)| k == oid)
    }

    #[inline]
    pub fn get(&self, oid: &ObjectId) -> Option<&V> {
        self.entries.iter().find(|(k, _)| k == oid).map(|(_, v)| v)
    }

    #[inline]
    pub fn get_mut(&mut self, oid: &ObjectId) -> Option<&mut V> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == oid)
            .map(|(_, v)| v)
    }

    /// Insert or replace; returns the previous value if any.
    pub fn insert(&mut self, oid: ObjectId, value: V) -> Option<V> {
        match self.entries.iter_mut().find(|(k, _)| *k == oid) {
            Some((_, v)) => Some(std::mem::replace(v, value)),
            None => {
                self.entries.push((oid, value));
                None
            }
        }
    }

    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Drain all entries in insertion order, keeping the allocation (unlike
    /// `into_iter`, which consumes the map) — lets spent nesting levels be
    /// recycled with their capacity.
    pub fn drain(&mut self) -> impl Iterator<Item = (ObjectId, V)> + '_ {
        self.entries.drain(..)
    }

    /// Iterate in insertion order.
    pub fn iter(&self) -> ObjMapIter<'_, V> {
        ObjMapIter(self.entries.iter())
    }
}

/// Borrowing iterator over an [`ObjMap`], in insertion order.
pub struct ObjMapIter<'m, V>(std::slice::Iter<'m, (ObjectId, V)>);

impl<'m, V> Iterator for ObjMapIter<'m, V> {
    type Item = (&'m ObjectId, &'m V);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k, v))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<V> IntoIterator for ObjMap<V> {
    type Item = (ObjectId, V);
    type IntoIter = std::vec::IntoIter<(ObjectId, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'m, V> IntoIterator for &'m ObjMap<V> {
    type Item = (&'m ObjectId, &'m V);
    type IntoIter = ObjMapIter<'m, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<V> std::ops::Index<&ObjectId> for ObjMap<V> {
    type Output = V;

    fn index(&self, oid: &ObjectId) -> &V {
        self.get(oid).expect("no entry for object id")
    }
}

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

    /// A set that holds `n` ids without growing (protocol rounds know their
    /// size up front: one entry per object checked, locked or published).
    pub fn with_capacity(n: usize) -> Self {
        ObjSet {
            entries: Vec::with_capacity(n),
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
    fn map_insert_get_replace() {
        let mut m: ObjMap<i64> = ObjMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(ObjectId(1), 10), None);
        assert_eq!(m.insert(ObjectId(2), 20), None);
        assert_eq!(m.insert(ObjectId(1), 11), Some(10));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&ObjectId(1)), Some(&11));
        assert_eq!(m[&ObjectId(2)], 20);
        assert!(m.contains_key(&ObjectId(2)));
        assert!(!m.contains_key(&ObjectId(3)));
        *m.get_mut(&ObjectId(2)).unwrap() = 21;
        assert_eq!(m[&ObjectId(2)], 21);
    }

    #[test]
    fn map_iterates_in_insertion_order() {
        let mut m: ObjMap<i64> = ObjMap::new();
        for i in [5u64, 1, 9, 3] {
            m.insert(ObjectId(i), i as i64);
        }
        let keys: Vec<u64> = m.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![5, 1, 9, 3]);
        let owned: Vec<u64> = m.into_iter().map(|(k, _)| k.0).collect();
        assert_eq!(owned, vec![5, 1, 9, 3]);
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
