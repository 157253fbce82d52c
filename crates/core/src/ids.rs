//! Identifiers shared across the D-STM stack.

use std::fmt;

/// A distributed transaction identifier: the invoking node plus a node-local
/// sequence number. Unique system-wide, totally ordered (node, seq), and
/// stable across retries of the *same* logical transaction — a retry keeps
/// its `TxId` but bumps [`TxId::attempt`]-tracking in the executor, matching
/// the paper's duplicate elimination ("the duplicated transaction will be
/// removed from a queue").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId {
    /// Index of the invoking node.
    pub node: u32,
    /// Node-local sequence number.
    pub seq: u64,
}

impl TxId {
    pub const fn new(node: u32, seq: u64) -> Self {
        TxId { node, seq }
    }
}

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}", self.node, self.seq)
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}", self.node, self.seq)
    }
}

/// A shared-object identifier. Objects are distributed over nodes; the
/// *home* node (directory) of an object is derived from its id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// The node at which this object's directory entry lives, for an
    /// `n`-node system. Static hash-based homing.
    #[inline]
    pub fn home(self, n: usize) -> u32 {
        // Fibonacci hashing spreads consecutive ids across nodes.
        ((self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % n as u64) as u32
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// The *kind* of a transaction: which benchmark operation it performs.
/// The stats table keys expected execution times by kind (transactions of
/// the same kind have similar profiles).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxKind(pub u16);

impl fmt::Debug for TxKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kind#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txid_ordering_and_display() {
        let a = TxId::new(1, 5);
        let b = TxId::new(1, 6);
        let c = TxId::new(2, 0);
        assert!(a < b && b < c);
        assert_eq!(a.to_string(), "T1.5");
    }

    #[test]
    fn home_is_stable_and_in_range() {
        for n in [1usize, 2, 10, 80] {
            for oid in 0..1000u64 {
                let h = ObjectId(oid).home(n);
                assert!((h as usize) < n);
                assert_eq!(h, ObjectId(oid).home(n));
            }
        }
    }

    #[test]
    fn home_spreads_load() {
        let n = 16usize;
        let mut counts = vec![0u32; n];
        for oid in 0..16_000u64 {
            counts[ObjectId(oid).home(n) as usize] += 1;
        }
        for &c in &counts {
            assert!((600..1500).contains(&c), "node load {c} badly skewed");
        }
    }
}
