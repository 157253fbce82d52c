//! Event ordering primitives.
//!
//! Determinism requires a *total* order on events. Virtual time alone is not
//! total (many events share a timestamp — e.g. zero-delay local sends), so
//! ties break by `(issuing actor, per-actor issue sequence)`, packed into a
//! single `u64`. Crucially this tiebreak is **interleaving-independent**:
//! each actor stamps its own events from its own counter, so the key an
//! event gets does not depend on how actors' handler invocations were
//! interleaved globally. Under a global issue-sequence counter, a queue that
//! swaps two simultaneous deliveries (the verifier's `PerturbQueue` and
//! `ChoiceQueue` do) would renumber every event issued after them; here the
//! keys of everything the swap did not cause stay what they were.
//!
//! Among simultaneous events the order is: lower actor id first, then FIFO
//! per actor — deterministic and stable.

use crate::time::SimTime;

/// Bits of the packed tiebreak reserved for the per-actor sequence.
const LOCAL_SEQ_BITS: u32 = 40;

/// Actors one world can hold: the issuer field of the tiebreak is 24 bits.
/// Checked once where a kernel is built, so [`EventKey::compose`] never
/// sees an id that would spill into the timestamp's ordering.
pub const MAX_ACTORS: usize = 1 << (64 - LOCAL_SEQ_BITS);

/// Largest per-actor issue sequence the tiebreak can carry (40 bits; also
/// the mask of that field). Checked on every increment by the kernel's
/// `schedule`.
pub const MAX_LOCAL_SEQ: u64 = (1 << LOCAL_SEQ_BITS) - 1;

/// The key by which scheduled events are ordered: `(time, issuer, seq)`,
/// with `(issuer, seq)` packed into the `seq` word (issuer in the high 24
/// bits, per-actor sequence in the low 40). Lexicographic order on
/// `(time, seq)` is therefore order on `(time, issuer, per-actor seq)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct EventKey {
    pub time: SimTime,
    pub seq: u64,
}

impl EventKey {
    #[inline]
    pub fn new(time: SimTime, seq: u64) -> Self {
        EventKey { time, seq }
    }

    /// Pack `(issuer, per-actor seq)` into the tiebreak word. Supports up to
    /// 2^24 actors ([`MAX_ACTORS`]) and 2^40 events issued per actor per run
    /// ([`MAX_LOCAL_SEQ`]) — far beyond any simulation this kernel drives.
    /// The kernel enforces both in release builds before it calls this (the
    /// actor count where a core is built, the sequence where it is
    /// incremented): the pending-event heap compares the packed word, so a
    /// field spilling into its neighbour would silently reorder events.
    #[inline]
    pub fn compose(time: SimTime, issuer: u32, local_seq: u64) -> Self {
        debug_assert!(
            (issuer as usize) < MAX_ACTORS,
            "actor id {issuer} exceeds 24 bits"
        );
        debug_assert!(
            local_seq <= MAX_LOCAL_SEQ,
            "per-actor sequence overflowed 40 bits"
        );
        EventKey {
            time,
            seq: ((issuer as u64) << LOCAL_SEQ_BITS) | (local_seq & MAX_LOCAL_SEQ),
        }
    }

    /// The actor that issued (scheduled) this event.
    #[inline]
    pub fn issuer(self) -> u32 {
        (self.seq >> LOCAL_SEQ_BITS) as u32
    }

    /// The issuer's private sequence number for this event.
    #[inline]
    pub fn local_seq(self) -> u64 {
        self.seq & MAX_LOCAL_SEQ
    }
}

/// A payload tagged with its ordering key.
#[derive(Clone, Debug)]
pub struct Sequenced<E> {
    pub key: EventKey,
    pub payload: E,
}

impl<E> Sequenced<E> {
    #[inline]
    pub fn new(time: SimTime, seq: u64, payload: E) -> Self {
        Sequenced {
            key: EventKey::new(time, seq),
            payload,
        }
    }
}

impl<E> PartialEq for Sequenced<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Sequenced<E> {}

impl<E> PartialOrd for Sequenced<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Sequenced<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_orders_by_time_then_seq() {
        let a = EventKey::new(SimTime(5), 0);
        let b = EventKey::new(SimTime(5), 1);
        let c = EventKey::new(SimTime(6), 0);
        assert!(a < b && b < c && a < c);
    }

    #[test]
    fn compose_orders_by_time_then_issuer_then_local_seq() {
        let k = |t, a, s| EventKey::compose(SimTime(t), a, s);
        // time dominates, even against a much larger issuer/seq.
        assert!(k(1, 999, 999) < k(2, 0, 0));
        // at equal time, the lower actor id wins, regardless of seq.
        assert!(k(5, 1, 1_000_000) < k(5, 2, 0));
        // at equal time and actor, FIFO per actor.
        assert!(k(5, 3, 7) < k(5, 3, 8));
    }

    #[test]
    fn compose_roundtrips_issuer_and_local_seq() {
        let k = EventKey::compose(SimTime(9), 0xABCDEF, (1 << 40) - 1);
        assert_eq!(k.issuer(), 0xABCDEF);
        assert_eq!(k.local_seq(), (1 << 40) - 1);
        let k = EventKey::compose(SimTime(9), 0, 0);
        assert_eq!((k.issuer(), k.local_seq()), (0, 0));
    }

    #[test]
    fn compose_is_a_total_order() {
        // Total and stable: distinct (time, issuer, seq) triples map to
        // distinct keys, and comparison is exactly lexicographic on the
        // triple — checked exhaustively over a small cube.
        let mut keys = Vec::new();
        for t in 0..4u64 {
            for a in 0..4u32 {
                for s in 0..4u64 {
                    keys.push(((t, a, s), EventKey::compose(SimTime(t), a, s)));
                }
            }
        }
        for (ta, ka) in &keys {
            for (tb, kb) in &keys {
                assert_eq!(ka.cmp(kb), ta.cmp(tb), "{ta:?} vs {tb:?}");
            }
        }
    }

    #[test]
    fn sequenced_ignores_payload_in_ordering() {
        let a = Sequenced::new(SimTime(1), 0, "zzz");
        let b = Sequenced::new(SimTime(1), 1, "aaa");
        assert!(a < b);
        assert_ne!(a, b);
        let c = Sequenced::new(SimTime(1), 0, "different payload");
        assert_eq!(a, c);
    }
}
