//! The pending-event set.
//!
//! The simulator's hot loop is `pop-min / handle / push-futures`; the pending
//! event set dominates kernel cost in large runs (80 nodes × thousands of
//! in-flight transactions). [`BinaryHeapQueue`] — a 4-ary implicit heap of
//! 32-byte `(packed key, payload slot)` entries over a payload slab, with a
//! branch-free choice among the four children, O(log n) — is the one
//! implementation. The [`EventQueue`] trait stays as the seam where the
//! verifier's perturbing and choice-point queues, the benchmark's timing
//! wrapper and the tests' model queue substitute for it.
//!
//! The heap is checked against a `BTreeMap` model in `tests/queue_model.rs`
//! (total order out, FIFO among ties, `lookahead`) and timed inside real
//! workloads by `benchmark/` (`sim.queue.{push,pop}_ns`).

use crate::event::{EventKey, Sequenced};
use crate::time::SimTime;

/// A pending-event set: a priority queue keyed by [`EventKey`].
pub trait EventQueue<E> {
    /// Insert an event. Keys may arrive in any order but must be unique
    /// (the engine guarantees uniqueness via the sequence counter).
    fn push(&mut self, ev: Sequenced<E>);

    /// Remove and return the minimum-key event.
    fn pop(&mut self) -> Option<Sequenced<E>>;

    /// Key of the minimum event without removing it.
    fn peek_key(&self) -> Option<EventKey>;

    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payloads the next two `pop`s would return, in pop order, if
    /// nothing is pushed in between — for the run loop to warm the caches
    /// of the actors they go to. Purely advisory: a backend that cannot
    /// answer from state it has already touched returns `None` (the
    /// default), `[1]` may be `None` while `[0]` is not, and a push between
    /// the call and the pops makes either entry stale. Never changes what
    /// `pop`, `peek_key` or `len` report.
    #[inline]
    fn lookahead(&self) -> [Option<&E>; 2] {
        [None, None]
    }
}

/// One heap entry: the event's key packed into a single word —
/// `time << 64 | seq`, so one unsigned compare *is* the lexicographic
/// `(time, issuer, per-actor seq)` order — and the index of its payload in
/// the slab. 32 bytes (`u128` is 16-aligned): the four children of a node
/// are 128 contiguous bytes.
#[derive(Clone, Copy)]
struct Entry {
    key: u128,
    slot: u32,
}

#[inline]
fn pack(key: EventKey) -> u128 {
    (u128::from(key.time.0) << 64) | u128::from(key.seq)
}

#[inline]
fn unpack(key: u128) -> EventKey {
    EventKey::new(SimTime((key >> 64) as u64), key as u64)
}

/// Heap-based pending-event set (the default; historically a binary heap,
/// now a 4-ary indexed heap — the name survives as the public API).
///
/// Three data-layout decisions, all from profiles where heap push/pop was
/// the single largest kernel cost:
///
/// * The heap stores only `Entry`s while payloads sit in a slab with a
///   free list. Sifting moves small POD entries instead of full
///   `Sequenced<E>` values (80 bytes of payload for the kernel's
///   `NodeEvent`), cutting memmove traffic. Slots are recycled, so steady
///   state allocates nothing.
/// * The heap is 4-ary: half the levels of a binary heap, and the four
///   children of a node are contiguous, so a sift-down touches fewer
///   distinct lines for the same comparison count.
/// * Which child is smallest is data-dependent and close to uniformly
///   random, so a compare-and-branch scan mispredicts about once per level.
///   The packed key makes each comparison a `cmp`/`sbb` pair whose carry
///   flag can be consumed as data: `min_of_four` plays a two-round
///   tournament with no branch at all.
///
/// Keys are unique (engine-assigned sequence numbers), so pop order — hence
/// simulation output — does not depend on heap shape or arity.
pub struct BinaryHeapQueue<E> {
    /// Min-heap, 4-ary.
    heap: Vec<Entry>,
    /// Payload slab; `None` entries are free and listed in `free`.
    slots: Vec<Option<E>>,
    free: Vec<u32>,
}

/// Heap arity. 4 keeps sibling scans inside two or three cache lines while
/// halving tree depth vs. binary.
const D: usize = 4;

/// Index (0–3) of the smallest key among four siblings: semifinals between
/// neighbours, then a final between the two winners. Every comparison
/// result is used as an index, never as a branch condition.
#[inline]
fn min_of_four(c: &[Entry; D]) -> usize {
    let a = usize::from(c[1].key < c[0].key);
    let b = 2 + usize::from(c[3].key < c[2].key);
    [a, b][usize::from(c[b].key < c[a].key)]
}

impl<E> BinaryHeapQueue<E> {
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / D;
            if self.heap[parent].key <= entry.key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }

    fn sift_down(&mut self, mut i: usize) {
        let heap = self.heap.as_mut_slice();
        let entry = heap[i];
        loop {
            let first = D * i + 1;
            let child = if let Some(full) = heap.get(first..first + D) {
                first + min_of_four(full.try_into().expect("a slice of D entries"))
            } else if first < heap.len() {
                // The last, partially filled group of children: at most one
                // per sift, so a plain scan.
                let mut best = first;
                for c in first + 1..heap.len() {
                    if heap[c].key < heap[best].key {
                        best = c;
                    }
                }
                best
            } else {
                break;
            };
            if entry.key <= heap[child].key {
                break;
            }
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = entry;
    }
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> for BinaryHeapQueue<E> {
    fn push(&mut self, ev: Sequenced<E>) {
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(ev.payload);
                i
            }
            None => {
                self.slots.push(Some(ev.payload));
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(Entry {
            key: pack(ev.key),
            slot,
        });
        self.sift_up(self.heap.len() - 1);
    }

    fn pop(&mut self) -> Option<Sequenced<E>> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        let payload = self.slots[top.slot as usize].take().expect("occupied slot");
        self.free.push(top.slot);
        Some(Sequenced {
            key: unpack(top.key),
            payload,
        })
    }

    #[inline]
    fn peek_key(&self) -> Option<EventKey> {
        self.heap.first().map(|e| unpack(e.key))
    }

    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
    }

    /// The root, and the smallest of the root's children — which *is* the
    /// second minimum of a heap. Both sit in lines the pop that just ran
    /// sifted through.
    #[inline(always)]
    fn lookahead(&self) -> [Option<&E>; 2] {
        let payload = |e: &Entry| self.slots[e.slot as usize].as_ref();
        let Some(root) = self.heap.first() else {
            return [None, None];
        };
        let second = match self.heap.get(1..1 + D) {
            Some(full) => {
                let full: &[Entry; D] = full.try_into().expect("a slice of D entries");
                Some(&full[min_of_four(full)])
            }
            None => self.heap[1..].iter().min_by_key(|e| e.key),
        };
        [payload(root), second.and_then(payload)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<Q: EventQueue<u32>>(q: &mut Q) -> Vec<EventKey> {
        let mut out = Vec::new();
        while let Some(ev) = q.pop() {
            out.push(ev.key);
        }
        out
    }

    fn check_total_order(keys: &[EventKey]) {
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "out of order: {:?} then {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn heap_entry_is_32_bytes() {
        // Four siblings = 128 contiguous bytes. A wider entry brings back
        // the memmove traffic the split key/payload layout exists to avoid.
        assert_eq!(std::mem::size_of::<Entry>(), 32);
    }

    #[test]
    fn packed_key_order_is_event_key_order() {
        let keys = [
            EventKey::new(SimTime(0), 0),
            EventKey::new(SimTime(0), u64::MAX),
            EventKey::new(SimTime(1), 0),
            EventKey::compose(SimTime(1), 7, 3),
            EventKey::compose(SimTime(1), 8, 0),
            EventKey::new(SimTime(u64::MAX), u64::MAX),
        ];
        for a in keys {
            assert_eq!(unpack(pack(a)), a);
            for b in keys {
                assert_eq!(pack(a).cmp(&pack(b)), a.cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn heap_orders_events() {
        let mut q = BinaryHeapQueue::new();
        for (i, t) in [50u64, 10, 30, 10, 70, 0].iter().enumerate() {
            q.push(Sequenced::new(SimTime(*t), i as u64, i as u32));
        }
        assert_eq!(q.len(), 6);
        assert_eq!(q.peek_key().unwrap().time, SimTime(0));
        let keys = drain(&mut q);
        check_total_order(&keys);
        assert_eq!(keys.len(), 6);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q: BinaryHeapQueue<u32> = BinaryHeapQueue::new();
        for i in 0..100 {
            q.push(Sequenced::new(SimTime(42), i, i as u32));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<u32>>());
    }
}
