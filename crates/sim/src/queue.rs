//! Pending-event set implementations.
//!
//! The simulator's hot loop is `pop-min / handle / push-futures`; the pending
//! event set dominates kernel cost in large runs (80 nodes × thousands of
//! in-flight transactions). Two implementations are provided behind the
//! [`EventQueue`] trait:
//!
//! * [`BinaryHeapQueue`] — a 4-ary implicit heap of 32-byte
//!   `(packed key, payload slot)` entries over a payload slab, with a
//!   branch-free choice among the four children. O(log n), the default.
//! * [`CalendarQueue`] — the classic Brown (1988) calendar queue: an array of
//!   day-buckets over a year of virtual time, giving amortized O(1)
//!   enqueue/dequeue when event inter-arrival times are roughly stationary —
//!   which they are for the steady-state throughput experiments (Figs. 4–5).
//!
//! Both are exercised by the same property tests (total order out, FIFO among
//! ties) and compared in the `micro` criterion bench.

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

// ---------------------------------------------------------------------------
// Binary heap
// ---------------------------------------------------------------------------

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
/// * The heap stores only [`Entry`]s while payloads sit in a slab with a
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
///   flag can be consumed as data: [`min_of_four`] plays a two-round
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

    pub fn with_capacity(cap: usize) -> Self {
        BinaryHeapQueue {
            heap: Vec::with_capacity(cap),
            slots: Vec::with_capacity(cap),
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

// ---------------------------------------------------------------------------
// Calendar queue
// ---------------------------------------------------------------------------

/// Calendar-queue pending-event set (Brown 1988).
///
/// Events are hashed into `nbuckets` day-buckets by
/// `(time / day_width) % nbuckets`; a dequeue scans forward from the current
/// day, only considering events belonging to the current "year". The
/// structure resizes (doubling/halving buckets, re-estimating day width from
/// a sample of inter-event gaps) when the population crosses thresholds, the
/// standard recipe for keeping O(1) behaviour under load swings.
pub struct CalendarQueue<E> {
    buckets: Vec<Vec<Sequenced<E>>>,
    /// Width of one day in nanoseconds.
    day_width: u64,
    /// Index of the bucket the next dequeue starts scanning from.
    current_bucket: usize,
    /// Start time of `current_bucket`'s current day.
    bucket_top: u64,
    len: usize,
    /// Resize thresholds.
    grow_at: usize,
    shrink_at: usize,
    /// Lower bound on the last dequeued key, for ordering assertions.
    last_popped: Option<EventKey>,
    /// Memoized minimum key: `Some` = known-correct min, `None` = recompute
    /// on next peek. Interior-mutable because [`EventQueue::peek_key`] takes
    /// `&self`. Keeps repeated peeks (the `run_until` loop) O(1) instead of
    /// O(nbuckets) per call.
    min_cache: std::cell::Cell<Option<EventKey>>,
}

impl<E> CalendarQueue<E> {
    /// A queue with a day width tuned for millisecond-scale inter-arrivals.
    pub fn new() -> Self {
        Self::with_params(16, 1_000_000) // 16 buckets, 1 ms days
    }

    pub fn with_params(nbuckets: usize, day_width: u64) -> Self {
        assert!(
            nbuckets.is_power_of_two(),
            "bucket count must be a power of two"
        );
        assert!(day_width > 0);
        CalendarQueue {
            buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
            day_width,
            current_bucket: 0,
            bucket_top: day_width,
            len: 0,
            grow_at: nbuckets * 2,
            shrink_at: 0,
            last_popped: None,
            min_cache: std::cell::Cell::new(None),
        }
    }

    #[inline]
    fn bucket_of(&self, t: SimTime) -> usize {
        ((t.0 / self.day_width) as usize) & (self.buckets.len() - 1)
    }

    fn resize(&mut self, nbuckets: usize) {
        let mut all: Vec<Sequenced<E>> = Vec::with_capacity(self.len);
        for b in self.buckets.iter_mut() {
            all.append(b);
        }
        // Re-estimate day width as ~3x the average gap between the next few
        // events, the classic heuristic; fall back to the old width when the
        // sample is degenerate.
        all.sort();
        let sample = all.len().min(32);
        let new_width = if sample >= 2 {
            let span = all[sample - 1].key.time.0.saturating_sub(all[0].key.time.0);
            let avg_gap = span / (sample as u64 - 1);
            (avg_gap.saturating_mul(3)).max(1)
        } else {
            self.day_width
        };

        self.buckets = (0..nbuckets).map(|_| Vec::new()).collect();
        self.day_width = new_width;
        self.grow_at = nbuckets * 2;
        self.shrink_at = if nbuckets > 16 { nbuckets / 2 } else { 0 };
        self.len = 0;

        // Position the calendar at the earliest pending event so the scan
        // starts in the right day.
        if let Some(first) = all.first() {
            let t = first.key.time.0;
            self.current_bucket = ((t / self.day_width) as usize) & (nbuckets - 1);
            self.bucket_top = (t / self.day_width + 1) * self.day_width;
        } else {
            self.current_bucket = 0;
            self.bucket_top = self.day_width;
        }
        for ev in all {
            self.push_inner(ev);
        }
    }

    fn push_inner(&mut self, ev: Sequenced<E>) {
        let b = self.bucket_of(ev.key.time);
        // Keep buckets sorted descending so pop-min can use Vec::pop; buckets
        // are short (O(1) expected), so insertion cost stays bounded.
        let bucket = &mut self.buckets[b];
        let pos = bucket
            .binary_search_by(|probe| ev.key.cmp(&probe.key))
            .unwrap_or_else(|p| p);
        // A still-valid cached minimum only tightens on insert.
        if let Some(m) = self.min_cache.get() {
            if ev.key < m {
                self.min_cache.set(Some(ev.key));
            }
        }
        bucket.insert(pos, ev);
        self.len += 1;

        // If the new event is earlier than where the scan currently points,
        // rewind the calendar so it is not skipped.
        let t = self.buckets[b].last().map(|e| e.key.time.0).unwrap_or(0);
        if t < self.bucket_top.saturating_sub(self.day_width) {
            self.current_bucket = b;
            self.bucket_top = (t / self.day_width + 1) * self.day_width;
        }
    }

    /// Earliest key across all buckets — O(nbuckets), used when the forward
    /// scan wraps a whole year without finding anything (sparse regime).
    fn global_min(&self) -> Option<EventKey> {
        self.buckets
            .iter()
            .filter_map(|b| b.last().map(|e| e.key))
            .min()
    }

    /// Non-destructive mirror of `pop`'s search: scan forward from the
    /// current day for at most one year (amortized O(1) in the dense regime),
    /// falling back to the O(nbuckets) global scan only when the calendar is
    /// sparse. Must find the same event `pop` would, which holds because
    /// `push_inner` rewinds the calendar whenever an event lands before the
    /// scan point.
    fn scan_min(&self) -> Option<EventKey> {
        if self.len == 0 {
            return None;
        }
        let nbuckets = self.buckets.len();
        let mut b = self.current_bucket;
        let mut top = self.bucket_top;
        for _ in 0..nbuckets {
            if let Some(ev) = self.buckets[b].last() {
                if ev.key.time.0 < top {
                    return Some(ev.key);
                }
            }
            b = (b + 1) & (nbuckets - 1);
            top += self.day_width;
        }
        self.global_min()
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> for CalendarQueue<E> {
    fn push(&mut self, ev: Sequenced<E>) {
        if let Some(last) = self.last_popped {
            // Time-only monotonicity: under the interleaving-independent key
            // a zero-delay send from a low-id actor may legitimately carry a
            // key *below* the last-popped key at the same timestamp (its
            // issuer/seq tiebreak is smaller). Scheduling strictly before the
            // current time is still a bug.
            debug_assert!(
                ev.key.time >= last.time,
                "event scheduled in the past: {:?} < {:?}",
                ev.key,
                last
            );
        }
        self.push_inner(ev);
        if self.len > self.grow_at {
            let n = self.buckets.len() * 2;
            self.resize(n);
        }
    }

    fn pop(&mut self) -> Option<Sequenced<E>> {
        if self.len == 0 {
            return None;
        }
        self.min_cache.set(None);
        let nbuckets = self.buckets.len();
        loop {
            // Scan at most one full year; in the sparse regime fall back to a
            // global min search and jump the calendar there.
            for _ in 0..nbuckets {
                let b = self.current_bucket;
                if let Some(ev) = self.buckets[b].last() {
                    if ev.key.time.0 < self.bucket_top {
                        let ev = self.buckets[b].pop().expect("non-empty bucket");
                        self.len -= 1;
                        self.last_popped = Some(ev.key);
                        if self.len < self.shrink_at {
                            let n = (self.buckets.len() / 2).max(16);
                            self.resize(n);
                        }
                        return Some(ev);
                    }
                }
                self.current_bucket = (b + 1) & (nbuckets - 1);
                self.bucket_top += self.day_width;
            }
            let min = self.global_min().expect("len > 0 implies a pending event");
            let t = min.time.0;
            self.current_bucket = ((t / self.day_width) as usize) & (nbuckets - 1);
            self.bucket_top = (t / self.day_width + 1) * self.day_width;
        }
    }

    fn peek_key(&self) -> Option<EventKey> {
        if self.len == 0 {
            return None;
        }
        if let Some(k) = self.min_cache.get() {
            return Some(k);
        }
        let k = self.scan_min().expect("len > 0 implies a pending event");
        self.min_cache.set(Some(k));
        Some(k)
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
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
    fn calendar_orders_events() {
        let mut q = CalendarQueue::with_params(16, 1000);
        for (i, t) in [50u64, 10, 30, 10, 70, 0, 100_000, 3].iter().enumerate() {
            q.push(Sequenced::new(SimTime(*t), i as u64, i as u32));
        }
        let keys = drain(&mut q);
        check_total_order(&keys);
        assert_eq!(keys.len(), 8);
    }

    #[test]
    fn calendar_handles_sparse_far_future() {
        let mut q = CalendarQueue::with_params(16, 1000);
        q.push(Sequenced::new(SimTime(10_000_000_000), 0, 1u32));
        q.push(Sequenced::new(SimTime(20_000_000_000), 1, 2u32));
        assert_eq!(q.pop().unwrap().payload, 1);
        assert_eq!(q.pop().unwrap().payload, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn calendar_resizes_under_load() {
        let mut q = CalendarQueue::with_params(16, 1000);
        for i in 0..10_000u64 {
            q.push(Sequenced::new(SimTime(i * 37 % 5000), i, i as u32));
        }
        assert_eq!(q.len(), 10_000);
        let keys = drain(&mut q);
        check_total_order(&keys);
        assert_eq!(keys.len(), 10_000);
    }

    #[test]
    fn calendar_peek_matches_pop_through_churn() {
        // peek_key must always name the key the next pop returns, across
        // interleaved pushes (cache tightening), pops (cache invalidation),
        // resizes, and the sparse far-future fallback.
        let mut q = CalendarQueue::with_params(16, 1000);
        let mut seq = 0u64;
        let mut push = |q: &mut CalendarQueue<u32>, t: u64| {
            q.push(Sequenced::new(SimTime(t), seq, 0u32));
            seq += 1;
        };
        for i in 0..500u64 {
            push(&mut q, 10_000 + i * 13 % 4000);
        }
        push(&mut q, 5); // earlier than everything: cache must tighten
        assert_eq!(q.peek_key().unwrap().time, SimTime(5));
        while q.len() > 0 {
            let peeked = q.peek_key().expect("non-empty");
            assert_eq!(q.peek_key(), Some(peeked), "repeated peek disagrees");
            let popped = q.pop().expect("non-empty");
            assert_eq!(peeked, popped.key, "peek disagreed with pop");
        }
        assert_eq!(q.peek_key(), None);

        // Sparse regime: events far beyond one calendar year.
        push(&mut q, 10_000_000_000);
        push(&mut q, 20_000_000_000);
        assert_eq!(q.peek_key().unwrap().time, SimTime(10_000_000_000));
        assert_eq!(q.pop().unwrap().key.time, SimTime(10_000_000_000));
        assert_eq!(q.peek_key().unwrap().time, SimTime(20_000_000_000));
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
