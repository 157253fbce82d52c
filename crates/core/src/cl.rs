//! Contention-level (CL) accounting (§III-A).
//!
//! *"A simple local detection scheme determines the local CL of `oj` by how
//! many transactions have requested `oj` during a given time period. A
//! distributed detection scheme determines the remote CL of `oj` by how many
//! transactions have requested other objects before `oj` is requested. ...
//! We define the CL of an object as the sum of its local and remote CLs."*
//!
//! Two pieces implement this:
//!
//! * [`ObjectClWindow`] — owner-side sliding-window count of *distinct*
//!   transactions that requested an object recently (the **local CL**);
//! * [`ClAccounting`] — requester-side sum of the local CLs of the objects a
//!   transaction currently holds (the **remote CL**, carried as `myCL` in
//!   every request: *"myCL indicates the number of transactions needing the
//!   objects that the requester is using"*).

use crate::ids::{ObjectId, TxId};
use dstm_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Occurrence count per transaction: a linear-probing open-addressed table
/// with backward-shift deletion (no tombstones, so a long-lived window never
/// degrades). One multiply to hash, one or two probes to find: O(1) expected
/// per record and per eviction whether four transactions share the window
/// (a bank account) or two hundred (a list head or tree root under the
/// write-heavy mix, where a scan per request was a tenth of the run).
#[derive(Clone, Debug)]
struct TxCounts {
    /// Power-of-two capacity, at most half full (a quarter would shorten
    /// the probe runs a little and shows in peak RSS on the small grids).
    slots: Box<[TxCount]>,
    /// `64 - log2(slots.len())`: the hash's top bits index the table.
    shift: u32,
    /// Occupied slots — the distinct-transaction count.
    len: u32,
}

/// One table slot, 16 bytes. `count == 0` marks it free.
#[derive(Clone, Copy, Debug)]
struct TxCount {
    seq: u64,
    node: u32,
    count: u32,
}

impl TxCount {
    const FREE: TxCount = TxCount {
        seq: 0,
        node: 0,
        count: 0,
    };

    #[inline]
    fn holds(&self, tx: TxId) -> bool {
        self.seq == tx.seq && self.node == tx.node
    }
}

impl TxCounts {
    const MIN_SLOTS: usize = 8;

    /// An empty table of `slots` (a power of two) free slots.
    fn with_slots(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two());
        TxCounts {
            slots: vec![TxCount::FREE; slots].into_boxed_slice(),
            shift: 64 - slots.trailing_zeros(),
            len: 0,
        }
    }

    /// Home slot of transaction `(node, seq)`: Fibonacci hashing, top bits.
    /// Ids are a node index and a small dense per-node sequence number.
    #[inline]
    fn home(&self, node: u32, seq: u64) -> usize {
        let word = seq ^ (u64::from(node) << 32);
        (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Slot holding `tx`, or the free slot where it would go.
    #[inline]
    fn probe(&self, tx: TxId) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(tx.node, tx.seq);
        loop {
            let slot = &self.slots[i & mask];
            if slot.holds(tx) || slot.count == 0 {
                return i & mask;
            }
            i += 1;
        }
    }

    #[inline]
    fn increment(&mut self, tx: TxId) {
        let i = self.probe(tx);
        if self.slots[i].count != 0 {
            self.slots[i].count += 1;
        } else {
            self.insert_new(tx, i);
        }
    }

    fn insert_new(&mut self, tx: TxId, mut i: usize) {
        if (self.len as usize + 1) * 2 > self.slots.len() {
            let old = std::mem::replace(self, Self::with_slots(self.slots.len() * 2));
            for slot in old.slots.iter().filter(|s| s.count != 0) {
                let at = self.probe(TxId::new(slot.node, slot.seq));
                self.slots[at] = *slot;
            }
            self.len = old.len;
            i = self.probe(tx);
        }
        self.slots[i] = TxCount {
            seq: tx.seq,
            node: tx.node,
            count: 1,
        };
        self.len += 1;
    }

    /// Panics if `tx` has no count: the window only evicts what it recorded.
    #[inline]
    fn decrement(&mut self, tx: TxId) {
        let i = self.probe(tx);
        let count = &mut self.slots[i].count;
        assert!(*count != 0, "window entry without a count");
        *count -= 1;
        if *count == 0 {
            self.vacate(i);
        }
    }

    /// Backward-shift deletion: pull every later member of the probe run
    /// that may legally sit at the hole `i` into it.
    fn vacate(&mut self, mut i: usize) {
        self.len -= 1;
        let mask = self.slots.len() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let next = self.slots[j];
            if next.count == 0 {
                break;
            }
            let home = self.home(next.node, next.seq);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                self.slots[i] = next;
                i = j;
            }
        }
        self.slots[i] = TxCount::FREE;
    }
}

/// Owner-side sliding window of requests for one object.
///
/// The distinct-transaction count (the local CL itself) is maintained
/// incrementally: each record/prune adjusts a per-transaction occurrence
/// count, so `local_cl` is O(evictions) instead of the O(w²) pairwise scan
/// a naive distinct count costs — `record` + `local_cl` run on **every**
/// object request, so the window is protocol-hot-path.
#[derive(Clone, Debug)]
pub struct ObjectClWindow {
    window: SimDuration,
    /// (request time, requester) pairs, oldest first.
    requests: VecDeque<(SimTime, TxId)>,
    /// Occurrence count per transaction still inside the window; a count
    /// that reaches zero leaves the table, so its population *is* the
    /// distinct count.
    counts: TxCounts,
}

impl ObjectClWindow {
    pub fn new(window: SimDuration) -> Self {
        ObjectClWindow {
            window,
            requests: VecDeque::new(),
            counts: TxCounts::with_slots(TxCounts::MIN_SLOTS),
        }
    }

    /// Drop the requests that fell out of the window ending at `now`. Runs
    /// on every call into the window and usually finds nothing to do, so
    /// the check is inline and the eviction loop is not.
    #[inline]
    fn prune(&mut self, now: SimTime) {
        let cutoff = SimTime(now.0.saturating_sub(self.window.0));
        if self.requests.front().is_some_and(|&(t, _)| t < cutoff) {
            self.evict_before(cutoff);
        }
    }

    fn evict_before(&mut self, cutoff: SimTime) {
        while let Some(&(t, tx)) = self.requests.front() {
            if t >= cutoff {
                break;
            }
            self.requests.pop_front();
            self.counts.decrement(tx);
        }
    }

    /// Record that `tx` requested the object at `now`.
    pub fn record(&mut self, now: SimTime, tx: TxId) {
        self.prune(now);
        self.requests.push_back((now, tx));
        self.counts.increment(tx);
    }

    /// Local CL: distinct transactions that requested the object within the
    /// window ending at `now`. Retries of the same transaction count once.
    pub fn local_cl(&mut self, now: SimTime) -> u32 {
        self.prune(now);
        self.counts.len
    }

    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Raw (non-distinct) request count inside the window ending at `now` —
    /// the denominator tracing reports next to `local_cl` so window
    /// saturation (retry storms vs. genuinely wide contention) is visible.
    pub fn requests_in_window(&mut self, now: SimTime) -> u32 {
        self.prune(now);
        self.requests.len() as u32
    }
}

/// Requester-side accounting of the CLs of currently held objects.
///
/// Vec-backed: a transaction holds a handful of objects and the only
/// aggregate query is a sum, so linear storage beats a hash map and keeps
/// the per-transaction footprint a single (reusable) allocation.
#[derive(Clone, Debug, Default)]
pub struct ClAccounting {
    held: Vec<(ObjectId, u32)>,
}

impl ClAccounting {
    pub fn new() -> Self {
        ClAccounting::default()
    }

    /// An object was received, with its local CL as reported by the owner.
    pub fn object_received(&mut self, oid: ObjectId, reported_cl: u32) {
        match self.held.iter_mut().find(|(o, _)| *o == oid) {
            Some((_, cl)) => *cl = reported_cl,
            None => self.held.push((oid, reported_cl)),
        }
    }

    /// The object was released (commit or abort).
    pub fn object_released(&mut self, oid: ObjectId) {
        if let Some(i) = self.held.iter().position(|(o, _)| *o == oid) {
            self.held.swap_remove(i);
        }
    }

    /// `myCL`: total demand for what this transaction is holding.
    pub fn my_cl(&self) -> u32 {
        self.held.iter().map(|(_, cl)| cl).sum()
    }

    pub fn clear(&mut self) {
        self.held.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    fn tx(n: u64) -> TxId {
        TxId::new(0, n)
    }

    #[test]
    fn window_counts_distinct_transactions() {
        let mut w = ObjectClWindow::new(SimDuration::from_millis(100));
        w.record(t(10), tx(1));
        w.record(t(20), tx(2));
        w.record(t(30), tx(1)); // retry of tx 1 counts once
        assert_eq!(w.local_cl(t(40)), 2);
        assert_eq!(w.requests_in_window(t(40)), 3, "raw count keeps retries");
    }

    #[test]
    fn window_expires_old_requests() {
        let mut w = ObjectClWindow::new(SimDuration::from_millis(50));
        w.record(t(0), tx(1));
        w.record(t(10), tx(2));
        assert_eq!(w.local_cl(t(40)), 2);
        assert_eq!(w.local_cl(t(55)), 1); // tx1's request (t=0) fell out
        assert_eq!(w.local_cl(t(200)), 0);
        assert!(w.is_empty());
    }

    #[test]
    fn empty_window_is_zero() {
        let mut w = ObjectClWindow::new(SimDuration::from_millis(50));
        assert_eq!(w.local_cl(t(5)), 0);
    }

    #[test]
    fn accounting_sums_held_objects() {
        let mut acc = ClAccounting::new();
        // Fig. 3 object-based scenario: T4 holds o3 and o2 whose CLs are 1
        // and 0, requests o1 with local CL 1 -> total CL = 2.
        acc.object_received(ObjectId(3), 1);
        acc.object_received(ObjectId(2), 0);
        assert_eq!(acc.my_cl(), 1);
        acc.object_received(ObjectId(4), 2);
        assert_eq!(acc.my_cl(), 3);
        acc.object_released(ObjectId(4));
        assert_eq!(acc.my_cl(), 1);
        acc.clear();
        assert_eq!(acc.my_cl(), 0);
    }

    #[test]
    fn rereceiving_updates_not_duplicates() {
        let mut acc = ClAccounting::new();
        acc.object_received(ObjectId(1), 3);
        acc.object_received(ObjectId(1), 5);
        assert_eq!(acc.my_cl(), 5);
    }
}
