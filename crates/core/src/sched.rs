//! The scheduling table of Algorithm 1.
//!
//! Each object owner keeps, per object, a linked list of enqueued requesters
//! plus a contention level and an accumulated backoff `bk` (*"static
//! variables bks represent backoff times for each object. An object owner
//! holds as many bks as holding objects and updates corresponding bks
//! whenever a transaction is enqueued"*). `scheduling_List` maps object ids
//! to those lists.

use crate::fx::FxHashMap;
use crate::ids::{ObjectId, TxId};
use dstm_sim::{SimDuration, SimTime};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// One enqueued requester (Algorithm 1's `Requester`: address + txid; we
/// also keep the access mode for the read fan-out of §III-B and the enqueue
/// time for diagnostics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Requester {
    /// The requesting node ("Address" in the paper).
    pub node: u32,
    pub tx: TxId,
    /// Read requests at the queue head are all served simultaneously.
    pub read_only: bool,
    /// The requester's attempt number at enqueue time; grants carrying a
    /// stale attempt are declined by the requester.
    pub attempt: u32,
    pub enqueued_at: SimTime,
}

/// Everything but `enqueued_at`, which is wall-clock-valued: the model
/// checker's state fingerprints treat two queues that differ only in
/// enqueue times as the same protocol state. The pattern names every field,
/// so a new one must be placed on one side or the other.
impl Hash for Requester {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let Requester {
            node,
            tx,
            read_only,
            attempt,
            enqueued_at: _,
        } = self;
        (node, tx, read_only, attempt).hash(h);
    }
}

/// Per-object requester queue (`Requester_List`).
#[derive(Clone, Debug, Default)]
pub struct RequesterList {
    requesters: VecDeque<Requester>,
    contention_level: u32,
    /// Accumulated backoff for this object: each enqueue adds the enqueued
    /// transaction's expected remaining execution, so later requesters see
    /// the whole backlog.
    bk: SimDuration,
}

impl RequesterList {
    pub fn new() -> Self {
        RequesterList::default()
    }

    /// `addRequester(Contention_Level, Requester)`: append and record the
    /// contention level observed at enqueue time.
    pub fn add_requester(&mut self, contention: u32, req: Requester) {
        self.contention_level = contention;
        self.requesters.push_back(req);
    }

    /// `removeDuplicate(Address)`: drop any stale entry of the same
    /// transaction (a requester whose backoff expired re-requests as new;
    /// *"the duplicated transaction will be removed from a queue"*).
    /// Returns `true` if a duplicate was removed.
    pub fn remove_duplicate(&mut self, tx: TxId) -> bool {
        let before = self.requesters.len();
        self.requesters.retain(|r| r.tx != tx);
        before != self.requesters.len()
    }

    /// `getContention()`: the contention level recorded for this queue.
    pub fn get_contention(&self) -> u32 {
        self.contention_level
    }

    /// Current accumulated backlog `bk`.
    pub fn bk(&self) -> SimDuration {
        self.bk
    }

    /// Extend the backlog by an enqueued transaction's expected remaining
    /// execution time; returns the new total (the backoff assigned to it).
    pub fn extend_bk(&mut self, d: SimDuration) -> SimDuration {
        self.bk += d;
        self.bk
    }

    pub fn len(&self) -> usize {
        self.requesters.len()
    }

    pub fn is_empty(&self) -> bool {
        self.requesters.is_empty()
    }

    pub fn front(&self) -> Option<&Requester> {
        self.requesters.front()
    }

    pub fn pop_front(&mut self) -> Option<Requester> {
        let r = self.requesters.pop_front();
        if self.requesters.is_empty() {
            // Queue drained: the backlog is gone.
            self.bk = SimDuration::ZERO;
            self.contention_level = 0;
        }
        r
    }

    /// Pop the maximal prefix of requesters to serve next: either one writer,
    /// or *all* consecutive readers at the head (*"o1 updated by T2 will
    /// simultaneously be sent to T4, T5 and T6, increasing the concurrency of
    /// the read transactions"*).
    pub fn pop_servable(&mut self) -> Vec<Requester> {
        let mut out = Vec::new();
        self.pop_servable_into(&mut out);
        out
    }

    /// Allocation-free form of [`RequesterList::pop_servable`]: appends the
    /// servable prefix to `out` (callers keep a reusable scratch buffer).
    pub fn pop_servable_into(&mut self, out: &mut Vec<Requester>) {
        match self.front() {
            None => {}
            Some(r) if !r.read_only => {
                out.push(self.pop_front().expect("front checked"));
            }
            Some(_) => {
                while matches!(self.front(), Some(r) if r.read_only) {
                    out.push(self.pop_front().expect("front checked"));
                }
            }
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = &Requester> {
        self.requesters.iter()
    }

    /// Remove and return every queued requester (ownership transfer: *"the
    /// node invoking the transaction receives Requester_Lists of each
    /// committed object"*). Resets the backlog.
    pub fn drain_all(&mut self) -> Vec<Requester> {
        let out: Vec<Requester> = self.requesters.drain(..).collect();
        self.bk = SimDuration::ZERO;
        self.contention_level = 0;
        out
    }
}

/// `scheduling_List`: object id → requester list.
#[derive(Clone, Debug, Default)]
pub struct SchedulingTable {
    map: FxHashMap<ObjectId, RequesterList>,
}

impl SchedulingTable {
    pub fn new() -> Self {
        SchedulingTable::default()
    }

    /// Get-or-create the list for `oid` (Algorithm 3 lines 6–8).
    pub fn list_mut(&mut self, oid: ObjectId) -> &mut RequesterList {
        self.map.entry(oid).or_default()
    }

    pub fn list(&self, oid: ObjectId) -> Option<&RequesterList> {
        self.map.get(&oid)
    }

    /// Run `f` on `oid`'s list if one exists — never creating it — and
    /// drop the list from the table if `f` left it empty. The owner-side
    /// bookkeeping of a served fetch, a release and a publish all go
    /// through here: almost always there is no list (and, outside RTS runs,
    /// no table entry at all, which skips even the hash probe), so the
    /// common case costs one length check.
    pub fn with_list<R>(
        &mut self,
        oid: ObjectId,
        f: impl FnOnce(&mut RequesterList) -> R,
    ) -> Option<R> {
        if self.map.is_empty() {
            return None;
        }
        match self.map.entry(oid) {
            Entry::Occupied(mut e) => {
                let out = f(e.get_mut());
                if e.get().is_empty() {
                    e.remove();
                }
                Some(out)
            }
            Entry::Vacant(_) => None,
        }
    }

    /// Total queued requesters across all objects (diagnostics).
    pub fn total_queued(&self) -> usize {
        self.map.values().map(|l| l.len()).sum()
    }

    /// Requesters currently parked on one object (0 if no list exists).
    pub fn queue_depth(&self, oid: ObjectId) -> usize {
        self.map.get(&oid).map_or(0, |l| l.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(n: u64, read: bool) -> Requester {
        Requester {
            node: n as u32,
            tx: TxId::new(n as u32, n),
            read_only: read,
            attempt: 0,
            enqueued_at: SimTime(n),
        }
    }

    #[test]
    fn add_and_contention() {
        let mut l = RequesterList::new();
        l.add_requester(2, req(1, false));
        l.add_requester(4, req(2, false));
        assert_eq!(l.get_contention(), 4);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn duplicate_removal() {
        let mut l = RequesterList::new();
        l.add_requester(1, req(1, false));
        l.add_requester(2, req(2, false));
        assert!(l.remove_duplicate(TxId::new(1, 1)));
        assert!(!l.remove_duplicate(TxId::new(1, 1)));
        assert_eq!(l.len(), 1);
        assert_eq!(l.front().unwrap().tx, TxId::new(2, 2));
    }

    #[test]
    fn bk_accumulates_and_resets_on_drain() {
        let mut l = RequesterList::new();
        assert_eq!(l.bk(), SimDuration::ZERO);
        let b1 = l.extend_bk(SimDuration::from_millis(10));
        assert_eq!(b1.as_millis(), 10);
        l.add_requester(1, req(1, false));
        let b2 = l.extend_bk(SimDuration::from_millis(5));
        assert_eq!(b2.as_millis(), 15);
        l.pop_front();
        assert_eq!(l.bk(), SimDuration::ZERO, "bk resets when queue drains");
    }

    #[test]
    fn pop_servable_single_writer() {
        let mut l = RequesterList::new();
        l.add_requester(1, req(1, false));
        l.add_requester(2, req(2, false));
        let served = l.pop_servable();
        assert_eq!(served.len(), 1);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn pop_servable_read_fanout() {
        let mut l = RequesterList::new();
        l.add_requester(1, req(1, true));
        l.add_requester(2, req(2, true));
        l.add_requester(3, req(3, true));
        l.add_requester(4, req(4, false));
        let served = l.pop_servable();
        assert_eq!(served.len(), 3, "all consecutive readers served together");
        assert!(served.iter().all(|r| r.read_only));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn pop_servable_empty() {
        let mut l = RequesterList::new();
        assert!(l.pop_servable().is_empty());
    }

    #[test]
    fn table_with_list() {
        let mut t = SchedulingTable::new();
        assert_eq!(t.with_list(ObjectId(1), |l| l.len()), None);
        t.list_mut(ObjectId(1)).add_requester(1, req(1, false));
        t.list_mut(ObjectId(2)).add_requester(1, req(1, false));
        t.list_mut(ObjectId(2)).add_requester(2, req(2, false));
        assert_eq!(t.total_queued(), 3);
        assert_eq!(t.queue_depth(ObjectId(2)), 2);
        assert_eq!(t.queue_depth(ObjectId(9)), 0);
        for oid in [ObjectId(1), ObjectId(2)] {
            t.list_mut(oid).remove_duplicate(TxId::new(1, 1));
        }
        assert_eq!(t.total_queued(), 1);
        // Looking a list up never creates one ...
        assert_eq!(t.with_list(ObjectId(9), |l| l.len()), None);
        assert!(t.list(ObjectId(9)).is_none());
        // ... a list left non-empty stays, one left empty goes.
        assert_eq!(t.with_list(ObjectId(2), |l| l.len()), Some(1));
        assert!(t.list(ObjectId(2)).is_some());
        assert_eq!(t.with_list(ObjectId(1), |l| l.len()), Some(0));
        assert!(t.list(ObjectId(1)).is_none());
        let served = t.with_list(ObjectId(2), |l| l.pop_servable());
        assert_eq!(served.map(|s| s.len()), Some(1));
        assert!(t.list(ObjectId(2)).is_none());
    }
}
