//! The transaction layer's semantics written the slow, obvious way: every
//! nesting level is the *whole* view it sees — a `BTreeMap` cloned from its
//! parent on open, handed back to the parent on close, thrown away on abort.
//! No shadows, no sharing, no capacity kept. `tests/tx_model.rs` drives
//! `TxRuntime` against it.

use closed_nesting_dstm::hyflow::tx::AbortAccounting;
use closed_nesting_dstm::hyflow::{AccessMode, Payload};
use closed_nesting_dstm::rts::ObjectId;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Clone, Debug, PartialEq)]
pub struct ModelCopy {
    pub payload: Payload,
    pub version: u64,
    pub owner: u32,
    pub mode: AccessMode,
    pub dirty: bool,
}

#[derive(Clone, Default)]
struct ModelLevel {
    /// Everything visible at this level, ancestors' objects included.
    view: BTreeMap<ObjectId, ModelCopy>,
    /// Objects fetched at this level or by a child committed into it.
    fetched: BTreeSet<ObjectId>,
    /// Objects this level (or a child committed into it) fetched, read or
    /// wrote: what the generator needs to know, not part of the semantics.
    touched: BTreeSet<ObjectId>,
    /// This level fetched an object an ancestor already held.
    refetched: bool,
    committed_children: u64,
}

pub struct ModelTx {
    levels: Vec<ModelLevel>,
    /// Reported contention level per fetch still accounted for (`myCL`).
    cl: BTreeMap<ObjectId, u32>,
}

pub type Summary = Vec<(ObjectId, u64, u32, bool, AccessMode)>;

impl ModelTx {
    pub fn new() -> Self {
        ModelTx {
            levels: vec![ModelLevel::default()],
            cl: BTreeMap::new(),
        }
    }

    fn top(&mut self) -> &mut ModelLevel {
        self.levels.last_mut().expect("level 0 always exists")
    }

    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    pub fn lookup(&self, oid: ObjectId) -> Option<&ModelCopy> {
        self.levels.last().expect("level 0").view.get(&oid)
    }

    pub fn outermost_level_holding(&self, oid: ObjectId) -> Option<usize> {
        self.levels.iter().position(|l| l.view.contains_key(&oid))
    }

    pub fn touched_at_top(&self, oid: ObjectId) -> bool {
        self.levels.last().expect("level 0").touched.contains(&oid)
    }

    pub fn top_refetched(&self) -> bool {
        self.levels.last().expect("level 0").refetched
    }

    pub fn install(&mut self, oid: ObjectId, copy: ModelCopy, reported_cl: u32) {
        let top = self.top();
        top.refetched |= top.view.contains_key(&oid);
        top.view.insert(oid, copy);
        top.fetched.insert(oid);
        top.touched.insert(oid);
        self.cl.insert(oid, reported_cl);
    }

    pub fn access_held(&mut self, oid: ObjectId, mode: AccessMode) -> Option<Payload> {
        let top = self.top();
        let copy = top.view.get_mut(&oid)?;
        top.touched.insert(oid);
        if mode == AccessMode::Write {
            copy.mode = AccessMode::Write;
        }
        Some(copy.payload.clone())
    }

    pub fn write_local(&mut self, oid: ObjectId, payload: Payload) {
        let top = self.top();
        top.touched.insert(oid);
        let copy = top.view.get_mut(&oid).expect("written object held");
        *copy = ModelCopy {
            payload,
            mode: AccessMode::Write,
            dirty: true,
            ..copy.clone()
        };
    }

    pub fn open(&mut self) {
        let view = self.top().view.clone();
        self.levels.push(ModelLevel {
            view,
            ..ModelLevel::default()
        });
    }

    pub fn close(&mut self) {
        let child = self.levels.pop().expect("a child is open");
        let parent = self.top();
        parent.view = child.view;
        parent.fetched.extend(child.fetched);
        parent.touched.extend(child.touched);
        parent.committed_children += 1 + child.committed_children;
    }

    pub fn abort_to_level(&mut self, level: usize) -> AbortAccounting {
        let dying = self.levels.split_off(level);
        let committed: u64 = dying.iter().map(|l| l.committed_children).sum();
        for oid in dying.iter().flat_map(|l| &l.fetched) {
            // A fetch an ancestor made of the same object outlives this one.
            if !self.levels.iter().any(|l| l.view.contains_key(oid)) {
                self.cl.remove(oid);
            }
        }
        // The aborted level starts over from what its parent sees.
        let view = self.levels.last().map(|l| l.view.clone());
        self.levels.push(ModelLevel {
            view: view.unwrap_or_default(),
            ..ModelLevel::default()
        });
        AbortAccounting {
            nested_own: u64::from(level > 0),
            nested_parent: committed + (dying.len() as u64 - 1),
            parent_aborted: level == 0,
        }
    }

    /// A fresh attempt, after `abort_to_level(0)`.
    pub fn restart(&mut self) {
        self.cl.clear();
    }

    pub fn my_cl(&self) -> u32 {
        self.cl.values().sum()
    }

    pub fn live_nested_population(&self) -> u64 {
        let committed: u64 = self.levels.iter().map(|l| l.committed_children).sum();
        committed + self.levels.len() as u64 - 1
    }

    /// Per object, by id: version and owner of the outermost fetch, dirty
    /// and write intent if any level has them.
    pub fn object_summary(&self) -> Summary {
        let mut out = Summary::new();
        for &oid in self.levels.last().expect("level 0").view.keys() {
            let held = || self.levels.iter().filter_map(|l| l.view.get(&oid));
            let outermost = held().next().expect("visible, so held");
            let mode = if held().any(|c| c.mode == AccessMode::Write) {
                AccessMode::Write
            } else {
                AccessMode::Read
            };
            let dirty = held().any(|c| c.dirty);
            out.push((oid, outermost.version, outermost.owner, dirty, mode));
        }
        out
    }

    /// The dirty objects with the payload the innermost level sees.
    pub fn write_back_set(&self) -> Vec<(ObjectId, Payload, u64, u32)> {
        self.object_summary()
            .into_iter()
            .filter(|e| e.3)
            .map(|(oid, version, owner, ..)| {
                let payload = self.lookup(oid).expect("summarized").payload.clone();
                (oid, payload, version, owner)
            })
            .collect()
    }
}
