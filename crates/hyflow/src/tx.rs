//! Per-transaction runtime state: closed-nesting contexts, working copies,
//! snapshots, and abort accounting.
//!
//! A live transaction is a stack of [`NestingLevel`]s. Level 0 is the
//! top-level (parent) transaction; `OpenNested` pushes a level and
//! `CloseNested` merges the top level into its parent (closed-nesting
//! semantics: *"the operations of I only become part of A when I
//! commits"*). Each level snapshots the program state at entry so an abort
//! of that level replays only that level's work.
//!
//! Object copies are **shadowed per level**: a child that touches an object
//! already held by an ancestor gets its own copy, so a child abort never
//! corrupts the ancestor's view.

use crate::object::Payload;
use crate::program::{AccessMode, BoxedProgram};
use crate::small::{ObjMap, ObjSet};
use dstm_sim::{SimTime, TimerToken};
use rts_core::{ClAccounting, Ets, ObjectId, TxId, TxKind};
use std::sync::Arc;

/// A fetched object copy inside a transaction.
///
/// The payload is shared copy-on-write: reads hand out `Arc` clones, and a
/// `WriteLocal` replaces the pointer with a freshly built payload, so
/// shadowing a copy into a nested level or merging it back up never deep-
/// clones object contents.
#[derive(Clone, Debug)]
pub struct WorkingCopy {
    pub payload: Arc<Payload>,
    /// Version observed at fetch time (validated at commit).
    pub version: u64,
    /// Strongest access mode so far.
    pub mode: AccessMode,
    /// Node the copy was fetched from (lock/publish/validation target).
    pub owner: u32,
    /// Whether the transaction overwrote the copy (publish set membership).
    pub dirty: bool,
    /// `true` for per-level shadows of an ancestor's copy (not fetched
    /// remotely by this level; releasing one must not release the CL
    /// accounting of the underlying fetch).
    pub shadow: bool,
}

/// One closed-nesting level.
pub struct NestingLevel {
    pub kind: TxKind,
    pub copies: ObjMap<WorkingCopy>,
    /// Program state at entry to this level; restored on retry of the level.
    pub snapshot: BoxedProgram,
    /// Nested transactions (recursively) already committed into this level.
    pub committed_children: u64,
    pub opened_at: SimTime,
}

/// Where the transaction currently is in its protocol state machine.
#[derive(Debug)]
pub enum TxPhase {
    /// Being stepped right now (transient inside the executor).
    Running,
    /// Waiting for a `ComputeDone` timer.
    Computing,
    /// Waiting for an `ObjResp` for `oid`.
    AwaitObject { oid: ObjectId, mode: AccessMode },
    /// Enqueued at the owner (RTS); waiting for the object or the deadline.
    AwaitQueuedObject {
        oid: ObjectId,
        mode: AccessMode,
        timer: TimerToken,
    },
    /// Waiting for `VersionResp`s of an early/commit validation round.
    AwaitValidation {
        pending: ObjSet,
        stale: Vec<ObjectId>,
        resume: ValidationResume,
    },
    /// Waiting for `LockResp`s on the write set. `failed` remembers the
    /// first object whose lock was refused — the object the eventual abort
    /// is attributed to.
    AwaitLocks {
        pending: ObjSet,
        granted: Vec<ObjectId>,
        failed: Option<ObjectId>,
    },
    /// Waiting for `PublishAck`s.
    AwaitPublish { pending: ObjSet },
    /// Aborted with a retry backoff; waiting for `RetryBackoff`.
    BackedOff,
    /// A child level aborted with a retry backoff; waiting for
    /// `RetryBackoff` to replay the child only.
    ChildBackedOff,
    /// Committed; kept only transiently before removal.
    Done,
}

/// What to do after a validation round succeeds.
#[derive(Debug)]
pub enum ValidationResume {
    /// Transactional forwarding: deliver the stashed fetched object.
    Deliver {
        oid: ObjectId,
        payload: Arc<Payload>,
        version: u64,
        local_cl: u32,
        owner: u32,
        mode: AccessMode,
    },
    /// Commit-time read-set validation: proceed to publish/finalize.
    Commit,
}

/// Result of rolling back (part of) a transaction — feeds Table I.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AbortAccounting {
    /// Nested aborts caused by their own conflict.
    pub nested_own: u64,
    /// Nested aborts caused by an ancestor's abort.
    pub nested_parent: u64,
    /// Whether the top level itself aborted.
    pub parent_aborted: bool,
}

/// Terminal state of a transaction attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxOutcome {
    Committed,
    Aborted,
}

/// The full runtime state of one live transaction.
///
/// `repr(C)`, hot-first: a node boxes its runtimes, so one is reached
/// through a pointer and is cold whenever its node is. What every
/// requester-side handler reads to accept or drop an event (`id`,
/// `attempt`, `phase`) and to step the program (`program`, `levels`) starts
/// within the first two lines; what a fetch or a restart reads follows;
/// what only a commit, an abort or a retry touches trails.
#[repr(C)]
pub struct TxRuntime {
    pub id: TxId,
    pub attempt: u32,
    pub kind: TxKind,
    /// The executing program.
    pub program: BoxedProgram,
    pub levels: Vec<NestingLevel>,
    pub phase: TxPhase,
    /// TFA write-version clock (forwarded on fetches).
    pub wv: u64,
    /// Requester-side CL accounting (`myCL`).
    pub cl: ClAccounting,
    /// Current attempt's start (`ETS.s`).
    pub attempt_started_at: SimTime,
    /// `ETS.c` for the current attempt, from the stats table.
    pub expected_commit: SimTime,
    /// When the outstanding object fetch was sent (requester-side RTT
    /// sample; transactions have at most one fetch in flight).
    pub fetch_sent_at: SimTime,
    /// Protocol messages sent by the current attempt. Reset on restart;
    /// read at abort time to count the messages an abort discards
    /// (wasted-work accounting).
    pub attempt_msgs: u64,
    /// Set when the commit protocol starts (stats-table validation sample).
    pub validation_started_at: Option<SimTime>,
    /// Closed-nested children merged over this transaction's lifetime
    /// (across attempts; mirrors the node-level `nested_commits` counter).
    pub nested_committed: u64,
    /// First attempt's start (for end-to-end latency).
    pub first_started_at: SimTime,
    /// Pristine program for whole-transaction retries.
    pub pristine: BoxedProgram,
    /// Spent [`NestingLevel`]s kept for reuse. `OpenNested`/`CloseNested`
    /// cycles are protocol-hot (several per commit in the nested
    /// benchmarks); recycling levels keeps their `copies` capacity, so the
    /// steady-state open/close path stops growing fresh vecs.
    spare_levels: Vec<NestingLevel>,
    /// Scratch of [`TxRuntime::abort_to_level`] (the fetches a rollback
    /// drops), kept for its capacity: aborts outnumber commits several
    /// times over under contention.
    dropped: Vec<ObjectId>,
}

impl TxRuntime {
    /// Leading cache lines that hold everything short of the commit /
    /// abort / retry tail (which starts at `validation_started_at`).
    pub(crate) const HOT_LINES: usize =
        std::mem::offset_of!(TxRuntime, validation_started_at).div_ceil(dstm_sim::CACHE_LINE);

    pub fn new(
        id: TxId,
        program: BoxedProgram,
        now: SimTime,
        expected_commit: SimTime,
        wv: u64,
    ) -> Self {
        let kind = program.kind();
        let pristine = program.clone_box();
        let snapshot = program.clone_box();
        TxRuntime {
            id,
            kind,
            attempt: 0,
            program,
            pristine,
            levels: vec![NestingLevel {
                kind,
                copies: ObjMap::new(),
                snapshot,
                committed_children: 0,
                opened_at: now,
            }],
            phase: TxPhase::Running,
            first_started_at: now,
            attempt_started_at: now,
            expected_commit,
            wv,
            cl: ClAccounting::new(),
            validation_started_at: None,
            fetch_sent_at: SimTime::ZERO,
            nested_committed: 0,
            attempt_msgs: 0,
            spare_levels: Vec::new(),
            dropped: Vec::new(),
        }
    }

    /// A level for `push`ing onto the nesting stack: recycles a spare when
    /// one exists (keeping its `copies` capacity), else builds one fresh.
    fn make_level(&mut self, kind: TxKind, snapshot: BoxedProgram, now: SimTime) -> NestingLevel {
        match self.spare_levels.pop() {
            Some(mut l) => {
                debug_assert!(l.copies.is_empty(), "spare level not cleared");
                l.kind = kind;
                l.snapshot = snapshot;
                l.committed_children = 0;
                l.opened_at = now;
                l
            }
            None => NestingLevel {
                kind,
                copies: ObjMap::new(),
                snapshot,
                committed_children: 0,
                opened_at: now,
            },
        }
    }

    /// Return a dead level to the spare pool, clearing its working set.
    fn retire_level(&mut self, mut level: NestingLevel) {
        level.copies.clear();
        self.spare_levels.push(level);
    }

    /// ETS timestamps for a request issued at `now` (Algorithm 2).
    pub fn ets(&self, now: SimTime) -> Ets {
        Ets::new(self.attempt_started_at, now, self.expected_commit)
    }

    /// Innermost level index.
    #[inline]
    pub fn top(&self) -> usize {
        self.levels.len() - 1
    }

    /// Whether the transaction is currently inside a nested child.
    #[inline]
    pub fn in_nested(&self) -> bool {
        self.levels.len() > 1
    }

    /// Find the innermost copy of `oid` (the view the program reads).
    pub fn lookup(&self, oid: ObjectId) -> Option<&WorkingCopy> {
        self.levels.iter().rev().find_map(|l| l.copies.get(&oid))
    }

    /// The *outermost* level holding `oid` — the level that must abort if
    /// the object turns out stale.
    pub fn outermost_level_holding(&self, oid: ObjectId) -> Option<usize> {
        self.levels.iter().position(|l| l.copies.contains_key(&oid))
    }

    /// Is `oid` held at any level?
    pub fn holds(&self, oid: ObjectId) -> bool {
        self.lookup(oid).is_some()
    }

    /// Prepare a local access to an already-held object in the current
    /// level: shadow-copy it up from an ancestor if needed, upgrade the
    /// mode, and return a shared handle to the payload for the program
    /// (a pointer bump — contents are copy-on-write).
    ///
    /// Returns `None` if the object is not held anywhere (a remote fetch is
    /// required).
    pub fn access_held(&mut self, oid: ObjectId, mode: AccessMode) -> Option<Arc<Payload>> {
        let top = self.top();
        if !self.levels[top].copies.contains_key(&oid) {
            // Shadow an ancestor's copy into the current level.
            let from_ancestor = self
                .levels
                .iter()
                .rev()
                .skip(1)
                .find_map(|l| l.copies.get(&oid))?
                .clone();
            let mut shadow = from_ancestor;
            shadow.shadow = true;
            self.levels[top].copies.insert(oid, shadow);
        }
        let copy = self.levels[top]
            .copies
            .get_mut(&oid)
            .expect("just ensured present");
        if mode == AccessMode::Write {
            copy.mode = AccessMode::Write;
        }
        Some(Arc::clone(&copy.payload))
    }

    /// Install a freshly fetched copy into the current level.
    pub fn install_fetched(
        &mut self,
        oid: ObjectId,
        payload: Arc<Payload>,
        version: u64,
        local_cl: u32,
        owner: u32,
        mode: AccessMode,
    ) {
        let top = self.top();
        self.levels[top].copies.insert(
            oid,
            WorkingCopy {
                payload,
                version,
                mode,
                owner,
                dirty: false,
                shadow: false,
            },
        );
        self.cl.object_received(oid, local_cl);
    }

    /// Install a cached read copy (`DstmConfig::cache`) into the current
    /// level. Identical to [`TxRuntime::install_fetched`] — a reused copy is
    /// a working copy like any other and goes through the same commit-time
    /// validation — but takes the retained [`CachedCopy`] directly.
    pub fn reuse_cached(
        &mut self,
        oid: ObjectId,
        cached: &crate::object::CachedCopy,
        mode: AccessMode,
    ) {
        self.install_fetched(
            oid,
            Arc::clone(&cached.payload),
            cached.version,
            cached.local_cl,
            cached.owner,
            mode,
        );
    }

    /// Apply a `WriteLocal`. The object must be held with write intent
    /// (benchmarks acquire before writing); it is shadowed into the current
    /// level if an ancestor holds it.
    pub fn write_local(&mut self, oid: ObjectId, payload: Payload) {
        let had = self.access_held(oid, AccessMode::Write);
        assert!(
            had.is_some(),
            "WriteLocal on {oid:?} which is not in the working set of {:?}",
            self.id
        );
        let top = self.top();
        let copy = self.levels[top].copies.get_mut(&oid).expect("shadowed");
        // Overwrite in place when this copy is the sole owner (the common
        // case after the first write): saves an Arc allocation per
        // `WriteLocal`. Shared payloads (fresh fetches, shadows of an
        // ancestor's copy) still get a fresh Arc, preserving copy-on-write.
        match Arc::get_mut(&mut copy.payload) {
            Some(p) => *p = payload,
            None => copy.payload = Arc::new(payload),
        }
        copy.dirty = true;
        copy.mode = AccessMode::Write;
    }

    /// Enter a closed-nested child. `snapshot` must be the program state
    /// *after* emitting `OpenNested` (re-feeding `Ack` replays the child).
    pub fn open_nested(&mut self, kind: TxKind, snapshot: BoxedProgram, now: SimTime) {
        let level = self.make_level(kind, snapshot, now);
        self.levels.push(level);
    }

    /// Commit the innermost child into its parent (closed nesting): its
    /// copies merge into the enclosing level; its committed-children count
    /// rolls up.
    ///
    /// Panics if called at top level (programs must balance Open/Close).
    pub fn close_nested(&mut self) {
        assert!(
            self.in_nested(),
            "CloseNested at top level in {:?}",
            self.id
        );
        let mut child = self.levels.pop().expect("len > 1");
        let parent = self.levels.last_mut().expect("parent exists");
        for (oid, copy) in child.copies.drain() {
            match parent.copies.get_mut(&oid) {
                Some(existing) => {
                    // The child's view is newer; mode/dirtiness accumulate.
                    existing.payload = copy.payload;
                    existing.dirty = existing.dirty || copy.dirty;
                    if copy.mode == AccessMode::Write {
                        existing.mode = AccessMode::Write;
                    }
                }
                None => {
                    // First fetched by the child; the parent inherits it
                    // (including CL accounting, which is per-transaction).
                    parent.copies.insert(oid, copy);
                }
            }
        }
        parent.committed_children += 1 + child.committed_children;
        self.retire_level(child);
    }

    /// Roll back levels `level..`, restoring the program snapshot of
    /// `level`. Releases CL accounting for fetches dropped with the rolled-
    /// back levels. Returns the Table-I accounting.
    ///
    /// `level == 0` is a whole-transaction abort.
    pub fn abort_to_level(&mut self, level: usize) -> AbortAccounting {
        assert!(level < self.levels.len());
        let mut acc = AbortAccounting::default();

        // Children already committed into any surviving-or-dying level at or
        // above `level` are destroyed by this rollback -> parent-abort cause.
        let committed_destroyed: u64 = self.levels[level..]
            .iter()
            .map(|l| l.committed_children)
            .sum();
        // In-flight nested levels strictly above `level` die because an
        // ancestor aborts -> parent-abort cause.
        let inflight_above = (self.levels.len() - 1 - level) as u64;
        acc.nested_parent = committed_destroyed + inflight_above;
        if level > 0 {
            // The aborting level itself is a nested transaction failing for
            // its own reasons.
            acc.nested_own = 1;
        } else {
            acc.parent_aborted = true;
        }

        // Release CL accounting for real fetches held by dying levels; keep
        // fetches owned by surviving ancestors (shadows release nothing).
        let mut dropped = std::mem::take(&mut self.dropped);
        for l in &self.levels[level..] {
            for (oid, copy) in &l.copies {
                if !copy.shadow {
                    dropped.push(*oid);
                }
            }
        }
        while self.levels.len() > level + 1 {
            let dead = self.levels.pop().expect("level stack shrinking");
            self.retire_level(dead);
        }
        let retained = &mut self.levels[level];
        retained.copies.clear();
        retained.committed_children = 0;
        for oid in dropped.drain(..) {
            // An ancestor below `level` may still hold its own fetch of the
            // same oid; only release if nobody below holds it.
            if !self.levels[..level]
                .iter()
                .any(|l| l.copies.contains_key(&oid))
            {
                self.cl.object_released(oid);
            }
        }
        self.dropped = dropped;
        self.program = self.levels[level].snapshot.clone_box();
        acc
    }

    /// Reset for a fresh whole-transaction attempt.
    pub fn restart(&mut self, now: SimTime, expected_commit: SimTime, wv: u64) {
        self.attempt += 1;
        self.program = self.pristine.clone_box();
        let snapshot = self.pristine.clone_box();
        while let Some(dead) = self.levels.pop() {
            self.retire_level(dead);
        }
        let level = self.make_level(self.kind, snapshot, now);
        self.levels.push(level);
        self.phase = TxPhase::Running;
        self.attempt_started_at = now;
        self.expected_commit = expected_commit;
        self.wv = wv;
        self.cl.clear();
        self.validation_started_at = None;
        self.attempt_msgs = 0;
    }

    /// Virtual nanoseconds the current attempt has been running — the work
    /// an abort at `now` throws away.
    #[inline]
    pub fn wasted_ns_at(&self, now: SimTime) -> u64 {
        now.0.saturating_sub(self.attempt_started_at.0)
    }

    /// Does the transaction hold any object at any level? Allocation-free
    /// equivalent of a non-empty [`TxRuntime::object_summary_into`].
    #[inline]
    pub fn has_objects(&self) -> bool {
        self.levels.iter().any(|l| !l.copies.is_empty())
    }

    /// Distinct objects across all levels with their outermost fetch info:
    /// `(oid, version, owner, dirty_anywhere, mode_anywhere)`, sorted by
    /// object id — into a caller-provided buffer, so the protocol paths
    /// reuse one allocation per node. Clears `out` first. The
    /// membership test scans `out` itself (it holds exactly the oids seen so
    /// far), replacing the old side `ObjSet`; working sets are a handful of
    /// objects, so the scan beats any auxiliary structure.
    pub fn object_summary_into(&self, out: &mut Vec<(ObjectId, u64, u32, bool, AccessMode)>) {
        out.clear();
        for l in &self.levels {
            for (oid, c) in &l.copies {
                match out.iter_mut().find(|e| e.0 == *oid) {
                    None => out.push((*oid, c.version, c.owner, c.dirty, c.mode)),
                    Some(entry) => {
                        entry.3 = entry.3 || c.dirty;
                        if c.mode == AccessMode::Write {
                            entry.4 = AccessMode::Write;
                        }
                    }
                }
            }
        }
        // Keys are distinct, so unstable sorting is deterministic.
        out.sort_unstable_by_key(|e| e.0);
    }

    /// The publish set: objects dirtied anywhere in the (merged) transaction
    /// with the payload of the innermost copy (shared, not deep-cloned) —
    /// into caller-provided buffers (`summary` receives the object summary
    /// it is derived from). Clears both first.
    pub fn write_back_set_into(
        &self,
        summary: &mut Vec<(ObjectId, u64, u32, bool, AccessMode)>,
        out: &mut Vec<(ObjectId, Arc<Payload>, u64, u32)>,
    ) {
        out.clear();
        self.object_summary_into(summary);
        for &(oid, version, owner, dirty, _mode) in summary.iter() {
            if dirty {
                let payload =
                    Arc::clone(&self.lookup(oid).expect("summarized object present").payload);
                out.push((oid, payload, version, owner));
            }
        }
    }

    /// Report on the total nested-transaction population of this attempt so
    /// far (committed children across live levels + live nested levels).
    pub fn live_nested_population(&self) -> u64 {
        let committed: u64 = self.levels.iter().map(|l| l.committed_children).sum();
        committed + (self.levels.len() as u64 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a handler reads to accept an event and step the program ends
    /// (or, for the 88-byte phase, starts) inside the runtime's first two
    /// cache lines, and the runtime has not grown.
    #[test]
    fn what_a_handler_reads_first_leads_the_runtime() {
        use std::mem::{offset_of, size_of};
        assert!(offset_of!(TxRuntime, id) + size_of::<TxId>() <= 128);
        assert!(offset_of!(TxRuntime, attempt) + size_of::<u32>() <= 128);
        assert!(offset_of!(TxRuntime, program) + size_of::<BoxedProgram>() <= 128);
        assert!(offset_of!(TxRuntime, levels) + size_of::<Vec<NestingLevel>>() <= 128);
        assert!(offset_of!(TxRuntime, phase) < 128);
        assert!(size_of::<TxRuntime>() <= 312);
    }

    /// Allocating forms of the `_into` methods, for assertions only.
    fn object_summary(tx: &TxRuntime) -> Vec<(ObjectId, u64, u32, bool, AccessMode)> {
        let mut out = Vec::new();
        tx.object_summary_into(&mut out);
        out
    }

    fn write_back_set(tx: &TxRuntime) -> Vec<(ObjectId, Arc<Payload>, u64, u32)> {
        let (mut summary, mut out) = (Vec::new(), Vec::new());
        tx.write_back_set_into(&mut summary, &mut out);
        out
    }
    use crate::program::{ScriptOp, ScriptProgram};

    fn mk_tx() -> TxRuntime {
        let p = ScriptProgram::new(TxKind(1), vec![ScriptOp::Read(ObjectId(1))]);
        TxRuntime::new(
            TxId::new(0, 1),
            Box::new(p),
            SimTime(1_000),
            SimTime(50_000_000),
            0,
        )
    }

    fn install(tx: &mut TxRuntime, oid: u64, val: i64, mode: AccessMode) {
        tx.install_fetched(ObjectId(oid), Arc::new(Payload::Scalar(val)), 1, 0, 0, mode);
    }

    #[test]
    fn lookup_prefers_innermost() {
        let mut tx = mk_tx();
        install(&mut tx, 1, 10, AccessMode::Read);
        tx.open_nested(TxKind(2), tx.program.clone_box(), SimTime(2_000));
        // Child reads o1: gets a shadow of the parent's copy.
        let v = tx.access_held(ObjectId(1), AccessMode::Read).unwrap();
        assert_eq!(*v, Payload::Scalar(10));
        // Child writes its shadow.
        tx.write_local(ObjectId(1), Payload::Scalar(99));
        assert_eq!(
            *tx.lookup(ObjectId(1)).unwrap().payload,
            Payload::Scalar(99)
        );
        // Parent's own copy (level 0) is untouched.
        assert_eq!(
            *tx.levels[0].copies[&ObjectId(1)].payload,
            Payload::Scalar(10)
        );
    }

    #[test]
    fn child_abort_discards_shadow() {
        let mut tx = mk_tx();
        install(&mut tx, 1, 10, AccessMode::Write);
        tx.open_nested(TxKind(2), tx.program.clone_box(), SimTime(2_000));
        tx.write_local(ObjectId(1), Payload::Scalar(99));
        let acc = tx.abort_to_level(1);
        assert_eq!(acc.nested_own, 1);
        assert_eq!(acc.nested_parent, 0);
        assert!(!acc.parent_aborted);
        assert_eq!(
            *tx.lookup(ObjectId(1)).unwrap().payload,
            Payload::Scalar(10)
        );
        assert!(!tx.lookup(ObjectId(1)).unwrap().dirty);
        assert_eq!(tx.levels.len(), 2, "child level retained for retry");
    }

    #[test]
    fn child_commit_merges_into_parent() {
        let mut tx = mk_tx();
        install(&mut tx, 1, 10, AccessMode::Read);
        tx.open_nested(TxKind(2), tx.program.clone_box(), SimTime(2_000));
        // Child fetches a new object and updates the parent's one.
        install(&mut tx, 2, 20, AccessMode::Write);
        tx.write_local(ObjectId(2), Payload::Scalar(21));
        tx.write_local(ObjectId(1), Payload::Scalar(11));
        tx.close_nested();
        assert_eq!(tx.levels.len(), 1);
        assert_eq!(tx.levels[0].committed_children, 1);
        assert_eq!(
            *tx.lookup(ObjectId(1)).unwrap().payload,
            Payload::Scalar(11)
        );
        assert!(tx.lookup(ObjectId(1)).unwrap().dirty);
        assert_eq!(
            *tx.lookup(ObjectId(2)).unwrap().payload,
            Payload::Scalar(21)
        );
    }

    #[test]
    fn parent_abort_counts_committed_children() {
        let mut tx = mk_tx();
        // Two committed children, then one in-flight child.
        for oid in [10u64, 11] {
            tx.open_nested(TxKind(2), tx.program.clone_box(), SimTime(2_000));
            install(&mut tx, oid, 0, AccessMode::Write);
            tx.close_nested();
        }
        tx.open_nested(TxKind(2), tx.program.clone_box(), SimTime(3_000));
        let acc = tx.abort_to_level(0);
        assert!(acc.parent_aborted);
        assert_eq!(acc.nested_own, 0);
        assert_eq!(acc.nested_parent, 3, "2 committed + 1 in-flight");
        assert_eq!(tx.levels.len(), 1);
        assert!(tx.levels[0].copies.is_empty());
    }

    #[test]
    fn nested_child_abort_counts_grandchildren_as_parent_cause() {
        let mut tx = mk_tx();
        tx.open_nested(TxKind(2), tx.program.clone_box(), SimTime(2_000));
        // Grandchild commits into the child.
        tx.open_nested(TxKind(3), tx.program.clone_box(), SimTime(2_500));
        tx.close_nested();
        assert_eq!(tx.levels[1].committed_children, 1);
        // Child aborts for its own reasons.
        let acc = tx.abort_to_level(1);
        assert_eq!(acc.nested_own, 1);
        assert_eq!(acc.nested_parent, 1, "grandchild died with its parent");
    }

    #[test]
    fn cl_released_on_abort_unless_held_below() {
        let mut tx = mk_tx();
        install(&mut tx, 1, 10, AccessMode::Read); // parent fetch, CL 0
        tx.cl.object_received(ObjectId(1), 2);
        tx.open_nested(TxKind(2), tx.program.clone_box(), SimTime(2_000));
        install(&mut tx, 2, 20, AccessMode::Read);
        tx.cl.object_received(ObjectId(2), 3);
        assert_eq!(tx.cl.my_cl(), 5);
        tx.abort_to_level(1);
        assert_eq!(tx.cl.my_cl(), 2, "child fetch released, parent fetch kept");
    }

    #[test]
    fn write_back_set_dedups_and_uses_innermost_payload() {
        let mut tx = mk_tx();
        install(&mut tx, 1, 10, AccessMode::Write);
        tx.write_local(ObjectId(1), Payload::Scalar(11));
        tx.open_nested(TxKind(2), tx.program.clone_box(), SimTime(2_000));
        tx.write_local(ObjectId(1), Payload::Scalar(12));
        let wbs = write_back_set(&tx);
        assert_eq!(wbs.len(), 1);
        assert_eq!(*wbs[0].1, Payload::Scalar(12));
    }

    #[test]
    fn restart_resets_everything() {
        let mut tx = mk_tx();
        install(&mut tx, 1, 10, AccessMode::Write);
        tx.open_nested(TxKind(2), tx.program.clone_box(), SimTime(2_000));
        tx.attempt_msgs = 9;
        assert_eq!(tx.wasted_ns_at(SimTime(4_500)), 3_500);
        tx.restart(SimTime(5_000), SimTime(60_000_000), 7);
        assert_eq!(tx.attempt, 1);
        assert_eq!(tx.attempt_msgs, 0);
        assert_eq!(tx.levels.len(), 1);
        assert!(tx.levels[0].copies.is_empty());
        assert_eq!(tx.wv, 7);
        assert_eq!(tx.cl.my_cl(), 0);
        assert_eq!(tx.attempt_started_at, SimTime(5_000));
    }

    #[test]
    fn ets_reflects_attempt_times() {
        let mut tx = mk_tx();
        tx.restart(SimTime(10_000_000), SimTime(70_000_000), 0);
        let ets = tx.ets(SimTime(30_000_000));
        assert_eq!(ets.executed_so_far().as_millis(), 20);
        assert_eq!(ets.expected_remaining().as_millis(), 40);
    }

    #[test]
    fn object_summary_merges_modes() {
        let mut tx = mk_tx();
        install(&mut tx, 1, 10, AccessMode::Read);
        tx.open_nested(TxKind(2), tx.program.clone_box(), SimTime(2_000));
        tx.write_local(ObjectId(1), Payload::Scalar(11));
        let summary = object_summary(&tx);
        assert_eq!(summary.len(), 1);
        let (oid, _v, _o, dirty, mode) = summary[0];
        assert_eq!(oid, ObjectId(1));
        assert!(dirty);
        assert_eq!(mode, AccessMode::Write);
    }
}
