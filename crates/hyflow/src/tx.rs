//! Per-transaction runtime state: closed-nesting contexts, the access log,
//! checkpoints, and abort accounting.
//!
//! A live transaction is **one access log** — every object copy it holds, in
//! the order it came to hold them — under a stack of [`NestingLevel`]s, each
//! of which is a checkpoint: the length of the log and the position of the
//! program when the level opened. Level 0 is the top-level (parent)
//! transaction. `OpenNested` pushes a checkpoint. `CloseNested` pops it and
//! nothing else: the child's entries simply stay in the log, now part of the
//! enclosing level (closed-nesting semantics: *"the operations of I only
//! become part of A when I commits"*), so a nested commit is O(1) whatever
//! the child touched. An abort of a level truncates the log to the level's
//! checkpoint, rewinds the program to it, and replays only that level's work.
//! This is CCSTM's unmerged linear log, where *"a checkpoint must only
//! record the existing number of reads"* and a nested commit *"just discards
//! the checkpoint"* (SNIPPETS.md §1–2); there is no undo log because writes
//! never touch a shared copy — every payload is a copy-on-write `Arc`.
//!
//! The log is read **from the end**: the newest entry of an object is the
//! view the program sees. A level that touches an object an ancestor holds
//! appends a *shadow* entry — a copy of the ancestor's — and works on that,
//! so a child abort never corrupts the ancestor's view: truncation drops the
//! shadow and uncovers the entry beneath it. The **first** entry of an
//! object is the real fetch (version and owner to validate and publish
//! against); mode and dirtiness only ever grow from one entry of an object
//! to the next, so the newest entry carries their union.
//!
//! Lookups are linear scans of the log, 32 bytes an entry, contiguous. How
//! long it gets, measured at commit over `fig5_high` (seed 0xD57A, 2 100
//! commits per benchmark and pass): Bank 4.8 entries on average and 7 at
//! most, Vacation 3.0 / 4, DHT 3.1 / 4 — and Linked List 17.8 / 57, BST
//! 18.2 / 37, RB Tree 18.6 / 34, whose walks hold a node per hop and shadow
//! the top of the structure again in every child.

use crate::object::Payload;
use crate::program::{AccessMode, BoxedProgram, ProgramSnapshot};
use crate::small::ObjSet;
use dstm_sim::{SimTime, TimerToken};
use rts_core::{ClAccounting, Ets, ObjectId, TxId, TxKind};
use std::sync::Arc;

/// A fetched object copy inside a transaction: one entry of the access log.
///
/// The payload is shared copy-on-write: reads hand out `Arc` clones, and a
/// `WriteLocal` replaces the pointer with a freshly built payload, so
/// shadowing a copy into a nested level never deep-clones object contents.
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
    /// `true` for a level's shadow of an ancestor's copy (not fetched
    /// remotely by this level; dropping one must not release the CL
    /// accounting of the underlying fetch).
    pub shadow: bool,
}

/// One closed-nesting level: where the log and the program stood when it
/// opened. Log entries from `log_start` up to the next level's belong to it.
pub struct NestingLevel {
    pub kind: TxKind,
    log_start: u32,
    /// Nested transactions (recursively) already committed into this level.
    pub committed_children: u64,
    pub opened_at: SimTime,
    /// Program position at entry to this level; restored on retry of it.
    snapshot: ProgramSnapshot,
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
    /// Waiting for `VersionResp`s of an early/commit validation round; the
    /// objects not yet answered for are [`TxRuntime::pending`], here and in
    /// the next two phases.
    AwaitValidation {
        stale: Vec<ObjectId>,
        resume: ValidationResume,
    },
    /// Waiting for `LockResp`s on the write set. `failed` remembers the
    /// first object whose lock was refused — the object the eventual abort
    /// is attributed to.
    AwaitLocks {
        granted: Vec<ObjectId>,
        failed: Option<ObjectId>,
    },
    /// Waiting for `PublishAck`s.
    AwaitPublish,
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

/// The full runtime state of one live transaction.
///
/// `repr(C)`, hot-first: a node boxes its runtimes, so one is reached
/// through a pointer and is cold whenever its node is. What every
/// requester-side handler reads to accept or drop an event (`id`,
/// `attempt`, `phase`) and to step the program and find its objects
/// (`program`, `levels`, `log`) starts within the first two lines; what a
/// fetch or a restart reads follows; what only a commit, an abort or a
/// retry touches trails.
///
/// A node recycles its runtimes ([`TxRuntime::recycle`]): the level stack,
/// the log, the CL accounting and the round set are allocated once per
/// runtime, not per transaction.
#[repr(C)]
pub struct TxRuntime {
    pub id: TxId,
    pub attempt: u32,
    pub kind: TxKind,
    /// The executing program.
    pub program: BoxedProgram,
    /// The nesting stack; never empty (level 0 is the transaction itself).
    levels: Vec<NestingLevel>,
    /// The access log (module doc): every copy held, oldest first.
    log: Vec<(ObjectId, WorkingCopy)>,
    pub phase: TxPhase,
    /// Objects the current validation, lock or publish round still waits
    /// for. A transaction is in one round at a time, so each round refills
    /// this one set instead of allocating its own.
    pub pending: ObjSet,
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
        Self::build(id, program, now, expected_commit, wv, None)
    }

    /// Turn the runtime of a finished transaction into the runtime of a new
    /// one: exactly the state [`TxRuntime::new`] builds, in the allocations
    /// this one already owns.
    pub fn recycle(
        &mut self,
        id: TxId,
        program: BoxedProgram,
        now: SimTime,
        expected_commit: SimTime,
        wv: u64,
    ) {
        *self = Self::build(id, program, now, expected_commit, wv, Some(self));
    }

    /// The one constructor: a runtime at the start of its first attempt,
    /// its buffers taken (emptied, capacity kept) from `spent` if there is
    /// one.
    fn build(
        id: TxId,
        program: BoxedProgram,
        now: SimTime,
        expected_commit: SimTime,
        wv: u64,
        spent: Option<&mut TxRuntime>,
    ) -> Self {
        use std::mem::take;
        let (mut levels, mut log, mut cl, mut pending) = match spent {
            Some(s) => (
                take(&mut s.levels),
                take(&mut s.log),
                take(&mut s.cl),
                take(&mut s.pending),
            ),
            None => Default::default(),
        };
        log.clear();
        cl.clear();
        pending.clear();
        let kind = program.kind();
        levels.clear();
        levels.push(NestingLevel {
            kind,
            log_start: 0,
            committed_children: 0,
            opened_at: now,
            snapshot: ProgramSnapshot::of(program.as_ref()),
        });
        TxRuntime {
            id,
            kind,
            attempt: 0,
            program,
            levels,
            log,
            phase: TxPhase::Running,
            pending,
            first_started_at: now,
            attempt_started_at: now,
            expected_commit,
            wv,
            cl,
            validation_started_at: None,
            fetch_sent_at: SimTime::ZERO,
            nested_committed: 0,
            attempt_msgs: 0,
        }
    }

    /// ETS timestamps for a request issued at `now` (Algorithm 2).
    pub fn ets(&self, now: SimTime) -> Ets {
        Ets::new(self.attempt_started_at, now, self.expected_commit)
    }

    /// The nesting stack, outermost first.
    #[inline]
    pub fn levels(&self) -> &[NestingLevel] {
        &self.levels
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

    /// Log index where `level`'s entries start.
    #[inline]
    fn start_of(&self, level: usize) -> usize {
        self.levels[level].log_start as usize
    }

    /// Find the innermost copy of `oid` (the view the program reads).
    pub fn lookup(&self, oid: ObjectId) -> Option<&WorkingCopy> {
        self.log
            .iter()
            .rev()
            .find_map(|(o, c)| (*o == oid).then_some(c))
    }

    /// The *outermost* level holding `oid` — the level that must abort if
    /// the object turns out stale.
    pub fn outermost_level_holding(&self, oid: ObjectId) -> Option<usize> {
        let first = self.log.iter().position(|(o, _)| *o == oid)?;
        self.levels
            .iter()
            .rposition(|l| l.log_start as usize <= first)
    }

    /// Is `oid` held at any level?
    pub fn holds(&self, oid: ObjectId) -> bool {
        self.lookup(oid).is_some()
    }

    /// The current level's own copy of `oid`: the newest entry if the level
    /// (or a child committed into it) made it, else a shadow of that entry
    /// appended now. `None` if the object is not held anywhere.
    fn own_copy(&mut self, oid: ObjectId) -> Option<&mut WorkingCopy> {
        let newest = self.log.iter().rposition(|(o, _)| *o == oid)?;
        if newest >= self.start_of(self.top()) {
            return Some(&mut self.log[newest].1);
        }
        let mut shadow = self.log[newest].1.clone();
        shadow.shadow = true;
        self.log.push((oid, shadow));
        self.log.last_mut().map(|(_, c)| c)
    }

    /// Prepare a local access to an already-held object in the current
    /// level: shadow-copy it up from an ancestor if needed, upgrade the
    /// mode, and return a shared handle to the payload for the program
    /// (a pointer bump — contents are copy-on-write).
    ///
    /// Returns `None` if the object is not held anywhere (a remote fetch is
    /// required).
    pub fn access_held(&mut self, oid: ObjectId, mode: AccessMode) -> Option<Arc<Payload>> {
        let copy = self.own_copy(oid)?;
        if mode == AccessMode::Write {
            copy.mode = AccessMode::Write;
        }
        Some(Arc::clone(&copy.payload))
    }

    /// Install a freshly fetched copy into the current level. The level
    /// must not hold `oid` already (the executor fetches only what
    /// [`TxRuntime::access_held`] missed); an ancestor may — that fetch
    /// then dies with the level, and the level must die rather than commit.
    pub fn install_fetched(
        &mut self,
        oid: ObjectId,
        payload: Arc<Payload>,
        version: u64,
        local_cl: u32,
        owner: u32,
        mode: AccessMode,
    ) {
        debug_assert!(
            !self.log[self.start_of(self.top())..]
                .iter()
                .any(|(o, _)| *o == oid),
            "{oid:?} fetched twice by one level of {:?}",
            self.id
        );
        self.log.push((
            oid,
            WorkingCopy {
                payload,
                version,
                mode,
                owner,
                dirty: false,
                shadow: false,
            },
        ));
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
        let id = self.id;
        let Some(copy) = self.own_copy(oid) else {
            panic!("WriteLocal on {oid:?} which is not in the working set of {id:?}");
        };
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
    /// *after* emitting `OpenNested` (re-feeding `Ack` replays the child):
    /// [`ProgramSnapshot::of`] the program, or a `clone_box` of it.
    pub fn open_nested(
        &mut self,
        kind: TxKind,
        snapshot: impl Into<ProgramSnapshot>,
        now: SimTime,
    ) {
        self.levels.push(NestingLevel {
            kind,
            log_start: u32::try_from(self.log.len()).expect("access log fits u32"),
            committed_children: 0,
            opened_at: now,
            snapshot: snapshot.into(),
        });
    }

    /// Commit the innermost child into its parent (closed nesting): drop
    /// its checkpoint, so that its log entries are the enclosing level's;
    /// its committed-children count rolls up.
    ///
    /// Panics if called at top level (programs must balance Open/Close).
    pub fn close_nested(&mut self) {
        assert!(
            self.in_nested(),
            "CloseNested at top level in {:?}",
            self.id
        );
        let child = self.levels.pop().expect("len > 1");
        let parent = self.levels.last_mut().expect("parent exists");
        parent.committed_children += 1 + child.committed_children;
    }

    /// Roll back levels `level..`: truncate the log to `level`'s checkpoint
    /// and rewind the program to it. Releases CL accounting for fetches
    /// dropped with the rolled-back entries. Returns the Table-I
    /// accounting.
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

        // Release CL accounting for the real fetches among the dying
        // entries (shadows release nothing) — unless a surviving ancestor
        // holds its own fetch of the same object.
        let keep = self.start_of(level);
        let (kept, dying) = self.log.split_at(keep);
        for (oid, copy) in dying {
            if !copy.shadow && !kept.iter().any(|(o, _)| o == oid) {
                self.cl.object_released(*oid);
            }
        }
        self.log.truncate(keep);
        self.levels.truncate(level + 1);
        let retained = &mut self.levels[level];
        retained.committed_children = 0;
        retained.snapshot.restore(&mut self.program);
        acc
    }

    /// Begin a fresh whole-transaction attempt. The attempt before it was
    /// rolled back by [`TxRuntime::abort_to_level`]`(0)`, which is where the
    /// log was emptied and the program rewound — once, not again here.
    pub fn restart(&mut self, now: SimTime, expected_commit: SimTime, wv: u64) {
        debug_assert!(
            !self.in_nested() && self.log.is_empty(),
            "restart of {:?} before abort_to_level(0)",
            self.id
        );
        self.attempt += 1;
        self.levels[0].opened_at = now;
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
        !self.log.is_empty()
    }

    /// Distinct objects across all levels with their outermost fetch info:
    /// `(oid, version, owner, dirty_anywhere, mode_anywhere)`, sorted by
    /// object id — into a caller-provided buffer, so the protocol paths
    /// reuse one allocation per node. Clears `out` first. The
    /// membership test scans `out` itself (it holds exactly the oids seen so
    /// far); the log is short (module doc), so the scan beats any auxiliary
    /// structure.
    pub fn object_summary_into(&self, out: &mut Vec<(ObjectId, u64, u32, bool, AccessMode)>) {
        out.clear();
        for (oid, c) in &self.log {
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
        // Keys are distinct, so unstable sorting is deterministic.
        out.sort_unstable_by_key(|e| e.0);
    }

    /// The publish set: objects dirtied anywhere in the transaction with the
    /// payload of the innermost copy (shared, not deep-cloned) — into
    /// caller-provided buffers (`summary` receives the object summary it is
    /// derived from). Clears both first.
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

    /// What `level` holds, one copy per object: its own fetches, its shadows
    /// of ancestors' copies, and what its committed children left it, each
    /// object's entries folded the way a merge of the child into the parent
    /// would — identity (version, owner, shadow) from the first, payload
    /// from the last, mode and dirtiness accumulated. The verification
    /// surface ([`crate::Node::protocol_fingerprint`],
    /// [`crate::Node::local_invariants`]) hashes and checks the state per
    /// level; the protocol never asks. Allocates.
    pub fn level_copies(&self, level: usize) -> Vec<(ObjectId, WorkingCopy)> {
        let end = match self.levels.get(level + 1) {
            Some(next) => next.log_start as usize,
            None => self.log.len(),
        };
        let mut out: Vec<(ObjectId, WorkingCopy)> = Vec::new();
        for (oid, c) in &self.log[self.start_of(level)..end] {
            match out.iter_mut().find(|(o, _)| o == oid) {
                None => out.push((*oid, c.clone())),
                Some((_, held)) => {
                    held.payload = Arc::clone(&c.payload);
                    held.dirty = held.dirty || c.dirty;
                    if c.mode == AccessMode::Write {
                        held.mode = AccessMode::Write;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a handler reads to accept an event, step the program and find
    /// its objects ends (or, for the phase, starts) inside the runtime's
    /// first two cache lines; the runtime has shrunk (312 bytes with a
    /// pristine program, a spare-level pool and a per-round set per phase),
    /// and a nesting level is one line with no collection in it.
    #[test]
    fn what_a_handler_reads_first_leads_the_runtime() {
        use std::mem::{offset_of, size_of};
        assert!(offset_of!(TxRuntime, id) + size_of::<TxId>() <= 128);
        assert!(offset_of!(TxRuntime, attempt) + size_of::<u32>() <= 128);
        assert!(offset_of!(TxRuntime, program) + size_of::<BoxedProgram>() <= 128);
        assert!(offset_of!(TxRuntime, levels) + size_of::<Vec<NestingLevel>>() <= 128);
        assert!(offset_of!(TxRuntime, log) + size_of::<Vec<(ObjectId, WorkingCopy)>>() <= 128);
        assert!(offset_of!(TxRuntime, phase) < 128);
        assert!(size_of::<TxRuntime>() <= 272);
        assert!(size_of::<NestingLevel>() <= 64);
        assert_eq!(size_of::<(ObjectId, WorkingCopy)>(), 32);
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
        let parents = tx.level_copies(0);
        assert_eq!(parents.len(), 1);
        assert_eq!(*parents[0].1.payload, Payload::Scalar(10));
        assert!(!parents[0].1.shadow && tx.level_copies(1)[0].1.shadow);
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
        assert_eq!(tx.levels().len(), 2, "child level retained for retry");
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
        assert_eq!(tx.levels().len(), 1);
        assert_eq!(tx.levels()[0].committed_children, 1);
        // The parent's merged view: its own fetch of object 1 with the
        // child's payload and dirtiness, and the child's fetch of object 2.
        let merged = tx.level_copies(0);
        assert_eq!(merged.len(), 2);
        assert_eq!((merged[0].0, merged[1].0), (ObjectId(1), ObjectId(2)));
        assert!(merged[0].1.dirty && !merged[0].1.shadow && !merged[1].1.shadow);
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
        assert_eq!(tx.levels().len(), 1);
        assert!(!tx.has_objects());
    }

    #[test]
    fn nested_child_abort_counts_grandchildren_as_parent_cause() {
        let mut tx = mk_tx();
        tx.open_nested(TxKind(2), tx.program.clone_box(), SimTime(2_000));
        // Grandchild commits into the child.
        tx.open_nested(TxKind(3), tx.program.clone_box(), SimTime(2_500));
        tx.close_nested();
        assert_eq!(tx.levels()[1].committed_children, 1);
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
        tx.abort_to_level(0);
        tx.restart(SimTime(5_000), SimTime(60_000_000), 7);
        assert_eq!(tx.attempt, 1);
        assert_eq!(tx.attempt_msgs, 0);
        assert_eq!(tx.levels().len(), 1);
        assert!(!tx.has_objects());
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
