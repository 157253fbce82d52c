//! The per-node TM proxy: object owner, directory participant, transaction
//! executor, and scheduler host.
//!
//! Each [`Node`] is a [`dstm_sim::Actor`]. It plays two roles at once:
//!
//! * **Owner side** — serves `ObjReq` fetches (Algorithm 3,
//!   `Retrieve_Request`), forwarding along tombstone chains when ownership
//!   has moved; resolves conflicts on locked objects through its
//!   [`ConflictPolicy`]; hands queued requesters the object on release
//!   (Algorithm 4, `Retrieve_Response`); participates in TFA commits
//!   (lock → validate → publish).
//! * **Requester side** — drives its transactions' [`TxProgram`](crate::TxProgram)s
//!   (Algorithm 2, `Open_Object`), performs TFA transactional forwarding
//!   with early validation, runs the commit protocol, and retries aborted
//!   transactions (immediately, after a backoff, or from an RTS queue
//!   deadline).

use crate::config::DstmConfig;
use crate::message::{FetchReq, FetchResult, Msg, Timer};
use crate::metrics::{AbortCause, NestedAbortCause, NodeCounters, RunHistograms};
use crate::object::{CachedCopy, OwnedObject, Payload};
use crate::program::{AccessMode, BoxedProgram, ProgramSnapshot, StepInput, StepOutput};
use crate::small::Fnv64;
use crate::telemetry::{Telemetry, TelemetryReport, EPOCH};
use crate::trace::{ProtoEvent, ProtoTrace, Verdict};
use crate::tx::{TxPhase, TxRuntime, ValidationResume};
use dstm_net::Topology;
use dstm_sim::{prefetch, Actor, ActorId, Ctx, KernelEvent, SimDuration, SimTime, CACHE_LINE};
use rts_core::{
    ConflictCtx, ConflictPolicy, Decision, FxHashMap, ObjectClWindow, ObjectId, Requester,
    SchedulingTable, StatsTable, TxId,
};
use std::collections::VecDeque;
use std::hash::Hash;
use std::sync::Arc;

/// Minimum local hop latency, so that node-local protocol messages always
/// advance virtual time (models intra-node IPC; also guarantees the event
/// loop cannot spin at one instant on local retries).
const LOCAL_HOP: SimDuration = SimDuration::from_micros(30);

/// Program steps one [`Node::drive`] activation may take without blocking
/// on the network or a timer — orders of magnitude above the longest
/// legitimate traversal (a list or tree walk over already-held objects is a
/// few hundred steps). A program that gets here is walking a cycle, which
/// only an inconsistent view can contain; see [`Node::abort_zombie`].
const DRIVE_STEP_LIMIT: u32 = 1 << 16;

type NodeCtx<'a> = Ctx<'a, Msg, Timer>;

/// Marks an absent `u32` in an [`ObjEntry`]. Never a node id: those stay
/// below `dstm_sim::MAX_ACTORS`.
const NONE: u32 = u32::MAX;

/// `NONE` as `None`.
#[inline]
fn present(v: u32) -> Option<u32> {
    (v != NONE).then_some(v)
}

/// What the index keeps for every object the node has touched: the routing
/// facts, which outlive the object's stay here, and its slot while it has
/// one. Three words, each `NONE` when absent.
#[derive(Clone, Copy)]
struct ObjEntry {
    /// Slot in the slab, while the node owns the object or retains a
    /// cached copy of it.
    slot: u32,
    /// Where the object went when we published it away (ownership chain).
    tombstone: u32,
    /// Last known owner of a remote object (healed by responses).
    cached_owner: u32,
}

impl ObjEntry {
    const EMPTY: ObjEntry = ObjEntry {
        slot: NONE,
        tombstone: NONE,
        cached_owner: NONE,
    };
}

/// The state of an object the node holds, consolidated in one slot.
///
/// The node used to keep four separate `HashMap<ObjectId, _>`s (`store`,
/// `tombstones`, `owner_cache`, `cl_windows`); a single fetch-conflict
/// handler would hash the same oid up to five times. One slot per object
/// behind one interned index turns that into a single lookup.
///
/// `repr(C)`: what an owner-side request reads to decide whether and how it
/// is served — identity and the authoritative copy — comes first, then the
/// CL window a served request records into, and the read cache (off by
/// default) last.
#[repr(C)]
struct ObjSlot {
    /// The object held here; in a free slot, the number of the next free
    /// slot instead.
    oid: ObjectId,
    /// The authoritative copy, if owned here.
    owned: Option<OwnedObject>,
    /// Owner-side local-CL window (created on first request).
    cl_window: Option<ObjectClWindow>,
    /// Retained read copy of a remote object (`cfg.cache` only; always
    /// `None` otherwise). Invalidated when validation proves it stale or
    /// ownership moves through this node.
    cache: Option<CachedCopy>,
}

impl ObjSlot {
    fn new(oid: ObjectId) -> Self {
        ObjSlot {
            oid,
            owned: None,
            cl_window: None,
            cache: None,
        }
    }

    /// Whether the slot holds anything: a slot that holds nothing is free.
    fn holds(&self) -> bool {
        self.owned.is_some() || self.cache.is_some()
    }
}

/// Per-object state: an index over every `ObjectId` this node has touched,
/// which carries the routing facts, and a slab of slots for the objects the
/// node holds — owned, or retained as a cached copy. A slot whose object
/// leaves (published away, or its copy invalidated) goes on a free list
/// threaded through the free slots, and the next object to arrive takes it,
/// so the slab is as large as what the node has held at once, not as what
/// it has ever touched.
struct ObjTable {
    index: FxHashMap<ObjectId, ObjEntry>,
    slots: Vec<ObjSlot>,
    /// First free slot, `NONE` if none is free.
    free: u32,
}

impl ObjTable {
    /// Pre-sized table: interning grows the slot slab one push at a time, so
    /// without a reserve the early doublings realloc-and-memcpy the (fat)
    /// `ObjSlot` vec several times per node while the working set warms up.
    fn with_capacity(cap: usize) -> Self {
        ObjTable {
            index: FxHashMap::with_capacity_and_hasher(cap, Default::default()),
            slots: Vec::with_capacity(cap),
            free: NONE,
        }
    }

    #[inline]
    fn get(&self, oid: ObjectId) -> Option<&ObjSlot> {
        self.index_of(oid).map(|i| &self.slots[i])
    }

    #[inline]
    fn get_mut(&mut self, oid: ObjectId) -> Option<&mut ObjSlot> {
        self.index_of(oid).map(|i| &mut self.slots[i])
    }

    /// Index into `slots` of `oid`'s slot, if the node holds the object.
    #[inline]
    fn index_of(&self, oid: ObjectId) -> Option<usize> {
        self.index
            .get(&oid)
            .and_then(|e| present(e.slot))
            .map(|i| i as usize)
    }

    /// Where an owner-side request for `oid` is served: `Ok(i)` if the
    /// object is owned here — the handler then works on `slots[i]`, one
    /// index probe for the whole request — else `Err` with the tombstone
    /// to forward along, if the object ever lived here.
    #[inline]
    fn owned_index(&self, oid: ObjectId) -> Result<usize, Option<u32>> {
        match self.index.get(&oid) {
            Some(e) if self.owns(e) => Ok(e.slot as usize),
            Some(e) => Err(present(e.tombstone)),
            None => Err(None),
        }
    }

    /// Whether the entry's object is owned here. Reads the slot only if
    /// there is one, so a remote object costs no slot read.
    #[inline]
    fn owns(&self, e: &ObjEntry) -> bool {
        e.slot != NONE && self.slots[e.slot as usize].owned.is_some()
    }

    /// `oid`'s entry and slot, interning the object on first touch and
    /// giving it a slot — the first free one, else a new one at the end — if
    /// it has none. One probe.
    fn held(&mut self, oid: ObjectId) -> (&mut ObjEntry, &mut ObjSlot) {
        let e = self.index.entry(oid).or_insert(ObjEntry::EMPTY);
        if e.slot == NONE {
            e.slot = self.free;
            match self.slots.get_mut(self.free as usize) {
                Some(s) => {
                    self.free = s.oid.0 as u32;
                    s.oid = oid;
                }
                None => {
                    e.slot = self.slots.len() as u32;
                    self.slots.push(ObjSlot::new(oid));
                }
            }
        }
        let i = e.slot as usize;
        (e, &mut self.slots[i])
    }

    /// Put slot `i`, which holds nothing any more, on the free list.
    fn release(&mut self, i: usize) {
        let s = &mut self.slots[i];
        debug_assert!(!s.holds() && s.cl_window.is_none(), "freeing a live slot");
        s.oid = ObjectId(u64::from(self.free));
        self.free = i as u32;
    }

    /// Every slot, free ones included; a free slot holds nothing, so any
    /// filter on what a slot holds skips it.
    fn iter(&self) -> impl Iterator<Item = &ObjSlot> {
        self.slots.iter()
    }

    /// A home object, owned here from the start of the run.
    fn install_home(&mut self, oid: ObjectId, payload: Payload) {
        self.held(oid).1.owned = Some(OwnedObject::new(payload));
    }

    /// Where this node (`me`, one of `n`) sends a request for `oid`: itself
    /// if it owns the object, else the last owner a response named, else
    /// the object's home.
    #[inline]
    fn owner_guess(&self, oid: ObjectId, me: u32, n: usize) -> u32 {
        match self.index.get(&oid) {
            Some(e) if self.owns(e) => me,
            Some(e) if e.cached_owner != NONE => e.cached_owner,
            _ => oid.home(n),
        }
    }

    /// A grant from `owner`: it becomes the owner guess, and `copy`, if
    /// any, is retained unless the object is owned here. One probe.
    #[inline]
    fn grant(&mut self, oid: ObjectId, owner: u32, copy: Option<CachedCopy>) {
        let Some(copy) = copy else {
            return self.heal(oid, owner);
        };
        let (e, s) = self.held(oid);
        e.cached_owner = owner;
        if s.owned.is_none() {
            s.cache = Some(copy);
        }
    }

    /// A conflict verdict names the real owner: heal the owner guess.
    fn heal(&mut self, oid: ObjectId, owner: u32) {
        self.index
            .entry(oid)
            .or_insert(ObjEntry::EMPTY)
            .cached_owner = owner;
    }

    /// A commit here installs the authoritative copy of a remote object.
    /// Returns whether it superseded a retained copy.
    fn receive(&mut self, oid: ObjectId, object: OwnedObject) -> bool {
        let (e, s) = self.held(oid);
        e.cached_owner = NONE;
        s.owned = Some(object);
        s.cache.take().is_some()
    }

    /// Ownership of `oid` leaves for `new_owner`, which becomes the
    /// forwarding pointer and the owner guess; the CL window goes with it,
    /// and the slot is freed. Returns the object and whether a retained
    /// copy was dropped.
    ///
    /// # Panics
    /// If `oid` is not owned here.
    fn publish_away(&mut self, oid: ObjectId, new_owner: u32) -> (OwnedObject, bool) {
        let e = self
            .index
            .get_mut(&oid)
            .expect("publish must reach the locked owner");
        let i = e.slot as usize;
        e.slot = NONE;
        e.tombstone = new_owner;
        e.cached_owner = new_owner;
        let s = self
            .slots
            .get_mut(i)
            .expect("publish must reach the locked owner");
        let object = s.owned.take().expect("publish must reach the locked owner");
        s.cl_window = None;
        let dropped = s.cache.take().is_some();
        self.release(i);
        (object, dropped)
    }

    /// Drop `oid`'s retained copy, and its slot unless the object is owned
    /// here. Returns whether there was a copy.
    fn invalidate(&mut self, oid: ObjectId) -> bool {
        let Some(e) = self.index.get_mut(&oid) else {
            return false;
        };
        let Some(i) = present(e.slot).map(|i| i as usize) else {
            return false;
        };
        if self.slots[i].cache.take().is_none() {
            return false;
        }
        if self.slots[i].owned.is_none() {
            e.slot = NONE;
            self.release(i);
        }
        true
    }

    /// Fold every object this node has touched into a fingerprint, in oid
    /// order (insertion-order independent); `extra` appends what the node
    /// keeps about an object outside this table. An entry hashes as
    /// `(oid, owned, tombstone, cached_owner, cache)`, never as a whole
    /// [`ObjEntry`]: which slot an object sits in is a layout detail.
    fn hash_into(&self, h: &mut Fnv64, mut extra: impl FnMut(ObjectId, &mut Fnv64)) {
        let mut entries: Vec<_> = self.index.iter().collect();
        entries.sort_by_key(|&(oid, _)| *oid);
        entries.len().hash(h);
        for (&oid, e) in entries {
            let slot = present(e.slot).map(|i| &self.slots[i as usize]);
            let owned = slot.and_then(|s| s.owned.as_ref());
            let cache = slot.and_then(|s| s.cache.as_ref());
            let (tombstone, cached_owner) = (present(e.tombstone), present(e.cached_owner));
            (oid, owned, tombstone, cached_owner, cache).hash(h);
            extra(oid, h);
        }
    }

    /// Structural invariants, one line per violation: every slot the index
    /// names holds its object, every other slot is free and holds nothing.
    fn check(&self, me: u32, out: &mut Vec<String>) {
        let mut named = 0;
        for (&oid, e) in &self.index {
            let Some(i) = present(e.slot) else { continue };
            named += 1;
            match self.slots.get(i as usize) {
                Some(s) if s.oid == oid && s.holds() => {}
                _ => out.push(format!("node {me}: slot {i} of {oid:?} does not hold it")),
            }
        }
        let mut free = 0;
        let mut next = self.free;
        while next != NONE && free <= self.slots.len() {
            let Some(s) = self.slots.get(next as usize) else {
                out.push(format!("node {me}: free list names slot {next}"));
                return;
            };
            if s.holds() || s.cl_window.is_some() {
                out.push(format!("node {me}: free slot {next} is not empty"));
            }
            free += 1;
            next = s.oid.0 as u32;
        }
        if named + free != self.slots.len() {
            out.push(format!(
                "node {me}: {} slots, {named} named by the index, {free} free",
                self.slots.len()
            ));
        }
    }
}

/// Input fed to the executor when (re)entering a program.
enum DriveInput {
    Begin,
    Ack,
    Value(Arc<Payload>),
}

/// Outcome of consulting the local store and read cache for an `Acquire`
/// (`cfg.cache` only).
enum CacheOpen {
    /// Served synchronously with zero messages; the payload feeds straight
    /// back into the program.
    Served(Arc<Payload>),
    /// A payload-free [`Msg::VersionReq`] went out; the transaction awaits
    /// either a [`Msg::VersionAck`] or a full [`Msg::ObjResp`].
    Revalidating,
    /// Nothing usable — issue the ordinary full fetch.
    Fetch,
}

/// One simulated node.
///
/// Laid out hot-first (`repr(C)`, so the order below *is* the memory order):
/// at a thousand nodes every event lands on a node whose state has left the
/// cache, and what the handlers read on their way to the first object or
/// transaction lookup should be a few adjacent lines — the ones
/// [`Actor::hint_soon`] requests — not one line per field scattered between
/// cold state. Line-aligned for the same reason. The unit tests at the
/// bottom of this file pin which fields lie in `Node::HOT_BYTES`.
#[repr(C, align(64))]
pub struct Node {
    me: u32,
    /// TFA node-local clock.
    clock: u64,
    cfg: Arc<DstmConfig>,
    topo: Arc<Topology>,
    /// Live transactions invoked here, indexed by `seq - 1` (sequence
    /// numbers are minted densely at start, so the Vec never has holes
    /// except where a transaction finished; `None` = finished/absent).
    /// Boxed: a handler takes the runtime out of its slot for the duration
    /// of the event and puts it back, and that should move a pointer, not
    /// the runtime.
    txs: Vec<Option<Box<TxRuntime>>>,
    active: usize,
    /// Per-object owner-side state (store, tombstones, owner cache, CL
    /// windows), slab-backed behind one interned index.
    objs: ObjTable,
    /// Owner-side requester queues (Algorithm 1).
    sched: SchedulingTable,
    /// Owner-side conflict policy (the scheduler under evaluation).
    policy: Box<dyn ConflictPolicy>,
    /// Handle on the run-wide protocol-event log (off unless
    /// `cfg.trace_protocol`; every caller site hands [`ProtoTrace::emit`] a
    /// closure, which builds the event only when tracing is on).
    ptrace: ProtoTrace,
    /// Per-destination same-tick send buffers (`cfg.cache` only): one
    /// `(destination, latency, messages)` group per distinct pair touched
    /// by the current event handler, drained by [`Node::flush_outbox`] at
    /// handler exit. A linear scan — one event fans out to a handful of
    /// neighbors at most. Among the hot fields because every handler exit
    /// checks it for emptiness.
    outbox: Vec<(u32, SimDuration, Vec<Msg>)>,
    /// Passive epoch sampler (off unless `cfg.telemetry`). Checked with one
    /// integer compare at the top of every event handler; it never sets
    /// timers, sends messages, or draws randomness, so enabling it cannot
    /// perturb the simulated schedule. Last of the hot fields: the guard is
    /// its first word, the sampler state behind it is cold.
    telemetry: Telemetry,
    /// Counters first (most handlers bump one or two), then the two
    /// statistics a commit pushes.
    pub metrics: NodeCounters,
    // -- cold from here: touched per transaction start/commit, or rarer ------
    /// Handle on the run's one set of latency histograms.
    hists: RunHistograms,
    /// Workload not yet started.
    pending: VecDeque<BoxedProgram>,
    next_seq: u64,
    /// Requester-side commit-time statistics (backoff estimation).
    stats: StatsTable,
    /// Virtual time of this node's last commit — the moment [`Node::done`]
    /// flipped true. `None` until then (or `Some(ZERO)` for a node that
    /// started with no workload). A property of the node's own event
    /// sequence, so it does not move with whatever trails the last commit.
    done_at: Option<SimTime>,
    pub completed: usize,
    /// Scratch buffers reused across event handlers so steady-state
    /// summary/write-back/grant processing allocates nothing. Taken with
    /// `mem::take` for the duration of a handler and put back after.
    summary_buf: Vec<(ObjectId, u64, u32, bool, AccessMode)>,
    wbs_buf: Vec<(ObjectId, Arc<Payload>, u64, u32)>,
    grants_buf: Vec<Requester>,
    /// Recycled single-message buffers from flushed outbox groups.
    outbox_pool: Vec<Vec<Msg>>,
    /// The runtime of the transaction that just committed, on its way to
    /// [`Node::pump`] — which ends every handler that can commit one — to
    /// start the next transaction in: a node allocates
    /// `concurrency_per_node` runtimes for its whole workload. Kept only
    /// while there is a next transaction; the last ones are freed as they
    /// finish, not when the node is dropped.
    spare_tx: Option<Box<TxRuntime>>,
}

impl Node {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: u32,
        topo: Arc<Topology>,
        cfg: Arc<DstmConfig>,
        policy: Box<dyn ConflictPolicy>,
        initial_objects: Vec<(ObjectId, Payload)>,
        workload: Vec<BoxedProgram>,
        ptrace: ProtoTrace,
        hists: RunHistograms,
    ) -> Self {
        /// Prior for a kind's expected execution time before it has history.
        const DEFAULT_EXEC_ESTIMATE: SimDuration = SimDuration::from_millis(60);
        let stats = StatsTable::new(DEFAULT_EXEC_ESTIMATE);
        // Home objects plus headroom for remotely fetched/cached entries.
        let mut objs = ObjTable::with_capacity(initial_objects.len() * 2 + 16);
        for (oid, p) in initial_objects {
            objs.install_home(oid, p);
        }
        let telemetry = if cfg.telemetry {
            Telemetry::enabled(EPOCH.0)
        } else {
            Telemetry::disabled()
        };
        let pending: VecDeque<BoxedProgram> = workload.into();
        Node {
            me,
            clock: 0,
            cfg,
            topo,
            txs: Vec::new(),
            active: 0,
            objs,
            sched: SchedulingTable::new(),
            policy,
            ptrace,
            outbox: Vec::new(),
            telemetry,
            metrics: NodeCounters::default(),
            hists,
            done_at: pending.is_empty().then_some(SimTime::ZERO),
            pending,
            next_seq: 0,
            stats,
            completed: 0,
            summary_buf: Vec::new(),
            wbs_buf: Vec::new(),
            grants_buf: Vec::new(),
            outbox_pool: Vec::new(),
            spare_tx: None,
        }
    }

    /// Drain this node's telemetry (end-of-run collection), closing the
    /// final partial epoch at `now`.
    pub fn take_telemetry(&mut self, now: SimTime) -> TelemetryReport {
        self.telemetry.take(now, &self.metrics)
    }

    /// Cold path of the per-event sampler check: close the epochs that
    /// ended at or before `now`.
    #[cold]
    fn telemetry_flush(&mut self, now: SimTime) {
        self.telemetry.flush(now, &self.metrics);
    }

    pub fn id(&self) -> u32 {
        self.me
    }

    /// Whether all of this node's workload has committed.
    pub fn done(&self) -> bool {
        self.pending.is_empty() && self.active == 0
    }

    /// Virtual time of the commit that finished this node's workload, or
    /// `None` while work remains. See the field doc for why this is the
    /// makespan anchor rather than the post-drain `world.now()`.
    pub fn done_at(&self) -> Option<SimTime> {
        self.done_at
    }

    /// Live + pending transaction count (diagnostics).
    pub fn backlog(&self) -> usize {
        self.pending.len() + self.active
    }

    /// A read-only peek at an owned object (for test assertions and
    /// end-of-run invariant checks).
    pub fn owned_object(&self, oid: ObjectId) -> Option<&OwnedObject> {
        self.objs.get(oid).and_then(|s| s.owned.as_ref())
    }

    pub fn owned_objects(&self) -> impl Iterator<Item = (&ObjectId, &OwnedObject)> {
        self.objs
            .iter()
            .filter_map(|s| s.owned.as_ref().map(|o| (&s.oid, o)))
    }

    // -- verification surface ---------------------------------------------
    //
    // Read-only probes used by the `dstm-verify` harness: a time-abstract
    // structural fingerprint for model-checker state deduplication, plus
    // local invariant predicates the checker asserts after every step.

    /// This node's TFA clock (monotonicity oracle).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Retained read copies (`cfg.cache` only), for freshness oracles.
    pub fn cached_copies(&self) -> impl Iterator<Item = (ObjectId, &CachedCopy)> {
        self.objs
            .iter()
            .filter_map(|s| s.cache.as_ref().map(|c| (s.oid, c)))
    }

    /// Time-abstract structural fingerprint of this node's protocol state.
    ///
    /// Everything that determines the node's future *protocol* behavior is
    /// folded in: the TFA clock, object table (payloads, versions, locks,
    /// tombstones, owner guesses, cached copies), live transaction runtimes
    /// (phase, nesting levels, working copies, write-version clock), and
    /// the owner-side requester queues, each through its derived [`Hash`].
    /// Wall-clock-valued state is excluded: it varies across equivalent
    /// schedules and only shapes *when* things happen, not *what* the
    /// protocol may do next. CL windows, stats-table estimates and metrics
    /// are simply not read; a requester's enqueue time is left out by
    /// `Requester`'s `Hash` impl, as the ETS and a conflict's backoff are
    /// by those of `Ets` and `FetchResult` for in-flight messages. The
    /// checker uses these fingerprints purely to prune its search, so the
    /// abstraction can merge states but never fabricates a violation.
    pub fn protocol_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        (self.me, self.clock, self.completed, self.active).hash(&mut h);
        self.pending.len().hash(&mut h);

        // Objects, each followed by its owner-side requester queue; an
        // absent queue hashes like an empty one.
        self.objs.hash_into(&mut h, |oid, h| {
            let list = self.sched.list(oid);
            list.map_or(0, |l| l.len()).hash(h);
            for r in list.into_iter().flat_map(|l| l.iter()) {
                r.hash(h);
            }
        });

        // Live transactions, sorted by id.
        let mut txs: Vec<&TxRuntime> = self.txs.iter().flatten().map(|tx| &**tx).collect();
        txs.sort_by_key(|t| t.id);
        txs.len().hash(&mut h);
        for tx in txs {
            (tx.id, tx.kind, tx.attempt, tx.wv, tx.nested_committed).hash(&mut h);
            Self::phase_into(tx, &mut h);
            tx.levels().len().hash(&mut h);
            for (depth, level) in tx.levels().iter().enumerate() {
                let mut copies = tx.level_copies(depth);
                copies.sort_by_key(|(oid, _)| *oid);
                (level.kind, level.committed_children, copies).hash(&mut h);
            }
        }
        h.finish()
    }

    /// Fold a transaction's phase into a fingerprint: discriminant plus the
    /// objects it waits on, each round set sorted. What a validation round
    /// resumes with and the queue-wait timer are left out.
    fn phase_into(tx: &TxRuntime, h: &mut Fnv64) {
        fn sorted<'a>(oids: impl IntoIterator<Item = &'a ObjectId>) -> Vec<ObjectId> {
            let mut v: Vec<ObjectId> = oids.into_iter().copied().collect();
            v.sort_unstable();
            v
        }
        let pending = || sorted(tx.pending.iter());
        std::mem::discriminant(&tx.phase).hash(h);
        match &tx.phase {
            TxPhase::AwaitObject { oid, mode }
            | TxPhase::AwaitQueuedObject {
                oid,
                mode,
                timer: _,
            } => (oid, mode).hash(h),
            TxPhase::AwaitValidation { stale, resume: _ } => (pending(), sorted(stale)).hash(h),
            TxPhase::AwaitLocks { granted, failed } => (pending(), sorted(granted), failed).hash(h),
            TxPhase::AwaitPublish => pending().hash(h),
            TxPhase::Running
            | TxPhase::Computing
            | TxPhase::BackedOff
            | TxPhase::ChildBackedOff
            | TxPhase::Done => {}
        }
    }

    /// Check node-local structural invariants, appending a description of
    /// each violation to `out`. Called by the model checker after every
    /// delivered event and by the fuzzer at end of episode.
    pub fn local_invariants(&self, out: &mut Vec<String>) {
        let live = self.txs.iter().flatten().count();
        if live != self.active {
            out.push(format!(
                "node {}: active count {} != live runtimes {}",
                self.me, self.active, live
            ));
        }
        for tx in self.txs.iter().flatten() {
            if tx.levels().is_empty() {
                out.push(format!(
                    "node {}: live tx {:?} has no nesting levels",
                    self.me, tx.id
                ));
                continue;
            }
            // A shadow copy mirrors an ancestor's fetch: some level below
            // the one holding the shadow must hold a non-shadow copy of the
            // same object (the real fetch the shadow is backed by).
            let levels: Vec<_> = (0..tx.levels().len())
                .map(|depth| tx.level_copies(depth))
                .collect();
            for (depth, copies) in levels.iter().enumerate() {
                for (oid, c) in copies {
                    if !c.shadow {
                        continue;
                    }
                    let backed = levels[..depth]
                        .iter()
                        .flatten()
                        .any(|(o, ac)| o == oid && !ac.shadow);
                    if !backed {
                        out.push(format!(
                            "node {}: tx {:?} level {} shadow copy of {:?} \
                             has no ancestor backing",
                            self.me, tx.id, depth, oid
                        ));
                    }
                }
            }
            // Phase-specific coherence: a transaction parked on an object
            // must name an object it does not already hold exclusively.
            if let TxPhase::Done = tx.phase {
                out.push(format!(
                    "node {}: tx {:?} is live but in phase Done",
                    self.me, tx.id
                ));
            }
        }
        self.objs.check(self.me, out);
        // An object's lock holder must be a transaction that could still
        // commit: locks are released on publish/unlock, so a lock held by a
        // finished transaction is a leak.
        for s in self.objs.iter() {
            if let Some(o) = &s.owned {
                if let Some(holder) = o.lock {
                    let finished_here = holder.node == self.me && self.tx_slot_free(holder.seq);
                    if finished_here {
                        out.push(format!(
                            "node {}: object {:?} locked by finished tx {:?}",
                            self.me, s.oid, holder
                        ));
                    }
                }
            }
        }
    }

    /// Whether the runtime slot for local sequence `seq` is empty (the
    /// transaction finished or never existed).
    fn tx_slot_free(&self, seq: u64) -> bool {
        if seq == 0 {
            return true;
        }
        let idx = (seq - 1) as usize;
        idx >= self.txs.len() || self.txs[idx].is_none()
    }

    // -- plumbing ----------------------------------------------------------

    fn delay_to(&self, to: u32) -> SimDuration {
        if to == self.me {
            LOCAL_HOP
        } else {
            self.topo.delay(ActorId(self.me), ActorId(to))
        }
    }

    fn send(&mut self, ctx: &mut NodeCtx<'_>, to: u32, msg: Msg) {
        let d = self.delay_to(to);
        self.send_delayed(ctx, to, msg, d);
    }

    /// Send with additional processing latency on top of the link delay.
    fn send_after(&mut self, ctx: &mut NodeCtx<'_>, to: u32, msg: Msg, extra: SimDuration) {
        let d = self.delay_to(to) + extra;
        self.send_delayed(ctx, to, msg, d);
    }

    /// Emit or buffer one outgoing message. With `cfg.cache` off this is a
    /// plain kernel send — the pre-coalescing behavior, untouched. With it
    /// on, same-handler messages to one destination with one latency
    /// accumulate in the outbox and leave together at handler exit.
    fn send_delayed(&mut self, ctx: &mut NodeCtx<'_>, to: u32, msg: Msg, d: SimDuration) {
        if !self.cfg.cache {
            ctx.send(ActorId(to), msg, d);
            return;
        }
        match self
            .outbox
            .iter_mut()
            .find(|(t, td, _)| *t == to && *td == d)
        {
            Some((_, _, buf)) => buf.push(msg),
            None => {
                let mut buf = self.outbox_pool.pop().unwrap_or_default();
                buf.push(msg);
                self.outbox.push((to, d, buf));
            }
        }
    }

    /// Drain the per-destination send buffers: a lone message goes out
    /// plainly, two or more to the same `(destination, latency)` leave as
    /// one [`Msg::Batch`] — one DES event instead of k. Groups flush in
    /// insertion order and messages within a group keep send order, so the
    /// schedule stays deterministic.
    fn flush_outbox(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.outbox.is_empty() {
            return;
        }
        let mut out = std::mem::take(&mut self.outbox);
        for (to, d, mut msgs) in out.drain(..) {
            if msgs.len() == 1 {
                let msg = msgs.pop().expect("length checked");
                ctx.send(ActorId(to), msg, d);
                self.outbox_pool.push(msgs);
            } else {
                ctx.send(ActorId(to), Msg::Batch(msgs), d);
            }
        }
        self.outbox = out;
    }

    /// Drop `oid`'s retained copy after validation proved it stale (failed
    /// version check or lock). No-op when nothing is retained, so callers
    /// need no `cfg.cache` guard.
    fn invalidate_cache(&mut self, oid: ObjectId) {
        if self.objs.invalidate(oid) {
            self.metrics.cache_invalidations += 1;
        }
    }

    fn owner_guess(&self, oid: ObjectId) -> u32 {
        self.objs.owner_guess(oid, self.me, self.topo.n())
    }

    fn local_cl(&mut self, oid: ObjectId, now: SimTime) -> u32 {
        match self.objs.get_mut(oid).and_then(|s| s.cl_window.as_mut()) {
            Some(w) => w.local_cl(now),
            None => 0,
        }
    }

    /// Record a request on the object in slot `i` and return its local CL —
    /// the pair runs back-to-back on every served object request.
    fn record_and_local_cl(&mut self, i: usize, now: SimTime, tx: TxId) -> u32 {
        let window = self.cfg.cl_window;
        let w = self.objs.slots[i]
            .cl_window
            .get_or_insert_with(|| ObjectClWindow::new(window));
        w.record(now, tx);
        w.local_cl(now)
    }

    // -- tx table ----------------------------------------------------------

    /// Remove and return the live runtime of `id`, if any. Foreign or
    /// unknown ids (stale messages after completion) yield `None`.
    #[inline]
    fn tx_take(&mut self, id: TxId) -> Option<Box<TxRuntime>> {
        if id.node != self.me {
            return None;
        }
        let i = (id.seq as usize).checked_sub(1)?;
        self.txs.get_mut(i)?.take()
    }

    /// The live runtime of `id` if `attempt` is its current attempt — the
    /// gate every reply and timer carrying an attempt passes. A runtime on
    /// another attempt goes back into its slot.
    #[inline]
    fn take_attempt(&mut self, id: TxId, attempt: u32) -> Option<Box<TxRuntime>> {
        let tx = self.tx_take(id)?;
        if tx.attempt == attempt {
            return Some(tx);
        }
        self.tx_put(tx);
        None
    }

    /// Put a runtime taken via [`Node::tx_take`] back into its slot.
    #[inline]
    fn tx_put(&mut self, tx: Box<TxRuntime>) {
        let i = (tx.id.seq - 1) as usize;
        self.txs[i] = Some(tx);
    }

    /// End of a handler that may have committed `tx`: back into its slot
    /// while it lives; once it is [`TxPhase::Done`], over to [`Node::pump`]
    /// if the workload has another transaction to run in it.
    #[inline]
    fn tx_settle(&mut self, tx: Box<TxRuntime>) {
        if !matches!(tx.phase, TxPhase::Done) {
            self.tx_put(tx);
        } else if !self.pending.is_empty() {
            self.spare_tx = Some(tx);
        }
    }

    // -- workload ----------------------------------------------------------

    /// Fill free transaction slots from the pending workload.
    fn pump(&mut self, ctx: &mut NodeCtx<'_>) {
        while self.active < self.cfg.concurrency_per_node {
            let Some(program) = self.pending.pop_front() else {
                return;
            };
            self.next_seq += 1;
            let id = TxId::new(self.me, self.next_seq);
            let kind = program.kind();
            let expected = self.stats.expected_commit_time(kind, ctx.now());
            let mut tx = match self.spare_tx.take() {
                Some(mut spent) => {
                    spent.recycle(id, program, ctx.now(), expected, self.clock);
                    spent
                }
                None => Box::new(TxRuntime::new(id, program, ctx.now(), expected, self.clock)),
            };
            self.active += 1;
            self.ptrace
                .emit(ctx.now(), self.me, || ProtoEvent::TxStart {
                    tx: id,
                    kind,
                    attempt: 0,
                });
            self.drive(ctx, &mut tx, DriveInput::Begin);
            // Every minted seq gets a slot (None when already finished) so
            // slot index stays `seq - 1`.
            debug_assert_eq!(self.txs.len() as u64 + 1, self.next_seq);
            self.txs.push(None);
            self.tx_settle(tx);
        }
    }

    // -- executor ----------------------------------------------------------

    /// Step the program until it blocks on the network/a timer or finishes.
    /// May run to a terminal commit, which leaves the phase at
    /// [`TxPhase::Done`]: callers hand the runtime to [`Node::tx_settle`].
    fn drive(&mut self, ctx: &mut NodeCtx<'_>, tx: &mut TxRuntime, first: DriveInput) {
        tx.phase = TxPhase::Running;
        let mut input = first;
        for _ in 0..DRIVE_STEP_LIMIT {
            let out = {
                let step_in = match &input {
                    DriveInput::Begin => StepInput::Begin,
                    DriveInput::Ack => StepInput::Ack,
                    DriveInput::Value(p) => StepInput::Value(p.as_ref()),
                };
                tx.program.step(step_in)
            };
            match out {
                StepOutput::Acquire(oid, mode) => {
                    if let Some(payload) = tx.access_held(oid, mode) {
                        input = DriveInput::Value(payload);
                        continue;
                    }
                    if self.cfg.cache {
                        match self.try_cached_open(ctx, tx, oid, mode) {
                            CacheOpen::Served(payload) => {
                                input = DriveInput::Value(payload);
                                continue;
                            }
                            CacheOpen::Revalidating => return,
                            CacheOpen::Fetch => {}
                        }
                    }
                    return self.request_object(ctx, tx, oid, mode, None);
                }
                StepOutput::WriteLocal(oid, payload) => {
                    tx.write_local(oid, payload);
                    input = DriveInput::Ack;
                }
                StepOutput::Compute(d) => {
                    ctx.set_timer(
                        d,
                        Timer::ComputeDone {
                            tx: tx.id,
                            attempt: tx.attempt,
                        },
                    );
                    tx.phase = TxPhase::Computing;
                    return;
                }
                StepOutput::OpenNested(kind) => {
                    if self.cfg.nesting == crate::config::NestingMode::Closed {
                        let snapshot = ProgramSnapshot::of(tx.program.as_ref());
                        tx.open_nested(kind, snapshot, ctx.now());
                        self.ptrace
                            .emit(ctx.now(), self.me, || ProtoEvent::NestedOpen {
                                tx: tx.id,
                                attempt: tx.attempt,
                                level: tx.top() as u32,
                                kind,
                            });
                    }
                    // Flat nesting: the delimiter is inlined — no level, no
                    // independent rollback; the code simply becomes part of
                    // the parent.
                    input = DriveInput::Ack;
                }
                StepOutput::CloseNested => {
                    if self.cfg.nesting == crate::config::NestingMode::Closed {
                        self.ptrace
                            .emit(ctx.now(), self.me, || ProtoEvent::NestedCommit {
                                tx: tx.id,
                                attempt: tx.attempt,
                                level: tx.top() as u32,
                            });
                        tx.close_nested();
                        tx.nested_committed += 1;
                        self.metrics.nested_commits += 1;
                    }
                    input = DriveInput::Ack;
                }
                StepOutput::Finish => {
                    return self.start_commit(ctx, tx);
                }
            }
        }
        self.abort_zombie(ctx, tx);
    }

    /// The attempt ran [`DRIVE_STEP_LIMIT`] steps over objects it already
    /// holds: it is a zombie, reading a view that mixes stale cached copies
    /// with fresh ones (opacity is not guaranteed between validations, and
    /// a stale link can close a cycle a tree walk never leaves). No event
    /// would ever be scheduled again, so no event budget could stop it.
    /// Treat it as what the next validation would have found: the view is
    /// inconsistent. Drop the cached copies of everything the attempt
    /// holds — one of them is the stale one — and abort it as a failed
    /// forward validation, so the retry fetches afresh.
    #[cold]
    fn abort_zombie(&mut self, ctx: &mut NodeCtx<'_>, tx: &mut TxRuntime) {
        let mut summary = std::mem::take(&mut self.summary_buf);
        tx.object_summary_into(&mut summary);
        for &(oid, ..) in &summary {
            self.invalidate_cache(oid);
        }
        self.summary_buf = summary;
        self.abort_parent(
            ctx,
            tx,
            AbortCause::ForwardValidation,
            SimDuration::ZERO,
            None,
            None,
        );
    }

    /// How a cached open attempt resolved (see [`Node::try_cached_open`]).
    fn try_cached_open(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        tx: &mut TxRuntime,
        oid: ObjectId,
        mode: AccessMode,
    ) -> CacheOpen {
        let now = ctx.now();
        // A version above the transaction's write-version clock with objects
        // already held must go through transactional forwarding (early
        // validation), which only the messaging path performs.
        fn fwd_blocks(version: u64, tx: &TxRuntime) -> bool {
            version > tx.wv && tx.has_objects()
        }
        let Some(i) = self.objs.index_of(oid) else {
            self.metrics.cache_misses += 1;
            return CacheOpen::Fetch;
        };
        let slot = &self.objs.slots[i];
        if let Some(o) = &slot.owned {
            // Local fast path: the authoritative copy is here and unlocked —
            // serve it synchronously instead of bouncing an `ObjReq` and
            // `ObjResp` off ourselves (two DES events per local open). A
            // locked or forwarding-triggering copy takes the full path, so
            // conflict adjudication and early validation are unchanged.
            if o.is_locked() || fwd_blocks(o.version, tx) {
                return CacheOpen::Fetch;
            }
            let payload = Arc::clone(&o.payload);
            let version = o.version;
            // Mirror the owner-side bookkeeping of a served fetch.
            self.sched.with_list(oid, |l| l.remove_duplicate(tx.id));
            let local_cl = self.record_and_local_cl(i, now, tx.id);
            self.metrics.fetches_served += 1;
            self.metrics.cache_hits += 1;
            tx.wv = tx.wv.max(version);
            tx.install_fetched(oid, Arc::clone(&payload), version, local_cl, self.me, mode);
            return CacheOpen::Served(payload);
        }
        let Some(c) = &slot.cache else {
            self.metrics.cache_misses += 1;
            return CacheOpen::Fetch;
        };
        if mode == AccessMode::Read && self.clock <= c.owner_clock && !fwd_blocks(c.version, tx) {
            // Clock fast path: our TFA clock has not passed the owner's
            // clock at grant time, so no commit we have transitively heard
            // of can have overwritten the copy — reuse it with zero
            // messages. Still validated at commit like any working copy.
            self.metrics.cache_hits += 1;
            tx.wv = tx.wv.max(c.version);
            tx.reuse_cached(oid, c, mode);
            let payload = Arc::clone(&c.payload);
            return CacheOpen::Served(payload);
        }
        // Entry present but not provably current (or wanted for writing):
        // revalidate with a payload-free request. The owner falls back to
        // the full fetch path itself when the copy is stale, so this never
        // costs an extra round trip.
        let version = c.version;
        self.request_object(ctx, tx, oid, mode, Some(version));
        CacheOpen::Revalidating
    }

    /// Send a fetch of `oid` to its owner guess — with `cached_version`, a
    /// revalidation of that cached copy — and park `tx` on the answer.
    fn request_object(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        tx: &mut TxRuntime,
        oid: ObjectId,
        mode: AccessMode,
        cached_version: Option<u64>,
    ) {
        let now = ctx.now();
        let req = FetchReq {
            oid,
            tx: tx.id,
            attempt: tx.attempt,
            mode,
            ets: tx.ets(now),
            my_cl: tx.cl.my_cl(),
            nested: tx.in_nested(),
        };
        let owner = self.owner_guess(oid);
        self.send(ctx, owner, req.into_msg(cached_version));
        tx.attempt_msgs += 1;
        tx.fetch_sent_at = now;
        tx.phase = TxPhase::AwaitObject { oid, mode };
    }

    // -- commit protocol (requester side) -----------------------------------

    /// Begin the commit protocol.
    fn start_commit(&mut self, ctx: &mut NodeCtx<'_>, tx: &mut TxRuntime) {
        assert!(
            !tx.in_nested(),
            "Finish inside a nested level in {:?}",
            tx.id
        );
        let mut summary = std::mem::take(&mut self.summary_buf);
        let mut write_back = std::mem::take(&mut self.wbs_buf);
        tx.write_back_set_into(&mut summary, &mut write_back);
        self.summary_buf = summary;
        if write_back.is_empty() {
            self.wbs_buf = write_back;
            // Read-only: validate the read set, then finalize.
            return self.begin_validation(ctx, tx, ValidationResume::Commit);
        }
        tx.pending.clear();
        for (oid, _payload, version, owner) in &write_back {
            tx.pending.insert(*oid);
            let msg = Msg::LockReq {
                oid: *oid,
                tx: tx.id,
                attempt: tx.attempt,
                expect_version: *version,
            };
            self.send(ctx, *owner, msg);
            tx.attempt_msgs += 1;
        }
        write_back.clear();
        self.wbs_buf = write_back;
        tx.phase = TxPhase::AwaitLocks {
            granted: Vec::new(),
            failed: None,
        };
    }

    /// Launch a version-check round over the held objects. For commit-time
    /// validation only clean objects are checked (dirty ones were validated
    /// by their locks).
    fn begin_validation(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        tx: &mut TxRuntime,
        resume: ValidationResume,
    ) {
        let commit_mode = matches!(resume, ValidationResume::Commit);
        let mut summary = std::mem::take(&mut self.summary_buf);
        tx.object_summary_into(&mut summary);
        tx.pending.clear();
        for &(oid, version, owner, dirty, _mode) in &summary {
            if commit_mode && dirty {
                continue;
            }
            tx.pending.insert(oid);
            let msg = Msg::VersionCheck {
                oid,
                tx: tx.id,
                attempt: tx.attempt,
                expect_version: version,
            };
            self.send(ctx, owner, msg);
            tx.attempt_msgs += 1;
        }
        self.summary_buf = summary;
        if tx.pending.is_empty() {
            return self.validation_succeeded(ctx, tx, resume);
        }
        tx.phase = TxPhase::AwaitValidation {
            stale: Vec::new(),
            resume,
        };
    }

    /// All version checks passed: resume whatever was suspended.
    fn validation_succeeded(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        tx: &mut TxRuntime,
        resume: ValidationResume,
    ) {
        match resume {
            ValidationResume::Deliver {
                oid,
                payload,
                version,
                local_cl,
                owner,
                mode,
            } => {
                tx.wv = tx.wv.max(version);
                tx.install_fetched(oid, Arc::clone(&payload), version, local_cl, owner, mode);
                self.drive(ctx, tx, DriveInput::Value(payload))
            }
            ValidationResume::Commit => self.publish_or_finalize(ctx, tx),
        }
    }

    /// Locks held (if any were needed) and reads validated: write back new
    /// versions, transferring ownership to this node.
    fn publish_or_finalize(&mut self, ctx: &mut NodeCtx<'_>, tx: &mut TxRuntime) {
        let mut summary = std::mem::take(&mut self.summary_buf);
        let mut write_back = std::mem::take(&mut self.wbs_buf);
        tx.write_back_set_into(&mut summary, &mut write_back);
        // A read-only commit publishes nothing and leaves the clock alone.
        let new_version = if write_back.is_empty() {
            0
        } else {
            self.clock.max(tx.wv) + 1
        };
        self.ptrace.emit(ctx.now(), self.me, || {
            Self::commit_event(tx, &summary, &write_back, new_version)
        });
        self.summary_buf = summary;
        if write_back.is_empty() {
            self.wbs_buf = write_back;
            self.finalize_commit(ctx, tx);
            return;
        }
        self.clock = new_version;
        tx.pending.clear();
        for (oid, payload, _version, owner) in write_back.drain(..) {
            if owner == self.me {
                // Local object: update in place and release.
                let o = self
                    .objs
                    .get_mut(oid)
                    .and_then(|s| s.owned.as_mut())
                    .expect("locked local object present");
                debug_assert_eq!(o.lock, Some(tx.id));
                o.payload = payload;
                o.version = new_version;
                o.unlock(tx.id);
                self.serve_queue(ctx, oid);
            } else {
                // Install the new authoritative copy here (the commit point);
                // the old owner will tombstone-forward future requests.
                let object = OwnedObject {
                    payload: Arc::clone(&payload),
                    version: new_version,
                    lock: None,
                };
                // The authoritative copy supersedes any cached one.
                if self.objs.receive(oid, object) {
                    self.metrics.cache_invalidations += 1;
                }
                self.metrics.objects_received += 1;
                self.ptrace
                    .emit(ctx.now(), self.me, || ProtoEvent::Migrate {
                        oid,
                        tx: tx.id,
                        from: owner,
                        to: self.me,
                        version: new_version,
                    });
                tx.pending.insert(oid);
                let msg = Msg::Publish {
                    oid,
                    tx: tx.id,
                    payload,
                    new_version,
                    new_owner: self.me,
                };
                self.send(ctx, owner, msg);
                tx.attempt_msgs += 1;
            }
        }
        self.wbs_buf = write_back;
        if tx.pending.is_empty() {
            self.finalize_commit(ctx, tx);
            return;
        }
        tx.phase = TxPhase::AwaitPublish;
    }

    /// The [`ProtoEvent::TxCommit`] span end at the serialization point: the
    /// full read footprint (object, version) out of the transaction's object
    /// `summary`, and the write set (object, expected version, published
    /// version). Built inside [`ProtoTrace::emit`], so the `Vec` payloads
    /// only exist when tracing.
    fn commit_event(
        tx: &TxRuntime,
        summary: &[(ObjectId, u64, u32, bool, AccessMode)],
        write_back: &[(ObjectId, Arc<Payload>, u64, u32)],
        new_version: u64,
    ) -> ProtoEvent {
        ProtoEvent::TxCommit {
            tx: tx.id,
            attempt: tx.attempt,
            nested_committed: tx.nested_committed,
            reads: summary
                .iter()
                .map(|&(oid, version, _owner, _dirty, _mode)| (oid, version))
                .collect(),
            writes: write_back
                .iter()
                .map(|&(oid, _, expect, _)| (oid, expect, new_version))
                .collect(),
        }
    }

    /// Terminal commit bookkeeping. The caller must drop the transaction.
    fn finalize_commit(&mut self, ctx: &mut NodeCtx<'_>, tx: &mut TxRuntime) {
        let now = ctx.now();
        let exec = now.saturating_since(tx.attempt_started_at);
        self.stats.record_commit(tx.kind, exec);
        self.metrics.commits += 1;
        self.metrics.commit_latency.push_duration(exec);
        self.metrics
            .total_latency
            .push_duration(now.saturating_since(tx.first_started_at));
        self.hists.record_commit(exec, u64::from(tx.attempt));
        self.policy.on_commit(now);
        tx.phase = TxPhase::Done;
        self.active -= 1;
        self.completed += 1;
        if self.pending.is_empty() && self.active == 0 {
            self.done_at = Some(now);
        }
    }

    // -- aborts (requester side) --------------------------------------------

    /// Abort the whole transaction and schedule its retry. `backoff` > 0
    /// delays the restart (TFA+Backoff); zero restarts immediately.
    /// Never terminal: the transaction always retries.
    ///
    /// `oid` is the object the conflict was adjudicated on (the one this
    /// abort is blamed on) and `aggressor` the transaction holding its lock,
    /// when known — queue-timeout and validation aborts know the object but
    /// not the holder. Both feed the wasted-work ledger and the trace.
    fn abort_parent(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        tx: &mut TxRuntime,
        cause: AbortCause,
        backoff: SimDuration,
        oid: Option<ObjectId>,
        aggressor: Option<TxId>,
    ) {
        let wasted_ns = tx.wasted_ns_at(ctx.now());
        let msgs = tx.attempt_msgs;
        let acc = tx.abort_to_level(0);
        self.metrics.record_abort(cause);
        self.metrics
            .record_nested_aborts(NestedAbortCause::ParentAbort, acc.nested_parent);
        self.metrics
            .record_wasted_work(wasted_ns, msgs, aggressor.is_some(), acc.nested_parent);
        self.ptrace
            .emit(ctx.now(), self.me, || ProtoEvent::TxAbort {
                tx: tx.id,
                attempt: tx.attempt,
                cause,
                nested_parent: acc.nested_parent,
                backoff,
                wasted_ns,
                msgs,
                oid,
                aggressor,
            });
        // Even "immediate" retries carry a randomized delay that escalates
        // with the transaction's abort count. Two reasons, both rooted in
        // §II's requirement that the contention manager avoid livelocks:
        // (1) with exact virtual time, deterministic symmetric transactions
        // would re-collide in perfect lockstep forever; (2) two committers
        // whose write locks fail each other's read validation form an
        // *interactive* livelock that constant jitter cannot break — each
        // collision resets their relative phase — so the randomization range
        // must grow until one of them backs off past the other's cycle.
        let escalation_us = 50_000 * u64::from(tx.attempt.min(8));
        let jitter = SimDuration::from_micros(ctx.rng().below(2_000 + escalation_us));
        tx.phase = TxPhase::BackedOff;
        ctx.set_timer(
            backoff.max(LOCAL_HOP) + jitter,
            Timer::RetryBackoff {
                tx: tx.id,
                attempt: tx.attempt,
            },
        );
    }

    fn restart_now(&mut self, ctx: &mut NodeCtx<'_>, tx: &mut TxRuntime) {
        let now = ctx.now();
        let expected = self.stats.expected_commit_time(tx.kind, now);
        tx.restart(now, expected, self.clock);
        self.ptrace.emit(now, self.me, || ProtoEvent::TxStart {
            tx: tx.id,
            kind: tx.kind,
            attempt: tx.attempt,
        });
        // May commit synchronously (degenerate programs).
        self.drive(ctx, tx, DriveInput::Begin);
    }

    /// Abort at `level` (a failed early validation): whole-transaction abort
    /// at level 0, child-only replay above. `oid` is the stale object the
    /// abort is blamed on (its lock holder is unknown on validation paths).
    fn abort_at_level(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        tx: &mut TxRuntime,
        level: usize,
        cause: AbortCause,
        oid: Option<ObjectId>,
    ) {
        if level == 0 {
            self.abort_parent(ctx, tx, cause, SimDuration::ZERO, oid, None);
            return;
        }
        self.roll_back_child(ctx.now(), tx, level);
        // Replay the child: its snapshot was taken right after `OpenNested`,
        // so re-feeding the acknowledgement re-enters the child body. The
        // replay may even run to a synchronous commit if every object it
        // needs is already held by an ancestor level.
        self.drive(ctx, tx, DriveInput::Ack);
    }

    /// Roll `tx` back to the child at `level` > 0 and account for it: the
    /// Table-I own/parent split, the wasted-work ledger and the
    /// `NestedAbort` trace record. The caller decides how the child resumes.
    fn roll_back_child(&mut self, now: SimTime, tx: &mut TxRuntime, level: usize) {
        let acc = tx.abort_to_level(level);
        self.metrics
            .record_nested_aborts(NestedAbortCause::Own, acc.nested_own);
        self.metrics
            .record_nested_aborts(NestedAbortCause::ParentAbort, acc.nested_parent);
        // Wasted-work ledger's view of the same rollback (reconciled against
        // the Table-I counters above by `NodeCounters::wasted_work_reconciles`).
        self.metrics.wasted_nested_own += acc.nested_own;
        self.metrics.wasted_nested_parent += acc.nested_parent;
        self.ptrace.emit(now, self.me, || ProtoEvent::NestedAbort {
            tx: tx.id,
            attempt: tx.attempt,
            level: level as u32,
            own: acc.nested_own,
            parent: acc.nested_parent,
        });
    }

    // -- owner side: fetches --------------------------------------------------

    /// The slot of `req`'s object if it is owned here. Otherwise the fetch
    /// goes on unchanged — an `ObjReq`, or with `cached_version` a
    /// `VersionReq` — along the ownership chain, or, misrouted (unreachable,
    /// since owner guesses start at the home node and publishes always
    /// leave tombstones), back to the home node.
    fn owned_or_forward(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        req: FetchReq,
        cached_version: Option<u64>,
    ) -> Option<usize> {
        let tombstone = match self.objs.owned_index(req.oid) {
            Ok(i) => return Some(i),
            Err(tombstone) => tombstone,
        };
        let next = tombstone.unwrap_or_else(|| {
            let home = req.oid.home(self.topo.n());
            debug_assert!(
                home != self.me,
                "home node lost object {:?} without a tombstone",
                req.oid
            );
            home
        });
        self.metrics.forwarded_reqs += 1;
        self.send(ctx, next, req.into_msg(cached_version));
        None
    }

    fn handle_obj_req(&mut self, ctx: &mut NodeCtx<'_>, req: FetchReq) {
        let Some(i) = self.owned_or_forward(ctx, req, None) else {
            return;
        };
        let (oid, txid) = (req.oid, req.tx);
        let now = ctx.now();
        let local_cl = self.record_and_local_cl(i, now, txid);
        // The lock holder at adjudication time is the aggressor an eventual
        // abort is attributed to.
        let holder = self.objs.slots[i].owned.as_ref().expect("checked").lock;

        if holder.is_some() {
            self.metrics.fetch_conflicts += 1;
            if req.nested && self.cfg.conflict_scope == crate::config::ConflictScope::Child {
                // A child-level conflict is resolved by the closed-nesting
                // substrate (the child aborts and retries), not by the
                // transactional scheduler, which adjudicates parents only.
                let result = FetchResult::Conflict {
                    backoff: SimDuration::ZERO,
                    enqueued: false,
                    owner: self.me,
                    aggressor: None,
                };
                return self.send(ctx, txid.node, req.answer(result));
            }
            let requester = Requester {
                node: txid.node,
                tx: txid,
                read_only: req.mode == AccessMode::Read,
                attempt: req.attempt,
                enqueued_at: now,
            };
            let cctx = ConflictCtx {
                now,
                oid,
                requester,
                ets: req.ets,
                requester_cl: req.my_cl,
                local_cl,
                attempt: req.attempt,
            };
            let decision = self.policy.on_conflict(&cctx, &mut self.sched);
            let (verdict, backoff) = match decision {
                Decision::Abort => (Verdict::Abort, SimDuration::ZERO),
                Decision::AbortBackoff(b) => (Verdict::AbortBackoff, b),
                Decision::Enqueue { backoff } => (Verdict::Enqueue, backoff),
            };
            let enqueued = verdict == Verdict::Enqueue;
            if enqueued {
                self.metrics.enqueued += 1;
            }
            self.ptrace.emit(now, self.me, || {
                let (queue_depth, bk) = self
                    .sched
                    .list(oid)
                    .map_or((0, SimDuration::ZERO), |l| (l.len(), l.bk()));
                let window_requests = self.objs.slots[i]
                    .cl_window
                    .as_mut()
                    .map_or(0, |w| w.requests_in_window(now));
                ProtoEvent::SchedDecision {
                    oid,
                    tx: txid,
                    attempt: req.attempt,
                    local_cl,
                    requester_cl: req.my_cl,
                    window_requests,
                    executed: req.ets.executed_so_far(),
                    remaining: req.ets.expected_remaining(),
                    queue_depth: queue_depth as u64,
                    bk,
                    threshold: self.policy.current_threshold(),
                    verdict,
                    backoff,
                }
            });
            let result = FetchResult::Conflict {
                backoff,
                enqueued,
                owner: self.me,
                aggressor: holder,
            };
            return self.send(ctx, txid.node, req.answer(result));
        }

        // Free object: serve a copy. Drop any stale queue entry of this
        // transaction (it is getting the object through the normal path).
        self.sched.with_list(oid, |l| l.remove_duplicate(txid));
        self.metrics.fetches_served += 1;
        let o = self.objs.slots[i].owned.as_ref().expect("checked");
        let result = FetchResult::Granted {
            payload: Arc::clone(&o.payload),
            version: o.version,
            local_cl,
            owner: self.me,
            owner_clock: self.clock,
        };
        self.send(ctx, txid.node, req.answer(result));
    }

    /// Owner side of cache revalidation: a [`Msg::VersionReq`] names the
    /// version the requester holds. Still current and unlocked → answer
    /// with a payload-free [`Msg::VersionAck`]; anything else delegates to
    /// the full fetch path, which replies with the payload or a scheduler
    /// verdict — the requester never pays a second round trip for a stale
    /// cache. Forwarded along tombstone chains exactly like `ObjReq`.
    fn handle_version_req(&mut self, ctx: &mut NodeCtx<'_>, req: FetchReq, version: u64) {
        let Some(i) = self.owned_or_forward(ctx, req, Some(version)) else {
            return;
        };
        let o = self.objs.slots[i].owned.as_ref().expect("checked");
        if o.version != version || o.is_locked() {
            // Counted on the owner so a failed revalidation registers as a
            // miss exactly once (node metrics merge across the run).
            self.metrics.cache_misses += 1;
            return self.handle_obj_req(ctx, req);
        }
        let local_cl = self.record_and_local_cl(i, ctx.now(), req.tx);
        self.sched
            .with_list(req.oid, |l| l.remove_duplicate(req.tx));
        self.metrics.fetches_served += 1;
        let msg = Msg::VersionAck {
            oid: req.oid,
            tx: req.tx,
            attempt: req.attempt,
            version,
            local_cl,
            owner: self.me,
            owner_clock: self.clock,
        };
        self.send(ctx, req.tx.node, msg);
    }

    /// Requester side of cache revalidation. A [`Msg::VersionAck`] confirms
    /// the cached copy is still the owner's current version: refresh its
    /// freshness metadata and deliver the cached payload through the regular
    /// grant path, exactly as if a full `ObjResp` had carried it. If the
    /// entry vanished meanwhile (a publish or failed validation raced the
    /// ack), fall back to a cold fetch — correctness never leans on the
    /// cache being populated.
    #[allow(clippy::too_many_arguments)]
    fn handle_version_ack(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        oid: ObjectId,
        txid: TxId,
        attempt: u32,
        version: u64,
        local_cl: u32,
        owner: u32,
        owner_clock: u64,
    ) {
        let refreshed = match self.objs.get_mut(oid).and_then(|s| s.cache.as_mut()) {
            Some(c) if c.version == version => {
                c.owner_clock = owner_clock;
                c.local_cl = local_cl;
                c.owner = owner;
                Some(Arc::clone(&c.payload))
            }
            _ => None,
        };
        if let Some(payload) = refreshed {
            self.metrics.cache_hits += 1;
            self.handle_obj_resp(
                ctx,
                oid,
                txid,
                attempt,
                FetchResult::Granted {
                    payload,
                    version,
                    local_cl,
                    owner,
                    owner_clock,
                },
            );
            return;
        }
        self.invalidate_cache(oid);
        let Some(mut tx) = self.take_attempt(txid, attempt) else {
            return;
        };
        if let TxPhase::AwaitObject { oid: o, mode } = tx.phase {
            if o == oid {
                self.request_object(ctx, &mut tx, oid, mode, None);
            }
        }
        self.tx_put(tx);
    }

    /// Serve queued requesters of a freshly released object: all consecutive
    /// readers at the head simultaneously, plus the first writer behind them
    /// (readers take no lock, so a trailing writer would otherwise only be
    /// woken by its own deadline).
    fn serve_queue(&mut self, ctx: &mut NodeCtx<'_>, oid: ObjectId) {
        let Some(o) = self.objs.get(oid).and_then(|s| s.owned.as_ref()) else {
            return;
        };
        if o.is_locked() {
            return;
        }
        let mut grants = std::mem::take(&mut self.grants_buf);
        grants.clear();
        self.sched.with_list(oid, |list| {
            list.pop_servable_into(&mut grants);
            if grants.first().is_some_and(|r| r.read_only) {
                list.pop_servable_into(&mut grants);
            }
        });
        if grants.is_empty() {
            self.grants_buf = grants;
            return;
        }
        let (payload, version) = (Arc::clone(&o.payload), o.version);
        let now = ctx.now();
        let local_cl = self.local_cl(oid, now);
        for r in grants.drain(..) {
            self.metrics.queue_served += 1;
            let wait = now.saturating_since(r.enqueued_at);
            self.hists.record_queue_wait(wait);
            self.ptrace.emit(now, self.me, || ProtoEvent::QueueServed {
                oid,
                tx: r.tx,
                attempt: r.attempt,
                wait,
            });
            let msg = Msg::ObjResp {
                oid,
                tx: r.tx,
                attempt: r.attempt,
                result: FetchResult::Granted {
                    payload: Arc::clone(&payload),
                    version,
                    local_cl,
                    owner: self.me,
                    owner_clock: self.clock,
                },
            };
            self.send(ctx, r.node, msg);
        }
        self.grants_buf = grants;
    }

    // -- owner side: commit participation -------------------------------------

    fn handle_lock_req(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        oid: ObjectId,
        txid: TxId,
        attempt: u32,
        expect_version: u64,
    ) {
        let granted = match self.objs.get_mut(oid).and_then(|s| s.owned.as_mut()) {
            None => false,
            Some(o) => o.version == expect_version && o.try_lock(txid),
        };
        let msg = Msg::LockResp {
            oid,
            tx: txid,
            attempt,
            granted,
        };
        if granted {
            // Global registration of object ownership is the slow part of a
            // distributed validation (§II); the object stays locked for it.
            let overhead = self.cfg.validation_overhead;
            self.send_after(ctx, txid.node, msg, overhead);
        } else {
            self.send(ctx, txid.node, msg);
        }
    }

    fn handle_unlock(&mut self, ctx: &mut NodeCtx<'_>, oid: ObjectId, txid: TxId) {
        if let Some(o) = self.objs.get_mut(oid).and_then(|s| s.owned.as_mut()) {
            if o.unlock(txid) {
                self.serve_queue(ctx, oid);
            }
        }
    }

    fn handle_publish(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: ActorId,
        oid: ObjectId,
        txid: TxId,
        new_owner: u32,
    ) {
        // Ownership moved through this node: the committed write makes any
        // cached copy stale, and this node can no longer vouch for it.
        let (o, invalidated) = self.objs.publish_away(oid, new_owner);
        debug_assert_eq!(o.lock, Some(txid), "publish from a non-lock-holder");
        if invalidated {
            self.metrics.cache_invalidations += 1;
        }
        let queue = self
            .sched
            .with_list(oid, |l| l.drain_all())
            .unwrap_or_default();
        let msg = Msg::PublishAck {
            oid,
            tx: txid,
            queue,
        };
        self.send(ctx, from.0, msg);
    }

    // -- requester side: responses -------------------------------------------

    fn handle_obj_resp(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        oid: ObjectId,
        txid: TxId,
        attempt: u32,
        result: FetchResult,
    ) {
        let Some(mut tx) = self.take_attempt(txid, attempt) else {
            return self.decline_if_granted(ctx, oid, txid, &result);
        };
        let wanted = match &tx.phase {
            TxPhase::AwaitObject { oid: o, mode } if *o == oid => Some((*mode, None)),
            TxPhase::AwaitQueuedObject {
                oid: o,
                mode,
                timer,
            } if *o == oid => Some((*mode, Some(*timer))),
            _ => None,
        };
        let Some((mode, timer)) = wanted else {
            self.decline_if_granted(ctx, oid, txid, &result);
            self.tx_put(tx);
            return;
        };
        if let Some(t) = timer {
            ctx.cancel_timer(t);
        }

        match result {
            FetchResult::Granted {
                payload,
                version,
                local_cl,
                owner,
                owner_clock,
            } => {
                // Retain the copy for clock-validated reuse. Valid even on
                // the forwarding path below: forwarding re-validates the
                // transaction, not the payload, which is current as of
                // `owner_clock` either way.
                let copy = (self.cfg.cache && owner != self.me).then(|| CachedCopy {
                    payload: Arc::clone(&payload),
                    version,
                    owner_clock,
                    local_cl,
                    owner,
                });
                self.objs.grant(oid, owner, copy);
                self.clock = self.clock.max(version);
                self.hists
                    .record_fetch_rtt(ctx.now().saturating_since(tx.fetch_sent_at));
                if version > tx.wv && tx.has_objects() {
                    // Transactional forwarding: early-validate before
                    // advancing the transaction's clock (TFA §II).
                    self.ptrace
                        .emit(ctx.now(), self.me, || ProtoEvent::TxForward {
                            tx: txid,
                            attempt: tx.attempt,
                            oid,
                            wv_old: tx.wv,
                            wv_new: version,
                        });
                    self.begin_validation(
                        ctx,
                        &mut tx,
                        ValidationResume::Deliver {
                            oid,
                            payload,
                            version,
                            local_cl,
                            owner,
                            mode,
                        },
                    );
                } else {
                    tx.wv = tx.wv.max(version);
                    tx.install_fetched(oid, Arc::clone(&payload), version, local_cl, owner, mode);
                    self.drive(ctx, &mut tx, DriveInput::Value(payload));
                }
            }
            FetchResult::Conflict {
                backoff,
                enqueued: true,
                owner,
                aggressor: _,
            } => {
                if self.cfg.cache {
                    // The verdict names the real owner: heal the guess table
                    // so the retry skips the tombstone-forwarding chain.
                    self.objs.heal(oid, owner);
                }
                // RTS parked us in the owner's queue: stay live, bounded by
                // the (slack-adjusted) backoff deadline.
                let deadline = self.cfg.queue_deadline(backoff).max(LOCAL_HOP);
                let timer = ctx.set_timer(
                    deadline,
                    Timer::QueueDeadline {
                        tx: txid,
                        attempt: tx.attempt,
                        oid,
                    },
                );
                tx.phase = TxPhase::AwaitQueuedObject { oid, mode, timer };
            }
            FetchResult::Conflict {
                backoff,
                enqueued: false,
                owner,
                aggressor,
            } => {
                if self.cfg.cache {
                    self.objs.heal(oid, owner);
                }
                if tx.in_nested() && self.cfg.conflict_scope == crate::config::ConflictScope::Child
                {
                    // Child-scoped contention management: the conflict aborts
                    // the innermost child alone; the parent (and committed
                    // siblings) survive. The child replays, re-fetching its
                    // own objects.
                    let level = tx.top();
                    self.roll_back_child(ctx.now(), &mut tx, level);
                    self.metrics.child_conflict_retries += 1;
                    // Same symmetry-breaking jitter as parent retries.
                    let jitter = SimDuration::from_micros(ctx.rng().below(2_000));
                    tx.phase = TxPhase::ChildBackedOff;
                    ctx.set_timer(
                        backoff.max(LOCAL_HOP) + jitter,
                        Timer::RetryBackoff {
                            tx: txid,
                            attempt: tx.attempt,
                        },
                    );
                } else {
                    // Parent-level conflict: the whole transaction is the
                    // loser (TFA's second abort case / RTS's abort verdict).
                    self.abort_parent(
                        ctx,
                        &mut tx,
                        AbortCause::SchedulerAbort,
                        backoff,
                        Some(oid),
                        aggressor,
                    );
                }
            }
        }
        self.tx_settle(tx);
        self.pump(ctx);
    }

    fn decline_if_granted(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        oid: ObjectId,
        txid: TxId,
        result: &FetchResult,
    ) {
        if let FetchResult::Granted { owner, .. } = result {
            let msg = Msg::ObjectDecline { oid, tx: txid };
            self.send(ctx, *owner, msg);
        }
    }

    fn handle_version_resp(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        oid: ObjectId,
        txid: TxId,
        attempt: u32,
        ok: bool,
    ) {
        let Some(mut tx) = self.take_attempt(txid, attempt) else {
            return;
        };
        let round_done = match &mut tx.phase {
            TxPhase::AwaitValidation { stale, .. } => {
                tx.pending.remove(&oid);
                if !ok {
                    // The owner reported a newer version: any cached copy of
                    // this object is stale by the same evidence.
                    self.invalidate_cache(oid);
                    stale.push(oid);
                }
                tx.pending.is_empty()
            }
            _ => {
                self.tx_put(tx);
                return;
            }
        };
        if round_done {
            let phase = std::mem::replace(&mut tx.phase, TxPhase::Running);
            let TxPhase::AwaitValidation { stale, resume } = phase else {
                unreachable!("matched above");
            };
            if stale.is_empty() {
                self.validation_succeeded(ctx, &mut tx, resume);
            } else {
                // Abort at the outermost level holding any stale object.
                let level = stale
                    .iter()
                    .filter_map(|o| tx.outermost_level_holding(*o))
                    .min()
                    .unwrap_or(0);
                let blamed = stale.first().copied();
                let cause = match resume {
                    ValidationResume::Deliver { .. } => AbortCause::ForwardValidation,
                    ValidationResume::Commit => {
                        // Commit-time read validation failed *after* the
                        // write-set locks were granted: release them or the
                        // owners stay locked forever.
                        let mut summary = std::mem::take(&mut self.summary_buf);
                        let mut write_back = std::mem::take(&mut self.wbs_buf);
                        tx.write_back_set_into(&mut summary, &mut write_back);
                        for (goid, _payload, _version, owner) in write_back.drain(..) {
                            let msg = Msg::Unlock {
                                oid: goid,
                                tx: txid,
                            };
                            self.send(ctx, owner, msg);
                        }
                        self.summary_buf = summary;
                        self.wbs_buf = write_back;
                        AbortCause::CommitValidation
                    }
                };
                self.abort_at_level(ctx, &mut tx, level, cause, blamed);
            }
        }
        self.tx_settle(tx);
        self.pump(ctx);
    }

    fn handle_lock_resp(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: ActorId,
        oid: ObjectId,
        txid: TxId,
        attempt: u32,
        granted: bool,
    ) {
        let mut tx = match self.take_attempt(txid, attempt) {
            Some(tx) if matches!(tx.phase, TxPhase::AwaitLocks { .. }) => tx,
            stale => {
                if granted {
                    self.send(ctx, from.0, Msg::Unlock { oid, tx: txid });
                }
                if let Some(tx) = stale {
                    self.tx_put(tx);
                }
                return;
            }
        };
        let round_done = {
            let TxPhase::AwaitLocks {
                granted: acc,
                failed,
            } = &mut tx.phase
            else {
                unreachable!("checked above");
            };
            tx.pending.remove(&oid);
            if granted {
                acc.push(oid);
            } else {
                // Denied either because the object moved on past our version
                // or because another writer holds it; in both cases the local
                // copy has no freshness claim left.
                self.invalidate_cache(oid);
                if failed.is_none() {
                    *failed = Some(oid);
                }
            }
            tx.pending.is_empty()
        };
        if round_done {
            let phase = std::mem::replace(&mut tx.phase, TxPhase::Running);
            let TxPhase::AwaitLocks {
                granted: acc,
                failed,
            } = phase
            else {
                unreachable!("matched above");
            };
            if let Some(failed_oid) = failed {
                // Roll back granted locks, then abort (TFA's first abort
                // flavour: the write set went stale under us).
                for goid in acc {
                    let owner = tx
                        .lookup(goid)
                        .map(|c| c.owner)
                        .unwrap_or_else(|| self.owner_guess(goid));
                    let msg = Msg::Unlock {
                        oid: goid,
                        tx: txid,
                    };
                    self.send(ctx, owner, msg);
                }
                self.abort_parent(
                    ctx,
                    &mut tx,
                    AbortCause::CommitValidation,
                    SimDuration::ZERO,
                    Some(failed_oid),
                    None,
                );
            } else {
                // Write set locked; validate the clean reads.
                self.begin_validation(ctx, &mut tx, ValidationResume::Commit);
            }
        }
        self.tx_settle(tx);
        self.pump(ctx);
    }

    fn handle_publish_ack(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        oid: ObjectId,
        txid: TxId,
        queue: Vec<Requester>,
    ) {
        // Adopt the transferred requester queue, then serve it from the new
        // authoritative copy (Algorithm 4's hand-off).
        if !queue.is_empty() {
            let list = self.sched.list_mut(oid);
            let contention = list.get_contention();
            for r in queue {
                list.add_requester(contention, r);
            }
        }
        self.serve_queue(ctx, oid);

        let Some(mut tx) = self.tx_take(txid) else {
            return;
        };
        let round_done = match tx.phase {
            TxPhase::AwaitPublish => {
                tx.pending.remove(&oid);
                tx.pending.is_empty()
            }
            _ => {
                self.tx_put(tx);
                return;
            }
        };
        if round_done {
            self.finalize_commit(ctx, &mut tx);
        }
        self.tx_settle(tx);
        self.pump(ctx);
    }

    fn handle_decline(&mut self, ctx: &mut NodeCtx<'_>, oid: ObjectId) {
        self.metrics.queue_declined += 1;
        self.serve_queue(ctx, oid);
    }
}

impl Node {
    /// Message dispatch proper, separated from [`Actor::on_message`] so the
    /// coalesced-send buffer is flushed exactly once per handler activation
    /// even though several arms return early, and so [`Msg::Batch`] can
    /// re-enter dispatch for each folded message.
    fn dispatch_msg(&mut self, ctx: &mut NodeCtx<'_>, from: ActorId, msg: Msg) {
        match msg {
            Msg::StartWorkload => self.pump(ctx),
            Msg::ObjReq(req) => self.handle_obj_req(ctx, req),
            Msg::ObjResp {
                oid,
                tx,
                attempt,
                result,
            } => self.handle_obj_resp(ctx, oid, tx, attempt, result),
            Msg::ObjectDecline { oid, .. } => self.handle_decline(ctx, oid),
            Msg::LockReq {
                oid,
                tx,
                attempt,
                expect_version,
            } => self.handle_lock_req(ctx, oid, tx, attempt, expect_version),
            Msg::LockResp {
                oid,
                tx,
                attempt,
                granted,
            } => self.handle_lock_resp(ctx, from, oid, tx, attempt, granted),
            Msg::Unlock { oid, tx } => self.handle_unlock(ctx, oid, tx),
            Msg::Publish {
                oid, tx, new_owner, ..
            } => self.handle_publish(ctx, from, oid, tx, new_owner),
            Msg::PublishAck { oid, tx, queue } => self.handle_publish_ack(ctx, oid, tx, queue),
            Msg::VersionCheck {
                oid,
                tx,
                attempt,
                expect_version,
            } => {
                // Stale if the version moved, the object migrated away, or it
                // is mid-validation by someone else ("transactions that
                // request an object being validated must abort").
                let ok = match self.objs.get(oid).and_then(|s| s.owned.as_ref()) {
                    None => false,
                    Some(o) => {
                        o.version == expect_version && (o.lock.is_none() || o.lock == Some(tx))
                    }
                };
                let msg = Msg::VersionResp {
                    oid,
                    tx,
                    attempt,
                    ok,
                };
                self.send(ctx, tx.node, msg);
            }
            Msg::VersionResp {
                oid,
                tx,
                attempt,
                ok,
            } => self.handle_version_resp(ctx, oid, tx, attempt, ok),
            Msg::VersionReq {
                oid,
                tx,
                attempt,
                mode,
                ets,
                my_cl,
                nested,
                version,
            } => {
                let req = FetchReq {
                    oid,
                    tx,
                    attempt,
                    mode,
                    ets,
                    my_cl,
                    nested,
                };
                self.handle_version_req(ctx, req, version)
            }
            Msg::VersionAck {
                oid,
                tx,
                attempt,
                version,
                local_cl,
                owner,
                owner_clock,
            } => self.handle_version_ack(
                ctx,
                oid,
                tx,
                attempt,
                version,
                local_cl,
                owner,
                owner_clock,
            ),
            Msg::Batch(msgs) => {
                // One DES event standing in for `msgs.len()` logical sends;
                // keep the ledger honest about what coalescing folded away.
                ctx.count_batched(msgs.len().saturating_sub(1) as u64);
                for m in msgs {
                    self.dispatch_msg(ctx, from, m);
                }
            }
        }
    }

    fn dispatch_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: Timer) {
        match timer {
            Timer::ComputeDone { tx: txid, attempt } => {
                let Some(mut tx) = self.take_attempt(txid, attempt) else {
                    return;
                };
                if !matches!(tx.phase, TxPhase::Computing) {
                    return self.tx_put(tx);
                }
                self.drive(ctx, &mut tx, DriveInput::Ack);
                self.tx_settle(tx);
                self.pump(ctx);
            }
            Timer::QueueDeadline {
                tx: txid,
                attempt,
                oid,
            } => {
                let Some(mut tx) = self.take_attempt(txid, attempt) else {
                    return;
                };
                if matches!(&tx.phase, TxPhase::AwaitQueuedObject { oid: o, .. } if *o == oid) {
                    // The assigned backoff expired before the object arrived
                    // (Algorithm 2): abort and re-request as a new attempt.
                    // The awaited object is known; its holder is not.
                    self.abort_parent(
                        ctx,
                        &mut tx,
                        AbortCause::QueueTimeout,
                        SimDuration::ZERO,
                        Some(oid),
                        None,
                    );
                }
                self.tx_settle(tx);
                self.pump(ctx);
            }
            Timer::RetryBackoff { tx: txid, attempt } => {
                let Some(mut tx) = self.take_attempt(txid, attempt) else {
                    return;
                };
                match tx.phase {
                    TxPhase::BackedOff => self.restart_now(ctx, &mut tx),
                    TxPhase::ChildBackedOff => {
                        // Replay the backed-off child level.
                        self.drive(ctx, &mut tx, DriveInput::Ack);
                    }
                    _ => {}
                }
                self.tx_settle(tx);
                self.pump(ctx);
            }
        }
    }
}

impl Actor for Node {
    type Msg = Msg;
    type Timer = Timer;

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: ActorId, msg: Msg) {
        // Passive epoch sampling: one compare when telemetry is off.
        if self.telemetry.due(ctx.now()) {
            self.telemetry_flush(ctx.now());
        }
        self.dispatch_msg(ctx, from, msg);
        self.flush_outbox(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: Timer) {
        if self.telemetry.due(ctx.now()) {
            self.telemetry_flush(ctx.now());
        }
        self.dispatch_timer(ctx, timer);
        self.flush_outbox(ctx);
    }

    #[inline]
    fn hint_soon(&self) {
        prefetch(std::ptr::from_ref(self), Node::HOT_BYTES / CACHE_LINE);
    }

    /// An owner-side request starts by finding its object's slot, a
    /// response or a timer by taking its transaction's runtime out of the
    /// table: request that second hop now. The probe and the table read are
    /// real loads, but of lines [`Node::hint_soon`] asked for an event ago.
    #[inline]
    fn hint_next(&self, next: &KernelEvent<Msg, Timer>) {
        match next {
            KernelEvent::Msg { msg, .. } => match msg {
                Msg::ObjReq(FetchReq { oid, .. })
                | Msg::LockReq { oid, .. }
                | Msg::Unlock { oid, .. }
                | Msg::Publish { oid, .. }
                | Msg::VersionCheck { oid, .. }
                | Msg::VersionReq { oid, .. }
                | Msg::ObjectDecline { oid, .. } => self.hint_object(*oid),
                Msg::ObjResp { oid, tx, .. } => {
                    self.hint_tx(*tx);
                    self.hint_object(*oid);
                }
                Msg::LockResp { tx, .. }
                | Msg::VersionResp { tx, .. }
                | Msg::VersionAck { tx, .. }
                | Msg::PublishAck { tx, .. } => self.hint_tx(*tx),
                Msg::StartWorkload | Msg::Batch(_) => {}
            },
            KernelEvent::Timer { timer, .. } => match timer {
                Timer::ComputeDone { tx, .. }
                | Timer::QueueDeadline { tx, .. }
                | Timer::RetryBackoff { tx, .. } => self.hint_tx(*tx),
            },
        }
    }
}

impl Node {
    /// Leading bytes of a node that hold everything a handler reads before
    /// its first object or transaction lookup.
    const HOT_BYTES: usize = 256;

    #[inline]
    fn hint_object(&self, oid: ObjectId) {
        if let Some(slot) = self.objs.get(oid) {
            // Everything ahead of the read cache, which is off by default.
            let lines = std::mem::offset_of!(ObjSlot, cache).div_ceil(CACHE_LINE);
            prefetch(std::ptr::from_ref(slot), lines);
        }
    }

    #[inline]
    fn hint_tx(&self, id: TxId) {
        let slot = (id.seq as usize)
            .checked_sub(1)
            .and_then(|i| self.txs.get(i));
        if let Some(Some(tx)) = slot {
            prefetch(std::ptr::from_ref::<TxRuntime>(tx), TxRuntime::HOT_LINES);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::{align_of, offset_of, size_of};

    /// Offset one past the last byte of a field.
    macro_rules! end_of {
        ($t:ty, $f:ident) => {{
            fn size_of_field<T, F>(_: fn(&T) -> &F) -> usize {
                size_of::<F>()
            }
            offset_of!($t, $f) + size_of_field(|t: &$t| &t.$f)
        }};
    }

    /// A field added in the wrong place should fail here, not in a
    /// benchmark three PRs later. What must stay inside the lines
    /// [`Node::hint_soon`] requests is everything `on_message`, `on_timer`
    /// and the two dispatchers read before their first object or
    /// transaction lookup — the telemetry guard, the tables themselves and
    /// what `send` needs — plus what every handler exit checks.
    #[test]
    fn what_every_handler_reads_first_lies_in_the_hot_bytes() {
        let hot = [
            ("me", end_of!(Node, me)),
            ("clock", end_of!(Node, clock)),
            ("cfg", end_of!(Node, cfg)),
            ("topo", end_of!(Node, topo)),
            ("txs", end_of!(Node, txs)),
            ("active", end_of!(Node, active)),
            ("objs", end_of!(Node, objs)),
            ("sched", end_of!(Node, sched)),
            ("policy", end_of!(Node, policy)),
            ("ptrace", end_of!(Node, ptrace)),
            ("outbox", end_of!(Node, outbox)),
            // The guard is the sampler's first word (pinned in telemetry.rs).
            (
                "telemetry guard",
                offset_of!(Node, telemetry) + size_of::<u64>(),
            ),
        ];
        for (field, end) in hot {
            assert!(end <= Node::HOT_BYTES, "{field} ends at byte {end}");
        }
        // The counters come straight after the sampler, up to their own
        // alignment; nothing cold sits between the hot bytes and them.
        assert_eq!(
            offset_of!(Node, metrics),
            end_of!(Node, telemetry).next_multiple_of(align_of::<NodeCounters>())
        );
        // 3 072 bytes while every node carried its own four latency
        // histograms (2 176 bytes); they are one set per run now.
        assert_eq!(align_of::<Node>(), CACHE_LINE);
        assert!(size_of::<Node>() <= 832);
    }

    #[test]
    fn an_owner_side_request_decides_on_a_slots_first_line() {
        for (field, end) in [
            ("oid", end_of!(ObjSlot, oid)),
            ("owned", end_of!(ObjSlot, owned)),
        ] {
            assert!(end <= CACHE_LINE, "{field} ends at byte {end}");
        }
        // 160 bytes while the slot also carried the routing facts.
        assert!(size_of::<ObjSlot>() <= 144);
        assert_eq!(size_of::<ObjEntry>(), 12);
    }

    /// The object table against a map that never forgets an object.
    ///
    /// Random sequences of everything the node does to its table — install
    /// a home object, heal the owner guess from a grant or a conflict
    /// verdict, retain or invalidate a cached copy, serve, lock, publish an
    /// object away and receive one back — over a few objects, so the same
    /// object migrates away and back several times. After every step the
    /// routing answers must be the model's: where an owner-side request is
    /// served or forwarded, where a requester sends, what the node holds,
    /// and the bytes the model checker deduplicates states on.
    mod obj_table_model {
        use super::*;
        use crate::small::Fnv64;
        use dstm_sim::SimRng;
        use std::collections::BTreeMap;

        const OBJECTS: u64 = 6;
        const NODES: usize = 4;
        const ME: u32 = 0;
        const EXTRA: u64 = 0x5a5a;

        /// What the node knows about one object it has touched.
        #[derive(Clone, Debug, Default, PartialEq)]
        struct Known {
            /// Payload value, version, lock holder.
            owned: Option<(i64, u64, Option<TxId>)>,
            tombstone: Option<u32>,
            cached_owner: Option<u32>,
            /// Payload value, version, owner clock, local CL, owner.
            cache: Option<(i64, u64, u64, u32, u32)>,
            /// Served since it was last received, so its CL window exists.
            window: bool,
        }

        fn real_owned(o: &OwnedObject) -> (i64, u64, Option<TxId>) {
            (o.payload.as_scalar(), o.version, o.lock)
        }

        fn real_cache(c: &CachedCopy) -> (i64, u64, u64, u32, u32) {
            (
                c.payload.as_scalar(),
                c.version,
                c.owner_clock,
                c.local_cl,
                c.owner,
            )
        }

        /// The fingerprint the table must give `model`.
        fn model_fingerprint(model: &BTreeMap<ObjectId, Known>) -> u64 {
            let mut h = Fnv64::new();
            model.len().hash(&mut h);
            for (&oid, k) in model {
                let owned = k.owned.map(|(v, version, lock)| OwnedObject {
                    payload: Arc::new(Payload::Scalar(v)),
                    version,
                    lock,
                });
                let cache = k
                    .cache
                    .map(|(v, version, owner_clock, local_cl, owner)| CachedCopy {
                        payload: Arc::new(Payload::Scalar(v)),
                        version,
                        owner_clock,
                        local_cl,
                        owner,
                    });
                (
                    oid,
                    owned.as_ref(),
                    k.tombstone,
                    k.cached_owner,
                    cache.as_ref(),
                )
                    .hash(&mut h);
                h.write_u64(oid.0 ^ EXTRA);
            }
            h.finish()
        }

        fn assert_same(objs: &ObjTable, model: &BTreeMap<ObjectId, Known>, ctx: &str) {
            for oid in (0..=OBJECTS).map(ObjectId) {
                let k = model.get(&oid);
                let owned = k.and_then(|k| k.owned);
                match objs.owned_index(oid) {
                    Ok(i) => {
                        assert!(owned.is_some(), "owned_index {oid:?} served {ctx}");
                        assert_eq!(objs.slots[i].oid, oid, "slot identity {oid:?} {ctx}");
                    }
                    Err(tombstone) => {
                        assert!(owned.is_none(), "owned_index {oid:?} forwarded {ctx}");
                        assert_eq!(
                            tombstone,
                            k.and_then(|k| k.tombstone),
                            "tombstone {oid:?} {ctx}"
                        );
                    }
                }
                let guess = match k {
                    Some(k) if k.owned.is_some() => ME,
                    Some(Known {
                        cached_owner: Some(o),
                        ..
                    }) => *o,
                    _ => oid.home(NODES),
                };
                assert_eq!(
                    objs.owner_guess(oid, ME, NODES),
                    guess,
                    "owner_guess {oid:?} {ctx}"
                );
                let slot = objs.get(oid);
                assert_eq!(
                    slot.and_then(|s| s.owned.as_ref()).map(real_owned),
                    owned,
                    "owned {oid:?} {ctx}"
                );
                assert_eq!(
                    slot.and_then(|s| s.cache.as_ref()).map(real_cache),
                    k.and_then(|k| k.cache),
                    "cache {oid:?} {ctx}"
                );
                assert_eq!(
                    slot.is_some_and(|s| s.cl_window.is_some()),
                    k.is_some_and(|k| k.window),
                    "CL window {oid:?} {ctx}"
                );
            }
            let held = |f: fn(&ObjSlot) -> bool| {
                let mut v: Vec<ObjectId> = objs.iter().filter(|s| f(s)).map(|s| s.oid).collect();
                v.sort();
                v
            };
            let modelled = |f: fn(&Known) -> bool| -> Vec<ObjectId> {
                model
                    .iter()
                    .filter(|(_, k)| f(k))
                    .map(|(o, _)| *o)
                    .collect()
            };
            assert_eq!(
                held(|s| s.owned.is_some()),
                modelled(|k| k.owned.is_some()),
                "owned set {ctx}"
            );
            assert_eq!(
                held(|s| s.cache.is_some()),
                modelled(|k| k.cache.is_some()),
                "cached set {ctx}"
            );
            let mut h = Fnv64::new();
            objs.hash_into(&mut h, |oid, h| h.write_u64(oid.0 ^ EXTRA));
            assert_eq!(h.finish(), model_fingerprint(model), "fingerprint {ctx}");
            let mut broken = Vec::new();
            objs.check(ME, &mut broken);
            assert_eq!(broken, Vec::<String>::new(), "structure {ctx}");
        }

        /// What the sequences reached, so a generator that stops reaching
        /// it fails.
        #[derive(Default)]
        struct Coverage {
            retained: u64,
            invalidated: u64,
            published: u64,
            /// Receipts of an object this node had published away.
            returned: u64,
        }

        fn run_sequence(seed: u64, steps: usize, seen: &mut Coverage) {
            let mut rng = SimRng::new(seed);
            let mut objs = ObjTable::with_capacity(0);
            let mut model: BTreeMap<ObjectId, Known> = BTreeMap::new();
            let mut next = 0i64;
            for oid in (0..OBJECTS).map(ObjectId) {
                if rng.chance(0.4) {
                    next += 1;
                    objs.install_home(oid, Payload::Scalar(next));
                    model.entry(oid).or_default().owned = Some((next, 0, None));
                }
            }
            assert_same(&objs, &model, &format!("after install, seed {seed}"));
            let mut peak = objs.slots.len();

            for step in 0..steps {
                let oid = ObjectId(rng.below(OBJECTS));
                let owner = rng.below(NODES as u64) as u32;
                let owned = model.get(&oid).is_some_and(|k| k.owned.is_some());
                next += 1;
                let what = match rng.below(8) {
                    0 | 1 => {
                        let retain = owner != ME && rng.chance(0.6);
                        let copy = (next, rng.below(50), rng.below(50), 1, owner);
                        objs.grant(
                            oid,
                            owner,
                            retain.then(|| CachedCopy {
                                payload: Arc::new(Payload::Scalar(copy.0)),
                                version: copy.1,
                                owner_clock: copy.2,
                                local_cl: copy.3,
                                owner,
                            }),
                        );
                        let k = model.entry(oid).or_default();
                        k.cached_owner = Some(owner);
                        if retain && !owned {
                            k.cache = Some(copy);
                            seen.retained += 1;
                        }
                        format!("grant {oid:?} from {owner} retain {retain}")
                    }
                    2 => {
                        objs.heal(oid, owner);
                        model.entry(oid).or_default().cached_owner = Some(owner);
                        format!("heal {oid:?} to {owner}")
                    }
                    3 if !owned => {
                        let version = 100 + step as u64;
                        let object = OwnedObject {
                            payload: Arc::new(Payload::Scalar(next)),
                            version,
                            lock: None,
                        };
                        let superseded = objs.receive(oid, object);
                        let k = model.entry(oid).or_default();
                        assert_eq!(superseded, k.cache.is_some(), "receive {oid:?} seed {seed}");
                        seen.returned += u64::from(k.tombstone.is_some());
                        k.owned = Some((next, version, None));
                        k.cached_owner = None;
                        k.cache = None;
                        format!("receive {oid:?}")
                    }
                    4 if owned => {
                        let new_owner = 1 + rng.below(NODES as u64 - 1) as u32;
                        let (object, dropped) = objs.publish_away(oid, new_owner);
                        let k = model.get_mut(&oid).expect("owned");
                        assert_eq!(Some(real_owned(&object)), k.owned, "published object");
                        assert_eq!(dropped, k.cache.is_some(), "publish {oid:?} seed {seed}");
                        *k = Known {
                            tombstone: Some(new_owner),
                            cached_owner: Some(new_owner),
                            ..Known::default()
                        };
                        seen.published += 1;
                        format!("publish {oid:?} to {new_owner}")
                    }
                    5 => {
                        let dropped = objs.invalidate(oid);
                        let had = model.get_mut(&oid).and_then(|k| k.cache.take());
                        assert_eq!(dropped, had.is_some(), "invalidate {oid:?} seed {seed}");
                        seen.invalidated += u64::from(dropped);
                        format!("invalidate {oid:?}")
                    }
                    6 if owned => {
                        let tx = TxId::new(owner, 1 + rng.below(3));
                        let o = objs
                            .get_mut(oid)
                            .and_then(|s| s.owned.as_mut())
                            .expect("owned");
                        let k = model
                            .get_mut(&oid)
                            .and_then(|k| k.owned.as_mut())
                            .expect("owned");
                        if o.lock.is_some() {
                            let holder = o.lock.expect("locked");
                            assert!(o.unlock(holder));
                            k.2 = None;
                        } else {
                            assert!(o.try_lock(tx));
                            k.2 = Some(tx);
                        }
                        format!("lock toggle {oid:?}")
                    }
                    _ if owned => {
                        let Ok(i) = objs.owned_index(oid) else {
                            panic!("owned {oid:?} not served, seed {seed}");
                        };
                        let now = SimTime(1_000 * step as u64);
                        objs.slots[i]
                            .cl_window
                            .get_or_insert_with(|| ObjectClWindow::new(SimDuration::from_millis(5)))
                            .record(now, TxId::new(owner, 1));
                        model.get_mut(&oid).expect("owned").window = true;
                        format!("serve {oid:?}")
                    }
                    _ => "nothing".to_string(),
                };
                assert_same(
                    &objs,
                    &model,
                    &format!("after step {step} ({what}), seed {seed}"),
                );
                // The slab is as large as what was held at once, no larger.
                let held = model
                    .values()
                    .filter(|k| k.owned.is_some() || k.cache.is_some());
                peak = peak.max(held.count());
                assert!(
                    objs.slots.len() <= peak,
                    "{} slots for at most {peak} objects held, seed {seed}",
                    objs.slots.len()
                );
            }
        }

        #[test]
        fn random_sequences_match_the_model() {
            let mut seen = Coverage::default();
            for seed in 1..=300 {
                run_sequence(seed, 120, &mut seen);
            }
            assert!(seen.retained > 0, "no copy was ever retained");
            assert!(seen.invalidated > 0, "no copy was ever invalidated");
            assert!(seen.published > 0, "no object was ever published away");
            assert!(seen.returned > 0, "no object ever came back");
        }
    }
}
