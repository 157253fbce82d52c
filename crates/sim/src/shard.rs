//! Conservative, time-windowed parallel execution of a single simulation.
//!
//! [`GenericWorld::run_partitioned`] splits the actors of one world into `S`
//! shards (any assignment, described by a [`Partition`]), gives each shard
//! its own pending-event set and its actors' kernel state (RNG streams,
//! issue counters, timer slabs), and executes synchronized **windows** of
//! virtual time on `S` threads. This is the classic null-message-free
//! bounded-lag conservative PDES design, generalized from a single global
//! lookahead to a per-shard-pair lookahead matrix:
//!
//! * **Lookahead matrix.** The caller supplies `L`, an `S×S` matrix where
//!   `L[p][q]` lower-bounds the delay of every message an actor in shard `p`
//!   sends to an actor in shard `q` (for the DSTM stack:
//!   `Topology::cross_min_delay` over the partition). Self-sends and timers
//!   are actor-local, so they never cross a shard boundary and impose no
//!   lookahead constraint; the diagonal is unconstrained.
//! * **Per-shard windows.** Each round, every shard publishes the timestamp
//!   of its earliest pending event, `t_min[p]`. Shard `q` may then execute
//!   every local event before `t_end[q] = min over all p of
//!   (t_min[p] + D[p][q])`, where `D` is the **min-plus closure** of `L`
//!   (shortest chain-of-sends delay, ≥ 1 hop; the diagonal is the shortest
//!   cycle). Any event that ever reaches `q` from this point on originates
//!   from some currently pending event at some shard `p` (at `τ ≥ t_min[p]`)
//!   and crosses a chain of sends totalling ≥ `D[p][q]` — so it arrives at
//!   or past `t_end[q]`, outside the window. (The closure, not the raw
//!   matrix, is essential: `t_min[p]` is not monotone — mail from a lagging
//!   shard can pull it backwards — so single-hop bounds anchored at current
//!   mins are unsound.) This is never narrower than the old fleet-wide
//!   `[t0, t0 + min_delay)` window; with a real topology, shards that are
//!   far apart (or ahead in virtual time) grant each other far wider
//!   windows, so fewer barrier rounds are needed for the same event count.
//! * **Mailboxes.** Cross-shard sends are buffered in per-(destination,
//!   source) outboxes during the window and exchanged at the barrier, so
//!   shards never contend on each other's queues mid-window. The mailbox
//!   vectors ping-pong between sender and receiver via `mem::swap`, and the
//!   receiver drains all `S` inboxes through one pooled scratch buffer with
//!   a single sort — zero allocations per window in steady state.
//!
//! # Determinism
//!
//! A sharded run is **bit-identical** to the serial run, for any `S`, any
//! partition, and any valid lookahead matrix:
//!
//! * Event keys are interleaving-independent (`EventKey::compose`: time,
//!   issuing actor, per-actor sequence) — an event gets the same key no
//!   matter which thread issued it or when.
//! * Within a window a shard's pending set evolves only through its own
//!   processing (remote arrivals land at ≥ `t_end`), so the shard-local
//!   greedy-min order equals the serial order restricted to that shard's
//!   actors; per-actor delivered sequences are therefore identical.
//! * The stop decision (drained / budget exhausted) and the window schedule
//!   are pure performance knobs: any valid lower-bound matrix yields the
//!   same per-actor event sequences, and the final clock is the maximum
//!   processed event time — also partition-independent.
//!
//! The differential proptests in `tests/shard_differential.rs` enforce this
//! for the whole DSTM protocol stack across `shards ∈ {1, 2, 4, 8}` and
//! both partitioners (round-robin and locality-greedy).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::engine::{dispatch_one, Actor, GenericWorld, KernelCore, KernelEvent, StepOutcome};
use crate::event::Sequenced;
use crate::queue::EventQueue;
use crate::time::SimDuration;

/// An assignment of `n` actors to `S` shards, with the dense per-shard slot
/// indices the kernel uses to address actor state. Slots follow ascending
/// global-id order within each shard, matching the order the sharded
/// executor moves actors in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    shards: u32,
    /// `shard_of[gid]` — owning shard of each actor.
    shard_of: Vec<u32>,
    /// `slot_of[gid]` — the actor's dense index within its shard.
    slot_of: Vec<u32>,
    /// Actors per shard (a shard may be empty).
    counts: Vec<u32>,
}

impl Partition {
    /// The classic round-robin assignment: actor `gid` goes to shard
    /// `gid % shards`.
    pub fn round_robin(n: usize, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        Self::from_assignment((0..n).map(|gid| (gid % shards) as u32).collect(), shards)
    }

    /// An arbitrary assignment: `shard_of[gid]` names each actor's shard.
    /// Every entry must be `< shards`; shards may be empty.
    pub fn from_assignment(shard_of: Vec<u32>, shards: usize) -> Self {
        assert!(
            (1..=u32::MAX as usize).contains(&shards),
            "shard count {shards} out of range"
        );
        let mut counts = vec![0u32; shards];
        let mut slot_of = Vec::with_capacity(shard_of.len());
        for (gid, &s) in shard_of.iter().enumerate() {
            assert!(
                (s as usize) < shards,
                "actor {gid} assigned to shard {s}, but only {shards} shards exist"
            );
            slot_of.push(counts[s as usize]);
            counts[s as usize] += 1;
        }
        Partition {
            shards: shards as u32,
            shard_of,
            slot_of,
            counts,
        }
    }

    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    pub fn len(&self) -> usize {
        self.shard_of.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shard_of.is_empty()
    }

    /// The owning shard of each actor, indexed by global id.
    pub fn shard_of(&self) -> &[u32] {
        &self.shard_of
    }

    /// Number of actors assigned to `shard`.
    pub fn count(&self, shard: usize) -> usize {
        self.counts[shard] as usize
    }

    /// Dense per-shard slot of actor `gid` (hot path: kernel state lookup).
    #[inline]
    pub(crate) fn slot_of(&self, gid: u32) -> usize {
        self.slot_of[gid as usize] as usize
    }
}

/// Host-side statistics of one [`GenericWorld::run_partitioned`] call.
/// `steps`/`windows`/`shard_events` are deterministic (functions of the
/// simulation and the partition); `barrier_wait_ns` and the per-shard
/// [`WindowProfile`]s are wall-clock host measurement and vary run to run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardRunStats {
    /// Total events processed (dispatched or skipped) across all shards.
    pub steps: u64,
    /// Barrier rounds executed (same count observed by every shard).
    pub windows: u64,
    /// Events processed by each shard.
    pub shard_events: Vec<u64>,
    /// Wall-clock nanoseconds each shard spent waiting at the two
    /// per-window barriers — the price of synchronization (and of load
    /// imbalance: a starved shard waits while the loaded one runs).
    pub barrier_wait_ns: Vec<u64>,
    /// Per-shard execute/drain phase breakdown aggregated over all windows.
    pub profiles: Vec<WindowProfile>,
}

/// Wall-clock breakdown of one shard's time inside the window loop,
/// aggregated across every window of a run (totals plus the worst single
/// window). Together with `ShardRunStats::barrier_wait_ns` this accounts
/// for where a shard's host time goes: executing local events, waiting at
/// the two barriers, or draining cross-shard mail.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WindowProfile {
    /// Total nanoseconds spent in the execute phase (dispatching local
    /// events inside the window).
    pub execute_ns: u64,
    /// The most expensive single execute phase — a proxy for the load spike
    /// that makes the other shards wait.
    pub execute_ns_max: u64,
    /// Total nanoseconds spent posting outboxes and draining inboxes at the
    /// window boundary (excluding the barrier wait itself).
    pub drain_ns: u64,
    /// The most expensive single drain phase.
    pub drain_ns_max: u64,
    /// The largest number of events this shard executed in one window.
    pub window_events_max: u64,
    /// Cross-shard messages this shard received over the whole run.
    pub drained_msgs: u64,
}

impl WindowProfile {
    fn record_execute(&mut self, ns: u64, events: u64) {
        self.execute_ns += ns;
        self.execute_ns_max = self.execute_ns_max.max(ns);
        self.window_events_max = self.window_events_max.max(events);
    }

    fn record_drain(&mut self, ns: u64, msgs: u64) {
        self.drain_ns += ns;
        self.drain_ns_max = self.drain_ns_max.max(ns);
        self.drained_msgs += msgs;
    }
}

/// A uniform `S×S` lookahead matrix: `d` between every pair of distinct
/// shards, unconstrained (`SimDuration::MAX`) on the diagonal. This is the
/// matrix the legacy single-lookahead API builds.
pub fn uniform_lookahead(shards: usize, d: SimDuration) -> Vec<SimDuration> {
    let mut m = vec![SimDuration::MAX; shards * shards];
    for (i, entry) in m.iter_mut().enumerate() {
        if i / shards != i % shards {
            *entry = d;
        }
    }
    m
}

/// A reusable spin barrier (generation-counted). Spins briefly, then yields:
/// window rounds are short, but the host may have fewer cores than shards —
/// a pure spin would livelock a 1-core machine.
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Block until all `n` participants arrive. Data written before `wait`
    /// is visible to every participant after it (release/acquire through the
    /// counter RMW chain and the generation bump).
    fn wait(&self) {
        if self.n == 1 {
            return;
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// `wait`, accumulating the wall-clock time spent blocked into `acc`.
    fn wait_timed(&self, acc: &mut u64) {
        let start = std::time::Instant::now();
        self.wait();
        *acc += start.elapsed().as_nanos() as u64;
    }
}

/// State shared by all shards of one `run_partitioned` call.
struct Shared<E> {
    barrier: SpinBarrier,
    /// Per-shard: timestamp (nanos) of the earliest pending local event at
    /// the last window boundary, or `u64::MAX` if that shard is drained.
    min_times: Vec<AtomicU64>,
    /// Per-shard: cumulative events processed (dispatched or skipped).
    steps: Vec<AtomicU64>,
    /// Cross-shard mail, indexed `destination * S + source`. Only touched at
    /// window boundaries, so a plain mutex per slot is uncontended. The
    /// vectors inside ping-pong with the senders' outboxes (`mem::swap` on
    /// post, drained in place on receive), so no slot reallocates in steady
    /// state.
    mail: Vec<Mutex<Vec<Sequenced<E>>>>,
}

/// The queue a shard dispatches through: local events go straight into the
/// shard's own pending set; cross-shard sends are buffered in per-destination
/// outboxes until the window boundary.
struct ShardQueue<'a, Q, M, T> {
    local: &'a mut Q,
    /// Outbox per destination shard (`outboxes[self_shard]` stays unused).
    outboxes: &'a mut [Vec<Sequenced<KernelEvent<M, T>>>],
    shard: u32,
    /// Owning shard of every actor, indexed by global id.
    shard_of: &'a [u32],
    /// Exclusive end (nanos) of the current window of every shard, for the
    /// safety assertion: a cross-shard event must land at or after its
    /// destination's window end.
    window_ends: &'a [u64],
    /// This shard's row of the lookahead matrix (`L[self][q]`, nanos), so a
    /// violated assertion can name the offending entry.
    lookahead_row: &'a [u64],
}

impl<Q, M, T> EventQueue<KernelEvent<M, T>> for ShardQueue<'_, Q, M, T>
where
    Q: EventQueue<KernelEvent<M, T>>,
{
    fn push(&mut self, ev: Sequenced<KernelEvent<M, T>>) {
        let dst = self.shard_of[ev.payload.destination().index()];
        if dst == self.shard {
            self.local.push(ev);
        } else {
            debug_assert!(
                ev.key.time.as_nanos() >= self.window_ends[dst as usize],
                "cross-shard event inside the window: shard {src} -> shard {dst} scheduled \
                 {key:?}, but shard {dst}'s window ends at {end}ns — lookahead \
                 L[{src}][{dst}] = {la}ns exceeds the actual delay of this message",
                src = self.shard,
                dst = dst,
                key = ev.key,
                end = self.window_ends[dst as usize],
                la = self.lookahead_row[dst as usize],
            );
            self.outboxes[dst as usize].push(ev);
        }
    }

    fn pop(&mut self) -> Option<Sequenced<KernelEvent<M, T>>> {
        self.local.pop()
    }

    fn peek_key(&self) -> Option<crate::event::EventKey> {
        self.local.peek_key()
    }

    fn len(&self) -> usize {
        self.local.len()
    }
}

/// A buffered cross-shard outbox: events destined for one other shard.
type Outbox<M, T> = Vec<Sequenced<KernelEvent<M, T>>>;

/// Everything one shard owns during a run, and hands back afterwards.
struct ShardState<A: Actor, Q> {
    shard: u32,
    actors: Vec<A>,
    core: KernelCore,
    queue: Q,
}

/// Per-shard host-side outcome of `run_shard`.
struct ShardOutcome {
    windows: u64,
    barrier_wait_ns: u64,
    profile: WindowProfile,
}

/// Run one shard to completion: alternate publish/decide/execute rounds until
/// the global decision is to stop. Returns the shard with its final state.
fn run_shard<A, Q>(
    mut st: ShardState<A, Q>,
    shared: &Shared<KernelEvent<A::Msg, A::Timer>>,
    part: &Partition,
    lookahead_ns: &[u64],
    closure_ns: &[u64],
    budget: u64,
) -> (ShardState<A, Q>, ShardOutcome)
where
    A: Actor,
    Q: EventQueue<KernelEvent<A::Msg, A::Timer>>,
{
    let s = st.shard as usize;
    let n_shards = part.shards();
    let mut outboxes: Vec<Outbox<A::Msg, A::Timer>> = (0..n_shards).map(|_| Vec::new()).collect();
    let mut mins = vec![0u64; n_shards];
    let mut window_ends = vec![0u64; n_shards];
    let mut scratch: Vec<Sequenced<KernelEvent<A::Msg, A::Timer>>> = Vec::new();
    let lookahead_row = &lookahead_ns[s * n_shards..(s + 1) * n_shards];
    let mut local_steps = 0u64;
    let mut out = ShardOutcome {
        windows: 0,
        barrier_wait_ns: 0,
        profile: WindowProfile::default(),
    };

    loop {
        // Publish this shard's earliest pending time and progress. Mailboxes
        // are always empty here (drained at the end of the previous round),
        // so the local queue is the whole truth.
        let local_min = st
            .queue
            .peek_key()
            .map(|k| k.time.as_nanos())
            .unwrap_or(u64::MAX);
        shared.min_times[s].store(local_min, Ordering::SeqCst);
        shared.steps[s].store(local_steps, Ordering::SeqCst);
        shared.barrier.wait_timed(&mut out.barrier_wait_ns);

        // Every shard computes the same decision from the same published
        // aggregates (nothing is re-published until after the next barrier).
        for (p, m) in mins.iter_mut().enumerate() {
            *m = shared.min_times[p].load(Ordering::SeqCst);
        }
        let t0 = mins.iter().copied().min().unwrap_or(u64::MAX);
        let total_steps: u64 = shared.steps.iter().map(|c| c.load(Ordering::SeqCst)).sum();
        if t0 == u64::MAX || total_steps >= budget {
            // Drained everywhere, or the runaway backstop tripped. No shard
            // has posted mail this round, so stopping here loses nothing.
            break;
        }
        out.windows += 1;

        // Per-shard window ends: shard q may run to `min over all p of
        // t_min[p] + D[p][q]`, where D is the min-plus closure of the
        // lookahead matrix. Every future arrival into q originates from some
        // event currently pending at some shard p (at time ≥ t_min[p]) and
        // reaches q through a chain of sends whose total delay is ≥ D[p][q]
        // — including multi-hop chains and cycles back into q itself (the
        // diagonal of D is the shortest cycle through q). Using single-hop
        // entries here would be unsound: t_min[p] is not monotone (mail from
        // a lagging shard can pull it backwards), so only chains anchored at
        // the current global snapshot bound the future. A drained or empty
        // shard (t_min = MAX) constrains nobody.
        for (q, end) in window_ends.iter_mut().enumerate() {
            *end = u64::MAX;
            for (p, &tp) in mins.iter().enumerate() {
                *end = (*end).min(tp.saturating_add(closure_ns[p * n_shards + q]));
            }
        }
        let t_end = window_ends[s];

        // Execute every local event inside the window. Events generated
        // during the window that land inside it (self-sends, short timers)
        // are picked up by the re-peek; cross-shard sends are asserted to
        // land at or past their destination's window end. The cap keeps the
        // runaway backstop meaningful even for very wide windows (with one
        // shard the window is unbounded): once this shard alone could have
        // pushed the global total past `budget`, it stops mid-window.
        let mut cap = budget - total_steps;
        let mut router = ShardQueue {
            local: &mut st.queue,
            outboxes: &mut outboxes,
            shard: st.shard,
            shard_of: part.shard_of(),
            window_ends: &window_ends,
            lookahead_row,
        };
        let exec_start = std::time::Instant::now();
        let steps_before = local_steps;
        while cap > 0 {
            match router.peek_key() {
                Some(key) if key.time.as_nanos() < t_end => {}
                _ => break,
            }
            let ev = router.pop().expect("peeked event vanished");
            match dispatch_one(&mut st.actors, &mut st.core, &mut router, ev) {
                StepOutcome::Drained => unreachable!("pop returned an event"),
                StepOutcome::Skipped | StepOutcome::Ran(_) => {
                    local_steps += 1;
                    cap -= 1;
                }
            }
        }
        out.profile.record_execute(
            exec_start.elapsed().as_nanos() as u64,
            local_steps - steps_before,
        );

        // Exchange mail: post outboxes (swapping vectors, not copying — the
        // posted buffer comes back empty-with-capacity two rounds later),
        // wait for everyone, then drain all inboxes through one pooled
        // scratch buffer with a single sort instead of S interleaved
        // per-message push streams.
        let post_start = std::time::Instant::now();
        for (dst, outbox) in outboxes.iter_mut().enumerate() {
            if !outbox.is_empty() {
                let mut slot = shared.mail[dst * n_shards + s]
                    .lock()
                    .expect("mail mutex poisoned");
                debug_assert!(slot.is_empty(), "mailbox not drained by its owner");
                std::mem::swap(&mut *slot, outbox);
            }
        }
        let mut drain_ns = post_start.elapsed().as_nanos() as u64;
        shared.barrier.wait_timed(&mut out.barrier_wait_ns);
        let drain_start = std::time::Instant::now();
        scratch.clear();
        for src in 0..n_shards {
            let mut inbox = shared.mail[s * n_shards + src]
                .lock()
                .expect("mail mutex poisoned");
            scratch.append(&mut inbox);
        }
        scratch.sort_unstable();
        let received = scratch.len() as u64;
        for ev in scratch.drain(..) {
            st.queue.push(ev);
        }
        drain_ns += drain_start.elapsed().as_nanos() as u64;
        out.profile.record_drain(drain_ns, received);
    }

    (st, out)
}

impl<A, Q> GenericWorld<A, Q>
where
    A: Actor + Send,
    A::Msg: Send,
    A::Timer: Send,
    Q: EventQueue<KernelEvent<A::Msg, A::Timer>> + Default + Send,
{
    /// Run this world to quiescence (or until `budget` events have been
    /// processed) on `shards` threads partitioned round-robin, using a
    /// uniform lookahead: conservative windows of width `lookahead` between
    /// every shard pair. Returns the number of events processed.
    ///
    /// This is the legacy single-lookahead entry point, now a thin wrapper
    /// over [`run_partitioned`](GenericWorld::run_partitioned) with
    /// [`Partition::round_robin`] and [`uniform_lookahead`].
    pub fn run_sharded(&mut self, shards: usize, lookahead: SimDuration, budget: u64) -> u64 {
        assert!(
            lookahead.as_nanos() > 0,
            "conservative windows need positive lookahead"
        );
        let n = self.actors.len();
        if n == 0 {
            return 0;
        }
        let s_count = shards.clamp(1, n);
        let matrix = uniform_lookahead(s_count, lookahead);
        self.run_partitioned(Partition::round_robin(n, s_count), &matrix, budget)
            .steps
    }

    /// Run this world to quiescence (or until `budget` events have been
    /// processed) on `partition.shards()` threads, one per shard, using
    /// conservative per-shard-pair windows derived from the `lookahead`
    /// matrix (`S×S`, row-major: `lookahead[p * S + q]` = `L[p][q]`).
    ///
    /// **Safety requirement**: `L[p][q]` must lower-bound the virtual-time
    /// delay of every message an actor in shard `p` sends to an actor in
    /// shard `q` (timers and self-sends are exempt — they never leave their
    /// actor's shard). The diagonal is ignored; window bounds are derived
    /// from the min-plus closure of the matrix, so multi-hop send chains are
    /// accounted for automatically. Violations are caught by a debug
    /// assertion naming the offending shard pair when a cross-shard event
    /// lands inside a window. For the DSTM stack the matrix is
    /// `Topology::cross_min_delay` over the partition.
    ///
    /// The outcome — per-actor event sequences, delivered/timer counters,
    /// final clock, every actor's state — is bit-identical to the serial
    /// [`run`](GenericWorld::run) for every partition and every valid
    /// matrix, including the degenerate single-shard one. Kernel tracing
    /// must be disabled (per-actor protocol traces are fine: they travel
    /// with their actors and merge deterministically).
    pub fn run_partitioned(
        &mut self,
        partition: Partition,
        lookahead: &[SimDuration],
        budget: u64,
    ) -> ShardRunStats {
        assert!(
            !self.core.trace.enabled(),
            "kernel tracing is not supported in sharded runs"
        );
        let n = self.actors.len();
        let s_count = partition.shards();
        assert_eq!(
            partition.len(),
            n,
            "partition covers {} actors, world has {n}",
            partition.len()
        );
        assert_eq!(
            lookahead.len(),
            s_count * s_count,
            "lookahead matrix must be S×S"
        );
        if n == 0 {
            return ShardRunStats::default();
        }
        // Between two distinct non-empty shards the lookahead must be
        // positive, or the conservative windows cannot advance. (Pairs with
        // an empty side never exchange events; `MAX` — "disconnected" — is
        // the conventional entry there.)
        for p in 0..s_count {
            for q in 0..s_count {
                assert!(
                    p == q
                        || partition.count(p) == 0
                        || partition.count(q) == 0
                        || lookahead[p * s_count + q].as_nanos() > 0,
                    "conservative windows need positive lookahead between shards {p} and {q}"
                );
            }
        }
        let mut lookahead_ns: Vec<u64> = lookahead.iter().map(|d| d.as_nanos()).collect();
        // The diagonal is documented as ignored: normalize it to MAX so the
        // closure below derives q→q bounds from genuine cycles only.
        for p in 0..s_count {
            lookahead_ns[p * s_count + p] = u64::MAX;
        }
        // Min-plus transitive closure (Floyd–Warshall, ≥ 1 hop): D[p][q] is
        // the cheapest total delay of any chain of sends from p to q, and
        // D[q][q] the shortest cycle through q. The single-hop matrix alone
        // is not a safe window bound — an event pending at p can reach q
        // through intermediaries, and can pull another shard's t_min
        // backwards on the way.
        let closure_ns = {
            let s = s_count;
            let mut d = lookahead_ns.clone();
            for k in 0..s {
                for i in 0..s {
                    let dik = d[i * s + k];
                    if dik == u64::MAX {
                        continue;
                    }
                    for j in 0..s {
                        let alt = dik.saturating_add(d[k * s + j]);
                        if alt < d[i * s + j] {
                            d[i * s + j] = alt;
                        }
                    }
                }
            }
            d
        };
        let part = Arc::new(partition);

        // Distribute actors (with their kernel state) to their shards.
        // States move wholesale so RNG streams, issue counters, and timer
        // slabs — and therefore outstanding TimerTokens — carry over
        // exactly. Actors arrive in ascending global-id order, matching the
        // partition's dense slot indices.
        let now = self.core.now;
        let mut shard_states: Vec<ShardState<A, Q>> = (0..s_count)
            .map(|s| ShardState {
                shard: s as u32,
                actors: Vec::with_capacity(part.count(s)),
                core: KernelCore::shard_shell(now, s as u32, Arc::clone(&part)),
                queue: Q::default(),
            })
            .collect();
        let actors = std::mem::take(&mut self.actors);
        let states = std::mem::take(&mut self.core.states);
        for (gid, (actor, state)) in actors.into_iter().zip(states).enumerate() {
            let sh = &mut shard_states[part.shard_of()[gid] as usize];
            sh.actors.push(actor);
            sh.core.states.push(state);
        }

        // Route the pending-event set to the owning shards. The old queue is
        // replaced (not reused) so whatever bookkeeping a backend keeps about
        // what it has popped starts fresh for whatever survives the run.
        while let Some(ev) = self.queue.pop() {
            let dst = part.shard_of()[ev.payload.destination().index()] as usize;
            shard_states[dst].queue.push(ev);
        }
        self.queue = Q::default();

        let shared = Shared {
            barrier: SpinBarrier::new(s_count),
            min_times: (0..s_count).map(|_| AtomicU64::new(u64::MAX)).collect(),
            steps: (0..s_count).map(|_| AtomicU64::new(0)).collect(),
            mail: (0..s_count * s_count)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        };

        let mut finished: Vec<(ShardState<A, Q>, ShardOutcome)> = if s_count == 1 {
            // Same windowed code path, no thread spawn.
            let st = shard_states.pop().expect("one shard");
            vec![run_shard(
                st,
                &shared,
                &part,
                &lookahead_ns,
                &closure_ns,
                budget,
            )]
        } else {
            let shared_ref = &shared;
            let part_ref = &*part;
            let la_ref = &lookahead_ns[..];
            let cl_ref = &closure_ns[..];
            let mut iter = shard_states.into_iter();
            let first = iter.next().expect("at least one shard");
            std::thread::scope(|scope| {
                let handles: Vec<_> = iter
                    .map(|st| {
                        scope.spawn(move || {
                            run_shard(st, shared_ref, part_ref, la_ref, cl_ref, budget)
                        })
                    })
                    .collect();
                // The calling thread runs shard 0 itself.
                let mut done = vec![run_shard(
                    first, shared_ref, part_ref, la_ref, cl_ref, budget,
                )];
                for h in handles {
                    done.push(h.join().expect("shard thread panicked"));
                }
                done
            })
        };
        finished.sort_by_key(|(st, _)| st.shard);

        // Reassemble: actors and states back in global-id order, leftover
        // events (budget exhaustion only) back into the world queue, clocks
        // and counters merged. For a completed run the merged clock is the
        // maximum shard clock — the timestamp of the globally last processed
        // event, which is what the serial run's clock reads. A budget stop is
        // different under asymmetric windows: one shard may have run far
        // ahead while another still holds earlier (causally independent)
        // events, so the clock is clamped back to the earliest leftover —
        // the resume cursor a serial or sharded continuation replays from.
        let mut stats = ShardRunStats {
            steps: 0,
            windows: 0,
            shard_events: shared
                .steps
                .iter()
                .map(|c| c.load(Ordering::SeqCst))
                .collect(),
            barrier_wait_ns: Vec::with_capacity(s_count),
            profiles: Vec::with_capacity(s_count),
        };
        stats.steps = stats.shard_events.iter().sum();
        let mut final_now = now;
        let mut per_shard_actors: Vec<_> = Vec::with_capacity(s_count);
        for (st, outcome) in &mut finished {
            final_now = final_now.max(st.core.now);
            self.core.messages_delivered += st.core.messages_delivered;
            self.core.timers_fired += st.core.timers_fired;
            self.core.batched_messages += st.core.batched_messages;
            stats.windows = stats.windows.max(outcome.windows);
            stats.barrier_wait_ns.push(outcome.barrier_wait_ns);
            stats.profiles.push(std::mem::take(&mut outcome.profile));
            while let Some(ev) = st.queue.pop() {
                self.queue.push(ev);
            }
        }
        for (st, _) in finished {
            per_shard_actors.push((st.actors.into_iter(), st.core.states.into_iter()));
        }
        self.actors.reserve(n);
        self.core.states.reserve(n);
        for gid in 0..n {
            let (actors, states) = &mut per_shard_actors[part.shard_of()[gid] as usize];
            self.actors
                .push(actors.next().expect("actor count mismatch"));
            self.core
                .states
                .push(states.next().expect("state count mismatch"));
        }
        if let Some(k) = self.queue.peek_key() {
            final_now = final_now.min(k.time);
        }
        self.core.now = final_now;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ActorId, Ctx, World};
    use crate::queue::BinaryHeapQueue;
    use crate::time::SimTime;

    /// A chatty actor: every delivery re-sends to a pseudo-random peer with
    /// a delay ≥ the lookahead, arms a short local timer, and sometimes
    /// cancels it — exercising messages, timers, and cancellation across
    /// shard boundaries.
    struct Gossip {
        n: u32,
        log: Vec<(SimTime, u32)>,
        fired: u32,
        pending: Option<crate::engine::TimerToken>,
    }

    impl Actor for Gossip {
        type Msg = u32;
        type Timer = u8;

        fn on_message(&mut self, ctx: &mut Ctx<'_, u32, u8>, _from: ActorId, msg: u32) {
            self.log.push((ctx.now(), msg));
            if msg == 0 {
                return; // hop budget exhausted
            }
            let peer = ActorId(ctx.rng().below(self.n as u64) as u32);
            let jitter = ctx.rng().below(3_000_000);
            ctx.send(
                peer,
                msg - 1,
                SimDuration::from_millis(1) + SimDuration::from_nanos(jitter),
            );
            // Local churn: arm a sub-lookahead timer; cancel every other one.
            let tok = ctx.set_timer(SimDuration::from_micros(30), 0);
            if let Some(prev) = self.pending.take() {
                ctx.cancel_timer(prev);
            } else {
                self.pending = Some(tok);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, u8>, _t: u8) {
            self.fired += 1;
            self.log.push((ctx.now(), u32::MAX));
        }
    }

    fn gossip_world(n: u32, seed: u64) -> World<Gossip> {
        let mut w = World::new(
            (0..n)
                .map(|_| Gossip {
                    n,
                    log: Vec::new(),
                    fired: 0,
                    pending: None,
                })
                .collect(),
            seed,
        );
        for i in 0..n {
            w.send_external(ActorId(i), 40, SimDuration::from_millis(1 + u64::from(i)));
        }
        w
    }

    type Fingerprint = (Vec<Vec<(SimTime, u32)>>, u64, u64, SimTime);

    fn fingerprint(w: &World<Gossip>) -> Fingerprint {
        (
            w.actors().iter().map(|a| a.log.clone()).collect(),
            w.messages_delivered(),
            w.timers_fired(),
            w.now(),
        )
    }

    #[test]
    fn partition_round_robin_and_from_assignment_agree() {
        let rr = Partition::round_robin(7, 3);
        let manual = Partition::from_assignment(vec![0, 1, 2, 0, 1, 2, 0], 3);
        assert_eq!(rr, manual);
        assert_eq!(rr.shards(), 3);
        assert_eq!(rr.len(), 7);
        assert_eq!((rr.count(0), rr.count(1), rr.count(2)), (3, 2, 2));
        // Dense slots follow ascending gid within each shard.
        assert_eq!(rr.slot_of(0), 0);
        assert_eq!(rr.slot_of(3), 1);
        assert_eq!(rr.slot_of(6), 2);
        assert_eq!(rr.slot_of(1), 0);
        assert_eq!(rr.slot_of(5), 1);
    }

    #[test]
    fn partition_tolerates_empty_shards() {
        let p = Partition::from_assignment(vec![2, 2, 2], 4);
        assert_eq!(p.count(0), 0);
        assert_eq!(p.count(2), 3);
        assert_eq!(p.slot_of(2), 2);
    }

    #[test]
    #[should_panic(expected = "assigned to shard")]
    fn partition_rejects_out_of_range_assignment() {
        let _ = Partition::from_assignment(vec![0, 5], 2);
    }

    #[test]
    fn uniform_lookahead_has_max_diagonal() {
        let m = uniform_lookahead(3, SimDuration::from_millis(2));
        for p in 0..3 {
            for q in 0..3 {
                if p == q {
                    assert_eq!(m[p * 3 + q], SimDuration::MAX);
                } else {
                    assert_eq!(m[p * 3 + q], SimDuration::from_millis(2));
                }
            }
        }
    }

    #[test]
    fn sharded_run_matches_serial_bit_for_bit() {
        let mut serial = gossip_world(9, 42);
        serial.run();
        let want = fingerprint(&serial);
        for shards in [1, 2, 4, 8] {
            let mut w = gossip_world(9, 42);
            w.run_sharded(shards, SimDuration::from_millis(1), u64::MAX);
            assert_eq!(fingerprint(&w), want, "divergence at {shards} shards");
        }
    }

    #[test]
    fn arbitrary_partitions_match_serial_bit_for_bit() {
        // Locality-style (non-round-robin, unbalanced, with an empty shard)
        // assignments must leave the outcome untouched.
        let mut serial = gossip_world(9, 42);
        serial.run();
        let want = fingerprint(&serial);
        for assignment in [
            vec![0, 0, 0, 1, 1, 1, 2, 2, 2], // contiguous blocks
            vec![2, 0, 2, 0, 1, 1, 0, 2, 1], // scrambled
            vec![0, 0, 0, 0, 0, 0, 0, 2, 2], // unbalanced + empty shard 1
        ] {
            let part = Partition::from_assignment(assignment.clone(), 3);
            let matrix = uniform_lookahead(3, SimDuration::from_millis(1));
            let mut w = gossip_world(9, 42);
            let stats = w.run_partitioned(part, &matrix, u64::MAX);
            assert_eq!(fingerprint(&w), want, "divergence under {assignment:?}");
            assert_eq!(
                stats.shard_events.iter().sum::<u64>(),
                stats.steps,
                "per-shard event counts must sum to the total"
            );
            assert_eq!(stats.barrier_wait_ns.len(), 3);
            assert_eq!(stats.profiles.len(), 3);
            for (s, (p, &events)) in stats.profiles.iter().zip(&stats.shard_events).enumerate() {
                assert!(
                    p.execute_ns >= p.execute_ns_max && p.drain_ns >= p.drain_ns_max,
                    "shard {s}: phase totals must dominate their maxima: {p:?}"
                );
                assert!(
                    p.window_events_max <= events,
                    "shard {s}: one window cannot exceed the shard total"
                );
            }
            // Every cross-shard message some shard received was drained.
            let drained: u64 = stats.profiles.iter().map(|p| p.drained_msgs).sum();
            if stats.steps > 0
                && assignment
                    .iter()
                    .collect::<std::collections::HashSet<_>>()
                    .len()
                    > 1
            {
                assert!(drained > 0, "gossip across shards must exchange mail");
            }
        }
    }

    #[test]
    fn wider_pairwise_lookahead_needs_fewer_windows() {
        // Two shard groups that only talk to each other over ≥ 3 ms links
        // (the gossip delay is 1–4 ms, so 1 ms is the only safe uniform
        // bound, but entries may legitimately be raised where the partition
        // knows better). A wider matrix must change the window schedule
        // only — never the outcome.
        struct TwoGroups {
            n: u32,
            log: Vec<(SimTime, u32)>,
        }
        impl Actor for TwoGroups {
            type Msg = u32;
            type Timer = u8;
            fn on_message(&mut self, ctx: &mut Ctx<'_, u32, u8>, _from: ActorId, msg: u32) {
                self.log.push((ctx.now(), msg));
                if msg == 0 {
                    return;
                }
                let me = ctx.me().0;
                let peer = ActorId(ctx.rng().below(self.n as u64) as u32);
                // Same group (same parity): 1 ms links. Cross-group: 3 ms.
                let base = if peer.0 % 2 == me % 2 { 1 } else { 3 };
                let jitter = ctx.rng().below(500_000);
                ctx.send(
                    peer,
                    msg - 1,
                    SimDuration::from_millis(base) + SimDuration::from_nanos(jitter),
                );
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32, u8>, _t: u8) {}
        }
        let build = || {
            let mut w = World::new(
                (0..8)
                    .map(|_| TwoGroups {
                        n: 8,
                        log: Vec::new(),
                    })
                    .collect::<Vec<_>>(),
                17,
            );
            for i in 0..8u32 {
                w.send_external(ActorId(i), 30, SimDuration::from_millis(1 + u64::from(i)));
            }
            w
        };
        let mut serial = build();
        serial.run();
        let want: Vec<Vec<(SimTime, u32)>> =
            serial.actors().iter().map(|a| a.log.clone()).collect();

        // Partition by parity: every cross-shard link is ≥ 3 ms.
        let part = || Partition::from_assignment(vec![0, 1, 0, 1, 0, 1, 0, 1], 2);
        let run = |matrix: &[SimDuration]| {
            let mut w = build();
            let stats = w.run_partitioned(part(), matrix, u64::MAX);
            let logs: Vec<Vec<(SimTime, u32)>> = w.actors().iter().map(|a| a.log.clone()).collect();
            (logs, stats.windows)
        };
        let (narrow_logs, narrow_windows) = run(&uniform_lookahead(2, SimDuration::from_millis(1)));
        let (wide_logs, wide_windows) = run(&uniform_lookahead(2, SimDuration::from_millis(3)));
        assert_eq!(narrow_logs, want);
        assert_eq!(wide_logs, want);
        assert!(
            wide_windows < narrow_windows,
            "3 ms pairwise windows ({wide_windows}) should beat 1 ms ones ({narrow_windows})"
        );
    }

    #[test]
    fn shard_count_above_actor_count_is_clamped() {
        let mut w = gossip_world(3, 5);
        let mut serial = gossip_world(3, 5);
        serial.run();
        w.run_sharded(64, SimDuration::from_millis(1), u64::MAX);
        assert_eq!(fingerprint(&w), fingerprint(&serial));
    }

    #[test]
    fn budget_stops_at_a_window_boundary_and_preserves_leftovers() {
        let mut w = gossip_world(8, 11);
        let before = {
            let mut full = gossip_world(8, 11);
            full.run();
            full.messages_delivered() + full.timers_fired()
        };
        let steps = w.run_sharded(4, SimDuration::from_millis(1), 16);
        assert!(steps >= 16, "must reach the budget before stopping");
        assert!(w.pending_events() > 0, "leftovers must survive");
        // Resuming serially completes the run losslessly.
        w.run();
        assert_eq!(w.messages_delivered() + w.timers_fired(), before);
    }

    #[test]
    fn resuming_sharded_after_sharded_is_lossless() {
        // Timer tokens and RNG streams must survive two partition/reassemble
        // cycles with different shard counts.
        let mut w = gossip_world(8, 13);
        w.run_sharded(4, SimDuration::from_millis(1), 32);
        w.run_sharded(2, SimDuration::from_millis(1), u64::MAX);
        let mut serial = gossip_world(8, 13);
        serial.run();
        assert_eq!(fingerprint(&w), fingerprint(&serial));
    }

    #[test]
    fn empty_world_and_empty_queue_are_fine() {
        let mut w: World<Gossip> = World::new(Vec::new(), 1);
        assert_eq!(w.run_sharded(4, SimDuration::from_millis(1), u64::MAX), 0);
        let mut w = World::new(
            vec![Gossip {
                n: 1,
                log: Vec::new(),
                fired: 0,
                pending: None,
            }],
            1,
        );
        assert_eq!(w.run_sharded(2, SimDuration::from_millis(1), u64::MAX), 0);
    }

    #[test]
    fn spin_barrier_synchronizes() {
        use std::sync::atomic::AtomicUsize;
        let b = SpinBarrier::new(4);
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for round in 1..=50usize {
                        hits.fetch_add(1, Ordering::SeqCst);
                        b.wait();
                        // After the barrier, all 4 increments of this round
                        // must be visible.
                        assert!(hits.load(Ordering::SeqCst) >= 4 * round);
                        b.wait();
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn heap_queue_default_is_empty() {
        let q: BinaryHeapQueue<KernelEvent<u32, u8>> = BinaryHeapQueue::default();
        assert!(q.is_empty());
    }
}
