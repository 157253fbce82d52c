//! The actor-world simulation engine.
//!
//! A [`World`] owns a homogeneous set of actors (simulated nodes), a single
//! totally-ordered pending-event set, and per-actor deterministic RNG
//! streams. Actors interact with the world only through [`Ctx`]: sending
//! messages with a delivery delay, arming/cancelling timers, reading virtual
//! time, and drawing random numbers. This narrow interface is what makes
//! whole-protocol runs reproducible: identical seeds yield identical event
//! sequences.
//!
//! # The queue seam
//!
//! [`GenericWorld<A, Q>`] is generic over any [`EventQueue`] implementation,
//! and [`World<A>`] is the [`BinaryHeapQueue`]-backed alias every production
//! run uses. `Q` exists for substitution, not selection: the verifier's
//! perturbing and choice-point queues (`perturb.rs`), the benchmark's timing
//! wrapper and the tests' model queue take the heap's place there. Because
//! every implementation must honor the same total order
//! ([`crate::event::EventKey`]: time, then issuing actor, then per-actor
//! sequence), a run is bit-identical regardless of which one it is. The
//! event-dispatch loop in [`GenericWorld::step`] is statically dispatched
//! over `Q`; only pushes from inside actor callbacks go through a
//! `dyn EventQueue` so that the [`Actor`] trait (and every actor
//! implementation) stays independent of the queue type.
//!
//! # Per-actor kernel state
//!
//! Everything the kernel tracks per actor — RNG stream, issue-sequence
//! counter, timer slab — lives in one `ActorState`, indexed by the actor's
//! id. Nothing an actor draws, stamps or arms depends on what any other
//! actor did in between, so an event's key and a timer's token are functions
//! of the issuing actor's own history alone — the order in which handlers of
//! *different* actors happened to run is encoded nowhere. The golden digests
//! are taken over that order, and the verifier's queues rely on it: swapping
//! two simultaneous deliveries renumbers nobody's later events. One state
//! per actor is also what the run loop prefetches as a unit (see
//! [`GenericWorld::step`]'s lookahead hints).
//!
//! # Timer cancellation
//!
//! Timers are cancelled in O(1) without hashing: each armed timer occupies a
//! slot in its actor's generation-stamped slab and its [`TimerToken`] packs
//! `(slot, generation)`. Cancelling (or firing) bumps the slot's generation,
//! so a queued timer event whose stamped generation no longer matches is
//! skipped when popped. Slots are recycled through a free list, bounding slab
//! size by the maximum number of *concurrently armed* timers rather than the
//! total armed over a run.

use crate::event::{EventKey, Sequenced, MAX_ACTORS, MAX_LOCAL_SEQ};
use crate::queue::{BinaryHeapQueue, EventQueue};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifies an actor (node) in the world. Dense indices starting at 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActorId(pub u32);

impl ActorId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a pending timer; pass to [`Ctx::cancel_timer`] to cancel.
///
/// Packs `(generation << 32) | slot` of the owning actor's timer slab.
/// Tokens are opaque to actors; a token is spent once its timer fires or is
/// cancelled, and later use is a harmless no-op (the generation no longer
/// matches).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerToken(u64);

impl TimerToken {
    #[inline]
    fn pack(slot: u32, generation: u32) -> Self {
        TimerToken(((generation as u64) << 32) | slot as u64)
    }

    /// A throwaway token for queue-backend unit tests that never dispatch.
    #[cfg(test)]
    pub(crate) fn test_token() -> Self {
        TimerToken(0)
    }

    #[inline]
    fn unpack(self) -> (u32, u32) {
        (self.0 as u32, (self.0 >> 32) as u32)
    }
}

/// A simulated node. `Msg` is the network message type, `Timer` the local
/// timer payload type.
pub trait Actor {
    type Msg;
    type Timer;

    /// A message from `from` has been delivered to this actor.
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        from: ActorId,
        msg: Self::Msg,
    );

    /// A previously armed (and not cancelled) timer has fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, timer: Self::Timer);

    /// Cache hint, stage 1: an event for this actor is two pops away and
    /// the actor's own memory is probably cold. The implementation may only
    /// [`prefetch`] addresses computed from `self`'s own address — it must
    /// not load a field, or the miss the hint is there to hide happens here.
    ///
    /// Both hint hooks are advisory. The run loop calls them when the queue
    /// backend offers a [`EventQueue::lookahead`], and a hint may name an
    /// event that is overtaken by an earlier one.
    /// They take `&self` and no [`Ctx`]: no randomness, no timers, no sends,
    /// no counters — nothing a run's outcome could depend on.
    #[inline]
    fn hint_soon(&self) {}

    /// Cache hint, stage 2: `next` is the event the next pop is expected to
    /// deliver to this actor, and [`Actor::hint_soon`] ran one event ago, so
    /// the actor's leading lines can be read cheaply now to find — and
    /// [`prefetch`] — what the handler of `next` will reach through them.
    #[inline]
    fn hint_next(&self, next: &KernelEvent<Self::Msg, Self::Timer>) {
        let _ = next;
    }
}

/// Bytes per cache line [`prefetch`] assumes (x86-64, and most of aarch64).
pub const CACHE_LINE: usize = 64;

/// Ask the CPU to start loading the `lines` consecutive cache lines that
/// begin with the one holding `*p`, without waiting for them. A no-op
/// wherever no prefetch instruction is wired up.
#[inline(always)]
pub fn prefetch<T>(p: *const T, lines: usize) {
    #[cfg(target_arch = "x86_64")]
    for i in 0..lines {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let line = p.cast::<i8>().wrapping_add(i * CACHE_LINE);
        // SAFETY: PREFETCHT0 is a hint. It never faults, whatever address it
        // is given (unmapped, misaligned and past-the-end ones included), and
        // changes no architectural state — only which lines the caches hold.
        // SSE is part of the x86-64 baseline, so the instruction exists.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(line) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (p, lines);
}

/// One pending event in the kernel queue: a message delivery or a timer
/// expiry. Public so queue backends can be named in type signatures
/// (e.g. `BinaryHeapQueue<KernelEvent<M, T>>`), but its fields stay private to
/// the engine.
pub enum KernelEvent<M, T> {
    Msg {
        from: ActorId,
        to: ActorId,
        msg: M,
    },
    Timer {
        on: ActorId,
        token: TimerToken,
        timer: T,
    },
}

impl<M, T> KernelEvent<M, T> {
    /// The actor this event will be delivered to.
    #[inline]
    fn destination(&self) -> ActorId {
        match self {
            KernelEvent::Msg { to, .. } => *to,
            KernelEvent::Timer { on, .. } => *on,
        }
    }
}

/// Kernel state owned by one actor: its deterministic RNG stream, its
/// private event-issue counter (the [`EventKey`] tiebreak), and its timer
/// slab.
#[derive(Debug)]
struct ActorState {
    rng: SimRng,
    /// Events issued by this actor so far; the next event it schedules gets
    /// `seq + 1`. Interleaving-independent by construction.
    seq: u64,
    /// Generation stamp per timer slot; bumped when the slot's timer fires or
    /// is cancelled, invalidating any queued event carrying the old stamp.
    /// (A stamp would have to survive 2^32 arm/retire cycles of one slot
    /// while its event sits in the queue to collide — not possible, since
    /// a slot is only recycled after its previous event is resolved.)
    timer_gens: Vec<u32>,
    /// Recycled slots available for the next `set_timer`.
    timer_free: Vec<u32>,
}

impl ActorState {
    fn new(root: &SimRng, gid: u32) -> Self {
        ActorState {
            rng: root.split(gid as u64),
            seq: 0,
            timer_gens: Vec::new(),
            timer_free: Vec::new(),
        }
    }
}

/// Queue-independent engine state shared between the run loop and actor
/// callbacks. Holds no message/timer payloads, so it needs no type
/// parameters — which is what lets [`Ctx`] stay independent of the queue
/// backend.
///
/// `states[i]` belongs to actor `i`.
struct KernelCore {
    now: SimTime,
    states: Vec<ActorState>,
    /// Delivered message count (protocol messages, not timers). A coalesced
    /// batch counts once — it is one delivery event.
    messages_delivered: u64,
    timers_fired: u64,
    /// Logical messages folded away by transport-level coalescing: an actor
    /// unpacking a k-message batch reports `k - 1` here, so
    /// `messages_delivered + batched_messages` is the protocol message count
    /// a batching-free run would have delivered.
    batched_messages: u64,
}

/// The [`EventKey`] tiebreak has 24 bits for the issuing actor; a larger
/// world would order its events wrongly, so it is refused outright — before
/// any per-actor state is allocated.
fn check_actor_count(actors: usize) {
    assert!(
        actors <= MAX_ACTORS,
        "{actors} actors exceed the {MAX_ACTORS} the event key's 24-bit issuer field can name"
    );
}

impl KernelCore {
    fn new(seed: u64, actors: usize) -> Self {
        check_actor_count(actors);
        let root = SimRng::new(seed);
        KernelCore {
            now: SimTime::ZERO,
            states: (0..actors)
                .map(|i| ActorState::new(&root, i as u32))
                .collect(),
            messages_delivered: 0,
            timers_fired: 0,
            batched_messages: 0,
        }
    }

    /// Claim a slot in `me`'s timer slab for a newly armed timer and stamp a
    /// token with its current generation.
    #[inline]
    fn timer_arm(&mut self, me: ActorId) -> TimerToken {
        let st = &mut self.states[me.index()];
        let slot = match st.timer_free.pop() {
            Some(slot) => slot,
            None => {
                st.timer_gens.push(0);
                (st.timer_gens.len() - 1) as u32
            }
        };
        TimerToken::pack(slot, st.timer_gens[slot as usize])
    }

    /// Retire a timer on `on`: bump its slot's generation and recycle the
    /// slot. No-op (returns false) if the token's generation is stale, i.e.
    /// the timer already fired or was already cancelled.
    #[inline]
    fn timer_retire(&mut self, on: ActorId, token: TimerToken) -> bool {
        let st = &mut self.states[on.index()];
        let (slot, generation) = token.unpack();
        let current = &mut st.timer_gens[slot as usize];
        if *current != generation {
            return false;
        }
        *current = current.wrapping_add(1);
        st.timer_free.push(slot);
        true
    }
}

/// Schedule `payload` at `core.now + delay` into `queue`, stamped from
/// `issuer`'s private sequence counter. Free function (not a method) so it
/// can be called with a split borrow of core + dyn queue.
#[inline]
fn schedule<M, T>(
    core: &mut KernelCore,
    queue: &mut dyn EventQueue<KernelEvent<M, T>>,
    issuer: ActorId,
    delay: SimDuration,
    payload: KernelEvent<M, T>,
) {
    let at = core.now + delay;
    let st = &mut core.states[issuer.index()];
    if st.seq >= MAX_LOCAL_SEQ {
        seq_exhausted(issuer);
    }
    st.seq += 1;
    queue.push(Sequenced {
        key: EventKey::compose(at, issuer.0, st.seq),
        payload,
    });
}

#[cold]
#[inline(never)]
fn seq_exhausted(issuer: ActorId) -> ! {
    panic!(
        "actor {} has issued {MAX_LOCAL_SEQ} events: the event key's 40-bit \
         per-actor sequence is exhausted",
        issuer.0
    );
}

/// Deliver one already-popped event: advance time, dispatch to the owning
/// actor's handler (or discard a cancelled timer).
fn dispatch_one<A: Actor>(
    actors: &mut [A],
    core: &mut KernelCore,
    queue: &mut dyn EventQueue<KernelEvent<A::Msg, A::Timer>>,
    ev: Sequenced<KernelEvent<A::Msg, A::Timer>>,
) {
    debug_assert!(ev.key.time >= core.now, "time went backwards");
    core.now = ev.key.time;
    match ev.payload {
        KernelEvent::Msg { from, to, msg } => {
            core.messages_delivered += 1;
            let mut ctx = Ctx {
                core,
                queue,
                me: to,
            };
            actors[to.index()].on_message(&mut ctx, from, msg);
        }
        KernelEvent::Timer { on, token, timer } => {
            if !core.timer_retire(on, token) {
                return; // cancelled
            }
            core.timers_fired += 1;
            let mut ctx = Ctx {
                core,
                queue,
                me: on,
            };
            actors[on.index()].on_timer(&mut ctx, timer);
        }
    }
}

/// The per-callback view of the engine handed to actor code.
///
/// Independent of the queue backend (`Q`) by design: the queue is borrowed as
/// a trait object, so `Actor` implementations compile once and run under any
/// backend.
pub struct Ctx<'a, M, T> {
    core: &'a mut KernelCore,
    queue: &'a mut dyn EventQueue<KernelEvent<M, T>>,
    me: ActorId,
}

impl<'a, M, T> Ctx<'a, M, T> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The actor this callback runs on.
    #[inline]
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// Send `msg` to `to`, delivered after `delay` of virtual time.
    /// Delays come from the topology's delay matrix (see `dstm-net`);
    /// the engine itself is delay-agnostic.
    pub fn send(&mut self, to: ActorId, msg: M, delay: SimDuration) {
        let from = self.me;
        schedule(
            self.core,
            self.queue,
            from,
            delay,
            KernelEvent::Msg { from, to, msg },
        );
    }

    /// Arm a timer on this actor that fires after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, timer: T) -> TimerToken {
        let token = self.core.timer_arm(self.me);
        let on = self.me;
        schedule(
            self.core,
            self.queue,
            on,
            delay,
            KernelEvent::Timer { on, token, timer },
        );
        token
    }

    /// Cancel a pending timer. Cancelling an already-fired or already-
    /// cancelled timer is a no-op. O(1): bumps the slot generation so the
    /// queued event is skipped when it surfaces.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.core.timer_retire(self.me, token);
    }

    /// This actor's private deterministic RNG stream.
    #[inline]
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.states[self.me.index()].rng
    }

    /// Report `extra` logical messages unpacked from a coalesced batch
    /// (the batch's own delivery is already counted). The engine cannot see
    /// inside `M`, so the actor doing the unpacking calls this.
    #[inline]
    pub fn count_batched(&mut self, extra: u64) {
        self.core.batched_messages += extra;
    }
}

/// A complete simulation — actors plus kernel — generic over the
/// pending-event-set backend `Q`. Use the [`World`] alias unless you are
/// substituting a wrapper or a model for the heap (a perturbing queue, a
/// timing wrapper, a test oracle) via [`GenericWorld::with_queue`].
pub struct GenericWorld<A: Actor, Q> {
    actors: Vec<A>,
    core: KernelCore,
    queue: Q,
}

/// The default world: binary-heap-backed pending-event set. A type alias (not
/// a default type parameter) so `World::new(...)` keeps inferring at existing
/// call sites.
pub type World<A> =
    GenericWorld<A, BinaryHeapQueue<KernelEvent<<A as Actor>::Msg, <A as Actor>::Timer>>>;

impl<A: Actor> World<A> {
    /// Build a heap-backed world over `actors`; all randomness derives from
    /// `seed`.
    pub fn new(actors: Vec<A>, seed: u64) -> Self {
        GenericWorld::with_queue(actors, seed, BinaryHeapQueue::new())
    }
}

impl<A: Actor, Q: EventQueue<KernelEvent<A::Msg, A::Timer>>> GenericWorld<A, Q> {
    /// Build a world over `actors` with an explicit queue backend; all
    /// randomness derives from `seed`. The queue must be empty.
    pub fn with_queue(actors: Vec<A>, seed: u64, queue: Q) -> Self {
        debug_assert!(queue.is_empty(), "queue backend must start empty");
        GenericWorld {
            core: KernelCore::new(seed, actors.len()),
            actors,
            queue,
        }
    }

    pub fn len(&self) -> usize {
        self.actors.len()
    }

    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    pub fn now(&self) -> SimTime {
        self.core.now
    }

    pub fn actor(&self, id: ActorId) -> &A {
        &self.actors[id.index()]
    }

    pub fn actors(&self) -> &[A] {
        &self.actors
    }

    /// Mutable access to every actor (end-of-run collection: draining
    /// per-actor trace buffers, resetting counters between phases).
    pub fn actors_mut(&mut self) -> &mut [A] {
        &mut self.actors
    }

    /// Total protocol messages delivered so far.
    pub fn messages_delivered(&self) -> u64 {
        self.core.messages_delivered
    }

    pub fn timers_fired(&self) -> u64 {
        self.core.timers_fired
    }

    /// Logical messages folded into coalesced batches (see
    /// [`Ctx::count_batched`]); zero unless actors batch.
    pub fn batched_messages(&self) -> u64 {
        self.core.batched_messages
    }

    /// Pending events (undelivered messages + armed-or-cancelled timers).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// The pending-event-set backend. Verification harnesses read it to
    /// enumerate undelivered events; ordinary drivers never need it.
    pub fn queue(&self) -> &Q {
        &self.queue
    }

    /// Mutable access to the queue backend — the interleaving-steering hook
    /// used by the model checker (see [`crate::perturb::ChoiceQueue`]).
    /// Mutating the queue between steps must preserve the backend's own
    /// ordering contract; the engine adds no further checks here.
    pub fn queue_mut(&mut self) -> &mut Q {
        &mut self.queue
    }

    /// Inject a message from outside the world (workload arrival); `from` is
    /// recorded as the destination itself, and the event is stamped from the
    /// destination's issue counter (so external injections get keys that
    /// depend on nothing but their destination).
    pub fn send_external(&mut self, to: ActorId, msg: A::Msg, delay: SimDuration) {
        schedule(
            &mut self.core,
            &mut self.queue,
            to,
            delay,
            KernelEvent::Msg { from: to, to, msg },
        );
    }

    /// Process one event. Returns `false` when the queue is exhausted.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        self.hint_ahead();
        dispatch_one(&mut self.actors, &mut self.core, &mut self.queue, ev);
        true
    }

    /// Turn the queue's lookahead into cache hints, so the misses of the
    /// next two events overlap with the handler about to run instead of
    /// queueing up behind one another. In a large world every event lands on
    /// an actor last touched thousands of events ago; its state has left the
    /// cache, and the handler walks it as a chain of dependent misses while
    /// the queue already knows where the next events go.
    ///
    /// Two stages, one event apart, because a stage can only request what
    /// it can address without missing itself: the actor two pops away has
    /// its leading lines and its kernel state requested; the actor one pop
    /// away had that done an event ago, so its lines can be read now to
    /// request what the coming event reaches through them.
    ///
    /// A hint goes stale when the handler about to run schedules something
    /// earlier — that costs the requested lines' worth of bandwidth and
    /// nothing else.
    #[inline]
    fn hint_ahead(&self) {
        let [next, after] = self.queue.lookahead();
        if let Some(ev) = after {
            let slot = ev.destination().index();
            if let (Some(actor), Some(state)) = (self.actors.get(slot), self.core.states.get(slot))
            {
                let lines = std::mem::size_of::<ActorState>().div_ceil(CACHE_LINE);
                prefetch(std::ptr::from_ref(state), lines);
                actor.hint_soon();
            }
        }
        if let Some(ev) = next {
            if let Some(actor) = self.actors.get(ev.destination().index()) {
                actor.hint_next(ev);
            }
        }
    }

    /// Run until the event queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until the queue drains or `budget` events have been processed
    /// (the bound on a runaway protocol); returns the events processed.
    pub fn run_budget(&mut self, budget: u64) -> u64 {
        let mut steps = 0;
        while steps < budget && self.step() {
            steps += 1;
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Makes an [`Echo`] send 50 messages to actor 1 at random delays.
    const SCATTER: u32 = u32::MAX;

    /// An actor that records delivery times and bounces messages.
    struct Echo {
        deliveries: Vec<(SimTime, u32)>,
        fired: Vec<u32>,
        armed: Option<TimerToken>,
    }

    impl Echo {
        fn new() -> Self {
            Echo {
                deliveries: Vec::new(),
                fired: Vec::new(),
                armed: None,
            }
        }
    }

    impl Actor for Echo {
        type Msg = u32;
        type Timer = u32;

        fn on_message(&mut self, ctx: &mut Ctx<'_, u32, u32>, _from: ActorId, msg: u32) {
            self.deliveries.push((ctx.now(), msg));
            match msg {
                1 => {
                    // arm a timer and a cancellation race
                    self.armed = Some(ctx.set_timer(SimDuration::from_millis(5), 77));
                    ctx.set_timer(SimDuration::from_millis(1), 88);
                }
                2 => {
                    if let Some(tok) = self.armed.take() {
                        ctx.cancel_timer(tok);
                    }
                }
                SCATTER => {
                    for i in 0..50 {
                        let d = SimDuration::from_micros(ctx.rng().below(1000));
                        ctx.send(ActorId(1), i, d);
                    }
                }
                _ => {}
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32, u32>, timer: u32) {
            self.fired.push(timer);
        }
    }

    #[test]
    fn delivery_respects_delay_and_order() {
        let mut w = World::new(vec![Echo::new(), Echo::new()], 1);
        w.send_external(ActorId(0), 10, SimDuration::from_millis(3));
        w.send_external(ActorId(0), 20, SimDuration::from_millis(1));
        w.run();
        let d = &w.actor(ActorId(0)).deliveries;
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], (SimTime(1_000_000), 20));
        assert_eq!(d[1], (SimTime(3_000_000), 10));
    }

    #[test]
    fn timer_fires_unless_cancelled() {
        // msg 1 arms timers (88 @1ms, 77 @5ms); msg 2 at 2ms cancels 77.
        let mut w = World::new(vec![Echo::new()], 1);
        w.send_external(ActorId(0), 1, SimDuration::ZERO);
        w.send_external(ActorId(0), 2, SimDuration::from_millis(2));
        w.run();
        assert_eq!(w.actor(ActorId(0)).fired, vec![88]);
        assert_eq!(w.timers_fired(), 1);
    }

    #[test]
    fn timer_fires_without_cancellation() {
        let mut w = World::new(vec![Echo::new()], 1);
        w.send_external(ActorId(0), 1, SimDuration::ZERO);
        w.run();
        let mut fired = w.actor(ActorId(0)).fired.clone();
        fired.sort_unstable();
        assert_eq!(fired, vec![77, 88]);
    }

    #[test]
    fn cancelling_twice_and_cancelling_fired_are_noops() {
        struct Canceller {
            token: Option<TimerToken>,
        }
        impl Actor for Canceller {
            type Msg = u32;
            type Timer = u32;
            fn on_message(&mut self, ctx: &mut Ctx<'_, u32, u32>, _from: ActorId, msg: u32) {
                match msg {
                    1 => self.token = Some(ctx.set_timer(SimDuration::from_millis(1), 7)),
                    2 => {
                        // double-cancel: second must be a no-op even though the
                        // slot may have been recycled by the next set_timer
                        let tok = self.token.expect("armed");
                        ctx.cancel_timer(tok);
                        ctx.cancel_timer(tok);
                        ctx.set_timer(SimDuration::from_millis(1), 9);
                        ctx.cancel_timer(tok); // stale: recycled slot, new generation
                    }
                    _ => {}
                }
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, u32>, timer: u32) {
                assert_eq!(timer, 9, "cancelled timer fired");
                // cancelling an already-fired timer is a no-op
                let tok = self.token.take().expect("armed");
                ctx.cancel_timer(tok);
            }
        }
        let mut w = World::new(vec![Canceller { token: None }], 1);
        w.send_external(ActorId(0), 1, SimDuration::ZERO);
        w.send_external(ActorId(0), 2, SimDuration::from_micros(10));
        w.run();
        assert_eq!(w.timers_fired(), 1);
    }

    #[test]
    fn timer_slab_recycles_slots() {
        // Arm/fire many timers sequentially: the slab must stay at O(max
        // concurrently armed), not grow with the total number armed.
        struct Chain {
            remaining: u32,
        }
        impl Actor for Chain {
            type Msg = u32;
            type Timer = u32;
            fn on_message(&mut self, ctx: &mut Ctx<'_, u32, u32>, _from: ActorId, _msg: u32) {
                ctx.set_timer(SimDuration::from_micros(5), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, u32>, _timer: u32) {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    ctx.set_timer(SimDuration::from_micros(5), 0);
                }
            }
        }
        let mut w = World::new(vec![Chain { remaining: 10_000 }], 1);
        w.send_external(ActorId(0), 0, SimDuration::ZERO);
        w.run();
        assert_eq!(w.timers_fired(), 10_001);
        assert!(
            w.core.states[0].timer_gens.len() <= 2,
            "slab grew to {} slots for 1 concurrent timer",
            w.core.states[0].timer_gens.len()
        );
    }

    #[test]
    fn identical_seeds_identical_runs() {
        fn run_one(seed: u64) -> Vec<(SimTime, u32)> {
            let mut w = World::new(vec![Echo::new(), Echo::new()], seed);
            w.send_external(ActorId(0), SCATTER, SimDuration::ZERO);
            w.run();
            w.actor(ActorId(1)).deliveries.clone()
        }
        assert_eq!(run_one(42), run_one(42));
        assert_ne!(run_one(42), run_one(43));
    }

    #[test]
    #[should_panic(expected = "16777217 actors exceed")]
    fn a_world_larger_than_the_issuer_field_is_refused() {
        // Zero-sized actors: the vector costs nothing, and the check must
        // fire before 2^24 + 1 kernel states are allocated.
        struct Idle;
        impl Actor for Idle {
            type Msg = ();
            type Timer = ();
            fn on_message(&mut self, _: &mut Ctx<'_, (), ()>, _: ActorId, _: ()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, (), ()>, _: ()) {}
        }
        let actors: Vec<Idle> = (0..MAX_ACTORS + 1).map(|_| Idle).collect();
        World::new(actors, 1);
    }

    #[test]
    #[should_panic(expected = "actor 1 has issued 1099511627775 events")]
    fn per_actor_sequence_overflow_is_a_panic_not_a_reordering() {
        let mut w = World::new(vec![Echo::new(), Echo::new()], 1);
        w.core.states[1].seq = MAX_LOCAL_SEQ - 1;
        // The last representable sequence number is still fine ...
        w.send_external(ActorId(1), 0, SimDuration::ZERO);
        assert_eq!(
            w.queue.peek_key().map(|k| k.local_seq()),
            Some(MAX_LOCAL_SEQ)
        );
        // ... the next one would carry into the issuer field.
        w.send_external(ActorId(1), 0, SimDuration::ZERO);
    }

    #[test]
    fn message_counter_counts() {
        let mut w = World::new(vec![Echo::new()], 9);
        for _ in 0..7 {
            w.send_external(ActorId(0), 0, SimDuration::ZERO);
        }
        w.run();
        assert_eq!(w.messages_delivered(), 7);
    }
}
