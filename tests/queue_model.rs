//! Model-based property tests for the pending-event set.
//!
//! [`BinaryHeapQueue`] is checked against the simplest structure with the
//! same contract — [`ModelQueue`], a `BTreeMap<(time, seq), payload>` — over
//! random interleavings of `push`, `pop`, `peek_key` and `len`. The streams
//! are shaped after what the kernel really does to its queue:
//!
//! * many events share a timestamp (zero-delay local sends), so the
//!   `(issuer, per-actor seq)` tiebreak word decides most comparisons;
//! * a low-id actor may push, at the current instant, a key *below* the key
//!   just popped (same time, smaller tiebreak);
//! * some events lie 10^12 ns and more ahead, at many distinct instants, so
//!   the time half of the packed key decides at large values too;
//! * the length wanders across every `4k+1 … 4k+4` boundary, so the heap's
//!   last, partially filled group of children is hit at every depth.
//!
//! Then a whole actor world — messages, timers, timer cancellations — and a
//! whole D-STM `System` on the hashed topology each run once on the heap and
//! once on the model, and must follow the same trajectory.
//!
//! `lookahead` rides along on every one of those streams: whenever the model
//! is consulted, its first two entries must be exactly the two payloads the
//! heap offers — so `[0]` is what the next `pop` returns and `[1]` what the
//! pop after it returns when nothing is pushed in between. A backend that
//! does not override `lookahead` must offer nothing.
//!
//! The contract is what is pinned, not the layout: nothing here knows how the
//! heap stores its keys. The order itself — lexicographic on `(time, issuer,
//! per-actor seq)` — is pinned last.

mod common;

use closed_nesting_dstm::harness::runner::{Cell, TopologySpec};
use closed_nesting_dstm::prelude::{Benchmark, SchedulerKind};
use closed_nesting_dstm::sim::{
    Actor, ActorId, BinaryHeapQueue, Ctx, EventKey, EventQueue, GenericWorld, KernelEvent,
    Sequenced, SimDuration, SimTime, TimerToken,
};
use common::{outcome_line, run_traced_on, ModelQueue, NoLookahead};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const ISSUERS: u64 = 6;

/// The queue under test beside its model, plus what a kernel would track:
/// the last popped key and one issue counter per actor (keys are unique).
struct Pair {
    heap: BinaryHeapQueue<u32>,
    model: ModelQueue<u32>,
    last: EventKey,
    issued: [u64; ISSUERS as usize],
    payload: u32,
}

impl Pair {
    fn new() -> Self {
        Pair {
            heap: BinaryHeapQueue::new(),
            model: ModelQueue::default(),
            last: EventKey::new(SimTime(0), 0),
            issued: [0; ISSUERS as usize],
            payload: 0,
        }
    }

    fn push(&mut self, time: u64, issuer: u64) {
        self.issued[issuer as usize] += 1;
        let key = EventKey::compose(SimTime(time), issuer as u32, self.issued[issuer as usize]);
        self.payload += 1;
        let payload = self.payload;
        self.model.push(Sequenced { key, payload });
        self.heap.push(Sequenced { key, payload });
    }

    /// A push shaped by one random word: a handful of distinct timestamps
    /// just ahead of the clock (ties dominate), now and then one far ahead —
    /// at one fixed distance, or at one of a thousand.
    fn push_random(&mut self, word: u64) {
        let issuer = word % ISSUERS;
        let body = word / ISSUERS;
        let ahead = match body % 9 {
            0 => 0,
            1..=5 => (body / 9 % 4) * 30_000,
            6 => 1_000_000 + body / 9 % 50_000_000,
            7 => 1 << 40,
            _ => 1_000_000_000_000 + (body / 9 % 1_000) * 7_919,
        };
        self.push(self.last.time.0 + ahead, issuer);
    }

    /// Same instant as the last pop, but ordered before it: a lower actor id
    /// than the popped event's issuer (when there is one).
    fn push_below_last(&mut self) {
        let issuer = u64::from(self.last.issuer()).saturating_sub(1);
        self.push(self.last.time.0, issuer);
    }

    /// The heap always knows its two smallest entries (the root and the best
    /// of the root's children), so it must offer both whenever they exist.
    fn check_lookahead(&self) -> Result<(), TestCaseError> {
        let mut soonest = self.model.0.values();
        let want = [soonest.next(), soonest.next()];
        prop_assert_eq!(
            self.heap.lookahead(),
            want,
            "at length {}",
            self.model.len()
        );
        Ok(())
    }

    fn pop(&mut self) -> Result<(), TestCaseError> {
        self.check_lookahead()?;
        let expect = self.model.pop().map(|ev| (ev.key, ev.payload));
        let got = self.heap.pop().map(|ev| (ev.key, ev.payload));
        prop_assert_eq!(got, expect, "heap against model");
        if let Some((key, _)) = got {
            self.last = key;
        }
        Ok(())
    }

    fn check_view(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.heap.len(), self.model.len());
        prop_assert_eq!(self.heap.is_empty(), self.model.is_empty());
        prop_assert_eq!(self.heap.peek_key(), self.model.peek_key());
        self.check_lookahead()
    }

    fn drain(&mut self) -> Result<(), TestCaseError> {
        while !self.model.is_empty() {
            self.pop()?;
        }
        prop_assert_eq!(self.heap.len(), 0);
        prop_assert!(self.heap.pop().is_none());
        prop_assert_eq!(self.heap.peek_key(), None);
        prop_assert_eq!(self.heap.lookahead(), [None, None]);
        Ok(())
    }
}

#[test]
fn a_backend_without_an_override_offers_no_lookahead() {
    let mut q = NoLookahead(BinaryHeapQueue::new());
    assert_eq!(q.lookahead(), [None, None]);
    for i in 0..9u32 {
        q.push(Sequenced::new(SimTime(u64::from(i % 3)), u64::from(i), i));
        assert_eq!(q.lookahead(), [None, None]);
        assert_eq!(
            q.0.lookahead()[0],
            Some(&0),
            "the wrapped heap still answers"
        );
    }
}

const CHAOS_ACTORS: u64 = 3;

/// An actor that randomly sends, arms timers, and cancels previously armed
/// timers, logging everything it observes. Budgets (`msg` counts down)
/// guarantee termination.
#[derive(Default)]
struct Chaos {
    tokens: Vec<TimerToken>,
    log: Vec<(u64, u32)>,
}

impl Actor for Chaos {
    type Msg = u32;
    type Timer = u32;

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32, u32>, _from: ActorId, msg: u32) {
        self.log.push((ctx.now().0, msg));
        if msg == 0 {
            return;
        }
        let kind = ctx.rng().below(4);
        if kind == 0 {
            let d = SimDuration::from_micros(ctx.rng().below(5_000));
            let token = ctx.set_timer(d, msg - 1);
            self.tokens.push(token);
            return;
        }
        if kind == 1 {
            if let Some(token) = self.tokens.pop() {
                ctx.cancel_timer(token);
            }
        }
        let to = ActorId(ctx.rng().below(CHAOS_ACTORS) as u32);
        let d = SimDuration::from_micros(1 + ctx.rng().below(2_000));
        ctx.send(to, msg - 1, d);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, u32>, timer: u32) {
        self.log.push((ctx.now().0, 1_000_000 + timer));
        if timer > 0 {
            let to = ActorId(ctx.rng().below(CHAOS_ACTORS) as u32);
            let d = SimDuration::from_micros(1 + ctx.rng().below(3_000));
            ctx.send(to, timer - 1, d);
        }
    }
}

/// (per-actor logs, messages delivered, timers fired, final virtual time).
type ChaosOutcome = (Vec<Vec<(u64, u32)>>, u64, u64, u64);

fn run_chaos<Q: EventQueue<KernelEvent<u32, u32>>>(
    queue: Q,
    seed: u64,
    budget: u32,
) -> ChaosOutcome {
    let actors = (0..CHAOS_ACTORS).map(|_| Chaos::default()).collect();
    let mut w = GenericWorld::with_queue(actors, seed, queue);
    for i in 0..CHAOS_ACTORS {
        w.send_external(ActorId(i as u32), budget, SimDuration::from_micros(i * 100));
    }
    w.run();
    (
        w.actors().iter().map(|a| a.log.clone()).collect(),
        w.messages_delivered(),
        w.timers_fired(),
        w.now().0,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn chaos_world_on_the_heap_matches_the_model_queue(
        seed in 0u64..100_000,
        budget in 1u32..24,
    ) {
        let heap = run_chaos(BinaryHeapQueue::new(), seed, budget);
        let model = run_chaos(ModelQueue::default(), seed, budget);
        prop_assert!(heap.1 + heap.2 > 0, "nothing ran");
        prop_assert_eq!(heap, model);
    }
}

/// The protocol stack as the queue's client: one contended Bank cell on the
/// hashed topology, every protocol event traced, on the heap and on the
/// model.
#[test]
fn a_hashed_topology_system_on_the_heap_matches_the_model_queue() {
    let mk = || {
        let mut c = Cell::new(Benchmark::Bank, SchedulerKind::Rts, 6, 0.5)
            .with_txns(5)
            .with_seed(3)
            .with_topology(TopologySpec::HashedRandom {
                min_ms: 1,
                max_ms: 50,
            });
        c.params.objects_per_node = 3;
        c
    };
    let (m, trace) = run_traced_on(mk(), BinaryHeapQueue::new());
    assert!(m.merged.commits > 0, "nothing committed");
    let on_heap = outcome_line(&m, &trace);
    let (m, trace) = run_traced_on(mk(), ModelQueue::default());
    assert_eq!(on_heap, outcome_line(&m, &trace));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn heap_matches_btreemap_model(
        ops in proptest::collection::vec(0u64..1_000_000_000_000, 1..600),
    ) {
        let mut q = Pair::new();
        for &op in &ops {
            match op % 16 {
                0..=6 => q.push_random(op / 16),
                7 | 8 => q.push_below_last(),
                9..=13 => q.pop()?,
                _ => q.check_view()?,
            }
        }
        q.check_view()?;
        q.drain()?;
    }

    /// Heaps of 0 to 6 entries: the root alone, then a root whose only group
    /// of children has 1, 2, 3 and 4 members (the plain scan, then the
    /// tournament), then the first grandchild — filled in every key order a
    /// few random words produce, drained one pop at a time and refilled.
    #[test]
    fn lookahead_on_every_short_fanout_of_the_root(seed in 0u64..1_000_000) {
        let mut rng = TestRng::new(seed);
        for target in 0..=6usize {
            let mut q = Pair::new();
            q.check_view()?;
            for _ in 0..target {
                q.push_random(rng.next_u64());
                q.check_view()?;
            }
            q.pop()?;
            q.push_below_last();
            q.check_view()?;
            q.drain()?;
        }
    }

    /// Hold the queue at every length from 1 to past the fifth level of a
    /// 4-ary heap (1 + 4 + 16 + 64 + 256 = 341) on the way up and again on
    /// the way down, with a few pop-one/push-one rounds at each: every pop
    /// sifts the last entry down from the root through a heap whose final
    /// group of children has 1, 2, 3 or 4 members.
    #[test]
    fn every_last_fanout_width_at_every_depth(seed in 0u64..1_000_000) {
        const PEAK: usize = 350;
        let mut rng = TestRng::new(seed);
        let mut q = Pair::new();
        let lengths = (1..=PEAK).chain((1..PEAK).rev());
        for target in lengths {
            while q.model.len() < target {
                q.push_random(rng.next_u64());
            }
            while q.model.len() > target {
                q.pop()?;
            }
            for round in 0..3 {
                q.pop()?;
                if round == 1 {
                    q.push_below_last();
                } else {
                    q.push_random(rng.next_u64());
                }
                q.check_view()?;
            }
        }
        q.drain()?;
    }

    /// The order every backend must honour: `EventKey::compose` is a total
    /// order, lexicographic on `(time, issuer, per-actor seq)` — stable
    /// under any packing change.
    #[test]
    fn event_key_order_is_total_and_stable(
        ta in 0u64..1_000, ia in 0u32..512, sa in 0u64..1_000,
        tb in 0u64..1_000, ib in 0u32..512, sb in 0u64..1_000,
    ) {
        let ka = EventKey::compose(SimTime(ta), ia, sa);
        let kb = EventKey::compose(SimTime(tb), ib, sb);
        // Exactly the lexicographic order on the triple.
        prop_assert_eq!(ka.cmp(&kb), (ta, ia, sa).cmp(&(tb, ib, sb)));
        // Antisymmetric + roundtrip: distinct triples give distinct keys.
        prop_assert_eq!(kb.cmp(&ka), ka.cmp(&kb).reverse());
        prop_assert_eq!((ka.time, ka.issuer(), ka.local_seq()), (SimTime(ta), ia, sa));
    }
}
