//! Schedule perturbation and interleaving control for verification.
//!
//! Two queue backends that bend the kernel's event order **without leaving
//! the space of realizable executions**:
//!
//! * [`PerturbQueue`] — the DST fuzzer's backend. Wraps the stock
//!   [`BinaryHeapQueue`] and applies an explicit, replayable list of
//!   [`Perturb`] deviations: extra virtual latency injected at the N-th
//!   push, and tie-swaps that deliver a different event among those tied at
//!   the minimal timestamp at the N-th pop. Both preserve the kernel's
//!   monotone-time contract (popped timestamps never decrease), so every
//!   perturbed run is an execution the simulator could have produced under
//!   different link delays / tiebreaks. A run is replayed bit-identically
//!   by re-applying the same [`Schedule`].
//!
//! * [`ChoiceQueue`] — the small-model checker's backend. Holds pending
//!   events in a flat list and lets an external driver pick which *lane*
//!   (per-channel message stream, per-actor timer stream) delivers next.
//!   Lane heads preserve per-channel FIFO — messages between one ordered
//!   pair of nodes share a fixed link delay, so their delivery order is
//!   not schedule-dependent — while everything across lanes is up for
//!   grabs, modeling adversarial link and timer latencies. Popped events
//!   are re-stamped onto a monotone virtual clock so the engine's
//!   time-never-goes-backwards invariant holds on every interleaving.

use crate::engine::KernelEvent;
use crate::event::{EventKey, Sequenced};
use crate::queue::{BinaryHeapQueue, EventQueue};
use crate::time::SimTime;

// ---------------------------------------------------------------------------
// Fuzzer schedules
// ---------------------------------------------------------------------------

/// One deterministic deviation from the baseline event order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Perturb {
    /// At the `push_step`-th event push of the run (0-based, counting every
    /// kernel push), add `extra_ns` of virtual latency to the pushed event —
    /// as if that one message hit a slow link.
    Delay { push_step: u64, extra_ns: u64 },
    /// At the `pop_step`-th pop, deliver the `rank`-th event among those
    /// tied at the minimal timestamp instead of the first (`rank` is
    /// clamped to the tie count; rank 0 is the baseline order). Models an
    /// adversarial tiebreak between simultaneous deliveries.
    TieSwap { pop_step: u64, rank: u64 },
}

/// A replayable fuzz schedule: the episode seed plus an explicit
/// perturbation list. Same schedule ⇒ bit-identical run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    pub seed: u64,
    pub perturbations: Vec<Perturb>,
}

impl Schedule {
    /// Compact line-based text blob (`seed N`, then one `delay`/`tieswap`
    /// line per perturbation). Stable format — reproducer files embed it.
    pub fn to_text(&self) -> String {
        let mut out = format!("seed {}\n", self.seed);
        for p in &self.perturbations {
            match p {
                Perturb::Delay {
                    push_step,
                    extra_ns,
                } => {
                    out.push_str(&format!("delay {push_step} {extra_ns}\n"));
                }
                Perturb::TieSwap { pop_step, rank } => {
                    out.push_str(&format!("tieswap {pop_step} {rank}\n"));
                }
            }
        }
        out
    }

    /// Parse [`Schedule::to_text`] output. Blank lines and `#` comments are
    /// ignored; unknown directives are errors (a truncated blob must not
    /// silently replay as a different schedule).
    pub fn from_text(text: &str) -> Result<Schedule, String> {
        let mut sched = Schedule::default();
        let mut saw_seed = false;
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_ascii_whitespace();
            let word = it.next().unwrap_or_default();
            let mut num = |what: &str| -> Result<u64, String> {
                it.next()
                    .ok_or_else(|| format!("line {}: missing {what}", ln + 1))?
                    .parse::<u64>()
                    .map_err(|e| format!("line {}: bad {what}: {e}", ln + 1))
            };
            match word {
                "seed" => {
                    sched.seed = num("seed")?;
                    saw_seed = true;
                }
                "delay" => sched.perturbations.push(Perturb::Delay {
                    push_step: num("push step")?,
                    extra_ns: num("extra ns")?,
                }),
                "tieswap" => sched.perturbations.push(Perturb::TieSwap {
                    pop_step: num("pop step")?,
                    rank: num("rank")?,
                }),
                other => return Err(format!("line {}: unknown directive `{other}`", ln + 1)),
            }
        }
        if !saw_seed {
            return Err("schedule blob has no `seed` line".into());
        }
        Ok(sched)
    }
}

/// A [`BinaryHeapQueue`] that applies a [`Schedule`]'s perturbations as the
/// run pushes and pops events. See the module docs for the realizability
/// argument; the wrapper is a strict pass-through when the perturbation
/// list is empty.
pub struct PerturbQueue<E> {
    inner: BinaryHeapQueue<E>,
    /// `(push_step, extra_ns)`, sorted and deduplicated by step.
    delays: Vec<(u64, u64)>,
    /// `(pop_step, rank)`, sorted and deduplicated by step.
    swaps: Vec<(u64, u64)>,
    pushes: u64,
    pops: u64,
}

impl<E> PerturbQueue<E> {
    pub fn new(schedule: &Schedule) -> Self {
        let mut delays = Vec::new();
        let mut swaps = Vec::new();
        for p in &schedule.perturbations {
            match *p {
                Perturb::Delay {
                    push_step,
                    extra_ns,
                } => delays.push((push_step, extra_ns)),
                Perturb::TieSwap { pop_step, rank } => swaps.push((pop_step, rank)),
            }
        }
        delays.sort_unstable();
        delays.dedup_by_key(|&mut (s, _)| s);
        swaps.sort_unstable();
        swaps.dedup_by_key(|&mut (s, _)| s);
        PerturbQueue {
            inner: BinaryHeapQueue::new(),
            delays,
            swaps,
            pushes: 0,
            pops: 0,
        }
    }

    /// Total pushes observed so far (diagnostics: how much of the schedule's
    /// step space a run actually covered).
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    pub fn pops(&self) -> u64 {
        self.pops
    }
}

impl<E> EventQueue<E> for PerturbQueue<E> {
    fn push(&mut self, mut ev: Sequenced<E>) {
        if let Ok(i) = self.delays.binary_search_by_key(&self.pushes, |&(s, _)| s) {
            ev.key.time = SimTime(ev.key.time.0.saturating_add(self.delays[i].1));
        }
        self.pushes += 1;
        self.inner.push(ev);
    }

    fn pop(&mut self) -> Option<Sequenced<E>> {
        let step = self.pops;
        self.pops += 1;
        let rank = match self.swaps.binary_search_by_key(&step, |&(s, _)| s) {
            Ok(i) => self.swaps[i].1,
            Err(_) => 0,
        };
        let first = self.inner.pop()?;
        if rank == 0 {
            return Some(first);
        }
        // Pull events tied at the minimal timestamp (at most `rank` more —
        // no need to drain a deep tie bucket to pick the k-th entry).
        let t = first.key.time;
        let mut ties = vec![first];
        while (ties.len() as u64) <= rank {
            match self.inner.peek_key() {
                Some(k) if k.time == t => ties.push(self.inner.pop().expect("peeked event")),
                _ => break,
            }
        }
        let pick = (rank as usize).min(ties.len() - 1);
        let chosen = ties.swap_remove(pick);
        for ev in ties {
            self.inner.push(ev);
        }
        Some(chosen)
    }

    #[inline]
    fn peek_key(&self) -> Option<EventKey> {
        self.inner.peek_key()
    }

    #[inline]
    fn len(&self) -> usize {
        self.inner.len()
    }
}

// ---------------------------------------------------------------------------
// Model-checker choice queue
// ---------------------------------------------------------------------------

/// An independently schedulable event stream: messages along one ordered
/// node pair (fixed link delay ⇒ per-channel FIFO), or one actor's timers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lane {
    Channel { from: u32, to: u32 },
    Timers { on: u32 },
}

fn lane_of<M, T>(ev: &KernelEvent<M, T>) -> Lane {
    match ev {
        KernelEvent::Msg { from, to, .. } => Lane::Channel {
            from: from.0,
            to: to.0,
        },
        KernelEvent::Timer { on, .. } => Lane::Timers { on: on.0 },
    }
}

/// Pending-event set whose delivery order is chosen by an external driver,
/// one *lane head* at a time (see `Lane`'s realizability contract in the
/// module docs). The driver enumerates [`ChoiceQueue::num_choices`],
/// [`choose`](ChoiceQueue::choose)s one, and steps the world; without a
/// pending choice, pops fall back to the baseline minimal-key order, so the
/// queue is also a well-behaved ordinary backend.
///
/// Popped events are re-stamped to `max(event time, virtual now)`: a
/// later-chosen event is treated as having been delayed to the moment it is
/// delivered, which keeps kernel time monotone (and means absolute
/// timestamps are *schedule-dependent* — checker state must be compared
/// time-abstractly).
pub struct ChoiceQueue<M, T> {
    pending: Vec<Sequenced<KernelEvent<M, T>>>,
    virtual_now: SimTime,
    next_choice: Option<usize>,
}

impl<M, T> ChoiceQueue<M, T> {
    pub fn new() -> Self {
        ChoiceQueue {
            pending: Vec::new(),
            virtual_now: SimTime::ZERO,
            next_choice: None,
        }
    }

    /// Indices (into [`pending_events`](Self::pending_events)) of the
    /// currently deliverable events: the earliest event of each lane, in
    /// ascending key order. Deterministic for a given pending multiset.
    pub fn enabled(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.pending.len()).collect();
        order.sort_by_key(|&i| self.pending[i].key);
        let mut seen: Vec<Lane> = Vec::new();
        let mut out = Vec::new();
        for i in order {
            let lane = lane_of(&self.pending[i].payload);
            if !seen.contains(&lane) {
                seen.push(lane);
                out.push(i);
            }
        }
        out
    }

    /// Number of schedulable lanes right now (the branching factor).
    pub fn num_choices(&self) -> usize {
        self.enabled().len()
    }

    /// Select which enabled event (by position in [`Self::enabled`]) the
    /// next pop delivers. Out-of-range choices clamp to the last lane.
    pub fn choose(&mut self, choice: usize) {
        self.next_choice = Some(choice);
    }

    /// All undelivered events (for state fingerprints). Order is internal;
    /// hash via a key-sorted view.
    pub fn pending_events(&self) -> &[Sequenced<KernelEvent<M, T>>] {
        &self.pending
    }

    /// The monotone delivery clock (time of the last popped event).
    pub fn virtual_now(&self) -> SimTime {
        self.virtual_now
    }
}

impl<M, T> Default for ChoiceQueue<M, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M, T> EventQueue<KernelEvent<M, T>> for ChoiceQueue<M, T> {
    fn push(&mut self, ev: Sequenced<KernelEvent<M, T>>) {
        self.pending.push(ev);
    }

    fn pop(&mut self) -> Option<Sequenced<KernelEvent<M, T>>> {
        if self.pending.is_empty() {
            self.next_choice = None;
            return None;
        }
        let enabled = self.enabled();
        let c = self.next_choice.take().unwrap_or(0).min(enabled.len() - 1);
        let mut ev = self.pending.swap_remove(enabled[c]);
        if ev.key.time < self.virtual_now {
            ev.key.time = self.virtual_now;
        } else {
            self.virtual_now = ev.key.time;
        }
        Some(ev)
    }

    fn peek_key(&self) -> Option<EventKey> {
        self.pending.iter().map(|e| e.key).min().map(|mut k| {
            if k.time < self.virtual_now {
                k.time = self.virtual_now;
            }
            k
        })
    }

    #[inline]
    fn len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ActorId;

    fn msg(at: u64, seq: u64, from: u32, to: u32, tag: u32) -> Sequenced<KernelEvent<u32, u32>> {
        Sequenced {
            key: EventKey::compose(SimTime(at), from, seq),
            payload: KernelEvent::Msg {
                from: ActorId(from),
                to: ActorId(to),
                msg: tag,
            },
        }
    }

    fn tag_of(ev: &KernelEvent<u32, u32>) -> u32 {
        match ev {
            KernelEvent::Msg { msg, .. } => *msg,
            KernelEvent::Timer { timer, .. } => *timer,
        }
    }

    #[test]
    fn schedule_text_round_trips() {
        let sched = Schedule {
            seed: 42,
            perturbations: vec![
                Perturb::Delay {
                    push_step: 17,
                    extra_ns: 2_500_000,
                },
                Perturb::TieSwap {
                    pop_step: 90,
                    rank: 2,
                },
            ],
        };
        let text = sched.to_text();
        assert_eq!(Schedule::from_text(&text).unwrap(), sched);
        assert!(Schedule::from_text("delay 1 2\n").is_err(), "seed required");
        assert!(Schedule::from_text("seed 1\nbogus 2 3\n").is_err());
        assert!(Schedule::from_text("seed 1\n# comment\n\n").is_ok());
    }

    #[test]
    fn empty_schedule_is_a_pass_through() {
        let mut plain: BinaryHeapQueue<KernelEvent<u32, u32>> = BinaryHeapQueue::new();
        let mut wrapped = PerturbQueue::new(&Schedule::default());
        for (i, t) in [50u64, 10, 30, 10, 70, 0].iter().enumerate() {
            plain.push(msg(*t, i as u64, 0, 1, i as u32));
            wrapped.push(msg(*t, i as u64, 0, 1, i as u32));
        }
        loop {
            match (plain.pop(), wrapped.pop()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!(a.key, b.key);
                    assert_eq!(tag_of(&a.payload), tag_of(&b.payload));
                }
                _ => panic!("lengths diverged"),
            }
        }
    }

    #[test]
    fn delay_shifts_exactly_the_targeted_push() {
        let sched = Schedule {
            seed: 0,
            perturbations: vec![Perturb::Delay {
                push_step: 1,
                extra_ns: 100,
            }],
        };
        let mut q = PerturbQueue::new(&sched);
        q.push(msg(10, 0, 0, 1, 0));
        q.push(msg(10, 1, 0, 1, 1)); // delayed to t=110
        q.push(msg(20, 2, 0, 1, 2));
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.key.time.0, tag_of(&e.payload)))
            .collect();
        assert_eq!(order, vec![(10, 0), (20, 2), (110, 1)]);
    }

    #[test]
    fn tieswap_picks_rank_among_ties_and_loses_nothing() {
        let sched = Schedule {
            seed: 0,
            perturbations: vec![Perturb::TieSwap {
                pop_step: 0,
                rank: 2,
            }],
        };
        let mut q = PerturbQueue::new(&sched);
        for i in 0..4u64 {
            q.push(msg(5, i, 0, 1, i as u32));
        }
        q.push(msg(9, 9, 0, 1, 99));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| tag_of(&e.payload))
            .collect();
        // Rank 2 of the t=5 ties goes first; the remaining ties keep their
        // order; the t=9 straggler stays last. Nothing lost or duplicated.
        assert_eq!(order, vec![2, 0, 1, 3, 99]);
    }

    #[test]
    fn tieswap_rank_clamps_to_tie_count() {
        let sched = Schedule {
            seed: 0,
            perturbations: vec![Perturb::TieSwap {
                pop_step: 0,
                rank: 10,
            }],
        };
        let mut q = PerturbQueue::new(&sched);
        q.push(msg(5, 0, 0, 1, 0));
        q.push(msg(5, 1, 0, 1, 1));
        q.push(msg(9, 2, 0, 1, 2));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| tag_of(&e.payload))
            .collect();
        assert_eq!(order, vec![1, 0, 2]);
    }

    #[test]
    fn pop_times_stay_monotone_under_perturbation() {
        let sched = Schedule {
            seed: 0,
            perturbations: vec![
                Perturb::Delay {
                    push_step: 3,
                    extra_ns: 1_000,
                },
                Perturb::TieSwap {
                    pop_step: 2,
                    rank: 1,
                },
            ],
        };
        let mut q = PerturbQueue::new(&sched);
        for i in 0..10u64 {
            q.push(msg(10 * (i % 3), i, 0, 1, i as u32));
        }
        let mut last = 0u64;
        while let Some(ev) = q.pop() {
            assert!(ev.key.time.0 >= last, "pop time went backwards");
            last = ev.key.time.0;
        }
    }

    #[test]
    fn choice_queue_respects_channel_fifo() {
        let mut q: ChoiceQueue<u32, u32> = ChoiceQueue::new();
        // Two messages on channel 0→1 (FIFO forced) and one on 2→1.
        q.push(msg(10, 0, 0, 1, 100));
        q.push(msg(20, 1, 0, 1, 101));
        q.push(msg(30, 2, 2, 1, 200));
        let enabled = q.enabled();
        assert_eq!(enabled.len(), 2, "second 0→1 message is lane-blocked");
        // Choice 1 = the 2→1 lane (later key). Its pop re-stamps to its own
        // time (30 ≥ virtual now 0).
        q.choose(1);
        let ev = q.pop().unwrap();
        assert_eq!(tag_of(&ev.payload), 200);
        assert_eq!(ev.key.time, SimTime(30));
        // Now the earlier 0→1 message pops at max(10, 30) = 30.
        q.choose(0);
        let ev = q.pop().unwrap();
        assert_eq!(tag_of(&ev.payload), 100);
        assert_eq!(ev.key.time, SimTime(30), "re-stamped onto virtual now");
        assert_eq!(q.virtual_now(), SimTime(30));
    }

    #[test]
    fn choice_queue_defaults_to_min_key_order() {
        let mut q: ChoiceQueue<u32, u32> = ChoiceQueue::new();
        q.push(msg(30, 2, 2, 1, 2));
        q.push(msg(10, 0, 0, 1, 0));
        q.push(msg(20, 1, 3, 1, 1));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| tag_of(&e.payload))
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn choice_queue_timer_lane_is_per_actor() {
        let mut q: ChoiceQueue<u32, u32> = ChoiceQueue::new();
        let timer = |at: u64, seq: u64, on: u32, tag: u32| Sequenced {
            key: EventKey::compose(SimTime(at), on, seq),
            payload: KernelEvent::Timer {
                on: ActorId(on),
                token: crate::engine::TimerToken::test_token(),
                timer: tag,
            },
        };
        q.push(timer(10, 0, 0, 1));
        q.push(timer(20, 1, 0, 2)); // same actor: lane-blocked
        q.push(timer(30, 2, 1, 3)); // other actor: independent lane
        assert_eq!(q.num_choices(), 2);
    }
}
