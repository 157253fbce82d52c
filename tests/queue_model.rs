//! Model-based property tests for the default pending-event set.
//!
//! [`BinaryHeapQueue`] is checked against the simplest structure with the
//! same contract — a `BTreeMap<(time, seq), payload>` — over random
//! interleavings of `push`, `pop`, `peek_key` and `len`. The streams are
//! shaped after what the kernel really does to its queue:
//!
//! * many events share a timestamp (zero-delay local sends), so the
//!   `(issuer, per-actor seq)` tiebreak word decides most comparisons;
//! * a low-id actor may push, at the current instant, a key *below* the key
//!   just popped (same time, smaller tiebreak);
//! * the length wanders across every `4k+1 … 4k+4` boundary, so the heap's
//!   last, partially filled group of children is hit at every depth.
//!
//! `lookahead` rides along on every one of those streams: whenever the model
//! is consulted, its first two entries must be exactly the two payloads the
//! heap offers — so `[0]` is what the next `pop` returns and `[1]` what the
//! pop after it returns when nothing is pushed in between. A backend that
//! does not override `lookahead` must offer nothing.
//!
//! The contract is what is pinned, not the layout: nothing here knows how the
//! heap stores its keys.

mod common;

use closed_nesting_dstm::sim::{BinaryHeapQueue, EventKey, EventQueue, Sequenced, SimTime};
use common::NoLookahead;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeMap;

const ISSUERS: u64 = 6;

/// The queue under test beside its model, plus what a kernel would track:
/// the last popped key and one issue counter per actor (keys are unique).
struct Pair {
    heap: BinaryHeapQueue<u32>,
    model: BTreeMap<(u64, u64), u32>,
    last: EventKey,
    issued: [u64; ISSUERS as usize],
    payload: u32,
}

impl Pair {
    fn new() -> Self {
        Pair {
            heap: BinaryHeapQueue::new(),
            model: BTreeMap::new(),
            last: EventKey::new(SimTime(0), 0),
            issued: [0; ISSUERS as usize],
            payload: 0,
        }
    }

    fn push(&mut self, time: u64, issuer: u64) {
        self.issued[issuer as usize] += 1;
        let key = EventKey::compose(SimTime(time), issuer as u32, self.issued[issuer as usize]);
        self.payload += 1;
        assert!(
            self.model
                .insert((key.time.0, key.seq), self.payload)
                .is_none(),
            "generator produced a duplicate key"
        );
        self.heap.push(Sequenced {
            key,
            payload: self.payload,
        });
    }

    /// A push shaped by one random word: a handful of distinct timestamps
    /// just ahead of the clock (ties dominate), now and then one far ahead.
    fn push_random(&mut self, word: u64) {
        let issuer = word % ISSUERS;
        let body = word / ISSUERS;
        let ahead = match body % 8 {
            0 => 0,
            1..=5 => (body / 8 % 4) * 30_000,
            6 => 1_000_000 + body / 8 % 50_000_000,
            _ => 1 << 40,
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
        let mut soonest = self.model.values();
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
        let expect = self.model.pop_first();
        let got = self.heap.pop();
        match (expect, got) {
            (None, None) => {}
            (Some(((t, s), p)), Some(ev)) => {
                prop_assert_eq!((ev.key.time.0, ev.key.seq, ev.payload), (t, s, p));
                self.last = ev.key;
            }
            (e, g) => {
                return Err(TestCaseError::fail(format!(
                    "model popped {e:?}, heap popped {:?}",
                    g.map(|ev| (ev.key, ev.payload))
                )))
            }
        }
        Ok(())
    }

    fn check_view(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.heap.len(), self.model.len());
        prop_assert_eq!(self.heap.is_empty(), self.model.is_empty());
        let first = self
            .model
            .first_key_value()
            .map(|(&(t, s), _)| EventKey::new(SimTime(t), s));
        prop_assert_eq!(self.heap.peek_key(), first);
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
}
