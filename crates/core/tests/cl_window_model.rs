//! Model-based property test for the owner-side local-CL window (§III-A).
//!
//! [`ObjectClWindow`] maintains its distinct-requester count incrementally;
//! the oracle recomputes it from scratch: keep every request ever recorded
//! and count the distinct transactions among those with `t >= now − window`.
//! The streams carry what makes the incremental count go wrong if it is
//! going to: retries of one transaction (the same id many times inside one
//! window), several transactions of one node, few and many distinct
//! requesters, idle gaps longer than the window, and requests exactly at
//! the cutoff (kept) and one nanosecond before it (dropped).

use dstm_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use rts_core::{ObjectClWindow, TxId};

const WINDOW_NS: u64 = 1_000;

/// Every request so far; nothing is ever forgotten.
#[derive(Default)]
struct Oracle {
    requests: Vec<(u64, TxId)>,
}

impl Oracle {
    fn in_window(&self, now: u64) -> impl Iterator<Item = TxId> + '_ {
        let cutoff = now.saturating_sub(WINDOW_NS);
        self.requests
            .iter()
            .filter(move |&&(t, _)| t >= cutoff)
            .map(|&(_, tx)| tx)
    }

    fn local_cl(&self, now: u64) -> u32 {
        let mut txs: Vec<TxId> = self.in_window(now).collect();
        txs.sort_unstable();
        txs.dedup();
        txs.len() as u32
    }

    fn requests_in_window(&self, now: u64) -> u32 {
        self.in_window(now).count() as u32
    }
}

/// One step of a stream, decoded from a random word: how far the clock
/// advances and who asks.
fn decode(word: u64, spread: u64) -> (u64, TxId) {
    let dt = match word % 8 {
        // Same instant as the previous request.
        0 | 1 => 0,
        // Dense traffic: many requests per window.
        2..=4 => word / 8 % 40,
        // Land a later query exactly on / one past an earlier request's
        // expiry: with `now` advanced by the whole window, that request's
        // `t == cutoff` (kept); by one more, `t == cutoff − 1` (dropped).
        5 => WINDOW_NS,
        6 => WINDOW_NS + 1,
        // An idle gap that empties the window.
        _ => 3 * WINDOW_NS + word / 8 % 100,
    };
    // `spread` distinct transactions over a quarter as many nodes, so
    // several transactions share a node and ids differ in either field.
    let who = word / 1024 % spread;
    let tx = TxId::new((who % spread.div_ceil(4)) as u32, who);
    (dt, tx)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    #[test]
    fn window_matches_the_naive_oracle(
        words in proptest::collection::vec(0u64..1_000_000_000_000, 1..500),
        // 3 requesters: nothing but retries; 300: a contended list head.
        spread in prop_oneof![Just(3u64), Just(8u64), Just(9u64), Just(40u64), Just(300u64)],
    ) {
        let mut w = ObjectClWindow::new(SimDuration(WINDOW_NS));
        let mut oracle = Oracle::default();
        let mut now = 5 * WINDOW_NS;
        prop_assert!(w.is_empty());
        for &word in &words {
            let (dt, tx) = decode(word, spread);
            now += dt;
            match word / 256 % 4 {
                // Query without recording (telemetry gauges, queue service).
                0 => {}
                _ => {
                    w.record(SimTime(now), tx);
                    oracle.requests.push((now, tx));
                }
            }
            prop_assert_eq!(w.local_cl(SimTime(now)), oracle.local_cl(now));
            prop_assert_eq!(w.requests_in_window(SimTime(now)), oracle.requests_in_window(now));
            prop_assert_eq!(w.is_empty(), oracle.requests_in_window(now) == 0);
        }
        // Let everything expire: the window must come back to empty.
        now += WINDOW_NS + 1;
        prop_assert_eq!(w.local_cl(SimTime(now)), 0);
        prop_assert!(w.is_empty());
    }
}

#[test]
fn cutoff_is_inclusive() {
    let tx = |n| TxId::new(0, n);
    let mut w = ObjectClWindow::new(SimDuration(WINDOW_NS));
    w.record(SimTime(5_000), tx(1));
    w.record(SimTime(5_001), tx(2));
    // now − window == 5_000: the first request sits exactly on the cutoff.
    assert_eq!(w.local_cl(SimTime(5_000 + WINDOW_NS)), 2);
    // One nanosecond later it is out, the second one is on the cutoff.
    assert_eq!(w.local_cl(SimTime(5_001 + WINDOW_NS)), 1);
    assert_eq!(w.local_cl(SimTime(5_002 + WINDOW_NS)), 0);
}
