//! `Histogram` keeps `u32` counts for its occupied log2 buckets only. It
//! must answer exactly as the dense layout it replaced, 64 `u64` buckets
//! plus a count and a sum, which this file keeps as the reference: the same
//! `count`, `mean`, every `quantile_upper_bound` and the same `==` verdict,
//! however the values are split between histograms and in whatever order
//! those are merged. A counting allocator also pins what the compact form
//! costs: nothing while empty, four bytes per bucket from the first
//! non-empty one to the last otherwise.

use dstm_sim::{Histogram, HistogramRecorder};
use proptest::collection::vec;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocator calls and bytes requested on this thread (tests run on
/// parallel threads, so the counters are per thread).
struct PerThread;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: defers all allocation to `System`; only adds thread-local counting.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|b| b.set(b.get() + layout.size()));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PerThread = PerThread;

/// `(allocator calls, bytes requested)` on this thread while `f` runs, and
/// what it returned.
fn allocations<T>(f: impl FnOnce() -> T) -> ((u64, usize), T) {
    let before = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let after = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    ((after.0 - before.0, after.1 - before.1), out)
}

/// The dense layout `Histogram` had: 64 log2 buckets of `u64`.
#[derive(Clone, Debug, PartialEq)]
struct Dense {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
}

impl Dense {
    fn new() -> Self {
        Dense {
            buckets: [0; 64],
            count: 0,
            sum: 0,
        }
    }

    fn record(&mut self, v: u64) {
        self.buckets[((64 - v.leading_zeros()) as usize).min(63)] += 1;
        self.count += 1;
        self.sum += v as u128;
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i >= 63 { u64::MAX } else { (1u64 << i) - 1 };
            }
        }
        u64::MAX
    }

    fn merge(&mut self, other: &Dense) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// A value of the shape `shape` picks: 0, 1, `2^k − 1`, `2^k`, `u64::MAX`,
/// or `raw` cut to `k` bits, so every bucket and both of its edges are hit.
fn value((shape, k, raw): (u8, u32, u64)) -> u64 {
    match shape {
        0 => 0,
        1 => 1,
        2 => (1u64 << k) - 1,
        3 => 1u64 << k,
        4 => u64::MAX,
        _ => raw >> (63 - k),
    }
}

const QUANTILES: [f64; 9] = [0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999, 1.0];

fn same_answers(h: &Histogram, d: &Dense) -> Result<(), TestCaseError> {
    prop_assert_eq!(h.count(), d.count);
    prop_assert_eq!(h.mean().to_bits(), d.mean().to_bits());
    for q in QUANTILES {
        prop_assert_eq!(
            h.quantile_upper_bound(q),
            d.quantile_upper_bound(q),
            "q {}",
            q
        );
    }
    Ok(())
}

const PARTS: usize = 4;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Values spread over four histograms, each recorded directly or through
    /// a recorder, merged in a random order: every answer equals the dense
    /// reference's, and two histograms compare equal exactly when their
    /// references do.
    #[test]
    fn answers_match_the_dense_reference(
        draws in vec((0u8..6, 0u32..64, 0u64..=u64::MAX, 0usize..PARTS), 0..80),
        through_recorder in vec(0u8..2, PARTS..PARTS + 1),
        order in vec(0u64..1_000, PARTS..PARTS + 1),
        other in vec((0u8..6, 0u32..64, 0u64..=u64::MAX), 0..6),
    ) {
        let mut direct: Vec<Histogram> = (0..PARTS).map(|_| Histogram::new()).collect();
        let mut recorders: Vec<HistogramRecorder> =
            (0..PARTS).map(|_| HistogramRecorder::default()).collect();
        let mut dense: Vec<Dense> = (0..PARTS).map(|_| Dense::new()).collect();
        for &(shape, k, raw, part) in &draws {
            let v = value((shape, k, raw));
            if through_recorder[part] == 1 {
                recorders[part].record(v);
            } else {
                direct[part].record(v);
            }
            dense[part].record(v);
        }
        let parts: Vec<Histogram> = (0..PARTS)
            .map(|p| if through_recorder[p] == 1 { recorders[p].compact() } else { direct[p].clone() })
            .collect();
        for (h, d) in parts.iter().zip(&dense) {
            same_answers(h, d)?;
        }

        let mut merge_order: Vec<usize> = (0..PARTS).collect();
        merge_order.sort_by_key(|&p| (order[p], p));
        let (mut whole, mut reference) = (Histogram::new(), Dense::new());
        for p in merge_order {
            whole.merge(&parts[p]);
            reference.merge(&dense[p]);
        }
        same_answers(&whole, &reference)?;

        // One stream recorded straight through equals any split of it.
        let mut straight = Histogram::new();
        for &(shape, k, raw, _) in &draws {
            straight.record(value((shape, k, raw)));
        }
        prop_assert_eq!(&straight, &whole);

        // `==` agrees with the reference's, on a histogram that may or may
        // not hold the same values.
        let (mut second, mut second_reference) = (Histogram::new(), Dense::new());
        for &(shape, k, raw) in &other {
            second.record(value((shape, k, raw)));
            second_reference.record(value((shape, k, raw)));
        }
        prop_assert_eq!(second == whole, second_reference == reference);
        for (p, h) in parts.iter().enumerate() {
            prop_assert_eq!(h == &whole, dense[p] == reference);
        }
    }
}

#[test]
fn an_empty_histogram_allocates_nothing() {
    let ((calls, _), empties) = allocations(|| {
        let mut a = Histogram::new();
        let b = Histogram::default();
        a.merge(&b);
        let c = a.clone();
        let d = HistogramRecorder::default().compact();
        assert_eq!(a.quantile_upper_bound(0.5), 0);
        [a, b, c, d]
    });
    assert_eq!(calls, 0, "an empty histogram allocated");
    assert!(empties.iter().all(|h| *h == Histogram::new()));
}

#[test]
fn a_histogram_keeps_its_first_to_last_occupied_bucket() {
    // 5 is in bucket 3 (4..=7) and 1000 in bucket 10 (512..=1023): eight
    // buckets of four bytes, whichever way the values arrive.
    let mut recorder = HistogramRecorder::default();
    recorder.record(1000);
    recorder.record(5);
    let ((calls, bytes), compact) = allocations(|| recorder.compact());
    assert_eq!((calls, bytes), (1, 8 * 4));

    let mut recorded = Histogram::new();
    recorded.record(1000);
    recorded.record(5);
    assert_eq!(recorded, compact);
    let ((calls, bytes), _copy) = allocations(|| recorded.clone());
    assert_eq!((calls, bytes), (1, 8 * 4));

    // Widening either end reallocates to exactly the new span; a value
    // inside it does not allocate.
    let ((calls, _), ()) = allocations(|| recorded.record(100));
    assert_eq!(calls, 0);
    let ((_, bytes), ()) = allocations(|| recorded.record(0));
    assert_eq!(bytes, 11 * 4, "buckets 0..=10");
    let ((_, bytes), ()) = allocations(|| recorded.record(u64::MAX));
    assert_eq!(bytes, 64 * 4, "every bucket");
}

#[test]
#[should_panic(expected = "bucket count overflows u32")]
fn a_bucket_past_u32_max_panics() {
    let mut h = Histogram::new();
    h.record(7);
    // Doubling reaches 2^32 records of 7 on the 32nd merge.
    for _ in 0..32 {
        h.merge(&h.clone());
    }
}
