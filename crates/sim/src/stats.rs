//! Streaming statistics used by metrics collection and the harness.

use crate::time::SimDuration;

/// Welford online mean/variance accumulator. `PartialEq` is field-wise
/// (float accumulators): runs that pushed the same samples in the same
/// order compare equal, which is exactly what the differential tests
/// (telemetry on/off, model queue vs heap) check.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record a duration in milliseconds.
    pub fn push_duration(&mut self, d: SimDuration) {
        self.push(d.as_nanos() as f64 / 1e6);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n-1 denominator).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Log2 buckets a histogram distinguishes: bucket 0 holds 0, bucket `i`
/// holds `2^(i-1) ..= 2^i - 1`, and bucket 63 everything from `2^62` up.
const BUCKETS: usize = 64;

const OVERFLOW: &str = "Histogram: a bucket count overflows u32";

#[inline]
fn bucket_of(v: u64) -> usize {
    // 0 -> 0, 1 -> 1, 2..3 -> 2, ...
    ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// The largest value bucket `i` holds.
fn bucket_ceiling(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Log-2-bucketed histogram of nanosecond durations; good enough for
/// latency-shape reporting (p50/p99 within a factor of 2).
///
/// Exact and compact: `u32` counts for the occupied range of buckets only,
/// from the first non-empty bucket to the last, plus the count and the sum.
/// An empty histogram allocates nothing, and equal contents have equal
/// representation, so `==` compares what was recorded. Recording a value
/// outside the range reallocates it; a hot path records into a
/// [`HistogramRecorder`] and compacts once. A bucket count that would pass
/// `u32::MAX` panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket index of `counts[0]`; 0 while empty.
    first: u8,
    counts: Box<[u32]>,
    count: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            first: 0,
            counts: Box::default(),
            count: 0,
            sum: 0,
        }
    }

    pub fn record(&mut self, v: u64) {
        let i = bucket_of(v);
        self.cover(i, i);
        self.add(i, 1);
        self.count += 1;
        self.sum += u128::from(v);
    }

    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the q-th quantile (0 <= q <= 1).
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= target {
                return bucket_ceiling(usize::from(self.first) + k);
            }
        }
        u64::MAX
    }

    pub fn merge(&mut self, other: &Histogram) {
        let Some(last) = other.last() else {
            return;
        };
        let first = usize::from(other.first);
        self.cover(first, last);
        for (k, &c) in other.counts.iter().enumerate() {
            self.add(first + k, c);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Index of the last occupied bucket; `None` while empty.
    fn last(&self) -> Option<usize> {
        (!self.counts.is_empty()).then(|| usize::from(self.first) + self.counts.len() - 1)
    }

    /// Widen the stored range to take in buckets `lo..=hi`.
    fn cover(&mut self, lo: usize, hi: usize) {
        let (first, last) = match self.last() {
            Some(last) => (usize::from(self.first).min(lo), last.max(hi)),
            None => (lo, hi),
        };
        if first == usize::from(self.first) && last + 1 - first == self.counts.len() {
            return;
        }
        let mut counts = vec![0; last + 1 - first].into_boxed_slice();
        if !self.counts.is_empty() {
            let at = usize::from(self.first) - first;
            counts[at..at + self.counts.len()].copy_from_slice(&self.counts);
        }
        self.first = first as u8;
        self.counts = counts;
    }

    /// Add `n` to bucket `i`, which the stored range covers.
    fn add(&mut self, i: usize, n: u32) {
        let slot = &mut self.counts[i - usize::from(self.first)];
        *slot = slot.checked_add(n).expect(OVERFLOW);
    }
}

/// The recorder a run's hot path writes into: 64 dense `u64` buckets and
/// the sum, so a record is two additions and never allocates.
/// [`HistogramRecorder::compact`] yields the [`Histogram`] the run reports.
#[derive(Clone, Debug)]
pub struct HistogramRecorder {
    buckets: [u64; BUCKETS],
    sum: u128,
}

impl Default for HistogramRecorder {
    fn default() -> Self {
        HistogramRecorder {
            buckets: [0; BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramRecorder {
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.sum += u128::from(v);
    }

    #[inline]
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// What has been recorded, trimmed to the occupied buckets. Panics if a
    /// bucket holds more than `u32::MAX` records.
    pub fn compact(&self) -> Histogram {
        let occupied = |c: &u64| *c > 0;
        let (Some(first), Some(last)) = (
            self.buckets.iter().position(occupied),
            self.buckets.iter().rposition(occupied),
        ) else {
            return Histogram::new();
        };
        Histogram {
            first: first as u8,
            counts: self.buckets[first..=last]
                .iter()
                .map(|&c| u32::try_from(c).expect(OVERFLOW))
                .collect(),
            count: self.buckets.iter().sum(),
            sum: self.sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-9);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(3.0);
        let before = a.mean();
        a.merge(&OnlineStats::new());
        assert_eq!(a.mean(), before);
        let mut empty = OnlineStats::new();
        empty.merge(&a);
        assert_eq!(empty.mean(), before);
    }

    #[test]
    fn histogram_counts_and_mean() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 221.2).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_monotone() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i);
        }
        let p50 = h.quantile_upper_bound(0.5);
        let p99 = h.quantile_upper_bound(0.99);
        assert!(p50 <= p99);
        assert!((500 / 2..=1024).contains(&p50), "p50 bucket bound {p50}");
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
    }
}
