//! The transaction stats table of §III-B.
//!
//! *"To compute a backoff time, we use a transaction stats table that stores
//! the average historical validation time of a transaction. Each table entry
//! holds a bloom filter representation of the most current successful commit
//! times of write transactions. Whenever a transaction starts, an expected
//! commit time is picked up from the table."*
//!
//! Our reading (the paper is terse here): entries are keyed by transaction
//! *kind*; each entry keeps
//!
//! * an exponentially weighted moving average (EWMA) of successful execution
//!   times (start to commit, validation included) — the numeric estimate
//!   handed out as "expected commit time", and
//! * a Bloom-filter sketch of recent commit times quantized to a bucket
//!   width, answering "have transactions of this kind recently committed in
//!   about `d`?" — used to sanity-check the EWMA against the most current
//!   behaviour (if the EWMA's bucket is no longer in the sketch, the
//!   workload shifted and we widen the estimate).
//!
//! The table keeps no separate validation estimate: a backoff is built from
//! requesters' expected remaining execution (`ETS`, stamped from
//! [`StatsTable::expected_commit_time`]) by `RequesterList::extend_bk`.
//! The substitution is documented in `DESIGN.md` §4.5.

use crate::bloom::BloomFilter;
use crate::fx::FxHashMap;
use crate::ids::TxKind;
use dstm_sim::{SimDuration, SimTime};

/// Quantization bucket for commit times entering the Bloom sketch.
const SKETCH_BUCKET_NANOS: u64 = 100_000; // 100 µs

/// EWMA smoothing factor (weight of the newest sample).
const EWMA_ALPHA: f64 = 0.25;

/// Refresh the Bloom sketch after this many insertions so it tracks only
/// "the most current" commits.
const SKETCH_REFRESH: u64 = 256;

#[derive(Clone, Debug)]
struct KindStats {
    ewma_exec_nanos: f64,
    commits: u64,
    sketch: BloomFilter,
}

impl KindStats {
    fn new() -> Self {
        KindStats {
            ewma_exec_nanos: 0.0,
            commits: 0,
            sketch: BloomFilter::with_capacity(SKETCH_REFRESH as usize, 0.02),
        }
    }
}

/// Per-node table of expected execution times by transaction kind.
#[derive(Clone, Debug)]
pub struct StatsTable {
    entries: FxHashMap<TxKind, KindStats>,
    /// Estimate handed out before any commit of a kind has been observed.
    default_exec: SimDuration,
}

impl StatsTable {
    /// `default_exec` seeds estimates for kinds with no history yet (a
    /// couple of round-trips is a sensible prior in the harness).
    pub fn new(default_exec: SimDuration) -> Self {
        StatsTable {
            entries: FxHashMap::default(),
            default_exec,
        }
    }

    /// Record a successful commit's total execution time (start → commit).
    pub fn record_commit(&mut self, kind: TxKind, exec: SimDuration) {
        let e = self.entries.entry(kind).or_insert_with(KindStats::new);
        if e.commits == 0 {
            e.ewma_exec_nanos = exec.as_nanos() as f64;
        } else {
            e.ewma_exec_nanos =
                EWMA_ALPHA * exec.as_nanos() as f64 + (1.0 - EWMA_ALPHA) * e.ewma_exec_nanos;
        }
        e.commits += 1;
        if e.commits.is_multiple_of(SKETCH_REFRESH) {
            e.sketch.clear(); // keep only "the most current" commit times
        }
        e.sketch.insert(exec.as_nanos() / SKETCH_BUCKET_NANOS);
    }

    /// Expected execution time for `kind` (EWMA, or the default prior). If
    /// the EWMA's bucket has fallen out of the recent-commit sketch, the
    /// estimate is widened by 50% — the workload has drifted and optimistic
    /// backoffs would expire early, aborting enqueued parents (§IV-B warns
    /// that "anticipating an exact execution time is too optimistic").
    pub fn expected_exec(&self, kind: TxKind) -> SimDuration {
        match self.entries.get(&kind) {
            None => self.default_exec,
            Some(e) if e.commits == 0 => self.default_exec,
            Some(e) => {
                let est = e.ewma_exec_nanos as u64;
                let bucket = est / SKETCH_BUCKET_NANOS;
                let fresh = e.sketch.contains(bucket)
                    || e.sketch.contains(bucket.saturating_sub(1))
                    || e.sketch.contains(bucket + 1);
                if fresh {
                    SimDuration::from_nanos(est)
                } else {
                    SimDuration::from_nanos(est + est / 2)
                }
            }
        }
    }

    /// The expected commit *instant* for a transaction of `kind` starting
    /// now — this is `ETS.c` stamped into outgoing requests.
    pub fn expected_commit_time(&self, kind: TxKind, start: SimTime) -> SimTime {
        start + self.expected_exec(kind)
    }

    /// Commits observed for `kind`.
    pub fn commits(&self, kind: TxKind) -> u64 {
        self.entries.get(&kind).map_or(0, |e| e.commits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: TxKind = TxKind(3);

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn default_before_any_history() {
        let t = StatsTable::new(ms(20));
        assert_eq!(t.expected_exec(K), ms(20));
        assert_eq!(t.commits(K), 0);
    }

    #[test]
    fn first_commit_sets_estimate() {
        let mut t = StatsTable::new(ms(20));
        t.record_commit(K, ms(40));
        assert_eq!(t.expected_exec(K), ms(40));
        assert_eq!(t.commits(K), 1);
    }

    #[test]
    fn ewma_tracks_shift() {
        let mut t = StatsTable::new(ms(20));
        for _ in 0..50 {
            t.record_commit(K, ms(10));
        }
        let low = t.expected_exec(K);
        for _ in 0..50 {
            t.record_commit(K, ms(100));
        }
        let high = t.expected_exec(K);
        assert!(
            high > low * 5,
            "EWMA failed to track shift: {low} -> {high}"
        );
    }

    #[test]
    fn expected_commit_time_offsets_start() {
        let mut t = StatsTable::new(ms(20));
        t.record_commit(K, ms(30));
        let start = SimTime(1_000_000_000);
        assert_eq!(t.expected_commit_time(K, start), start + ms(30));
    }

    #[test]
    fn stale_sketch_widens_estimate() {
        let mut t = StatsTable::new(ms(20));
        // Exactly SKETCH_REFRESH commits at 10ms: the refresh clears the
        // sketch and reinserts only the last sample...
        for _ in 0..SKETCH_REFRESH {
            t.record_commit(K, ms(10));
        }
        // ... so the 10ms bucket is still fresh here.
        assert_eq!(t.expected_exec(K), ms(10));
        // Now shift the workload: new samples land at 200 ms, but the EWMA
        // lags in between, in buckets the sketch has never seen -> widened.
        t.record_commit(K, ms(200));
        let est = t.expected_exec(K);
        let ewma = SimDuration::from_nanos(
            (0.25 * ms(200).as_nanos() as f64 + 0.75 * ms(10).as_nanos() as f64) as u64,
        );
        assert_eq!(
            est,
            ewma + ewma.mul_ratio(1, 2),
            "estimate should widen by 50%"
        );
    }

    #[test]
    fn kinds_are_independent() {
        let mut t = StatsTable::new(ms(20));
        t.record_commit(TxKind(1), ms(10));
        t.record_commit(TxKind(2), ms(90));
        assert_eq!(t.expected_exec(TxKind(1)), ms(10));
        assert_eq!(t.expected_exec(TxKind(2)), ms(90));
    }
}
