//! Time-resolved telemetry: epoch-sampled counters.
//!
//! The sampler is **passive**: nothing in here sets timers or sends
//! messages (a ticker would consume per-actor event sequence numbers and
//! break the telemetry-on/off bit-identity the differential suite
//! enforces). Instead the node checks, on entry to every event handler,
//! whether simulated time crossed an epoch boundary and flushes the
//! elapsed epochs from its always-on counters. Cost discipline matches
//! protocol tracing: with telemetry off the per-event check is a single
//! integer compare (`now >= u64::MAX`), and nothing here allocates.
//!
//! Samples land in a fixed-capacity ring ([`RING_CAP`]) preallocated when
//! telemetry is enabled, so the steady state allocates nothing; if a run
//! outlives the ring, the oldest epochs are overwritten and counted in
//! `dropped_epochs`.

use crate::metrics::NodeMetrics;
use dstm_sim::{SimDuration, SimTime};

/// Simulated-time width of one epoch.
pub const EPOCH: SimDuration = SimDuration::from_millis(50);

/// Ring capacity, in epochs. At the 50 ms [`EPOCH`] this covers ~3.4
/// simulated minutes before the ring wraps — far past any sweep cell.
pub const RING_CAP: usize = 4096;

/// One epoch's activity on one node: counter deltas over the epoch. Epoch
/// `e` covers simulated time `[e * epoch_ns, (e + 1) * epoch_ns)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochSample {
    /// Epoch index (start time = `epoch * epoch_ns`).
    pub epoch: u64,
    /// Counter deltas over this epoch.
    pub commits: u64,
    pub aborts: u64,
    pub nested_aborts: u64,
    pub enqueued: u64,
    pub wasted_ns: u64,
    pub wasted_msgs: u64,
    /// Cache lookups served from a retained copy this epoch
    /// (`DstmConfig::cache`; always zero with the cache off).
    pub cache_hits: u64,
    /// Cache lookups that fell back to a full fetch this epoch.
    pub cache_misses: u64,
    /// Retained copies invalidated this epoch (staleness proofs or
    /// ownership moving through the caching node).
    pub cache_invalidations: u64,
}

/// Counter snapshot at the last flush, for delta computation.
#[derive(Clone, Copy, Debug, Default)]
struct Snapshot {
    commits: u64,
    aborts: u64,
    nested_aborts: u64,
    enqueued: u64,
    wasted_ns: u64,
    wasted_msgs: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_invalidations: u64,
}

impl Snapshot {
    fn of(m: &NodeMetrics) -> Self {
        Snapshot {
            commits: m.commits,
            aborts: m.total_aborts(),
            nested_aborts: m.total_nested_aborts(),
            enqueued: m.enqueued,
            wasted_ns: m.wasted_work_ns,
            wasted_msgs: m.wasted_msgs,
            cache_hits: m.cache_hits,
            cache_misses: m.cache_misses,
            cache_invalidations: m.cache_invalidations,
        }
    }
}

/// Everything one node's telemetry collected, drained at end of run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Epoch samples in epoch order (oldest surviving first).
    pub epochs: Vec<EpochSample>,
    /// Epochs overwritten because the run outlived the ring.
    pub dropped_epochs: u64,
}

/// Per-node telemetry state. Disabled by default; [`Telemetry::disabled`]
/// holds no heap memory at all. `repr(C)`: the guard is the first word, so
/// `Node` can end its hot lines with it and leave the rest behind them.
#[derive(Debug, Default)]
#[repr(C)]
pub struct Telemetry {
    /// `u64::MAX` when disabled, so the per-event guard is one compare.
    next_epoch_end: u64,
    epoch_ns: u64,
    /// Index of the epoch currently accumulating.
    cur_epoch: u64,
    ring: Vec<EpochSample>,
    /// Ring write head once `ring` is full.
    head: usize,
    dropped: u64,
    last: Snapshot,
}

impl Telemetry {
    pub fn disabled() -> Self {
        Telemetry {
            next_epoch_end: u64::MAX,
            ..Telemetry::default()
        }
    }

    /// An enabled sampler with the ring preallocated (the only allocation
    /// telemetry ever makes on a node, done at build time).
    pub fn enabled(epoch_ns: u64) -> Self {
        let epoch_ns = epoch_ns.max(1);
        Telemetry {
            next_epoch_end: epoch_ns,
            epoch_ns,
            // Reserved whole: a ring grown as epochs arrive measured ~25 %
            // slower on `observe_160` (see DESIGN §4f).
            ring: Vec::with_capacity(RING_CAP),
            ..Telemetry::default()
        }
    }

    /// The one-compare guard the node checks on every event. `true` means
    /// an epoch boundary passed and [`Telemetry::flush`] must run.
    #[inline]
    pub fn due(&self, now: SimTime) -> bool {
        now.0 >= self.next_epoch_end
    }

    /// Whether telemetry is recording at all.
    #[inline]
    pub fn on(&self) -> bool {
        self.epoch_ns != 0
    }

    /// Close every epoch that ended at or before `now`, recording counter
    /// deltas. Cold path: runs at most once per epoch per node.
    pub fn flush(&mut self, now: SimTime, metrics: &NodeMetrics) {
        debug_assert!(self.on());
        let snap = Snapshot::of(metrics);
        while now.0 >= self.next_epoch_end {
            let sample = EpochSample {
                epoch: self.cur_epoch,
                commits: snap.commits - self.last.commits,
                aborts: snap.aborts - self.last.aborts,
                nested_aborts: snap.nested_aborts - self.last.nested_aborts,
                enqueued: snap.enqueued - self.last.enqueued,
                wasted_ns: snap.wasted_ns - self.last.wasted_ns,
                wasted_msgs: snap.wasted_msgs - self.last.wasted_msgs,
                cache_hits: snap.cache_hits - self.last.cache_hits,
                cache_misses: snap.cache_misses - self.last.cache_misses,
                cache_invalidations: snap.cache_invalidations - self.last.cache_invalidations,
            };
            self.push_sample(sample);
            self.last = snap;
            self.cur_epoch += 1;
            self.next_epoch_end = self
                .cur_epoch
                .saturating_add(1)
                .saturating_mul(self.epoch_ns);
        }
    }

    fn push_sample(&mut self, sample: EpochSample) {
        if self.ring.len() < RING_CAP {
            self.ring.push(sample);
        } else {
            self.ring[self.head] = sample;
            self.head = (self.head + 1) % RING_CAP;
            self.dropped += 1;
        }
    }

    /// Close the final (partial) epoch and drain everything collected.
    pub fn take(&mut self, now: SimTime, metrics: &NodeMetrics) -> TelemetryReport {
        if !self.on() {
            return TelemetryReport::default();
        }
        // Force the in-progress epoch out even though its boundary has not
        // passed: pretend time reached the boundary.
        let boundary = SimTime(self.next_epoch_end.max(now.0));
        self.flush(boundary, metrics);
        let mut epochs: Vec<EpochSample> = if self.dropped == 0 {
            std::mem::take(&mut self.ring)
        } else {
            // Unwrap the ring into epoch order.
            let mut out = Vec::with_capacity(self.ring.len());
            out.extend_from_slice(&self.ring[self.head..]);
            out.extend_from_slice(&self.ring[..self.head]);
            self.ring.clear();
            out
        };
        // Trailing all-zero epochs (idle tail) carry no information. Every
        // delta field must be zero — a tail epoch with no commits or
        // top-level aborts can still carry nested aborts or wasted work
        // (child-scoped conflicts abort children without a parent abort),
        // and dropping it would break the epoch-sums-equal-totals contract.
        let idle = EpochSample::default();
        while epochs
            .last()
            .is_some_and(|e| EpochSample { epoch: 0, ..*e } == idle)
        {
            epochs.pop();
        }
        TelemetryReport {
            epochs,
            dropped_epochs: self.dropped,
        }
    }
}

/// Merge per-node epoch streams into one run-wide series: deltas sum
/// across nodes at each epoch index.
pub fn merge_epoch_series(streams: &[TelemetryReport]) -> Vec<EpochSample> {
    let max_epoch = streams
        .iter()
        .filter_map(|s| s.epochs.last().map(|e| e.epoch))
        .max();
    let Some(max_epoch) = max_epoch else {
        return Vec::new();
    };
    let mut merged: Vec<EpochSample> = (0..=max_epoch)
        .map(|epoch| EpochSample {
            epoch,
            ..EpochSample::default()
        })
        .collect();
    for s in streams {
        for e in &s.epochs {
            let m = &mut merged[e.epoch as usize];
            m.commits += e.commits;
            m.aborts += e.aborts;
            m.nested_aborts += e.nested_aborts;
            m.enqueued += e.enqueued;
            m.wasted_ns += e.wasted_ns;
            m.wasted_msgs += e.wasted_msgs;
            m.cache_hits += e.cache_hits;
            m.cache_misses += e.cache_misses;
            m.cache_invalidations += e.cache_invalidations;
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Node` ends its hot bytes with the sampler's first word.
    #[test]
    fn the_guard_is_the_first_word() {
        assert_eq!(std::mem::offset_of!(Telemetry, next_epoch_end), 0);
    }

    #[test]
    fn disabled_sampler_never_fires_and_holds_no_memory() {
        let t = Telemetry::disabled();
        assert!(!t.on());
        assert!(!t.due(SimTime(u64::MAX - 1)));
        assert_eq!(t.ring.capacity(), 0);
    }

    #[test]
    fn deltas_accumulate_per_epoch() {
        let mut t = Telemetry::enabled(100);
        let mut m = NodeMetrics {
            commits: 2,
            ..NodeMetrics::default()
        };
        assert!(!t.due(SimTime(99)));
        assert!(t.due(SimTime(100)));
        t.flush(SimTime(100), &m);
        m.commits = 5;
        m.cache_hits = 4;
        m.cache_misses = 1;
        m.cache_invalidations = 2;
        m.record_abort(crate::metrics::AbortCause::SchedulerAbort);
        // Time jumps three epochs: epoch 1 gets the deltas, 2-3 are empty.
        t.flush(SimTime(420), &m);
        let report = t.take(SimTime(450), &m);
        assert_eq!(report.dropped_epochs, 0);
        assert_eq!(report.epochs[0].epoch, 0);
        assert_eq!(report.epochs[0].commits, 2);
        assert_eq!(report.epochs[1].commits, 3);
        assert_eq!(report.epochs[1].aborts, 1);
        assert_eq!(report.epochs[1].cache_hits, 4);
        assert_eq!(report.epochs[1].cache_misses, 1);
        assert_eq!(report.epochs[1].cache_invalidations, 2);
        // Epochs 2-3 were skipped over by the jump and the final partial
        // epoch closed by `take` saw nothing: an idle tail, trimmed.
        assert_eq!(report.epochs.len(), 2);
        // Per-epoch sums equal end-of-run totals.
        let commits: u64 = report.epochs.iter().map(|e| e.commits).sum();
        let aborts: u64 = report.epochs.iter().map(|e| e.aborts).sum();
        assert_eq!(commits, m.commits);
        assert_eq!(aborts, m.total_aborts());
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut t = Telemetry::enabled(10);
        let mut m = NodeMetrics::default();
        // Drive RING_CAP + 5 epochs past the sampler, each with a commit so
        // the tail survives the trim.
        for e in 1..=RING_CAP as u64 + 5 {
            m.commits += 1;
            t.flush(SimTime(10 * e), &m);
        }
        // `take` force-closes the in-progress partial epoch too, pushing
        // one more sample through the full ring.
        m.commits += 1;
        let report = t.take(SimTime(10 * (RING_CAP as u64 + 5)), &m);
        assert_eq!(report.dropped_epochs, 6);
        assert_eq!(report.epochs.len(), RING_CAP);
        assert_eq!(report.epochs.first().unwrap().epoch, 6);
        // Still strictly ordered after unwrapping.
        assert!(report.epochs.windows(2).all(|w| w[0].epoch < w[1].epoch));
    }

    #[test]
    fn epoch_series_merges_across_nodes() {
        let mk = |epoch, commits| EpochSample {
            epoch,
            commits,
            ..EpochSample::default()
        };
        let a = TelemetryReport {
            epochs: vec![mk(0, 2), mk(1, 1)],
            ..TelemetryReport::default()
        };
        let b = TelemetryReport {
            epochs: vec![mk(0, 3), mk(2, 4)],
            ..TelemetryReport::default()
        };
        let merged = merge_epoch_series(&[a, b]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].commits, 5);
        assert_eq!(merged[1].commits, 1);
        assert_eq!(merged[2].commits, 4);
        assert!(merge_epoch_series(&[]).is_empty());
    }
}
