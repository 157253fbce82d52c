//! Time-resolved telemetry: epoch-sampled counters and the per-object
//! wasted-work rollup.
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
//! A flush costs O(open CL windows), not O(objects the node ever touched):
//! the sampler keeps the list of objects whose window took a request since
//! the `cl_open` gauge last saw it empty, and the gauge walks only that.
//!
//! Samples land in a fixed-capacity ring ([`RING_CAP`]) preallocated when
//! telemetry is enabled, so the steady state allocates nothing; if a run
//! outlives the ring, the oldest epochs are overwritten and counted in
//! `dropped_epochs`.

use crate::metrics::NodeMetrics;
use dstm_sim::SimTime;
use rts_core::ObjectId;

/// Ring capacity, in epochs. At the default 50 ms epoch this covers
/// ~3.4 simulated minutes before the ring wraps — far past any sweep cell.
pub const RING_CAP: usize = 4096;

/// One epoch's activity on one node: counter deltas over the epoch plus
/// point-in-time gauges read at the flush. Epoch `e` covers simulated time
/// `[e * epoch_ns, (e + 1) * epoch_ns)`.
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
    /// Gauges at the flush that closed this epoch.
    pub queue_depth: u64,
    pub in_flight: u64,
    /// Objects whose owner-side CL window is currently open.
    pub cl_open: u64,
}

/// Point-in-time gauges the node computes at flush time (the sampler
/// cannot see the scheduler table or object table itself).
#[derive(Clone, Copy, Debug, Default)]
pub struct Gauges {
    pub queue_depth: u64,
    pub in_flight: u64,
    pub cl_open: u64,
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

/// Per-object wasted-work rollup row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjWaste {
    pub oid: ObjectId,
    /// Top-level aborts this object's contention caused.
    pub aborts: u64,
    /// Virtual nanoseconds of work those aborts discarded.
    pub wasted_ns: u64,
}

/// Everything one node's telemetry collected, drained at end of run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Epoch samples in epoch order (oldest surviving first).
    pub epochs: Vec<EpochSample>,
    /// Per-object wasted-work rollup, sorted by object id.
    pub objects: Vec<ObjWaste>,
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
    objects: Vec<ObjWaste>,
    /// Object slots (the node's object-table indices) whose CL window took
    /// a request since the `cl_open` gauge last saw it empty: a superset of
    /// the open windows, and all the gauge looks at.
    windows: Vec<u32>,
    /// One bit per object slot: whether it is on `windows`.
    listed: Vec<u64>,
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
            cur_epoch: 0,
            ring: Vec::with_capacity(RING_CAP),
            head: 0,
            dropped: 0,
            last: Snapshot::default(),
            objects: Vec::new(),
            windows: Vec::new(),
            listed: Vec::new(),
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
    /// deltas and the supplied gauges. Cold path: runs at most once per
    /// epoch per node.
    pub fn flush(&mut self, now: SimTime, metrics: &NodeMetrics, gauges: Gauges) {
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
                queue_depth: gauges.queue_depth,
                in_flight: gauges.in_flight,
                cl_open: gauges.cl_open,
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

    /// Note that the CL window of object slot `slot` took a request: the
    /// `cl_open` gauge looks at it from now on, until it finds it empty.
    #[inline]
    pub fn window_recorded(&mut self, slot: usize) {
        if self.on() {
            self.list_window(slot);
        }
    }

    fn list_window(&mut self, slot: usize) {
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if word >= self.listed.len() {
            self.listed.resize(word + 1, 0);
        }
        if self.listed[word] & bit == 0 {
            self.listed[word] |= bit;
            self.windows
                .push(u32::try_from(slot).expect("object slots fit u32"));
        }
    }

    /// The `cl_open` gauge: how many of the windows noted by
    /// [`Telemetry::window_recorded`] `is_open` finds open. One it finds
    /// empty leaves the list until its next request, so a flush costs
    /// O(open windows), not O(objects the node ever touched).
    pub fn open_windows(&mut self, mut is_open: impl FnMut(usize) -> bool) -> u64 {
        let listed = &mut self.listed;
        self.windows.retain(|&slot| {
            let slot = slot as usize;
            let open = is_open(slot);
            if !open {
                listed[slot / 64] &= !(1 << (slot % 64));
            }
            open
        });
        self.windows.len() as u64
    }

    /// Attribute one abort's wasted work to the object that caused it.
    #[inline]
    pub fn record_obj_waste(&mut self, oid: ObjectId, wasted_ns: u64) {
        if !self.on() {
            return;
        }
        match self.objects.iter_mut().find(|o| o.oid == oid) {
            Some(o) => {
                o.aborts += 1;
                o.wasted_ns += wasted_ns;
            }
            None => self.objects.push(ObjWaste {
                oid,
                aborts: 1,
                wasted_ns,
            }),
        }
    }

    /// Close the final (partial) epoch and drain everything collected.
    pub fn take(&mut self, now: SimTime, metrics: &NodeMetrics, gauges: Gauges) -> TelemetryReport {
        if !self.on() {
            return TelemetryReport::default();
        }
        // Force the in-progress epoch out even though its boundary has not
        // passed: pretend time reached the boundary.
        let boundary = SimTime(self.next_epoch_end.max(now.0));
        self.flush(boundary, metrics, gauges);
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
        while epochs.last().is_some_and(|e| {
            e.commits == 0
                && e.aborts == 0
                && e.nested_aborts == 0
                && e.enqueued == 0
                && e.wasted_ns == 0
                && e.wasted_msgs == 0
                && e.cache_hits == 0
                && e.cache_misses == 0
                && e.cache_invalidations == 0
                && e.in_flight == 0
        }) {
            epochs.pop();
        }
        let mut objects = std::mem::take(&mut self.objects);
        objects.sort_unstable_by_key(|o| o.oid);
        TelemetryReport {
            epochs,
            objects,
            dropped_epochs: self.dropped,
        }
    }
}

/// Merge per-node epoch streams into one run-wide series: deltas and
/// gauges sum across nodes at each epoch index (a gauge summed over nodes
/// is the system-wide population — total queued requests, total in-flight
/// transactions, total open CL windows).
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
            m.queue_depth += e.queue_depth;
            m.in_flight += e.in_flight;
            m.cl_open += e.cl_open;
        }
    }
    merged
}

/// Merge per-node object-waste rollups into one run-wide ranking input.
pub fn merge_object_waste(streams: &[TelemetryReport]) -> Vec<ObjWaste> {
    let mut merged: Vec<ObjWaste> = Vec::new();
    for s in streams {
        for o in &s.objects {
            match merged.iter_mut().find(|m| m.oid == o.oid) {
                Some(m) => {
                    m.aborts += o.aborts;
                    m.wasted_ns += o.wasted_ns;
                }
                None => merged.push(*o),
            }
        }
    }
    merged.sort_unstable_by_key(|o| o.oid);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauges(q: u64, f: u64, c: u64) -> Gauges {
        Gauges {
            queue_depth: q,
            in_flight: f,
            cl_open: c,
        }
    }

    /// `Node` ends its hot bytes with the sampler's first word.
    #[test]
    fn the_guard_is_the_first_word() {
        assert_eq!(std::mem::offset_of!(Telemetry, next_epoch_end), 0);
    }

    #[test]
    fn disabled_sampler_never_fires_and_holds_no_memory() {
        let mut t = Telemetry::disabled();
        t.window_recorded(1_000);
        assert!(!t.on());
        assert!(!t.due(SimTime(u64::MAX - 1)));
        assert_eq!(t.ring.capacity(), 0);
        assert_eq!(t.objects.capacity(), 0);
        assert_eq!((t.windows.capacity(), t.listed.capacity()), (0, 0));
    }

    #[test]
    fn the_cl_gauge_walks_each_noted_window_until_it_finds_it_empty() {
        let mut t = Telemetry::enabled(100);
        for slot in [3, 70, 3, 5, 70] {
            t.window_recorded(slot);
        }
        assert_eq!(t.windows, [3, 70, 5], "noted once each, in order");
        let mut asked = Vec::new();
        let open = t.open_windows(|slot| {
            asked.push(slot);
            slot != 70
        });
        assert_eq!((open, asked), (2, vec![3, 70, 5]));
        // Slot 70 was found empty: not asked again until its next request.
        let mut asked = Vec::new();
        let open = t.open_windows(|slot| {
            asked.push(slot);
            true
        });
        assert_eq!(open, 2);
        assert_eq!(asked, [3, 5]);
        t.window_recorded(70);
        assert_eq!(t.open_windows(|_| true), 3);
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
        t.flush(SimTime(100), &m, gauges(1, 2, 3));
        m.commits = 5;
        m.cache_hits = 4;
        m.cache_misses = 1;
        m.cache_invalidations = 2;
        m.record_abort(crate::metrics::AbortCause::SchedulerAbort);
        // Time jumps three epochs: epoch 1 gets the deltas, 2-3 are empty.
        t.flush(SimTime(420), &m, gauges(0, 1, 0));
        let report = t.take(SimTime(450), &m, gauges(0, 0, 0));
        assert_eq!(report.dropped_epochs, 0);
        assert_eq!(report.epochs[0].epoch, 0);
        assert_eq!(report.epochs[0].commits, 2);
        assert_eq!(report.epochs[0].queue_depth, 1);
        assert_eq!(report.epochs[1].commits, 3);
        assert_eq!(report.epochs[1].aborts, 1);
        assert_eq!(report.epochs[1].cache_hits, 4);
        assert_eq!(report.epochs[1].cache_misses, 1);
        assert_eq!(report.epochs[1].cache_invalidations, 2);
        assert_eq!(report.epochs[1].in_flight, 1);
        // Epochs 2-3 were skipped over by the jump: zero deltas, but they
        // carry the flush-time gauges (in_flight 1), so they survive; the
        // final partial epoch closed by `take` is idle and trimmed.
        assert_eq!(report.epochs.len(), 4);
        assert!(report.epochs[2..].iter().all(|e| e.commits == 0));
        // Per-epoch sums equal end-of-run totals.
        let commits: u64 = report.epochs.iter().map(|e| e.commits).sum();
        let aborts: u64 = report.epochs.iter().map(|e| e.aborts).sum();
        assert_eq!(commits, m.commits);
        assert_eq!(aborts, m.total_aborts());
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut t = Telemetry::enabled(10);
        let m = NodeMetrics::default();
        // Drive RING_CAP + 5 epochs past the sampler.
        t.flush(
            SimTime(10 * (RING_CAP as u64 + 5)),
            &m,
            gauges(0, 1, 0), // nonzero in_flight so the tail survives trim
        );
        // `take` force-closes the in-progress partial epoch too, pushing
        // one more sample through the full ring.
        let report = t.take(SimTime(10 * (RING_CAP as u64 + 5)), &m, gauges(0, 1, 0));
        assert_eq!(report.dropped_epochs, 6);
        assert_eq!(report.epochs.len(), RING_CAP);
        assert_eq!(report.epochs.first().unwrap().epoch, 6);
        // Still strictly ordered after unwrapping.
        assert!(report.epochs.windows(2).all(|w| w[0].epoch < w[1].epoch));
    }

    #[test]
    fn object_waste_rolls_up_and_merges() {
        let mut a = Telemetry::enabled(100);
        a.record_obj_waste(ObjectId(7), 50);
        a.record_obj_waste(ObjectId(7), 25);
        a.record_obj_waste(ObjectId(3), 10);
        let ra = a.take(SimTime(1), &NodeMetrics::default(), Gauges::default());
        assert_eq!(
            ra.objects,
            vec![
                ObjWaste {
                    oid: ObjectId(3),
                    aborts: 1,
                    wasted_ns: 10
                },
                ObjWaste {
                    oid: ObjectId(7),
                    aborts: 2,
                    wasted_ns: 75
                },
            ]
        );
        let mut b = Telemetry::enabled(100);
        b.record_obj_waste(ObjectId(7), 5);
        let rb = b.take(SimTime(1), &NodeMetrics::default(), Gauges::default());
        let merged = merge_object_waste(&[ra, rb]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[1].oid, ObjectId(7));
        assert_eq!(merged[1].aborts, 3);
        assert_eq!(merged[1].wasted_ns, 80);

        // Disabled sampler ignores rollup calls entirely.
        let mut off = Telemetry::disabled();
        off.record_obj_waste(ObjectId(1), 99);
        assert!(off.objects.is_empty());
    }

    #[test]
    fn epoch_series_merges_across_nodes() {
        let mk = |epoch, commits, in_flight| EpochSample {
            epoch,
            commits,
            in_flight,
            ..EpochSample::default()
        };
        let a = TelemetryReport {
            epochs: vec![mk(0, 2, 1), mk(1, 1, 0)],
            ..TelemetryReport::default()
        };
        let b = TelemetryReport {
            epochs: vec![mk(0, 3, 2), mk(2, 4, 1)],
            ..TelemetryReport::default()
        };
        let merged = merge_epoch_series(&[a, b]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].commits, 5);
        assert_eq!(merged[0].in_flight, 3);
        assert_eq!(merged[1].commits, 1);
        assert_eq!(merged[2].commits, 4);
        assert!(merge_epoch_series(&[]).is_empty());
    }
}
