//! Heap-allocation counting for the allocation guard tests.
//!
//! Behind the `bench-alloc` feature this module installs a counting
//! [`GlobalAlloc`](std::alloc::GlobalAlloc) that wraps the system allocator with three relaxed
//! atomics: total allocation count, current live bytes, and peak live
//! bytes. The guard tests (`tests/hotpath_alloc.rs`, `generate_alloc.rs`,
//! `metrics_alloc.rs`, `trace_codec_alloc.rs`) reset the counters around a
//! fixed run and pin the allocator calls it makes (and, for generated
//! workloads and finished runs' metrics, the bytes they keep), turning
//! "steady-state event handling allocates (almost) nothing" from a claim
//! into a checked number.
//!
//! With the feature off every probe compiles to zeros and no allocator is
//! installed, so the default build's timings are untouched.

#[cfg(feature = "bench-alloc")]
mod imp {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static CURRENT: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    /// System allocator wrapped with relaxed counters.
    pub struct CountingAlloc;

    // SAFETY: defers all allocation to `System`; only adds atomic counting.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            let live = CURRENT.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            CURRENT.fetch_sub(layout.size(), Relaxed);
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                let live =
                    CURRENT.fetch_add(new_size - layout.size(), Relaxed) + new_size - layout.size();
                PEAK.fetch_max(live, Relaxed);
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Relaxed);
            }
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    pub fn reset() {
        ALLOCS.store(0, Relaxed);
        // Live bytes persist across resets (objects allocated before the
        // reset are still live); the peak restarts from the current level.
        PEAK.store(CURRENT.load(Relaxed), Relaxed);
    }

    pub fn allocs() -> u64 {
        ALLOCS.load(Relaxed)
    }

    pub fn peak_bytes() -> usize {
        PEAK.load(Relaxed)
    }

    pub fn live_bytes() -> usize {
        CURRENT.load(Relaxed)
    }
}

/// Whether the counting allocator is compiled in.
pub fn enabled() -> bool {
    cfg!(feature = "bench-alloc")
}

/// Zero the allocation count and restart peak tracking from the current
/// live size. No-op without `bench-alloc`.
///
/// Counters are process-global and exact under concurrency: every
/// allocation on every thread — worker-pool cells included — is an
/// atomic increment, and live-byte accounting never drifts because
/// `CURRENT` is monotone with respect to alloc/dealloc pairs (it is never
/// zeroed, so a cross-reset free subtracts exactly what its allocation
/// added). The one sharp edge is *attribution*: resetting while other
/// threads are mid-run credits their in-flight allocations to the new
/// window. Bracket whole pooled sweeps, or individual cells only on a
/// quiesced pool.
pub fn reset() {
    #[cfg(feature = "bench-alloc")]
    imp::reset();
}

/// Counters since the last [`reset`]: `(allocations, peak_live_bytes)`.
/// Zeros without `bench-alloc`.
pub fn snapshot() -> (u64, usize) {
    #[cfg(feature = "bench-alloc")]
    return (imp::allocs(), imp::peak_bytes());
    #[cfg(not(feature = "bench-alloc"))]
    (0, 0)
}

/// Bytes allocated and not yet freed, process-wide, counted from the first
/// allocation (never reset). Zero without `bench-alloc`.
pub fn live_bytes() -> usize {
    #[cfg(feature = "bench-alloc")]
    return imp::live_bytes();
    #[cfg(not(feature = "bench-alloc"))]
    0
}

#[cfg(all(test, feature = "bench-alloc"))]
mod tests {
    #[test]
    fn counts_vec_growth() {
        super::reset();
        let v: Vec<u64> = (0..10_000).collect();
        let (allocs, peak) = super::snapshot();
        assert!(allocs > 0, "Vec growth not counted");
        assert!(peak >= v.len() * 8, "peak {peak} below live size");
        drop(v);
    }

    /// Counters must stay exact when allocations come from many threads at
    /// once (the worker pool does this): no
    /// lost increments, and the peak must see the simultaneously-live sum.
    #[test]
    fn multithreaded_counts_are_exact() {
        use std::sync::{Arc, Barrier};

        const THREADS: usize = 4;
        const PER_THREAD: usize = 256;
        const BLOCK: usize = 64 * 1024;

        super::reset();
        let (base_allocs, _) = super::snapshot();
        let all_live = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let all_live = Arc::clone(&all_live);
                std::thread::spawn(move || {
                    // Churn: every iteration is one counted allocation.
                    for i in 0..PER_THREAD - 1 {
                        let v = vec![0u8; 1 + i % 13];
                        std::hint::black_box(&v);
                    }
                    // Hold one big block while every thread is live, so the
                    // true peak is at least THREADS * BLOCK.
                    let big = vec![0u8; BLOCK];
                    all_live.wait();
                    std::hint::black_box(&big);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (allocs, peak) = super::snapshot();
        assert!(
            allocs - base_allocs >= (THREADS * PER_THREAD) as u64,
            "lost increments: {} counted, {} known allocations",
            allocs - base_allocs,
            THREADS * PER_THREAD
        );
        assert!(
            peak >= THREADS * BLOCK,
            "peak {peak} below the {} bytes simultaneously live",
            THREADS * BLOCK
        );
    }
}
