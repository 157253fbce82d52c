//! The counting allocator the allocation guards measure with.
//!
//! A test binary that declares `mod common;` installs it as its global
//! allocator: the system allocator wrapped with three relaxed atomics —
//! allocator calls, live bytes and peak live bytes. The guards
//! (`hotpath_alloc`, `generate_alloc`, `metrics_alloc`,
//! `trace_codec_alloc`) reset the counters around a fixed run and pin the
//! allocator calls it makes (and, for generated workloads and finished
//! runs' metrics, the bytes they keep), turning "steady-state event
//! handling allocates (almost) nothing" from a claim into a checked number.
//!
//! Only those binaries pay for the wrapper; the library, the tools and
//! every other test run on the plain system allocator. The counters are
//! process-global, so each binary holds one test.
#![allow(dead_code)] // each guard uses the probes it needs

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// System allocator wrapped with relaxed counters.
struct CountingAlloc;

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

/// Zero the allocation count and restart peak tracking from the current
/// live size.
///
/// Counters are exact under concurrency: every allocation on every thread
/// is an atomic increment, and live bytes never drift because `CURRENT` is
/// never zeroed, so a free after a reset subtracts exactly what its
/// allocation added. The one sharp edge is *attribution*: resetting while
/// other threads are mid-run credits their in-flight allocations to the
/// new window.
pub fn reset() {
    ALLOCS.store(0, Relaxed);
    PEAK.store(CURRENT.load(Relaxed), Relaxed);
}

/// Counters since the last [`reset`]: `(allocations, peak_live_bytes)`.
pub fn snapshot() -> (u64, usize) {
    (ALLOCS.load(Relaxed), PEAK.load(Relaxed))
}

/// Bytes allocated and not yet freed, process-wide, counted from the first
/// allocation (never reset).
pub fn live_bytes() -> usize {
    CURRENT.load(Relaxed)
}

/// Panics unless the counters see one known allocation: a guard whose
/// allocator is not installed reads zeros and would pass vacuously.
pub fn assert_counting() {
    reset();
    let boxed = std::hint::black_box(Box::new(0u64));
    assert!(
        snapshot().0 >= 1,
        "a Box::new was not counted: the counting allocator is not installed"
    );
    drop(boxed);
}
