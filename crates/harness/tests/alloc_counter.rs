//! The counting allocator of `common/` counts what it should: `Vec`
//! growth, and every allocation of many threads at once (a sweep's worker
//! pool allocates from several), with the peak seeing their simultaneously
//! live sum. One test per binary: the counters are global.

mod common;

#[test]
fn the_counters_are_exact_across_threads() {
    use std::sync::{Arc, Barrier};

    const THREADS: usize = 4;
    const PER_THREAD: usize = 256;
    const BLOCK: usize = 64 * 1024;

    common::reset();
    let v: Vec<u64> = (0..10_000).collect();
    let (allocs, peak) = common::snapshot();
    assert!(allocs > 0, "Vec growth not counted");
    assert!(peak >= v.len() * 8, "peak {peak} below live size");
    drop(v);

    common::reset();
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
    let (allocs, peak) = common::snapshot();
    assert!(
        allocs >= (THREADS * PER_THREAD) as u64,
        "lost increments: {allocs} counted, {} known allocations",
        THREADS * PER_THREAD
    );
    assert!(
        peak >= THREADS * BLOCK,
        "peak {peak} below the {} bytes simultaneously live",
        THREADS * BLOCK
    );
}
