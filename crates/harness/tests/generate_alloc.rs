//! Allocation guard for workload generation.
//!
//! Every node's transactions are generated before a run starts and live
//! until it ends, so what one pre-generated program costs is paid
//! `nodes × txns_per_node` times, in set-up time and in peak memory. A
//! program is one box plus one shared op list of its final length: two
//! allocator calls. This test pins that, per benchmark, at 1000 nodes × 10
//! transactions, plus the bytes each benchmark's program keeps: Bank and
//! Vacation are mostly script ops, so a wider op shows up there first, and
//! a data-structure program that grows shows up in `scale_1k`'s RSS (a
//! third of its programs are DHT's).
//!
//! Measured with the counting allocator of `common/`, which this binary
//! installs. One test per binary: the counters are global.

mod common;

use dstm_benchmarks::{Benchmark, WorkloadParams};

const NODES: usize = 1000;
const TXNS_PER_NODE: usize = 10;
const PROGRAMS: u64 = (NODES * TXNS_PER_NODE) as u64;

/// Allocator calls generation may make per program: the program's box and
/// its op list (3 for a script and 4 for a wrapped program while every op
/// list was built in a `Vec` and copied, and the wrapper boxed its inner
/// program separately).
const ALLOCS_PER_PROGRAM: u64 = 2;

/// Allocator calls generation may make per node beyond that: the node's
/// program queue, and slack for the object list and pool growth.
const ALLOCS_PER_NODE: u64 = 2;

/// Bytes a generated program may keep, counting its queue slot: exactly
/// what each keeps, as this test prints it (x86-64, debug and release
/// alike; generation is seeded, so the count repeats). A program that
/// grows by one byte fails; Bank and Vacation kept 945 and 691 B at
/// 56-byte script ops.
const BYTES_PER_PROGRAM: [(Benchmark, usize); 6] = [
    (Benchmark::Bank, 447),
    (Benchmark::Vacation, 338),
    (Benchmark::LinkedList, 218),
    (Benchmark::RbTree, 386),
    (Benchmark::Bst, 338),
    (Benchmark::Dht, 146),
];

/// The shape of a `scale_1k` cell: half the parents read-only.
fn params() -> WorkloadParams {
    WorkloadParams {
        nodes: NODES,
        txns_per_node: TXNS_PER_NODE,
        read_ratio: 0.5,
        ..WorkloadParams::default()
    }
}

/// `(allocator calls, bytes the programs keep)` of generating `benchmark`.
fn generation_cost(benchmark: Benchmark) -> (u64, usize) {
    common::reset();
    let workload = benchmark.generate(&params());
    let allocs = common::snapshot().0;
    assert_eq!(workload.programs.len(), NODES);
    let with_programs = common::live_bytes();
    drop(workload.programs);
    (allocs, with_programs - common::live_bytes())
}

#[test]
fn a_generated_program_is_one_box_and_one_op_list() {
    common::assert_counting();

    for benchmark in Benchmark::ALL {
        let (allocs, kept) = generation_cost(benchmark);
        println!(
            "{}: {allocs} allocator calls ({:.2} per program), {} B kept per program",
            benchmark.label(),
            allocs as f64 / PROGRAMS as f64,
            kept as u64 / PROGRAMS,
        );
        let bound = ALLOCS_PER_PROGRAM * PROGRAMS + ALLOCS_PER_NODE * NODES as u64;
        assert!(
            allocs <= bound,
            "{}: generation made {allocs} allocator calls (bound {bound}): \
             a program costs more than its box and its op list",
            benchmark.label()
        );
        let (_, bytes) = BYTES_PER_PROGRAM
            .iter()
            .find(|(b, _)| *b == benchmark)
            .expect("every benchmark has a byte bound");
        let per_program = kept / PROGRAMS as usize;
        assert!(
            per_program <= *bytes,
            "{}: {per_program} B kept per generated program (bound {bytes})",
            benchmark.label()
        );
    }
}
