//! # dstm-benchmarks — the six distributed applications of §IV-A
//!
//! *"We developed a set of six distributed applications as benchmarks.
//! These include distributed versions of the Vacation benchmark of the
//! STAMP benchmark suite, Bank as a monetary application, and four
//! distributed data structures including Linked-List (LL), Binary-Search
//! Tree (BST), Red/Black Tree (RB-Tree), and Distributed Hash Table (DHT)
//! as microbenchmarks."*
//!
//! Every benchmark produces a [`hyflow_dstm::WorkloadSource`]: the initial
//! shared objects (placed at their hash-homed nodes — *"five to ten shared
//! objects are used at each node"*) and per-node queues of transaction
//! programs. Contention is controlled by the read ratio (*"low and high
//! contention, defined as 90% and 10% read transactions"*), and every
//! parent transaction runs a random number of closed-nested children
//! (*"the number of nested transactions per transaction are randomly
//! decided"*).
//!
//! Structure-modifying benchmarks allocate new nodes from **pre-provisioned
//! per-node pools** guarded by a pool-counter object: object creation in the
//! dataflow D-STM would need a registration protocol, whereas a counter
//! fetch-and-increment reuses the ordinary transactional path and behaves
//! like a (contended) allocator.

pub mod bank;
pub mod bst;
pub mod dht;
pub mod list;
pub mod params;
pub mod rbtree;
pub mod suite;
pub mod vacation;

pub use params::WorkloadParams;
pub use suite::Benchmark;

use hyflow_dstm::program::ProgramCheckpoint;

/// The checkpoint of a program that runs a list of operations, one
/// closed-nested child each (the four data structures): the index of the
/// current operation and whether its `OpenNested` is out. Such a program is
/// at a level boundary — the only place it is asked — in those two states
/// alone, and what an operation accumulates it resets when the next opens.
fn op_checkpoint(op_idx: usize, opened: bool) -> ProgramCheckpoint {
    ProgramCheckpoint {
        pc: op_idx as u64,
        regs: [i64::from(opened), 0, 0],
    }
}

/// `(op_idx, opened)` of an [`op_checkpoint`].
fn op_position(at: &ProgramCheckpoint) -> (usize, bool) {
    (at.pc as usize, at.regs[0] != 0)
}
