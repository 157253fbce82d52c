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
//! Bank and Vacation are scripts ([`hyflow_dstm::program::ScriptProgram`]).
//! The four data structures run one program, [`OpLoop`]: one closed-nested
//! child per operation, then a top-level access to a summary object
//! (Fig. 1's shape). Each structure supplies only an [`OpMachine`], the
//! steps of one operation inside its child.
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
pub mod op_loop;
pub mod params;
pub mod rbtree;
pub mod suite;
pub mod vacation;

pub use op_loop::{OpLoop, OpMachine};
pub use params::WorkloadParams;
pub use suite::Benchmark;
