//! # dstm-net — network topologies and delay models
//!
//! The paper's testbed is a static message-passing network: *"Communication
//! delay between nodes is limited to a number between 1 and 50 msec to create
//! a static network"* (§IV-A), and the analysis of §III-D assumes nodes
//! *"scattered in a metric space"* where `d(ni, nj)` is the distance between
//! nodes.
//!
//! This crate provides that substrate:
//!
//! * [`Topology`] — an `n × n` static delay function with four generators:
//!   uniform random delays in a range (the experimental setup), its hashed
//!   O(1)-memory twin for large node counts, points in a 2-D plane (a true
//!   metric space, used by the analysis reproduction), and a constant-delay
//!   complete graph (the Fig. 2/3 scenarios);
//! * metric-space utilities used by the §III-D makespan analysis
//!   (nearest-neighbour tours, sums of distances, metricity checks).
//!
//! Delays are symmetric and zero on the diagonal (local calls are modelled
//! separately by the D-STM layer as local execution time).

pub mod topology;

pub use topology::Topology;
