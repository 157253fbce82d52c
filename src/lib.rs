//! # closed-nesting-dstm
//!
//! A from-scratch Rust reproduction of **"Scheduling Closed-Nested
//! Transactions in Distributed Transactional Memory"** (Kim & Ravindran,
//! IPDPS 2012): the **Reactive Transactional Scheduler (RTS)** and the
//! entire dataflow D-STM stack it runs on — a HyFlow-style framework with
//! the TFA protocol, closed nesting, a cache-coherence protocol with
//! migrating objects, the paper's six benchmarks, and a deterministic
//! discrete-event network simulator standing in for the original 80-node
//! testbed.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`sim`] (`dstm-sim`) | deterministic discrete-event kernel: virtual time, actor world, RNG streams |
//! | [`net`] (`dstm-net`) | metric-space topologies, 1–50 ms static delay matrices |
//! | [`hyflow`] (`hyflow-dstm`) | the D-STM substrate: versioned objects, ownership migration, TFA, closed nesting, transaction executor |
//! | [`rts`] (`rts-core`) | the paper's contribution: contention levels, scheduling table, conflict policies (TFA / TFA+Backoff / RTS), stats table, makespan analysis |
//! | [`benchmarks`] (`dstm-benchmarks`) | Vacation, Bank, Linked-List, BST, RB-Tree, DHT |
//! | [`harness`] (`dstm-harness`) | experiment sweeps regenerating every table and figure |
//!
//! ## Quickstart
//!
//! ```
//! use closed_nesting_dstm::prelude::*;
//!
//! // A 4-node system running the Bank benchmark under RTS.
//! let params = WorkloadParams { nodes: 4, txns_per_node: 5, ..Default::default() };
//! let mut rng = SimRng::new(42);
//! let topo = Topology::uniform_random(4, 1, 50, &mut rng);
//! let cfg = DstmConfig::default().with_scheduler(SchedulerKind::Rts);
//! let mut system = SystemBuilder::new(topo, cfg)
//!     .seed(42)
//!     .build(Benchmark::Bank.generate(&params));
//! let metrics = system.run_default();
//! assert!(system.all_done());
//! assert_eq!(metrics.merged.commits, 20);
//! ```

pub use dstm_benchmarks as benchmarks;
pub use dstm_harness as harness;
pub use dstm_net as net;
pub use dstm_sim as sim;
pub use hyflow_dstm as hyflow;
pub use rts_core as rts;

/// The most common imports for building and running systems.
pub mod prelude {
    pub use dstm_benchmarks::{Benchmark, WorkloadParams};
    pub use dstm_net::Topology;
    pub use dstm_sim::{SimDuration, SimRng, SimTime};
    pub use hyflow_dstm::{
        AccessMode, BoxedProgram, ConflictScope, DstmConfig, NestingMode, Payload,
        ProgramCheckpoint, RunMetrics, StepInput, StepOutput, System, SystemBuilder, TxProgram,
        WorkloadSource,
    };
    pub use rts_core::{ObjectId, SchedulerKind, TxId, TxKind};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_builds_a_system() {
        let params = WorkloadParams {
            nodes: 3,
            txns_per_node: 2,
            ..Default::default()
        };
        let mut rng = SimRng::new(1);
        let topo = Topology::uniform_random(3, 1, 10, &mut rng);
        let cfg = DstmConfig::default().with_scheduler(SchedulerKind::Tfa);
        let mut system = SystemBuilder::new(topo, cfg)
            .seed(1)
            .build(Benchmark::Dht.generate(&params));
        let m = system.run_default();
        assert!(system.all_done());
        assert_eq!(m.merged.commits, 6);
    }
}
