//! # hyflow-dstm — a dataflow D-STM substrate (HyFlow/TFA rebuilt in Rust)
//!
//! This crate implements the entire distributed software transactional
//! memory stack the paper's scheduler runs on, following Herlihy & Sun's
//! **dataflow model**: transactions are immobile, objects migrate to the
//! node of the committing writer, and a cache-coherence protocol locates the
//! single writable copy.
//!
//! The pieces:
//!
//! * [`object`] — versioned shared objects and their payloads;
//! * [`program`] — transactions as **resumable state machines**
//!   ([`program::TxProgram`]): benchmarks emit `Acquire` / `WriteLocal` /
//!   `Compute` / `OpenNested` / `CloseNested` / `Finish` steps and the
//!   executor drives them, which lets one deterministic event loop run
//!   thousands of concurrent transactions without threads;
//! * [`message`] — the wire protocol: object fetch with ETS + `myCL`
//!   (Algorithms 2–3), lock/validate/publish commit, version checks,
//!   ownership forwarding;
//! * [`tx`] — per-transaction runtime state: one access log under a stack
//!   of closed-nesting checkpoints (log length + program position) for
//!   partial rollback;
//! * [`node`] — the per-node TM proxy actor: object store, tombstone-chain
//!   cache coherence, the **TFA** protocol (node clocks, transactional
//!   forwarding, early validation), the commit protocol, and the
//!   owner-side conflict path that consults an `rts_core` scheduler;
//! * [`metrics`] — commit/abort accounting, including the nested-abort
//!   cause split that Table I reports;
//! * [`telemetry`] — time-resolved observability: the passive epoch
//!   sampler (off by default behind the same one-branch guard discipline
//!   as protocol tracing);
//! * [`config`] — knobs (scheduler kind, CL threshold, windows, estimates);
//! * [`system`] — builds a [`dstm_sim::World`] of nodes over a
//!   [`dstm_net::Topology`], seeds the workload, runs it, aggregates.
//!
//! ## Cache-coherence protocol
//!
//! Ownership moves at commit time (writer's node becomes the owner). Every
//! node caches a last-known owner per object (seeded with the initial
//! placement); a node that no longer owns an object keeps a **tombstone**
//! pointing at the node it published to and forwards requests along the
//! chain, which always terminates at the current owner (each hop is
//! strictly newer). Responses carry the current owner so caches heal. This
//! satisfies the paper's two CC requirements (§II): requests reach a valid
//! copy in finite time, and there is exactly one writable copy.

pub mod config;
pub mod message;
pub mod metrics;
pub mod node;
pub mod object;
pub mod program;
pub mod small;
pub mod system;
pub mod telemetry;
pub mod trace;
pub mod tx;

pub use config::{ConflictScope, DstmConfig, NestingMode, QueueBackend};
pub use message::{FetchReq, FetchResult, Msg, Timer};
pub use metrics::{
    AbortCause, HistSummary, NestedAbortCause, NodeCounters, NodeMetrics, RunHistograms, RunMetrics,
};
pub use node::Node;
pub use object::{CachedCopy, OwnedObject, Payload};
pub use program::{
    AccessMode, BoxedProgram, ProgramCheckpoint, ProgramSnapshot, StepInput, StepOutput, TxProgram,
};
pub use small::{Fnv64, ObjSet};
pub use system::{NodeEvent, PartitionStrategy, System, SystemBuilder, WorkloadSource};
pub use telemetry::{merge_epoch_series, EpochSample, TelemetryReport};
pub use trace::{
    ProtoEvent, ProtoTrace, RecordReader, RecordSpan, SchedLabel, TraceLog, TraceRecord,
    TraceRecords, Verdict,
};
pub use tx::TxRuntime;
