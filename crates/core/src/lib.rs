//! # rts-core — the Reactive Transactional Scheduler
//!
//! This crate is the paper's primary contribution, implemented as a pure
//! decision library so it can be unit- and property-tested independently of
//! the distributed machinery in `hyflow-dstm`:
//!
//! * [`ids`] — transaction / object / transaction-kind identifiers shared by
//!   the whole stack;
//! * [`ets`] — the **execution-time structure** carried in every object
//!   request: start, request, and expected-commit timestamps (§III-B);
//! * [`stats`] — the **transaction stats table** mapping transaction kinds to
//!   expected execution/commit times, used to pick backoffs, over a private
//!   Bloom-filter sketch of recent commit times (the paper cites Bloom [5]);
//! * [`cl`] — **contention level** (CL) accounting: local CL (requests per
//!   object over a recent window) and remote CL (carried as `myCL`);
//! * [`sched`] — the **scheduling table** of Algorithm 1: per-object
//!   requester queues with duplicate elimination and contention totals;
//! * [`fx`] — the in-tree FxHash-style hasher backing every protocol-layer
//!   map (small fixed-size id keys make SipHash pure overhead);
//! * [`policy`] — the conflict decision logic of Algorithms 2–4 behind the
//!   [`policy::ConflictPolicy`] trait, with the three schedulers evaluated in
//!   the paper: `TfaPolicy`, `BackoffPolicy`, and `RtsPolicy`;
//! * [`threshold`] — fixed and adaptive CL-threshold controllers (§III-B:
//!   "the CL's threshold is adaptively determined");
//! * [`analysis`] — executable forms of the §III-D makespan analysis
//!   (Lemmas 3.1–3.3, Theorem 3.4).

pub mod analysis;
mod bloom;
pub mod cl;
pub mod ets;
pub mod extensions;
pub mod fx;
pub mod ids;
pub mod policy;
pub mod sched;
pub mod stats;
pub mod threshold;

pub use cl::{ClAccounting, ObjectClWindow};
pub use ets::Ets;
pub use extensions::{AtsPolicy, QueueAllPolicy};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{ObjectId, TxId, TxKind};
pub use policy::{
    build_policy, explain_decision, BackoffPolicy, ConflictCtx, ConflictPolicy, Decision,
    DecisionExplain, RtsPolicy, SchedulerKind, TfaPolicy,
};
pub use sched::{Requester, RequesterList, SchedulingTable};
pub use stats::StatsTable;
pub use threshold::ThresholdController;
