//! # dstm-verify — deterministic-simulation fuzzing and small-model checking
//!
//! Two complementary verification prongs over the same simulator and
//! protocol stack the experiments run on (nothing is mocked):
//!
//! * [`episode`] + [`fuzz`](mod@fuzz) — **DST fuzzing**. Each episode is a full
//!   harness cell executed on a [`dstm_sim::PerturbQueue`], which bends
//!   message delays and delivery tiebreaks *within the space of
//!   realizable executions* according to an explicit, replayable
//!   [`dstm_sim::Schedule`]. After the run, the whole oracle battery is
//!   applied: liveness, single-writable-copy, cache freshness, node-local
//!   structural invariants, telemetry reconciliation, and the offline
//!   trace `audit`/`analyze` checks. Failing schedules shrink (ddmin-lite)
//!   to a minimal reproducer blob that `dstm-verify replay` re-executes
//!   bit-identically.
//!
//! * [`check`] — **exhaustive small-model checking**. A 3-node, 2-object,
//!   2-deep-nesting model explored breadth-first over all message/timer
//!   delivery interleavings (per-channel FIFO preserved), deduplicated by
//!   time-abstract protocol fingerprints, asserting safety at every state
//!   and progress at every quiescent state.
//!
//! The `dstm-verify` binary fronts both: `fuzz`, `check`, and `replay`
//! subcommands (see `--help`).

pub mod check;
pub mod episode;
pub mod fuzz;

pub use check::{build_model, check_model, check_model_with, CheckReport, ModelCfg};
pub use episode::{run_episode, run_episode_mutated, EpisodeOutcome, EpisodeSpec};
pub use fuzz::{
    fuzz, fuzz_mutated, generate_schedule, parse_reproducer, reproducer_text, shrink_schedule,
    FuzzConfig, FuzzFailure, FuzzReport,
};
