//! # dstm-harness — experiment sweeps for the paper reproduction
//!
//! [`experiments`] holds one module per experiment of the paper's evaluation
//! (§IV): Table I, Figs. 2–6, the §III-D analysis and the ablations. Which
//! call produces which `paper_results/` file is listed once, in
//! `dstm-bench`'s `ARTIFACTS` table (`cargo bench -p dstm-bench`
//! regenerates them all).
//!
//! The [`runner`] executes independent simulation cells on a small
//! scoped-thread worker pool (cells are single-threaded and deterministic, so
//! the sweep is embarrassingly parallel), and [`table`] renders aligned
//! text tables the way the paper prints them.

//! Protocol traces recorded by a run (`Cell::with_trace` /
//! [`runner::run_cell_traced`]) are exported and audited by [`traceio`];
//! the `dstm-trace` binary wraps those audits for the command line.

pub mod experiments;
pub mod runner;
pub mod table;
pub mod traceio;

pub use runner::{
    run_cell, run_cell_telemetry, run_cell_traced, run_cells, Cell, CellResult, TopologySpec,
};
pub use table::{SeriesTable, TextTable};
pub use traceio::{
    analyze, audit, to_chrome_trace, AnalyzeReport, AuditReport, DEFAULT_ANALYZE_EPOCH_NS,
};
