//! The repo's end-to-end + per-layer benchmark (see `README.md` beside this
//! package and `BENCHMARK.json` at the repo root).

pub mod compare;
pub mod json;
pub mod layers;
pub mod measure;
pub mod spans;
pub mod timed;
pub mod workloads;
