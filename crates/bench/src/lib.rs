//! Experiment harnesses reproducing every table and figure of the paper's
//! evaluation, plus shared reporting utilities.
//!
//! Each experiment lives in [`experiments`] as a `run(quick: bool)` function
//! returning an [`ExperimentReport`]: the regenerated table/series plus
//! explicit paper-vs-measured checks, and, for a full run of the
//! experiments that record one, the [`Artifact`] (`BENCH_*.json`). The one
//! `bench` binary dispatches on [`experiments::EXPERIMENTS`]:
//!
//! ```text
//! cargo run --release -p edgecache-bench -- <name>|all [--quick] [--check]
//! cargo run --release -p edgecache-bench -- trace_dump [--out <path>]
//! ```
//!
//! A full run writes each artifact at the workspace root; `--check` writes
//! nothing and compares the fresh artifact with the committed file
//! ([`Artifact::check`]). `quick` mode shrinks workload sizes so the whole
//! suite runs in seconds (used by tests) and records nothing; full mode
//! matches the scales documented in DESIGN.md.

pub mod experiments;
pub mod report;
pub mod trace_dump;

pub use report::{Artifact, Check, ExperimentReport, TextTable};
