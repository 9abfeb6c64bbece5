//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `figN_*` function returns structured rows; the `experiments`
//! binary formats them as text tables. See DESIGN.md §4 for the
//! experiment index and EXPERIMENTS.md for recorded results. What a run
//! costs is measured by the repo's one benchmark (`benchmark/`), not
//! here.

pub mod compare;
pub mod figures;
pub mod json;
pub mod observe;
pub mod regimes;
pub mod runner;
pub mod scale;
pub mod serve;
pub mod simcheck;

pub use runner::{averaged_run, averaged_sweep, AveragedReport, SweepPoint};
