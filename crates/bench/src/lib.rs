//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each table and single-series figure is a function returning
//! structured rows; each sweep figure is one [`figures::Figure`] that
//! runs, prints and writes itself. The `experiments` binary drives both. See DESIGN.md §4 for the
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
