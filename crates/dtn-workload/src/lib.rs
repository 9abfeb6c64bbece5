//! Workload generation for DTN caching experiments.
//!
//! Implements the experiment setup of §VI-A of the paper: probabilistic
//! periodic data generation (`p_G`, uniform lifetimes and sizes around
//! `T_L` / `s_avg`) and Zipf-distributed queries with a finite time
//! constraint. Produces [`dtn_sim::engine::WorkloadEvent`] lists ready to
//! feed into the simulator.
//!
//! # Example
//!
//! ```
//! use dtn_core::time::{Duration, Time};
//! use dtn_workload::{Workload, WorkloadConfig};
//!
//! let mut cfg = WorkloadConfig::new((Time(0), Time(86_400 * 4)));
//! cfg.mean_lifetime = Duration::hours(12);
//! cfg.mean_size = 1 << 20;
//! let w = Workload::generate(20, &cfg);
//! assert!(w.query_count() > 0);
//! ```

pub mod generator;
pub mod zipf;

pub use generator::{Workload, WorkloadConfig, WorkloadError};
pub use zipf::Zipf;
