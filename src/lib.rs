//! # dtn-coop-cache
//!
//! A complete reproduction of *"Supporting Cooperative Caching in
//! Disruption Tolerant Networks"* (Gao, Cao, Iyengar, Srivatsa —
//! ICDCS 2011) as a Rust workspace. This facade crate re-exports the
//! public API of every member crate:
//!
//! - [`core`] — opportunistic-path math, NCL selection, popularity,
//!   knapsack replacement (pure algorithms),
//! - [`trace`] — contact traces: synthetic generators calibrated to the
//!   paper's Table I, statistics, CSV I/O,
//! - [`sim`] — a discrete-event DTN simulator with bandwidth-limited
//!   transfers and finite buffers,
//! - [`cache`] — the paper's intentional NCL caching scheme, the
//!   NoCache / RandomCache / CacheData / BundleCache baselines, and the
//!   FIFO / LRU / Greedy-Dual-Size / utility-knapsack replacement
//!   policies,
//! - [`workload`] — data-generation and Zipf query workloads (§VI-A).
//!
//! # Quickstart
//!
//! ```
//! use dtn_coop_cache::prelude::*;
//!
//! // A small synthetic conference trace (Infocom05-like, scaled down).
//! let trace = SyntheticTraceBuilder::new(20)
//!     .duration(Duration::days(1))
//!     .seed(7)
//!     .build();
//!
//! // Run the paper's intentional caching scheme over it.
//! let config = ExperimentConfig {
//!     ncl_count: 2,
//!     mean_data_lifetime: Duration::hours(6),
//!     mean_data_size: 10 << 20,
//!     ..ExperimentConfig::default()
//! };
//! let report = run_experiment(&trace, SchemeKind::Intentional, &config, 42);
//! assert!(report.queries_issued > 0);
//! ```

pub use dtn_cache as cache;
pub use dtn_core as core;
pub use dtn_sim as sim;
pub use dtn_trace as trace;
pub use dtn_workload as workload;

/// Convenient glob import for examples and experiments.
pub mod prelude {
    pub use dtn_cache::experiment::{run_experiment, ExperimentConfig, ExperimentReport};
    pub use dtn_cache::replacement::ReplacementKind;
    pub use dtn_cache::SchemeKind;
    pub use dtn_core::graph::ContactGraph;
    pub use dtn_core::ids::{DataId, NodeId, QueryId};
    pub use dtn_core::ncl::{select_by_strategy, SelectionStrategy};
    pub use dtn_core::time::{Duration, Time};
    pub use dtn_sim::overlay::{OverlayKind, OverlaySource, RegimeOverlay};
    pub use dtn_trace::process::ContactProcessKind;
    pub use dtn_trace::synthetic::SyntheticTraceBuilder;
    pub use dtn_trace::trace::ContactTrace;
    pub use dtn_trace::TracePreset;
}
