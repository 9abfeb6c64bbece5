//! Discrete-event simulator for Disruption Tolerant Networks.
//!
//! This crate provides the evaluation substrate of the paper (§VI-A): a
//! contact-trace-driven engine with bandwidth-limited transmission
//! (2.1 Mb/s Bluetooth EDR by default), finite per-node buffers, online
//! contact-rate estimation and query bookkeeping. Data-access protocols
//! plug in through the [`engine::Scheme`] trait; the paper's intentional
//! NCL caching scheme and its baselines live in the `dtn-cache` crate.
//!
//! # Example
//!
//! See [`engine::Simulator`] for a runnable end-to-end example.

pub mod audit;
pub mod buffer;
pub mod decision;
pub mod engine;
pub mod message;
pub mod metrics;
pub mod oracle;
pub mod overlay;
pub mod probe;
pub mod profiler;
pub mod telemetry;

pub use audit::{AuditLaw, AuditReport, AuditViolation};
pub use buffer::Buffer;
pub use decision::{DecisionPoint, PlacementDecision, RelayPlan, RouteDecision};
pub use engine::{
    megabits, CacheStats, DeliveryOutcome, Scheme, SimConfig, SimCtx, Simulator, WorkloadEvent,
};
pub use message::{DataItem, Query};
pub use metrics::Metrics;
pub use oracle::{OracleStats, PathOracle};
pub use overlay::{OverlayKind, OverlaySource, RegimeOverlay};
pub use probe::{
    DelayDecomposition, FieldValue, HopPhase, HopRecord, Probe, ProbeEvent, ProbeSink, QueryTrace,
    RecordingProbe,
};
pub use profiler::{Phase, ProfileEntry, ProfileReport, Profiler};
pub use telemetry::{Counter, Telemetry, WindowStats};
