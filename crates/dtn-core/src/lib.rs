//! Core algorithms for cooperative caching in Disruption Tolerant Networks.
//!
//! This crate implements the mathematical machinery of *"Supporting
//! Cooperative Caching in Disruption Tolerant Networks"* (Gao, Cao, Iyengar,
//! Srivatsa — ICDCS 2011) as pure, simulator-independent algorithms:
//!
//! - [`hypoexp`] — delivery probability along a multi-hop opportunistic
//!   path (hypoexponential distribution, Eq. 1–2 of the paper),
//! - [`graph`] / [`path`] — the network contact graph and
//!   shortest-opportunistic-path search,
//! - [`ncl`] — the Network Central Location selection metric (Eq. 3),
//! - [`sigmoid`] — the probabilistic query-response function (Eq. 4),
//! - [`popularity`] — per-item data popularity estimation (Eq. 6),
//! - [`knapsack`] — the cache-replacement knapsack solver and the paper's
//!   probabilistic data selection (Algorithm 1),
//! - [`rate`] — online pairwise contact-rate estimation,
//! - [`par`] — deterministic order-preserving parallel map used by the
//!   NCL metric sweep and batched path searches,
//! - [`sys`] — process-level introspection (the shared VmHWM peak-RSS
//!   sampler behind bench reports and the city-scale progress line).
//!
//! # Example
//!
//! Select the two most central nodes of a small contact graph:
//!
//! ```
//! use dtn_core::graph::ContactGraph;
//! use dtn_core::ids::NodeId;
//! use dtn_core::ncl::{select_by_strategy, SelectionStrategy};
//!
//! let mut g = ContactGraph::new(4);
//! // node 0 contacts everyone often; the others contact only node 0.
//! g.set_rate(NodeId(0), NodeId(1), 1.0 / 3600.0);
//! g.set_rate(NodeId(0), NodeId(2), 1.0 / 3600.0);
//! g.set_rate(NodeId(0), NodeId(3), 1.0 / 7200.0);
//! g.set_rate(NodeId(1), NodeId(2), 1.0 / 86_400.0);
//!
//! let horizon = 6.0 * 3600.0; // T = 6 hours
//! let ncls = select_by_strategy(&g, 2, horizon, SelectionStrategy::PathMetric);
//! assert_eq!(ncls[0].node, NodeId(0));
//! ```

pub mod error;
pub mod graph;
pub mod hypoexp;
pub mod ids;
pub mod knapsack;
pub mod ncl;
pub mod par;
pub mod path;
pub mod popularity;
pub mod rate;
pub mod sigmoid;
pub mod sys;
pub mod time;
