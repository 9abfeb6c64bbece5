//! Opportunistic paths and shortest-opportunistic-path search.
//!
//! Definition 1 of the paper: an *r-hop opportunistic path* between nodes
//! `A` and `B` is a simple path on the contact graph whose weight is the
//! probability `p_AB(T)` that data traverses it within time `T`
//! (hypoexponential CDF, [`crate::hypoexp`]). The "distance" between two
//! nodes is the weight of their *best* path — the one maximising `p_AB(T)`.
//!
//! [`shortest_paths`] computes the best path from one source to every
//! other node with a label-setting (Dijkstra-style) search. Label-setting
//! is exact here because extending a path by one hop adds an independent
//! positive delay, so the weight of any extension is **never larger** than
//! the weight of its prefix — the same monotonicity Dijkstra's algorithm
//! requires.
//!
//! One concept per file: `search.rs` holds the one label-setting loop
//! and the public searches that run it, `scratch.rs` the workspace it
//! runs through, `table.rs` and `reach.rs` what a search returns,
//! `naive.rs` the test-only owned-path reference the unit tests use;
//! this file holds [`OpportunisticPath`] and re-exports the rest.
//!
//! There is one search loop. It is allocation-free on its hot path: a
//! heap key is `(weight, node)` packed into one integer, the route tree
//! lives in predecessor arrays of an epoch-stamped [`ReachScratch`], and
//! each relaxation evaluates the candidate weight by extending the
//! settled node's cached CDF accumulator ([`crate::hypoexp`]) — `O(r)`
//! multiply-adds, the new stage's exponentials read from the scratch's
//! per-rate cache, without materialising the extended path. An
//! accumulator is built only for a settled node that goes on to relax
//! its edges (by extending its parent's, into a buffer recycled from the
//! previous search); a node settled at the hop
//! bound keeps its weight and nothing else. Three extractors read the
//! settled set out of the scratch: the dense, route-carrying
//! [`PathTable`] ([`shortest_paths`], [`shortest_paths_until_in`], and
//! [`shortest_paths_batch`], which runs many such searches over the
//! workers and refills caller-owned tables in place), the
//! sparse [`SparseReach`] ([`bounded_shortest_paths`], the same loop
//! under a hop bound) and the [`LazyReach`] ([`bounded_reach`], the
//! bounded loop kept inside the ball of radius `max_hops − 1`, with the
//! leaves beyond it weighed when a read asks for one). Concrete
//! [`OpportunisticPath`] values are reconstructed lazily by
//! [`PathTable::path_to`].
//!
//! Nodes settle in decreasing weight order and a settled weight is
//! final, so a caller that only needs the weights to a few targets (the
//! paper's nodes keep paths *to the K central nodes*, §IV Eq. 3) can stop
//! the same loop as soon as the last target settles:
//! [`shortest_paths_until_in`] returns a *partial* [`PathTable`] whose
//! settled entries carry exactly the bits the exhaustive search would
//! have produced. The search is greedy from the source — a path's weight
//! is not a sum of per-edge terms, so the tree rooted at a destination is
//! not the reverse of the trees rooted at its sources — which is why the
//! exact shortcut is "stop early", not "search from the target".

use crate::hypoexp;
use crate::ids::NodeId;

#[cfg(test)]
mod naive;
mod reach;
mod scratch;
mod search;
mod table;
#[cfg(test)]
mod tests;

pub use reach::{LazyReach, SparseReach};
pub use scratch::ReachScratch;
pub use search::{
    bounded_reach, bounded_shortest_paths, shortest_paths, shortest_paths_batch,
    shortest_paths_until_in,
};
pub use table::PathTable;

/// A concrete opportunistic path: the visited nodes and per-hop contact
/// rates.
///
/// # Example
///
/// ```
/// use dtn_core::ids::NodeId;
/// use dtn_core::path::OpportunisticPath;
///
/// let p = OpportunisticPath::new(vec![NodeId(0), NodeId(3)], vec![0.001]);
/// assert_eq!(p.hops(), 1);
/// assert!(p.weight(10_000.0) > 0.9999);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OpportunisticPath {
    nodes: Vec<NodeId>,
    rates: Vec<f64>,
}

impl OpportunisticPath {
    /// Creates a path from its node sequence and per-hop rates.
    ///
    /// # Panics
    ///
    /// Panics unless `nodes.len() == rates.len() + 1` and `nodes` is
    /// non-empty.
    pub fn new(nodes: Vec<NodeId>, rates: Vec<f64>) -> Self {
        assert!(!nodes.is_empty(), "a path visits at least one node");
        assert_eq!(
            nodes.len(),
            rates.len() + 1,
            "an r-hop path visits r+1 nodes"
        );
        OpportunisticPath { nodes, rates }
    }

    /// The node sequence `A, N₁, …, B`.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Per-hop contact rates `λ₁, …, λ_r`.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// First node of the path.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node of the path.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("paths are non-empty")
    }

    /// Number of hops `r`.
    pub fn hops(&self) -> usize {
        self.rates.len()
    }

    /// The path weight `p_AB(T)` — probability of traversal within
    /// `horizon` seconds (Eq. 2 of the paper).
    pub fn weight(&self, horizon: f64) -> f64 {
        hypoexp::cdf(&self.rates, horizon)
    }
}
