//! Network Central Location (NCL) selection.
//!
//! Eq. (3) of the paper defines the selection metric of node `i` as
//!
//! ```text
//! C_i = 1/(N−1) · Σ_{j≠i} p_ij(T)
//! ```
//!
//! — the average probability that data reaches `i` from a random node
//! within `T`, where `p_ij(T)` is the weight of the best opportunistic
//! path between `i` and `j` ([`crate::path`]). The network administrator
//! picks the top `K` nodes by this metric as central nodes before any
//! data access happens (§IV-A).
//!
//! The top `K`, not all `N` scores: [`select_by_strategy`] and the
//! selections under it bound every node's metric from above (the nodes
//! its search could reach, times the weight of its fastest contact),
//! search the nodes in descending order of bound and stop when the
//! `K`-th best exact metric is strictly above every bound left
//! (`sweep.rs`). [`scoped_metrics`] / [`all_metrics`] search every node
//! and are what that selection is held equal to, bit for bit. Both run
//! the same per-node evaluator through the same fan-out
//! ([`crate::par`]'s workers, one search workspace each), and
//! [`SweepWork`] counts what a selection searched and what it skipped.
//! `community.rs` holds the partitions the community-scoped metric is
//! confined to and the label propagation that finds them.

use crate::graph::Topology;
use crate::ids::NodeId;
use crate::par::{self, map_slice};

mod community;
mod sweep;
#[cfg(test)]
mod tests;

use community::LABEL_PROPAGATION_ROUNDS;
pub use community::{label_propagation_communities, CommunityPartition};
pub use sweep::{scoped_metrics, select_central_nodes_scoped, SweepWork};

/// A node together with its NCL selection metric `C_i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CentralityScore {
    /// The scored node.
    pub node: NodeId,
    /// Its metric value `C_i ∈ [0, 1]`.
    pub metric: f64,
}

/// Computes `C_i` for every node of the graph.
///
/// Returns one [`CentralityScore`] per node, in node-id order:
/// [`scoped_metrics`] with every node in one community and no hop bound,
/// where "the paths inside `i`'s community" are all of Eq. 3's paths.
/// Contacts are symmetric, so `p_ij = p_ji` and one single-source search
/// from `i` covers every term of its sum; the per-node searches are
/// independent and run on all available hardware threads
/// ([`crate::par`]), in an order-preserving map. A graph of fewer than
/// two nodes, or a horizon that is not finite and positive, scores
/// every node 0.
pub fn all_metrics<G: Topology + Sync>(graph: &G, horizon: f64) -> Vec<CentralityScore> {
    let everyone = CommunityPartition::single(graph.node_count());
    scoped_metrics(graph, &everyone, horizon, None)
}

/// The best `k` of `scores`, best first: metric descending, ties broken
/// by ascending node id so that selection is deterministic. All of them
/// if there are fewer than `k`, none if `k == 0`.
fn top_k(mut scores: Vec<CentralityScore>, k: usize) -> Vec<CentralityScore> {
    scores.sort_by(|a, b| {
        b.metric
            .total_cmp(&a.metric)
            .then_with(|| a.node.cmp(&b.node))
    });
    scores.truncate(k);
    scores
}

/// Alternative central-node selection strategies, for comparing the
/// paper's probabilistic metric (Eq. 3) against simpler centralities.
///
/// The paper motivates its metric as "the average probability that data
/// can be transmitted from a random node to node i within time T";
/// cheaper proxies (degree, total contact rate) or a random pick make
/// natural baselines for an ablation of that design choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionStrategy {
    /// The paper's Eq. 3: average shortest-opportunistic-path weight.
    PathMetric,
    /// Number of distinct nodes ever met, normalised by `N − 1`.
    DegreeCentrality,
    /// Sum of adjacent contact rates (total meeting frequency).
    ContactFrequency,
    /// A deterministic pseudo-random pick (control baseline).
    Random {
        /// Seed of the deterministic shuffle.
        seed: u64,
    },
    /// The paper's Eq. 3, evaluated per community and merged: the graph
    /// is partitioned by weighted label propagation and the metric sweep
    /// runs inside each community only ([`select_central_nodes_scoped`]).
    /// Near-linear at city scale; identical to
    /// [`SelectionStrategy::PathMetric`] when the graph is one
    /// community.
    CommunityPathMetric {
        /// Hop bound of the per-community searches; `None` = unbounded.
        max_hops: Option<usize>,
    },
}

/// Selects the top `k` central nodes under the given strategy, best
/// first; ties are broken by ascending node id so that selection is
/// deterministic, and all the nodes are returned if there are fewer
/// than `k`. Under [`SelectionStrategy::PathMetric`] this is the best
/// `k` of [`all_metrics`], found without scoring every node.
///
/// The returned `metric` values are comparable only *within* one
/// strategy: path weights for [`SelectionStrategy::PathMetric`],
/// normalised degree for [`SelectionStrategy::DegreeCentrality`],
/// summed rates for [`SelectionStrategy::ContactFrequency`] and a
/// rank-derived placeholder for [`SelectionStrategy::Random`].
///
/// `k == 0` selects no nodes. On a graph of fewer than two nodes every
/// metric but the random placeholder is 0, and at a horizon that is not
/// finite and positive every path metric is.
///
/// # Example
///
/// ```
/// use dtn_core::graph::ContactGraph;
/// use dtn_core::ids::NodeId;
/// use dtn_core::ncl::{select_by_strategy, SelectionStrategy};
///
/// let mut g = ContactGraph::new(4);
/// g.set_rate(NodeId(2), NodeId(0), 0.01);
/// g.set_rate(NodeId(2), NodeId(1), 0.01);
/// g.set_rate(NodeId(2), NodeId(3), 0.01);
/// let top = select_by_strategy(&g, 1, 600.0, SelectionStrategy::DegreeCentrality);
/// assert_eq!(top[0].node, NodeId(2));
/// ```
pub fn select_by_strategy<G: Topology + Sync>(
    graph: &G,
    k: usize,
    horizon: f64,
    strategy: SelectionStrategy,
) -> Vec<CentralityScore> {
    select_by_strategy_counted(graph, k, horizon, strategy).0
}

/// [`select_by_strategy`] together with the path-search work the
/// selection did — all zero for the strategies that search no paths.
/// Its answers are [`select_by_strategy`]'s.
pub fn select_by_strategy_counted<G: Topology + Sync>(
    graph: &G,
    k: usize,
    horizon: f64,
    strategy: SelectionStrategy,
) -> (Vec<CentralityScore>, SweepWork) {
    let n = graph.node_count();
    let swept = |partition: &CommunityPartition, max_hops| {
        sweep::select_scoped_counted(graph, partition, k, horizon, max_hops, par::workers())
    };
    // Only the strategies that map a score over the nodes list them.
    let nodes = || (0..n as u32).map(NodeId).collect::<Vec<_>>();
    let scores: Vec<CentralityScore> = match strategy {
        SelectionStrategy::PathMetric => return swept(&CommunityPartition::single(n), None),
        SelectionStrategy::CommunityPathMetric { max_hops } => {
            let partition = label_propagation_communities(graph, LABEL_PROPAGATION_ROUNDS);
            return swept(&partition, max_hops);
        }
        SelectionStrategy::DegreeCentrality => map_slice(&nodes(), |&node| CentralityScore {
            node,
            metric: graph.degree(node) as f64 / (n.max(2) - 1) as f64,
        }),
        SelectionStrategy::ContactFrequency => map_slice(&nodes(), |&node| CentralityScore {
            node,
            metric: graph.neighbors(node).iter().map(|(_, r)| r).sum(),
        }),
        SelectionStrategy::Random { seed } => {
            // Deterministic rank via a splitmix-style hash of (seed, id).
            map_slice(&nodes(), |&node| {
                let mut x = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(u64::from(node.0));
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                CentralityScore {
                    node,
                    metric: (x % 1_000_000) as f64 / 1_000_000.0,
                }
            })
        }
    };
    (top_k(scores, k), SweepWork::default())
}

/// Re-assigns an elected central set onto the previous NCL slots with
/// minimal churn.
///
/// `ranked` is a fresh election result (best first, e.g. from
/// [`select_by_strategy`]); `previous` is the central node of each NCL
/// slot from the last election. A previous central node that is still
/// elected keeps its slot, so the NCLs it anchors see no churn; slots
/// whose central node dropped out receive the new entrants in rank
/// order. If the election returned fewer nodes than there are slots
/// (e.g. the graph shrank), leftover slots keep their previous central
/// node rather than going dark.
///
/// The returned vector always has `previous.len()` entries, so per-slot
/// scheme state (membership counters, load counters) stays valid across
/// re-elections.
///
/// # Example
///
/// ```
/// use dtn_core::ids::NodeId;
/// use dtn_core::ncl::{reassign_central_nodes, CentralityScore};
///
/// let previous = [NodeId(4), NodeId(7), NodeId(2)];
/// let ranked = [
///     CentralityScore { node: NodeId(2), metric: 0.9 },
///     CentralityScore { node: NodeId(5), metric: 0.8 },
///     CentralityScore { node: NodeId(4), metric: 0.7 },
/// ];
/// // 4 and 2 keep their slots; 7 dropped out, so its slot gets the
/// // best new entrant, 5.
/// assert_eq!(
///     reassign_central_nodes(&previous, &ranked),
///     vec![NodeId(4), NodeId(5), NodeId(2)]
/// );
/// ```
pub fn reassign_central_nodes(previous: &[NodeId], ranked: &[CentralityScore]) -> Vec<NodeId> {
    let elected: Vec<NodeId> = ranked.iter().take(previous.len()).map(|s| s.node).collect();
    let mut entrants = elected
        .iter()
        .copied()
        .filter(|n| !previous.contains(n))
        .collect::<Vec<_>>()
        .into_iter();
    previous
        .iter()
        .map(|&old| {
            if elected.contains(&old) {
                old
            } else {
                entrants.next().unwrap_or(old)
            }
        })
        .collect()
}

/// Skewness summary of a metric distribution, used to validate that the
/// contact pattern is heterogeneous enough for NCL selection (Fig. 4 of
/// the paper: "the metric values of a few nodes are much higher than
/// that of other nodes").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSkew {
    /// Highest metric value in the network.
    pub max: f64,
    /// Median metric value.
    pub median: f64,
    /// Mean metric value.
    pub mean: f64,
    /// `max / median` — the "up to tenfold" difference the paper reports.
    pub max_over_median: f64,
}

/// Summarises how skewed a set of metric values is.
///
/// # Panics
///
/// Panics if `scores` is empty.
pub fn metric_skew(scores: &[CentralityScore]) -> MetricSkew {
    assert!(!scores.is_empty(), "cannot summarise an empty metric set");
    let mut values: Vec<f64> = scores.iter().map(|s| s.metric).collect();
    values.sort_by(f64::total_cmp);
    let max = *values.last().expect("non-empty");
    let median = values[values.len() / 2];
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let max_over_median = if median > 0.0 {
        max / median
    } else {
        f64::INFINITY
    };
    MetricSkew {
        max,
        median,
        mean,
        max_over_median,
    }
}
