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

use crate::graph::Topology;
use crate::ids::NodeId;
use crate::par::map_slice;
use crate::path::{bounded_shortest_paths, shortest_paths, ReachScratch};

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
/// ([`crate::par`]), in an order-preserving map.
///
/// # Panics
///
/// Panics if the graph has fewer than two nodes or `horizon` is invalid.
pub fn all_metrics<G: Topology + Sync>(graph: &G, horizon: f64) -> Vec<CentralityScore> {
    let everyone = CommunityPartition::single(graph.node_count());
    scoped_metrics(graph, &everyone, horizon, None)
}

/// The best `k` of `scores`, best first: metric descending, ties broken
/// by ascending node id so that selection is deterministic. All of them
/// if there are fewer than `k`.
///
/// # Panics
///
/// Panics if `k == 0`.
fn top_k(mut scores: Vec<CentralityScore>, k: usize) -> Vec<CentralityScore> {
    assert!(k > 0, "must select at least one central node");
    scores.sort_by(|a, b| {
        b.metric
            .total_cmp(&a.metric)
            .then_with(|| a.node.cmp(&b.node))
    });
    scores.truncate(k);
    scores
}

/// Selects the top `k` central nodes by metric value, best first.
///
/// Ties are broken by node id so that selection is deterministic. If the
/// graph has fewer than `k` nodes, all of them are returned.
///
/// # Panics
///
/// Panics if `k == 0`, the graph has fewer than two nodes, or `horizon`
/// is invalid.
///
/// # Example
///
/// ```
/// use dtn_core::graph::ContactGraph;
/// use dtn_core::ids::NodeId;
/// use dtn_core::ncl::select_central_nodes;
///
/// let mut g = ContactGraph::new(4);
/// g.set_rate(NodeId(2), NodeId(0), 0.01);
/// g.set_rate(NodeId(2), NodeId(1), 0.01);
/// g.set_rate(NodeId(2), NodeId(3), 0.01);
/// let top = select_central_nodes(&g, 1, 600.0);
/// assert_eq!(top[0].node, NodeId(2));
/// ```
pub fn select_central_nodes<G: Topology + Sync>(
    graph: &G,
    k: usize,
    horizon: f64,
) -> Vec<CentralityScore> {
    top_k(all_metrics(graph, horizon), k)
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

/// Selects the top `k` central nodes under the given strategy.
///
/// The returned `metric` values are comparable only *within* one
/// strategy: path weights for [`SelectionStrategy::PathMetric`],
/// normalised degree for [`SelectionStrategy::DegreeCentrality`],
/// summed rates for [`SelectionStrategy::ContactFrequency`] and a
/// rank-derived placeholder for [`SelectionStrategy::Random`].
///
/// # Panics
///
/// Panics if `k == 0`, the graph has fewer than two nodes, or
/// `horizon` is invalid for the path-metric strategy.
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
    let n = graph.node_count();
    assert!(n >= 2, "selection needs at least two nodes, got {n}");
    let nodes: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    let scores: Vec<CentralityScore> = match strategy {
        SelectionStrategy::PathMetric => return select_central_nodes(graph, k, horizon),
        SelectionStrategy::CommunityPathMetric { max_hops } => {
            let partition = label_propagation_communities(graph, LABEL_PROPAGATION_ROUNDS);
            return select_central_nodes_scoped(graph, &partition, k, horizon, max_hops);
        }
        SelectionStrategy::DegreeCentrality => map_slice(&nodes, |&node| CentralityScore {
            node,
            metric: graph.degree(node) as f64 / (n - 1) as f64,
        }),
        SelectionStrategy::ContactFrequency => map_slice(&nodes, |&node| CentralityScore {
            node,
            metric: graph.neighbors(node).iter().map(|(_, r)| r).sum(),
        }),
        SelectionStrategy::Random { seed } => {
            // Deterministic rank via a splitmix-style hash of (seed, id).
            map_slice(&nodes, |&node| {
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
    top_k(scores, k)
}

/// Rounds of weighted label propagation run by
/// [`SelectionStrategy::CommunityPathMetric`]. Label propagation almost
/// always converges in a handful of sweeps; the cap only guards against
/// oscillation on adversarial graphs.
const LABEL_PROPAGATION_ROUNDS: usize = 16;

/// A partition of the node set into communities `0..count`.
///
/// Produced by [`label_propagation_communities`] or by
/// [`CommunityPartition::single`] (everything in one community).
/// Community ids are compact and ordered by first appearance in node-id
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommunityPartition {
    /// `assignment[i]` = community of node `i`.
    assignment: Vec<u32>,
    /// Number of communities; every id in `0..count` is inhabited.
    count: usize,
}

impl CommunityPartition {
    /// Builds a partition from raw labels, compacting them to
    /// `0..count` in order of first appearance.
    ///
    /// # Panics
    ///
    /// Panics if `labels` is empty.
    fn from_labels(labels: &[u32]) -> Self {
        assert!(!labels.is_empty(), "a partition needs at least one node");
        let max_label = *labels.iter().max().expect("non-empty") as usize;
        let mut compact: Vec<u32> = vec![u32::MAX; max_label + 1];
        let mut assignment = Vec::with_capacity(labels.len());
        let mut count = 0u32;
        for &label in labels {
            let slot = &mut compact[label as usize];
            if *slot == u32::MAX {
                *slot = count;
                count += 1;
            }
            assignment.push(*slot);
        }
        CommunityPartition {
            assignment,
            count: count as usize,
        }
    }

    /// All `nodes` in one community — the partition under which scoped
    /// selection is exactly global selection.
    pub fn single(nodes: usize) -> Self {
        assert!(nodes > 0, "a partition needs at least one node");
        CommunityPartition {
            assignment: vec![0; nodes],
            count: 1,
        }
    }

    /// The community of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn community_of(&self, node: NodeId) -> u32 {
        self.assignment[node.index()]
    }

    /// Number of communities.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of nodes partitioned.
    pub fn node_count(&self) -> usize {
        self.assignment.len()
    }
}

/// Detects communities by weighted label propagation on the contact
/// graph.
///
/// Every node starts in its own community; sweeps in node-id order then
/// let each node adopt the label carrying the largest summed incident
/// contact rate among its neighbors (ties to the smallest label, updates
/// visible within the sweep). Terminates after `max_rounds` sweeps or as
/// soon as a sweep changes nothing. `O(rounds · E)` — this is what makes
/// community-scoped NCL selection near-linear where the global sweep is
/// `O(N · Dijkstra)`.
///
/// Deterministic: fixed sweep order and tie-breaks, no randomness.
///
/// # Panics
///
/// Panics if the graph has no nodes or `max_rounds == 0`.
pub fn label_propagation_communities<G: Topology>(
    graph: &G,
    max_rounds: usize,
) -> CommunityPartition {
    let n = graph.node_count();
    assert!(n > 0, "a partition needs at least one node");
    assert!(max_rounds > 0, "need at least one propagation round");
    let mut labels: Vec<u32> = (0..n as u32).collect();
    // Scratch: summed rate per candidate label, reset via touched list.
    let mut weight_of: Vec<f64> = vec![0.0; n];
    let mut touched: Vec<u32> = Vec::new();
    for _ in 0..max_rounds {
        let mut changed = false;
        for i in 0..n {
            let neighbors = graph.neighbors(NodeId(i as u32));
            if neighbors.is_empty() {
                continue;
            }
            for &(peer, rate) in neighbors {
                let label = labels[peer.index()];
                if weight_of[label as usize] == 0.0 {
                    touched.push(label);
                }
                weight_of[label as usize] += rate;
            }
            let mut best_label = labels[i];
            let mut best_weight = 0.0;
            for &label in &touched {
                let w = weight_of[label as usize];
                if w > best_weight || (w == best_weight && label < best_label) {
                    best_weight = w;
                    best_label = label;
                }
            }
            for &label in &touched {
                weight_of[label as usize] = 0.0;
            }
            touched.clear();
            if best_label != labels[i] {
                labels[i] = best_label;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    CommunityPartition::from_labels(&labels)
}

/// One community's induced subgraph in a flat, search-ready layout.
///
/// Local ids are positions in the ascending member list, and each local
/// adjacency list preserves the *original* neighbor order of the parent
/// graph (merely dropping non-members). With a single community this
/// makes the induced graph structurally identical to the parent — same
/// ids, same iteration order, same tie-breaks — which is what lets
/// [`all_metrics`] be this sweep over one community and still sum
/// Eq. 3 in the order its definition reads.
struct InducedCommunity {
    /// Ascending global ids of the members; index = local id.
    members: Vec<NodeId>,
    /// CSR offsets into `entries`, length `members.len() + 1`.
    offsets: Vec<u32>,
    /// `(local neighbor id, rate)` in the parent graph's neighbor order.
    entries: Vec<(NodeId, f64)>,
}

impl Topology for InducedCommunity {
    fn node_count(&self) -> usize {
        self.members.len()
    }

    fn neighbors(&self, node: NodeId) -> &[(NodeId, f64)] {
        let lo = self.offsets[node.index()] as usize;
        let hi = self.offsets[node.index() + 1] as usize;
        &self.entries[lo..hi]
    }
}

/// Computes the community-scoped NCL metric for every node, in node-id
/// order.
///
/// Node `i`'s score is `Σ_{j ∈ community(i), j≠i} p_ij(T) / (N−1)`:
/// the §IV metric with path search confined to `i`'s community, still
/// normalized by the global population so scores remain comparable
/// across communities when rankings are merged. With `max_hops` set,
/// each per-community search is additionally hop-bounded
/// ([`crate::path::bounded_shortest_paths`]).
///
/// # Panics
///
/// Panics if the graph has fewer than two nodes, the partition does not
/// cover exactly this graph's nodes, `horizon` is invalid, or
/// `max_hops == Some(0)`.
pub fn scoped_metrics<G: Topology + Sync>(
    graph: &G,
    partition: &CommunityPartition,
    horizon: f64,
    max_hops: Option<usize>,
) -> Vec<CentralityScore> {
    let n = graph.node_count();
    assert!(n >= 2, "the metric needs at least two nodes, got {n}");
    assert_eq!(
        partition.node_count(),
        n,
        "partition must cover exactly the graph's nodes"
    );

    let mut scores: Vec<CentralityScore> = (0..n as u32)
        .map(|i| CentralityScore {
            node: NodeId(i),
            metric: 0.0,
        })
        .collect();
    // Global-to-local id map, reused (and locally cleared) per community.
    let mut local_of: Vec<u32> = vec![u32::MAX; n];
    let norm = (n - 1) as f64;

    for community in 0..partition.count() as u32 {
        let members: Vec<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|&i| partition.community_of(i) == community)
            .collect();
        for (local, &member) in members.iter().enumerate() {
            local_of[member.index()] = local as u32;
        }
        let mut offsets: Vec<u32> = Vec::with_capacity(members.len() + 1);
        offsets.push(0);
        let mut entries: Vec<(NodeId, f64)> = Vec::new();
        for &member in &members {
            for &(peer, rate) in graph.neighbors(member) {
                let local = local_of[peer.index()];
                if local != u32::MAX {
                    entries.push((NodeId(local), rate));
                }
            }
            offsets.push(entries.len() as u32);
        }
        let induced = InducedCommunity {
            members,
            offsets,
            entries,
        };

        let locals: Vec<NodeId> = (0..induced.members.len() as u32).map(NodeId).collect();
        let metrics: Vec<f64> = match max_hops {
            None if induced.members.len() >= 2 => map_slice(&locals, |&local| {
                let table = shortest_paths(&induced, local, horizon);
                locals
                    .iter()
                    .filter(|&&j| j != local)
                    .map(|&j| table.weight_to(j))
                    .sum::<f64>()
                    / norm
            }),
            Some(bound) if induced.members.len() >= 2 => {
                let mut scratch = ReachScratch::new();
                locals
                    .iter()
                    .map(|&local| {
                        let reach =
                            bounded_shortest_paths(&induced, local, horizon, bound, &mut scratch);
                        reach
                            .entries()
                            .iter()
                            .filter(|&&(j, _)| j != local)
                            .map(|&(_, w)| w)
                            .sum::<f64>()
                            / norm
                    })
                    .collect()
            }
            // A one-node community reaches nobody: metric 0, and the
            // underlying searches would reject a one-node graph anyway.
            _ => vec![0.0; induced.members.len()],
        };
        for (local, &member) in induced.members.iter().enumerate() {
            scores[member.index()].metric = metrics[local];
            local_of[member.index()] = u32::MAX;
        }
    }
    scores
}

/// Selects the top `k` central nodes from community-scoped metrics,
/// merging the per-community rankings into one list (metric descending,
/// node id ascending). [`select_central_nodes`] is this selection with
/// `partition` = [`CommunityPartition::single`] and no hop bound.
///
/// # Panics
///
/// As [`scoped_metrics`], plus `k == 0`.
pub fn select_central_nodes_scoped<G: Topology + Sync>(
    graph: &G,
    partition: &CommunityPartition,
    k: usize,
    horizon: f64,
    max_hops: Option<usize>,
) -> Vec<CentralityScore> {
    top_k(scoped_metrics(graph, partition, horizon, max_hops), k)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ContactGraph;

    /// Star: node 0 in the middle.
    fn star(n: usize, rate: f64) -> ContactGraph {
        let mut g = ContactGraph::new(n);
        for i in 1..n as u32 {
            g.set_rate(NodeId(0), NodeId(i), rate);
        }
        g
    }

    #[test]
    fn star_center_is_most_central() {
        let g = star(6, 1e-3);
        let top = select_central_nodes(&g, 3, 3600.0);
        assert_eq!(top[0].node, NodeId(0));
        assert!(top[0].metric > top[1].metric);
    }

    #[test]
    fn metric_is_a_probability() {
        let g = star(5, 1e-3);
        for s in all_metrics(&g, 3600.0) {
            assert!((0.0..=1.0).contains(&s.metric), "{s:?}");
        }
    }

    #[test]
    fn isolated_node_has_zero_metric() {
        let mut g = ContactGraph::new(3);
        g.set_rate(NodeId(0), NodeId(1), 1e-3);
        assert_eq!(all_metrics(&g, 3600.0)[2].metric, 0.0);
    }

    #[test]
    fn metric_grows_with_horizon() {
        let g = star(5, 1e-4);
        let short = all_metrics(&g, 600.0)[0].metric;
        let long = all_metrics(&g, 86_400.0)[0].metric;
        assert!(long > short);
    }

    #[test]
    fn select_is_deterministic_under_ties() {
        // Symmetric triangle: all metrics equal; expect id order.
        let mut g = ContactGraph::new(3);
        g.set_rate(NodeId(0), NodeId(1), 1e-3);
        g.set_rate(NodeId(1), NodeId(2), 1e-3);
        g.set_rate(NodeId(0), NodeId(2), 1e-3);
        let top = select_central_nodes(&g, 2, 3600.0);
        assert_eq!(top[0].node, NodeId(0));
        assert_eq!(top[1].node, NodeId(1));
    }

    #[test]
    fn truncates_to_available_nodes() {
        let g = star(3, 1e-3);
        let top = select_central_nodes(&g, 10, 3600.0);
        assert_eq!(top.len(), 3);
    }

    #[test]
    fn skew_of_star_is_large() {
        let g = star(8, 1e-3);
        let skew = metric_skew(&all_metrics(&g, 600.0));
        assert!(skew.max_over_median > 1.2, "{skew:?}");
        assert!(skew.max >= skew.mean);
        assert!(skew.mean >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_k_panics() {
        let g = star(3, 1e-3);
        let _ = select_central_nodes(&g, 0, 600.0);
    }

    #[test]
    fn degree_strategy_picks_hub() {
        let g = star(6, 1e-3);
        let top = select_by_strategy(&g, 2, 600.0, SelectionStrategy::DegreeCentrality);
        assert_eq!(top[0].node, NodeId(0));
        assert!((top[0].metric - 1.0).abs() < 1e-12, "hub meets everyone");
        assert!(
            (top[1].metric - 0.2).abs() < 1e-12,
            "leaves meet one of five"
        );
    }

    #[test]
    fn frequency_strategy_weights_rates() {
        // Node 1 has one very fast edge; node 2 has two slow ones.
        let mut g = ContactGraph::new(4);
        g.set_rate(NodeId(1), NodeId(0), 1.0);
        g.set_rate(NodeId(2), NodeId(0), 0.1);
        g.set_rate(NodeId(2), NodeId(3), 0.1);
        let top = select_by_strategy(&g, 2, 600.0, SelectionStrategy::ContactFrequency);
        // node 0 sums 1.1, node 1 sums 1.0
        assert_eq!(top[0].node, NodeId(0));
        assert_eq!(top[1].node, NodeId(1));
    }

    #[test]
    fn random_strategy_is_deterministic_and_seed_sensitive() {
        let g = star(8, 1e-3);
        let a = select_by_strategy(&g, 3, 600.0, SelectionStrategy::Random { seed: 1 });
        let b = select_by_strategy(&g, 3, 600.0, SelectionStrategy::Random { seed: 1 });
        assert_eq!(a, b);
        let c = select_by_strategy(&g, 3, 600.0, SelectionStrategy::Random { seed: 2 });
        let a_nodes: Vec<_> = a.iter().map(|s| s.node).collect();
        let c_nodes: Vec<_> = c.iter().map(|s| s.node).collect();
        assert_ne!(a_nodes, c_nodes, "different seeds pick differently");
    }

    #[test]
    fn path_metric_strategy_delegates() {
        let g = star(6, 1e-3);
        let via_strategy = select_by_strategy(&g, 2, 3600.0, SelectionStrategy::PathMetric);
        let direct = select_central_nodes(&g, 2, 3600.0);
        assert_eq!(via_strategy, direct);
    }

    #[test]
    fn reassign_keeps_unchanged_set_in_place() {
        let previous = [NodeId(3), NodeId(1), NodeId(9)];
        // Same membership, different rank order: no slot moves.
        let ranked = [
            CentralityScore {
                node: NodeId(9),
                metric: 0.9,
            },
            CentralityScore {
                node: NodeId(3),
                metric: 0.5,
            },
            CentralityScore {
                node: NodeId(1),
                metric: 0.4,
            },
        ];
        assert_eq!(reassign_central_nodes(&previous, &ranked), previous);
    }

    #[test]
    fn reassign_fills_vacated_slots_in_rank_order() {
        let previous = [NodeId(0), NodeId(1), NodeId(2)];
        let ranked = [
            CentralityScore {
                node: NodeId(5),
                metric: 0.9,
            },
            CentralityScore {
                node: NodeId(1),
                metric: 0.8,
            },
            CentralityScore {
                node: NodeId(6),
                metric: 0.7,
            },
        ];
        // Slots 0 and 2 vacated; best entrant 5 goes to the first
        // vacated slot, 6 to the second.
        assert_eq!(
            reassign_central_nodes(&previous, &ranked),
            vec![NodeId(5), NodeId(1), NodeId(6)]
        );
    }

    #[test]
    fn reassign_short_election_keeps_old_centrals() {
        let previous = [NodeId(0), NodeId(1), NodeId(2)];
        let ranked = [CentralityScore {
            node: NodeId(7),
            metric: 0.9,
        }];
        // Only one node elected: it replaces the first vacated slot,
        // the others keep their previous central node.
        assert_eq!(
            reassign_central_nodes(&previous, &ranked),
            vec![NodeId(7), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn reassign_ignores_ranked_overflow_beyond_slot_count() {
        let previous = [NodeId(0)];
        let ranked = [
            CentralityScore {
                node: NodeId(4),
                metric: 0.9,
            },
            CentralityScore {
                node: NodeId(0),
                metric: 0.8,
            },
        ];
        // Only the top-1 of the election counts for a 1-slot set.
        assert_eq!(reassign_central_nodes(&previous, &ranked), vec![NodeId(4)]);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn single_node_graph_panics() {
        let g = ContactGraph::new(1);
        let _ = all_metrics(&g, 600.0);
    }

    /// Two star communities bridged by one weak edge.
    fn two_stars() -> ContactGraph {
        let mut g = ContactGraph::new(10);
        for i in 1..5u32 {
            g.set_rate(NodeId(0), NodeId(i), 1e-2);
        }
        for i in 6..10u32 {
            g.set_rate(NodeId(5), NodeId(i), 1e-2);
        }
        g.set_rate(NodeId(4), NodeId(9), 1e-6);
        g
    }

    #[test]
    fn label_propagation_finds_the_two_stars() {
        let g = two_stars();
        let p = label_propagation_communities(&g, LABEL_PROPAGATION_ROUNDS);
        assert_eq!(p.node_count(), 10);
        assert_eq!(p.count(), 2, "expected the two stars, got {p:?}");
        for i in 1..5u32 {
            assert_eq!(p.community_of(NodeId(i)), p.community_of(NodeId(0)));
        }
        for i in 6..10u32 {
            assert_eq!(p.community_of(NodeId(i)), p.community_of(NodeId(5)));
        }
        assert_ne!(p.community_of(NodeId(0)), p.community_of(NodeId(5)));
        // Deterministic.
        assert_eq!(
            p,
            label_propagation_communities(&g, LABEL_PROPAGATION_ROUNDS)
        );
    }

    #[test]
    fn label_propagation_keeps_isolated_nodes_apart() {
        let mut g = ContactGraph::new(4);
        g.set_rate(NodeId(0), NodeId(1), 1e-2);
        let p = label_propagation_communities(&g, 8);
        assert_eq!(p.community_of(NodeId(0)), p.community_of(NodeId(1)));
        assert_ne!(p.community_of(NodeId(2)), p.community_of(NodeId(0)));
        assert_ne!(p.community_of(NodeId(2)), p.community_of(NodeId(3)));
        assert_eq!(p.count(), 3);
    }

    /// Eq. 3 as the paper writes it: the mean, over the other `N − 1`
    /// nodes in id order, of the best path weight from `i`.
    fn eq3<G: Topology>(graph: &G, i: NodeId, horizon: f64) -> f64 {
        let table = crate::path::shortest_paths(graph, i, horizon);
        let others = (0..graph.node_count() as u32).map(NodeId);
        let sum: f64 = others.filter(|&j| j != i).map(|j| table.weight_to(j)).sum();
        sum / (graph.node_count() - 1) as f64
    }

    #[test]
    fn metrics_equal_the_eq3_definition() {
        // Exact ties among the leaves of two bridged stars, the smallest
        // graph the metric is defined on, and one whose nodes never met.
        // (`tests/streaming_equivalence.rs` repeats this on random graphs,
        // on CSR storage and through every selection entry point.)
        let mut pair = ContactGraph::new(2);
        pair.set_rate(NodeId(0), NodeId(1), 2e-4);
        for g in [two_stars(), pair, ContactGraph::new(2)] {
            for score in all_metrics(&g, 3600.0) {
                let metric = eq3(&g, score.node, 3600.0);
                assert_eq!(score.metric.to_bits(), metric.to_bits(), "{score:?}");
            }
        }
    }

    #[test]
    fn scoped_selection_elects_a_hub_per_community() {
        let g = two_stars();
        let p = label_propagation_communities(&g, LABEL_PROPAGATION_ROUNDS);
        let top = select_central_nodes_scoped(&g, &p, 2, 3600.0, None);
        let mut nodes: Vec<u32> = top.iter().map(|s| s.node.0).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 5], "one hub per star");
    }

    #[test]
    fn scoped_metric_ignores_cross_community_paths() {
        let g = two_stars();
        let p = label_propagation_communities(&g, LABEL_PROPAGATION_ROUNDS);
        let scoped = scoped_metrics(&g, &p, 3600.0, None);
        let global = all_metrics(&g, 3600.0);
        // Scoped scores drop the (weak) cross-community contribution, so
        // they can only be lower, and hubs stay clearly ahead of leaves.
        for (s, g_) in scoped.iter().zip(&global) {
            assert_eq!(s.node, g_.node);
            assert!(s.metric <= g_.metric + 1e-12);
        }
        assert!(scoped[0].metric > scoped[1].metric);
    }

    #[test]
    fn scoped_hop_bound_matches_unbounded_within_star_diameter() {
        let g = two_stars();
        let p = label_propagation_communities(&g, LABEL_PROPAGATION_ROUNDS);
        let unbounded = scoped_metrics(&g, &p, 3600.0, None);
        let bounded = scoped_metrics(&g, &p, 3600.0, Some(8));
        for (u, b) in unbounded.iter().zip(&bounded) {
            assert_eq!(u.node, b.node);
            assert!((u.metric - b.metric).abs() < 1e-15, "{u:?} vs {b:?}");
        }
        let one_hop = scoped_metrics(&g, &p, 3600.0, Some(1));
        // Leaves only reach the hub directly; their 1-hop score shrinks.
        assert!(one_hop[1].metric < unbounded[1].metric);
    }

    #[test]
    fn community_strategy_delegates_to_scoped_selection() {
        let g = two_stars();
        let via = select_by_strategy(
            &g,
            2,
            3600.0,
            SelectionStrategy::CommunityPathMetric { max_hops: None },
        );
        let p = label_propagation_communities(&g, LABEL_PROPAGATION_ROUNDS);
        let direct = select_central_nodes_scoped(&g, &p, 2, 3600.0, None);
        assert_eq!(via, direct);
    }

    #[test]
    fn from_labels_compacts_by_first_appearance() {
        let p = CommunityPartition::from_labels(&[7, 7, 2, 7, 2, 0]);
        assert_eq!(p.count(), 3);
        assert_eq!(
            (0..6)
                .map(|i| p.community_of(NodeId(i)))
                .collect::<Vec<_>>(),
            vec![0, 0, 1, 0, 1, 2]
        );
    }

    #[test]
    fn singleton_communities_score_zero() {
        let mut g = ContactGraph::new(3);
        g.set_rate(NodeId(0), NodeId(1), 1e-2);
        // Put every node in its own community: nobody reaches anybody.
        let p = CommunityPartition::from_labels(&[0, 1, 2]);
        let scores = scoped_metrics(&g, &p, 3600.0, None);
        assert!(scores.iter().all(|s| s.metric == 0.0));
    }

    #[test]
    #[should_panic(expected = "partition must cover")]
    fn partition_size_mismatch_panics() {
        let g = star(4, 1e-3);
        let p = CommunityPartition::single(3);
        let _ = scoped_metrics(&g, &p, 600.0, None);
    }
}
