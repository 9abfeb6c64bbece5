//! Community partitions and the label propagation that finds them.

use crate::graph::Topology;
use crate::ids::NodeId;

/// Rounds of weighted label propagation run by
/// [`SelectionStrategy::CommunityPathMetric`]. Label propagation almost
/// always converges in a handful of sweeps; the cap only guards against
/// oscillation on adversarial graphs.
pub(super) const LABEL_PROPAGATION_ROUNDS: usize = 16;

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
    pub(super) fn from_labels(labels: &[u32]) -> Self {
        let labels_used = labels.iter().max().map_or(0, |&max| max as usize + 1);
        let mut compact: Vec<u32> = vec![u32::MAX; labels_used];
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
    /// selection is exactly global selection. No nodes, no community.
    pub fn single(nodes: usize) -> Self {
        CommunityPartition {
            assignment: vec![0; nodes],
            count: nodes.min(1),
        }
    }

    /// The community of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub(super) fn community_of(&self, node: NodeId) -> u32 {
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
/// Deterministic: fixed sweep order and tie-breaks, no randomness. With
/// `max_rounds == 0` every node is a community of its own, and a graph
/// of no nodes has no community.
pub fn label_propagation_communities<G: Topology>(
    graph: &G,
    max_rounds: usize,
) -> CommunityPartition {
    let n = graph.node_count();
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
