//! The owned-path reference search the unit tests compare against.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use super::OpportunisticPath;
use crate::graph::ContactGraph;
use crate::hypoexp;
use crate::ids::NodeId;

/// The original owned-path formulation of the search, kept as a reference
/// implementation: every relaxation clones the node and rate vectors of
/// the tentative path and re-evaluates the full hypoexponential CDF from
/// scratch. Returns the best path per destination (`None` when
/// unreachable; the source maps to its trivial path).
///
/// The unit tests assert that [`shortest_paths`](super::shortest_paths)
/// matches it exactly; it panics on the same invalid inputs.
pub(super) fn shortest_paths_naive(
    graph: &ContactGraph,
    source: NodeId,
    horizon: f64,
) -> Vec<Option<OpportunisticPath>> {
    assert!(
        horizon.is_finite() && horizon > 0.0,
        "horizon must be finite and positive, got {horizon}"
    );
    let n = graph.node_count();
    assert!(
        source.index() < n,
        "source n{source} out of range for graph of {n} nodes"
    );

    struct OwnedLabel {
        weight: f64,
        node: NodeId,
        path: OpportunisticPath,
    }
    impl PartialEq for OwnedLabel {
        fn eq(&self, other: &Self) -> bool {
            self.weight == other.weight && self.node == other.node
        }
    }
    impl Eq for OwnedLabel {}
    impl PartialOrd for OwnedLabel {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for OwnedLabel {
        fn cmp(&self, other: &Self) -> Ordering {
            self.weight
                .total_cmp(&other.weight)
                .then_with(|| other.node.cmp(&self.node))
        }
    }

    let mut settled = vec![false; n];
    let mut paths: Vec<Option<OpportunisticPath>> = vec![None; n];
    let mut best = vec![f64::NEG_INFINITY; n];
    let mut heap = BinaryHeap::new();
    heap.push(OwnedLabel {
        weight: 1.0,
        node: source,
        path: OpportunisticPath::new(vec![source], Vec::new()),
    });
    best[source.index()] = 1.0;

    while let Some(OwnedLabel { weight, node, path }) = heap.pop() {
        if settled[node.index()] {
            continue;
        }
        settled[node.index()] = true;
        for &(peer, rate) in graph.neighbors(node) {
            if settled[peer.index()] {
                continue;
            }
            let mut rates = path.rates().to_vec();
            rates.push(rate);
            let w = hypoexp::cdf(&rates, horizon);
            if w > best[peer.index()] {
                best[peer.index()] = w;
                let mut nodes = path.nodes().to_vec();
                nodes.push(peer);
                heap.push(OwnedLabel {
                    weight: w,
                    node: peer,
                    path: OpportunisticPath::new(nodes, rates),
                });
            }
        }
        paths[node.index()] = Some(path);
        let _ = weight;
    }

    paths
}
