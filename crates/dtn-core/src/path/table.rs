//! [`PathTable`]: the dense, route-carrying result of a search.

use super::OpportunisticPath;
use crate::ids::NodeId;

/// Best opportunistic paths from one source to every node, at a fixed
/// time horizon.
///
/// Produced by [`shortest_paths`](super::shortest_paths) (complete),
/// [`shortest_paths_until_in`](super::shortest_paths_until_in) (possibly
/// partial) or refilled in place by
/// [`shortest_paths_batch`](super::shortest_paths_batch). The table is
/// what each mobile node maintains in the paper ("a node maintains its
/// shortest opportunistic path to each NCL", §IV-A; optionally to all
/// nodes, §V-C).
///
/// The table stores the route *tree* compactly — a predecessor and an
/// incoming rate per node plus the settled weight — so [`weight_to`] is
/// `O(1)` and concrete paths are only materialised on demand by
/// [`path_to`].
///
/// A **complete** table answers for every node: settled nodes carry
/// their weight, the rest are unreachable (weight 0). A **partial**
/// table — the search stopped once its targets had settled — answers
/// only for the nodes it settled; for any other node it knows nothing
/// yet, and says so ([`settled_weight`] is `None`) rather than reporting
/// it unreachable.
///
/// The default table is empty — no nodes, answering nothing — and
/// exists to be refilled by a batch.
///
/// [`weight_to`]: PathTable::weight_to
/// [`path_to`]: PathTable::path_to
/// [`settled_weight`]: PathTable::settled_weight
#[derive(Debug, Clone, Default)]
pub struct PathTable {
    pub(super) source: NodeId,
    /// Predecessor on the best path; `None` for the source and for
    /// unreachable nodes. Final only for settled nodes.
    pub(super) prev: Vec<Option<NodeId>>,
    /// Rate of the edge `prev[v] → v`; meaningless unless `prev[v]` is set.
    pub(super) rate_into: Vec<f64>,
    /// Settled best weight; 0 for unsettled nodes, 1 for the source.
    pub(super) weight: Vec<f64>,
    /// Nodes whose weight and route are final. In a complete table every
    /// reachable node is settled.
    pub(super) settled: Vec<bool>,
    /// How many entries of `settled` are set, counted by the search.
    pub(super) settled_count: usize,
    /// The search ran to exhaustion: unsettled means unreachable.
    pub(super) complete: bool,
}

impl PathTable {
    /// Whether the search ran to exhaustion, so the table answers for
    /// every node. `false` for a table a search stopped at its targets
    /// cut short.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Capacity for `n` nodes in every array, so that a refill over as
    /// many nodes allocates nothing.
    pub(super) fn reserve(&mut self, n: usize) {
        self.prev.reserve_exact(n.saturating_sub(self.prev.len()));
        self.rate_into
            .reserve_exact(n.saturating_sub(self.rate_into.len()));
        self.weight
            .reserve_exact(n.saturating_sub(self.weight.len()));
        self.settled
            .reserve_exact(n.saturating_sub(self.settled.len()));
    }

    /// How many nodes the search settled (the source included) — the
    /// machine-independent size of the work it did.
    pub fn settled_count(&self) -> usize {
        self.settled_count
    }

    /// Refuses a read the table cannot answer: a partial table asked
    /// about a node it never settled.
    fn assert_final_for(&self, dest: NodeId) {
        assert!(
            self.complete || self.settled[dest.index()],
            "partial path table from {} never settled {dest}",
            self.source
        );
    }

    /// The weight of the best path to `dest` if the table is final for
    /// it: the settled weight, or 0 for a node a complete table never
    /// reached. `None` when a partial table stopped before settling
    /// `dest` — the answer is unknown, not zero.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is out of range.
    pub fn settled_weight(&self, dest: NodeId) -> Option<f64> {
        (self.complete || self.settled[dest.index()]).then(|| self.weight[dest.index()])
    }

    /// The weight of the best path to `dest`: 1 for the source itself,
    /// 0 if `dest` is unreachable. `O(1)` — the weight was fixed when the
    /// search settled `dest`.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is out of range, or if the table is partial and
    /// never settled `dest` (read partial tables through
    /// [`settled_weight`](Self::settled_weight)).
    pub fn weight_to(&self, dest: NodeId) -> f64 {
        self.assert_final_for(dest);
        self.weight[dest.index()]
    }

    /// The best path to `dest`, if one exists, reconstructed from the
    /// predecessor tree in `O(hops)`.
    ///
    /// # Panics
    ///
    /// Panics on the same reads as [`weight_to`](Self::weight_to).
    pub fn path_to(&self, dest: NodeId) -> Option<OpportunisticPath> {
        self.assert_final_for(dest);
        if !self.settled[dest.index()] {
            return None;
        }
        let mut nodes = vec![dest];
        let mut rates = Vec::new();
        let mut cur = dest;
        while let Some(parent) = self.prev[cur.index()] {
            rates.push(self.rate_into[cur.index()]);
            nodes.push(parent);
            cur = parent;
        }
        nodes.reverse();
        rates.reverse();
        Some(OpportunisticPath::new(nodes, rates))
    }

    /// Iterates over `(destination, weight)` for every settled node —
    /// every reachable node of a complete table — including the source
    /// itself with weight 1.
    pub fn iter_weights(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.settled
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r)
            .map(|(i, _)| (NodeId(i as u32), self.weight[i]))
    }
}
