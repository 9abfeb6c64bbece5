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
/// The default table is complete and has no nodes: every read answers
/// weight 0 and no route. A batch refills it, and the oracle answers it
/// for a source past its population.
///
/// [`weight_to`]: PathTable::weight_to
/// [`path_to`]: PathTable::path_to
/// [`settled_weight`]: PathTable::settled_weight
#[derive(Debug, Clone, Default)]
pub struct PathTable {
    pub(super) source: NodeId,
    /// Predecessor on the best path; `None` for the source and for every
    /// node not settled.
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
    /// The search stopped at its targets: unsettled means unknown, not
    /// unreachable. Cleared, so complete, by default.
    pub(super) partial: bool,
}

impl PathTable {
    /// Whether the search ran to exhaustion, so the table answers for
    /// every node. `false` for a table a search stopped at its targets
    /// cut short.
    pub fn is_complete(&self) -> bool {
        !self.partial
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

    /// Whether the search settled `dest`; `false` past the table's nodes.
    fn is_settled(&self, dest: NodeId) -> bool {
        self.settled.get(dest.index()).is_some_and(|&s| s)
    }

    /// Refuses a read the table cannot answer: a partial table asked
    /// about a node it never settled.
    fn never_settled(&self, dest: NodeId) -> ! {
        panic!(
            "partial path table from {} never settled {dest}",
            self.source
        )
    }

    /// The weight of the best path to `dest` if the table is final for
    /// it: the settled weight, or 0 for a node a complete table never
    /// reached, one past its nodes included. `None` when a partial table
    /// stopped before settling `dest` — the answer is unknown, not zero.
    pub fn settled_weight(&self, dest: NodeId) -> Option<f64> {
        if self.is_settled(dest) {
            Some(self.weight[dest.index()])
        } else {
            (!self.partial).then_some(0.0)
        }
    }

    /// The weight of the best path to `dest`: 1 for the source itself,
    /// 0 if `dest` is unreachable. `O(1)` — the weight was fixed when the
    /// search settled `dest`.
    ///
    /// # Panics
    ///
    /// Panics if the table is partial and never settled `dest` (read
    /// partial tables through [`settled_weight`](Self::settled_weight)).
    pub fn weight_to(&self, dest: NodeId) -> f64 {
        match self.settled_weight(dest) {
            Some(weight) => weight,
            None => self.never_settled(dest),
        }
    }

    /// The best path to `dest`, if one exists, reconstructed from the
    /// predecessor tree in `O(hops)`.
    ///
    /// # Panics
    ///
    /// Panics on the same reads as [`weight_to`](Self::weight_to).
    pub fn path_to(&self, dest: NodeId) -> Option<OpportunisticPath> {
        if !self.is_settled(dest) {
            if self.partial {
                self.never_settled(dest);
            }
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
