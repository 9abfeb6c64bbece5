//! [`SparseReach`] and [`LazyReach`]: what a hop-bounded search returns.

use super::scratch::FactorCache;
use super::search::Key;
use super::ReachScratch;
use crate::graph::Topology;
use crate::hypoexp::HorizonAccumulator;
use crate::ids::NodeId;

/// Best-path weights from one source, stored sparsely — only the nodes
/// the bounded search actually settled, sorted by id.
///
/// Produced by [`bounded_shortest_paths`](super::bounded_shortest_paths). Unlike [`PathTable`](super::PathTable), whose
/// arrays are `O(N)` per source, a `SparseReach` is `O(touched)` — the
/// representation city-scale oracles cache per source without `N²`
/// blow-up.
#[derive(Debug, Clone)]
pub struct SparseReach {
    /// `(destination, weight)` sorted by ascending destination id; the
    /// source itself appears with weight 1.
    pub(super) entries: Vec<(NodeId, f64)>,
}

impl SparseReach {
    /// The weight of the best bounded path to `dest`; 0 if the search
    /// never settled `dest`. `O(log touched)` binary search.
    pub fn weight_to(&self, dest: NodeId) -> f64 {
        match self.entries.binary_search_by_key(&dest, |&(d, _)| d) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// All `(destination, weight)` entries, sorted by destination id.
    pub fn entries(&self) -> &[(NodeId, f64)] {
        &self.entries
    }
}

/// `parents` entry of the source, which has no predecessor.
pub(super) const NO_PARENT: u32 = u32::MAX;

/// Best-path weights from one source under a hop bound, with the leaves
/// of the bound weighed when a read asks for one, not when the search
/// passes by.
///
/// Produced by [`bounded_reach`](super::bounded_reach); answers every read exactly as the
/// [`SparseReach`] of [`bounded_shortest_paths`](super::bounded_shortest_paths) does, to the bit. With a
/// bound of `h` hops, only a node within `h − 1` hops of the source (the
/// *inner* ball) can ever settle with fewer than `h` hops and relax its
/// edges, so only inner nodes shape the search; every other node the
/// eager search settles is a leaf whose label is the best one-hop
/// extension of a *rim* node (an inner node settled with exactly `h − 1`
/// hops) and influences no other label. In a sparse city most of what an
/// `h`-hop search settles are such leaves, and most of them are never
/// read.
///
/// The reach keeps the ball alone: per settled node its id, weight,
/// predecessor and place in the pop order, 20 B. A rim node's path is a
/// function of its predecessor chain and the graph, so
/// [`weight_to`](Self::weight_to) rebuilds it when a leaf read needs it.
#[derive(Debug, Clone, Default)]
pub struct LazyReach {
    pub(super) horizon: f64,
    /// The hop bound: a rim node's path has `max_hops − 1` hops, and
    /// under a bound of 0 no node is on the rim.
    pub(super) max_hops: usize,
    /// The settled nodes in ascending id order (the source among them)
    /// and, in parallel, their settled weights and the index of their
    /// predecessor ([`NO_PARENT`] for the source).
    pub(super) ids: Box<[NodeId]>,
    pub(super) weights: Box<[f64]>,
    pub(super) parents: Box<[u32]>,
    /// The order the nodes popped in, as indexes into `ids`.
    pub(super) pops: Box<[u32]>,
}

impl LazyReach {
    /// How many nodes the search settled: the inner ones, the source
    /// included. The leaves beyond the ball never entered it.
    pub fn settled_count(&self) -> usize {
        self.ids.len()
    }

    /// The weight of the best bounded path to `dest` over `graph` — the
    /// graph the reach was searched on — and how many CDF evaluations
    /// the read made: none for an inner node (`O(log inner)` binary
    /// search) and none for a node with no rim neighbour (one out of
    /// range, or any under a bound of 0), which the bound does not reach
    /// (weight 0).
    ///
    /// Otherwise `dest` is a leaf and its label is replayed as the eager
    /// search built it: its rim neighbours relax it in the order they
    /// popped, a candidate replaces the label only if strictly heavier,
    /// and the label is final as soon as its heap key `(weight, id)`
    /// beats that of a node still to pop — the eager search would have
    /// popped `dest` there, and ignored every later relaxation. The scan
    /// holds the label against *every* pop up to the next rim neighbour,
    /// not just against that neighbour: settled weights are
    /// non-increasing in exact arithmetic only, and a one-ulp inversion
    /// between the two is enough to end the replay one candidate late.
    /// The rim neighbours are marked in `scratch` by their index in the
    /// reach from one pass over `dest`'s row, and one walk of the pop
    /// order holds the label against each pop, then weighs the pop if it
    /// is marked, and stops after the last marked one: a read costs one
    /// scan of the row (`O(degree · log inner)`) and of the pops up to
    /// its last candidate, however many candidates it weighs.
    ///
    /// Each candidate's rim path is rebuilt in `scratch`, one push per hop
    /// of its predecessor chain at the rate the predecessor's row of
    /// `graph` lists: the search's own pushes, so the search's bits. A
    /// warm scratch allocates nothing for it.
    ///
    /// # Panics
    ///
    /// Panics if a leaf read finds an edge of a settled path missing from
    /// `graph`: it is not the graph the reach was searched on.
    pub fn weight_to<G: Topology>(
        &self,
        graph: &G,
        dest: NodeId,
        scratch: &mut ReachScratch,
    ) -> (f64, u32) {
        if let Ok(i) = self.ids.binary_search(&dest) {
            return (self.weights[i], 0);
        }
        // Mark the rim neighbours of `dest`, each with its edge's rate,
        // in one pass over its row: a central's row is long, and most
        // reads name a central.
        let (marks, stamp, path, factors) = scratch.replay_workspace(self.horizon, self.ids.len());
        let mut left = 0;
        for &(peer, rate) in graph.neighbors(dest) {
            if let Ok(i) = self.ids.binary_search(&peer) {
                if self.hops(i) + 1 == self.max_hops {
                    marks[i] = (stamp, rate);
                    left += 1;
                }
            }
        }
        // The loop's `best` before any relaxation: heavier than nothing,
        // so the first candidate replaces it and no pop is held below it.
        let mut label = f64::NEG_INFINITY;
        let mut evaluations = 0;
        for &i in self.pops.iter() {
            if left == 0 {
                break;
            }
            let i = i as usize;
            // The heap's own order; a label of −∞ is not in the heap yet.
            if label != f64::NEG_INFINITY
                && Key::new(label, dest) > Key::new(self.weights[i], self.ids[i])
            {
                break;
            }
            let (mark, rate) = marks[i];
            if mark != stamp {
                continue;
            }
            left -= 1;
            self.rebuild(graph, i, path, factors);
            let candidate = path.view().extended_cdf(rate, factors.get(rate));
            if candidate > label {
                label = candidate;
            }
            evaluations += 1;
        }
        (if evaluations == 0 { 0.0 } else { label }, evaluations)
    }

    /// Hops of the path the node at index `i` settled with: the length
    /// of its predecessor chain.
    pub(super) fn hops(&self, mut i: usize) -> usize {
        let mut hops = 0;
        while self.parents[i] != NO_PARENT {
            i = self.parents[i] as usize;
            hops += 1;
        }
        hops
    }

    /// Refills `path` with the accumulator the search built for the node
    /// at index `i`: empty at the source, then one stage per hop of the
    /// predecessor chain, source first, each of the rate the
    /// predecessor's row of `graph` lists for its successor.
    fn rebuild<G: Topology>(
        &self,
        graph: &G,
        i: usize,
        path: &mut HorizonAccumulator,
        factors: &mut FactorCache,
    ) {
        let parent = self.parents[i];
        if parent == NO_PARENT {
            path.reset(self.horizon);
            return;
        }
        let parent = parent as usize;
        self.rebuild(graph, parent, path, factors);
        let node = self.ids[i];
        let &(_, rate) = graph
            .neighbors(self.ids[parent])
            .iter()
            .find(|&&(peer, _)| peer == node)
            .expect("a route runs along edges of the graph it was searched on");
        path.push(rate, factors.get(rate));
    }

    /// Bytes of heap the reach owns.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ids.len() * size_of::<NodeId>()
            + self.weights.len() * size_of::<f64>()
            + (self.parents.len() + self.pops.len()) * size_of::<u32>()
    }
}
