//! [`SparseReach`] and [`LazyReach`]: what a hop-bounded search returns.

use super::search::Key;
use crate::graph::Topology;
use crate::hypoexp;
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

/// `rim_of` entry of an inner node that is not a rim node.
pub(super) const NOT_RIM: u32 = u32::MAX;

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
/// hops) and influences no other label. The reach therefore holds the
/// settled inner nodes, the order they popped in, and the CDF stages of
/// each rim node's path; [`weight_to`](Self::weight_to) reads an inner
/// node's weight directly and replays a leaf's label from the rim on
/// demand. In a sparse city most of what an `h`-hop search settles are
/// such leaves, and most of them are never read.
#[derive(Debug, Clone, Default)]
pub struct LazyReach {
    pub(super) horizon: f64,
    /// Stages of every rim node's path: `max_hops − 1`.
    pub(super) stages: usize,
    /// The settled inner nodes in ascending id order (the source among
    /// them) and, in parallel, their settled weights.
    pub(super) ids: Vec<NodeId>,
    pub(super) weights: Vec<f64>,
    /// The order the inner nodes popped in, as indexes into `ids`.
    pub(super) pops: Vec<u32>,
    /// Per inner node, its rim slot — the index of its entries in the
    /// three `rim_*` arrays — or [`NOT_RIM`].
    pub(super) rim_of: Vec<u32>,
    /// Per rim node, in pop order: where in `pops` it popped.
    pub(super) rim_pops: Vec<u32>,
    /// Per rim node: the `spread`, `coeffs` and `em1` of its path's
    /// accumulator, `stages` values each, back to back.
    pub(super) rim_stages: Vec<f64>,
    /// Per rim node: the accumulator's Erlang flag.
    pub(super) rim_all_equal: Vec<bool>,
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
    /// search) and none for a node with no rim neighbour, which the
    /// bound does not reach (weight 0).
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
    pub fn weight_to<G: Topology>(&self, graph: &G, dest: NodeId) -> (f64, u32) {
        if let Ok(i) = self.ids.binary_search(&dest) {
            return (self.weights[i], 0);
        }
        if dest.index() >= graph.node_count() {
            return (0.0, 0);
        }
        // The loop's `best` before any relaxation: heavier than nothing,
        // so the first candidate replaces it and no pop is held below it.
        let mut label = f64::NEG_INFINITY;
        let mut evaluations = 0;
        // `pops[..from]` were held against the label already.
        let mut from = 0;
        loop {
            // The rim neighbour of `dest` that pops next. A leaf has a
            // handful of neighbours and fewer on the rim, so selecting
            // the minimum again per candidate beats sorting them.
            let next = graph
                .neighbors(dest)
                .iter()
                .filter_map(|&(peer, rate)| {
                    let slot = self.rim_of[self.ids.binary_search(&peer).ok()?];
                    // `NOT_RIM` indexes past the end of any rim.
                    let pos = *self.rim_pops.get(slot as usize)? as usize;
                    (pos >= from).then_some((pos, slot as usize, rate))
                })
                .min_by_key(|&(pos, ..)| pos);
            let Some((pos, slot, rate)) = next else {
                break;
            };
            // The heap's own order; a label of −∞ is not in the heap yet.
            if label != f64::NEG_INFINITY {
                let mine = Key::new(label, dest);
                let popped_first =
                    |&i: &u32| mine > Key::new(self.weights[i as usize], self.ids[i as usize]);
                if self.pops[from..=pos].iter().any(popped_first) {
                    break;
                }
            }
            let new = hypoexp::Factors::of(rate, self.horizon);
            let candidate = self.rim(slot).extended_cdf(rate, new);
            if candidate > label {
                label = candidate;
            }
            evaluations += 1;
            from = pos + 1;
        }
        (if evaluations == 0 { 0.0 } else { label }, evaluations)
    }

    /// The path stages of the rim node in `slot`.
    fn rim(&self, slot: usize) -> hypoexp::Stages<'_> {
        let flat = &self.rim_stages[slot * 3 * self.stages..][..3 * self.stages];
        let (spread, rest) = flat.split_at(self.stages);
        let (coeffs, em1) = rest.split_at(self.stages);
        hypoexp::Stages {
            spread,
            coeffs,
            em1,
            all_equal: self.rim_all_equal[slot],
            t: self.horizon,
        }
    }

    /// Bytes of heap the reach owns.
    #[cfg(test)]
    pub(super) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ids.capacity() * size_of::<NodeId>()
            + self.weights.capacity() * size_of::<f64>()
            + (self.pops.capacity() + self.rim_of.capacity() + self.rim_pops.capacity())
                * size_of::<u32>()
            + self.rim_stages.capacity() * size_of::<f64>()
            + self.rim_all_equal.capacity()
    }
}
