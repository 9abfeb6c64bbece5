//! The one label-setting loop and the public searches that run it.

use super::{LazyReach, PathTable, ReachScratch, SparseReach};
use crate::graph::Topology;
use crate::hypoexp;
use crate::ids::NodeId;
use crate::par;

/// Heap entry: the tentative best weight of a node and the node, packed
/// into one integer, `weight.to_bits() << 32 | (u32::MAX − id)`. Routes
/// live in the predecessor arrays, so keys never allocate.
///
/// For a finite, sign-positive weight — every weight a search can push:
/// a candidate enters only if it beats the node's best so far, and
/// [`hypoexp`] clamps to `[+0, 1]` — the bits order as the floats do, so
/// the max-heap pops the heaviest label first and, among exact ties, the
/// lowest id: `f64::total_cmp` then reversed id, in one integer compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct Key(u128);

impl Key {
    #[inline]
    pub(super) fn new(weight: f64, node: NodeId) -> Key {
        debug_assert!(
            weight.is_finite() && weight.is_sign_positive(),
            "a search pushes only finite, sign-positive weights, got {weight}"
        );
        Key(u128::from(weight.to_bits()) << 32 | u128::from(u32::MAX - node.0))
    }

    #[inline]
    pub(super) fn weight(self) -> f64 {
        f64::from_bits((self.0 >> 32) as u64)
    }

    #[inline]
    pub(super) fn node(self) -> NodeId {
        NodeId(u32::MAX - self.0 as u32)
    }
}

/// Computes the best (maximum-weight) opportunistic path from `source` to
/// every other node within time horizon `horizon` seconds.
///
/// Runs a label-setting search in `O(E log E)` heap operations. Each
/// relaxation evaluates the extended path's hypoexponential weight
/// incrementally (`O(r)` multiply-adds, allocation-free, the new stage's
/// exponentials read from the scratch's per-rate cache) instead of
/// rebuilding the coefficient set from scratch (`O(r²)` plus two clones
/// per relaxation in the naive formulation, which the unit tests keep
/// as their reference). Both evaluate the exact same arithmetic, so the
/// computed weights are bit-identical.
///
/// A `source` out of range settles nothing: the complete table of no
/// nodes, every read 0. At a `horizon` that is not finite and positive
/// the source settles alone (Eq. 2 at `T ≤ 0`: weight 1 at the source,
/// 0 and no route everywhere else).
///
/// # Example
///
/// ```
/// use dtn_core::graph::ContactGraph;
/// use dtn_core::ids::NodeId;
/// use dtn_core::path::shortest_paths;
///
/// let mut g = ContactGraph::new(3);
/// g.set_rate(NodeId(0), NodeId(1), 0.01);
/// g.set_rate(NodeId(1), NodeId(2), 0.01);
/// let table = shortest_paths(&g, NodeId(0), 1000.0);
/// assert_eq!(table.weight_to(NodeId(0)), 1.0);
/// assert!(table.weight_to(NodeId(1)) > table.weight_to(NodeId(2)));
/// assert_eq!(table.path_to(NodeId(2)).unwrap().hops(), 2);
/// ```
pub fn shortest_paths<G: Topology>(graph: &G, source: NodeId, horizon: f64) -> PathTable {
    shortest_paths_until_in(graph, source, horizon, &[], &mut ReachScratch::new())
}

/// [`shortest_paths`] with a stop condition: the search ends as soon as
/// every node of `targets` has settled, and the returned table is
/// partial ([`PathTable::is_complete`] is `false`). It runs through a
/// caller-owned [`ReachScratch`]: a caller that searches repeatedly keeps
/// one and pays only for the returned table's arrays per call.
///
/// Exact, not approximate: the loop settles nodes in decreasing weight
/// order and never revisits a settled node, so everything settled before
/// the stop — the targets, and the whole route tree above them — holds
/// the same bits and the same routes the exhaustive search produces.
/// Nodes not yet settled are unknown, and the table reports them as such
/// ([`PathTable::settled_weight`]).
///
/// With no targets there is nothing to stop for and the search runs to
/// exhaustion — [`shortest_paths`] is that call. The same happens when a
/// target is unreachable (it never settles): the table comes back
/// complete and the target reads weight 0. Duplicate targets count once;
/// the source is a valid target (it settles first); targets out of range
/// for the graph are ignored. An out-of-range source or a degenerate
/// horizon answers as in [`shortest_paths`].
pub fn shortest_paths_until_in<G: Topology>(
    graph: &G,
    source: NodeId,
    horizon: f64,
    targets: &[NodeId],
    scratch: &mut ReachScratch,
) -> PathTable {
    let complete = search::<G, false>(graph, source, horizon, targets, usize::MAX, scratch);
    let mut table = PathTable::default();
    scratch.path_table_into(graph.node_count(), source, complete, &mut table);
    table
}

/// Independent [`shortest_paths_until_in`] searches over one graph, run
/// as one batch over the workers (`par::map_on`). A job
/// `(source, stop, table)` searches from `source` — until every node of
/// `targets` has settled if `stop`, to exhaustion otherwise, exactly the
/// search `shortest_paths_until_in` runs with `targets` or `&[]` — and
/// refills `table` with the result. Returns the CDF accumulators the
/// searches built, summed ([`ReachScratch::accumulators_built`] of each).
///
/// `scratches` holds one workspace per worker, and its length is the
/// worker count (capped at the job count; one job runs on the calling
/// thread alone). An empty vector is filled with one per hardware thread
/// of the machine. Keep it between calls: once every workspace is warm
/// and every table has held this graph before, no worker allocates.
/// Tables without room for the graph are grown here, on the calling
/// thread, before any worker starts, so the memory stays with the
/// caller's allocator. A job's out-of-range source or a degenerate
/// horizon answers as in [`shortest_paths`].
pub fn shortest_paths_batch<G: Topology + Sync>(
    graph: &G,
    horizon: f64,
    targets: &[NodeId],
    jobs: &mut [(NodeId, bool, PathTable)],
    scratches: &mut Vec<ReachScratch>,
) -> usize {
    if scratches.is_empty() {
        scratches.resize_with(par::workers(), ReachScratch::new);
    }
    let n = graph.node_count();
    for (_, _, table) in jobs.iter_mut() {
        table.reserve(n);
    }
    par::map_on(
        jobs.iter_mut(),
        scratches,
        |scratch, (source, stop, table)| {
            let stop_at = if *stop { targets } else { &[] };
            let complete =
                search::<G, false>(graph, *source, horizon, stop_at, usize::MAX, scratch);
            scratch.path_table_into(n, *source, complete, table);
            scratch.accumulators_built()
        },
    )
    .into_iter()
    .sum()
}

/// [`shortest_paths`] with a hop bound and sparse output: the search
/// settles nodes exactly like the unbounded algorithm but stops relaxing
/// from nodes whose settled best path already has `max_hops` hops.
///
/// With `max_hops` at least the graph diameter the result is identical
/// to [`shortest_paths`] (same arithmetic, same tie-breaks). With a
/// smaller bound, weights are exact over the ≤`max_hops`-hop path space
/// and *lower bounds* on the unbounded weights — the standard truncation
/// the paper's multi-hop analysis itself applies ("opportunistic paths
/// with at most r hops", §III-B). Work and memory are `O(touched)`
/// rather than `O(N)`, which is what makes per-source caching viable at
/// city scale. An out-of-range source or a degenerate horizon answers
/// as in [`shortest_paths`], and `max_hops == 0` reaches the source
/// alone.
pub fn bounded_shortest_paths<G: Topology>(
    graph: &G,
    source: NodeId,
    horizon: f64,
    max_hops: usize,
    scratch: &mut ReachScratch,
) -> SparseReach {
    search::<G, false>(graph, source, horizon, &[], max_hops, scratch);
    scratch.sparse_reach()
}

/// [`bounded_shortest_paths`] for a caller that will read a few
/// destinations rather than every weight: the same search, kept inside
/// the ball of radius `max_hops − 1` around `source`, returning a
/// [`LazyReach`] that weighs a node beyond the ball when
/// [`LazyReach::weight_to`] is asked for it. Every answer equals the
/// eager search's, bit for bit; the work is `O(inner)` rather than
/// `O(touched)`, which in a sparse graph is most of it.
///
/// A breadth-first pass marks the ball first. A node settled with
/// `max_hops − 1` hops then relaxes only its neighbours inside the ball:
/// a neighbour outside could only settle with `max_hops` hops, relax
/// nothing, and so change no other node's label — the nodes inside
/// settle with the bits and in the order the eager search gives them.
///
/// Degenerate inputs answer as in [`bounded_shortest_paths`], and a
/// reach that holds the source alone weighs no leaf: every read but the
/// source's is 0.
pub fn bounded_reach<G: Topology>(
    graph: &G,
    source: NodeId,
    horizon: f64,
    max_hops: usize,
    scratch: &mut ReachScratch,
) -> LazyReach {
    let max_hops = hop_bound(horizon, max_hops);
    search::<G, true>(graph, source, horizon, &[], max_hops, scratch);
    scratch.lazy_reach(horizon, max_hops)
}

/// The hop bound a search at `horizon` runs under: `max_hops`, or 0 —
/// the source alone — at a horizon that is not finite and positive,
/// where no path of a hop or more has weight.
fn hop_bound(horizon: f64, max_hops: usize) -> usize {
    if horizon.is_finite() && horizon > 0.0 {
        max_hops
    } else {
        0
    }
}

/// The one label-setting loop. Settles nodes in decreasing weight order
/// from `source`, relaxing only from nodes whose best path has fewer
/// than `max_hops` hops — only those get a CDF accumulator, refilled
/// from the scratch's free list — and leaves the settled set in `scratch` for
/// [`ReachScratch::path_table_into`] / [`ReachScratch::sparse_reach`] /
/// [`ReachScratch::lazy_reach`] to read. Stops as soon as every in-range
/// node of `targets` has settled and returns `false`; returns `true`
/// when it ran to exhaustion (always, with no targets or an unreachable
/// one). A `source` out of range settles nothing, and [`hop_bound`]
/// keeps a degenerate horizon from weighing any edge.
///
/// With `INNER_ONLY`, the search stays inside the ball of radius
/// `max_hops − 1` around `source` ([`bounded_reach`] says why that
/// changes nothing inside it) and records the settle order. A const
/// parameter, so the dense searches compile without the checks.
pub(super) fn search<G: Topology, const INNER_ONLY: bool>(
    graph: &G,
    source: NodeId,
    horizon: f64,
    targets: &[NodeId],
    max_hops: usize,
    scratch: &mut ReachScratch,
) -> bool {
    let max_hops = hop_bound(horizon, max_hops);
    let n = graph.node_count();
    scratch.prepare(n);
    if source.index() >= n {
        return true;
    }
    scratch.factors.prepare(horizon);
    // Targets still to settle; the search stops when the count hits zero.
    let mut outstanding = 0usize;
    for &t in targets {
        // `n`, not the array length: the scratch may have served a
        // larger graph before.
        if t.index() < n && scratch.wanted[t.index()] != scratch.epoch {
            scratch.wanted[t.index()] = scratch.epoch;
            outstanding += 1;
        }
    }
    if INNER_ONLY {
        scratch.mark_inner(graph, source, max_hops.saturating_sub(1));
    }
    scratch.touch(source.index());
    scratch.best[source.index()] = 1.0;
    scratch.heap.push(Key::new(1.0, source));

    // The accumulators leave the scratch for the duration of the loop, so
    // a settled node's can be read while the per-node arrays are written.
    let mut accs = std::mem::take(&mut scratch.accs);
    let mut complete = true;
    while let Some(key) = scratch.heap.pop() {
        let (w, node) = (key.weight(), key.node());
        let ni = node.index();
        if scratch.settled[ni] {
            continue;
        }
        scratch.settled[ni] = true;
        scratch.weight[ni] = w;
        scratch.settled_count += 1;
        if INNER_ONLY {
            scratch.pops.push(ni as u32);
        }
        if scratch.wanted[ni] == scratch.epoch {
            outstanding -= 1;
            if outstanding == 0 {
                // Every target is final; nothing relaxed from here on
                // could change a settled entry.
                complete = false;
                break;
            }
        }
        let parent = scratch.prev[ni];
        let hops = if parent == u32::MAX {
            0
        } else {
            scratch.hops[parent as usize] + 1
        };
        scratch.hops[ni] = hops;
        if hops as usize >= max_hops {
            // A leaf of the hop bound: its weight is final and nothing
            // is relaxed from it, so nothing would read its accumulator.
            continue;
        }
        // Refill the next accumulator of the free list; `accs[..built]`
        // are this search's, the parent's among them.
        let built = scratch.accs_built;
        if built == accs.len() {
            accs.push(hypoexp::HorizonAccumulator::new(horizon));
        }
        let (mine, free) = accs.split_at_mut(built);
        if parent == u32::MAX {
            free[0].reset(horizon);
        } else {
            let parent_acc = &mine[scratch.acc_slot[parent as usize] as usize];
            let rate = scratch.rate_into[ni];
            free[0].assign_extended(parent_acc, rate, scratch.factors.get(rate));
        }
        scratch.acc_slot[ni] = built as u32;
        scratch.accs_built += 1;
        let path = accs[built].view();
        // Only a node one hop short of the bound has neighbours outside
        // the ball; they are the leaves a `LazyReach` weighs on demand.
        let rim = INNER_ONLY && hops as usize + 1 == max_hops;
        for &(peer, rate) in graph.neighbors(node) {
            let pi = peer.index();
            if rim && scratch.inner[pi] != scratch.epoch {
                continue;
            }
            scratch.touch(pi);
            if scratch.settled[pi] {
                continue;
            }
            let cand = path.extended_cdf(rate, scratch.factors.get(rate));
            if cand > scratch.best[pi] {
                scratch.best[pi] = cand;
                scratch.prev[pi] = ni as u32;
                scratch.rate_into[pi] = rate;
                scratch.heap.push(Key::new(cand, peer));
            }
        }
    }
    scratch.accs = accs;
    complete
}
