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
//! There is one search loop. It is allocation-free on its hot path: heap
//! labels carry only `(weight, node)`, the route tree lives in
//! predecessor arrays of an epoch-stamped [`ReachScratch`], and each
//! relaxation evaluates the candidate weight by extending the settled
//! node's cached CDF accumulator ([`crate::hypoexp`]) — `O(r)`
//! multiply-adds plus a single fresh exponential, without materialising
//! the extended path. An accumulator is built only for a settled node
//! that goes on to relax its edges (by extending its parent's, into a
//! buffer recycled from the previous search); a node settled at the hop
//! bound keeps its weight and nothing else. Three extractors read the
//! settled set out of the scratch: the dense, route-carrying
//! [`PathTable`] ([`shortest_paths`], [`shortest_paths_until`]), the
//! sparse [`SparseReach`] ([`bounded_shortest_paths`], the same loop
//! under a hop bound) and the [`LazyReach`] ([`bounded_reach`], the
//! bounded loop kept inside the ball of radius `max_hops − 1`, with the
//! leaves beyond it weighed when a read asks for one). Concrete
//! [`OpportunisticPath`] values are reconstructed lazily by
//! [`PathTable::path_to`].
//! [`shortest_paths_naive`] retains the original owned-path formulation
//! as a differential-testing reference.
//!
//! Nodes settle in decreasing weight order and a settled weight is
//! final, so a caller that only needs the weights to a few targets (the
//! paper's nodes keep paths *to the K central nodes*, §IV Eq. 3) can stop
//! the same loop as soon as the last target settles:
//! [`shortest_paths_until`] returns a *partial* [`PathTable`] whose
//! settled entries carry exactly the bits the exhaustive search would
//! have produced. The search is greedy from the source — a path's weight
//! is not a sum of per-edge terms, so the tree rooted at a destination is
//! not the reverse of the trees rooted at its sources — which is why the
//! exact shortcut is "stop early", not "search from the target".

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::{ContactGraph, Topology};
use crate::hypoexp;
use crate::ids::NodeId;

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

    /// The trivial zero-hop path from a node to itself (weight 1).
    fn trivial(node: NodeId) -> Self {
        OpportunisticPath {
            nodes: vec![node],
            rates: Vec::new(),
        }
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

/// Best opportunistic paths from one source to every node, at a fixed
/// time horizon.
///
/// Produced by [`shortest_paths`] (complete) or [`shortest_paths_until`]
/// (possibly partial). The table is what each mobile node maintains in
/// the paper ("a node maintains its shortest opportunistic path to each
/// NCL", §IV-A; optionally to all nodes, §V-C).
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
/// [`weight_to`]: PathTable::weight_to
/// [`path_to`]: PathTable::path_to
/// [`settled_weight`]: PathTable::settled_weight
#[derive(Debug, Clone)]
pub struct PathTable {
    source: NodeId,
    /// Predecessor on the best path; `None` for the source and for
    /// unreachable nodes. Final only for settled nodes.
    prev: Vec<Option<NodeId>>,
    /// Rate of the edge `prev[v] → v`; meaningless unless `prev[v]` is set.
    rate_into: Vec<f64>,
    /// Settled best weight; 0 for unsettled nodes, 1 for the source.
    weight: Vec<f64>,
    /// Nodes whose weight and route are final. In a complete table every
    /// reachable node is settled.
    settled: Vec<bool>,
    /// How many entries of `settled` are set, counted by the search.
    settled_count: usize,
    /// The search ran to exhaustion: unsettled means unreachable.
    complete: bool,
}

impl PathTable {
    /// Whether the search ran to exhaustion, so the table answers for
    /// every node. `false` for a table [`shortest_paths_until`] cut short.
    pub fn is_complete(&self) -> bool {
        self.complete
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

/// Heap entry: the tentative best weight of a node. Routes live in the
/// predecessor arrays, so labels are two words and never allocate.
#[derive(Debug)]
struct Label {
    weight: f64,
    node: NodeId,
}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        self.weight == other.weight && self.node == other.node
    }
}
impl Eq for Label {}
impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Label {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on weight; tie-break on node id for determinism.
        self.weight
            .total_cmp(&other.weight)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Computes the best (maximum-weight) opportunistic path from `source` to
/// every other node within time horizon `horizon` seconds.
///
/// Runs a label-setting search in `O(E log E)` heap operations. Each
/// relaxation evaluates the extended path's hypoexponential weight
/// incrementally (`O(r)` multiply-adds plus one exponential,
/// allocation-free) instead of rebuilding the coefficient set from
/// scratch (`O(r²)` plus two clones per relaxation in the naive
/// formulation, retained as [`shortest_paths_naive`]). Both evaluate the
/// exact same arithmetic, so the computed weights are bit-identical.
///
/// # Panics
///
/// Panics if `source` is out of range or `horizon` is not finite and
/// positive.
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
    shortest_paths_until(graph, source, horizon, &[])
}

/// [`shortest_paths`] with a stop condition: the search ends as soon as
/// every node of `targets` has settled, and the returned table is
/// partial ([`PathTable::is_complete`] is `false`).
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
/// for the graph are ignored.
///
/// # Panics
///
/// Panics on the same invalid inputs as [`shortest_paths`].
pub fn shortest_paths_until<G: Topology>(
    graph: &G,
    source: NodeId,
    horizon: f64,
    targets: &[NodeId],
) -> PathTable {
    shortest_paths_until_in(graph, source, horizon, targets, &mut ReachScratch::new())
}

/// [`shortest_paths_until`] searching through a caller-owned
/// [`ReachScratch`]: a caller that searches repeatedly keeps one scratch
/// and pays only for the returned table's arrays per call.
///
/// # Panics
///
/// Panics on the same invalid inputs as [`shortest_paths`].
pub fn shortest_paths_until_in<G: Topology>(
    graph: &G,
    source: NodeId,
    horizon: f64,
    targets: &[NodeId],
    scratch: &mut ReachScratch,
) -> PathTable {
    let complete = search::<G, false>(graph, source, horizon, targets, usize::MAX, scratch);
    scratch.path_table(graph.node_count(), source, complete)
}

/// Best-path weights from one source, stored sparsely — only the nodes
/// the bounded search actually settled, sorted by id.
///
/// Produced by [`bounded_shortest_paths`]. Unlike [`PathTable`], whose
/// arrays are `O(N)` per source, a `SparseReach` is `O(touched)` — the
/// representation city-scale oracles cache per source without `N²`
/// blow-up.
#[derive(Debug, Clone)]
pub struct SparseReach {
    /// `(destination, weight)` sorted by ascending destination id; the
    /// source itself appears with weight 1.
    entries: Vec<(NodeId, f64)>,
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
const NOT_RIM: u32 = u32::MAX;

/// Best-path weights from one source under a hop bound, with the leaves
/// of the bound weighed when a read asks for one, not when the search
/// passes by.
///
/// Produced by [`bounded_reach`]; answers every read exactly as the
/// [`SparseReach`] of [`bounded_shortest_paths`] does, to the bit. With a
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
#[derive(Debug, Clone)]
pub struct LazyReach {
    horizon: f64,
    /// Stages of every rim node's path: `max_hops − 1`.
    stages: usize,
    /// The settled inner nodes in ascending id order (the source among
    /// them) and, in parallel, their settled weights.
    ids: Vec<NodeId>,
    weights: Vec<f64>,
    /// The order the inner nodes popped in, as indexes into `ids`.
    pops: Vec<u32>,
    /// Per inner node, its rim slot — the index of its entries in the
    /// three `rim_*` arrays — or [`NOT_RIM`].
    rim_of: Vec<u32>,
    /// Per rim node, in pop order: where in `pops` it popped.
    rim_pops: Vec<u32>,
    /// Per rim node: the `spread`, `coeffs` and `em1` of its path's
    /// accumulator, `stages` values each, back to back.
    rim_stages: Vec<f64>,
    /// Per rim node: the accumulator's Erlang flag.
    rim_all_equal: Vec<bool>,
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
            let mine = Label {
                weight: label,
                node: dest,
            };
            let popped_first = |&i: &u32| {
                let theirs = Label {
                    weight: self.weights[i as usize],
                    node: self.ids[i as usize],
                };
                mine > theirs
            };
            if self.pops[from..=pos].iter().any(popped_first) {
                break;
            }
            let candidate = self.rim(slot).extended_cdf(rate);
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
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ids.capacity() * size_of::<NodeId>()
            + self.weights.capacity() * size_of::<f64>()
            + (self.pops.capacity() + self.rim_of.capacity() + self.rim_pops.capacity())
                * size_of::<u32>()
            + self.rim_stages.capacity() * size_of::<f64>()
            + self.rim_all_equal.capacity()
    }
}

/// Reusable workspace of the label-setting search — what
/// [`bounded_shortest_paths`], [`bounded_reach`] and
/// [`shortest_paths_until_in`] search through.
///
/// All per-node arrays are epoch-stamped: a search only initializes the
/// slots it actually touches, and the next search invalidates them by
/// bumping the epoch instead of clearing `O(N)` memory. The CDF
/// accumulators are recycled the same way: the ones a search built go
/// back on a free list when the next search starts and are refilled in
/// place. Keep one scratch per thread and pass it to every call; once it
/// is warm (heap, touched list, free list and — for [`bounded_reach`] —
/// the ball's queue and the pop order grown to the largest search it has
/// served) a search costs `O(touched)` time and calls the allocator only
/// for the table it returns.
#[derive(Debug, Default)]
pub struct ReachScratch {
    epoch: u64,
    stamp: Vec<u64>,
    /// `wanted[i] == epoch` marks node `i` as a stop target of the
    /// current search.
    wanted: Vec<u64>,
    /// `inner[i] == epoch` marks node `i` as within `max_hops − 1` hops
    /// of the source of the current [`bounded_reach`] search.
    inner: Vec<u64>,
    settled: Vec<bool>,
    best: Vec<f64>,
    weight: Vec<f64>,
    hops: Vec<u32>,
    /// Predecessor in the route tree; `u32::MAX` = none (source).
    prev: Vec<u32>,
    rate_into: Vec<f64>,
    /// Where in `accs` a node's accumulator lives. Written when a node
    /// that will relax settles, read only through such a node's children
    /// in the same search — never stamped, never cleared.
    acc_slot: Vec<u32>,
    /// CDF accumulators of settled paths (with their cached per-stage
    /// exponentials), in settle order: `accs[..accs_built]` belong to the
    /// current search, the rest is the free list — buffers of earlier
    /// searches waiting to be refilled. Only a node that relaxes its
    /// edges gets one; it never shrinks, so its length is the most
    /// accumulators any one search through this scratch has built.
    accs: Vec<hypoexp::HorizonAccumulator>,
    accs_built: usize,
    touched: Vec<u32>,
    /// [`bounded_reach`] only: the breadth-first queue that marked
    /// `inner`, and the nodes of the current search in settle order.
    queue: Vec<u32>,
    pops: Vec<u32>,
    heap: BinaryHeap<Label>,
    /// Nodes the current search has settled, the source included.
    settled_count: usize,
}

impl ReachScratch {
    /// Creates an empty scratch; arrays grow to the graph size on first
    /// use.
    pub fn new() -> Self {
        ReachScratch::default()
    }

    /// How many CDF accumulators the last search built: one per settled
    /// node that went on to relax its edges. A node settled at the hop
    /// bound, or the target that ended an early-exit search, builds none.
    /// Exact and machine-independent, like [`PathTable::settled_count`].
    pub fn accumulators_built(&self) -> usize {
        self.accs_built
    }

    /// Starts a fresh search epoch over `n` nodes.
    fn prepare(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.wanted.resize(n, 0);
            self.inner.resize(n, 0);
            self.settled.resize(n, false);
            self.best.resize(n, f64::NEG_INFINITY);
            self.weight.resize(n, 0.0);
            self.hops.resize(n, 0);
            self.prev.resize(n, u32::MAX);
            self.rate_into.resize(n, 0.0);
            self.acc_slot.resize(n, 0);
        }
        // The previous search's accumulators all return to the free list.
        self.accs_built = 0;
        self.touched.clear();
        self.pops.clear();
        self.heap.clear();
        self.settled_count = 0;
        self.epoch += 1;
    }

    /// Stamps `inner` on every node within `radius` hops of `source`,
    /// breadth first.
    fn mark_inner<G: Topology>(&mut self, graph: &G, source: NodeId, radius: usize) {
        self.queue.clear();
        self.inner[source.index()] = self.epoch;
        self.queue.push(source.0);
        let mut level = 0..1;
        for _ in 0..radius {
            if level.is_empty() {
                break;
            }
            for at in level.clone() {
                for &(peer, _) in graph.neighbors(NodeId(self.queue[at])) {
                    if self.inner[peer.index()] != self.epoch {
                        self.inner[peer.index()] = self.epoch;
                        self.queue.push(peer.0);
                    }
                }
            }
            level = level.end..self.queue.len();
        }
    }

    /// First-touch initialization of node `i` in the current epoch.
    fn touch(&mut self, i: usize) {
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.settled[i] = false;
            self.best[i] = f64::NEG_INFINITY;
            self.weight[i] = 0.0;
            self.hops[i] = 0;
            self.prev[i] = u32::MAX;
            self.rate_into[i] = 0.0;
            self.touched.push(i as u32);
        }
    }

    /// The last search's outcome as a dense, route-carrying table over
    /// `n` nodes.
    fn path_table(&self, n: usize, source: NodeId, complete: bool) -> PathTable {
        let mut table = PathTable {
            source,
            prev: vec![None; n],
            rate_into: vec![0.0; n],
            weight: vec![0.0; n],
            settled: vec![false; n],
            settled_count: self.settled_count,
            complete,
        };
        for &i in &self.touched {
            let i = i as usize;
            if self.prev[i] != u32::MAX {
                table.prev[i] = Some(NodeId(self.prev[i]));
                table.rate_into[i] = self.rate_into[i];
            }
            if self.settled[i] {
                table.settled[i] = true;
                table.weight[i] = self.weight[i];
            }
        }
        table
    }

    /// The last search's settled set as `(destination, weight)` entries
    /// in ascending id order — sorted as bare `u32` ids, weights gathered
    /// afterwards.
    fn sparse_reach(&mut self) -> SparseReach {
        self.touched.sort_unstable();
        let mut entries = Vec::with_capacity(self.settled_count);
        entries.extend(
            self.touched
                .iter()
                .filter(|&&i| self.settled[i as usize])
                .map(|&i| (NodeId(i), self.weight[i as usize])),
        );
        SparseReach { entries }
    }

    /// The last [`bounded_reach`] search as a [`LazyReach`]: the settled
    /// (inner) nodes by id, their pop order, and a flat copy of the CDF
    /// stages of every node that settled with `max_hops − 1` hops — the
    /// accumulators themselves return to the free list with the next
    /// search. Every vector is allocated at its final size.
    fn lazy_reach(&self, horizon: f64, max_hops: usize) -> LazyReach {
        let is_rim = |node: u32| self.hops[node as usize] as usize + 1 == max_hops;
        let rims = self.pops.iter().filter(|&&node| is_rim(node)).count();
        // Only read where a rim node exists, whose path has this many hops.
        let stages = max_hops - 1;
        let mut ids: Vec<NodeId> = self.pops.iter().map(|&node| NodeId(node)).collect();
        ids.sort_unstable();
        let mut reach = LazyReach {
            horizon,
            stages,
            weights: ids.iter().map(|v| self.weight[v.index()]).collect(),
            pops: Vec::with_capacity(ids.len()),
            rim_of: vec![NOT_RIM; ids.len()],
            rim_pops: Vec::with_capacity(rims),
            rim_stages: Vec::with_capacity(rims * 3 * stages),
            rim_all_equal: Vec::with_capacity(rims),
            ids,
        };
        for (pos, &node) in self.pops.iter().enumerate() {
            let i = reach
                .ids
                .binary_search(&NodeId(node))
                .expect("every popped node is listed");
            reach.pops.push(i as u32);
            if is_rim(node) {
                let path = self.accs[self.acc_slot[node as usize] as usize].stages();
                reach.rim_of[i] = reach.rim_pops.len() as u32;
                reach.rim_pops.push(pos as u32);
                reach.rim_stages.extend_from_slice(path.spread);
                reach.rim_stages.extend_from_slice(path.coeffs);
                reach.rim_stages.extend_from_slice(path.em1);
                reach.rim_all_equal.push(path.all_equal);
            }
        }
        reach
    }
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
/// city scale.
///
/// # Panics
///
/// Panics if `source` is out of range, `horizon` is not finite and
/// positive, or `max_hops == 0`.
pub fn bounded_shortest_paths<G: Topology>(
    graph: &G,
    source: NodeId,
    horizon: f64,
    max_hops: usize,
    scratch: &mut ReachScratch,
) -> SparseReach {
    assert!(max_hops > 0, "a zero-hop search reaches nothing");
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
/// # Panics
///
/// Panics on the same invalid inputs as [`bounded_shortest_paths`].
pub fn bounded_reach<G: Topology>(
    graph: &G,
    source: NodeId,
    horizon: f64,
    max_hops: usize,
    scratch: &mut ReachScratch,
) -> LazyReach {
    assert!(max_hops > 0, "a zero-hop search reaches nothing");
    search::<G, true>(graph, source, horizon, &[], max_hops, scratch);
    scratch.lazy_reach(horizon, max_hops)
}

/// The one label-setting loop. Settles nodes in decreasing weight order
/// from `source`, relaxing only from nodes whose best path has fewer
/// than `max_hops` hops — only those get a CDF accumulator, refilled
/// from the scratch's free list — and leaves the settled set in `scratch` for
/// [`ReachScratch::path_table`] / [`ReachScratch::sparse_reach`] /
/// [`ReachScratch::lazy_reach`] to read. Stops as soon as every in-range
/// node of `targets` has settled and returns `false`; returns `true`
/// when it ran to exhaustion (always, with no targets or an unreachable
/// one).
///
/// With `INNER_ONLY`, the search stays inside the ball of radius
/// `max_hops − 1` around `source` ([`bounded_reach`] says why that
/// changes nothing inside it) and records the settle order. A const
/// parameter, so the dense searches compile without the checks.
fn search<G: Topology, const INNER_ONLY: bool>(
    graph: &G,
    source: NodeId,
    horizon: f64,
    targets: &[NodeId],
    max_hops: usize,
    scratch: &mut ReachScratch,
) -> bool {
    assert!(
        horizon.is_finite() && horizon > 0.0,
        "horizon must be finite and positive, got {horizon}"
    );
    let n = graph.node_count();
    assert!(
        source.index() < n,
        "source n{source} out of range for graph of {n} nodes"
    );

    scratch.prepare(n);
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
        scratch.mark_inner(graph, source, max_hops - 1);
    }
    scratch.touch(source.index());
    scratch.best[source.index()] = 1.0;
    scratch.heap.push(Label {
        weight: 1.0,
        node: source,
    });

    // The accumulators leave the scratch for the duration of the loop, so
    // a settled node's can be read while the per-node arrays are written.
    let mut accs = std::mem::take(&mut scratch.accs);
    let mut complete = true;
    while let Some(Label { weight: w, node }) = scratch.heap.pop() {
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
            free[0].assign_extended(parent_acc, scratch.rate_into[ni]);
        }
        scratch.acc_slot[ni] = built as u32;
        scratch.accs_built += 1;
        let acc = &accs[built];
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
            let cand = acc.extended_cdf(rate);
            if cand > scratch.best[pi] {
                scratch.best[pi] = cand;
                scratch.prev[pi] = ni as u32;
                scratch.rate_into[pi] = rate;
                scratch.heap.push(Label {
                    weight: cand,
                    node: peer,
                });
            }
        }
    }
    scratch.accs = accs;
    complete
}

/// The original owned-path formulation of the search, kept as a reference
/// implementation: every relaxation clones the node and rate vectors of
/// the tentative path and re-evaluates the full hypoexponential CDF from
/// scratch. Returns the best path per destination (`None` when
/// unreachable; the source maps to its trivial path).
///
/// This exists for differential testing (`tests/path_equivalence.rs`
/// asserts [`shortest_paths`] matches it exactly). Simulation and
/// selection code should always use [`shortest_paths`].
///
/// # Panics
///
/// Panics on the same invalid inputs as [`shortest_paths`].
pub fn shortest_paths_naive(
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
        path: OpportunisticPath::trivial(source),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn line_graph(rates: &[f64]) -> ContactGraph {
        let mut g = ContactGraph::new(rates.len() + 1);
        for (i, &r) in rates.iter().enumerate() {
            g.set_rate(NodeId(i as u32), NodeId(i as u32 + 1), r);
        }
        g
    }

    #[test]
    fn source_has_weight_one() {
        let g = line_graph(&[0.1]);
        let t = shortest_paths(&g, NodeId(0), 100.0);
        assert_eq!(t.weight_to(NodeId(0)), 1.0);
        assert_eq!(t.path_to(NodeId(0)).unwrap().hops(), 0);
    }

    #[test]
    fn unreachable_node_has_weight_zero() {
        let mut g = ContactGraph::new(3);
        g.set_rate(NodeId(0), NodeId(1), 0.1);
        let t = shortest_paths(&g, NodeId(0), 100.0);
        assert_eq!(t.weight_to(NodeId(2)), 0.0);
        assert!(t.path_to(NodeId(2)).is_none());
    }

    #[test]
    fn picks_relay_over_weak_direct_edge() {
        // 0—2 direct but very slow; 0—1—2 via two fast hops wins.
        let mut g = ContactGraph::new(3);
        g.set_rate(NodeId(0), NodeId(2), 1e-7);
        g.set_rate(NodeId(0), NodeId(1), 1e-2);
        g.set_rate(NodeId(1), NodeId(2), 1e-2);
        let t = shortest_paths(&g, NodeId(0), 3600.0);
        let p = t.path_to(NodeId(2)).unwrap();
        assert_eq!(p.hops(), 2, "expected relay path, got {:?}", p.nodes());
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn picks_fast_direct_edge_over_detour() {
        let mut g = ContactGraph::new(3);
        g.set_rate(NodeId(0), NodeId(2), 1e-2);
        g.set_rate(NodeId(0), NodeId(1), 1e-2);
        g.set_rate(NodeId(1), NodeId(2), 1e-2);
        let t = shortest_paths(&g, NodeId(0), 3600.0);
        assert_eq!(t.path_to(NodeId(2)).unwrap().hops(), 1);
    }

    #[test]
    fn path_endpoints_are_consistent() {
        let g = line_graph(&[0.1, 0.2, 0.3]);
        let t = shortest_paths(&g, NodeId(0), 50.0);
        for dest in g.nodes() {
            let p = t.path_to(dest).unwrap();
            assert_eq!(p.source(), NodeId(0));
            assert_eq!(p.destination(), dest);
        }
    }

    #[test]
    fn stored_weight_matches_reconstructed_path() {
        // The O(1) cached weight must be exactly the weight of the path
        // that path_to reconstructs.
        let mut g = ContactGraph::new(6);
        let edges = [
            (0, 1, 2e-3),
            (1, 2, 5e-3),
            (0, 2, 1e-3),
            (2, 3, 4e-3),
            (1, 4, 6e-4),
            (4, 5, 9e-3),
            (3, 5, 2e-4),
        ];
        for &(a, b, r) in &edges {
            g.set_rate(NodeId(a), NodeId(b), r);
        }
        let horizon = 1800.0;
        let t = shortest_paths(&g, NodeId(0), horizon);
        for dest in g.nodes() {
            if let Some(p) = t.path_to(dest) {
                assert_eq!(
                    t.weight_to(dest),
                    p.weight(horizon),
                    "cached vs reconstructed weight differ for n{dest}"
                );
            }
        }
    }

    #[test]
    fn matches_naive_reference_exactly() {
        let mut g = ContactGraph::new(7);
        let edges = [
            (0, 1, 2e-3),
            (1, 2, 5e-3),
            (0, 2, 1e-3),
            (2, 3, 4e-3),
            (1, 3, 1e-4),
            (3, 4, 8e-3),
            (0, 4, 5e-5),
            (4, 5, 3e-3),
            (2, 6, 7e-4),
        ];
        for &(a, b, r) in &edges {
            g.set_rate(NodeId(a), NodeId(b), r);
        }
        let horizon = 2500.0;
        let table = shortest_paths(&g, NodeId(0), horizon);
        let naive = shortest_paths_naive(&g, NodeId(0), horizon);
        for dest in g.nodes() {
            let opt = table.path_to(dest);
            let refp = naive[dest.index()].as_ref();
            match (opt, refp) {
                (None, None) => {}
                (Some(p), Some(r)) => {
                    assert_eq!(p.nodes(), r.nodes(), "route mismatch to n{dest}");
                    assert_eq!(
                        table.weight_to(dest),
                        r.weight(horizon),
                        "weight mismatch to n{dest}"
                    );
                }
                (a, b) => panic!("reachability mismatch to n{dest}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn weights_match_brute_force_on_small_graphs() {
        // Exhaustively enumerate all simple paths and compare.
        let mut g = ContactGraph::new(5);
        let edges = [
            (0, 1, 2e-3),
            (1, 2, 5e-3),
            (0, 2, 1e-3),
            (2, 3, 4e-3),
            (1, 3, 1e-4),
            (3, 4, 8e-3),
            (0, 4, 5e-5),
        ];
        for &(a, b, r) in &edges {
            g.set_rate(NodeId(a), NodeId(b), r);
        }
        let horizon = 2000.0;
        let table = shortest_paths(&g, NodeId(0), horizon);

        for dest in 1..5u32 {
            let mut visited = vec![false; 5];
            visited[0] = true;
            let mut best = 0.0;
            tests_dfs(
                &g,
                NodeId(0),
                NodeId(dest),
                &mut visited,
                &mut Vec::new(),
                horizon,
                &mut best,
            );
            let got = table.weight_to(NodeId(dest));
            assert!(
                (got - best).abs() < 1e-9,
                "dest {dest}: label-setting {got} vs brute force {best}"
            );
        }
    }

    #[test]
    fn bounded_search_matches_unbounded_with_slack_hops() {
        let mut g = ContactGraph::new(7);
        let edges = [
            (0, 1, 2e-3),
            (1, 2, 5e-3),
            (0, 2, 1e-3),
            (2, 3, 4e-3),
            (1, 3, 1e-4),
            (3, 4, 8e-3),
            (0, 4, 5e-5),
            (4, 5, 3e-3),
        ];
        for &(a, b, r) in &edges {
            g.set_rate(NodeId(a), NodeId(b), r);
        }
        let horizon = 2500.0;
        let mut scratch = ReachScratch::new();
        for src in g.nodes() {
            let full = shortest_paths(&g, src, horizon);
            let reach = bounded_shortest_paths(&g, src, horizon, 64, &mut scratch);
            let reachable: Vec<_> = full.iter_weights().collect();
            assert_eq!(reach.entries(), &reachable[..], "source {src:?}");
            for dest in g.nodes() {
                assert_eq!(
                    reach.weight_to(dest),
                    full.weight_to(dest),
                    "source {src:?} dest {dest:?}"
                );
            }
        }
        // Node 6 is isolated: never settled from 0, weight 0.
        let reach = bounded_shortest_paths(&g, NodeId(0), horizon, 64, &mut scratch);
        assert_eq!(reach.weight_to(NodeId(6)), 0.0);
    }

    #[test]
    fn bounded_search_runs_on_csr_storage() {
        use crate::graph::CsrGraph;
        let mut g = ContactGraph::new(5);
        let edges = [(0, 1, 2e-3), (1, 2, 5e-3), (2, 3, 4e-3), (0, 3, 1e-4)];
        for &(a, b, r) in &edges {
            g.set_rate(NodeId(a), NodeId(b), r);
        }
        let csr = CsrGraph::from_edges(5, edges.iter().map(|&(a, b, r)| (NodeId(a), NodeId(b), r)));
        let mut scratch = ReachScratch::new();
        let dense = bounded_shortest_paths(&g, NodeId(0), 1800.0, 64, &mut scratch);
        let sparse = bounded_shortest_paths(&csr, NodeId(0), 1800.0, 64, &mut scratch);
        // Same weights; routes may differ only where neighbor-iteration
        // order breaks exact ties, which these rates do not produce.
        assert_eq!(dense.entries(), sparse.entries());
    }

    #[test]
    fn hop_bound_truncates_reach() {
        let g = line_graph(&[0.1, 0.1, 0.1]);
        let mut scratch = ReachScratch::new();
        let one = bounded_shortest_paths(&g, NodeId(0), 100.0, 1, &mut scratch);
        assert!(one.weight_to(NodeId(1)) > 0.0);
        assert_eq!(one.weight_to(NodeId(2)), 0.0);
        let two = bounded_shortest_paths(&g, NodeId(0), 100.0, 2, &mut scratch);
        assert!(two.weight_to(NodeId(2)) > 0.0);
        assert_eq!(two.weight_to(NodeId(3)), 0.0);
        // Weights inside the bound match the unbounded search exactly.
        let full = shortest_paths(&g, NodeId(0), 100.0);
        assert_eq!(two.weight_to(NodeId(1)), full.weight_to(NodeId(1)));
        assert_eq!(two.weight_to(NodeId(2)), full.weight_to(NodeId(2)));
    }

    #[test]
    fn scratch_reuse_is_stateless_across_searches() {
        let g = line_graph(&[0.2, 0.05, 0.01]);
        let mut scratch = ReachScratch::new();
        let first = bounded_shortest_paths(&g, NodeId(0), 200.0, 8, &mut scratch);
        // A different source in between must not contaminate the repeat.
        let _ = bounded_shortest_paths(&g, NodeId(3), 200.0, 8, &mut scratch);
        let again = bounded_shortest_paths(&g, NodeId(0), 200.0, 8, &mut scratch);
        assert_eq!(first.entries(), again.entries());
    }

    /// Everything a [`PathTable`] holds, floats by bit pattern.
    type TableBits = (bool, usize, Vec<(bool, u64, Option<NodeId>, u64)>);

    fn table_bits(t: &PathTable) -> TableBits {
        let nodes = (0..t.settled.len())
            .map(|i| {
                let (w, r) = (t.weight[i].to_bits(), t.rate_into[i].to_bits());
                (t.settled[i], w, t.prev[i], r)
            })
            .collect();
        (t.complete, t.settled_count, nodes)
    }

    /// A 40-node graph with 110 LCG-chosen edges.
    fn lcg_graph() -> ContactGraph {
        lcg_graph_of(40, 110)
    }

    /// `nodes` nodes and `edges` LCG-chosen edges, rates from a palette
    /// of 90 (so exact ties occur).
    fn lcg_graph_of(nodes: u32, edges: usize) -> ContactGraph {
        let mut g = ContactGraph::new(nodes as usize);
        let mut x = 12345u64;
        for _ in 0..edges {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (a, b) = ((x >> 33) as u32 % nodes, (x >> 13) as u32 % nodes);
            if a != b {
                g.set_rate(NodeId(a), NodeId(b), 1e-4 * (1 + (x >> 50) % 90) as f64);
            }
        }
        g
    }

    fn reach_bits(r: &SparseReach) -> Vec<(NodeId, u64)> {
        r.entries().iter().map(|&(v, w)| (v, w.to_bits())).collect()
    }

    #[test]
    fn one_scratch_serves_alternating_graphs_targets_and_bounds() {
        // A 40-node graph and a 6-node line: the scratch arrays stay
        // sized for the large one while the small one is searched, so an
        // id that is out of range for the line is still a valid slot of
        // the scratch.
        let large = lcg_graph();
        let small = line_graph(&[2e-3, 4e-3, 1e-3, 3e-3, 5e-3]);

        // The free list is filled by a dense search over the large graph;
        // an early-exit search and a bounded one over the small graph
        // then refill accumulators that held longer, unrelated paths.
        let mut scratch = ReachScratch::new();
        let dense = shortest_paths_until_in(&large, NodeId(0), 1500.0, &[], &mut scratch);
        assert_eq!(
            table_bits(&dense),
            table_bits(&shortest_paths(&large, NodeId(0), 1500.0))
        );
        let free_list = scratch.accs.len();
        assert_eq!(free_list, dense.settled_count(), "dense: one per settled");
        assert!(free_list > small.node_count());
        let stop = [NodeId(3)];
        let partial = shortest_paths_until_in(&small, NodeId(5), 700.0, &stop, &mut scratch);
        assert!(!partial.is_complete());
        assert_eq!(
            table_bits(&partial),
            table_bits(&shortest_paths_until(&small, NodeId(5), 700.0, &stop))
        );
        // n5 and n4 relaxed; the target n3 ended the search and built none.
        assert_eq!(
            (partial.settled_count(), scratch.accumulators_built()),
            (3, 2)
        );
        let bounded = bounded_shortest_paths(&small, NodeId(2), 900.0, 2, &mut scratch);
        let fresh = bounded_shortest_paths(&small, NodeId(2), 900.0, 2, &mut ReachScratch::new());
        assert_eq!(reach_bits(&bounded), reach_bits(&fresh));
        // n2 and its neighbours n1, n3 relaxed; n0 and n4 are leaves.
        assert_eq!(
            (bounded.entries().len(), scratch.accumulators_built()),
            (5, 3)
        );
        assert_eq!(scratch.accs.len(), free_list, "the free list never shrinks");

        let target_sets: [&[NodeId]; 6] = [
            &[],
            &[NodeId(3), NodeId(3)],
            &[NodeId(0)],
            &[NodeId(2), NodeId(20)],
            &[NodeId(u32::MAX)],
            &[NodeId(5), NodeId(1), NodeId(4)],
        ];
        let mut partial_tables = 0;
        for round in 0..18usize {
            // large, small, large under each target set in turn.
            let g = if round % 3 == 1 { &small } else { &large };
            let source = NodeId((round * 7 % g.node_count()) as u32);
            let horizon = 900.0 + 400.0 * round as f64;
            let targets = target_sets[round / 3];
            let reused = shortest_paths_until_in(g, source, horizon, targets, &mut scratch);
            let fresh = shortest_paths_until(g, source, horizon, targets);
            assert_eq!(table_bits(&reused), table_bits(&fresh), "round {round}");
            partial_tables += usize::from(!reused.is_complete());

            let max_hops = [1, 2, 3, 64][round % 4];
            let reused = bounded_shortest_paths(g, source, horizon, max_hops, &mut scratch);
            let fresh =
                bounded_shortest_paths(g, source, horizon, max_hops, &mut ReachScratch::new());
            assert_eq!(
                reach_bits(&reused),
                reach_bits(&fresh),
                "round {round}, {max_hops} hops"
            );
        }
        assert!(partial_tables > 0, "no search stopped early");
    }

    #[test]
    fn hop_bound_leaves_build_no_accumulator() {
        // A star: from the hub every spoke is a 1-hop leaf; from a spoke
        // the hub relaxes and the other spokes are 2-hop leaves.
        let mut star = ContactGraph::new(9);
        for spoke in 1..9u32 {
            star.set_rate(NodeId(0), NodeId(spoke), 1e-3 * f64::from(spoke));
        }
        let mut scratch = ReachScratch::new();
        for (source, max_hops, settled, built) in
            [(0, 1, 9, 1), (0, 2, 9, 9), (4, 1, 2, 1), (4, 2, 9, 2)]
        {
            let reach = bounded_shortest_paths(&star, NodeId(source), 2e3, max_hops, &mut scratch);
            assert_eq!(reach.entries().len(), settled, "n{source}, {max_hops} hops");
            assert_eq!(
                scratch.accumulators_built(),
                built,
                "n{source}, {max_hops} hops"
            );
            // The leaves' weights are the unbounded search's all the same.
            let full = shortest_paths(&star, NodeId(source), 2e3);
            for &(v, w) in reach.entries() {
                assert_eq!(w.to_bits(), full.weight_to(v).to_bits());
            }
        }
    }

    #[test]
    fn lazy_reach_answers_every_read_as_the_eager_search_does() {
        // Every (source, dest) pair at bounds that bite and one that does
        // not; ids past the graph read 0 like any node out of reach.
        let g = lcg_graph();
        let mut scratch = ReachScratch::new();
        let (mut inner_reads, mut replayed, mut evaluated) = (0, 0, 0);
        for max_hops in [1, 2, 3, 4, 64] {
            for source in g.nodes() {
                let eager = bounded_shortest_paths(&g, source, 1800.0, max_hops, &mut scratch);
                let built = scratch.accumulators_built();
                let lazy = bounded_reach(&g, source, 1800.0, max_hops, &mut scratch);
                assert_eq!(scratch.accumulators_built(), built, "same nodes relax");
                assert!(lazy.settled_count() <= eager.entries().len());
                for dest in g.nodes().chain([NodeId(40), NodeId(u32::MAX)]) {
                    let (w, evaluations) = lazy.weight_to(&g, dest);
                    assert_eq!(
                        w.to_bits(),
                        eager.weight_to(dest).to_bits(),
                        "{max_hops} hops, {source} to {dest}: {w} vs {}",
                        eager.weight_to(dest)
                    );
                    inner_reads += usize::from(lazy.ids.binary_search(&dest).is_ok());
                    replayed += usize::from(evaluations > 0);
                    evaluated += evaluations;
                }
            }
        }
        // Both kinds of read occurred, and some leaves had a choice.
        assert!(
            inner_reads > 1000 && replayed > 1000,
            "{inner_reads} / {replayed}"
        );
        assert!(evaluated as usize > replayed, "{evaluated} / {replayed}");
    }

    #[test]
    fn lazy_search_settles_the_inner_ball_only() {
        // From a spoke of the star under two hops, the ball of radius one
        // is the spoke and the hub; the hub is the rim and the other seven
        // spokes are leaves, each one CDF evaluation away.
        let mut star = ContactGraph::new(9);
        for spoke in 1..9u32 {
            star.set_rate(NodeId(0), NodeId(spoke), 1e-3 * f64::from(spoke));
        }
        let mut scratch = ReachScratch::new();
        let reach = bounded_reach(&star, NodeId(4), 2e3, 2, &mut scratch);
        assert_eq!(
            (reach.settled_count(), scratch.accumulators_built()),
            (2, 2)
        );
        let full = shortest_paths(&star, NodeId(4), 2e3);
        for dest in star.nodes() {
            let (w, evaluations) = reach.weight_to(&star, dest);
            assert_eq!(w.to_bits(), full.weight_to(dest).to_bits());
            assert_eq!(
                evaluations,
                u32::from(dest != NodeId(0) && dest != NodeId(4))
            );
        }
        // Under one hop the source is its own rim: nothing but itself
        // settles, and the hub is a leaf; a spoke is out of reach.
        let reach = bounded_reach(&star, NodeId(4), 2e3, 1, &mut scratch);
        assert_eq!(reach.settled_count(), 1);
        assert_eq!(
            reach.weight_to(&star, NodeId(0)),
            (full.weight_to(NodeId(0)), 1)
        );
        assert_eq!(reach.weight_to(&star, NodeId(5)), (0.0, 0));
    }

    #[test]
    fn lazy_reach_is_no_larger_than_the_sparse_reach_it_replaces() {
        // A sparse city in miniature: 1 500 nodes of mean degree 12 under
        // three hops, where most of what the eager search settles are
        // leaves. The lazy reach pays 20 B per inner node and 24 B per
        // stage of a rim node against 16 B per settled node.
        let g = lcg_graph_of(1500, 9000);
        let mut scratch = ReachScratch::new();
        let (mut lazy_bytes, mut eager_bytes) = (0, 0);
        for source in (0..1500).step_by(50).map(NodeId) {
            let eager = bounded_shortest_paths(&g, source, 1800.0, 3, &mut scratch);
            let lazy = bounded_reach(&g, source, 1800.0, 3, &mut scratch);
            assert!(lazy.settled_count() * 2 < eager.entries().len());
            assert_eq!(lazy.ids.capacity(), lazy.ids.len());
            assert_eq!(lazy.rim_stages.capacity(), lazy.rim_stages.len());
            lazy_bytes += lazy.heap_bytes();
            eager_bytes += eager.entries.capacity() * std::mem::size_of::<(NodeId, f64)>();
        }
        assert!(
            lazy_bytes <= eager_bytes,
            "{lazy_bytes} B vs {eager_bytes} B"
        );
    }

    #[test]
    fn warm_scratch_searches_without_allocating() {
        // Dense, early-exit, bounded and inner-only searches from every
        // source, twice over: the second pass finds every buffer the
        // first one grew and moves or regrows none of them — per-node
        // arrays, heap, touched list, the ball's queue, the pop order,
        // and each recycled accumulator's four vectors.
        let g = lcg_graph();
        let pass = |scratch: &mut ReachScratch| {
            for source in g.nodes() {
                search::<_, false>(&g, source, 1800.0, &[], usize::MAX, scratch);
                search::<_, false>(
                    &g,
                    source,
                    1800.0,
                    &[NodeId(7), NodeId(31)],
                    usize::MAX,
                    scratch,
                );
                search::<_, false>(&g, source, 1800.0, &[], 2, scratch);
                search::<_, true>(&g, source, 1800.0, &[], 3, scratch);
            }
        };
        let buffers = |s: &ReachScratch| {
            let accs: Vec<_> = s.accs.iter().map(|a| a.buffers()).collect();
            let arrays = (
                s.stamp.as_ptr(),
                s.best.as_ptr(),
                s.acc_slot.as_ptr(),
                s.inner.as_ptr(),
            );
            let lists = (s.touched.capacity(), s.queue.capacity(), s.pops.capacity());
            (accs, arrays, s.heap.capacity(), lists)
        };
        let mut scratch = ReachScratch::new();
        pass(&mut scratch);
        let warm = buffers(&scratch);
        assert_eq!(warm.0.len(), 40, "a dense search builds one per node");
        pass(&mut scratch);
        assert_eq!(buffers(&scratch), warm);
    }

    #[test]
    #[should_panic(expected = "zero-hop")]
    fn bounded_rejects_zero_hops() {
        let g = line_graph(&[0.1]);
        let _ = bounded_shortest_paths(&g, NodeId(0), 100.0, 0, &mut ReachScratch::new());
    }

    #[test]
    fn iter_weights_covers_reachable_set() {
        let g = line_graph(&[0.1, 0.1]);
        let t = shortest_paths(&g, NodeId(1), 100.0);
        let all: Vec<_> = t.iter_weights().collect();
        assert_eq!(all.len(), 3);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn rejects_bad_horizon() {
        let g = line_graph(&[0.1]);
        let _ = shortest_paths(&g, NodeId(0), 0.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// On random graphs the label-setting result must match brute
            /// force enumeration of simple paths.
            #[test]
            fn matches_brute_force(
                n in 2usize..6,
                edges in prop::collection::vec((0u32..6, 0u32..6, 1e-5f64..1e-1), 1..12),
                horizon in 100.0f64..1e5,
            ) {
                let mut g = ContactGraph::new(n);
                for (a, b, r) in edges {
                    let (a, b) = (a % n as u32, b % n as u32);
                    if a != b {
                        g.set_rate(NodeId(a), NodeId(b), r);
                    }
                }
                let table = shortest_paths(&g, NodeId(0), horizon);
                for dest in 1..n as u32 {
                    let mut visited = vec![false; n];
                    visited[0] = true;
                    let mut best = 0.0;
                    super::tests_dfs(&g, NodeId(0), NodeId(dest), &mut visited,
                        &mut Vec::new(), horizon, &mut best);
                    let got = table.weight_to(NodeId(dest));
                    prop_assert!((got - best).abs() < 1e-6,
                        "dest {}: {} vs {}", dest, got, best);
                }
            }
        }
    }

    /// Shared DFS helper for the brute-force comparisons above.
    fn tests_dfs(
        g: &ContactGraph,
        cur: NodeId,
        target: NodeId,
        visited: &mut Vec<bool>,
        rates: &mut Vec<f64>,
        horizon: f64,
        best: &mut f64,
    ) {
        if cur == target {
            let w = crate::hypoexp::cdf(rates, horizon);
            if w > *best {
                *best = w;
            }
            return;
        }
        for &(peer, rate) in g.neighbors(cur) {
            if !visited[peer.index()] {
                visited[peer.index()] = true;
                rates.push(rate);
                tests_dfs(g, peer, target, visited, rates, horizon, best);
                rates.pop();
                visited[peer.index()] = false;
            }
        }
    }
}
