//! [`ReachScratch`]: the reusable workspace every search runs through.

use std::collections::BinaryHeap;

use super::reach::NO_PARENT;
use super::search::Key;
use super::{LazyReach, PathTable, SparseReach};
use crate::graph::Topology;
use crate::hypoexp::{Factors, HorizonAccumulator};
use crate::ids::NodeId;

/// The [`Factors`] of the rates a search has met, at its horizon, in an
/// open-addressed table keyed by a rate's bits: §III-B's estimator gives
/// every pair `count / elapsed` over one shared `elapsed`, so a snapshot
/// has few distinct rates (238–319 on `serve_churn`), and they all fit.
/// A slot `[rate, em1, exp]` answers only the rate whose bits it holds; a
/// lookup probes from the rate's home slot to the first slot holding it
/// or an empty one, where a miss computes the factors. The table is
/// emptied once it holds [`FULL`](Self::FULL) rates, so a probe sequence
/// stays short (emptied at half full, `paper_fig10` read 0.94–0.97× the
/// direct-mapped cache's `ops_per_s`), and at a new horizon. All-zero is
/// empty (0 is never a rate), so the slots come zeroed from the allocator
/// and a scratch that searches once pays no memset.
#[derive(Debug, Default)]
pub(super) struct FactorCache {
    /// The horizon of every held factor.
    at: f64,
    /// Slots holding a rate.
    held: usize,
    pub(super) slots: Vec<[f64; 3]>,
}

impl FactorCache {
    /// `log₂` of the slot count (24 KiB).
    const BITS: u32 = 10;
    const MASK: usize = (1 << Self::BITS) - 1;
    /// Three eighths of the slots: more than a snapshot's distinct rates.
    const FULL: usize = 3 << (Self::BITS - 3);

    pub(super) fn prepare(&mut self, horizon: f64) {
        if self.slots.is_empty() {
            self.slots = vec![[0.0; 3]; 1 << Self::BITS];
        } else if self.at.to_bits() != horizon.to_bits() {
            self.clear();
        }
        self.at = horizon;
    }

    fn clear(&mut self) {
        self.slots.fill([0.0; 3]);
        self.held = 0;
    }

    /// [`Factors::of`]`(rate, horizon)`, read from the slot that holds
    /// `rate` or computed into the empty slot that ends its probe.
    #[inline]
    pub(super) fn get(&mut self, rate: f64) -> Factors {
        let mut i = Self::slot(rate);
        loop {
            let [held, em1, exp] = self.slots[i];
            if held.to_bits() == rate.to_bits() {
                return Factors { em1, exp };
            }
            if held.to_bits() == 0 {
                return self.insert(i, rate);
            }
            i = (i + 1) & Self::MASK;
        }
    }

    /// Computes `rate`'s factors into the empty slot `i`, emptying the
    /// table first when it is full.
    #[cold]
    fn insert(&mut self, mut i: usize, rate: f64) -> Factors {
        if self.held == Self::FULL {
            self.clear();
            i = Self::slot(rate);
        }
        let factors = Factors::of(rate, self.at);
        self.slots[i] = [rate, factors.em1, factors.exp];
        self.held += 1;
        factors
    }

    /// A rate's home slot. Fibonacci hashing: the top bits of the rate's
    /// bits times 2⁶⁴/φ.
    #[inline]
    pub(super) fn slot(rate: f64) -> usize {
        (rate.to_bits().wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - Self::BITS)) as usize
    }
}

/// Reusable workspace of the label-setting search — what
/// [`bounded_shortest_paths`](super::bounded_shortest_paths), [`bounded_reach`](super::bounded_reach) and
/// [`shortest_paths_until_in`](super::shortest_paths_until_in) search through.
///
/// All per-node arrays are epoch-stamped: a search only initializes the
/// slots it actually touches, and the next search invalidates them by
/// bumping the epoch instead of clearing `O(N)` memory. The CDF
/// accumulators are recycled the same way: the ones a search built go
/// back on a free list when the next search starts and are refilled in
/// place; each rate's exponentials stay cached until another horizon.
/// Keep one scratch per thread and pass it to every call, a
/// [`LazyReach`] read included; once it is
/// warm (heap, touched list, free list and — for [`bounded_reach`](super::bounded_reach) —
/// the ball's queue and the pop order grown to the largest search it has
/// served) a search costs `O(touched)` time and calls the allocator only
/// for the table it returns — not at all when it refills a table sized
/// for the graph ([`shortest_paths_batch`](super::shortest_paths_batch)).
// A batch hands each worker its own element of a slice of scratches.
// Aligned, no cache line holds two of them, which the workers' heap and
// list lengths would fight over (`serve_churn` 1.11×, 8 of 10 pairs on
// two vCPUs).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct ReachScratch {
    pub(super) epoch: u64,
    pub(super) stamp: Vec<u64>,
    /// `wanted[i] == epoch` marks node `i` as a stop target of the
    /// current search.
    pub(super) wanted: Vec<u64>,
    /// `inner[i] == epoch` marks node `i` as within `max_hops − 1` hops
    /// of the source of the current [`bounded_reach`](super::bounded_reach) search.
    pub(super) inner: Vec<u64>,
    pub(super) settled: Vec<bool>,
    pub(super) best: Vec<f64>,
    pub(super) weight: Vec<f64>,
    pub(super) hops: Vec<u32>,
    /// Predecessor in the route tree; `u32::MAX` = none (source).
    pub(super) prev: Vec<u32>,
    pub(super) rate_into: Vec<f64>,
    /// Where in `accs` a node's accumulator lives. Written when a node
    /// that will relax settles, read only through such a node's children
    /// in the same search — never stamped, never cleared. Dead once the
    /// search ends, so [`lazy_reach`](Self::lazy_reach) reuses it to map
    /// a settled node to its index in the reach.
    pub(super) acc_slot: Vec<u32>,
    /// CDF accumulators of settled paths (with their cached per-stage
    /// exponentials), in settle order: `accs[..accs_built]` belong to the
    /// current search, the rest is the free list — buffers of earlier
    /// searches waiting to be refilled. Only a node that relaxes its
    /// edges gets one; it never shrinks, so its length is the most
    /// accumulators any one search through this scratch has built. A
    /// [`LazyReach`] read rebuilds its rim paths in the first.
    pub(super) accs: Vec<HorizonAccumulator>,
    pub(super) accs_built: usize,
    pub(super) touched: Vec<u32>,
    /// [`bounded_reach`](super::bounded_reach) only: the breadth-first queue that marked
    /// `inner`, and the nodes of the current search in settle order.
    pub(super) queue: Vec<u32>,
    pub(super) pops: Vec<u32>,
    /// [`LazyReach::weight_to`] only: by index in the reach, the epoch
    /// of the read that marked the node a rim neighbour of its leaf, and
    /// the rate of their edge.
    pub(super) marks: Vec<(u64, f64)>,
    pub(super) heap: BinaryHeap<Key>,
    pub(super) factors: FactorCache,
    /// Nodes the current search has settled, the source included.
    pub(super) settled_count: usize,
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
    pub(super) fn prepare(&mut self, n: usize) {
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
    pub(super) fn mark_inner<G: Topology>(&mut self, graph: &G, source: NodeId, radius: usize) {
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

    /// The nodes within `radius` hops of `source`, breadth first, `source`
    /// first: everything a search from it under that hop bound can
    /// settle, found without weighing a path. The slice lasts until the
    /// scratch is next used.
    pub(crate) fn ball<G: Topology>(&mut self, graph: &G, source: NodeId, radius: usize) -> &[u32] {
        self.prepare(graph.node_count());
        self.mark_inner(graph, source, radius);
        &self.queue
    }

    /// First-touch initialization of node `i` in the current epoch: the
    /// fields a read can reach before the search writes them. `weight`
    /// and `hops` are written when the node settles, and `rate_into`
    /// with every `prev` but the source's, which no read follows.
    #[inline]
    pub(super) fn touch(&mut self, i: usize) {
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.settled[i] = false;
            self.best[i] = f64::NEG_INFINITY;
            self.prev[i] = u32::MAX;
            self.touched.push(i as u32);
        }
    }

    /// Refills `table` with the last search's outcome, a dense,
    /// route-carrying table over `n` nodes. The table's arrays are
    /// cleared and regrown in place: one that already holds `n` nodes'
    /// worth of capacity is refilled without allocating. Routes are
    /// scattered for settled nodes alone: [`PathTable::path_to`] walks
    /// settled chains only, and an unsettled node's label is not final.
    pub(super) fn path_table_into(
        &self,
        n: usize,
        source: NodeId,
        complete: bool,
        table: &mut PathTable,
    ) {
        fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
            v.clear();
            v.resize(n, value);
        }
        table.source = source;
        table.settled_count = self.settled_count;
        table.partial = !complete;
        refill(&mut table.prev, n, None);
        refill(&mut table.rate_into, n, 0.0);
        refill(&mut table.weight, n, 0.0);
        refill(&mut table.settled, n, false);
        for &i in &self.touched {
            let i = i as usize;
            if self.settled[i] {
                table.settled[i] = true;
                table.weight[i] = self.weight[i];
                if self.prev[i] != u32::MAX {
                    table.prev[i] = Some(NodeId(self.prev[i]));
                    table.rate_into[i] = self.rate_into[i];
                }
            }
        }
    }

    /// The last search's settled set as `(destination, weight)` entries
    /// in ascending id order — sorted as bare `u32` ids, weights gathered
    /// afterwards.
    pub(super) fn sparse_reach(&mut self) -> SparseReach {
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

    /// The last [`bounded_reach`](super::bounded_reach) search as a [`LazyReach`], each slice
    /// allocated at its final size; the accumulators stay behind for the
    /// next search to refill. Linear after one sort of the bare ids: a
    /// node's index in the reach is scattered into `acc_slot`, so parents
    /// and the pop order are one lookup each.
    pub(super) fn lazy_reach(&mut self, horizon: f64, max_hops: usize) -> LazyReach {
        let mut ids: Box<[NodeId]> = self.pops.iter().map(|&v| NodeId(v)).collect();
        ids.sort_unstable();
        for (i, v) in ids.iter().enumerate() {
            self.acc_slot[v.index()] = i as u32;
        }
        let index = &self.acc_slot;
        LazyReach {
            horizon,
            max_hops,
            weights: ids.iter().map(|v| self.weight[v.index()]).collect(),
            parents: ids
                .iter()
                .map(|v| match self.prev[v.index()] {
                    u32::MAX => NO_PARENT,
                    parent => index[parent as usize],
                })
                .collect(),
            pops: self.pops.iter().map(|&v| index[v as usize]).collect(),
            ids,
        }
    }

    /// A new epoch that stamps the marks of a [`LazyReach`] read over a
    /// reach of `len` nodes, then the free list's first accumulator and
    /// the factor cache at `horizon`, where the read rebuilds a rim path:
    /// no search reads that accumulator between the one that built the
    /// reach and the next, and each search starts an epoch of its own.
    pub(super) fn replay_workspace(
        &mut self,
        horizon: f64,
        len: usize,
    ) -> (
        &mut [(u64, f64)],
        u64,
        &mut HorizonAccumulator,
        &mut FactorCache,
    ) {
        if self.accs.is_empty() {
            self.accs.push(HorizonAccumulator::new(horizon));
        }
        self.factors.prepare(horizon);
        if self.marks.len() < len {
            self.marks.resize(len, (0, 0.0));
        }
        self.epoch += 1;
        (
            &mut self.marks,
            self.epoch,
            &mut self.accs[0],
            &mut self.factors,
        )
    }
}
