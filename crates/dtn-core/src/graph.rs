//! The network contact graph `G(V, E)`.
//!
//! Vertices are mobile nodes; an undirected edge `e_ij` with weight `λ_ij`
//! models the Poisson contact process between nodes `i` and `j` (§III-B of
//! the paper). The graph is the input to opportunistic-path search
//! ([`crate::path`]) and NCL selection ([`crate::ncl`]); re-derived from
//! the rates at every refresh, never edited, it is built as a [`CsrGraph`].

use crate::ids::NodeId;
use crate::rate::RateTable;
use crate::time::Time;

/// Undirected contact graph with exponential contact rates as edge
/// weights, edited one pair at a time.
///
/// # Example
///
/// ```
/// use dtn_core::graph::ContactGraph;
/// use dtn_core::ids::NodeId;
///
/// let mut g = ContactGraph::new(3);
/// g.set_rate(NodeId(0), NodeId(1), 0.5);
/// assert_eq!(g.rate(NodeId(1), NodeId(0)), Some(0.5));
/// assert_eq!(g.rate(NodeId(1), NodeId(2)), None);
/// assert_eq!(g.degree(NodeId(0)), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ContactGraph {
    /// adjacency[i] = sorted-by-insertion list of (neighbor, rate)
    adjacency: Vec<Vec<(NodeId, f64)>>,
}

impl ContactGraph {
    /// Creates a graph of `nodes` isolated nodes.
    pub fn new(nodes: usize) -> Self {
        ContactGraph {
            adjacency: vec![Vec::new(); nodes],
        }
    }

    /// Builds the graph from every pair in a [`RateTable`] that has met at
    /// least once, using the rates estimated at time `now`.
    ///
    /// # Example
    ///
    /// ```
    /// use dtn_core::graph::ContactGraph;
    /// use dtn_core::ids::NodeId;
    /// use dtn_core::rate::RateTable;
    /// use dtn_core::time::Time;
    ///
    /// let mut table = RateTable::new(3, Time::ZERO);
    /// table.record(NodeId(0), NodeId(1), Time(50));
    /// let g = ContactGraph::from_rate_table(&table, Time(100));
    /// assert_eq!(g.degree(NodeId(0)), 1);
    /// ```
    pub fn from_rate_table(table: &RateTable, now: Time) -> Self {
        let mut g = ContactGraph::new(table.node_count());
        for (a, b, rate) in table.iter_rates(now) {
            g.set_rate(a, b, rate);
        }
        g
    }

    /// Number of nodes (including isolated ones).
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Sets (or replaces) the contact rate of the pair `a`–`b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`, either node is out of range, or `rate` is not
    /// finite and positive.
    pub fn set_rate(&mut self, a: NodeId, b: NodeId, rate: f64) {
        assert_ne!(a, b, "a node does not contact itself");
        assert!(
            rate.is_finite() && rate > 0.0,
            "contact rate must be finite and positive, got {rate}"
        );
        let n = self.adjacency.len();
        assert!(
            a.index() < n && b.index() < n,
            "node out of range for graph of {n} nodes"
        );
        Self::upsert(&mut self.adjacency[a.index()], b, rate);
        Self::upsert(&mut self.adjacency[b.index()], a, rate);
    }

    fn upsert(list: &mut Vec<(NodeId, f64)>, peer: NodeId, rate: f64) {
        if let Some(entry) = list.iter_mut().find(|(p, _)| *p == peer) {
            entry.1 = rate;
        } else {
            list.push((peer, rate));
        }
    }

    /// The contact rate of the pair, or `None` if they never meet.
    pub fn rate(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.adjacency
            .get(a.index())?
            .iter()
            .find(|(p, _)| *p == b)
            .map(|(_, r)| *r)
    }

    /// Neighbors of `node` with their contact rates; none for a node
    /// out of range.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, f64)] {
        self.adjacency.get(node.index()).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct nodes `node` ever meets; 0 for a node out of
    /// range.
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }

    /// Iterates over all node ids of the graph.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adjacency.len() as u32).map(NodeId)
    }
}

/// Read-only view of a contact graph, abstracting over its storage.
///
/// Path search ([`crate::path`]) and NCL selection ([`crate::ncl`]) are
/// generic over this trait. The product runs them on [`CsrGraph`]s only;
/// tests, examples and the reference scheme run them on the
/// [`ContactGraph`]s they write, which makes every differential against
/// the reference a storage differential as well.
///
/// Sealed: those two are its only implementations, and each refuses a
/// rate that is not finite and positive when it is built or edited, so
/// a search reads every rate unchecked.
pub trait Topology: sealed::Sealed {
    /// Number of nodes (including isolated ones).
    fn node_count(&self) -> usize;

    /// Neighbors of `node` with their contact rates; none for a node
    /// out of range.
    fn neighbors(&self, node: NodeId) -> &[(NodeId, f64)];

    /// Number of distinct nodes `node` ever meets; 0 for a node out of
    /// range.
    fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }
}

mod sealed {
    /// What keeps [`Topology`](super::Topology) to this module's two
    /// implementations.
    pub trait Sealed {}
    impl Sealed for super::ContactGraph {}
    impl Sealed for super::CsrGraph {}
}

impl Topology for ContactGraph {
    fn node_count(&self) -> usize {
        ContactGraph::node_count(self)
    }

    fn neighbors(&self, node: NodeId) -> &[(NodeId, f64)] {
        ContactGraph::neighbors(self, node)
    }
}

/// Compressed-sparse-row contact graph: the one layout the product builds.
///
/// Stores the same undirected weighted graph as [`ContactGraph`] in two
/// flat arrays: `offsets[i]..offsets[i + 1]` indexes the entry slice of
/// node `i`. Per-node overhead is one `u32`; each directed half-edge is
/// one `(NodeId, f64)` entry. Neighbors are sorted by ascending id,
/// which [`CsrGraph::rate`] exploits with a binary search.
///
/// The graph is build-once: there is no `set_rate`. Rebuild from a
/// [`RateTable`] (or edges) when rates change.
///
/// # Example
///
/// ```
/// use dtn_core::graph::{CsrGraph, Topology};
/// use dtn_core::ids::NodeId;
///
/// let g = CsrGraph::from_edges(3, [(NodeId(0), NodeId(1), 0.5)]);
/// assert_eq!(g.rate(NodeId(1), NodeId(0)), Some(0.5));
/// assert_eq!(g.degree(NodeId(0)), 1);
/// assert_eq!(g.degree(NodeId(2)), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CsrGraph {
    /// `offsets[i]..offsets[i + 1]` bounds node `i`'s entries; length
    /// `node_count + 1`. u32 suffices for < 4 B directed half-edges.
    offsets: Vec<u32>,
    /// Directed half-edges `(neighbor, rate)`, sorted by ascending
    /// neighbor id within each node's slice.
    entries: Vec<(NodeId, f64)>,
}

impl CsrGraph {
    /// Builds the graph from undirected edges `(a, b, rate)`.
    ///
    /// Duplicate pairs keep the last rate given, matching
    /// [`ContactGraph::set_rate`] replace semantics.
    ///
    /// # Panics
    ///
    /// Panics if any edge has `a == b`, a node out of range, or a rate
    /// that is not finite and positive.
    pub fn from_edges(
        nodes: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId, f64)>,
    ) -> Self {
        let mut pairs: Vec<(NodeId, NodeId, f64)> = Vec::new();
        for (a, b, rate) in edges {
            assert_ne!(a, b, "a node does not contact itself");
            assert!(
                rate.is_finite() && rate > 0.0,
                "contact rate must be finite and positive, got {rate}"
            );
            assert!(
                a.index() < nodes && b.index() < nodes,
                "node out of range for graph of {nodes} nodes"
            );
            pairs.push((a.min(b), a.max(b), rate));
        }
        // Stable, so of a pair given twice the later rate is the later
        // entry, and it overwrites the one kept.
        pairs.sort_by_key(|&(lo, hi, _)| (lo, hi));
        pairs.dedup_by(|later, kept| {
            let same = (later.0, later.1) == (kept.0, kept.1);
            if same {
                kept.2 = later.2;
            }
            same
        });
        CsrGraph::from_pairs(nodes, || pairs.iter().copied())
    }

    /// Builds the graph from every pair in a [`RateTable`] that has met
    /// at least once, using the rates estimated at time `now`. Same rows,
    /// entry for entry, as [`ContactGraph::from_rate_table`].
    pub fn from_rate_table(table: &RateTable, now: Time) -> Self {
        CsrGraph::from_pairs(table.node_count(), || table.iter_rates(now))
    }

    /// [`CsrGraph::from_rate_table`] with each pair weighted by its
    /// regime-tracking rate `1 / max(ewma_gap, now − last_contact)`
    /// instead of the cumulative time average. Pairs that have gone
    /// silent see their rates decay, so the graph reflects the *current*
    /// contact regime — the view online NCL re-election needs to demote
    /// hubs that stopped meeting anyone.
    pub fn from_current_rates(table: &RateTable, now: Time) -> Self {
        CsrGraph::from_pairs(table.node_count(), || table.iter_current_rates(now))
    }

    /// The counting build. `pairs` yields every edge once, as
    /// `(lo, hi, rate)` in ascending `(lo, hi)` order, and is walked
    /// twice: once to count each node's half-edges, once to place them.
    /// Every row comes out in ascending id without a sort, because the
    /// pairs that end at `i` are walked before the pairs that start there.
    /// Every rate is finite and positive: [`from_edges`](Self::from_edges)
    /// checks its own, and a rate table yields `count / elapsed` or
    /// `1 / max(gap, silence)` over whole seconds.
    fn from_pairs<I>(nodes: usize, pairs: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (NodeId, NodeId, f64)>,
    {
        let mut offsets = vec![0u32; nodes + 1];
        for (lo, hi, rate) in pairs() {
            debug_assert!(
                rate.is_finite() && rate > 0.0,
                "contact rate must be finite and positive, got {rate}"
            );
            offsets[lo.index() + 1] += 1;
            offsets[hi.index() + 1] += 1;
        }
        for i in 0..nodes {
            offsets[i + 1] += offsets[i];
        }
        let mut entries = vec![(NodeId(0), 0.0); offsets[nodes] as usize];
        // `offsets[i]` is the next free entry of row `i` during this pass.
        for (lo, hi, rate) in pairs() {
            for (from, to) in [(lo, hi), (hi, lo)] {
                entries[offsets[from.index()] as usize] = (to, rate);
                offsets[from.index()] += 1;
            }
        }
        // Each row's start has moved on to the next row's: shift back.
        offsets.copy_within(0..nodes, 1);
        offsets[0] = 0;
        CsrGraph { offsets, entries }
    }

    /// A graph from its two arrays as given: NCL selection's induced
    /// communities, whose rows keep the parent's (ascending) order.
    pub(crate) fn from_rows(offsets: Vec<u32>, entries: Vec<(NodeId, f64)>) -> Self {
        debug_assert_eq!(offsets.last().map(|&e| e as usize), Some(entries.len()));
        CsrGraph { offsets, entries }
    }

    /// The contact rate of the pair, or `None` if they never meet.
    pub fn rate(&self, a: NodeId, b: NodeId) -> Option<f64> {
        let list = Topology::neighbors(self, a);
        let i = list.binary_search_by_key(&b, |&(p, _)| p).ok()?;
        Some(list[i].1)
    }

    /// Iterates over all node ids of the graph.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }
}

impl Topology for CsrGraph {
    fn node_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    fn neighbors(&self, node: NodeId) -> &[(NodeId, f64)] {
        match self.offsets.get(node.index()..node.index() + 2) {
            Some(&[lo, hi]) => &self.entries[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::RateTable;

    /// Undirected edges: each is listed at both of its endpoints.
    fn edge_count<G: Topology>(g: &G) -> usize {
        let nodes = (0..g.node_count() as u32).map(NodeId);
        nodes.map(|i| g.degree(i)).sum::<usize>() / 2
    }

    #[test]
    fn empty_graph() {
        let g = ContactGraph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(edge_count(&g), 0);
        assert_eq!(g.degree(NodeId(0)), 0);
        assert_eq!(g.rate(NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn set_rate_is_symmetric_and_replaces() {
        let mut g = ContactGraph::new(3);
        g.set_rate(NodeId(0), NodeId(1), 0.25);
        assert_eq!(g.rate(NodeId(0), NodeId(1)), Some(0.25));
        assert_eq!(g.rate(NodeId(1), NodeId(0)), Some(0.25));
        g.set_rate(NodeId(1), NodeId(0), 0.5);
        assert_eq!(g.rate(NodeId(0), NodeId(1)), Some(0.5));
        assert_eq!(edge_count(&g), 1);
    }

    #[test]
    fn neighbors_reflect_edges() {
        let mut g = ContactGraph::new(4);
        g.set_rate(NodeId(0), NodeId(1), 0.1);
        g.set_rate(NodeId(0), NodeId(2), 0.2);
        let mut peers: Vec<u32> = g.neighbors(NodeId(0)).iter().map(|(p, _)| p.0).collect();
        peers.sort_unstable();
        assert_eq!(peers, vec![1, 2]);
        assert_eq!(g.degree(NodeId(3)), 0);
    }

    #[test]
    fn from_rate_table_carries_rates() {
        let mut t = RateTable::new(3, Time::ZERO);
        t.record(NodeId(0), NodeId(2), Time(10));
        t.record(NodeId(0), NodeId(2), Time(20));
        let g = ContactGraph::from_rate_table(&t, Time(100));
        assert_eq!(edge_count(&g), 1);
        assert_eq!(g.rate(NodeId(0), NodeId(2)), Some(0.02));
    }

    #[test]
    fn nodes_iterates_all() {
        let g = ContactGraph::new(3);
        let ids: Vec<_> = g.nodes().collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    /// Every row of `g`: neighbour ids and rate bits, in order.
    fn rows<G: Topology>(g: &G) -> Vec<Vec<(NodeId, u64)>> {
        let row = |i| {
            g.neighbors(NodeId(i))
                .iter()
                .map(|&(p, r)| (p, r.to_bits()))
        };
        (0..g.node_count() as u32)
            .map(|i| row(i).collect())
            .collect()
    }

    /// The premise of building every graph as CSR in one counting pass:
    /// on seeded tables of 2–300 nodes — pairs that met once, pairs that
    /// met often, pairs silent for a while — the counting builds list
    /// every row exactly as the sorting build and the adjacency lists do,
    /// for the cumulative and the current rates alike.
    #[test]
    fn csr_matches_contact_graph_from_rate_table() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |bound: u64| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (x >> 33) % bound
        };
        for n in [2u64, 3, 7, 40, 300] {
            let mut t = RateTable::new(n as usize, Time::ZERO);
            for at in 1..=3 * n {
                let (a, b) = (NodeId(draw(n) as u32), NodeId(draw(n) as u32));
                // A third of the pairs drawn meet again, a few times.
                for again in 0..1 + draw(3) * draw(4) {
                    if a != b {
                        t.record(a, b, Time(10 * at + 7 * again));
                    }
                }
            }
            let now = Time(40 * n);
            let builds: [(CsrGraph, Vec<_>); 2] = [
                (
                    CsrGraph::from_rate_table(&t, now),
                    t.iter_rates(now).collect(),
                ),
                (
                    CsrGraph::from_current_rates(&t, now),
                    t.iter_current_rates(now).collect(),
                ),
            ];
            for (counted, pairs) in builds {
                let mut lists = ContactGraph::new(n as usize);
                for &(a, b, rate) in &pairs {
                    lists.set_rate(a, b, rate);
                }
                let sorted = CsrGraph::from_edges(n as usize, pairs.iter().copied());
                assert_eq!(rows(&counted), rows(&lists), "{n} nodes");
                assert_eq!(rows(&counted), rows(&sorted), "{n} nodes");
                assert_eq!(edge_count(&counted), pairs.len());
                for (a, b, rate) in pairs {
                    assert_eq!(counted.rate(b, a), Some(rate));
                }
            }
            let adjacency = ContactGraph::from_rate_table(&t, now);
            assert_eq!(rows(&CsrGraph::from_rate_table(&t, now)), rows(&adjacency));
        }
    }

    #[test]
    fn csr_neighbors_are_sorted_and_symmetric() {
        let g = CsrGraph::from_edges(
            4,
            [
                (NodeId(2), NodeId(0), 0.3),
                (NodeId(0), NodeId(1), 0.1),
                (NodeId(3), NodeId(0), 0.2),
            ],
        );
        let peers: Vec<u32> = Topology::neighbors(&g, NodeId(0))
            .iter()
            .map(|&(p, _)| p.0)
            .collect();
        assert_eq!(peers, vec![1, 2, 3]);
        assert_eq!(g.rate(NodeId(3), NodeId(0)), Some(0.2));
        assert_eq!(g.rate(NodeId(1), NodeId(2)), None);
        assert_eq!(edge_count(&g), 3);
    }

    #[test]
    fn csr_duplicate_pairs_keep_last_rate() {
        let g = CsrGraph::from_edges(
            3,
            [(NodeId(0), NodeId(1), 0.1), (NodeId(1), NodeId(0), 0.9)],
        );
        assert_eq!(g.rate(NodeId(0), NodeId(1)), Some(0.9));
        assert_eq!(edge_count(&g), 1);
        assert_eq!(Topology::degree(&g, NodeId(0)), 1);
    }

    #[test]
    fn csr_empty_and_isolated_nodes() {
        let g = CsrGraph::from_edges(3, []);
        assert_eq!(Topology::node_count(&g), 3);
        assert_eq!(edge_count(&g), 0);
        assert_eq!(Topology::degree(&g, NodeId(2)), 0);
        let empty = CsrGraph::default();
        assert_eq!(Topology::node_count(&empty), 0);
        let unmet = CsrGraph::from_rate_table(&RateTable::new(4, Time::ZERO), Time(100));
        assert_eq!((Topology::node_count(&unmet), edge_count(&unmet)), (4, 0));
    }

    /// Both storages answer every read alike, ids past the graph included:
    /// an out-of-range node has an empty row, degree 0 and no rate.
    #[test]
    fn both_storages_answer_every_read_alike_past_the_graph() {
        let edges = [
            (NodeId(0), NodeId(3), 0.3),
            (NodeId(2), NodeId(1), 0.1),
            (NodeId(3), NodeId(2), 0.2),
            (NodeId(1), NodeId(0), 0.4),
        ];
        let n = 5u32;
        let csr = CsrGraph::from_edges(n as usize, edges);
        let mut lists = ContactGraph::new(n as usize);
        for (a, b, rate) in edges {
            lists.set_rate(a, b, rate);
        }
        for a in (0..n + 2).map(NodeId) {
            let mut row = ContactGraph::neighbors(&lists, a).to_vec();
            row.sort_by_key(|&(p, _)| p);
            assert_eq!(Topology::neighbors(&csr, a), row, "{a}");
            assert_eq!(
                Topology::neighbors(&lists, a),
                ContactGraph::neighbors(&lists, a)
            );
            assert_eq!(
                Topology::degree(&csr, a),
                ContactGraph::degree(&lists, a),
                "{a}"
            );
            assert_eq!(
                Topology::degree(&lists, a),
                ContactGraph::degree(&lists, a),
                "{a}"
            );
            for b in (0..n + 2).map(NodeId) {
                assert_eq!(csr.rate(a, b), lists.rate(a, b), "{a}–{b}");
            }
        }
        assert_eq!(csr.rate(NodeId(6), NodeId(0)), None);
        assert_eq!(Topology::degree(&CsrGraph::default(), NodeId(0)), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn csr_rejects_out_of_range() {
        let _ = CsrGraph::from_edges(2, [(NodeId(0), NodeId(5), 0.1)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_non_positive_rate() {
        let mut g = ContactGraph::new(2);
        g.set_rate(NodeId(0), NodeId(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut g = ContactGraph::new(2);
        g.set_rate(NodeId(0), NodeId(7), 0.1);
    }
}
