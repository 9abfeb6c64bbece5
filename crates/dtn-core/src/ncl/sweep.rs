//! The Eq. 3 sweep: community-scoped metrics, for every node or for the
//! candidates that can still reach the top `k`.
//!
//! One evaluator ([`Sweep::metric`]) scores a node; one fan-out
//! ([`Sweep::evaluate`]) runs it over a batch of nodes on the available
//! workers. [`scoped_metrics`] is the batch "every node";
//! [`select_central_nodes_scoped`] orders the nodes by an upper bound on
//! their metric, evaluates them a batch at a time and stops when the
//! `k`-th best exact metric is strictly above every bound left. Pruning
//! changes which nodes are evaluated, never what an evaluated node
//! scores, so the selection equals `top_k(scoped_metrics(..))` to the
//! bit.

use super::{top_k, CentralityScore, CommunityPartition};
use crate::graph::{CsrGraph, Topology};
use crate::hypoexp::weight_cap;
use crate::ids::NodeId;
use crate::par;
use crate::path::{self, ReachScratch};

/// Candidates evaluated between two looks at the stop rule. Fixed, so
/// the work a selection does is the same on any number of workers; large
/// enough that the wait for a batch's last search, which no worker can
/// share, is a small part of the batch.
pub(super) const BATCH: usize = 128;

/// What a selection cost, counted: the same on every machine and every
/// worker count, so a bound that stops pruning shows as a number.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepWork {
    /// Path searches run: nodes evaluated in a community of two or more.
    pub searches_run: u64,
    /// Nodes whose metric was never computed, because their upper bound
    /// was below the `k`-th best exact metric.
    pub candidates_pruned: u64,
    /// Communities of the partition swept.
    pub communities: u64,
}

impl std::ops::AddAssign for SweepWork {
    fn add_assign(&mut self, other: Self) {
        self.searches_run += other.searches_run;
        self.candidates_pruned += other.candidates_pruned;
        self.communities += other.communities;
    }
}

/// The graph as the sweep sees it: members bucketed by community, and
/// the induced subgraph of every community a node has been evaluated in.
///
/// An induced subgraph is a [`CsrGraph`] whose local ids are positions in
/// the ascending member list, each row the parent's row with non-members
/// dropped, in the parent's order. With a single community it is the
/// parent itself — same ids, same rows — which is what lets
/// [`all_metrics`](super::all_metrics) be this sweep over one community
/// and still sum Eq. 3 in the order its definition reads.
struct Sweep<'a, G> {
    graph: &'a G,
    partition: &'a CommunityPartition,
    horizon: f64,
    max_hops: Option<usize>,
    /// One per worker of the fan-out, kept from batch to batch.
    spaces: Vec<Workspace>,
    /// Node ids grouped by community, ascending within each.
    members: Vec<NodeId>,
    /// Community `c` owns `members[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    /// A node's position among its community's members: its local id.
    local_of: Vec<u32>,
    /// Per community, built when the first of its nodes is evaluated.
    induced: Vec<Option<CsrGraph>>,
}

impl<'a, G: Topology + Sync> Sweep<'a, G> {
    /// Buckets the nodes by community in one counting-sort pass.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover exactly this graph's nodes.
    fn new(
        graph: &'a G,
        partition: &'a CommunityPartition,
        horizon: f64,
        max_hops: Option<usize>,
        workers: usize,
    ) -> Self {
        let n = graph.node_count();
        assert_eq!(
            partition.node_count(),
            n,
            "partition must cover exactly the graph's nodes"
        );
        let nodes = (0..n as u32).map(NodeId);
        let community = |node: NodeId| partition.community_of(node) as usize;
        let mut starts = vec![0u32; partition.count() + 1];
        for node in nodes.clone() {
            starts[community(node) + 1] += 1;
        }
        for c in 0..partition.count() {
            starts[c + 1] += starts[c];
        }
        let mut filled = vec![0u32; partition.count()];
        let mut members = vec![NodeId(0); n];
        let mut local_of = Vec::with_capacity(n);
        for node in nodes {
            let c = community(node);
            local_of.push(filled[c]);
            members[(starts[c] + filled[c]) as usize] = node;
            filled[c] += 1;
        }
        Sweep {
            graph,
            partition,
            horizon,
            max_hops,
            spaces: (0..workers).map(|_| Workspace::default()).collect(),
            members,
            starts,
            local_of,
            induced: (0..partition.count()).map(|_| None).collect(),
        }
    }

    /// Eq. 3's normalisation `N − 1`; 1 on a graph of fewer than two
    /// nodes, where no node reaches another and every metric is 0.
    fn norm(&self) -> f64 {
        (self.graph.node_count().max(2) - 1) as f64
    }

    /// Number of members of `node`'s community, `node` included.
    fn community_size(&self, node: NodeId) -> usize {
        let c = self.partition.community_of(node) as usize;
        (self.starts[c + 1] - self.starts[c]) as usize
    }

    /// Builds the induced subgraph of `node`'s community, unless it
    /// exists or the community is `node` alone.
    fn induce(&mut self, node: NodeId) {
        let community = self.partition.community_of(node);
        let c = community as usize;
        if self.induced[c].is_some() || self.community_size(node) < 2 {
            return;
        }
        let members = &self.members[self.starts[c] as usize..self.starts[c + 1] as usize];
        let mut offsets: Vec<u32> = Vec::with_capacity(members.len() + 1);
        offsets.push(0);
        let mut entries: Vec<(NodeId, f64)> = Vec::new();
        for &member in members {
            for &(peer, rate) in self.graph.neighbors(member) {
                if self.partition.community_of(peer) == community {
                    entries.push((NodeId(self.local_of[peer.index()]), rate));
                }
            }
            offsets.push(entries.len() as u32);
        }
        self.induced[c] = Some(CsrGraph::from_rows(offsets, entries));
    }

    /// The induced subgraph of `node`'s community; `None` when the
    /// community is `node` alone.
    fn induced_of(&self, node: NodeId) -> Option<&CsrGraph> {
        (self.community_size(node) >= 2).then(|| {
            self.induced[self.partition.community_of(node) as usize]
                .as_ref()
                .expect("induced before the fan-out")
        })
    }

    /// The evaluator: `node`'s community-scoped Eq. 3 metric, by one path
    /// search from it in its community's induced subgraph.
    fn metric(&self, node: NodeId, scratch: &mut ReachScratch) -> f64 {
        // A one-node community reaches nobody: metric 0, and it has no
        // induced graph to search.
        let Some(induced) = self.induced_of(node) else {
            return 0.0;
        };
        let local = NodeId(self.local_of[node.index()]);
        let sum: f64 = match self.max_hops {
            None => {
                let table =
                    path::shortest_paths_until_in(induced, local, self.horizon, &[], scratch);
                (0..induced.node_count() as u32)
                    .map(NodeId)
                    .filter(|&j| j != local)
                    .map(|j| table.weight_to(j))
                    .sum()
            }
            Some(bound) => {
                path::bounded_shortest_paths(induced, local, self.horizon, bound, scratch)
                    .entries()
                    .iter()
                    .filter(|&&(j, _)| j != local)
                    .map(|&(_, w)| w)
                    .sum()
            }
        };
        sum / self.norm()
    }

    /// The fan-out: `score` of every item of `batch`, in batch order, the
    /// community of each item's `node` induced first. One spawn per call,
    /// a [`Workspace`] of its own for each worker, items handed out one
    /// at a time.
    fn evaluate<T: Sync, R: Send>(
        &mut self,
        batch: &[T],
        node: impl Fn(&T) -> NodeId,
        score: impl Fn(&Self, &mut Workspace, &T) -> R + Sync,
    ) -> Vec<R> {
        for item in batch {
            self.induce(node(item));
        }
        // The workspaces leave the sweep for the call, so the workers can
        // read the sweep while each writes its own.
        let mut spaces = std::mem::take(&mut self.spaces);
        let scores = par::map_on(batch, &mut spaces, |space, item| score(self, space, item));
        self.spaces = spaces;
        scores
    }

    /// Number of other members of `node`'s community within `max_hops`
    /// hops of it along in-community contacts (any number of hops when
    /// `None`) — a superset of what the path search from `node` settles.
    fn reach(&self, node: NodeId, space: &mut Workspace) -> usize {
        let Some(induced) = self.induced_of(node) else {
            return 0;
        };
        // Without a hop bound every node of a connected component reaches
        // the same nodes: one traversal answers for all of them.
        let shared = self.max_hops.is_none();
        if shared {
            if space.component.is_empty() {
                space.component = vec![u32::MAX; self.graph.node_count()];
            }
            if space.component[node.index()] != u32::MAX {
                return space.component[node.index()] as usize;
            }
        }
        let local = NodeId(self.local_of[node.index()]);
        let radius = self.max_hops.unwrap_or(usize::MAX);
        let ball = space.scratch.ball(induced, local, radius);
        let others = ball.len() - 1;
        if shared {
            let c = self.partition.community_of(node) as usize;
            let members = &self.members[self.starts[c] as usize..];
            for &reached in ball {
                space.component[members[reached as usize].index()] = others as u32;
            }
        }
        others
    }

    /// A candidate's metric, unless counting the nodes its search could
    /// settle (tier 2) puts its bound below `floor`.
    fn refine_and_score(
        &self,
        candidate: &Candidate,
        floor: f64,
        space: &mut Workspace,
    ) -> Option<f64> {
        let node = candidate.node;
        let others = self.reach(node, space);
        let bound = others as f64 * candidate.cap / self.norm();
        if floor > bound {
            return None;
        }
        let metric = self.metric(node, &mut space.scratch);
        debug_assert!(
            metric <= bound,
            "C_{node} = {metric} above its bound {bound}"
        );
        Some(metric)
    }
}

/// What one worker of the fan-out keeps between items.
#[derive(Default)]
struct Workspace {
    scratch: ReachScratch,
    /// Selection without a hop bound only: per node, how many others its
    /// connected component holds, once one of them has been traversed.
    component: Vec<u32>,
}

/// Computes the community-scoped NCL metric for every node, in node-id
/// order.
///
/// Node `i`'s score is `Σ_{j ∈ community(i), j≠i} p_ij(T) / (N−1)`:
/// the §IV metric with path search confined to `i`'s community, still
/// normalized by the global population so scores remain comparable
/// across communities when rankings are merged. With `max_hops` set,
/// each per-community search is additionally hop-bounded. The per-node
/// searches are independent and run on all available hardware threads
/// ([`crate::par`]). A graph of fewer than two nodes, a horizon that is
/// not finite and positive, or `max_hops == Some(0)` scores every node 0.
///
/// # Panics
///
/// Panics if the partition does not cover exactly this graph's nodes.
pub fn scoped_metrics<G: Topology + Sync>(
    graph: &G,
    partition: &CommunityPartition,
    horizon: f64,
    max_hops: Option<usize>,
) -> Vec<CentralityScore> {
    let mut sweep = Sweep::new(graph, partition, horizon, max_hops, par::workers());
    let nodes: Vec<NodeId> = (0..graph.node_count() as u32).map(NodeId).collect();
    sweep.evaluate(
        &nodes,
        |&node| node,
        |sweep, space, &node| CentralityScore {
            node,
            metric: sweep.metric(node, &mut space.scratch),
        },
    )
}

/// A node waiting to be evaluated.
struct Candidate {
    node: NodeId,
    /// No less than any path weight out of `node`: [`weight_cap`] of its
    /// fastest in-community contact.
    cap: f64,
    /// No less than `node`'s metric: `cap` for every other member of its
    /// community (tier 1).
    bound: f64,
}

/// Selects the top `k` central nodes from community-scoped metrics,
/// merging the per-community rankings into one list (metric descending,
/// node id ascending) — `top_k(scoped_metrics(..))` to the bit, without
/// evaluating the nodes that cannot be in it.
/// [`SelectionStrategy::PathMetric`](super::SelectionStrategy::PathMetric)
/// is this selection with `partition` = [`CommunityPartition::single`]
/// and no hop bound. `k == 0` selects no nodes.
///
/// # Panics
///
/// As [`scoped_metrics`].
pub fn select_central_nodes_scoped<G: Topology + Sync>(
    graph: &G,
    partition: &CommunityPartition,
    k: usize,
    horizon: f64,
    max_hops: Option<usize>,
) -> Vec<CentralityScore> {
    select_scoped_counted(graph, partition, k, horizon, max_hops, par::workers()).0
}

/// [`select_central_nodes_scoped`] on `workers` threads, with the work
/// it did.
///
/// Every path out of node `i` starts with one of `i`'s in-community
/// contacts and a path's weight cannot exceed its first hop's
/// ([`weight_cap`]), so `C_i ≤ reach(i) · cap(λ_max(i)) / (N − 1)` where
/// `reach(i)` counts the nodes a search from `i` can settle. Tier 1 takes
/// `reach` to be the rest of the community, from one pass over `i`'s
/// contacts, and orders the candidates: descending bound, ties by id.
/// They are evaluated [`BATCH`] at a time against a floor, the `k`-th
/// best exact metric so far. A candidate whose tier-1 bound is strictly
/// below the floor ends the selection — every later one's is too, and
/// none of them can enter the top `k` or tie with its last place. One at
/// or above it has the breadth-first ball of `max_hops` hops around it
/// counted (tier 2; the connected component when unbounded) and is
/// searched only if that bound is not below the floor either. A node
/// with bound 0 is a candidate like any other, so a selection short of
/// `k` positive metrics is padded with the zeros the sweep itself
/// produces. With `k == 0` the floor is +∞ from the start, and nothing
/// is searched.
pub(super) fn select_scoped_counted<G: Topology + Sync>(
    graph: &G,
    partition: &CommunityPartition,
    k: usize,
    horizon: f64,
    max_hops: Option<usize>,
    workers: usize,
) -> (Vec<CentralityScore>, SweepWork) {
    let mut sweep = Sweep::new(graph, partition, horizon, max_hops, workers);
    let n = graph.node_count();
    let mut candidates: Vec<Candidate> = (0..n as u32)
        .map(NodeId)
        .map(|node| {
            let community = partition.community_of(node);
            let in_community =
                |&&(peer, _): &&(NodeId, f64)| partition.community_of(peer) == community;
            let contacts = graph.neighbors(node).iter().filter(in_community);
            let fastest = contacts.map(|&(_, rate)| rate).fold(0.0, f64::max);
            let cap = weight_cap(fastest, horizon, max_hops);
            let bound = (sweep.community_size(node) - 1) as f64 * cap / sweep.norm();
            Candidate { node, cap, bound }
        })
        .collect();
    candidates.sort_by(|a, b| b.bound.total_cmp(&a.bound).then(a.node.cmp(&b.node)));

    let mut best: Vec<CentralityScore> = Vec::new();
    let mut work = SweepWork {
        candidates_pruned: n as u64,
        communities: partition.count() as u64,
        ..SweepWork::default()
    };
    for batch in candidates.chunks(BATCH) {
        let floor = if best.len() == k {
            best.last().map_or(f64::INFINITY, |last| last.metric)
        } else {
            f64::NEG_INFINITY
        };
        let live = &batch[..batch.partition_point(|c| c.bound >= floor)];
        let metrics = sweep.evaluate(
            live,
            |candidate| candidate.node,
            |sweep, space, candidate| sweep.refine_and_score(candidate, floor, space),
        );
        for (candidate, metric) in live.iter().zip(metrics) {
            let Some(metric) = metric else { continue };
            let node = candidate.node;
            best.push(CentralityScore { node, metric });
            work.candidates_pruned -= 1;
            work.searches_run += u64::from(sweep.community_size(node) >= 2);
        }
        best = top_k(best, k);
        if live.len() < batch.len() {
            break;
        }
    }
    (best, work)
}
