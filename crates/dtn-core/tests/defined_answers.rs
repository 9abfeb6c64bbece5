//! The answers of the five path searches for the inputs no caller should
//! pass, on both graph storages: a source past the graph settles nothing
//! (the complete table of no nodes), and a horizon that is not finite and
//! positive, or a hop bound of 0, settles the source alone — weight 1 and
//! the empty route there, 0 and no route everywhere else (Eq. 2 at
//! `T ≤ 0`). A scratch that served such a search serves the next one as a
//! fresh scratch would.

use dtn_core::graph::{ContactGraph, CsrGraph, Topology};
use dtn_core::ids::NodeId;
use dtn_core::path::{
    bounded_reach, bounded_shortest_paths, shortest_paths, shortest_paths_batch,
    shortest_paths_until_in, PathTable, ReachScratch,
};

/// Horizons at which Eq. 2 weighs no path of a hop or more.
const DEGENERATE: [f64; 4] = [0.0, -1.0, f64::NAN, f64::INFINITY];

/// Nodes of the graph every test searches, and a source one past them.
const NODES: u32 = 3;
const PAST: NodeId = NodeId(NODES + 1);

/// The line 0 – 1 – 2 in both storages.
fn line() -> (ContactGraph, CsrGraph) {
    let edges = [(NodeId(0), NodeId(1), 0.1), (NodeId(1), NodeId(2), 0.2)];
    let mut lists = ContactGraph::new(NODES as usize);
    for (a, b, rate) in edges {
        lists.set_rate(a, b, rate);
    }
    (lists, CsrGraph::from_edges(NODES as usize, edges))
}

/// Every read of `t` over `0..NODES + 2`: weight bits and route.
fn reads(t: &PathTable) -> Vec<(u64, Option<Vec<NodeId>>)> {
    (0..NODES + 2)
        .map(NodeId)
        .map(|v| {
            (
                t.weight_to(v).to_bits(),
                t.path_to(v).map(|p| p.nodes().to_vec()),
            )
        })
        .collect()
}

/// `t` settled `source` alone, or nothing when `source` is past the graph.
fn assert_source_alone(t: &PathTable, source: NodeId) {
    let inside = source != PAST;
    assert!(t.is_complete());
    assert_eq!(t.settled_count(), usize::from(inside));
    let want: Vec<_> = (0..NODES + 2)
        .map(NodeId)
        .map(|v| {
            if inside && v == source {
                (1f64.to_bits(), Some(vec![source]))
            } else {
                (0f64.to_bits(), None)
            }
        })
        .collect();
    assert_eq!(reads(t), want, "from {source}");
}

/// The degenerate cases `(horizon, source)` of a search without a bound.
fn cases() -> impl Iterator<Item = (f64, NodeId)> {
    DEGENERATE
        .map(|h| (h, NodeId(1)))
        .into_iter()
        .chain([(1.0, PAST)])
}

fn check_shortest_paths<G: Topology>(g: &G) {
    for (horizon, source) in cases() {
        assert_source_alone(&shortest_paths(g, source, horizon), source);
    }
}

#[test]
fn shortest_paths_answers_degenerate_inputs() {
    let (lists, csr) = line();
    check_shortest_paths(&lists);
    check_shortest_paths(&csr);
}

fn check_until_in<G: Topology>(g: &G) {
    let mut scratch = ReachScratch::new();
    for (horizon, source) in cases() {
        // Node 2 never settles, so the search runs to exhaustion.
        let t = shortest_paths_until_in(g, source, horizon, &[NodeId(2)], &mut scratch);
        assert_source_alone(&t, source);
    }
    let warm = shortest_paths_until_in(g, NodeId(0), 50.0, &[], &mut scratch);
    assert_eq!(reads(&warm), reads(&shortest_paths(g, NodeId(0), 50.0)));
}

#[test]
fn an_early_exit_search_answers_degenerate_inputs() {
    let (lists, csr) = line();
    check_until_in(&lists);
    check_until_in(&csr);
}

fn check_batch<G: Topology + Sync>(g: &G) {
    let mut scratches = vec![ReachScratch::new(), ReachScratch::new()];
    for horizon in DEGENERATE.into_iter().chain([50.0]) {
        let mut jobs: Vec<_> = [NodeId(1), PAST]
            .into_iter()
            .flat_map(|s| [false, true].map(|stop| (s, stop, PathTable::default())))
            .collect();
        shortest_paths_batch(g, horizon, &[NodeId(2)], &mut jobs, &mut scratches);
        for (source, stop, table) in &jobs {
            if horizon != 50.0 || *source == PAST {
                assert_source_alone(table, *source);
            } else if !stop {
                assert_eq!(reads(table), reads(&shortest_paths(g, *source, 50.0)));
            }
        }
    }
}

#[test]
fn a_batch_answers_degenerate_inputs_job_for_job() {
    let (lists, csr) = line();
    check_batch(&lists);
    check_batch(&csr);
}

fn check_bounded<G: Topology>(g: &G) {
    let mut scratch = ReachScratch::new();
    let alone = [(NodeId(1), 1.0)];
    for (horizon, source) in cases() {
        let reach = bounded_shortest_paths(g, source, horizon, 2, &mut scratch);
        let want: &[_] = if source == PAST { &[] } else { &alone };
        assert_eq!(reach.entries(), want, "{horizon}");
        assert_eq!(reach.weight_to(NodeId(2)), 0.0);
    }
    let reach = bounded_shortest_paths(g, NodeId(1), 50.0, 0, &mut scratch);
    assert_eq!(reach.entries(), alone);
}

#[test]
fn a_bounded_search_answers_degenerate_inputs() {
    let (lists, csr) = line();
    check_bounded(&lists);
    check_bounded(&csr);
}

/// A leaf read answers 0 with no evaluation wherever the search weighed
/// no edge. Read naively, a rim at a NaN horizon would weigh its leaf
/// NaN, and the label would stay at −∞.
fn check_lazy<G: Topology>(g: &G) {
    let mut scratch = ReachScratch::new();
    let bounded = cases()
        .map(|(h, s)| (h, s, 1))
        .chain([(50.0, NodeId(1), 0)]);
    for (horizon, source, max_hops) in bounded {
        let reach = bounded_reach(g, source, horizon, max_hops, &mut scratch);
        assert_eq!(reach.settled_count(), usize::from(source != PAST));
        for v in (0..NODES + 2).map(NodeId) {
            let want = if v == source && source != PAST {
                1.0
            } else {
                0.0
            };
            let read = reach.weight_to(g, v, &mut scratch);
            assert_eq!(read, (want, 0), "{horizon}, {max_hops} hops, {v}");
        }
    }
    let warm = bounded_reach(g, NodeId(1), 50.0, 1, &mut scratch);
    let fresh = bounded_reach(g, NodeId(1), 50.0, 1, &mut ReachScratch::new());
    let read = warm.weight_to(g, NodeId(2), &mut scratch);
    assert_eq!(
        read,
        fresh.weight_to(g, NodeId(2), &mut ReachScratch::new())
    );
    assert_eq!(read.1, 1, "a leaf of a real search is weighed");
}

#[test]
fn a_lazy_reach_answers_degenerate_inputs_and_reads_no_leaf() {
    let (lists, csr) = line();
    check_lazy(&lists);
    check_lazy(&csr);
}
