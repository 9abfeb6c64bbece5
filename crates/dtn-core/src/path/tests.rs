use std::cmp::Ordering;

use super::naive::shortest_paths_naive;
use super::scratch::FactorCache;
use super::search::{search, Key};
use super::*;
use crate::graph::ContactGraph;

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
    (t.is_complete(), t.settled_count, nodes)
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
        table_bits(&shortest_paths_until_in(
            &small,
            NodeId(5),
            700.0,
            &stop,
            &mut ReachScratch::new()
        ))
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
        let fresh = shortest_paths_until_in(g, source, horizon, targets, &mut ReachScratch::new());
        assert_eq!(table_bits(&reused), table_bits(&fresh), "round {round}");
        partial_tables += usize::from(!reused.is_complete());

        let max_hops = [1, 2, 3, 64][round % 4];
        let reused = bounded_shortest_paths(g, source, horizon, max_hops, &mut scratch);
        let fresh = bounded_shortest_paths(g, source, horizon, max_hops, &mut ReachScratch::new());
        assert_eq!(
            reach_bits(&reused),
            reach_bits(&fresh),
            "round {round}, {max_hops} hops"
        );
    }
    assert!(partial_tables > 0, "no search stopped early");
}

/// Asserts that `table` from `source` at `horizon` routes every node it
/// settled from `source` to that node, along a path whose weight is the
/// table's to the bit, and routes no other node.
fn assert_routes(table: &PathTable, source: NodeId, horizon: f64) {
    for v in (0..table.settled.len() as u32).map(NodeId) {
        match table.settled_weight(v) {
            Some(w) if table.settled[v.index()] => {
                let path = table.path_to(v).expect("a settled node has a route");
                assert_eq!((path.source(), path.destination()), (source, v));
                assert_eq!(path.weight(horizon).to_bits(), w.to_bits(), "route to {v}");
            }
            Some(w) => {
                assert_eq!((w, table.path_to(v)), (0.0, None), "unreached {v}");
            }
            None => assert!(!table.is_complete()),
        }
    }
}

/// A scratch that served a larger graph — other rates, horizons,
/// weights, hops and routes in every slot the smaller one reuses — then
/// serves the smaller one: a partial table, a complete table, a
/// `SparseReach` and a `LazyReach` with leaf reads, each bit-equal to a
/// fresh scratch's, every table's routes followed to their weights. The
/// large searches before each source leave that source with a
/// predecessor and every slot with a label of the other graph.
#[test]
fn a_reused_scratch_reads_nothing_stale() {
    let base = lcg_graph_of(64, 260);
    let mut large = ContactGraph::new(64);
    for v in base.nodes() {
        for &(peer, rate) in base.neighbors(v) {
            if v < peer {
                large.set_rate(v, peer, rate * 1.37);
            }
        }
    }
    let small = lcg_graph();
    let horizon = 1500.0;
    let targets = [NodeId(3), NodeId(29)];
    let mut scratch = ReachScratch::new();
    let (mut partial, mut leaves) = (0, 0);
    for source in small.nodes() {
        let dirty = NodeId((source.0 * 11 + 5) % 64);
        shortest_paths_until_in(&large, dirty, 4000.0, &[], &mut scratch);
        let reach = bounded_reach(&large, dirty, 4000.0, 4, &mut scratch);
        for dest in large.nodes() {
            reach.weight_to(&large, dest, &mut scratch);
        }
        for stop in [&targets[..], &[]] {
            let reused = shortest_paths_until_in(&small, source, horizon, stop, &mut scratch);
            let fresh =
                shortest_paths_until_in(&small, source, horizon, stop, &mut ReachScratch::new());
            assert_eq!(table_bits(&reused), table_bits(&fresh), "from {source}");
            assert_routes(&reused, source, horizon);
            partial += usize::from(!reused.is_complete());
        }
        let reused = bounded_shortest_paths(&small, source, horizon, 3, &mut scratch);
        let fresh = bounded_shortest_paths(&small, source, horizon, 3, &mut ReachScratch::new());
        assert_eq!(reach_bits(&reused), reach_bits(&fresh), "from {source}");
        let mut other = ReachScratch::new();
        let reused = bounded_reach(&small, source, horizon, 3, &mut scratch);
        let fresh = bounded_reach(&small, source, horizon, 3, &mut other);
        for dest in small.nodes() {
            let (w, evaluations) = reused.weight_to(&small, dest, &mut scratch);
            let (expected, _) = fresh.weight_to(&small, dest, &mut other);
            assert_eq!(w.to_bits(), expected.to_bits(), "{source} to {dest}");
            leaves += usize::from(evaluations > 0);
        }
    }
    assert!(partial > 0 && leaves > 0, "{partial} / {leaves}");
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
                let (w, evaluations) = lazy.weight_to(&g, dest, &mut scratch);
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
        let (w, evaluations) = reach.weight_to(&star, dest, &mut scratch);
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
        reach.weight_to(&star, NodeId(0), &mut scratch),
        (full.weight_to(NodeId(0)), 1)
    );
    assert_eq!(reach.weight_to(&star, NodeId(5), &mut scratch), (0.0, 0));
}

#[test]
fn lazy_reach_is_no_larger_than_the_sparse_reach_it_replaces() {
    // A sparse city in miniature: 1 500 nodes of mean degree 12 under
    // three hops, where most of what the eager search settles are
    // leaves. The lazy reach pays 20 B per inner node and nothing per
    // leaf against 16 B per settled node.
    let g = lcg_graph_of(1500, 9000);
    let mut scratch = ReachScratch::new();
    let (mut lazy_bytes, mut eager_bytes) = (0, 0);
    for source in (0..1500).step_by(50).map(NodeId) {
        let eager = bounded_shortest_paths(&g, source, 1800.0, 3, &mut scratch);
        let lazy = bounded_reach(&g, source, 1800.0, 3, &mut scratch);
        assert!(lazy.settled_count() * 2 < eager.entries().len());
        lazy_bytes += lazy.heap_bytes();
        eager_bytes += eager.entries.capacity() * std::mem::size_of::<(NodeId, f64)>();
    }
    assert!(
        lazy_bytes <= eager_bytes,
        "{lazy_bytes} B vs {eager_bytes} B"
    );
}

#[test]
fn a_reach_costs_at_most_20_bytes_per_inner_node() {
    // The same city under three and four hops. A reach owns its ball,
    // every slice at its final size, and nothing per rim node: not the
    // pop position of each node (24 B per inner node before), nor a copy
    // of each rim path (24 B per stage plus 5 B per rim node before that).
    let g = lcg_graph_of(1500, 9000);
    let mut scratch = ReachScratch::new();
    for max_hops in [3, 4] {
        let (mut bytes, mut inner, mut rims) = (0, 0, 0);
        for source in (0..1500).step_by(50).map(NodeId) {
            let reach = bounded_reach(&g, source, 1800.0, max_hops, &mut scratch);
            bytes += reach.heap_bytes();
            inner += reach.settled_count();
            rims += (0..reach.settled_count())
                .filter(|&i| reach.hops(i) + 1 == max_hops)
                .count();
        }
        assert_eq!(
            bytes,
            20 * inner,
            "{max_hops} hops: {bytes} B for {inner} inner nodes"
        );
        assert!(rims > 0, "{max_hops} hops: no rim to weigh a leaf from");
    }
}

#[test]
fn warm_scratch_searches_without_allocating() {
    // Dense, early-exit, bounded and inner-only searches from every
    // source, and a lazy reach's read of every node, twice over: the
    // second pass finds every buffer the first one grew and moves or
    // regrows none of them — per-node arrays, the factor cache, heap,
    // touched list, the ball's queue, the pop order, a leaf read's marks,
    // and each recycled accumulator's four vectors, the one leaf reads
    // rebuild rim paths into among them.
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
            let reach = bounded_reach(&g, source, 1800.0, 3, scratch);
            for dest in g.nodes() {
                reach.weight_to(&g, dest, scratch);
            }
        }
    };
    let buffers = |s: &ReachScratch| {
        let accs: Vec<_> = s.accs.iter().map(|a| a.buffers()).collect();
        let arrays = (
            s.stamp.as_ptr(),
            s.best.as_ptr(),
            s.acc_slot.as_ptr(),
            s.inner.as_ptr(),
            s.factors.slots.as_ptr(),
        );
        let lists = (
            s.touched.capacity(),
            s.queue.capacity(),
            s.pops.capacity(),
            s.marks.capacity(),
        );
        (accs, arrays, s.heap.capacity(), lists)
    };
    let mut scratch = ReachScratch::new();
    pass(&mut scratch);
    let warm = buffers(&scratch);
    assert_eq!(warm.0.len(), 40, "a dense search builds one per node");
    pass(&mut scratch);
    assert_eq!(buffers(&scratch), warm);

    // A batch over three workers, one table per source, early exit and
    // exhaustive mixed. Each scratch first serves every job alone, so it
    // has met the largest search any worker can hand it; from then on a
    // batch moves or regrows no worker's buffer and no table's arrays —
    // every table is refilled where it lies.
    let tables = |jobs: &[(NodeId, bool, PathTable)]| -> Vec<_> {
        jobs.iter()
            .map(|(_, _, t)| {
                let at = (t.prev.as_ptr(), t.rate_into.as_ptr(), t.weight.as_ptr());
                let room = (t.prev.capacity(), t.weight.capacity(), t.settled.capacity());
                (at, t.settled.as_ptr(), room)
            })
            .collect()
    };
    let targets = [NodeId(7), NodeId(31)];
    let mut jobs: Vec<_> = g
        .nodes()
        .map(|s| (s, s.0 % 3 != 0, PathTable::default()))
        .collect();
    let mut scratches: Vec<ReachScratch> = (0..3).map(|_| ReachScratch::new()).collect();
    for scratch in &mut scratches {
        let mut alone = vec![std::mem::take(scratch)];
        shortest_paths_batch(&g, 1800.0, &targets, &mut jobs, &mut alone);
        *scratch = alone.pop().expect("one scratch");
    }
    let warm = (
        scratches.iter().map(buffers).collect::<Vec<_>>(),
        tables(&jobs),
    );
    assert!(warm.1.iter().all(|&(_, _, room)| room == (40, 40, 40)));
    for _ in 0..2 {
        shortest_paths_batch(&g, 1800.0, &targets, &mut jobs, &mut scratches);
        let now = (
            scratches.iter().map(buffers).collect::<Vec<_>>(),
            tables(&jobs),
        );
        assert_eq!(now, warm);
    }
}

/// Asserts that the table `scratch` gives for every source of `g` at
/// `horizon` holds, per node, the route and the weight bits of the
/// owned-path reference, which evaluates every path with no cache.
fn assert_uncached_tables(g: &ContactGraph, horizon: f64, scratch: &mut ReachScratch) {
    for source in g.nodes() {
        let table = shortest_paths_until_in(g, source, horizon, &[], scratch);
        let naive = shortest_paths_naive(g, source, horizon);
        for dest in g.nodes() {
            let want = naive[dest.index()].as_ref();
            assert_eq!(
                table.path_to(dest).map(|p| p.nodes().to_vec()),
                want.map(|p| p.nodes().to_vec()),
                "{source} to {dest} at {horizon}"
            );
            let want = want.map_or(0.0, |p| p.weight(horizon));
            assert_eq!(table.weight_to(dest).to_bits(), want.to_bits());
        }
    }
}

#[test]
fn colliding_rates_and_new_horizons_read_what_no_cache_reads() {
    // Two rates a per cent apart (never clustered) that share a slot,
    // on a ring with chords: a search that relaxes both evicts one for
    // the other over and over.
    let a = 2e-3;
    let b = (1..)
        .map(|k| a * (1.0 + 0.01 * f64::from(k)))
        .find(|&r| FactorCache::slot(r) == FactorCache::slot(a))
        .expect("some rate shares the slot");
    let mut g = ContactGraph::new(12);
    for i in 0..12u32 {
        let (ring, chord) = if i % 2 == 0 { (a, b) } else { (b, a) };
        g.set_rate(NodeId(i), NodeId((i + 1) % 12), ring);
        g.set_rate(NodeId(i), NodeId((i + 5) % 12), chord);
    }
    // One scratch through three horizons, the first one again last, with
    // the 40-node graph's palette of 90 rates: each horizon finds the
    // cache full of the last one's factors.
    let lcg = lcg_graph();
    let mut scratch = ReachScratch::new();
    for horizon in [1800.0, 700.0, 1800.0] {
        assert_uncached_tables(&g, horizon, &mut scratch);
        assert_uncached_tables(&lcg, horizon, &mut scratch);
    }
}

#[test]
fn a_warm_scratch_computes_no_factor_twice() {
    // The 40-node graph with every rate that would share a slot replaced
    // by the rate that holds it: its rates hold distinct slots.
    let lcg = lcg_graph();
    let mut held = std::collections::BTreeMap::new();
    let mut g = ContactGraph::new(lcg.node_count());
    for v in lcg.nodes() {
        for &(peer, rate) in lcg.neighbors(v) {
            g.set_rate(
                v,
                peer,
                *held.entry(FactorCache::slot(rate)).or_insert(rate),
            );
        }
    }
    // Every search kind, twice through one scratch: each rate is
    // computed once, by the first search that meets it, and never again.
    // A search that bypassed the cache would compute one per relaxation.
    let searches = |scratch: &mut ReachScratch| {
        let fresh = || hypoexp::tests::FRESH.with(std::cell::Cell::get);
        let before = fresh();
        for source in g.nodes() {
            search::<_, false>(&g, source, 1800.0, &[], usize::MAX, scratch);
            search::<_, false>(&g, source, 1800.0, &[NodeId(7)], usize::MAX, scratch);
            search::<_, false>(&g, source, 1800.0, &[], 2, scratch);
            search::<_, true>(&g, source, 1800.0, &[], 3, scratch);
        }
        fresh() - before
    };
    let mut scratch = ReachScratch::new();
    assert_eq!(searches(&mut scratch), held.len() as u64);
    assert_eq!(searches(&mut scratch), 0);
}

#[test]
fn early_exit_searches_compute_each_of_300_rates_once() {
    // 200 nodes and 1 500 edges whose rates are `count / elapsed` over
    // one elapsed, as §III-B's estimator gives them: 320 distinct rates,
    // the most a `serve_churn` snapshot holds, about a third of the
    // slots. Each search stops at two targets. The table keeps every
    // rate it has computed, so each is computed once, by the first
    // search that meets it.
    let mut g = ContactGraph::new(200);
    let mut x = 99u64;
    for _ in 0..1_500 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let (a, b) = ((x >> 33) as u32 % 200, (x >> 13) as u32 % 200);
        if a != b {
            g.set_rate(
                NodeId(a),
                NodeId(b),
                (1 + (x >> 40) % 320) as f64 / 86_400.0,
            );
        }
    }
    let rates: std::collections::BTreeSet<u64> = g
        .nodes()
        .flat_map(|v| g.neighbors(v).iter().map(|&(_, r)| r.to_bits()))
        .collect();
    assert!(rates.len() >= 300, "{} distinct rates", rates.len());
    let fresh = || hypoexp::tests::FRESH.with(std::cell::Cell::get);
    let mut scratch = ReachScratch::new();
    let before = fresh();
    for source in g.nodes() {
        let targets = [
            NodeId((source.0 + 67) % 200),
            NodeId((source.0 + 131) % 200),
        ];
        search::<_, false>(&g, source, 1800.0, &targets, usize::MAX, &mut scratch);
    }
    let computed = fresh() - before;
    assert!(computed <= rates.len() as u64, "{computed} computed");
    assert!(computed <= 5 * 200, "{computed} computed over 200 searches");
    for source in g.nodes() {
        search::<_, false>(&g, source, 1800.0, &[], usize::MAX, &mut scratch);
    }
    assert_eq!(fresh() - before, rates.len() as u64, "every rate once");
}

#[test]
fn iter_weights_covers_reachable_set() {
    let g = line_graph(&[0.1, 0.1]);
    let t = shortest_paths(&g, NodeId(1), 100.0);
    let all: Vec<_> = t.iter_weights().collect();
    assert_eq!(all.len(), 3);
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// The heap order before keys were packed: weight by `total_cmp`,
    /// an exact tie to the lower id.
    fn label_order(a: (f64, u32), b: (f64, u32)) -> Ordering {
        a.0.total_cmp(&b.0).then_with(|| b.1.cmp(&a.1))
    }

    /// A weight a search can push: +0, 1, a subnormal, a few ulps
    /// below 1, or anything between.
    fn pushed_weight() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(1.0),
            (1u64..1 << 52).prop_map(f64::from_bits),
            (1u64..1 << 12).prop_map(|ulps| f64::from_bits(1f64.to_bits() - ulps)),
            0.0f64..1.0,
        ]
    }

    fn id() -> impl Strategy<Value = u32> {
        prop_oneof![Just(0u32), Just(u32::MAX - 1), 0..u32::MAX]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// A packed key orders, and decodes, exactly as the two-word
        /// label it replaced — exact weight ties across ids included.
        #[test]
        fn key_order_is_the_label_order(
            a in pushed_weight(),
            b in pushed_weight(),
            tie in any::<bool>(),
            ids in (id(), id()),
        ) {
            let b = if tie { a } else { b };
            let (ka, kb) = (Key::new(a, NodeId(ids.0)), Key::new(b, NodeId(ids.1)));
            prop_assert_eq!(ka.cmp(&kb), label_order((a, ids.0), (b, ids.1)));
            prop_assert_eq!((ka.weight().to_bits(), ka.node()), (a.to_bits(), NodeId(ids.0)));
        }
    }

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
