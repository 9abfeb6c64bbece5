//! Unit tests of NCL selection.

use super::*;
use crate::graph::ContactGraph;

/// Star: node 0 in the middle.
fn star(n: usize, rate: f64) -> ContactGraph {
    let mut g = ContactGraph::new(n);
    for i in 1..n as u32 {
        g.set_rate(NodeId(0), NodeId(i), rate);
    }
    g
}

#[test]
fn star_center_is_most_central() {
    let g = star(6, 1e-3);
    let top = select_by_strategy(&g, 3, 3600.0, SelectionStrategy::PathMetric);
    assert_eq!(top[0].node, NodeId(0));
    assert!(top[0].metric > top[1].metric);
}

#[test]
fn metric_is_a_probability() {
    let g = star(5, 1e-3);
    for s in all_metrics(&g, 3600.0) {
        assert!((0.0..=1.0).contains(&s.metric), "{s:?}");
    }
}

#[test]
fn isolated_node_has_zero_metric() {
    let mut g = ContactGraph::new(3);
    g.set_rate(NodeId(0), NodeId(1), 1e-3);
    assert_eq!(all_metrics(&g, 3600.0)[2].metric, 0.0);
}

#[test]
fn metric_grows_with_horizon() {
    let g = star(5, 1e-4);
    let short = all_metrics(&g, 600.0)[0].metric;
    let long = all_metrics(&g, 86_400.0)[0].metric;
    assert!(long > short);
}

#[test]
fn select_is_deterministic_under_ties() {
    // Symmetric triangle: all metrics equal; expect id order.
    let mut g = ContactGraph::new(3);
    g.set_rate(NodeId(0), NodeId(1), 1e-3);
    g.set_rate(NodeId(1), NodeId(2), 1e-3);
    g.set_rate(NodeId(0), NodeId(2), 1e-3);
    let top = select_by_strategy(&g, 2, 3600.0, SelectionStrategy::PathMetric);
    assert_eq!(top[0].node, NodeId(0));
    assert_eq!(top[1].node, NodeId(1));
}

#[test]
fn truncates_to_available_nodes() {
    let g = star(3, 1e-3);
    let top = select_by_strategy(&g, 10, 3600.0, SelectionStrategy::PathMetric);
    assert_eq!(top.len(), 3);
}

#[test]
fn skew_of_star_is_large() {
    let g = star(8, 1e-3);
    let skew = metric_skew(&all_metrics(&g, 600.0));
    assert!(skew.max_over_median > 1.2, "{skew:?}");
    assert!(skew.max >= skew.mean);
    assert!(skew.mean >= 0.0);
}

#[test]
fn zero_k_selects_no_nodes() {
    let g = star(3, 1e-3);
    let strategies = [
        SelectionStrategy::PathMetric,
        SelectionStrategy::CommunityPathMetric { max_hops: Some(2) },
        SelectionStrategy::DegreeCentrality,
        SelectionStrategy::Random { seed: 3 },
    ];
    for strategy in strategies {
        let (top, work) = select_by_strategy_counted(&g, 0, 600.0, strategy);
        assert!(top.is_empty(), "{strategy:?}");
        assert_eq!(work.searches_run, 0, "{strategy:?}");
    }
}

#[test]
fn degree_strategy_picks_hub() {
    let g = star(6, 1e-3);
    let top = select_by_strategy(&g, 2, 600.0, SelectionStrategy::DegreeCentrality);
    assert_eq!(top[0].node, NodeId(0));
    assert!((top[0].metric - 1.0).abs() < 1e-12, "hub meets everyone");
    assert!(
        (top[1].metric - 0.2).abs() < 1e-12,
        "leaves meet one of five"
    );
}

#[test]
fn frequency_strategy_weights_rates() {
    // Node 1 has one very fast edge; node 2 has two slow ones.
    let mut g = ContactGraph::new(4);
    g.set_rate(NodeId(1), NodeId(0), 1.0);
    g.set_rate(NodeId(2), NodeId(0), 0.1);
    g.set_rate(NodeId(2), NodeId(3), 0.1);
    let top = select_by_strategy(&g, 2, 600.0, SelectionStrategy::ContactFrequency);
    // node 0 sums 1.1, node 1 sums 1.0
    assert_eq!(top[0].node, NodeId(0));
    assert_eq!(top[1].node, NodeId(1));
}

#[test]
fn random_strategy_is_deterministic_and_seed_sensitive() {
    let g = star(8, 1e-3);
    let a = select_by_strategy(&g, 3, 600.0, SelectionStrategy::Random { seed: 1 });
    let b = select_by_strategy(&g, 3, 600.0, SelectionStrategy::Random { seed: 1 });
    assert_eq!(a, b);
    let c = select_by_strategy(&g, 3, 600.0, SelectionStrategy::Random { seed: 2 });
    let a_nodes: Vec<_> = a.iter().map(|s| s.node).collect();
    let c_nodes: Vec<_> = c.iter().map(|s| s.node).collect();
    assert_ne!(a_nodes, c_nodes, "different seeds pick differently");
}

#[test]
fn reassign_keeps_unchanged_set_in_place() {
    let previous = [NodeId(3), NodeId(1), NodeId(9)];
    // Same membership, different rank order: no slot moves.
    let ranked = [
        CentralityScore {
            node: NodeId(9),
            metric: 0.9,
        },
        CentralityScore {
            node: NodeId(3),
            metric: 0.5,
        },
        CentralityScore {
            node: NodeId(1),
            metric: 0.4,
        },
    ];
    assert_eq!(reassign_central_nodes(&previous, &ranked), previous);
}

#[test]
fn reassign_fills_vacated_slots_in_rank_order() {
    let previous = [NodeId(0), NodeId(1), NodeId(2)];
    let ranked = [
        CentralityScore {
            node: NodeId(5),
            metric: 0.9,
        },
        CentralityScore {
            node: NodeId(1),
            metric: 0.8,
        },
        CentralityScore {
            node: NodeId(6),
            metric: 0.7,
        },
    ];
    // Slots 0 and 2 vacated; best entrant 5 goes to the first
    // vacated slot, 6 to the second.
    assert_eq!(
        reassign_central_nodes(&previous, &ranked),
        vec![NodeId(5), NodeId(1), NodeId(6)]
    );
}

#[test]
fn reassign_short_election_keeps_old_centrals() {
    let previous = [NodeId(0), NodeId(1), NodeId(2)];
    let ranked = [CentralityScore {
        node: NodeId(7),
        metric: 0.9,
    }];
    // Only one node elected: it replaces the first vacated slot,
    // the others keep their previous central node.
    assert_eq!(
        reassign_central_nodes(&previous, &ranked),
        vec![NodeId(7), NodeId(1), NodeId(2)]
    );
}

#[test]
fn reassign_ignores_ranked_overflow_beyond_slot_count() {
    let previous = [NodeId(0)];
    let ranked = [
        CentralityScore {
            node: NodeId(4),
            metric: 0.9,
        },
        CentralityScore {
            node: NodeId(0),
            metric: 0.8,
        },
    ];
    // Only the top-1 of the election counts for a 1-slot set.
    assert_eq!(reassign_central_nodes(&previous, &ranked), vec![NodeId(4)]);
}

#[test]
fn graphs_of_fewer_than_two_nodes_score_zero() {
    for n in [0, 1] {
        let g = ContactGraph::new(n);
        let zero = |scores: Vec<CentralityScore>| {
            assert_eq!(scores.len(), n, "{n} nodes");
            assert!(scores.iter().all(|s| s.metric == 0.0), "{scores:?}");
        };
        zero(all_metrics(&g, 600.0));
        let strategies = [
            SelectionStrategy::PathMetric,
            SelectionStrategy::CommunityPathMetric { max_hops: None },
            SelectionStrategy::DegreeCentrality,
            SelectionStrategy::ContactFrequency,
        ];
        for strategy in strategies {
            zero(select_by_strategy(&g, 3, 600.0, strategy));
        }
    }
}

/// At a horizon that is not finite and positive every search settles its
/// source alone: every metric is 0, and the pruned selection is the
/// sweep's top `k` of zeros, in id order.
#[test]
fn a_degenerate_horizon_scores_every_node_zero() {
    let g = two_stars();
    for horizon in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert!(all_metrics(&g, horizon).iter().all(|s| s.metric == 0.0));
        for max_hops in [None, Some(0), Some(2)] {
            let p = CommunityPartition::single(10);
            let top = select_central_nodes_scoped(&g, &p, 3, horizon, max_hops);
            let ids: Vec<_> = top.iter().map(|s| (s.node.0, s.metric)).collect();
            assert_eq!(
                ids,
                [(0, 0.0), (1, 0.0), (2, 0.0)],
                "{horizon} {max_hops:?}"
            );
        }
    }
}

/// Two star communities bridged by one weak edge.
fn two_stars() -> ContactGraph {
    let mut g = ContactGraph::new(10);
    for i in 1..5u32 {
        g.set_rate(NodeId(0), NodeId(i), 1e-2);
    }
    for i in 6..10u32 {
        g.set_rate(NodeId(5), NodeId(i), 1e-2);
    }
    g.set_rate(NodeId(4), NodeId(9), 1e-6);
    g
}

#[test]
fn label_propagation_finds_the_two_stars() {
    let g = two_stars();
    let p = label_propagation_communities(&g, LABEL_PROPAGATION_ROUNDS);
    assert_eq!(p.node_count(), 10);
    assert_eq!(p.count(), 2, "expected the two stars, got {p:?}");
    for i in 1..5u32 {
        assert_eq!(p.community_of(NodeId(i)), p.community_of(NodeId(0)));
    }
    for i in 6..10u32 {
        assert_eq!(p.community_of(NodeId(i)), p.community_of(NodeId(5)));
    }
    assert_ne!(p.community_of(NodeId(0)), p.community_of(NodeId(5)));
    // Deterministic.
    assert_eq!(
        p,
        label_propagation_communities(&g, LABEL_PROPAGATION_ROUNDS)
    );
}

#[test]
fn label_propagation_keeps_isolated_nodes_apart() {
    let mut g = ContactGraph::new(4);
    g.set_rate(NodeId(0), NodeId(1), 1e-2);
    let p = label_propagation_communities(&g, 8);
    assert_eq!(p.community_of(NodeId(0)), p.community_of(NodeId(1)));
    assert_ne!(p.community_of(NodeId(2)), p.community_of(NodeId(0)));
    assert_ne!(p.community_of(NodeId(2)), p.community_of(NodeId(3)));
    assert_eq!(p.count(), 3);
}

/// Eq. 3 as the paper writes it: the mean, over the other `N − 1`
/// nodes in id order, of the best path weight from `i`.
fn eq3<G: Topology>(graph: &G, i: NodeId, horizon: f64) -> f64 {
    let table = crate::path::shortest_paths(graph, i, horizon);
    let others = (0..graph.node_count() as u32).map(NodeId);
    let sum: f64 = others.filter(|&j| j != i).map(|j| table.weight_to(j)).sum();
    sum / (graph.node_count() - 1) as f64
}

#[test]
fn metrics_equal_the_eq3_definition() {
    // Exact ties among the leaves of two bridged stars, the smallest
    // graph the metric is defined on, and one whose nodes never met.
    // (`tests/streaming_equivalence.rs` repeats this on random graphs,
    // on CSR storage and through every selection entry point.)
    let mut pair = ContactGraph::new(2);
    pair.set_rate(NodeId(0), NodeId(1), 2e-4);
    for g in [two_stars(), pair, ContactGraph::new(2)] {
        for score in all_metrics(&g, 3600.0) {
            let metric = eq3(&g, score.node, 3600.0);
            assert_eq!(score.metric.to_bits(), metric.to_bits(), "{score:?}");
        }
    }
}

#[test]
fn scoped_selection_elects_a_hub_per_community() {
    let g = two_stars();
    let p = label_propagation_communities(&g, LABEL_PROPAGATION_ROUNDS);
    let top = select_central_nodes_scoped(&g, &p, 2, 3600.0, None);
    let mut nodes: Vec<u32> = top.iter().map(|s| s.node.0).collect();
    nodes.sort_unstable();
    assert_eq!(nodes, vec![0, 5], "one hub per star");
}

#[test]
fn scoped_metric_ignores_cross_community_paths() {
    let g = two_stars();
    let p = label_propagation_communities(&g, LABEL_PROPAGATION_ROUNDS);
    let scoped = scoped_metrics(&g, &p, 3600.0, None);
    let global = all_metrics(&g, 3600.0);
    // Scoped scores drop the (weak) cross-community contribution, so
    // they can only be lower, and hubs stay clearly ahead of leaves.
    for (s, g_) in scoped.iter().zip(&global) {
        assert_eq!(s.node, g_.node);
        assert!(s.metric <= g_.metric + 1e-12);
    }
    assert!(scoped[0].metric > scoped[1].metric);
}

#[test]
fn scoped_hop_bound_matches_unbounded_within_star_diameter() {
    let g = two_stars();
    let p = label_propagation_communities(&g, LABEL_PROPAGATION_ROUNDS);
    let unbounded = scoped_metrics(&g, &p, 3600.0, None);
    let bounded = scoped_metrics(&g, &p, 3600.0, Some(8));
    for (u, b) in unbounded.iter().zip(&bounded) {
        assert_eq!(u.node, b.node);
        assert!((u.metric - b.metric).abs() < 1e-15, "{u:?} vs {b:?}");
    }
    let one_hop = scoped_metrics(&g, &p, 3600.0, Some(1));
    // Leaves only reach the hub directly; their 1-hop score shrinks.
    assert!(one_hop[1].metric < unbounded[1].metric);
}

#[test]
fn community_strategy_delegates_to_scoped_selection() {
    let g = two_stars();
    let via = select_by_strategy(
        &g,
        2,
        3600.0,
        SelectionStrategy::CommunityPathMetric { max_hops: None },
    );
    let p = label_propagation_communities(&g, LABEL_PROPAGATION_ROUNDS);
    let direct = select_central_nodes_scoped(&g, &p, 2, 3600.0, None);
    assert_eq!(via, direct);
}

#[test]
fn from_labels_compacts_by_first_appearance() {
    let p = CommunityPartition::from_labels(&[7, 7, 2, 7, 2, 0]);
    assert_eq!(p.count(), 3);
    assert_eq!(
        (0..6)
            .map(|i| p.community_of(NodeId(i)))
            .collect::<Vec<_>>(),
        vec![0, 0, 1, 0, 1, 2]
    );
}

#[test]
fn singleton_communities_score_zero() {
    let mut g = ContactGraph::new(3);
    g.set_rate(NodeId(0), NodeId(1), 1e-2);
    // Put every node in its own community: nobody reaches anybody.
    let p = CommunityPartition::from_labels(&[0, 1, 2]);
    let scores = scoped_metrics(&g, &p, 3600.0, None);
    assert!(scores.iter().all(|s| s.metric == 0.0));
}

#[test]
#[should_panic(expected = "partition must cover")]
fn partition_size_mismatch_panics() {
    let g = star(4, 1e-3);
    let p = CommunityPartition::single(3);
    let _ = scoped_metrics(&g, &p, 600.0, None);
}

/// The pruned selection against the full sweep it must equal: the same
/// nodes in the same order with the same metric bits as
/// `top_k(scoped_metrics(..))`, on 1, 2 and 5 workers, with the same
/// work counted on each. Returns the work of the last `k`.
fn assert_selection_is_the_sweeps_top_k<G: Topology + Sync>(
    graph: &G,
    partition: &CommunityPartition,
    max_hops: Option<usize>,
    ks: &[usize],
    what: &str,
) -> SweepWork {
    let bits = |scores: &[CentralityScore]| -> Vec<(NodeId, u64)> {
        scores
            .iter()
            .map(|s| (s.node, s.metric.to_bits()))
            .collect()
    };
    let full = scoped_metrics(graph, partition, 7_200.0, max_hops);
    let n = graph.node_count();
    let mut last = SweepWork::default();
    for &k in ks {
        let want = top_k(full.clone(), k);
        let select =
            |workers| sweep::select_scoped_counted(graph, partition, k, 7_200.0, max_hops, workers);
        let (got, work) = select(1);
        assert_eq!(bits(&got), bits(&want), "{what} k={k} hops={max_hops:?}");
        for workers in [2, 5] {
            let (again, counted) = select(workers);
            assert_eq!(bits(&again), bits(&want), "{what} k={k} on {workers}");
            assert_eq!(counted, work, "{what} k={k}: work on {workers} workers");
        }
        assert_eq!(work.communities, partition.count() as u64);
        assert!(
            work.searches_run + work.candidates_pruned <= n as u64,
            "{work:?}"
        );
        last = work;
    }
    last
}

/// `graph` on CSR storage.
fn as_csr(graph: &ContactGraph) -> crate::graph::CsrGraph {
    let edges = graph.nodes().flat_map(|a| {
        let to_higher = graph.neighbors(a).iter().filter(move |&&(b, _)| a < b);
        to_higher.map(move |&(b, rate)| (a, b, rate))
    });
    crate::graph::CsrGraph::from_edges(graph.node_count(), edges)
}

/// A sparse graph with Pareto-tailed rates (six decades) and a random
/// partition in which some labels are used once: a few sociable hubs,
/// many nodes nobody can rank, one-node communities, members whose
/// every contact is in another community.
fn heavy_tailed(n: usize, edges: usize, labels: u64, seed: u64) -> (ContactGraph, Vec<u32>) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut g = ContactGraph::new(n);
    for _ in 0..edges {
        let (a, b) = ((next() % n as u64) as u32, (next() % n as u64) as u32);
        if a != b {
            let u = (next() % 1_000_000 + 1) as f64 / 1_000_000.0;
            g.set_rate(NodeId(a), NodeId(b), (1e-7 / u.powf(1.5)).min(1e-1));
        }
    }
    let assignment = (0..n).map(|_| (next() % labels) as u32).collect();
    (g, assignment)
}

#[test]
fn pruned_selection_equals_the_full_sweep_on_random_partitioned_graphs() {
    let ks = [1, 8, 40];
    let every_bound = [Some(1), Some(2), Some(3), Some(5), None];
    for (n, edges, labels, seed, bounds) in [
        (60usize, 150usize, 4u64, 1u64, &every_bound[..]),
        (150, 300, 40, 2, &every_bound),
        (150, 900, 3, 3, &every_bound),
        (300, 700, 12, 4, &every_bound),
        // Several batches deep, where the floor does the pruning.
        (700, 1_800, 25, 5, &[Some(3)]),
    ] {
        let (g, assignment) = heavy_tailed(n, edges, labels, seed);
        let scattered = CommunityPartition::from_labels(&assignment);
        let found = label_propagation_communities(&g, LABEL_PROPAGATION_ROUNDS);
        let single = CommunityPartition::single(n);
        let csr = as_csr(&g);
        for (partition, name) in [(&scattered, "random"), (&found, "lp"), (&single, "single")] {
            for &max_hops in bounds {
                let what = format!("n={n} seed={seed} {name}");
                let on_lists =
                    assert_selection_is_the_sweeps_top_k(&g, partition, max_hops, &ks, &what);
                let on_csr =
                    assert_selection_is_the_sweeps_top_k(&csr, partition, max_hops, &ks, &what);
                assert_eq!(on_lists, on_csr, "{what}: work differs by storage");
            }
        }
    }
}

#[test]
fn pruning_skips_most_of_a_heavy_tailed_graph() {
    // What the bound is for: under a hop bound the few nodes with a fast
    // contact and a large ball are searched, the tail is not.
    let (g, _) = heavy_tailed(2_000, 5_000, 1, 7);
    let partition = label_propagation_communities(&g, LABEL_PROPAGATION_ROUNDS);
    let work = assert_selection_is_the_sweeps_top_k(&g, &partition, Some(3), &[8], "tail");
    assert!(work.searches_run < 500, "{work:?}");
    assert!(work.candidates_pruned > 1_500, "{work:?}");
}

#[test]
fn metric_ties_across_batches_are_broken_by_id() {
    // Under a one-hop bound a node's metric is the sum of its contacts'
    // weights and its bound counts them. Node 0 has two contacts of rate
    // `r`; node 1 has those and a third so slow that its weight is
    // exactly 0 — the same metric bits, a larger bound. A batch and more
    // of decoys (three contacts, one of rate `r`) share node 1's bound
    // and score less. Node 1 is evaluated in the first batch, node 0 not
    // before the second; it ties on metric and must win on id.
    let (r, slow, never) = (1e-4, 1e-6, 1e-300);
    let hubs = 2 + sweep::BATCH as u32 + 8;
    let mut g = ContactGraph::new(hubs as usize * 4);
    let mut leaf = hubs;
    let mut attach = |g: &mut ContactGraph, node: u32, rates: &[f64]| {
        for &rate in rates {
            g.set_rate(NodeId(node), NodeId(leaf), rate);
            leaf += 1;
        }
    };
    attach(&mut g, 0, &[r, r]);
    attach(&mut g, 1, &[r, r, never]);
    for decoy in 2..hubs {
        attach(&mut g, decoy, &[r, slow, slow]);
    }
    let partition = CommunityPartition::single(g.node_count());
    let full = scoped_metrics(&g, &partition, 7_200.0, Some(1));
    assert_eq!(full[0].metric.to_bits(), full[1].metric.to_bits());
    assert!(full[0].metric > full[2].metric);
    assert_selection_is_the_sweeps_top_k(&g, &partition, Some(1), &[1, 2, 3], "tie");
    let top = select_central_nodes_scoped(&g, &partition, 1, 7_200.0, Some(1));
    assert_eq!(top[0].node, NodeId(0));
}

#[test]
fn a_ring_of_exact_ties_selects_by_id() {
    // Every node is bounded the same and, wrap-around aside (the sum
    // runs in id order), scores the same bits: ids decide, in the first
    // batch and past it.
    let mut ring = ContactGraph::new(300);
    for i in 0..300u32 {
        ring.set_rate(NodeId(i), NodeId((i + 1) % 300), 2e-4);
    }
    let partition = CommunityPartition::single(300);
    let full = scoped_metrics(&ring, &partition, 7_200.0, Some(2));
    let tied = |s: &&CentralityScore| s.metric.to_bits() == full[40].metric.to_bits();
    assert!(full.iter().filter(tied).count() >= 296);
    for max_hops in [Some(2), None] {
        assert_selection_is_the_sweeps_top_k(&ring, &partition, max_hops, &[1, 140, 300], "ring");
    }
}

#[test]
fn zero_metrics_pad_the_selection_with_the_sweeps_own_bits() {
    // Communities: {0, 1, 2} where node 0 meets nobody in it, the pair
    // {3, 4}, and 200 singletons. Two nodes score above zero; the rest
    // pad the selection in the order `top_k` puts the sweep's zeros in —
    // and the sweep's zero for node 0 is whatever an empty `sum()` over
    // its settled set is, sign included, not an assumed `+0.0`.
    let n = 205;
    let mut g = ContactGraph::new(n);
    g.set_rate(NodeId(1), NodeId(2), 1e-3);
    g.set_rate(NodeId(0), NodeId(3), 1e-3);
    g.set_rate(NodeId(3), NodeId(4), 1e-9);
    let labels: Vec<u32> = (0..n as u32)
        .map(|i| match i {
            0..=2 => 0,
            3 | 4 => 1,
            _ => i,
        })
        .collect();
    let partition = CommunityPartition::from_labels(&labels);
    for max_hops in [Some(3), None] {
        let full = scoped_metrics(&g, &partition, 7_200.0, max_hops);
        assert_eq!(full.iter().filter(|s| s.metric > 0.0).count(), 4);
        assert_eq!(full[0].metric, 0.0);
        let ks = [1, 4, 5, 6, 40, n, n + 10];
        let work = assert_selection_is_the_sweeps_top_k(&g, &partition, max_hops, &ks, "pad");
        assert_eq!((work.searches_run, work.candidates_pruned), (5, 0));
    }
    // The first batch is filled before there is a k-th metric to hold a
    // bound against; with the top four in it, the second is never drawn.
    let (_, work) = sweep::select_scoped_counted(&g, &partition, 4, 7_200.0, Some(3), 1);
    let second_batch = (n - sweep::BATCH) as u64;
    assert_eq!(
        (work.searches_run, work.candidates_pruned),
        (5, second_batch)
    );
}
