//! Differential guarantees of the city-scale engine.
//!
//! Two equivalences keep the streaming/sparse fast paths honest:
//!
//! - [`SyntheticTraceBuilder::stream`] must yield exactly the contact
//!   sequence `build()` materializes — same seed, same contacts, same
//!   order (proptest over builder configurations, plus a large-N
//!   time-ordering regression through the sampled pair-selection path);
//! - [`select_central_nodes_scoped`] over a single community — which is
//!   what the `PathMetric` strategy runs — must equal Eq. 3 as
//!   the paper defines it bit for bit, and at multi-community scale its
//!   metric distribution must stay as skewed as §IV-B expects;
//! - the pruned selection every strategy entry point runs must be the
//!   top `k` of the full sweep, bit for bit, on a seeded city graph —
//!   while searching a fraction of it (`dtn-core`'s own tests hold the
//!   same on hand-built partitions, ties and zero metrics).

use dtn_coop_cache::core::graph::{ContactGraph, CsrGraph, Topology};
use dtn_coop_cache::core::ncl::{
    all_metrics, label_propagation_communities, metric_skew, scoped_metrics, select_by_strategy,
    select_by_strategy_counted, select_central_nodes_scoped, CentralityScore, CommunityPartition,
    SelectionStrategy,
};
use dtn_coop_cache::core::path::shortest_paths;
use dtn_coop_cache::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streaming and materialized generation are the same generator:
    /// for any builder configuration up to 200 nodes and any of the
    /// pluggable per-pair contact processes, `stream()` yields
    /// `build()`'s contact vector element for element.
    #[test]
    fn stream_equals_build(
        nodes in 2usize..=200,
        seed in 0u64..1_000,
        communities in 1usize..=5,
        target in 200u64..3_000,
        burstiness in 1.0f64..4.0,
        process_idx in 0usize..ContactProcessKind::ALL.len(),
    ) {
        let builder = SyntheticTraceBuilder::new(nodes)
            .duration(Duration::days(1))
            .target_contacts(target)
            .communities(communities.min(nodes))
            .burstiness(burstiness)
            .contact_process(ContactProcessKind::ALL[process_idx])
            .seed(seed);
        let built = builder.build();
        let streamed: Vec<_> = builder.stream().collect();
        prop_assert_eq!(built.contacts(), &streamed[..]);
    }
}

/// Large populations take the sampled (Miller–Hagberg) pair-selection
/// path instead of the exact `C(N,2)` sweep; the merged stream must
/// still be globally time-ordered and in-bounds.
#[test]
fn large_population_stream_is_time_ordered() {
    let builder = SyntheticTraceBuilder::new(5_000)
        .duration(Duration::hours(12))
        .target_contacts(60_000)
        .communities(10)
        .edge_density(10.0 / 4_999.0)
        .seed(11);
    let duration = Duration::hours(12).as_secs();
    let mut count = 0u64;
    let mut last_start = Time(0);
    for c in builder.stream() {
        assert!(c.start >= last_start, "stream went back in time");
        assert!(c.start < Time(duration), "contact starts past the end");
        assert!(c.end > c.start, "empty contact");
        assert!(c.a < c.b, "contact endpoints not normalized");
        assert!(c.b.index() < 5_000, "node out of range");
        last_start = c.start;
        count += 1;
    }
    assert!(
        (30_000..=120_000).contains(&count),
        "calibration way off target: {count} contacts"
    );
}

/// A deterministic sparse graph: spanning chain plus hashed extra
/// edges, so the scoped-vs-global comparison sees varied topologies
/// without pulling an RNG into the test crate.
fn random_graph(n: usize, extra_edges: usize, seed: u64) -> ContactGraph {
    let mut g = ContactGraph::new(n);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 1..n as u32 {
        let rate = 1e-4 + (next() % 1_000) as f64 * 1e-6;
        g.set_rate(NodeId(i - 1), NodeId(i), rate);
    }
    for _ in 0..extra_edges {
        let a = (next() % n as u64) as u32;
        let b = (next() % n as u64) as u32;
        if a != b {
            let rate = 1e-4 + (next() % 1_000) as f64 * 1e-6;
            g.set_rate(NodeId(a), NodeId(b), rate);
        }
    }
    g
}

/// Eq. 3 as the paper writes it — the reference, kept in the test: the
/// mean, over the other `N − 1` nodes in id order, of the best path
/// weight from `i`.
fn eq3<G: Topology>(graph: &G, i: NodeId, horizon: f64) -> f64 {
    let table = shortest_paths(graph, i, horizon);
    let others = (0..graph.node_count() as u32).map(NodeId);
    let sum: f64 = others.filter(|&j| j != i).map(|j| table.weight_to(j)).sum();
    sum / (graph.node_count() - 1) as f64
}

/// With one community and no hop bound, the scoped sweep — the one
/// implementation behind `all_metrics` and the `PathMetric` strategy —
/// must be Eq. 3 exactly: same nodes, same metric bits, on
/// adjacency-list and CSR storage alike.
#[test]
fn scoped_selection_matches_global_on_single_community() {
    fn check<G: Topology + Sync>(g: &G, what: &str) {
        let n = g.node_count();
        let mut by_definition: Vec<(NodeId, f64)> = (0..n as u32)
            .map(|i| (NodeId(i), eq3(g, NodeId(i), 7_200.0)))
            .collect();
        for (score, &(node, metric)) in all_metrics(g, 7_200.0).iter().zip(&by_definition) {
            assert_eq!(score.node, node);
            assert_eq!(score.metric.to_bits(), metric.to_bits(), "{what}: C_{node}");
        }
        by_definition.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let partition = CommunityPartition::single(n);
        for k in [1, 3, 8] {
            let scoped = select_central_nodes_scoped(g, &partition, k, 7_200.0, None);
            let by_strategy = select_by_strategy(g, k, 7_200.0, SelectionStrategy::PathMetric);
            let want: Vec<_> = by_definition[..k.min(n)]
                .iter()
                .map(|&(node, metric)| (node, metric.to_bits()))
                .collect();
            for selected in [&scoped, &by_strategy] {
                let got: Vec<_> = selected
                    .iter()
                    .map(|s| (s.node, s.metric.to_bits()))
                    .collect();
                assert_eq!(got, want, "{what} k={k}: selection diverged from Eq. 3");
            }
        }
    }
    for (n, extras, seed) in [(24usize, 40usize, 1u64), (60, 150, 5), (120, 400, 9)] {
        let g = random_graph(n, extras, seed);
        check(&g, &format!("n={n}"));
        let edges = g.nodes().flat_map(|a| {
            let to_higher = g.neighbors(a).iter().filter(move |&&(b, _)| a < b);
            to_higher.map(move |&(b, rate)| (a, b, rate))
        });
        check(&CsrGraph::from_edges(n, edges), &format!("n={n} (csr)"));
    }
    // Exact metric ties (a ring: every node scores the same, ids decide)
    // and the smallest graph the metric is defined on.
    let mut ring = ContactGraph::new(6);
    for i in 0..6u32 {
        ring.set_rate(NodeId(i), NodeId((i + 1) % 6), 2e-4);
    }
    check(&ring, "ring");
    let mut pair = ContactGraph::new(2);
    pair.set_rate(NodeId(0), NodeId(1), 2e-4);
    check(&pair, "pair");
}

/// At multi-community scale the scoped metric distribution must keep
/// the paper's skew ("few nodes contact many others and act as the
/// communication hubs", §IV-B): the central picks concentrate well
/// above the median node.
#[test]
fn scoped_metrics_stay_skewed_at_community_scale() {
    let trace = SyntheticTraceBuilder::new(1_200)
        .duration(Duration::days(1))
        .target_contacts(30_000)
        .communities(6)
        .community_boost(6.0)
        .edge_density(12.0 / 1_199.0)
        .seed(4)
        .build();
    let now = Time(trace.duration().as_secs());
    let table = trace.rate_table(now);
    let g = CsrGraph::from_rate_table(&table, now);
    assert!(g.node_count() == 1_200);
    let partition = label_propagation_communities(&g, 16);
    assert!(
        partition.count() > 1,
        "label propagation collapsed to one community"
    );
    let scores = scoped_metrics(&g, &partition, 7_200.0, Some(3));
    let skew = metric_skew(&scores);
    assert!(
        skew.max_over_median > 1.5,
        "scoped metric distribution lost its skew: {skew:?}"
    );
}

/// The selection `configure` runs at city scale — label propagation,
/// three-hop community-scoped Eq. 3, pruned by bound — against the full
/// sweep sorted: same `k` nodes, same order, same metric bits, on both
/// graph storages, for a fraction of the searches.
#[test]
fn pruned_selection_is_the_full_sweeps_top_k_on_a_city_graph() {
    let trace = SyntheticTraceBuilder::new(2_000)
        .duration(Duration::days(1))
        .target_contacts(50_000)
        .communities(10)
        .edge_density(12.0 / 1_999.0)
        .seed(42)
        .build();
    let now = Time(trace.duration().as_secs() / 2);
    let table = trace.rate_table(now);
    let csr = CsrGraph::from_rate_table(&table, now);
    let lists = ContactGraph::from_rate_table(&table, now);

    /// Returns the searches the `k = 8` selection ran.
    fn check<G: Topology + Sync>(g: &G, what: &str) -> u64 {
        let partition = label_propagation_communities(g, 16);
        let mut full = scoped_metrics(g, &partition, 7_200.0, Some(3));
        full.sort_by(|a, b| b.metric.total_cmp(&a.metric).then(a.node.cmp(&b.node)));
        let bits = |scores: &[CentralityScore]| -> Vec<(NodeId, u64)> {
            scores
                .iter()
                .map(|s| (s.node, s.metric.to_bits()))
                .collect()
        };
        let strategy = SelectionStrategy::CommunityPathMetric { max_hops: Some(3) };
        let n = g.node_count() as u64;
        let searches = [1, 8, 200].map(|k| {
            let (selected, work) = select_by_strategy_counted(g, k, 7_200.0, strategy);
            assert_eq!(selected, select_by_strategy(g, k, 7_200.0, strategy));
            assert_eq!(bits(&selected), bits(&full[..k]), "{what} k={k}");
            assert_eq!(work.communities, partition.count() as u64);
            assert!(work.searches_run + work.candidates_pruned <= n, "{work:?}");
            work.searches_run
        });
        assert!(searches[1] * 3 < n, "{what}: {searches:?} searches of {n}");
        searches[1]
    }
    assert_eq!(check(&csr, "csr"), check(&lists, "lists"));
}
