//! Differential test: the allocation-free incremental path engine must
//! be indistinguishable from an owned-path reference.
//!
//! `shortest_paths` grows per-node hypoexponential accumulators along
//! the search tree and evaluates candidate weights with `extended_cdf`;
//! [`bounded_reference`] carries an owned route and rate vector in every
//! label and re-evaluates the full CDF from scratch on every relaxation.
//! Both are exact label-setting searches over the same weight function,
//! and the accumulator is constructed so that incremental and batch
//! evaluation run identical floating-point operations — so with no hop
//! bound routes must be equal and weights must agree to the last bit.
//!
//! The same graphs also hold the early exit (`shortest_paths_until_in`)
//! against the exhaustive search: whatever a partial table answers, it
//! answers with the exhaustive table's bits and routes, and what it did
//! not settle it reports as unanswered — never as unreachable. The batch
//! entry point (`shortest_paths_batch`) is held against those serial
//! searches job for job, on 1, 2 and 5 workers, refilling the tables of
//! a first batch with the other kind of search in a second. And they
//! hold the hop-bounded search (`bounded_shortest_paths`) with a bound
//! of at least `n` hops against the unbounded one, weight for weight.
//!
//! Under a bound that bites (1–4 hops) the same reference holds the
//! bounded search: the search builds a CDF accumulator only for the
//! nodes it relaxes from and recycles those between searches, the
//! reference knows neither trick. Leaves of the bound and interior nodes
//! must agree `to_bits`, on adjacency-list and CSR storage alike.
//!
//! The lazy reach (`bounded_reach`) is held against that eager search in
//! turn: it settles the inner ball only and weighs a leaf when
//! `weight_to` is asked for it, rebuilding each rim path it tries from
//! the predecessor chain, and every `(source, dest)` read must equal the
//! eager reach's `to_bits` — over graphs whose rates come from a
//! four-value palette (exact ties, decided by the id tie-break, and
//! Erlang paths), from just beside it (perturbed stages), from a band
//! with λT ≫ 40 (weights that round to 1, where the pop order is not
//! monotone at the ulp level) and from the continuous range. The
//! oracle, which searches the CSR snapshot the product builds, is held
//! against searches over adjacency lists of the same rates across every
//! way its cache turns over: bounded `PathOracle::weight` against the
//! eager reach, unbounded `weight` and `table` against `shortest_paths`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dtn_coop_cache::core::graph::{ContactGraph, CsrGraph, Topology};
use dtn_coop_cache::core::hypoexp;
use dtn_coop_cache::core::ids::NodeId;
use dtn_coop_cache::core::path::{
    bounded_reach, bounded_shortest_paths, shortest_paths, shortest_paths_batch,
    shortest_paths_until_in, PathTable, ReachScratch, SparseReach,
};
use dtn_coop_cache::core::rate::RateTable;
use dtn_coop_cache::core::time::{Duration, Time};
use dtn_coop_cache::sim::oracle::PathOracle;

use proptest::prelude::*;

/// Builds a graph from an arbitrary edge list, skipping self-loops.
fn graph_from_edges(n: usize, edges: &[(u32, u32, f64)]) -> ContactGraph {
    let mut g = ContactGraph::new(n);
    for &(a, b, r) in edges {
        let (a, b) = (a % n as u32, b % n as u32);
        if a != b {
            g.set_rate(NodeId(a), NodeId(b), r);
        }
    }
    g
}

/// [`graph_from_edges`] in CSR storage: the same edges, the last rate
/// given to a pair winning, in CSR's own neighbour order.
fn csr_from_edges(n: usize, edges: &[(u32, u32, f64)]) -> CsrGraph {
    let modulo = |v: u32| NodeId(v % n as u32);
    CsrGraph::from_edges(
        n,
        edges
            .iter()
            .map(|&(a, b, r)| (modulo(a), modulo(b), r))
            .filter(|&(a, b, _)| a != b),
    )
}

/// A sparse reach's entries, weights by bit pattern.
fn reach_bits(reach: &SparseReach) -> Vec<(NodeId, u64)> {
    reach
        .entries()
        .iter()
        .map(|&(v, w)| (v, w.to_bits()))
        .collect()
}

/// Compares the optimized search against [`bounded_reference`] with no
/// hop bound for every destination: same reachability, same route, same
/// weight bits. The hop-bounded search with a bound no path can reach
/// (`max_hops ≥ n`) is the same loop read through the sparse extractor,
/// so it must list the same settled set with the same bits.
fn assert_equivalent(g: &ContactGraph, source: NodeId, horizon: f64) -> Result<(), String> {
    let table = shortest_paths(g, source, horizon);
    let reference = bounded_reference(g, source, horizon, usize::MAX);
    let mut settled = reference.iter().peekable();
    for dest in g.nodes() {
        let optimized = table.path_to(dest);
        let want = settled.next_if(|(v, _, _)| *v == dest);
        match (optimized, want) {
            (None, None) => {
                if table.weight_to(dest) != 0.0 {
                    return Err(format!(
                        "unreachable n{dest} has nonzero weight {}",
                        table.weight_to(dest)
                    ));
                }
            }
            (Some(p), Some((_, bits, route))) => {
                if p.nodes() != route.as_slice() {
                    return Err(format!(
                        "route to n{dest} differs: {:?} vs {route:?}",
                        p.nodes()
                    ));
                }
                let w_opt = table.weight_to(dest);
                if w_opt.to_bits() != *bits {
                    let w_ref = f64::from_bits(*bits);
                    return Err(format!("weight to n{dest} differs: {w_opt} vs {w_ref}"));
                }
                // Lazily reconstructed paths must reproduce the cached
                // weight exactly (batch CDF over the same rate order).
                if p.weight(horizon) != w_opt {
                    return Err(format!(
                        "reconstructed weight {} != cached {w_opt} for n{dest}",
                        p.weight(horizon)
                    ));
                }
            }
            (a, b) => {
                return Err(format!(
                    "reachability to n{dest} differs: optimized {:?} vs reference {:?}",
                    a.map(|p| p.nodes().to_vec()),
                    b.map(|(_, _, route)| route)
                ));
            }
        }
    }
    let n = g.node_count();
    let dense: Vec<(NodeId, u64)> = table
        .iter_weights()
        .map(|(v, w)| (v, w.to_bits()))
        .collect();
    let mut scratch = ReachScratch::new();
    for max_hops in [n, n + 5, usize::MAX] {
        let bounded = reach_bits(&bounded_shortest_paths(
            g,
            source,
            horizon,
            max_hops,
            &mut scratch,
        ));
        if bounded != dense {
            return Err(format!(
                "bounded search (max_hops {max_hops}) differs from the dense one: \
                 {bounded:?} vs {dense:?}"
            ));
        }
    }
    Ok(())
}

/// The hop-bounded search in its owned-path formulation: every label
/// carries the route and the rates of its tentative path, every
/// relaxation re-evaluates the batch `hypoexp::cdf` over the extended
/// rate vector, and a path that already has `max_hops` hops settles
/// without relaxing anything. Same max-heap order and id tie-break as
/// the crate's loop. Returns the settled `(node, weight bits, route)` in
/// ascending id order — what `SparseReach::entries` lists, plus each
/// node's route from `source`.
fn bounded_reference<G: Topology>(
    g: &G,
    source: NodeId,
    horizon: f64,
    max_hops: usize,
) -> Vec<(NodeId, u64, Vec<NodeId>)> {
    struct Label {
        weight: f64,
        node: NodeId,
        route: Vec<NodeId>,
        rates: Vec<f64>,
    }
    impl PartialEq for Label {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
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
            self.weight
                .total_cmp(&other.weight)
                .then_with(|| other.node.cmp(&self.node))
        }
    }

    let n = g.node_count();
    let mut settled = vec![false; n];
    let mut best = vec![f64::NEG_INFINITY; n];
    let mut out = Vec::new();
    let mut heap = BinaryHeap::new();
    best[source.index()] = 1.0;
    heap.push(Label {
        weight: 1.0,
        node: source,
        route: vec![source],
        rates: Vec::new(),
    });
    while let Some(Label {
        weight,
        node,
        route,
        rates,
    }) = heap.pop()
    {
        if settled[node.index()] {
            continue;
        }
        settled[node.index()] = true;
        for &(peer, rate) in g.neighbors(node) {
            if rates.len() >= max_hops || settled[peer.index()] {
                continue;
            }
            let mut extended = rates.clone();
            extended.push(rate);
            let w = hypoexp::cdf(&extended, horizon);
            if w > best[peer.index()] {
                best[peer.index()] = w;
                let mut to_peer = route.clone();
                to_peer.push(peer);
                heap.push(Label {
                    weight: w,
                    node: peer,
                    route: to_peer,
                    rates: extended,
                });
            }
        }
        out.push((node, weight.to_bits(), route));
    }
    out.sort_unstable_by_key(|&(v, _, _)| v);
    out
}

/// Holds `bounded_shortest_paths` at bounds 1..=4 against
/// [`bounded_reference`] on one graph. All four searches (and the
/// caller's earlier ones) share `scratch`, so recycled accumulators are
/// part of what is tested.
fn assert_bounded_equivalent<G: Topology>(
    g: &G,
    source: NodeId,
    horizon: f64,
    scratch: &mut ReachScratch,
) -> Result<(), String> {
    for max_hops in 1..=4 {
        let got = reach_bits(&bounded_shortest_paths(
            g, source, horizon, max_hops, scratch,
        ));
        let want: Vec<(NodeId, u64)> = bounded_reference(g, source, horizon, max_hops)
            .into_iter()
            .map(|(v, bits, _)| (v, bits))
            .collect();
        if got != want {
            return Err(format!(
                "{max_hops}-hop search from {source} differs from the reference: \
                 {got:?} vs {want:?}"
            ));
        }
        if scratch.accumulators_built() > got.len() {
            return Err("more accumulators built than nodes settled".into());
        }
    }
    Ok(())
}

/// What [`assert_lazy_equivalent`] saw: reads answered from the inner
/// set, reads that replayed a leaf's label to a non-zero weight, and
/// the CDF evaluations those replays made.
#[derive(Debug, Default, Clone, Copy)]
struct LazyReads {
    inner: usize,
    replayed: usize,
    evaluations: usize,
}

/// Holds `bounded_reach(..).weight_to` at bounds 1..=5 against
/// `bounded_shortest_paths(..).weight_to` for every `(source, dest)`
/// pair of one graph, plus one id past it. A leaf read rebuilds the path
/// of each rim neighbour it tries, up to four stages long.
fn assert_lazy_equivalent<G: Topology>(
    g: &G,
    horizon: f64,
    scratch: &mut ReachScratch,
    reads: &mut LazyReads,
) -> Result<(), String> {
    let n = g.node_count() as u32;
    for max_hops in 1..=5 {
        for source in (0..n).map(NodeId) {
            let eager = bounded_shortest_paths(g, source, horizon, max_hops, scratch);
            let lazy = bounded_reach(g, source, horizon, max_hops, scratch);
            if lazy.settled_count() > eager.entries().len() {
                return Err("the lazy search settled more than the eager one".into());
            }
            for dest in (0..=n).map(NodeId) {
                let want = eager.weight_to(dest);
                let (got, evaluations) = lazy.weight_to(g, dest, scratch);
                if got.to_bits() != want.to_bits() {
                    return Err(format!(
                        "{max_hops} hops, {source} to {dest}: lazy {got:?} vs eager {want:?} \
                         after {evaluations} evaluations"
                    ));
                }
                if evaluations == 0 {
                    reads.inner += usize::from(want != 0.0);
                } else {
                    reads.replayed += usize::from(want != 0.0);
                    reads.evaluations += evaluations as usize;
                }
            }
        }
    }
    Ok(())
}

/// The four-value palette of [`mixed_rate`].
const PALETTE: [f64; 4] = [2e-4, 5e-4, 1e-3, 4e-3];

/// The rate of a generated edge: a four-value palette (exact ties, and
/// paths of equal stages on the Erlang branch), a band with `λT` between
/// 50 and 1 050 (every weight rounds to 1 or one ulp below it), a palette
/// value moved by less than the hypoexp module's relative separation of
/// 1e-4 (a stage that lands next to a palette stage is perturbed), or
/// the drawn rate itself.
fn mixed_rate(kind: u32, drawn: f64, horizon: f64) -> f64 {
    match kind {
        0..=3 => PALETTE[kind as usize],
        4 | 5 => (50.0 + drawn * 1e4) / horizon,
        7 | 8 => PALETTE[(drawn * 1e7) as usize % 4] * (1.0 + drawn * 9e-4),
        _ => drawn,
    }
}

/// Holds the search stopped at `targets` against the exhaustive one.
fn assert_early_exit_exact(
    g: &ContactGraph,
    source: NodeId,
    horizon: f64,
    targets: &[NodeId],
) -> Result<(), String> {
    let full = shortest_paths(g, source, horizon);
    let partial = shortest_paths_until_in(g, source, horizon, targets, &mut ReachScratch::new());
    let in_range: Vec<NodeId> = targets
        .iter()
        .copied()
        .filter(|t| t.index() < g.node_count())
        .collect();

    // Every target is answered, with the exhaustive bits and route.
    for &t in &in_range {
        let Some(w) = partial.settled_weight(t) else {
            return Err(format!("target {t} left unanswered (targets {targets:?})"));
        };
        if w.to_bits() != full.weight_to(t).to_bits() {
            return Err(format!(
                "weight to target {t} differs: {w} vs {}",
                full.weight_to(t)
            ));
        }
        if partial.path_to(t) != full.path_to(t) {
            return Err(format!("route to target {t} differs"));
        }
    }

    // Nothing to stop for, or a target that never settles: exhaustion.
    let must_exhaust = in_range.is_empty() || in_range.iter().any(|&t| full.path_to(t).is_none());
    if must_exhaust && !partial.is_complete() {
        return Err(format!(
            "targets {targets:?} cannot stop the search, yet the table is partial"
        ));
    }
    if partial.settled_count() > full.settled_count() {
        return Err("early exit settled more nodes than exhaustion".into());
    }

    // Every node is either answered exactly or reported unanswered; a
    // partial table never passes "not settled yet" off as weight 0.
    let settled: Vec<NodeId> = partial.iter_weights().map(|(v, _)| v).collect();
    if settled.len() != partial.settled_count() {
        return Err("settled_count disagrees with iter_weights".into());
    }
    for v in g.nodes() {
        match partial.settled_weight(v) {
            Some(w) if w.to_bits() == full.weight_to(v).to_bits() => {}
            Some(w) => {
                return Err(format!(
                    "{v} answered {w}, exhaustive search says {}",
                    full.weight_to(v)
                ));
            }
            None if partial.is_complete() || settled.contains(&v) => {
                return Err(format!("final entry {v} reported unanswered"));
            }
            None => {}
        }
    }
    Ok(())
}

/// [`shortest_paths_batch`] against the serial search it stands for: one
/// job per node, every other one stopping at `targets`, on 1, 2 and 5
/// workers; a second batch flips every job's stop flag and refills the
/// first batch's tables in place. Each table must read, node for node,
/// what `shortest_paths_until_in` returns, and the accumulators built
/// must sum to the serial searches'.
fn assert_batch_is_serial(
    g: &ContactGraph,
    horizon: f64,
    targets: &[NodeId],
) -> Result<(), String> {
    for width in [1, 2, 5] {
        let mut scratches: Vec<ReachScratch> = (0..width).map(|_| ReachScratch::new()).collect();
        let mut jobs: Vec<(NodeId, bool, PathTable)> = g
            .nodes()
            .map(|s| (s, s.0 % 2 == 0, PathTable::default()))
            .collect();
        for pass in 0..2 {
            for job in &mut jobs {
                job.1 ^= pass == 1;
            }
            let built = shortest_paths_batch(g, horizon, targets, &mut jobs, &mut scratches);
            let mut serial_built = 0;
            for (source, stop, table) in &jobs {
                let mut scratch = ReachScratch::new();
                let stop_at = if *stop { targets } else { &[] };
                let want = shortest_paths_until_in(g, *source, horizon, stop_at, &mut scratch);
                serial_built += scratch.accumulators_built();
                let context = format!("{width} workers, pass {pass}, {source}, stop {stop}");
                if (table.is_complete(), table.settled_count())
                    != (want.is_complete(), want.settled_count())
                {
                    return Err(format!("{context}: table shape differs"));
                }
                for v in g.nodes() {
                    let (got, expected) = (table.settled_weight(v), want.settled_weight(v));
                    if got.map(f64::to_bits) != expected.map(f64::to_bits) {
                        return Err(format!("{context}: {v} reads {got:?}, serial {expected:?}"));
                    }
                    if got.is_some() && table.path_to(v) != want.path_to(v) {
                        return Err(format!("{context}: route to {v} differs"));
                    }
                }
            }
            if built != serial_built {
                return Err(format!(
                    "{width} workers, pass {pass}: {built} accumulators vs {serial_built}"
                ));
            }
        }
    }
    Ok(())
}

/// [`assert_early_exit_exact`] over target sets that cover the edge
/// cases on any graph: none, the source alone, each single node, a
/// duplicated pair, everything, and an id outside the graph.
fn assert_early_exit_cases(g: &ContactGraph, source: NodeId, horizon: f64) {
    let all: Vec<NodeId> = g.nodes().collect();
    let last = *all.last().expect("non-empty graph");
    let mut cases: Vec<Vec<NodeId>> = vec![
        vec![],
        vec![source],
        vec![last, source, last],
        all.clone(),
        vec![NodeId(all.len() as u32 + 7)],
        vec![last, NodeId(u32::MAX)],
    ];
    cases.extend(all.iter().map(|&v| vec![v]));
    for targets in &cases {
        assert_early_exit_exact(g, source, horizon, targets).unwrap();
        assert_batch_is_serial(g, horizon, targets).unwrap();
    }
}

#[test]
fn line_graph_is_equivalent() {
    let mut g = ContactGraph::new(6);
    for i in 0..5u32 {
        g.set_rate(NodeId(i), NodeId(i + 1), 1e-3 * f64::from(i + 1));
    }
    assert_equivalent(&g, NodeId(0), 5000.0).unwrap();
    assert_equivalent(&g, NodeId(3), 5000.0).unwrap();
    assert_early_exit_cases(&g, NodeId(0), 5000.0);
    assert_early_exit_cases(&g, NodeId(3), 5000.0);
    // On a line from one end the stop is visible: n2 settles third.
    let partial = shortest_paths_until_in(
        &g,
        NodeId(0),
        5000.0,
        &[NodeId(2)],
        &mut ReachScratch::new(),
    );
    assert!(!partial.is_complete());
    assert_eq!(partial.settled_count(), 3);
    assert_eq!(partial.settled_weight(NodeId(3)), None);
}

#[test]
fn disconnected_components_are_equivalent() {
    let mut g = ContactGraph::new(7);
    g.set_rate(NodeId(0), NodeId(1), 2e-3);
    g.set_rate(NodeId(1), NodeId(2), 3e-3);
    g.set_rate(NodeId(4), NodeId(5), 1e-2);
    assert_equivalent(&g, NodeId(0), 2000.0).unwrap();
    assert_equivalent(&g, NodeId(4), 2000.0).unwrap();
    assert_equivalent(&g, NodeId(6), 2000.0).unwrap();
    for source in [0, 4, 6] {
        assert_early_exit_cases(&g, NodeId(source), 2000.0);
    }
    // A target in another component never settles: the search falls
    // through to exhaustion and the table is complete, weight 0.
    let table = shortest_paths_until_in(
        &g,
        NodeId(0),
        2000.0,
        &[NodeId(1), NodeId(5)],
        &mut ReachScratch::new(),
    );
    assert!(table.is_complete());
    assert_eq!(table.settled_weight(NodeId(5)), Some(0.0));
    assert!(table.path_to(NodeId(5)).is_none());
}

#[test]
fn clustered_rates_are_equivalent() {
    // Near-identical rates exercise the perturbation fallback of the
    // accumulator; prefix-stability must keep both searches in lockstep.
    let base = 1.0 / 700.0;
    let mut g = ContactGraph::new(5);
    g.set_rate(NodeId(0), NodeId(1), base);
    g.set_rate(NodeId(1), NodeId(2), base * (1.0 + 1e-9));
    g.set_rate(NodeId(2), NodeId(3), base);
    g.set_rate(NodeId(0), NodeId(4), base * (1.0 - 1e-10));
    g.set_rate(NodeId(4), NodeId(3), base);
    assert_equivalent(&g, NodeId(0), 3000.0).unwrap();
    assert_early_exit_cases(&g, NodeId(0), 3000.0);
}

/// A deterministic 104-node graph with three edges in four in the rate
/// band where every weight is 1 or an ulp or two below it: under four
/// hops the pop order is not monotone, and a replay that compares a
/// leaf's label against the next rim neighbour only — rather than
/// against every pop before it — ends one candidate late on five of its
/// pairs (`1` where the eager search says `0.9999999999999999`).
#[test]
fn lazy_reach_survives_a_non_monotone_pop_order() {
    let horizon = 3600.0;
    let mut edges = Vec::new();
    let mut x = 0x2545_f491_4f6c_dd1du64.wrapping_mul(26);
    for _ in 0..300 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let drawn = ((x >> 11) % 100_000) as f64 * 1e-6 + 1e-6;
        let kind = if (x >> 40) % 8 < 6 { 4 } else { 6 };
        edges.push((
            (x >> 3) as u32 % 104,
            (x >> 23) as u32 % 104,
            mixed_rate(kind, drawn, horizon),
        ));
    }
    let mut scratch = ReachScratch::new();
    let mut reads = LazyReads::default();
    for result in [
        assert_lazy_equivalent(
            &graph_from_edges(104, &edges),
            horizon,
            &mut scratch,
            &mut reads,
        ),
        assert_lazy_equivalent(
            &csr_from_edges(104, &edges),
            horizon,
            &mut scratch,
            &mut reads,
        ),
    ] {
        result.unwrap();
    }
    assert!(reads.inner > 10_000 && reads.replayed > 10_000, "{reads:?}");
    assert!(reads.evaluations > reads.replayed, "{reads:?}");
}

/// A leaf whose adjacency row lists its three rim neighbours out of the
/// order they pop in: n1, n2, n3 pop in that order from n0 under two
/// hops, and n4's row reads n3, n1, n2. Each candidate's label stays
/// below the next rim weight, so the replay weighs all three, in pop
/// order, whatever order the row keeps them in.
#[test]
fn a_leaf_replays_its_rim_in_pop_order_not_row_order() {
    let horizon = 3600.0;
    let mut g = ContactGraph::new(5);
    for (rim, rate) in [(1, 1e-3), (2, 5e-4), (3, 2e-4)] {
        g.set_rate(NodeId(0), NodeId(rim), rate);
    }
    for (rim, rate) in [(3, 5e-3), (1, 1e-4), (2, 1e-4)] {
        g.set_rate(NodeId(4), NodeId(rim), rate);
    }
    let row: Vec<u32> = g.neighbors(NodeId(4)).iter().map(|&(v, _)| v.0).collect();
    assert_eq!(row, [3, 1, 2]);
    let mut scratch = ReachScratch::new();
    let eager = bounded_shortest_paths(&g, NodeId(0), horizon, 2, &mut scratch);
    let lazy = bounded_reach(&g, NodeId(0), horizon, 2, &mut scratch);
    let (w, evaluations) = lazy.weight_to(&g, NodeId(4), &mut scratch);
    assert_eq!(evaluations, 3);
    assert_eq!(w.to_bits(), eager.weight_to(NodeId(4)).to_bits());
    let mut reads = LazyReads::default();
    assert_lazy_equivalent(&g, horizon, &mut scratch, &mut reads).unwrap();
}

/// Seeded contacts on a ring with a few long chords, so that three hops
/// do not span it; `meet` records `contacts` more from time `at` on.
fn ring_meetings(nodes: u32) -> impl FnMut(&mut RateTable, usize, u64) {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    move |rates: &mut RateTable, contacts: usize, at: u64| {
        for i in 0..contacts {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (x >> 33) as u32 % nodes;
            let b = if (x >> 20).is_multiple_of(12) {
                (x >> 8) as u32 % nodes
            } else {
                (a + 1) % nodes
            };
            if a != b {
                rates.record(NodeId(a), NodeId(b), Time(at + i as u64));
            }
        }
    }
}

/// Runs `sweep` at the four points where an oracle's cache turns over —
/// its first epoch, a wall-clock refresh, a generation rebuild inside the
/// refresh window, and `invalidate()` — and checks the epoch count after
/// each. The rates come from [`ring_meetings`] over `nodes` nodes.
fn across_every_turnover(
    oracle: &mut PathOracle,
    nodes: u32,
    mut sweep: impl FnMut(&mut PathOracle, &RateTable, Time),
) {
    let mut meet = ring_meetings(nodes);
    let mut rates = RateTable::new(nodes as usize, Time::ZERO);
    meet(&mut rates, 160, 10);
    sweep(oracle, &rates, Time(1_000));
    assert_eq!(oracle.snapshot_epoch(), 1);
    sweep(oracle, &rates, Time(1_000 + 3_600));
    assert_eq!(oracle.snapshot_epoch(), 2);
    meet(&mut rates, 400, 4_700);
    sweep(oracle, &rates, Time(5_200));
    assert_eq!(oracle.snapshot_epoch(), 3);
    oracle.invalidate();
    sweep(oracle, &rates, Time(5_300));
    assert_eq!(oracle.snapshot_epoch(), 4);
}

/// The bounded `PathOracle::weight`, which searches the product's CSR
/// snapshot, equals the eager reach over the adjacency lists of the same
/// rates, for all pairs, across everything that turns its per-source
/// cache over.
#[test]
fn bounded_oracle_reads_equal_the_eager_reach() {
    const N: u32 = 60;
    let horizon = 3600.0;
    let mut oracle = PathOracle::new(N as usize, horizon, Duration::hours(1)).with_bounded_reach(3);
    let mut scratch = ReachScratch::new();
    across_every_turnover(&mut oracle, N, |oracle, rates, now| {
        let lists = ContactGraph::from_rate_table(rates, now);
        let (mut zero, mut leaf) = (0, oracle.stats().leaf_evaluations);
        // Destination-major, so that consecutive reads change source;
        // source-major again for the hits.
        for (s, d) in (0..N * N)
            .map(|i| (i % N, i / N))
            .chain((0..N * N).map(|i| (i / N, i % N)))
        {
            let want = match s == d {
                true => 1.0,
                false => bounded_shortest_paths(&lists, NodeId(s), horizon, 3, &mut scratch)
                    .weight_to(NodeId(d)),
            };
            let got = oracle.weight(rates, now, NodeId(s), NodeId(d));
            assert_eq!(got.to_bits(), want.to_bits(), "n{s} to n{d} at {now:?}");
            zero += usize::from(want == 0.0);
        }
        leaf = oracle.stats().leaf_evaluations - leaf;
        assert!(
            zero > 0 && leaf > 0,
            "bound never bit ({zero}) or no leaf was read ({leaf})"
        );
    });
    let stats = oracle.stats();
    assert_eq!(
        stats.table_hits + stats.table_recomputes,
        4 * 2 * u64::from(N * (N - 1)),
        "every read that is not a self-read is a hit or a recompute"
    );
    assert_eq!(
        stats.table_recomputes,
        4 * u64::from(N),
        "one reach per source per epoch"
    );
}

/// The dense twin: unbounded `PathOracle::weight` and `table` over the CSR
/// snapshot equal `shortest_paths` over the adjacency lists of the same
/// rates, to the bit, across the same turnovers — with the centrals'
/// early exit in play for the reads to a target.
#[test]
fn dense_oracle_reads_equal_the_exhaustive_search() {
    const N: u32 = 60;
    let horizon = 3600.0;
    let mut oracle = PathOracle::new(N as usize, horizon, Duration::hours(1));
    oracle.set_targets(&[NodeId(0), NodeId(31)]);
    across_every_turnover(&mut oracle, N, |oracle, rates, now| {
        let lists = ContactGraph::from_rate_table(rates, now);
        for s in (0..N).map(NodeId) {
            let want = shortest_paths(&lists, s, horizon);
            // Target reads first (a partial table), then every node.
            for d in [0, 31].into_iter().chain(0..N).map(NodeId) {
                let got = oracle.weight(rates, now, s, d);
                assert_eq!(got.to_bits(), want.weight_to(d).to_bits(), "{s} to {d}");
            }
            let table = oracle.table(rates, now, s);
            for d in (0..N).map(NodeId) {
                assert_eq!(
                    table.weight_to(d).to_bits(),
                    want.weight_to(d).to_bits(),
                    "table of {s} at {d}"
                );
                assert_eq!(
                    table.path_to(d).map(|p| p.nodes().to_vec()),
                    want.path_to(d).map(|p| p.nodes().to_vec())
                );
            }
        }
    });
}

/// Holds every bounded read from every source of `g`, leaf replays
/// included, at bounds 1..=3 below `hypoexp::weight_cap` of the source's
/// fastest contact: the bound `PathOracle::heavier` decides by.
fn assert_capped<G: Topology>(
    g: &G,
    horizon: f64,
    scratch: &mut ReachScratch,
) -> Result<(), String> {
    let n = g.node_count() as u32;
    for max_hops in 1..=3 {
        for source in (0..n).map(NodeId) {
            let fastest = g
                .neighbors(source)
                .iter()
                .map(|&(_, r)| r)
                .fold(0.0, f64::max);
            let cap = hypoexp::weight_cap(fastest, horizon, Some(max_hops));
            let reach = bounded_reach(g, source, horizon, max_hops, scratch);
            for dest in (0..n).map(NodeId).filter(|&d| d != source) {
                let (weight, evaluations) = reach.weight_to(g, dest, scratch);
                if weight > cap {
                    return Err(format!(
                        "{max_hops} hops, {source} to {dest}: {weight:?} above the cap {cap:?} \
                         after {evaluations} evaluations"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// When the rates of [`compared_rates`] are read.
const COMPARED_AT: Time = Time(1_000_000);

/// A rate table whose cumulative rates at [`COMPARED_AT`] are contact
/// counts over 10⁶ s: per edge `(a, b, kind, drawn)`, a four-count
/// palette for kinds 0–3 (exact ties), 10 000, 10 001 or 10 002
/// contacts for kinds 4–6 (rates 1e-4 apart, inside the hypoexp
/// module's relative separation: a path through them is perturbed,
/// twice for the third stage), else `drawn` contacts. A pair listed
/// twice adds its counts.
fn compared_rates(n: usize, edges: &[(u32, u32, u32, u64)]) -> RateTable {
    let mut rates = RateTable::new(n, Time::ZERO);
    for &(a, b, kind, drawn) in edges {
        let (a, b) = (NodeId(a % n as u32), NodeId(b % n as u32));
        let contacts = match kind {
            0..=3 => [1, 3, 10, 40][kind as usize],
            4..=6 => 10_000 + u64::from(kind - 4),
            _ => drawn,
        };
        if a != b {
            for _ in 0..contacts {
                rates.record(a, b, Time(1));
            }
        }
    }
    rates
}

/// `heavier(a, b, d)` on fresh oracles from `oracle`, from every starting
/// state — neither side searched this epoch, either one, both — answers
/// `want` and builds no more reaches than the two reads would from the
/// same state.
fn assert_heavier_from_every_state(
    oracle: &dyn Fn() -> PathOracle,
    rates: &RateTable,
    (a, b, d): (NodeId, NodeId, NodeId),
    want: bool,
) -> Result<(), String> {
    let now = COMPARED_AT;
    for searched in [&[][..], &[a], &[b], &[a, b]] {
        let (mut compared, mut read) = (oracle(), oracle());
        for o in [&mut compared, &mut read] {
            for &s in searched {
                o.weight(rates, now, s, d);
            }
        }
        let before = compared.stats().table_recomputes;
        let got = compared.heavier(rates, now, a, b, d);
        read.weight(rates, now, a, d);
        read.weight(rates, now, b, d);
        let (built, read) = (
            compared.stats().table_recomputes - before,
            read.stats().table_recomputes - before,
        );
        if got != want || built > read {
            return Err(format!(
                "{a} over {b} to {d}, {searched:?} searched: {got} for {want}, \
                 {built} reaches for two reads' {read}"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lazy reach answers every read of every source as the eager
    /// bounded search does, at bounds 1..=5, on both graph storages (the
    /// adjacency lists keep rows in insertion order, CSR in id order),
    /// over rates that tie exactly, rates whose weights round to 1, rates
    /// within the separation of a palette rate, and ordinary ones.
    #[test]
    fn lazy_reach_matches_the_eager_search_on_random_graphs(
        n in 2usize..48,
        edges in prop::collection::vec((0u32..48, 0u32..48, 0u32..12, 1e-6f64..1e-1), 1..160),
        horizon in 50.0f64..1e6,
    ) {
        let edges: Vec<(u32, u32, f64)> = edges
            .iter()
            .map(|&(a, b, kind, drawn)| (a, b, mixed_rate(kind, drawn, horizon)))
            .collect();
        let mut scratch = ReachScratch::new();
        let mut reads = LazyReads::default();
        for result in [
            assert_lazy_equivalent(&graph_from_edges(n, &edges), horizon, &mut scratch, &mut reads),
            assert_lazy_equivalent(&csr_from_edges(n, &edges), horizon, &mut scratch, &mut reads),
        ] {
            if let Err(message) = result {
                prop_assert!(false, "{}", message);
            }
        }
    }

    /// Randomized graphs of up to 24 nodes: the optimized engine must
    /// produce the naive reference's routes and weights everywhere.
    #[test]
    fn random_graphs_are_equivalent(
        n in 2usize..24,
        edges in prop::collection::vec((0u32..24, 0u32..24, 1e-6f64..1e-1), 1..80),
        horizon in 50.0f64..1e6,
        source in 0u32..24,
    ) {
        let g = graph_from_edges(n, &edges);
        let source = NodeId(source % n as u32);
        if let Err(message) = assert_equivalent(&g, source, horizon) {
            prop_assert!(false, "{}", message);
        }
    }

    /// The hop-bounded search at bounds 1..=4 equals its owned-path
    /// reference on every entry — leaves of the bound, which build no
    /// accumulator, and interior nodes alike — on both graph storages,
    /// through one scratch that is never fresh after the first search.
    #[test]
    fn bounded_search_matches_its_reference_on_random_graphs(
        n in 2usize..24,
        edges in prop::collection::vec((0u32..24, 0u32..24, 1e-6f64..1e-1), 1..80),
        horizon in 50.0f64..1e6,
        source in 0u32..24,
    ) {
        let g = graph_from_edges(n, &edges);
        let csr = csr_from_edges(n, &edges);
        let source = NodeId(source % n as u32);
        let mut scratch = ReachScratch::new();
        for result in [
            assert_bounded_equivalent(&g, source, horizon, &mut scratch),
            assert_bounded_equivalent(&csr, source, horizon, &mut scratch),
        ] {
            if let Err(message) = result {
                prop_assert!(false, "{}", message);
            }
        }
    }

    /// The same graphs with random target sets (duplicates, the source,
    /// unreachable nodes and the empty set all occur): stopping at the
    /// targets changes no bit and no route of anything it answers.
    #[test]
    fn early_exit_is_exact_on_random_graphs(
        n in 2usize..24,
        edges in prop::collection::vec((0u32..24, 0u32..24, 1e-6f64..1e-1), 1..80),
        horizon in 50.0f64..1e6,
        source in 0u32..24,
        targets in prop::collection::vec(0u32..24, 0..6),
    ) {
        let g = graph_from_edges(n, &edges);
        let source = NodeId(source % n as u32);
        let targets: Vec<NodeId> = targets.iter().map(|t| NodeId(t % n as u32)).collect();
        if let Err(message) = assert_early_exit_exact(&g, source, horizon, &targets)
            .and_then(|()| assert_batch_is_serial(&g, horizon, &targets))
        {
            prop_assert!(false, "{}", message);
        }
    }

    /// What the comparison prunes by holds on every graph the lazy reach
    /// is held on: no bounded read of up to three hops answers above the
    /// first-hop cap of its source, on either storage.
    #[test]
    fn a_bounded_weight_never_exceeds_its_first_hop_cap(
        n in 2usize..48,
        edges in prop::collection::vec((0u32..48, 0u32..48, 0u32..12, 1e-6f64..1e-1), 1..160),
        horizon in 50.0f64..1e6,
    ) {
        let edges: Vec<(u32, u32, f64)> = edges
            .iter()
            .map(|&(a, b, kind, drawn)| (a, b, mixed_rate(kind, drawn, horizon)))
            .collect();
        let mut scratch = ReachScratch::new();
        for result in [
            assert_capped(&graph_from_edges(n, &edges), horizon, &mut scratch),
            assert_capped(&csr_from_edges(n, &edges), horizon, &mut scratch),
        ] {
            if let Err(message) = result {
                prop_assert!(false, "{}", message);
            }
        }
    }

    /// The bounded `PathOracle::heavier`, at bounds 1..=5 and horizons
    /// from 100 s to 10⁹ s (weights near 0 through weights that round to
    /// 1), answers `weight(a, d) > weight(b, d)` of a fresh oracle for
    /// every triple, one id past the population included, from every
    /// starting state — neither side searched this epoch, either one,
    /// both — with node 0 a target, and builds no more reaches than the
    /// two reads would from the same state.
    #[test]
    fn bounded_comparisons_equal_two_fresh_reads(
        n in 2usize..9,
        edges in prop::collection::vec((0u32..9, 0u32..9, 0u32..8, 1u64..2_000), 1..30),
        exponent in 2.0f64..9.0,
        max_hops in 1usize..=5,
    ) {
        let rates = compared_rates(n, &edges);
        let horizon = 10f64.powf(exponent);
        let now = COMPARED_AT;
        let oracle = || {
            let mut o = PathOracle::new(n, horizon, Duration::hours(1)).with_bounded_reach(max_hops);
            o.set_targets(&[NodeId(0)]);
            o
        };
        let ids: Vec<NodeId> = (0..=n as u32).map(NodeId).collect();
        let mut fresh = oracle();
        let weights: Vec<Vec<f64>> = ids
            .iter()
            .map(|&s| ids.iter().map(|&d| fresh.weight(&rates, now, s, d)).collect())
            .collect();
        let triples = ids.iter().flat_map(|&a| ids.iter().map(move |&b| (a, b)));
        for (a, b, d) in triples.flat_map(|(a, b)| ids.iter().map(move |&d| (a, b, d))) {
            let want = weights[a.index()][d.index()] > weights[b.index()][d.index()];
            if let Err(message) = assert_heavier_from_every_state(&oracle, &rates, (a, b, d), want) {
                prop_assert!(false, "{}", message);
            }
        }
    }

    /// The same comparison where the destination's ball has work: up to
    /// 24 nodes and few edges, so most pairs are two or three hops apart
    /// and a node's fastest contact often leads away from the
    /// destination, which its first-hop cap cannot see. Sampled triples,
    /// one id past the population included, from every starting state,
    /// at bounds 1..=5: `heavier` answers two fresh reads and builds no
    /// more reaches than they would.
    #[test]
    fn destination_bounded_comparisons_equal_two_fresh_reads(
        n in 6usize..24,
        edges in prop::collection::vec((0u32..24, 0u32..24, 0u32..10, 1u64..2_000), 4..40),
        triples in prop::collection::vec((0u32..25, 0u32..25, 0u32..25), 1..24),
        exponent in 2.0f64..8.0,
        max_hops in 1usize..=5,
    ) {
        let rates = compared_rates(n, &edges);
        let horizon = 10f64.powf(exponent);
        let (now, id) = (COMPARED_AT, |i: u32| NodeId(i % (n as u32 + 1)));
        let oracle = || PathOracle::new(n, horizon, Duration::hours(1)).with_bounded_reach(max_hops);
        let mut fresh = oracle();
        for &(a, b, d) in &triples {
            let (a, b, d) = (id(a), id(b), id(d));
            let want = fresh.weight(&rates, now, a, d) > fresh.weight(&rates, now, b, d);
            if let Err(message) = assert_heavier_from_every_state(&oracle, &rates, (a, b, d), want) {
                prop_assert!(false, "{}", message);
            }
        }
    }
}
