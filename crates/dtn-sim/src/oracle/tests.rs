use super::*;

fn rates_line() -> RateTable {
    let mut r = RateTable::new(4, Time::ZERO);
    for t in 1..=5u64 {
        r.record(NodeId(0), NodeId(1), Time(t * 100));
        r.record(NodeId(1), NodeId(2), Time(t * 100));
        r.record(NodeId(2), NodeId(3), Time(t * 100));
    }
    r
}

#[test]
fn weight_decreases_with_distance() {
    let rates = rates_line();
    let mut o = PathOracle::new(4, 3600.0, Duration::hours(1));
    let now = Time(1000);
    let w1 = o.weight(&rates, now, NodeId(0), NodeId(1));
    let w2 = o.weight(&rates, now, NodeId(0), NodeId(2));
    let w3 = o.weight(&rates, now, NodeId(0), NodeId(3));
    assert!(w1 > w2 && w2 > w3 && w3 > 0.0);
}

#[test]
fn forward_is_the_greedy_relay_rule() {
    let rates = rates_line();
    let mut o = PathOracle::new(4, 1000.0, Duration::hours(1));
    let now = Time(600);
    let forward = |o: &mut PathOracle, from, to, dest| {
        o.forward(&rates, now, NodeId(from), NodeId(to), NodeId(dest))
    };
    // The destination always accepts, even from far away; a carrier
    // at the destination never forwards.
    assert!(forward(&mut o, 0, 2, 2));
    assert!(!forward(&mut o, 2, 0, 2));
    // 1 is closer to 2 than 0 is.
    assert!(forward(&mut o, 0, 1, 2));
    assert!(!forward(&mut o, 1, 0, 2));
}

#[test]
fn cache_hit_reuses_table_until_refresh() {
    let mut rates = rates_line();
    let mut o = PathOracle::new(4, 3600.0, Duration::hours(1));
    let w_before = o.weight(&rates, Time(1000), NodeId(0), NodeId(1));
    // Add more contacts — too few to trip the generation threshold —
    // and stay inside the refresh window: the cached table must still
    // be served.
    for t in 6..=50u64 {
        rates.record(NodeId(0), NodeId(1), Time(t * 100));
    }
    let w_cached = o.weight(&rates, Time(1500), NodeId(0), NodeId(1));
    assert_eq!(w_before, w_cached);
    // After the refresh interval the new rates are picked up.
    let w_fresh = o.weight(&rates, Time(1000 + 3600), NodeId(0), NodeId(1));
    assert!(w_fresh > w_cached);
}

#[test]
fn one_snapshot_serves_all_sources_within_an_epoch() {
    let rates = rates_line();
    let mut o = PathOracle::new(4, 3600.0, Duration::hours(1));
    for s in 0..4u32 {
        let _ = o.weight(&rates, Time(1000 + u64::from(s)), NodeId(s), NodeId(3));
    }
    // Four sources, one shared contact-graph build.
    assert_eq!(o.snapshot_epoch(), 1);
}

#[test]
fn generation_growth_invalidates_despite_endless_refresh_interval() {
    // Regression: with a refresh interval longer than the whole
    // simulated period, a wall-clock-only oracle would serve the
    // weights of the first few contacts forever. Generation
    // versioning must pick up the drastically changed rate table.
    let mut rates = rates_line();
    let mut o = PathOracle::new(4, 3600.0, Duration::hours(10_000));
    let w_first = o.weight(&rates, Time(1000), NodeId(0), NodeId(1));
    // Roughly an order of magnitude more contacts: far past the
    // doubling threshold.
    for t in 6..=150u64 {
        rates.record(NodeId(0), NodeId(1), Time(t * 10));
    }
    let w_updated = o.weight(&rates, Time(1500), NodeId(0), NodeId(1));
    assert!(o.snapshot_epoch() >= 2, "snapshot was never rebuilt");
    assert!(
        w_updated > w_first,
        "stale weight {w_first} still served after massive rate change ({w_updated})"
    );
}

#[test]
fn generation_slack_and_doubling_thresholds_are_exact() {
    // Pins the invalidation rule: a snapshot taken at generation g
    // survives until generation g + max(g, GENERATION_SLACK)
    // inclusive, and is rebuilt on the very next recorded contact.
    let mut rates = RateTable::new(2, Time::ZERO);
    // Wall-clock refresh effectively disabled; `now` held constant.
    let mut o = PathOracle::new(2, 3600.0, Duration::hours(10_000));
    let (a, b) = (NodeId(0), NodeId(1));
    rates.record(a, b, Time(1));
    let _ = o.weight(&rates, Time(10), a, b);
    assert_eq!(o.snapshot_epoch(), 1); // snapshot at generation 1

    // Slack regime (g = 1 < 64): stale only past generation 1 + 64.
    while rates.generation() < 65 {
        rates.record(a, b, Time(2));
    }
    let _ = o.weight(&rates, Time(10), a, b);
    assert_eq!(o.snapshot_epoch(), 1, "gen 65 = 1 + max(1, 64): cached");
    rates.record(a, b, Time(3));
    let _ = o.weight(&rates, Time(10), a, b);
    assert_eq!(o.snapshot_epoch(), 2, "gen 66 > 65: rebuilt");

    // Doubling regime (g = 66 > 64): stale only past 66 + 66.
    while rates.generation() < 132 {
        rates.record(a, b, Time(4));
    }
    let _ = o.weight(&rates, Time(10), a, b);
    assert_eq!(o.snapshot_epoch(), 2, "gen 132 = 66 + max(66, 64): cached");
    rates.record(a, b, Time(5));
    let _ = o.weight(&rates, Time(10), a, b);
    assert_eq!(o.snapshot_epoch(), 3, "gen 133 > 132: rebuilt");
}

#[test]
fn generation_rebuilds_are_amortised() {
    // Querying after every single contact must not rebuild per
    // contact: the doubling rule keeps rebuild count logarithmic.
    let mut rates = RateTable::new(3, Time::ZERO);
    let mut o = PathOracle::new(3, 3600.0, Duration::hours(10_000));
    for t in 1..=2000u64 {
        rates.record(NodeId(0), NodeId(1), Time(t));
        let _ = o.weight(&rates, Time(t), NodeId(0), NodeId(1));
    }
    let epochs = o.snapshot_epoch();
    assert!(
        epochs <= 12,
        "expected O(log contacts) snapshot rebuilds, got {epochs}"
    );
}

#[test]
fn invalidate_forces_recompute() {
    let mut rates = rates_line();
    let mut o = PathOracle::new(4, 3600.0, Duration::hours(1));
    let w0 = o.weight(&rates, Time(1000), NodeId(0), NodeId(1));
    for t in 6..=50u64 {
        rates.record(NodeId(0), NodeId(1), Time(t * 10));
    }
    o.invalidate();
    let w1 = o.weight(&rates, Time(1000), NodeId(0), NodeId(1));
    assert!(w1 > w0);
}

#[test]
fn stats_count_rebuilds_hits_and_recomputes() {
    let rates = rates_line();
    let mut o = PathOracle::new(4, 3600.0, Duration::hours(1));
    assert_eq!(o.stats(), OracleStats::default());
    let _ = o.weight(&rates, Time(1000), NodeId(0), NodeId(3)); // recompute
    let _ = o.weight(&rates, Time(1001), NodeId(0), NodeId(2)); // hit
    let _ = o.weight(&rates, Time(1002), NodeId(1), NodeId(3)); // recompute
    let _ = o.weight(&rates, Time(1003), NodeId(1), NodeId(1)); // self: no table
    let s = o.stats();
    assert_eq!(s.rebuilds, 1);
    assert_eq!(s.table_recomputes, 2);
    assert_eq!(s.table_hits, 1);
    assert_eq!(s.invalidations, 0);
    assert_eq!(
        s.nodes_settled, 8,
        "two exhaustive searches of the 4-node line"
    );
    assert_eq!(
        s.accumulators_built, 8,
        "no hop bound, no target: every settled node relaxes"
    );
    assert_eq!(s.reach_bytes, 0, "dense mode builds no reach");
    o.invalidate();
    let _ = o.weight(&rates, Time(1004), NodeId(0), NodeId(3));
    let s = o.stats();
    assert_eq!(s.invalidations, 1);
    assert_eq!(s.rebuilds, 2);
    assert_eq!(s.table_recomputes, 3);
}

/// Node 0 meets every other node often; the spokes never meet each
/// other. Every spoke-to-spoke path runs through the hub.
fn rates_star(nodes: u32) -> RateTable {
    let mut r = RateTable::new(nodes as usize, Time::ZERO);
    for t in 1..=5u64 {
        for spoke in 1..nodes {
            r.record(NodeId(0), NodeId(spoke), Time(t * 100 + u64::from(spoke)));
        }
    }
    r
}

/// One interleaving of every kind of read and every kind of
/// invalidation, returning the bits of everything the oracle said. Every
/// read that is not a self-read, and every `table` call, must count as a
/// hit or a recompute.
fn drive(o: &mut PathOracle, retarget: impl Fn(&mut PathOracle, &[NodeId])) -> Vec<u64> {
    const N: u32 = 12;
    let mut rates = rates_star(N);
    // A few spoke-to-spoke contacts so routes are not all via the hub.
    for (a, b) in [(3, 4), (4, 5), (7, 9), (2, 11)] {
        rates.record(NodeId(a), NodeId(b), Time(650));
    }
    let mut said = Vec::new();
    let mut reads = 0;
    let mut sweep = |o: &mut PathOracle, rates: &RateTable, now: Time| {
        // The two `table` calls below.
        reads += 2;
        let mut read = |o: &mut PathOracle, s: u32, d: u32| {
            reads += u64::from(s != d);
            o.weight(rates, now, NodeId(s), NodeId(d)).to_bits()
        };
        // Target reads from every source: early exit where allowed.
        for s in 0..N {
            for d in [0, 3] {
                said.push(read(o, s, d));
            }
        }
        // Non-target reads: a partial table cannot answer these.
        for (s, d) in [(5, 7), (5, 0), (9, 10), (0, 4), (11, 2)] {
            said.push(read(o, s, d));
        }
        // Whole tables, over a partial one (6) and a complete one (5).
        for s in [6, 5] {
            let table = o.table(rates, now, NodeId(s));
            assert!(table.is_complete(), "table() handed out a partial table");
            said.extend((0..N).map(|d| table.weight_to(NodeId(d)).to_bits()));
        }
        // And target reads again, now against whatever is cached.
        for s in 0..N {
            said.push(read(o, s, 3));
        }
    };
    retarget(o, &[NodeId(0), NodeId(3)]);
    sweep(o, &rates, Time(1000));
    // Wall-clock refresh.
    sweep(o, &rates, Time(1000 + 3600));
    assert_eq!(o.snapshot_epoch(), 2);
    // Generation-triggered rebuild inside the refresh window.
    for t in 0..400u64 {
        rates.record(NodeId(1), NodeId(2), Time(4700 + t));
    }
    sweep(o, &rates, Time(5200));
    assert_eq!(o.snapshot_epoch(), 3);
    // New targets mid-epoch.
    retarget(o, &[NodeId(3), NodeId(8)]);
    sweep(o, &rates, Time(5250));
    assert_eq!(o.snapshot_epoch(), 3);
    // Re-election: invalidate, new targets (one of them bogus).
    o.invalidate();
    retarget(o, &[NodeId(3), NodeId(8), NodeId(N + 5)]);
    sweep(o, &rates, Time(5300));
    assert_eq!(o.snapshot_epoch(), 4);
    let s = o.stats();
    assert_eq!(s.table_hits + s.table_recomputes, reads, "{s:?}");
    said
}

#[test]
fn targets_change_work_never_answers() {
    let oracle = || PathOracle::new(12, 3600.0, Duration::hours(1));
    let mut plain = oracle();
    let mut targeted = oracle();
    let reference = drive(&mut plain, |_, _| {});
    let answers = drive(&mut targeted, |o, targets| o.set_targets(targets));
    assert_eq!(answers, reference, "a target set changed an answer");
    let (p, t) = (plain.stats(), targeted.stats());
    assert_eq!(p.rebuilds, t.rebuilds);
    assert_eq!(p.invalidations, t.invalidations);
    assert!(t.nodes_settled < p.nodes_settled, "{t:?} vs {p:?}");
}

#[test]
fn targets_change_bounded_work_never_answers() {
    // The bounded twin: a target's weight is kept in the column from its
    // first read of the epoch, so later reads of it weigh no leaf. Two
    // hops from a spoke is a leaf behind the hub, node 3 among them.
    let oracle = || PathOracle::new(12, 3600.0, Duration::hours(1)).with_bounded_reach(2);
    let mut plain = oracle();
    let mut targeted = oracle();
    let reference = drive(&mut plain, |_, _| {});
    let answers = drive(&mut targeted, |o, targets| o.set_targets(targets));
    assert_eq!(answers, reference, "a target set changed an answer");
    let (p, t) = (plain.stats(), targeted.stats());
    assert!(t.leaf_evaluations < p.leaf_evaluations, "{t:?} vs {p:?}");
    // The column saves leaf work and nothing else is counted otherwise.
    let leaf_evaluations = p.leaf_evaluations;
    assert_eq!(
        OracleStats {
            leaf_evaluations,
            ..t
        },
        p
    );
}

#[test]
fn a_bounded_table_leaves_the_column_bounded() {
    // n3 is three hops from n0 on the line: 0 under a two-hop bound, and
    // a positive weight in the exact table `table()` hands out. Neither
    // order of the two reads may put the table's weight in the column.
    let rates = rates_line();
    let now = Time(1000);
    let mut fresh = PathOracle::new(4, 3600.0, Duration::hours(1)).with_bounded_reach(2);
    let want = fresh.weight(&rates, now, NodeId(0), NodeId(3));
    assert_eq!(want, 0.0);
    for table_first in [false, true] {
        let mut o = PathOracle::new(4, 3600.0, Duration::hours(1)).with_bounded_reach(2);
        o.set_targets(&[NodeId(3)]);
        if !table_first {
            assert_eq!(
                o.weight(&rates, now, NodeId(0), NodeId(3)).to_bits(),
                want.to_bits()
            );
        }
        assert!(o.table(&rates, now, NodeId(0)).weight_to(NodeId(3)) > 0.0);
        for _ in 0..2 {
            let got = o.weight(&rates, now, NodeId(0), NodeId(3));
            assert_eq!(got.to_bits(), want.to_bits(), "table first: {table_first}");
        }
    }
}

#[test]
fn the_column_is_bounded_modes_alone() {
    // Dense reads, tables and warms write no column; scale mode sizes it
    // for the targets named before or after the switch.
    let rates = rates_star(12);
    let targets = [NodeId(0), NodeId(3)];
    let mut dense = PathOracle::new(12, 3600.0, Duration::hours(1));
    dense.set_targets(&targets);
    dense.warm(&rates, Time(1000));
    let _ = dense.weight(&rates, Time(1000), NodeId(5), NodeId(3));
    let _ = dense.table(&rates, Time(1000), NodeId(7));
    assert!(dense.column.is_empty());
    let bounded = dense.with_bounded_reach(2);
    assert_eq!(bounded.column.len(), 12 * 2);
    let mut after = PathOracle::new(12, 3600.0, Duration::hours(1)).with_bounded_reach(2);
    after.set_targets(&targets);
    assert_eq!(after.column.len(), 12 * 2);
}

#[test]
fn a_bounded_central_weighs_its_leaf_once_an_epoch() {
    // Whether the targets are named before the switch to scale mode, as
    // the scheme does, or after it, and whether or not a dense read came
    // first: every source reads every central twice an epoch, the second
    // read is a load, and the leaves cost at most one evaluation a
    // (source, central) pair — the answers those of an oracle without
    // targets.
    const N: u32 = 12;
    let rates = rates_star(N);
    let centrals = [NodeId(0), NodeId(3), NodeId(8)];
    let oracle = || PathOracle::new(N as usize, 3600.0, Duration::hours(1));
    let mut before = oracle();
    before.set_targets(&centrals);
    let mut dense_first = oracle();
    dense_first.set_targets(&centrals);
    assert!(dense_first.weight(&rates, Time(1000), NodeId(5), NodeId(3)) > 0.0);
    let mut plain = oracle().with_bounded_reach(2);
    let mut after = oracle().with_bounded_reach(2);
    after.set_targets(&centrals);
    let mut oracles = [
        before.with_bounded_reach(2),
        dense_first.with_bounded_reach(2),
        after,
    ];
    for now in [Time(1000), Time(1000 + 3600)] {
        for o in &mut oracles {
            let start = o.stats();
            let mut reads = 0;
            for round in 0..2 {
                for s in (0..N).map(NodeId) {
                    for &c in &centrals {
                        let want = plain.weight(&rates, now, s, c);
                        let got = o.weight(&rates, now, s, c);
                        assert_eq!(got.to_bits(), want.to_bits(), "{s} to {c}, round {round}");
                        reads += u64::from(s != c);
                    }
                }
            }
            let s = o.stats();
            let leaves = s.leaf_evaluations - start.leaf_evaluations;
            assert!(
                leaves > 0 && leaves <= u64::from(N) * 3,
                "{leaves} evaluations"
            );
            let hits = s.table_hits - start.table_hits;
            let searched = s.table_recomputes - start.table_recomputes;
            assert_eq!((hits + searched, searched), (reads, u64::from(N)));
        }
    }
}

#[test]
fn an_out_of_range_node_reads_unreachable_in_dense_mode() {
    let rates = rates_line();
    let now = Time(1000);
    let mut o = PathOracle::new(4, 3600.0, Duration::hours(1));
    o.set_targets(&[NodeId(3)]);
    let (far, near) = (NodeId(4), NodeId(1));
    assert_eq!(o.weight(&rates, now, near, far), 0.0);
    assert_eq!(o.weight(&rates, now, far, near), 0.0);
    assert_eq!(o.weight(&rates, now, far, NodeId(3)), 0.0);
    assert!(!o.forward(&rates, now, near, far, NodeId(3)));
    // The one read counted is `forward`'s of the carrier's own weight.
    let s = o.stats();
    assert_eq!((s.table_hits, s.table_recomputes), (0, 1), "{s:?}");
}

#[test]
fn an_out_of_range_node_reads_unreachable_in_bounded_mode() {
    let rates = rates_line();
    let now = Time(1000);
    let mut o = PathOracle::new(4, 3600.0, Duration::hours(1)).with_bounded_reach(2);
    o.set_targets(&[NodeId(1)]);
    let (far, near) = (NodeId(4), NodeId(2));
    assert_eq!(o.weight(&rates, now, near, far), 0.0);
    assert_eq!(o.weight(&rates, now, far, near), 0.0);
    assert_eq!(o.weight(&rates, now, far, NodeId(1)), 0.0);
    assert!(!o.forward(&rates, now, near, far, NodeId(1)));
    // The one read counted is `forward`'s of the carrier's own weight.
    let s = o.stats();
    assert_eq!((s.table_hits, s.table_recomputes), (0, 1), "{s:?}");
}

/// `table` of a source past the population in oracle `o` over the line
/// of four: complete, weight 0 and no route to every node and to a node
/// past the population too, no work counted — and an in-range source
/// still searches.
fn assert_an_out_of_range_source_reads_an_empty_table(mut o: PathOracle) {
    let rates = rates_line();
    let now = Time(1000);
    for far in [NodeId(4), NodeId(u32::MAX)] {
        let table = o.table(&rates, now, far);
        assert!(table.is_complete());
        for dest in (0..6).map(NodeId).chain([far]) {
            assert_eq!(table.settled_weight(dest), Some(0.0), "{far} to {dest}");
            assert_eq!((table.weight_to(dest), table.path_to(dest)), (0.0, None));
        }
        assert_eq!(table.iter_weights().count(), 0);
    }
    assert_eq!(o.stats(), OracleStats::default());
    assert_eq!(o.table(&rates, now, NodeId(3)).settled_count(), 4);
    assert_eq!(o.stats().table_recomputes, 1);
}

#[test]
fn an_out_of_range_source_reads_an_empty_table_in_dense_mode() {
    let mut o = PathOracle::new(4, 3600.0, Duration::hours(1));
    o.set_targets(&[NodeId(3)]);
    assert_an_out_of_range_source_reads_an_empty_table(o);
}

#[test]
fn an_out_of_range_source_reads_an_empty_table_in_bounded_mode() {
    let mut o = PathOracle::new(4, 3600.0, Duration::hours(1)).with_bounded_reach(2);
    o.set_targets(&[NodeId(1)]);
    assert_an_out_of_range_source_reads_an_empty_table(o);
}

#[test]
fn warm_runs_the_first_reads_searches_once_per_epoch() {
    // A warmed oracle answers every read of the epoch from a table: the
    // same answers, searches and settled nodes as the cold reads, every
    // read a hit. Later warms of the epoch, and any warm in bounded mode
    // or without targets, do nothing.
    const N: u32 = 12;
    let rates = rates_star(N);
    let targets = [NodeId(0), NodeId(3)];
    for width in [1, 2] {
        let (mut cold, mut warmed) = (
            PathOracle::new(N as usize, 3600.0, Duration::hours(1)),
            PathOracle::new(N as usize, 3600.0, Duration::hours(1)),
        );
        warmed.scratches = (0..width).map(|_| ReachScratch::new()).collect();
        for o in [&mut cold, &mut warmed] {
            o.set_targets(&targets);
        }
        for now in [Time(1000), Time(1000 + 3600)] {
            warmed.warm(&rates, now);
            let searched = warmed.stats();
            warmed.warm(&rates, now);
            assert_eq!(warmed.stats(), searched, "a second warm of the epoch");
            for s in 0..N {
                for &d in &targets {
                    let want = cold.weight(&rates, now, NodeId(s), d);
                    let got = warmed.weight(&rates, now, NodeId(s), d);
                    assert_eq!(got.to_bits(), want.to_bits(), "{s} → {d}");
                }
            }
            let (c, w) = (cold.stats(), warmed.stats());
            assert_eq!(
                (w.rebuilds, w.table_recomputes, w.nodes_settled),
                (c.rebuilds, c.table_recomputes, c.nodes_settled)
            );
            assert_eq!(w.table_hits, c.table_hits + c.table_recomputes);
        }
    }
    let mut bounded = PathOracle::new(N as usize, 3600.0, Duration::hours(1)).with_bounded_reach(2);
    bounded.set_targets(&targets);
    let mut untargeted = PathOracle::new(N as usize, 3600.0, Duration::hours(1));
    for o in [&mut bounded, &mut untargeted] {
        o.warm(&rates, Time(1000));
        assert_eq!(o.stats(), OracleStats::default());
    }
}

#[test]
fn targets_cut_the_nodes_settled_per_recompute() {
    // Spoke → hub with the hub as the only target: the spoke settles
    // itself, then the hub, and stops. Without targets every one of
    // the searches settles the whole star.
    const N: u32 = 40;
    let rates = rates_star(N);
    let run = |targets: &[NodeId]| {
        let mut o = PathOracle::new(N as usize, 3600.0, Duration::hours(1));
        o.set_targets(targets);
        for spoke in 1..N {
            assert!(o.weight(&rates, Time(1000), NodeId(spoke), NodeId(0)) > 0.0);
        }
        o.stats()
    };
    let (plain, targeted) = (run(&[]), run(&[NodeId(0)]));
    assert_eq!(plain.table_recomputes, u64::from(N - 1));
    assert_eq!(targeted.table_recomputes, plain.table_recomputes);
    assert_eq!(plain.nodes_settled, u64::from(N) * plain.table_recomputes);
    assert_eq!(targeted.nodes_settled, 2 * targeted.table_recomputes);
}

#[test]
fn out_of_range_targets_are_ignored() {
    let rates = rates_line();
    let mut o = PathOracle::new(4, 3600.0, Duration::hours(1));
    o.set_targets(&[NodeId(4), NodeId(u32::MAX)]);
    // No usable target: the search is exhaustive, the answer exact.
    let w = o.weight(&rates, Time(1000), NodeId(0), NodeId(3));
    assert!(w > 0.0);
    assert_eq!(o.stats().nodes_settled, 4);
    // Mixed: the in-range one still stops the search.
    o.invalidate();
    o.set_targets(&[NodeId(9), NodeId(1)]);
    assert!(o.weight(&rates, Time(1000), NodeId(0), NodeId(1)) > 0.0);
    assert_eq!(o.stats().nodes_settled, 4 + 2);
}

#[test]
fn self_weight_is_one_without_computation() {
    let rates = RateTable::new(2, Time::ZERO);
    let mut o = PathOracle::new(2, 100.0, Duration::hours(1));
    assert_eq!(o.weight(&rates, Time(0), NodeId(1), NodeId(1)), 1.0);
}

#[test]
fn bounded_reach_matches_exact_weights_within_the_bound() {
    // The 4-node line has diameter 3: a 4-hop bound must reproduce
    // the dense oracle's weights bit for bit.
    let rates = rates_line();
    let mut exact = PathOracle::new(4, 3600.0, Duration::hours(1));
    let mut scaled = PathOracle::new(4, 3600.0, Duration::hours(1)).with_bounded_reach(4);
    let now = Time(1000);
    for s in 0..4u32 {
        for d in 0..4u32 {
            assert_eq!(
                exact.weight(&rates, now, NodeId(s), NodeId(d)),
                scaled.weight(&rates, now, NodeId(s), NodeId(d)),
                "weight {s}→{d} diverged under the hop bound"
            );
        }
    }
}

#[test]
fn hop_bound_truncates_distant_weights_to_zero() {
    let rates = rates_line();
    let mut o = PathOracle::new(4, 3600.0, Duration::hours(1)).with_bounded_reach(1);
    let now = Time(1000);
    // One hop: direct neighbor reachable, two hops away is not.
    assert!(o.weight(&rates, now, NodeId(0), NodeId(1)) > 0.0);
    assert_eq!(o.weight(&rates, now, NodeId(0), NodeId(2)), 0.0);
    // One search, and it settled n0 alone: under one hop the source
    // is its own rim and n1 a leaf, weighed by the read that asked
    // for it. n2 has no rim neighbour and cost nothing.
    let s = o.stats();
    assert_eq!(
        (s.table_recomputes, s.table_hits, s.nodes_settled),
        (1, 1, 1)
    );
    assert_eq!((s.accumulators_built, s.leaf_evaluations), (1, 1));
    // The reach is that one node: its id, weight, predecessor and its
    // place in the pop order.
    assert_eq!(s.reach_bytes, 20);
}

#[test]
fn scale_mode_still_serves_exact_dense_tables() {
    let rates = rates_line();
    let mut exact = PathOracle::new(4, 3600.0, Duration::hours(1));
    let mut scaled = PathOracle::new(4, 3600.0, Duration::hours(1)).with_bounded_reach(2);
    let now = Time(1000);
    let te = exact.table(&rates, now, NodeId(0));
    let ts = scaled.table(&rates, now, NodeId(0));
    for d in 0..4u32 {
        assert_eq!(te.weight_to(NodeId(d)), ts.weight_to(NodeId(d)));
    }
}

#[test]
fn invalidate_forces_a_bounded_recompute() {
    let mut rates = rates_line();
    let mut o = PathOracle::new(4, 3600.0, Duration::hours(1)).with_bounded_reach(4);
    let w0 = o.weight(&rates, Time(1000), NodeId(0), NodeId(1));
    // Each source keeps its reach for the epoch: one search per source
    // read, and every later read from it a hit.
    let _ = o.weight(&rates, Time(1000), NodeId(0), NodeId(3));
    let _ = o.weight(&rates, Time(1000), NodeId(3), NodeId(0));
    let _ = o.weight(&rates, Time(1000), NodeId(0), NodeId(2));
    let s = o.stats();
    assert_eq!((s.table_recomputes, s.table_hits, s.rebuilds), (2, 2, 1));
    for t in 6..=50u64 {
        rates.record(NodeId(0), NodeId(1), Time(t * 10));
    }
    o.invalidate();
    let w1 = o.weight(&rates, Time(1000), NodeId(0), NodeId(1));
    assert!(w1 > w0, "stale reach served after invalidate");
    let s = o.stats();
    assert_eq!((s.table_recomputes, s.table_hits, s.rebuilds), (3, 2, 2));
}

/// Central 0, a carrier 1 that meets it fifty times and a leaf 2 that
/// has met the carrier once.
fn rates_fast_carrier_slow_leaf() -> RateTable {
    let mut r = RateTable::new(3, Time::ZERO);
    for t in 1..=50u64 {
        r.record(NodeId(0), NodeId(1), Time(t * 10));
    }
    r.record(NodeId(1), NodeId(2), Time(700));
    r
}

#[test]
fn a_comparison_the_first_hop_cap_decides_searches_one_side() {
    let rates = rates_fast_carrier_slow_leaf();
    let now = Time(1000);
    let (carrier, leaf, central) = (NodeId(1), NodeId(2), NodeId(0));
    // The carrier's weight to the central (λT = 180) is above anything
    // the leaf's one slow contact (λT = 3.6) can carry: the carrier's
    // reach decides, and the leaf's is never built.
    let mut o = PathOracle::new(3, 3600.0, Duration::hours(1)).with_bounded_reach(3);
    assert!(!o.forward(&rates, now, carrier, leaf, central));
    assert_eq!(o.stats().table_recomputes, 1);
    // Asked the other way round with the leaf not yet searched, the
    // answered side (the carrier) is read first and decides again.
    assert!(o.heavier(&rates, now, carrier, leaf, central));
    assert_eq!((o.stats().table_recomputes, o.stats().table_hits), (1, 1));
    // Dense mode reads both sides.
    let mut dense = PathOracle::new(3, 3600.0, Duration::hours(1));
    assert!(!dense.forward(&rates, now, carrier, leaf, central));
    assert_eq!(dense.stats().table_recomputes, 2);
    // Past three hops the cap is the clamp: both sides again.
    let mut deep = PathOracle::new(3, 3600.0, Duration::hours(1)).with_bounded_reach(4);
    assert!(!deep.forward(&rates, now, carrier, leaf, central));
    assert_eq!(deep.stats().table_recomputes, 2);
}

#[test]
fn a_comparison_with_the_destination_searches_at_most_one_side() {
    let rates = rates_fast_carrier_slow_leaf();
    let now = Time(1000);
    let mut o = PathOracle::new(3, 3600.0, Duration::hours(1)).with_bounded_reach(3);
    // The destination weighs 1 to itself: no path is heavier, and a
    // source whose cap is below 1 is lighter without a search.
    assert!(!o.heavier(&rates, now, NodeId(2), NodeId(0), NodeId(0)));
    assert!(o.heavier(&rates, now, NodeId(0), NodeId(2), NodeId(0)));
    assert_eq!(o.stats().table_recomputes, 0);
    // The carrier's cap is above 1 and its weight rounds to 1: only its
    // read can tell that the destination is not heavier.
    assert!(!o.heavier(&rates, now, NodeId(0), NodeId(1), NodeId(0)));
    assert_eq!(o.stats().table_recomputes, 1);
}

/// Central 0; a carrier 1 that meets it five times; a node 2 that met
/// the central once and meets a node 3, which never met the central,
/// fifty times.
fn rates_fast_detour() -> RateTable {
    let mut r = RateTable::new(4, Time::ZERO);
    for t in 1..=50u64 {
        r.record(NodeId(2), NodeId(3), Time(t * 10));
    }
    for t in 1..=5u64 {
        r.record(NodeId(0), NodeId(1), Time(t * 100));
    }
    r.record(NodeId(0), NodeId(2), Time(700));
    r
}

#[test]
fn a_comparison_the_destination_ball_decides_searches_one_side() {
    let rates = rates_fast_detour();
    let now = Time(1000);
    let (central, carrier, met) = (NodeId(0), NodeId(1), NodeId(2));
    let mut o = PathOracle::new(4, 3600.0, Duration::hours(1)).with_bounded_reach(3);
    // The carrier's weight (λT = 18) is inside the met node's first-hop
    // cap (its contact with 3, λT = 180), so the cap leaves the
    // comparison open; every path from 2 to the central runs through its
    // one slow contact with it (λT = 3.6), and the central's ball says
    // so: the met node's reach is never built.
    assert!(!o.forward(&rates, now, carrier, met, central));
    let carried = o.weight(&rates, now, carrier, central);
    assert!(carried < weight_cap(0.05, 3600.0, Some(3)));
    assert!(carried > o.bound(met, central));
    let s = o.stats();
    assert_eq!((s.table_recomputes, s.balls_built), (1, 1));
    // The ball holds the central and the three nodes within two hops.
    assert_eq!(s.ball_bytes, 4 * 16);
    // A second comparison toward the central reads the same ball.
    assert!(!o.forward(&rates, now, carrier, NodeId(3), central));
    let s = o.stats();
    assert_eq!((s.table_recomputes, s.balls_built), (1, 1));
    // Without the ball (past three hops) the met node is searched too.
    let mut deep = PathOracle::new(4, 3600.0, Duration::hours(1)).with_bounded_reach(4);
    assert!(!deep.forward(&rates, now, carrier, met, central));
    assert_eq!(
        (deep.stats().table_recomputes, deep.stats().balls_built),
        (2, 0)
    );
    // Dense mode builds no ball either.
    let mut dense = PathOracle::new(4, 3600.0, Duration::hours(1));
    assert!(!dense.forward(&rates, now, carrier, met, central));
    assert_eq!(
        (dense.stats().table_recomputes, dense.stats().balls_built),
        (2, 0)
    );
}

mod bound {
    use super::*;
    use proptest::prelude::*;

    /// A rate table of `n` nodes from `(a, b, kind, drawn)` edges read at
    /// 10⁶ s: contact counts from a palette (kinds 0–3, exact ties), three
    /// counts within a relative 1e-4 (kinds 4–6, clustered stages that
    /// the evaluator perturbs), else `drawn`.
    fn rates(n: usize, edges: &[(u32, u32, u32, u64)]) -> RateTable {
        let mut r = RateTable::new(n, Time::ZERO);
        for &(a, b, kind, drawn) in edges {
            let (a, b) = (NodeId(a % n as u32), NodeId(b % n as u32));
            let contacts = match kind {
                0..=3 => [1, 3, 10, 40][kind as usize],
                4..=6 => 10_000 + u64::from(kind - 4),
                _ => drawn,
            };
            if a != b {
                for _ in 0..contacts {
                    r.record(a, b, Time(1));
                }
            }
        }
        r
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// No bounded read of up to three hops — a leaf's replay
        /// included — answers above the bound the destination's ball
        /// gives its source, at horizons whose weights run from near 0
        /// to rounding to 1.
        #[test]
        fn no_bounded_read_exceeds_its_destination_bound(
            n in 2usize..20,
            edges in prop::collection::vec((0u32..20, 0u32..20, 0u32..10, 1u64..2_000), 1..40),
            exponent in 2.0f64..9.0,
        ) {
            let rates = rates(n, &edges);
            let now = Time(1_000_000);
            for max_hops in 1..=3 {
                let mut o = PathOracle::new(n, 10f64.powf(exponent), Duration::hours(1))
                    .with_bounded_reach(max_hops);
                let ids = (0..n as u32).map(NodeId);
                for (x, d) in ids.clone().flat_map(|x| ids.clone().map(move |d| (x, d))) {
                    if x != d {
                        let weight = o.weight(&rates, now, x, d);
                        let bound = o.bound(x, d);
                        prop_assert!(weight <= bound,
                            "{} hops, {} to {}: {:?} above {:?}", max_hops, x, d, weight, bound);
                    }
                }
            }
        }
    }
}
