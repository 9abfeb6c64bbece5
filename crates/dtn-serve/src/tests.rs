use super::*;
use dtn_cache::intentional::IntentionalConfig;
use dtn_core::time::Duration;
use dtn_sim::engine::SimConfig;
use dtn_trace::synthetic::SyntheticTraceBuilder;
use dtn_trace::trace::ContactTrace;

fn trace() -> ContactTrace {
    SyntheticTraceBuilder::new(20)
        .duration(Duration::days(1))
        .target_contacts(4_000)
        .edge_density(0.4)
        .seed(7)
        .build()
}

fn service(trace: &ContactTrace) -> DecisionService<dtn_sim::engine::TraceSource<'_>> {
    service_with(trace, None)
}

fn service_with(
    trace: &ContactTrace,
    bounded_reach: Option<(usize, usize)>,
) -> DecisionService<dtn_sim::engine::TraceSource<'_>> {
    let scheme = IntentionalScheme::new(IntentionalConfig {
        ncl_count: 3,
        bounded_reach,
        ..IntentionalConfig::default()
    });
    let sim = Simulator::new(trace, scheme, SimConfig::default());
    let mut svc = DecisionService::new(sim, ServeConfig::default()).with_decision_log();
    svc.configure_at(trace.midpoint(), 3600.0 * 6.0, None);
    svc
}

#[test]
fn unconfigured_service_refuses_decisions() {
    let t = trace();
    let scheme = IntentionalScheme::new(IntentionalConfig::default());
    let sim = Simulator::new(&t, scheme, SimConfig::default());
    let mut svc = DecisionService::new(sim, ServeConfig::default());
    let err = svc
        .decide(
            Time(10),
            Request::Place {
                data: DataId(1),
                source: NodeId(0),
            },
        )
        .unwrap_err();
    assert_eq!(err, ServeError::NotConfigured);
    assert!(err.to_string().contains("not configured"));
}

#[test]
fn refused_request_leaves_the_stream_where_it_was() {
    // A refusal does no work: the engine clock stays put, so a later
    // `configure_at(mid)` elects from the rates counted to `mid`, not
    // to the refused request's time.
    let t = trace();
    let mid = t.midpoint();
    let scheme = IntentionalScheme::new(IntentionalConfig::default());
    let sim = Simulator::new(&t, scheme, SimConfig::default());
    let mut svc = DecisionService::new(sim, ServeConfig::default());
    let request = Request::Route {
        requester: NodeId(1),
        data: DataId(1),
    };
    let err = svc.decide(mid + Duration::hours(1), request).unwrap_err();
    assert_eq!(err, ServeError::NotConfigured);
    assert_eq!(svc.sim().now(), Time::ZERO);
    svc.configure_at(mid, 3600.0 * 6.0, None);
    assert_eq!(svc.sim().now(), mid);
}

#[test]
fn stale_configure_time_elects_from_the_engine_clock() {
    // The engine has already ingested the first half; a caller clock
    // still at t=600 must not date the live rate table back to 600.
    let t = trace();
    let mid = t.midpoint();
    let centrals_configured_at = |now: Time| {
        let scheme = IntentionalScheme::new(IntentionalConfig {
            ncl_count: 4,
            ..IntentionalConfig::default()
        });
        let sim = Simulator::new(&t, scheme, SimConfig::default());
        let mut svc = DecisionService::new(sim, ServeConfig::default());
        svc.sim_mut().run_until(mid);
        svc.configure_at(now, 3600.0 * 6.0, None);
        svc.sim().scheme().central_nodes().to_vec()
    };
    assert_eq!(
        centrals_configured_at(Time(600)),
        centrals_configured_at(mid)
    );
}

#[test]
fn unknown_node_is_refused_without_touching_the_decision_stream() {
    let t = trace();
    for bounded_reach in [None, Some((3, 20))] {
        let mut svc = service_with(&t, bounded_reach);
        let at = Time(t.midpoint().0 + 60);
        let good = Request::Route {
            requester: NodeId(1),
            data: DataId(1),
        };
        svc.decide(at, good).expect("configured");
        let before = svc.stats();
        for bad in [NodeId(20), NodeId(u32::MAX)] {
            for request in [
                Request::Place {
                    data: DataId(2),
                    source: bad,
                },
                Request::Route {
                    requester: bad,
                    data: DataId(2),
                },
            ] {
                let err = svc.decide(at, request).unwrap_err();
                assert_eq!(err, ServeError::UnknownNode(bad));
                assert!(err.to_string().contains("unknown node"));
            }
        }
        let after = svc.stats();
        assert_eq!(after.unknown_node_requests, 4);
        assert_eq!(after.decisions, before.decisions);
        assert_eq!(after.checksum, before.checksum);
        assert_eq!(svc.decisions().len(), 1);
        // The service keeps answering after a refusal.
        svc.decide(at, good).expect("still serving");
    }
}

#[test]
fn serves_place_and_route_with_latency_accounting() {
    let t = trace();
    let mut svc = service(&t);
    let mid = t.midpoint();
    for i in 0..40u64 {
        let at = Time(mid.0 + i * 60);
        let req = if i % 2 == 0 {
            Request::Place {
                data: DataId(i),
                source: NodeId((i % 20) as u32),
            }
        } else {
            Request::Route {
                requester: NodeId((i % 20) as u32),
                data: DataId(i / 2),
            }
        };
        let d = svc.decide(at, req).expect("configured");
        assert_eq!(d.at, at);
        match (&req, &d.answer) {
            (Request::Place { .. }, Answer::Place(p)) => {
                assert_eq!(p.ncls.len(), 3);
                assert_eq!(p.plan.len(), 3);
            }
            (Request::Route { .. }, Answer::Route(r)) => {
                assert!(r.is_some());
            }
            _ => panic!("answer kind mismatch"),
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.decisions, 40);
    assert_eq!(svc.decisions().len(), 40);
    assert!(stats.max_service_ns > 0);
}

#[test]
fn every_decision_says_what_it_paid_for() {
    // Reconfigured with a path refresh every 30 min over the 12 h
    // serving window: many epochs, each orphaning every table.
    let t = trace();
    let mut svc = service(&t);
    let mid = t.midpoint();
    svc.configure_at(mid, 3600.0 * 6.0, Some(Duration::minutes(30)));
    let oracle = |svc: &DecisionService<_>| svc.sim().scheme().oracle_stats().unwrap();
    let before = oracle(&svc);
    for i in 0..400u64 {
        let node = NodeId((i * 7 % 20) as u32);
        let request = if i % 2 == 0 {
            Request::Place {
                data: DataId(i),
                source: node,
            }
        } else {
            Request::Route {
                requester: node,
                data: DataId(i),
            }
        };
        svc.decide(Time(mid.0 + i * 100), request).unwrap();
    }
    let after = oracle(&svc);
    let log = svc.decisions();
    // No workload is fed, so the engine's contact handling never
    // reads the oracle: the log accounts for all of its work.
    let searched: u64 = log.iter().map(|d| d.tables_recomputed).sum();
    let rebuilt = log.iter().filter(|d| d.snapshot_rebuilt).count() as u64;
    assert_eq!(searched, after.table_recomputes - before.table_recomputes);
    assert_eq!(rebuilt, after.rebuilds - before.rebuilds);
    assert!(
        rebuilt > 1,
        "the window spans several epochs, saw {rebuilt}"
    );
    let cold = log
        .iter()
        .filter(|d| d.snapshot_rebuilt || d.tables_recomputed > 0)
        .count() as u64;
    let stats = svc.stats();
    assert_eq!(stats.cold_decisions, cold);
    assert!(cold < stats.decisions, "warm decisions exist");
    // A rebuild orphans every table: the decision that rebuilt also
    // searched.
    assert!(log
        .iter()
        .all(|d| !d.snapshot_rebuilt || d.tables_recomputed > 0));
}

#[test]
fn a_decision_searches_once_per_epoch_and_reads_only_its_carrier() {
    // A next hop is its central, which always accepts, so it reads
    // no weight. What is read is the carrier's table, once per central
    // it is not: K hits, or K − 1 at a central. The first decision
    // of an epoch searches the population first, as one batch; every
    // later one searches nothing.
    let t = trace();
    let mut svc = service(&t);
    let mid = t.midpoint();
    svc.configure_at(mid, 3600.0 * 6.0, Some(Duration::minutes(30)));
    let oracle = |svc: &DecisionService<_>| svc.sim().scheme().oracle_stats().unwrap();
    let mut epoch = oracle(&svc).rebuilds;
    let mut epochs_searched = 0;
    for i in 0..400u64 {
        let node = NodeId((i * 7 % 20) as u32);
        let request = if i % 2 == 0 {
            Request::Place {
                data: DataId(i),
                source: node,
            }
        } else {
            Request::Route {
                requester: node,
                data: DataId(i),
            }
        };
        let before = oracle(&svc);
        svc.decide(Time(mid.0 + i * 100), request).unwrap();
        let after = oracle(&svc);
        let centrals = svc.sim().scheme().central_nodes();
        let reads = centrals.len() - usize::from(centrals.contains(&node));
        assert_eq!(after.table_hits - before.table_hits, reads as u64, "{i}");
        let searched = after.table_recomputes - before.table_recomputes;
        if after.rebuilds == epoch {
            assert_eq!(searched, 0, "decision {i} is not its epoch's first");
        } else {
            assert_eq!(searched, 20, "decision {i} is its epoch's first");
            epoch = after.rebuilds;
            epochs_searched += 1;
        }
    }
    assert!(epochs_searched > 1, "saw {epochs_searched} epochs");
}

#[test]
fn identical_streams_produce_identical_checksums() {
    let t = trace();
    let run = || {
        let mut svc = service(&t);
        let mid = t.midpoint();
        for i in 0..30u64 {
            let at = Time(mid.0 + i * 120);
            svc.decide(
                at,
                Request::Route {
                    requester: NodeId((i % 20) as u32),
                    data: DataId(i),
                },
            )
            .unwrap();
        }
        (svc.stats().checksum, svc.decisions().to_vec())
    };
    let (c1, d1) = run();
    let (c2, d2) = run();
    assert_eq!(c1, c2);
    assert_eq!(d1.len(), d2.len());
    for (a, b) in d1.iter().zip(&d2) {
        assert_eq!(a.answer, b.answer);
    }
}

#[test]
fn out_of_order_request_is_clamped_to_the_stream_position() {
    let t = trace();
    let mut svc = service(&t);
    let mid = t.midpoint();
    svc.decide(
        Time(mid.0 + 600),
        Request::Route {
            requester: NodeId(1),
            data: DataId(1),
        },
    )
    .unwrap();
    let d = svc
        .decide(
            Time(mid.0 + 60),
            Request::Route {
                requester: NodeId(2),
                data: DataId(2),
            },
        )
        .unwrap();
    assert_eq!(d.at, Time(mid.0 + 600), "stream never rewinds");
}

/// The next hop by the §V-A definition, over every node of the
/// trace on a fresh oracle: among the nodes `forward` lets `carrier`
/// hand to, the one with the highest weight to `central` — the
/// destination first, as it always accepts.
fn relay_by_definition(
    rates: &RateTable,
    at: Time,
    carrier: NodeId,
    central: NodeId,
) -> Option<NodeId> {
    let mut fresh = PathOracle::new(20, 3600.0 * 6.0, Duration::hours(1));
    let mut best: Option<(NodeId, f64)> = None;
    for n in (0..20u32).map(NodeId) {
        if n == carrier || !fresh.forward(rates, at, carrier, n, central) {
            continue;
        }
        let w = if n == central {
            f64::INFINITY
        } else {
            fresh.weight(rates, at, n, central)
        };
        if best.is_none_or(|(_, bw)| w > bw) {
            best = Some((n, w));
        }
    }
    best.map(|(n, _)| n)
}

#[test]
fn decisions_match_a_fresh_oracle_recomputation() {
    // Differential: the service's next-hop choice equals an
    // independent recomputation through the §V-A rule,
    // `PathOracle::forward`, on a fresh oracle over the same
    // rates/time; a route's central is the one heaviest from the
    // requester on that oracle.
    let t = trace();
    let mut svc = service(&t);
    let mid = t.midpoint();
    let centrals = svc.sim().scheme().central_nodes().to_vec();
    let d = svc
        .decide(
            Time(mid.0 + 300),
            Request::Place {
                data: DataId(3),
                source: NodeId(5),
            },
        )
        .unwrap();
    let Answer::Place(p) = &d.answer else {
        panic!("place answer expected")
    };
    assert_eq!(p.ncls, centrals);
    for plan in &p.plan {
        let rates = svc.sim().rate_table();
        let want = relay_by_definition(rates, d.at, NodeId(5), plan.central);
        assert_eq!(plan.next_hop, want);
    }
    let mut at_a_central = 0;
    for requester in (0..20u32).map(NodeId) {
        let request = Request::Route {
            requester,
            data: DataId(4),
        };
        let d = svc.decide(Time(mid.0 + 300), request).unwrap();
        let Answer::Route(Some(r)) = &d.answer else {
            panic!("route answer expected")
        };
        let rates = svc.sim().rate_table();
        let mut fresh = PathOracle::new(20, 3600.0 * 6.0, Duration::hours(1));
        let mut best: Option<(usize, f64)> = None;
        for (k, &c) in centrals.iter().enumerate() {
            let w = if c == requester {
                f64::INFINITY
            } else {
                fresh.weight(rates, d.at, requester, c)
            };
            if best.is_none_or(|(_, bw)| w > bw) {
                best = Some((k, w));
            }
        }
        let (ncl, weight) = best.expect("centrals elected");
        assert_eq!((r.ncl, r.central), (ncl, centrals[ncl]), "{requester}");
        assert_eq!(r.central_weight.to_bits(), weight.to_bits());
        let want = relay_by_definition(rates, d.at, requester, r.central);
        assert_eq!(r.next_hop, want, "{requester}");
        at_a_central += usize::from(r.next_hop.is_none());
    }
    assert_eq!(at_a_central, centrals.len());
}

/// 0 — 1 — 2 line with frequent contacts; node 2 is the hub side.
fn rates_line() -> RateTable {
    let mut r = RateTable::new(4, Time::ZERO);
    for t in 1..=5u64 {
        r.record(NodeId(0), NodeId(1), Time(t * 100));
        r.record(NodeId(1), NodeId(2), Time(t * 100));
    }
    r
}

fn line_oracle() -> PathOracle {
    PathOracle::new(4, 1000.0, Duration::hours(1))
}

#[test]
fn place_plans_one_relay_per_ncl() {
    let rates = rates_line();
    let mut o = line_oracle();
    let centrals = [NodeId(2), NodeId(0)];
    let d = place(&mut o, &rates, Time(600), &centrals, NodeId(0));
    assert_eq!(d.ncls, vec![NodeId(2), NodeId(0)]);
    assert_eq!(d.plan.len(), 2);
    // Toward central 2 the destination itself is the best relay.
    assert_eq!(d.plan[0].next_hop, Some(NodeId(2)));
    // The copy already sits at central 0: nothing beats staying.
    assert_eq!(d.plan[1].next_hop, None);
    assert!(d.plan[0].carrier_weight <= 1.0);
}

#[test]
fn route_picks_the_best_central_with_deterministic_ties() {
    let rates = rates_line();
    let mut o = line_oracle();
    let centrals = [NodeId(2), NodeId(0)];
    let mut route = |requester| {
        route(&mut o, &rates, Time(600), &centrals, requester).expect("centrals elected")
    };
    // Node 1 meets both 0 and 2 equally often: the tie breaks to
    // the lower NCL index.
    let r = route(NodeId(1));
    assert_eq!(r.ncl, 0);
    assert_eq!(r.central, NodeId(2));
    assert_eq!(r.next_hop, Some(NodeId(2)), "direct contact wins");
    // A requester that *is* a central routes to itself, no hop.
    let r = route(NodeId(2));
    assert_eq!(r.central, NodeId(2));
    assert_eq!(r.next_hop, None);
    // Node 3 is isolated: weights are all zero, the tie breaks to
    // NCL 0, and the central still accepts.
    let r = route(NodeId(3));
    assert_eq!(r.ncl, 0);
    assert_eq!(r.next_hop, Some(NodeId(2)), "destination always accepts");
}

#[test]
fn empty_central_set_routes_to_none() {
    let rates = rates_line();
    let mut o = line_oracle();
    assert!(route(&mut o, &rates, Time(600), &[], NodeId(0)).is_none());
    let d = place(&mut o, &rates, Time(600), &[], NodeId(0));
    assert!(d.ncls.is_empty() && d.plan.is_empty());
}

#[test]
fn every_request_is_one_decision_or_one_refusal() {
    // Serve conservation: each `decide` call lands in exactly one of
    // `decisions`, `unknown_node_requests` and
    // `not_configured_requests`, and only a decision enters the
    // checksum: a service that saw only the served requests hashes
    // the same.
    let t = trace();
    let mid = t.midpoint();
    let unconfigured = || {
        let scheme = IntentionalScheme::new(IntentionalConfig {
            ncl_count: 3,
            ..IntentionalConfig::default()
        });
        let sim = Simulator::new(&t, scheme, SimConfig::default());
        DecisionService::new(sim, ServeConfig::default())
    };
    let request = |i: u64, node: NodeId| {
        if i.is_multiple_of(2) {
            Request::Place {
                data: DataId(i),
                source: node,
            }
        } else {
            Request::Route {
                requester: node,
                data: DataId(i),
            }
        }
    };
    let (mut mixed, mut served_only) = (unconfigured(), unconfigured());
    let mut calls = 0u64;
    // Before configure: known nodes are not configured, unknown ones
    // unknown all the same.
    for i in 0..6u64 {
        let node = NodeId(if i % 3 == 0 { 20 + i as u32 } else { i as u32 });
        let _ = mixed.decide(Time(mid.0 + i), request(i, node)).unwrap_err();
        calls += 1;
    }
    mixed.configure_at(mid, 3600.0 * 6.0, None);
    served_only.configure_at(mid, 3600.0 * 6.0, None);
    for i in 0..30u64 {
        let at = Time(mid.0 + 60 * i);
        if i % 4 == 3 {
            let bad = NodeId(u32::MAX - i as u32);
            let err = mixed.decide(at, request(i, bad)).unwrap_err();
            assert_eq!(err, ServeError::UnknownNode(bad));
        } else {
            let node = NodeId((i * 7 % 20) as u32);
            mixed.decide(at, request(i, node)).unwrap();
            served_only.decide(at, request(i, node)).unwrap();
        }
        calls += 1;
    }
    let s = mixed.stats();
    assert_eq!(
        (
            s.decisions,
            s.unknown_node_requests,
            s.not_configured_requests
        ),
        (23, 2 + 7, 4)
    );
    assert_eq!(
        s.decisions + s.unknown_node_requests + s.not_configured_requests,
        calls
    );
    assert_eq!(s.checksum, served_only.stats().checksum);
    assert_eq!(served_only.stats().decisions, s.decisions);
}
