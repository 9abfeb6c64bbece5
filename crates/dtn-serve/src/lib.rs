//! Online serving mode: a bounded-latency decision service over a live
//! contact stream.
//!
//! The simulator answers "what would the scheme have done" after the
//! fact; [`DecisionService`] answers it *while the network runs*. It
//! wraps the real engine ([`Simulator`]) over any [`ContactSource`] —
//! a replayed trace, a [`StreamSource`](dtn_sim::engine::StreamSource)
//! fed from a socket, an accelerated synthetic stream — and serves two
//! request kinds against the engine's exact live state:
//!
//! - [`Request::Place`]: where should a new data item be cached? →
//!   the elected NCL set plus, per NCL, the best next relay from the
//!   source under the §V-A greedy rule ([`PlacementDecision`]).
//! - [`Request::Route`]: where should a query go? → the central node
//!   with the highest opportunistic weight from the requester plus the
//!   best next relay toward it ([`RouteDecision`]).
//!
//! # Snapshot reads, and who pays for a new snapshot
//!
//! Every decision reads through the scheme's
//! [`DecisionPoint`](dtn_sim::decision::DecisionPoint), whose oracle
//! reads go to the [`PathOracle`](dtn_sim::oracle::PathOracle)'s
//! generation-versioned snapshot; staleness is bounded by the oracle's
//! refresh interval. Nothing refreshes in the background. The first
//! decision after the interval elapses rebuilds the snapshot inline, and
//! a rebuild orphans every cached per-source table. A decision names
//! every node as a relay candidate, so each relay choice hands to its
//! central node, which always accepts, without reading a weight; what a
//! decision reads is its carrier's weight to each central node. Before
//! reading, the first decision of an epoch searches every node without
//! a table as one batch over the machine's workers, each search stopped
//! as soon as the central nodes have settled and refilling its source's
//! table in place; a later decision of the epoch reads one table per
//! central. On the `serve_churn` workload (200 nodes, 5 NCLs, a rebuild
//! every 30 simulated minutes, a 2-vCPU host) the cold decision runs
//! those 200 short searches once per epoch, ≈ 2 ms, and a warm `Place`
//! takes ≈ 0.5 µs. Each
//! [`Decision`] says what it paid ([`Decision::tables_recomputed`],
//! [`Decision::snapshot_rebuilt`]); [`ServeStats::cold_decisions`]
//! counts the ones that paid anything.
//! Epoch-driven NCL re-election arrives through the engine's own epoch
//! channel: [`DecisionService::decide`] ingests the contact stream up
//! to the request time before answering, so re-elections are visible to
//! the very next decision.
//!
//! # Latency accounting
//!
//! Each decision's service time is measured with a monotonic clock,
//! returned on the [`Decision`] and held against
//! [`ServeConfig::latency_budget_ns`] by a budget-violation counter;
//! [`DecisionService::with_decision_log`] keeps every decision for the
//! differential harness. Percentiles are the caller's to compute from
//! the decisions it gets back (the benchmark does).

use std::time::Instant;

use dtn_cache::intentional::IntentionalScheme;
use dtn_cache::CachingScheme;
use dtn_core::ids::{DataId, NodeId};
use dtn_core::time::Time;
use dtn_sim::decision::{PlacementDecision, RouteDecision};
use dtn_sim::engine::{ContactSource, Simulator};

/// Serving-loop configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-decision latency budget; decisions slower than this bump the
    /// violation counter. Default 1 ms.
    pub latency_budget_ns: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            latency_budget_ns: 1_000_000,
        }
    }
}

/// A decision request, stamped with its stream arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Where should `data`, currently at `source`, be cached?
    Place { data: DataId, source: NodeId },
    /// Where should `requester`'s query for `data` go?
    Route { requester: NodeId, data: DataId },
}

/// A decision answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// NCL set + per-NCL relay plan.
    Place(PlacementDecision),
    /// Central target + next hop; `None` when no centrals are elected.
    Route(Option<RouteDecision>),
}

/// One served decision, as kept by the decision log.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Sequence number in the decision stream.
    pub seq: u64,
    /// Simulation time the decision was served at (the request time,
    /// clamped forward to the stream position if it had already moved).
    pub at: Time,
    /// The request.
    pub request: Request,
    /// The answer.
    pub answer: Answer,
    /// Oracle snapshot epoch that answered the decision.
    pub oracle_epoch: u64,
    /// Wall-clock service time in nanoseconds (decision computation
    /// only; stream ingestion is accounted to the stream, not the
    /// decision).
    pub service_ns: u64,
    /// Per-source path searches this answer ran inline — the oracle's
    /// `table_recomputes` across the answer. 0 on a warm decision.
    pub tables_recomputed: u64,
    /// Whether this answer rebuilt the oracle's contact-graph snapshot
    /// (it was the first read of a new epoch).
    pub snapshot_rebuilt: bool,
}

/// Why a decision could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The scheme has not been configured yet (no NCL election, no
    /// oracle) — call [`DecisionService::configure_at`] first.
    NotConfigured,
    /// The request names a node id outside the population. Refused
    /// before any work: it is not a decision, so it touches neither the
    /// checksum nor the decision count.
    UnknownNode(NodeId),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NotConfigured => {
                write!(f, "decision service not configured: no NCLs elected yet")
            }
            ServeError::UnknownNode(node) => {
                write!(f, "request names unknown node {node}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Aggregate serving statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Decisions served.
    pub decisions: u64,
    /// Decisions over the latency budget.
    pub budget_violations: u64,
    /// FNV-1a checksum over the canonical encoding of every answer —
    /// two runs over the same stream are bit-identical iff these match.
    pub checksum: u64,
    /// Maximum observed service time, ns.
    pub max_service_ns: u64,
    /// Requests refused with [`ServeError::UnknownNode`].
    pub unknown_node_requests: u64,
    /// Decisions that paid for oracle work inline: a snapshot rebuild or
    /// at least one path search. By cause, not by clock — a cold decision
    /// on a small population can still be inside the budget.
    pub cold_decisions: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_u64(mut hash: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn fold_option_node(hash: u64, node: Option<NodeId>) -> u64 {
    match node {
        Some(n) => fnv1a_u64(fnv1a_u64(hash, 1), n.0 as u64),
        None => fnv1a_u64(hash, 0),
    }
}

/// The online decision service: the real engine plus a serving loop.
pub struct DecisionService<C: ContactSource> {
    sim: Simulator<IntentionalScheme, C>,
    nodes: Vec<NodeId>,
    cfg: ServeConfig,
    decisions: u64,
    budget_violations: u64,
    checksum: u64,
    max_service_ns: u64,
    unknown_node_requests: u64,
    cold_decisions: u64,
    log: Option<Vec<Decision>>,
}

impl<C: ContactSource> DecisionService<C> {
    /// Wraps an engine. The simulator may be fresh or already warmed;
    /// decisions are refused until the scheme is configured
    /// ([`configure_at`](Self::configure_at) or an external
    /// `configure`).
    pub fn new(sim: Simulator<IntentionalScheme, C>, cfg: ServeConfig) -> Self {
        let nodes = (0..sim.source().node_count() as u32).map(NodeId).collect();
        DecisionService {
            sim,
            nodes,
            cfg,
            decisions: 0,
            budget_violations: 0,
            checksum: FNV_OFFSET,
            max_service_ns: 0,
            unknown_node_requests: 0,
            cold_decisions: 0,
            log: None,
        }
    }

    /// Turns on per-decision recording (for the differential harness).
    /// Returns `self` for builder-style use.
    pub fn with_decision_log(mut self) -> Self {
        self.log = Some(Vec::new());
        self
    }

    /// Ingests the stream up to `now`, then runs NCL election and
    /// scheme configuration from the engine's live state — the serving
    /// analog of the experiment protocol's warm-up/configure phases.
    /// A `now` behind the engine clock configures at the engine clock
    /// (the clamp [`decide`](Self::decide) applies): the live rates are
    /// never read at a time earlier than the one they were counted to.
    pub fn configure_at(
        &mut self,
        now: Time,
        horizon: f64,
        path_refresh: Option<dtn_core::time::Duration>,
    ) {
        self.sim.run_until(now);
        dtn_cache::experiment::configure_from_live_state(&mut self.sim, horizon, path_refresh);
    }

    /// Serves one decision: ingests the contact stream (and any epoch
    /// re-elections) up to the request time, then answers from the
    /// scheme's live decision point. Only the answer computation counts
    /// toward the decision's service time.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownNode`] if the request's node id is outside
    /// the population; [`ServeError::NotConfigured`] until the scheme
    /// has elected NCLs. Both are refused before any work: the stream
    /// is not ingested, so the engine clock does not move.
    pub fn decide(&mut self, at: Time, request: Request) -> Result<Decision, ServeError> {
        let node = match request {
            Request::Place { source, .. } => source,
            Request::Route { requester, .. } => requester,
        };
        if node.index() >= self.nodes.len() {
            self.unknown_node_requests += 1;
            return Err(ServeError::UnknownNode(node));
        }
        // `configure` builds the oracle with the NCLs: none means neither.
        if self.sim.scheme().oracle_stats().is_none() {
            return Err(ServeError::NotConfigured);
        }
        let at = at.max(self.sim.now());
        self.sim.run_until(at);
        let (scheme, rates, now, _) = self.sim.live_state();
        let started = Instant::now();
        let mut dp = scheme
            .decision_point(rates, now)
            .expect("refused above until configured");
        let oracle_epoch = dp.snapshot_epoch();
        let before = dp.oracle_stats();
        let answer = match request {
            Request::Place { source, .. } => Answer::Place(dp.place(source, &self.nodes)),
            Request::Route { requester, .. } => Answer::Route(dp.route(requester, &self.nodes)),
        };
        let after = dp.oracle_stats();
        let service_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let tables_recomputed = after.table_recomputes - before.table_recomputes;
        let snapshot_rebuilt = after.rebuilds > before.rebuilds;

        self.decisions += 1;
        self.cold_decisions += u64::from(snapshot_rebuilt || tables_recomputed > 0);
        self.max_service_ns = self.max_service_ns.max(service_ns);
        if service_ns > self.cfg.latency_budget_ns {
            self.budget_violations += 1;
        }
        self.checksum = checksum_fold(self.checksum, at, &request, &answer);

        let decision = Decision {
            seq: self.decisions - 1,
            at,
            request,
            answer,
            oracle_epoch,
            service_ns,
            tables_recomputed,
            snapshot_rebuilt,
        };
        if let Some(log) = &mut self.log {
            log.push(decision.clone());
        }
        Ok(decision)
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            decisions: self.decisions,
            budget_violations: self.budget_violations,
            checksum: self.checksum,
            max_service_ns: self.max_service_ns,
            unknown_node_requests: self.unknown_node_requests,
            cold_decisions: self.cold_decisions,
        }
    }

    /// Recorded decisions (empty slice when the log is off).
    pub fn decisions(&self) -> &[Decision] {
        self.log.as_deref().unwrap_or(&[])
    }

    /// The wrapped engine.
    pub fn sim(&self) -> &Simulator<IntentionalScheme, C> {
        &self.sim
    }

    /// Mutable access to the wrapped engine (e.g. to feed workload
    /// events into the stream between decisions).
    pub fn sim_mut(&mut self) -> &mut Simulator<IntentionalScheme, C> {
        &mut self.sim
    }
}

/// Folds one decision into the stream checksum: request identity, the
/// serving time and every node choice in the answer. Deliberately
/// excludes wall-clock fields, and the what-it-paid fields with them
/// (work, not answers), so two runs over the same stream hash
/// identically.
fn checksum_fold(mut h: u64, at: Time, request: &Request, answer: &Answer) -> u64 {
    h = fnv1a_u64(h, at.0);
    match *request {
        Request::Place { data, source } => {
            h = fnv1a_u64(h, 1);
            h = fnv1a_u64(h, data.0);
            h = fnv1a_u64(h, source.0 as u64);
        }
        Request::Route { requester, data } => {
            h = fnv1a_u64(h, 2);
            h = fnv1a_u64(h, requester.0 as u64);
            h = fnv1a_u64(h, data.0);
        }
    }
    match answer {
        Answer::Place(p) => {
            h = fnv1a_u64(h, p.ncls.len() as u64);
            for plan in &p.plan {
                h = fnv1a_u64(h, plan.central.0 as u64);
                h = fold_option_node(h, plan.next_hop);
            }
        }
        Answer::Route(r) => match r {
            None => h = fnv1a_u64(h, 0),
            Some(r) => {
                h = fnv1a_u64(h, r.central.0 as u64);
                h = fold_option_node(h, r.next_hop);
            }
        },
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_cache::intentional::IntentionalConfig;
    use dtn_core::time::Duration;
    use dtn_sim::engine::SimConfig;
    use dtn_trace::SyntheticTraceBuilder;

    fn trace() -> dtn_trace::ContactTrace {
        SyntheticTraceBuilder::new(20)
            .duration(Duration::days(1))
            .target_contacts(4_000)
            .edge_density(0.4)
            .seed(7)
            .build()
    }

    fn service(
        trace: &dtn_trace::ContactTrace,
    ) -> DecisionService<dtn_sim::engine::TraceSource<'_>> {
        service_with(trace, None)
    }

    fn service_with(
        trace: &dtn_trace::ContactTrace,
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
        // Every decision names the whole population as candidates, so
        // each relay choice hands to its central without reading a
        // weight. What is read is the carrier's table, once per central
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

    #[test]
    fn decisions_match_a_fresh_oracle_recomputation() {
        // Differential: the service's next-hop choice equals an
        // independent recomputation through the §V-A rule,
        // `PathOracle::forward`, on a fresh oracle over the same
        // rates/time.
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
        let rates = svc.sim().rate_table();
        let horizon = 3600.0 * 6.0;
        for plan in &p.plan {
            let mut fresh = dtn_sim::oracle::PathOracle::new(20, horizon, Duration::hours(1));
            let mut best: Option<(NodeId, f64)> = None;
            for n in (0..20u32).map(NodeId) {
                if n == NodeId(5) || !fresh.forward(rates, d.at, NodeId(5), n, plan.central) {
                    continue;
                }
                let w = if n == plan.central {
                    f64::INFINITY
                } else {
                    fresh.weight(rates, d.at, n, plan.central)
                };
                if best.is_none_or(|(_, bw)| w > bw) {
                    best = Some((n, w));
                }
            }
            assert_eq!(plan.next_hop, best.map(|(n, _)| n));
        }
    }
}
