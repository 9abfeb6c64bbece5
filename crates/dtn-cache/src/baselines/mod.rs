//! The four comparison schemes of §VI: NoCache, RandomCache,
//! CacheData \[29\] and BundleCache \[23\].
//!
//! All four share the same *incidental* structure — queries are
//! greedy-forwarded toward the data source, responses are forwarded back
//! to the requester, and whatever caching happens is a side effect of
//! messages passing by — so they are implemented as one generic engine
//! ([`IncidentalScheme`]) parameterised by an [`IncidentalPolicy`] that
//! encodes each paper's caching rule:
//!
//! | scheme        | who caches              | eviction order            |
//! |---------------|-------------------------|---------------------------|
//! | `NoCache`     | nobody (source only)    | LRU on the source buffer  |
//! | `RandomCache` | every requester         | LRU                       |
//! | `CacheData`   | relays, by local query popularity | least locally popular |
//! | `BundleCache` | relays, by popularity × own contact pattern | lowest utility |
//!
//! # Hot-loop layout
//!
//! The same as the intentional scheme's (DESIGN.md §7): queries and
//! responses in flight live in [`RoutedSlab`]s listed under their
//! carriers, a contact gathers only its two endpoints' messages and
//! replays them in sequence order, closed queries' messages leave when
//! touched or when their expiry comes due, and buffers are swept for
//! expired data only when the earliest expiry held anywhere is reached
//! (`caches`). The walk-everything bookkeeping this replaced survives as
//! the `full_scan` test reference, driven contact by contact beside it.

mod caches;
#[cfg(test)]
mod full_scan;
mod policy;

pub(crate) use policy::{BundleCachePolicy, CacheDataPolicy, NoCachePolicy, RandomCachePolicy};

use dtn_core::ids::{DataId, IdMap, NodeId, QueryId};
use dtn_core::time::Time;
use dtn_sim::engine::{CacheStats, Scheme, SimCtx};
use dtn_sim::message::{DataItem, Query};
use dtn_sim::oracle::{OracleStats, PathOracle};
use dtn_sim::probe::ProbeEvent;
use dtn_trace::trace::Contact;

use crate::pending::{AdvanceScratch, CarrierSlab, InFlight, RoutedSlab};
use crate::routing::ForwardingStrategy;
use crate::{CachingScheme, NetworkSetup, PendingWork, PATH_REFRESH};

use self::caches::Caches;

/// Per-node view a policy uses to score items.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PolicyCtx<'a> {
    /// The node making the decision.
    pub(crate) node: NodeId,
    /// Queries for each item this node has personally carried or seen —
    /// the only query history available without global coordination.
    pub(crate) local_seen: &'a IdMap<(NodeId, DataId), u32>,
    /// How often this node contacts others, per second (its long-term
    /// contact pattern).
    pub(crate) contact_rate: f64,
}

/// The caching rule distinguishing the four baselines.
pub(crate) trait IncidentalPolicy: Clone {
    /// Whether a requester caches data it receives.
    fn cache_at_requester(&self) -> bool;

    /// Whether a relay caches a pass-by data copy it just forwarded.
    fn cache_passby(&self, item: &DataItem, ctx: PolicyCtx<'_>) -> bool;

    /// Eviction score — the *lowest* score is evicted first. Return
    /// `None` to forbid eviction entirely (NoCache's source keeps its
    /// originals until expiry unless space is needed for its own new
    /// data).
    fn eviction_score(&self, item: &DataItem, ctx: PolicyCtx<'_>) -> f64;
}

/// Generic incidental caching scheme driven by a policy.
#[derive(Debug)]
pub(crate) struct IncidentalScheme<P> {
    policy: P,
    query_routing: ForwardingStrategy,
    response_routing: ForwardingStrategy,
    /// What `configure` built, beside the per-contact scratch it lends
    /// each phase; `None` until then, and every hook is a no-op while
    /// it is.
    live: Option<(Live<P>, Scratch)>,
}

/// The configured scheme: caches, oracle, and the messages in flight.
#[derive(Debug)]
struct Live<P> {
    caches: Caches<P>,
    oracle: PathOracle,
    /// Queries traveling toward the data source.
    queries: RoutedSlab,
    /// Data copies traveling back to their requesters.
    responses: RoutedSlab,
}

/// Per-contact scratch (empty between contacts; kept to avoid
/// re-allocation in the hot loop).
#[derive(Debug, Default)]
struct Scratch {
    advance: AdvanceScratch,
    answered: Vec<u32>,
    respond: Vec<(Query, NodeId)>,
    bumps: Vec<(NodeId, DataId)>,
    delivered: Vec<(u32, QueryId)>,
    passby: Vec<(NodeId, DataItem)>,
    req_caches: Vec<(NodeId, DataItem)>,
}

impl<P: IncidentalPolicy> IncidentalScheme<P> {
    /// Creates an unconfigured scheme with the given policy and the
    /// greedy forwarding the paper's evaluation assumes.
    pub(crate) fn new(policy: P) -> Self {
        Self::with_routing(
            policy,
            ForwardingStrategy::Greedy,
            ForwardingStrategy::Greedy,
        )
    }

    /// Creates a scheme with explicit query/response forwarding
    /// strategies — e.g. epidemic/epidemic for a delivery upper bound.
    pub(crate) fn with_routing(
        policy: P,
        query_routing: ForwardingStrategy,
        response_routing: ForwardingStrategy,
    ) -> Self {
        IncidentalScheme {
            policy,
            query_routing,
            response_routing,
            live: None,
        }
    }
}

impl<P: IncidentalPolicy> Live<P> {
    /// Expired data leaves the buffers and expired queries' messages
    /// leave the slabs — each only when its expiry has come due.
    fn prune(&mut self, now: Time) {
        self.caches.drop_expired(now);
        self.queries.expire(now);
        self.responses.expire(now);
    }

    fn advance_queries(
        &mut self,
        ctx: &mut SimCtx<'_>,
        sx: &mut Scratch,
        strategy: ForwardingStrategy,
        ends: (NodeId, NodeId),
    ) {
        let caches = &self.caches;
        self.queries.advance(
            ctx,
            &mut self.oracle,
            strategy,
            ends,
            &mut sx.advance,
            |at, query, from, to| ProbeEvent::QueryRelay {
                at,
                query,
                from,
                to,
            },
            |id, m, hops, delivered| {
                let query = m.query;
                let mut is_answered = false;
                for &(_, to) in hops {
                    sx.bumps.push((to, query.data));
                    // En-route hit: a new carrier holds the data.
                    if !is_answered && caches.holds(to, query.data) {
                        sx.respond.push((query, to));
                        is_answered = true;
                    }
                }
                if delivered && !is_answered {
                    // Reached the source: answer if the source still has
                    // the item (it may have expired).
                    let dest = m.msg.destination();
                    if caches.holds(dest, query.data) {
                        sx.respond.push((query, dest));
                    }
                    is_answered = true;
                }
                if is_answered {
                    sx.answered.push(id);
                }
            },
        );
        for (node, data) in sx.bumps.drain(..) {
            self.caches.note_seen(node, data);
        }
        for (query, holder) in sx.respond.drain(..) {
            if let Some(msg) = self.caches.answer(ctx, &query, holder) {
                self.responses.insert(InFlight { query, msg });
            }
        }
        for id in sx.answered.drain(..) {
            self.queries.remove(id);
        }
    }

    fn audit(&self, now: Time, report: &mut dtn_sim::audit::AuditReport) {
        self.caches.audit(now, report);
        self.queries.audit("query", now, report);
        self.responses.audit("response", now, report);
    }

    /// Greedy delegation by default (the paper's evaluation); the
    /// Flooding bound overrides this with Epidemic.
    fn advance_responses(
        &mut self,
        ctx: &mut SimCtx<'_>,
        sx: &mut Scratch,
        strategy: ForwardingStrategy,
        ends: (NodeId, NodeId),
    ) {
        let caches = &self.caches;
        self.responses.advance(
            ctx,
            &mut self.oracle,
            strategy,
            ends,
            &mut sx.advance,
            |at, query, from, to| ProbeEvent::ResponseRelay {
                at,
                query,
                from,
                to,
            },
            |id, m, hops, arrived| {
                if arrived {
                    sx.delivered.push((id, m.query.id));
                }
                let Some(&item) = caches.item(m.query.data) else {
                    return;
                };
                for &(_, to) in hops {
                    if to != m.query.requester {
                        // Pass-by caching decision at the relay
                        // (CacheData / BundleCache).
                        sx.passby.push((to, item));
                    } else if caches.policy().cache_at_requester() {
                        sx.req_caches.push((to, item));
                    }
                }
            },
        );
        for &(_, query) in &sx.delivered {
            ctx.mark_delivered(query);
        }
        for (node, item) in sx.passby.drain(..) {
            self.caches.offer_passby(ctx, node, item);
        }
        for (node, item) in sx.req_caches.drain(..) {
            self.caches.cache_at(ctx, node, item);
        }
        for (id, _) in sx.delivered.drain(..) {
            self.responses.remove(id);
        }
    }
}

impl<P: IncidentalPolicy> Scheme for IncidentalScheme<P> {
    fn on_data_generated(&mut self, ctx: &mut SimCtx<'_>, item: DataItem) {
        if let Some((live, _)) = &mut self.live {
            live.caches.store_at_source(ctx, item);
        }
    }

    fn on_query_issued(&mut self, ctx: &mut SimCtx<'_>, query: Query) {
        let Some((live, _)) = &mut self.live else {
            return;
        };
        let Some(mut msg) = live.caches.admit(ctx, query) else {
            return;
        };
        if let ForwardingStrategy::SprayAndWait { initial_copies } = self.query_routing {
            msg = msg.with_copy_budget(initial_copies);
        }
        live.queries.insert(InFlight { query, msg });
    }

    fn on_contact(&mut self, ctx: &mut SimCtx<'_>, contact: Contact) {
        let Some((live, sx)) = &mut self.live else {
            return;
        };
        let ends = (contact.a, contact.b);
        live.caches.node_contacts[contact.a.index()] += 1;
        live.caches.node_contacts[contact.b.index()] += 1;
        live.prune(ctx.now());
        live.advance_queries(ctx, sx, self.query_routing, ends);
        live.advance_responses(ctx, sx, self.response_routing, ends);
    }

    fn on_epoch(&mut self, _ctx: &mut SimCtx<'_>, _epoch: dtn_sim::engine::Epoch) {
        // Incidental caching has no NCLs to re-elect; epochs are no-ops.
    }

    fn cache_stats(&self, now: Time) -> CacheStats {
        let live = self.live.as_ref();
        crate::common::cache_stats(live.map_or(&[], |(l, _)| &l.caches.buffers), now)
    }

    fn audit(&self, now: Time, report: &mut dtn_sim::audit::AuditReport) {
        if let Some((live, _)) = &self.live {
            live.audit(now, report);
        }
    }
}

impl<P: IncidentalPolicy> CachingScheme for IncidentalScheme<P> {
    fn configure(&mut self, setup: &NetworkSetup<'_>) {
        let nodes = setup.capacities.len();
        let mut caches = Caches::new(self.policy.clone());
        caches.configure(setup);
        let live = Live {
            caches,
            oracle: PathOracle::new(nodes, setup.horizon, PATH_REFRESH),
            queries: CarrierSlab::new(nodes),
            responses: CarrierSlab::new(nodes),
        };
        self.live = Some((live, Scratch::default()));
    }

    fn oracle_stats(&self) -> Option<OracleStats> {
        self.live.as_ref().map(|(l, _)| l.oracle.stats())
    }

    fn pending_work(&self) -> PendingWork {
        let mut work = PendingWork::default();
        if let Some((l, _)) = &self.live {
            work += l.queries.work();
            work += l.responses.work();
        }
        work
    }
}

#[cfg(test)]
impl<P> IncidentalScheme<P> {
    /// The configured state, for tests that inspect or corrupt it.
    fn live(&self) -> &Live<P> {
        &self.live.as_ref().expect("configure ran").0
    }

    fn live_mut(&mut self) -> &mut Live<P> {
        &mut self.live.as_mut().expect("configure ran").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::configure_from_live_state;
    use crate::pending::Carried;
    use dtn_core::ids::QueryId;
    use dtn_core::time::Duration;
    use dtn_sim::engine::{SimConfig, Simulator, WorkloadEvent};
    use dtn_trace::synthetic::SyntheticTraceBuilder;
    use dtn_trace::trace::ContactTrace;

    fn busy_trace(seed: u64) -> ContactTrace {
        SyntheticTraceBuilder::new(16)
            .duration(Duration::days(2))
            .target_contacts(6_000)
            .seed(seed)
            .build()
    }

    fn run<P: IncidentalPolicy>(
        trace: &ContactTrace,
        policy: P,
        events: Vec<WorkloadEvent>,
        seed: u64,
    ) -> dtn_sim::metrics::Metrics {
        run_scheme(trace, IncidentalScheme::new(policy), events, seed)
    }

    fn run_scheme<P: IncidentalPolicy>(
        trace: &ContactTrace,
        scheme: IncidentalScheme<P>,
        events: Vec<WorkloadEvent>,
        seed: u64,
    ) -> dtn_sim::metrics::Metrics {
        let engine = SimConfig {
            seed,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(trace, scheme, engine);
        let mid = trace.midpoint();
        sim.run_until(mid);
        configure_from_live_state(&mut sim, 3600.0, None);
        sim.add_workload(events);
        sim.run_to_end();
        sim.metrics().clone()
    }

    fn basic_events(trace: &ContactTrace) -> Vec<WorkloadEvent> {
        let mid = trace.midpoint();
        let mut events = vec![WorkloadEvent::GenerateData {
            item: DataItem::new(
                DataId(0),
                NodeId(3),
                1000,
                mid + Duration::minutes(1),
                Duration::days(1),
            ),
        }];
        for n in 0..16u32 {
            if n != 3 {
                events.push(WorkloadEvent::IssueQuery {
                    at: mid + Duration::hours(2),
                    requester: NodeId(n),
                    data: DataId(0),
                    constraint: Duration::hours(16),
                });
            }
        }
        events
    }

    #[test]
    fn no_cache_satisfies_some_queries_from_source() {
        let trace = busy_trace(11);
        let m = run(&trace, NoCachePolicy, basic_events(&trace), 11);
        assert_eq!(m.queries_issued, 15);
        assert!(m.queries_satisfied > 0, "source must answer something");
    }

    #[test]
    fn random_cache_caches_at_requesters() {
        let trace = busy_trace(12);
        let m = run(&trace, RandomCachePolicy, basic_events(&trace), 12);
        // Requesters that received the item now cache it → copies grow
        // beyond the source's single copy.
        let peak = m.samples.iter().map(|s| s.copies).max().unwrap_or(0);
        assert!(peak >= 2, "expected requester copies, peak {peak}");
    }

    #[test]
    fn no_cache_never_exceeds_one_copy() {
        let trace = busy_trace(13);
        let m = run(&trace, NoCachePolicy, basic_events(&trace), 13);
        for s in &m.samples {
            assert!(s.copies <= 1, "NoCache grew {} copies", s.copies);
        }
    }

    #[test]
    fn cache_data_caches_popular_passby_data() {
        let trace = busy_trace(14);
        // Many queries → relays see the query repeatedly → popular.
        let m = run(&trace, CacheDataPolicy::default(), basic_events(&trace), 14);
        assert!(m.queries_satisfied > 0);
    }

    #[test]
    fn bundle_cache_outperforms_no_cache_on_success() {
        // The paper's headline ordering, on a small trace with many
        // requesters: Bundle/Random caching helps vs. no caching at all.
        let trace = busy_trace(15);
        let no = run(&trace, NoCachePolicy, basic_events(&trace), 15);
        let bundle = run(
            &trace,
            BundleCachePolicy::default(),
            basic_events(&trace),
            15,
        );
        assert!(
            bundle.queries_satisfied >= no.queries_satisfied,
            "bundle {} < nocache {}",
            bundle.queries_satisfied,
            no.queries_satisfied
        );
    }

    #[test]
    fn epidemic_routing_replicates_more_than_greedy() {
        // The same policy with epidemic query+response routing must move
        // at least as much data and satisfy at least as many queries on
        // a sparse trace.
        let trace = busy_trace(18);
        let events = basic_events(&trace);
        let greedy = run(&trace, RandomCachePolicy, events.clone(), 18);
        let flooding = IncidentalScheme::with_routing(
            RandomCachePolicy,
            crate::routing::ForwardingStrategy::Epidemic,
            crate::routing::ForwardingStrategy::Epidemic,
        );
        let epidemic = run_scheme(&trace, flooding, events, 18);
        assert!(
            epidemic.queries_satisfied >= greedy.queries_satisfied,
            "epidemic {} < greedy {}",
            epidemic.queries_satisfied,
            greedy.queries_satisfied
        );
        assert!(
            epidemic.bytes_transmitted > greedy.bytes_transmitted,
            "epidemic must burn more bandwidth"
        );
    }

    #[test]
    fn contact_rate_has_no_warmup_bias() {
        let trace = ContactTrace::new(2, Vec::new(), Duration(2_000));
        let scheme = IncidentalScheme::new(BundleCachePolicy::default());
        let mut sim = Simulator::new(&trace, scheme, SimConfig::default());
        sim.run_until(Time(1_000));
        configure_from_live_state(&mut sim, 3600.0, None);
        let scheme = sim.scheme_mut().live_mut();
        scheme.caches.node_contacts[0] = 5;
        // At the configure instant no time has been observed yet: no
        // rate estimate — not the raw contact count the old `.max(1.0)`
        // clamp reported (5.0 contacts/s here).
        assert_eq!(
            scheme
                .caches
                .policy_ctx(NodeId(0), Time(1_000))
                .contact_rate,
            0.0
        );
        // Once time elapses the estimate aligns with `RateEstimator`:
        // contacts / observed seconds.
        assert_eq!(
            scheme
                .caches
                .policy_ctx(NodeId(0), Time(1_010))
                .contact_rate,
            0.5
        );
    }

    #[test]
    fn audit_catches_seeded_corruption() {
        use dtn_sim::audit::{AuditLaw, AuditReport};
        let trace = busy_trace(19);
        let engine = SimConfig {
            seed: 19,
            audit: true,
            ..SimConfig::default()
        };
        let flooding = IncidentalScheme::with_routing(
            RandomCachePolicy,
            ForwardingStrategy::Epidemic,
            ForwardingStrategy::Epidemic,
        );
        let mut sim = Simulator::new(&trace, flooding, engine);
        sim.run_until(trace.midpoint());
        configure_from_live_state(&mut sim, 3600.0, None);
        sim.add_workload(basic_events(&trace));
        // Stop while queries are still spreading.
        sim.run_until(trace.midpoint() + Duration::hours(3));
        let report = sim.audit_report().expect("audit was enabled");
        assert!(report.is_clean(), "{}", report.summary());
        let now = sim.now();
        let scheme = sim.scheme_mut().live_mut();
        assert!(scheme.queries.len() > 0, "nothing in flight to corrupt");
        let broken = |scheme: &Live<RandomCachePolicy>| {
            let mut report = AuditReport::default();
            scheme.audit(now, &mut report);
            report
                .violations()
                .iter()
                .filter(|v| v.law == AuditLaw::IndexConsistency)
                .count()
        };
        assert_eq!(broken(scheme), 0);

        // A message listed under a node that does not carry it.
        let stray = (0..16)
            .map(NodeId)
            .find(|&n| scheme.queries.iter().any(|m| !m.carries(n)))
            .expect("some node lacks some query");
        let id = scheme
            .queries
            .ids()
            .find(|&id| !scheme.queries.get(id).carries(stray))
            .expect("found above");
        let listed = scheme.queries.entry_of(id);
        scheme.queries.list_mut(stray).push(listed);
        assert!(broken(scheme) > 0, "stray carrier entry went undetected");
        scheme.queries.list_mut(stray).pop();
        assert_eq!(broken(scheme), 0);

        // A message that an expiry sweep should have taken.
        let late = scheme.queries.get(id).clone();
        scheme.queries.expire(late.query.expires_at);
        assert_eq!(broken(scheme), 0, "the sweep itself leaves no debris");
        scheme.queries.insert(late);
        assert!(broken(scheme) > 0, "overdue message went undetected");

        // An item expiring before the sweep watermark.
        let mut sim = Simulator::new(&trace, IncidentalScheme::new(NoCachePolicy), {
            SimConfig::default()
        });
        sim.run_until(trace.midpoint());
        configure_from_live_state(&mut sim, 3600.0, None);
        let now = sim.now();
        let scheme = sim.scheme_mut();
        let item = DataItem::new(DataId(0), NodeId(3), 1000, now, Duration::hours(1));
        scheme.live_mut().caches.buffers[3]
            .insert(item)
            .expect("fits");
        let mut report = AuditReport::default();
        scheme.audit(now, &mut report);
        assert!(!report.is_clean(), "unwatched expiry went undetected");
    }

    #[test]
    fn unconfigured_scheme_is_inert() {
        let trace = busy_trace(16);
        let mut sim = Simulator::new(
            &trace,
            IncidentalScheme::new(NoCachePolicy),
            SimConfig::default(),
        );
        sim.add_workload(vec![WorkloadEvent::IssueQuery {
            at: Time(100),
            requester: NodeId(0),
            data: DataId(0),
            constraint: Duration::hours(1),
        }]);
        sim.run_to_end();
        assert_eq!(sim.metrics().bytes_transmitted, 0);
    }

    #[test]
    fn query_for_unknown_data_is_dropped() {
        let trace = busy_trace(17);
        let events = vec![WorkloadEvent::IssueQuery {
            at: trace.midpoint() + Duration::hours(1),
            requester: NodeId(0),
            data: DataId(77),
            constraint: Duration::hours(5),
        }];
        let m = run(&trace, NoCachePolicy, events, 17);
        assert_eq!(m.queries_satisfied, 0);
        let _ = QueryId(0); // silence unused import in some cfgs
    }
}
