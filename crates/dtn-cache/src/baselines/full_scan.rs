//! Test reference for the carrier index: the baselines' original
//! bookkeeping, which sweeps every buffer for expiry and walks every
//! in-flight message on every contact. [`FullScanScheme`] shares only
//! the caching side (`Caches`) with [`IncidentalScheme`]; the tests
//! below drive the two contact by contact and hold `Metrics`, buffer
//! contents and the set of live messages equal after each one.

use dtn_core::ids::NodeId;
use dtn_core::time::Time;
use dtn_sim::buffer::Buffer;
use dtn_sim::engine::{CacheStats, Scheme, SimCtx};
use dtn_sim::message::{DataItem, Query};
use dtn_sim::oracle::PathOracle;
use dtn_trace::trace::Contact;

use crate::pending::InFlight;
use crate::routing::ForwardingStrategy;
use crate::{CachingScheme, NetworkSetup, PATH_REFRESH};

use super::caches::Caches;
use super::{IncidentalPolicy, IncidentalScheme};

/// A query traveling toward the data source.
#[derive(Debug, Clone)]
struct QueryInFlight {
    query: Query,
    msg: crate::routing::RoutedMessage,
    answered: bool,
}

/// The incidental scheme as it was before the carrier index.
struct FullScanScheme<P> {
    caches: Caches<P>,
    query_routing: ForwardingStrategy,
    response_routing: ForwardingStrategy,
    oracle: Option<PathOracle>,
    queries: Vec<QueryInFlight>,
    responses: Vec<InFlight>,
}

impl<P: IncidentalPolicy> FullScanScheme<P> {
    fn with_routing(
        policy: P,
        query_routing: ForwardingStrategy,
        response_routing: ForwardingStrategy,
    ) -> Self {
        FullScanScheme {
            caches: Caches::new(policy),
            query_routing,
            response_routing,
            oracle: None,
            queries: Vec::new(),
            responses: Vec::new(),
        }
    }

    fn prune(&mut self, ctx: &SimCtx<'_>) {
        let now = ctx.now();
        for buf in &mut self.caches.buffers {
            buf.drop_expired(now);
        }
        self.queries.retain(|q| ctx.query_is_open(q.query.id));
        self.responses.retain(|r| ctx.query_is_open(r.query.id));
    }

    fn respond(&mut self, ctx: &mut SimCtx<'_>, query: &Query, holder: NodeId) {
        if let Some(msg) = self.caches.answer(ctx, query, holder) {
            self.responses.push(InFlight { query: *query, msg });
        }
    }

    fn advance_queries(&mut self, ctx: &mut SimCtx<'_>, a: NodeId, b: NodeId) {
        let now = ctx.now();
        let open: Vec<bool> = self
            .queries
            .iter()
            .map(|q| ctx.query_is_open(q.query.id))
            .collect();
        let strategy = self.query_routing;
        let oracle = self.oracle.as_mut().expect("configured");
        let mut to_respond = Vec::new();
        let mut seen_bumps = Vec::new();
        {
            let mut link = ctx.link_access();
            for (qc, is_open) in self.queries.iter_mut().zip(&open) {
                if !*is_open || qc.answered {
                    continue;
                }
                let out = qc.msg.on_contact(strategy, oracle, now, a, b, &mut link);
                for &(_, to) in &out.transfers {
                    seen_bumps.push((to, qc.query.data));
                    // En-route hit: a new carrier holds the data.
                    if !qc.answered && self.caches.holds(to, qc.query.data) {
                        to_respond.push((qc.query, to));
                        qc.answered = true;
                    }
                }
                if out.delivered && !qc.answered {
                    // Reached the source: answer if the source still has
                    // the item (it may have expired).
                    let dest = qc.msg.destination();
                    if self.caches.holds(dest, qc.query.data) {
                        to_respond.push((qc.query, dest));
                    }
                    qc.answered = true;
                }
            }
        }
        for &(node, data) in &seen_bumps {
            self.caches.note_seen(node, data);
        }
        for &(query, holder) in &to_respond {
            self.respond(ctx, &query, holder);
        }
        self.queries.retain(|q| !q.answered);
    }

    fn advance_responses(&mut self, ctx: &mut SimCtx<'_>, a: NodeId, b: NodeId) {
        let now = ctx.now();
        let open: Vec<bool> = self
            .responses
            .iter()
            .map(|r| ctx.query_is_open(r.query.id))
            .collect();
        let response_routing = self.response_routing;
        let oracle = self.oracle.as_mut().expect("configured");
        let mut delivered = Vec::new();
        let mut passby = Vec::new();
        let mut requester_caches = Vec::new();
        {
            let mut link = ctx.link_access();
            for (resp, is_open) in self.responses.iter_mut().zip(&open) {
                if !*is_open {
                    continue;
                }
                let Some(&item) = self.caches.item(resp.query.data) else {
                    continue;
                };
                let out = resp
                    .msg
                    .on_contact(response_routing, oracle, now, a, b, &mut link);
                for &(_, to) in &out.transfers {
                    if to == resp.query.requester {
                        if self.caches.policy().cache_at_requester() {
                            requester_caches.push((to, item));
                        }
                    } else {
                        passby.push((to, item));
                    }
                }
                if out.delivered {
                    delivered.push(resp.query.id);
                }
            }
        }
        for &id in &delivered {
            ctx.mark_delivered(id);
        }
        for &(node, item) in &passby {
            self.caches.offer_passby(ctx, node, item);
        }
        for &(node, item) in &requester_caches {
            self.caches.cache_at(ctx, node, item);
        }
        self.responses.retain(|r| !r.msg.is_delivered());
    }
}

impl<P: IncidentalPolicy> Scheme for FullScanScheme<P> {
    fn on_data_generated(&mut self, ctx: &mut SimCtx<'_>, item: DataItem) {
        if self.oracle.is_some() {
            self.caches.store_at_source(ctx, item);
        }
    }

    fn on_query_issued(&mut self, ctx: &mut SimCtx<'_>, query: Query) {
        if self.oracle.is_none() {
            return;
        }
        let Some(mut msg) = self.caches.admit(ctx, query) else {
            return;
        };
        if let ForwardingStrategy::SprayAndWait { initial_copies } = self.query_routing {
            msg = msg.with_copy_budget(initial_copies);
        }
        self.queries.push(QueryInFlight {
            query,
            msg,
            answered: false,
        });
    }

    fn on_contact(&mut self, ctx: &mut SimCtx<'_>, contact: Contact) {
        if self.oracle.is_none() {
            return;
        }
        self.caches.node_contacts[contact.a.index()] += 1;
        self.caches.node_contacts[contact.b.index()] += 1;
        self.prune(ctx);
        self.advance_queries(ctx, contact.a, contact.b);
        self.advance_responses(ctx, contact.a, contact.b);
    }

    fn cache_stats(&self, now: Time) -> CacheStats {
        crate::common::cache_stats(&self.caches.buffers, now)
    }
}

impl<P: IncidentalPolicy> CachingScheme for FullScanScheme<P> {
    fn configure(&mut self, setup: &NetworkSetup<'_>) {
        let nodes = setup.capacities.len();
        self.oracle = Some(PathOracle::new(nodes, setup.horizon, PATH_REFRESH));
        self.caches.configure(setup);
    }
}

/// What the differential compares beyond `Metrics`.
trait Inspect {
    fn buffers(&self) -> &[Buffer];
    /// `(is a response, message)` of every message in flight, in no
    /// particular order.
    fn in_flight(&self) -> Vec<(bool, InFlight)>;
}

impl<P> Inspect for IncidentalScheme<P> {
    fn buffers(&self) -> &[Buffer] {
        &self.live().caches.buffers
    }
    fn in_flight(&self) -> Vec<(bool, InFlight)> {
        let Some((live, _)) = &self.live else {
            return Vec::new(); // warm-up: not configured yet
        };
        let queries = live.queries.iter().map(|m| (false, m.clone()));
        queries
            .chain(live.responses.iter().map(|m| (true, m.clone())))
            .collect()
    }
}

impl<P> Inspect for FullScanScheme<P> {
    fn buffers(&self) -> &[Buffer] {
        &self.caches.buffers
    }
    fn in_flight(&self) -> Vec<(bool, InFlight)> {
        let queries = self.queries.iter().map(|q| InFlight {
            query: q.query,
            msg: q.msg.clone(),
        });
        queries
            .map(|m| (false, m))
            .chain(self.responses.iter().map(|m| (true, m.clone())))
            .collect()
    }
}

/// Runs `S` and, after each contact, notes which in-flight messages
/// belong to a still-open query — the *live* ones. (A closed query's
/// message lingers in either scheme until something removes it, and the
/// two remove at different moments by design.)
struct Watch<S> {
    inner: S,
    live: Vec<(bool, Query, crate::routing::RoutedMessage)>,
}

impl<S: Scheme + Inspect> Scheme for Watch<S> {
    fn on_data_generated(&mut self, ctx: &mut SimCtx<'_>, item: DataItem) {
        self.inner.on_data_generated(ctx, item);
    }
    fn on_query_issued(&mut self, ctx: &mut SimCtx<'_>, query: Query) {
        self.inner.on_query_issued(ctx, query);
    }
    fn on_contact(&mut self, ctx: &mut SimCtx<'_>, contact: Contact) {
        self.inner.on_contact(ctx, contact);
        self.live = self
            .inner
            .in_flight()
            .into_iter()
            .filter(|(_, m)| ctx.query_is_open(m.query.id))
            .map(|(response, m)| (response, m.query, m.msg))
            .collect();
        self.live
            .sort_by_key(|&(response, query, _)| (response, query.id));
    }
    fn cache_stats(&self, now: Time) -> CacheStats {
        self.inner.cache_stats(now)
    }
    fn audit(&self, now: Time, report: &mut dtn_sim::audit::AuditReport) {
        self.inner.audit(now, report);
    }
}

impl<S: CachingScheme + Inspect> CachingScheme for Watch<S> {
    fn configure(&mut self, setup: &NetworkSetup<'_>) {
        self.inner.configure(setup);
    }
}

mod tests {
    use super::super::{CacheDataPolicy, RandomCachePolicy};
    use super::*;
    use crate::experiment::configure_from_live_state;
    use crate::pending::Carried;
    use dtn_core::ids::DataId;
    use dtn_core::time::Duration;
    use dtn_sim::engine::{SimConfig, Simulator, TraceSource, WorkloadEvent};
    use dtn_sim::metrics::Metrics;
    use dtn_trace::synthetic::SyntheticTraceBuilder;
    use dtn_trace::trace::ContactTrace;

    /// A busy 16-node trace with at most one contact per second, so that
    /// stepping the clock second by second steps contact by contact.
    fn one_contact_a_second(seed: u64) -> ContactTrace {
        let trace = SyntheticTraceBuilder::new(16)
            .duration(Duration::days(2))
            .target_contacts(6_000)
            .seed(seed)
            .build();
        let mut contacts = trace.contacts().to_vec();
        contacts.dedup_by_key(|c| c.start);
        ContactTrace::new(16, contacts, trace.duration())
    }

    fn gen(id: u64, source: u32, size: u64, at: Time, life: Duration) -> WorkloadEvent {
        WorkloadEvent::GenerateData {
            item: DataItem::new(DataId(id), NodeId(source), size, at, life),
        }
    }

    fn ask(at: Time, requester: u32, data: u64, constraint: Duration) -> WorkloadEvent {
        WorkloadEvent::IssueQuery {
            at,
            requester: NodeId(requester),
            data: DataId(data),
            constraint,
        }
    }

    /// Six items of staggered lifetime from six sources, each asked for
    /// by every other node: enough for evictions (see `tight`), pass-by
    /// caching, expiries of data and of queries mid-run.
    fn workload(trace: &ContactTrace) -> Vec<WorkloadEvent> {
        let mid = trace.midpoint();
        let mut events = Vec::new();
        for i in 0..6u64 {
            events.push(gen(
                i,
                (3 * i % 16) as u32,
                700,
                mid + Duration::minutes(i),
                Duration::hours(4 + 5 * i),
            ));
        }
        for round in 0..6u64 {
            for n in 0..16u64 {
                events.push(ask(
                    mid + Duration::hours(1 + 3 * round) + Duration::minutes(n),
                    n as u32,
                    (n + round) % 6,
                    Duration::hours(2 + round * 5),
                ));
            }
        }
        events
    }

    type Sim<'t, S> = Simulator<Watch<S>, TraceSource<'t>>;

    fn start<'t, S: CachingScheme + Inspect>(
        trace: &'t ContactTrace,
        scheme: S,
        events: Vec<WorkloadEvent>,
        cfg: SimConfig,
    ) -> Sim<'t, S> {
        let watch = Watch {
            inner: scheme,
            live: Vec::new(),
        };
        let mut sim = Simulator::new(trace, watch, cfg);
        sim.run_until(trace.midpoint());
        configure_from_live_state(&mut sim, 3600.0, None);
        sim.add_workload(events);
        sim
    }

    fn buffer_contents(buffers: &[Buffer]) -> Vec<Vec<DataItem>> {
        buffers
            .iter()
            .map(|b| b.iter().copied().collect())
            .collect()
    }

    /// Steps both schemes through the second half of `trace` one contact
    /// at a time; after each contact `Metrics`, every buffer (slot order
    /// included) and the live messages must be equal. Returns the final
    /// metrics and the most messages ever live at once.
    fn lockstep<P: IncidentalPolicy + Clone>(
        trace: &ContactTrace,
        policy: P,
        routing: (ForwardingStrategy, ForwardingStrategy),
        events: Vec<WorkloadEvent>,
        cfg: SimConfig,
    ) -> (Metrics, usize) {
        let indexed = IncidentalScheme::with_routing(policy.clone(), routing.0, routing.1);
        let full = FullScanScheme::with_routing(policy, routing.0, routing.1);
        let mut fast = start(trace, indexed, events.clone(), cfg.clone());
        let mut slow = start(trace, full, events, cfg);
        let mut peak_live = 0;
        for contact in trace.contacts_between(trace.midpoint(), Time(u64::MAX)) {
            let after = Time(contact.start.0 + 1);
            fast.run_until(after);
            slow.run_until(after);
            assert_eq!(fast.metrics(), slow.metrics(), "metrics at {after}");
            assert_eq!(
                buffer_contents(fast.scheme().inner.buffers()),
                buffer_contents(slow.scheme().inner.buffers()),
                "buffers at {after}"
            );
            assert_eq!(
                fast.scheme().live,
                slow.scheme().live,
                "live set at {after}"
            );
            peak_live = peak_live.max(fast.scheme().live.len());
        }
        fast.run_to_end();
        slow.run_to_end();
        assert_eq!(fast.metrics(), slow.metrics());
        let report = fast.audit_report().expect("audited");
        assert!(report.is_clean(), "{}", report.summary());
        (fast.metrics().clone(), peak_live)
    }

    fn audited(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            audit: true,
            ..SimConfig::default()
        }
    }

    #[test]
    fn every_forwarding_strategy_matches_the_full_scan() {
        use ForwardingStrategy::{Direct, Epidemic, Greedy, SprayAndWait};
        let spray = SprayAndWait { initial_copies: 6 };
        let trace = one_contact_a_second(41);
        let mut satisfied = Vec::new();
        for (seed, routing) in [
            (41, (Greedy, Greedy)),
            (42, (Direct, Direct)),
            (43, (spray, spray)),
            (44, (Epidemic, Epidemic)),
            (45, (Epidemic, Greedy)),
        ] {
            let (m, peak) = lockstep(
                &trace,
                CacheDataPolicy::default(),
                routing,
                workload(&trace),
                audited(seed),
            );
            assert!(peak > 10, "{routing:?}: only {peak} messages live at once");
            assert!(m.queries_satisfied > 0, "{routing:?} satisfied nothing");
            satisfied.push(m.queries_satisfied);
        }
        // The multi-copy strategies really did replicate: they deliver
        // more than waiting to meet the source in person.
        assert!(satisfied[3] > satisfied[1], "{satisfied:?}");
    }

    #[test]
    fn starved_links_charge_in_the_same_order() {
        // One query message or two data items per average contact:
        // which message gets the budget depends on the replay order.
        let trace = one_contact_a_second(51);
        let mean_contact = {
            let c = trace.contacts();
            c.iter().map(|c| c.duration().as_secs()).sum::<u64>() / c.len() as u64
        };
        let cfg = SimConfig {
            bandwidth_bytes_per_sec: (1_800 / mean_contact).max(1),
            buffer_range: (1_500, 2_200),
            ..audited(51)
        };
        for routing in [
            (ForwardingStrategy::Epidemic, ForwardingStrategy::Epidemic),
            (ForwardingStrategy::Greedy, ForwardingStrategy::Greedy),
        ] {
            let (m, _) = lockstep(
                &trace,
                RandomCachePolicy,
                routing,
                workload(&trace),
                cfg.clone(),
            );
            assert!(m.transfers_rejected > 50, "link never starved: {m:?}");
            assert!(m.bytes_transmitted > 0 && m.replacement_ops > 0, "{m:?}");
        }
    }

    /// 0 — 1 — 3, with 2 on the side: node 0 never meets the source 3.
    fn line_trace(second_half: &[(u32, u32, u64)]) -> ContactTrace {
        let mut contacts = Vec::new();
        for t in 0..40u64 {
            let at = Time(100 + 200 * t);
            contacts.push(Contact::new(NodeId(0), NodeId(1), at, Time(at.0 + 50)));
            contacts.push(Contact::new(
                NodeId(1),
                NodeId(3),
                Time(at.0 + 100),
                Time(at.0 + 150),
            ));
        }
        for &(a, b, at) in second_half {
            contacts.push(Contact::new(NodeId(a), NodeId(b), Time(at), Time(at + 50)));
        }
        ContactTrace::new(4, contacts, Duration(20_000))
    }

    #[test]
    fn a_query_answered_en_route_matches_the_full_scan() {
        // Requester 1 fetches item 0 from source 3 and (RandomCache)
        // keeps it. Requester 0 then asks: its query hops to 1, which
        // holds the data and answers on the spot — 0 and 3 never meet.
        let trace = line_trace(&[(1, 3, 11_000), (0, 1, 12_000)]);
        assert_eq!(trace.midpoint(), Time(10_000));
        let events = vec![
            gen(0, 3, 700, Time(10_100), Duration::hours(2)),
            ask(Time(10_200), 1, 0, Duration::hours(1)),
            ask(Time(11_500), 0, 0, Duration::hours(1)),
        ];
        let greedy = (ForwardingStrategy::Greedy, ForwardingStrategy::Greedy);
        let (m, _) = lockstep(&trace, RandomCachePolicy, greedy, events, audited(1));
        assert_eq!(m.queries_satisfied, 2, "{m:?}");
        // One query hop to 1 and the data copy back: 3 never sent twice.
        assert_eq!(m.bytes_transmitted, 2 * 1024 + 2 * 700);
    }

    #[test]
    fn expiry_on_the_contact_instant_matches_the_full_scan() {
        // Item 0 and the query for it (still carried by its requester,
        // node 0) both expire at 12 000 — exactly when 0 meets 1. Both
        // are dead *at* that instant: the item is swept, the query is
        // not forwarded. Item 1 and its query live on and complete.
        let trace = line_trace(&[(0, 1, 12_000), (1, 3, 12_400), (0, 1, 13_000)]);
        let events = vec![
            gen(0, 3, 700, Time(10_100), Duration(1_900)),
            gen(1, 3, 700, Time(10_100), Duration(5_000)),
            ask(Time(10_500), 0, 0, Duration(1_500)),
            ask(Time(10_600), 0, 1, Duration(5_000)),
        ];
        let greedy = (ForwardingStrategy::Greedy, ForwardingStrategy::Greedy);
        let indexed = IncidentalScheme::with_routing(RandomCachePolicy, greedy.0, greedy.1);
        let mut sim = start(&trace, indexed, events.clone(), audited(2));
        sim.run_until(Time(12_001));
        {
            let scheme = sim.scheme().inner.live();
            assert!(!scheme.caches.holds(NodeId(3), DataId(0)), "swept on time");
            assert!(scheme.caches.holds(NodeId(3), DataId(1)));
            // Query 0 left at its expiry; query 1 moved on to node 1.
            assert_eq!(scheme.queries.len(), 1);
            assert!(scheme.queries.iter().all(|m| m.carries(NodeId(1))));
        }
        assert_eq!(sim.metrics().bytes_transmitted, 1024, "one query hop");
        let (m, _) = lockstep(&trace, RandomCachePolicy, greedy, events, audited(2));
        assert_eq!((m.queries_issued, m.queries_satisfied), (2, 1));
    }

    #[test]
    fn a_contact_examines_only_its_endpoints_messages() {
        // Fails by count if the gather ever walks the whole slab again.
        let trace = one_contact_a_second(61);
        let epidemic = ForwardingStrategy::Epidemic;
        let scheme = IncidentalScheme::with_routing(CacheDataPolicy::default(), epidemic, epidemic);
        let events = workload(&trace);
        let event_times: Vec<Time> = events.iter().map(WorkloadEvent::at).collect();
        let mut sim = start(&trace, scheme, events, audited(61));
        let (mut examined_total, mut in_flight_total) = (0u64, 0u64);
        for contact in trace.contacts_between(trace.midpoint(), Time(u64::MAX)) {
            let (a, b, now) = (contact.a, contact.b, contact.start);
            if event_times.contains(&now) {
                continue; // a query issued in this very second muddies the count
            }
            // Events strictly before the contact, then the contact.
            sim.run_until(now);
            let scheme = sim.scheme().inner.live();
            let carried = |slab: &crate::pending::RoutedSlab| {
                slab.iter()
                    .filter(|m| m.query.expires_at > now)
                    .filter(|m| m.carries(a) || m.carries(b))
                    .count() as u64
            };
            let expected = carried(&scheme.queries) + carried(&scheme.responses);
            in_flight_total += (scheme.queries.len() + scheme.responses.len()) as u64;
            let before = sim.scheme().inner.pending_work();
            sim.run_until(Time(now.0 + 1));
            let after = sim.scheme().inner.pending_work();
            let examined = after.examined - before.examined;
            // No query is issued this second, so what went in flight is
            // responses spawned by this contact's queries: carried by an
            // endpoint, they take their first step in the same contact.
            let spawned = after.inserted - before.inserted;
            assert_eq!(examined, expected + spawned, "contact {a}-{b} at {now}");
            examined_total += examined;
        }
        assert!(
            examined_total > 1_000,
            "workload too thin: {examined_total}"
        );
        assert!(
            examined_total * 3 < in_flight_total,
            "examined {examined_total} of {in_flight_total} in flight"
        );
    }
}
