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

mod policy;

pub(crate) use policy::{BundleCachePolicy, CacheDataPolicy, NoCachePolicy, RandomCachePolicy};

use std::collections::{HashMap, HashSet};
use std::mem;

use dtn_core::ids::{DataId, NodeId};
use dtn_core::time::Time;
use dtn_sim::buffer::Buffer;
use dtn_sim::engine::{CacheStats, Scheme, SimCtx};
use dtn_sim::message::{DataItem, Query};
use dtn_sim::oracle::PathOracle;
use dtn_sim::probe::ProbeEvent;
use dtn_trace::trace::Contact;

use crate::common::DataRegistry;
use crate::routing::{ForwardingStrategy, RoutedMessage};
use crate::{CachingScheme, NetworkSetup, PATH_REFRESH};

/// Per-node view a policy uses to score items.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PolicyCtx<'a> {
    /// The node making the decision.
    pub(crate) node: NodeId,
    /// Queries for each item this node has personally carried or seen —
    /// the only query history available without global coordination.
    pub(crate) local_seen: &'a HashMap<(NodeId, DataId), u32>,
    /// How often this node contacts others, per second (its long-term
    /// contact pattern).
    pub(crate) contact_rate: f64,
}

/// The caching rule distinguishing the four baselines.
pub(crate) trait IncidentalPolicy {
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

/// A data copy traveling back to its requester.
#[derive(Debug, Clone)]
struct ResponseInFlight {
    query: dtn_sim::message::Query,
    msg: RoutedMessage,
}

/// A query traveling toward the data source.
#[derive(Debug, Clone)]
struct QueryInFlight {
    query: Query,
    msg: RoutedMessage,
    answered: bool,
}

/// Generic incidental caching scheme driven by a policy.
#[derive(Debug)]
pub(crate) struct IncidentalScheme<P> {
    policy: P,
    query_routing: ForwardingStrategy,
    response_routing: ForwardingStrategy,
    oracle: Option<PathOracle>,
    buffers: Vec<Buffer>,
    registry: DataRegistry,
    queries: Vec<QueryInFlight>,
    responses: Vec<ResponseInFlight>,
    local_seen: HashMap<(NodeId, DataId), u32>,
    /// Cumulative contacts per node, to estimate contact patterns.
    node_contacts: Vec<u64>,
    started_at: Time,
    // Reusable per-contact scratch buffers (logically empty between
    // contacts; kept to avoid re-allocation in the hot loop).
    sx_open: Vec<bool>,
    sx_respond: Vec<(Query, NodeId)>,
    sx_bumps: Vec<(NodeId, DataId)>,
    sx_delivered: Vec<dtn_core::ids::QueryId>,
    sx_passby: Vec<(NodeId, DataItem)>,
    sx_req_caches: Vec<(NodeId, DataItem)>,
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
            oracle: None,
            buffers: Vec::new(),
            registry: DataRegistry::default(),
            queries: Vec::new(),
            responses: Vec::new(),
            local_seen: HashMap::new(),
            node_contacts: Vec::new(),
            started_at: Time::ZERO,
            sx_open: Vec::new(),
            sx_respond: Vec::new(),
            sx_bumps: Vec::new(),
            sx_delivered: Vec::new(),
            sx_passby: Vec::new(),
            sx_req_caches: Vec::new(),
        }
    }

    fn configured(&self) -> bool {
        self.oracle.is_some()
    }

    fn policy_ctx(&self, node: NodeId, now: Time) -> PolicyCtx<'_> {
        // No observation window yet → no rate estimate, matching
        // `RateEstimator::rate` (which returns `None` until time has
        // elapsed). The old `.max(1.0)` clamp instead reported the raw
        // contact count as a per-second rate at `now == started_at`,
        // inflating every node's contact pattern during warm-up.
        let elapsed = now.saturating_since(self.started_at).as_secs_f64();
        let contact_rate = if elapsed > 0.0 {
            self.node_contacts[node.index()] as f64 / elapsed
        } else {
            0.0
        };
        PolicyCtx {
            node,
            local_seen: &self.local_seen,
            contact_rate,
        }
    }

    /// Caches `item` at `node`, evicting lowest-score items if needed.
    fn cache_at(&mut self, ctx: &mut SimCtx<'_>, node: NodeId, item: DataItem) -> bool {
        let now = ctx.now();
        if self.buffers[node.index()].contains(item.id) {
            return true;
        }
        if item.size > self.buffers[node.index()].capacity() {
            return false;
        }
        while !self.buffers[node.index()].fits(item.size) {
            // Evict the lowest-scoring item, but never to make room for
            // something the policy scores even lower.
            let pctx = self.policy_ctx(node, now);
            let candidate = self.buffers[node.index()]
                .iter()
                .map(|d| (self.policy.eviction_score(d, pctx), d.id))
                .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            let Some((score, victim)) = candidate else {
                return false;
            };
            let new_score = self.policy.eviction_score(&item, pctx);
            if new_score <= score {
                return false;
            }
            self.buffers[node.index()].remove(victim);
            ctx.note_replacements(1);
            ctx.probe().emit(|| ProbeEvent::ReplacementEvicted {
                at: now,
                node,
                data: victim,
            });
        }
        self.buffers[node.index()].insert(item).is_ok()
    }

    fn prune(&mut self, ctx: &SimCtx<'_>) {
        let now = ctx.now();
        for buf in &mut self.buffers {
            buf.drop_expired(now);
        }
        self.queries.retain(|q| ctx.query_is_open(q.query.id));
        self.responses.retain(|r| ctx.query_is_open(r.query.id));
    }

    /// Answers `query` from `holder`'s copy (holder caches or sources
    /// the data).
    fn respond(&mut self, ctx: &mut SimCtx<'_>, query: &dtn_sim::message::Query, holder: NodeId) {
        let at = ctx.now();
        let query_id = query.id;
        ctx.probe().emit(|| ProbeEvent::ResponseSpawned {
            at,
            query: query_id,
            node: holder,
        });
        if holder == query.requester {
            ctx.mark_delivered(query.id);
            return;
        }
        let Some(&item) = self.registry.get(query.data) else {
            return;
        };
        self.responses.push(ResponseInFlight {
            query: *query,
            msg: RoutedMessage::new(query.requester, item.size, holder),
        });
    }

    fn advance_queries(&mut self, ctx: &mut SimCtx<'_>, a: NodeId, b: NodeId) {
        let now = ctx.now();
        let mut open = mem::take(&mut self.sx_open);
        open.clear();
        open.extend(self.queries.iter().map(|q| ctx.query_is_open(q.query.id)));
        let strategy = self.query_routing;
        let oracle = self.oracle.as_mut().expect("configured");
        let mut to_respond = mem::take(&mut self.sx_respond);
        to_respond.clear();
        let mut seen_bumps = mem::take(&mut self.sx_bumps);
        seen_bumps.clear();
        // Relay hops observed this contact, replayed to the probe after
        // the link borrow ends (empty and alloc-free when no probe is
        // installed).
        let probing = ctx.probe_enabled();
        let mut relay_hops: Vec<(dtn_core::ids::QueryId, NodeId, NodeId)> = Vec::new();
        {
            let mut link = ctx.link_access();
            for (qc, is_open) in self.queries.iter_mut().zip(&open) {
                if !*is_open || qc.answered {
                    continue;
                }
                let out = qc.msg.on_contact(strategy, oracle, now, a, b, &mut link);
                if probing {
                    let query = qc.query.id;
                    relay_hops.extend(out.transfers.iter().map(|&(f, t)| (query, f, t)));
                }
                for &(_, to) in &out.transfers {
                    seen_bumps.push((to, qc.query.data));
                    // En-route hit: a new carrier holds the data.
                    if !qc.answered && self.buffers[to.index()].contains(qc.query.data) {
                        to_respond.push((qc.query, to));
                        qc.answered = true;
                    }
                }
                if out.delivered && !qc.answered {
                    // Reached the source: answer if the source still has
                    // the item (it may have expired).
                    let dest = qc.msg.destination();
                    if self.buffers[dest.index()].contains(qc.query.data) {
                        to_respond.push((qc.query, dest));
                    }
                    qc.answered = true;
                }
            }
        }
        for &(query, from, to) in &relay_hops {
            ctx.probe().emit(|| ProbeEvent::QueryRelay {
                at: now,
                query,
                from,
                to,
            });
        }
        for &(node, data) in &seen_bumps {
            *self.local_seen.entry((node, data)).or_insert(0) += 1;
        }
        for &(query, holder) in &to_respond {
            self.respond(ctx, &query, holder);
        }
        self.queries.retain(|q| !q.answered);
        seen_bumps.clear();
        self.sx_bumps = seen_bumps;
        to_respond.clear();
        self.sx_respond = to_respond;
        open.clear();
        self.sx_open = open;
    }

    fn advance_responses(&mut self, ctx: &mut SimCtx<'_>, a: NodeId, b: NodeId) {
        let now = ctx.now();
        let mut open = mem::take(&mut self.sx_open);
        open.clear();
        open.extend(self.responses.iter().map(|r| ctx.query_is_open(r.query.id)));
        let response_routing = self.response_routing;
        let oracle = self.oracle.as_mut().expect("configured");
        let mut delivered = mem::take(&mut self.sx_delivered);
        delivered.clear();
        let mut passby = mem::take(&mut self.sx_passby);
        passby.clear();
        let mut requester_caches = mem::take(&mut self.sx_req_caches);
        requester_caches.clear();
        let probing = ctx.probe_enabled();
        let mut relay_hops: Vec<(dtn_core::ids::QueryId, NodeId, NodeId)> = Vec::new();
        {
            let mut link = ctx.link_access();
            for (resp, is_open) in self.responses.iter_mut().zip(&open) {
                if !*is_open {
                    continue;
                }
                let Some(&item) = self.registry.get(resp.query.data) else {
                    continue;
                };
                // Greedy delegation by default (the paper's evaluation);
                // the Flooding bound overrides this with Epidemic.
                let out = resp
                    .msg
                    .on_contact(response_routing, oracle, now, a, b, &mut link);
                if probing {
                    let query = resp.query.id;
                    relay_hops.extend(out.transfers.iter().map(|&(f, t)| (query, f, t)));
                }
                for &(_, to) in &out.transfers {
                    if to == resp.query.requester {
                        if self.policy.cache_at_requester() {
                            requester_caches.push((to, item));
                        }
                    } else {
                        // Pass-by caching decision at the relay
                        // (CacheData / BundleCache).
                        passby.push((to, item));
                    }
                }
                if out.delivered {
                    delivered.push(resp.query.id);
                }
            }
        }
        for &(query, from, to) in &relay_hops {
            ctx.probe().emit(|| ProbeEvent::ResponseRelay {
                at: now,
                query,
                from,
                to,
            });
        }
        for &id in &delivered {
            ctx.mark_delivered(id);
        }
        for &(node, item) in &passby {
            let pctx = self.policy_ctx(node, now);
            if self.policy.cache_passby(&item, pctx) {
                self.cache_at(ctx, node, item);
            }
        }
        for &(node, item) in &requester_caches {
            self.cache_at(ctx, node, item);
        }
        self.responses.retain(|r| !r.msg.is_delivered());
        delivered.clear();
        self.sx_delivered = delivered;
        passby.clear();
        self.sx_passby = passby;
        requester_caches.clear();
        self.sx_req_caches = requester_caches;
    }
}

impl<P: IncidentalPolicy> Scheme for IncidentalScheme<P> {
    fn on_data_generated(&mut self, ctx: &mut SimCtx<'_>, item: DataItem) {
        if !self.configured() {
            return;
        }
        self.registry.register(item);
        // The source always tries to keep its own data, evicting its
        // lowest-score cached items if necessary.
        let node = item.source;
        if !self.buffers[node.index()].fits(item.size) {
            while !self.buffers[node.index()].fits(item.size) {
                let victim = self.buffers[node.index()]
                    .iter()
                    .map(|d| {
                        let pctx = self.policy_ctx(node, ctx.now());
                        (self.policy.eviction_score(d, pctx), d.id)
                    })
                    .min_by(|x, y| x.0.total_cmp(&y.0).then_with(|| x.1.cmp(&y.1)));
                match victim {
                    Some((_, id)) => {
                        self.buffers[node.index()].remove(id);
                        ctx.note_replacements(1);
                        let at = ctx.now();
                        ctx.probe()
                            .emit(|| ProbeEvent::ReplacementEvicted { at, node, data: id });
                    }
                    None => break,
                }
            }
        }
        let _ = self.buffers[node.index()].insert(item);
    }

    fn on_query_issued(&mut self, ctx: &mut SimCtx<'_>, query: Query) {
        if !self.configured() {
            return;
        }
        self.registry.record_request(query.data, ctx.now());
        *self
            .local_seen
            .entry((query.requester, query.data))
            .or_insert(0) += 1;
        if self.buffers[query.requester.index()].contains(query.data) {
            ctx.mark_delivered(query.id);
            return;
        }
        let Some(item) = self.registry.get(query.data) else {
            return;
        };
        let destination = item.source;
        if destination == query.requester {
            // Own expired data regenerated? Nothing to route.
            return;
        }
        let mut msg = RoutedMessage::new(destination, ctx.query_size(), query.requester);
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
        if !self.configured() {
            return;
        }
        self.node_contacts[contact.a.index()] += 1;
        self.node_contacts[contact.b.index()] += 1;
        self.prune(ctx);
        self.advance_queries(ctx, contact.a, contact.b);
        self.advance_responses(ctx, contact.a, contact.b);
    }

    fn on_epoch(&mut self, _ctx: &mut SimCtx<'_>, _epoch: dtn_sim::engine::Epoch) {
        // Incidental caching has no NCLs to re-elect; epochs are no-ops.
    }

    fn cache_stats(&self, now: Time) -> CacheStats {
        let mut copies = 0u64;
        let mut bytes = 0u64;
        let mut distinct = HashSet::new();
        for buf in &self.buffers {
            for item in buf.iter().filter(|d| d.is_alive(now)) {
                copies += 1;
                bytes += item.size;
                distinct.insert(item.id);
            }
        }
        CacheStats {
            copies,
            distinct: distinct.len() as u64,
            bytes,
        }
    }

    fn audit(&self, now: Time, report: &mut dtn_sim::audit::AuditReport) {
        // Incidental caching keeps no redundant copy indexes; buffer
        // byte-accounting is the only law with scheme-side state.
        dtn_sim::audit::check_buffers(&self.buffers, now, report);
    }
}

impl<P: IncidentalPolicy> CachingScheme for IncidentalScheme<P> {
    fn configure(&mut self, setup: &NetworkSetup<'_>) {
        self.oracle = Some(PathOracle::new(
            setup.capacities.len(),
            setup.horizon,
            PATH_REFRESH,
        ));
        self.buffers = setup.capacities.iter().map(|&c| Buffer::new(c)).collect();
        self.node_contacts = vec![0; setup.capacities.len()];
        self.started_at = setup.now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::configure_from_live_state;
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
        let scheme = sim.scheme_mut();
        scheme.node_contacts[0] = 5;
        // At the configure instant no time has been observed yet: no
        // rate estimate — not the raw contact count the old `.max(1.0)`
        // clamp reported (5.0 contacts/s here).
        assert_eq!(scheme.policy_ctx(NodeId(0), Time(1_000)).contact_rate, 0.0);
        // Once time elapses the estimate aligns with `RateEstimator`:
        // contacts / observed seconds.
        assert_eq!(scheme.policy_ctx(NodeId(0), Time(1_010)).contact_rate, 0.5);
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
