//! Reference implementation of the intentional NCL caching scheme.
//!
//! [`ReferenceIntentionalScheme`] is the original, straightforward
//! bookkeeping: full `retain`-sweeps over every pending pull, broadcast
//! and response on each contact, per-contact scans of the whole copy
//! table, and freshly allocated pools for every knapsack exchange. It is
//! kept verbatim (modulo a deterministic `BTreeMap` for the copy table —
//! the original `HashMap` iteration order was process-nondeterministic)
//! as the semantic baseline: `tests/scheme_equivalence.rs` asserts the
//! optimized [`IntentionalScheme`](crate::intentional::IntentionalScheme)
//! produces bit-identical [`Metrics`](dtn_sim::metrics::Metrics) against
//! this implementation across randomized traces, seeds and
//! configurations.
//!
//! Keep this file boring. Performance work belongs in
//! [`intentional`](crate::intentional); behavior changes must land in
//! both, or the differential suite will fail.

use std::collections::{BTreeMap, HashSet};

use rand::Rng;

use dtn_core::ids::{DataId, NodeId, QueryId};
use dtn_core::knapsack::{CacheItem, KnapsackSolver};
use dtn_core::ncl::SweepWork;
use dtn_core::sigmoid::ResponseFunction;
use dtn_core::time::{Duration, Time};
use dtn_sim::buffer::Buffer;
use dtn_sim::engine::{CacheStats, Link, Scheme, SimCtx};
use dtn_sim::message::{DataItem, Query};
use dtn_sim::oracle::{OracleStats, PathOracle};
use dtn_sim::probe::ProbeEvent;
use dtn_trace::trace::Contact;

use crate::common::DataRegistry;
use crate::intentional::{IntentionalConfig, ResponseStrategy};
use crate::replacement::{make_room, NodeCacheMeta, ReplacementKind};
use crate::routing::{ForwardingStrategy, RoutedMessage};
use crate::{CachingScheme, NetworkSetup, PATH_REFRESH};

/// Where one NCL's copy of a data item currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyState {
    /// Still being pushed; the node is a *temporal* caching location.
    Carried(NodeId),
    /// Settled at this caching node.
    Settled(NodeId),
    /// Evicted or undeliverable.
    Dropped,
}

impl CopyState {
    fn holder(self) -> Option<NodeId> {
        match self {
            CopyState::Carried(n) | CopyState::Settled(n) => Some(n),
            CopyState::Dropped => None,
        }
    }

    /// A copy that just moved to `node`: settled if `node` is the target
    /// central node, still in transit otherwise.
    fn transit(node: NodeId, central: NodeId) -> CopyState {
        if node == central {
            CopyState::Settled(node)
        } else {
            CopyState::Carried(node)
        }
    }
}

/// What happened to a routed message during one contact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ContactOutcome {
    /// The destination received the message during this contact.
    pub(crate) delivered: bool,
    /// Relay hops performed: `(from, to)` pairs, destination hops
    /// included.
    pub(crate) transfers: Vec<(NodeId, NodeId)>,
}

impl RoutedMessage {
    /// Advances the message over a contact between `a` and `b`,
    /// collecting the relay hops into a [`ContactOutcome`] — for callers
    /// that keep no carrier index (this scheme, the baselines' full-scan
    /// reference, tests).
    pub(crate) fn on_contact(
        &mut self,
        strategy: ForwardingStrategy,
        oracle: &mut PathOracle,
        now: Time,
        a: NodeId,
        b: NodeId,
        link: &mut impl Link,
    ) -> ContactOutcome {
        let mut outcome = ContactOutcome::default();
        outcome.delivered = self.advance(strategy, oracle, now, a, b, link, &mut |f, t| {
            outcome.transfers.push((f, t))
        });
        outcome
    }
}

/// A query copy traveling toward one central node.
#[derive(Debug, Clone, Copy)]
struct PullCopy {
    query: Query,
    ncl: usize,
    carrier: NodeId,
}

/// A query being broadcast among the caching nodes of one NCL.
#[derive(Debug, Clone)]
struct BroadcastCopy {
    query: Query,
    ncl: usize,
    holders: HashSet<NodeId>,
}

/// A cached data copy traveling back to a requester.
#[derive(Debug, Clone)]
struct ResponseInFlight {
    query: Query,
    msg: RoutedMessage,
}

/// The retain-sweep reference implementation of the intentional NCL
/// caching scheme (§V). See the module docs for why it exists.
#[derive(Debug)]
pub struct ReferenceIntentionalScheme {
    cfg: IntentionalConfig,
    centrals: Vec<NodeId>,
    oracle: Option<PathOracle>,
    buffers: Vec<Buffer>,
    meta: Vec<NodeCacheMeta>,
    registry: DataRegistry,
    /// copies[data][k] — the k-th NCL's copy of `data`.
    copies: BTreeMap<DataId, Vec<CopyState>>,
    pulls: Vec<PullCopy>,
    broadcasts: Vec<BroadcastCopy>,
    responses: Vec<ResponseInFlight>,
    /// (query, node) pairs that already made their response decision.
    responded: HashSet<(QueryId, NodeId)>,
    solver: KnapsackSolver,
    /// Queries that arrived at each central node (NCL load, by index).
    ncl_query_load: Vec<u64>,
    ncl_work: SweepWork,
}

impl ReferenceIntentionalScheme {
    /// Creates an unconfigured scheme.
    pub fn new(cfg: IntentionalConfig) -> Self {
        let solver = KnapsackSolver::new(cfg.knapsack_quantum);
        ReferenceIntentionalScheme {
            cfg,
            centrals: Vec::new(),
            oracle: None,
            buffers: Vec::new(),
            meta: Vec::new(),
            registry: DataRegistry::default(),
            copies: BTreeMap::new(),
            pulls: Vec::new(),
            broadcasts: Vec::new(),
            responses: Vec::new(),
            responded: HashSet::new(),
            solver,
            ncl_query_load: Vec::new(),
            ncl_work: SweepWork::default(),
        }
    }

    fn configured(&self) -> bool {
        self.oracle.is_some()
    }

    /// Whether `node` currently holds a copy (carried or settled) on
    /// behalf of NCL `k`.
    fn is_member(&self, node: NodeId, ncl: usize) -> bool {
        self.copies
            .values()
            .any(|states| states.get(ncl).and_then(|s| s.holder()) == Some(node))
    }

    /// Drops expired data everywhere and dead in-flight messages.
    fn prune(&mut self, ctx: &SimCtx<'_>) {
        let now = ctx.now();
        for (node, buf) in self.buffers.iter_mut().enumerate() {
            let dead: Vec<DataId> = buf
                .iter()
                .filter(|d| !d.is_alive(now))
                .map(|d| d.id)
                .collect();
            for id in dead {
                buf.remove(id);
                self.meta[node].on_remove(id);
            }
        }
        // A holder whose buffer lost the item (expiry, eviction) no
        // longer holds the copy.
        let buffers = &self.buffers;
        for (&data, states) in self.copies.iter_mut() {
            for s in states.iter_mut() {
                if let Some(holder) = s.holder() {
                    if !buffers[holder.index()].contains(data) {
                        *s = CopyState::Dropped;
                    }
                }
            }
        }
        self.pulls.retain(|p| ctx.query_is_open(p.query.id));
        self.broadcasts.retain(|b| ctx.query_is_open(b.query.id));
        self.responses.retain(|r| ctx.query_is_open(r.query.id));
    }

    /// Inserts a physical copy of `item` at `node`, evicting per the
    /// traditional policies if configured. Returns whether it fits.
    fn insert_physical(&mut self, ctx: &mut SimCtx<'_>, node: NodeId, item: DataItem) -> bool {
        let buf = &mut self.buffers[node.index()];
        if buf.contains(item.id) {
            return true;
        }
        if !buf.fits(item.size) {
            let evicted = make_room(buf, &mut self.meta[node.index()], item.size);
            if !evicted.is_empty() {
                ctx.note_replacements(evicted.len() as u64);
                for id in evicted {
                    if let Some(states) = self.copies.get_mut(&id) {
                        for s in states.iter_mut() {
                            if s.holder() == Some(node) {
                                *s = CopyState::Dropped;
                            }
                        }
                    }
                }
            }
        }
        let buf = &mut self.buffers[node.index()];
        if buf.insert(item).is_ok() {
            let pop = self.registry.popularity(item.id, ctx.now());
            self.meta[node.index()].on_insert(item.id, ctx.now(), pop, item.size);
            true
        } else {
            false
        }
    }

    /// Removes `node`'s physical copy of `data` if no NCL copy still
    /// points at it.
    fn drop_physical_if_unreferenced(&mut self, node: NodeId, data: DataId) {
        let referenced = self
            .copies
            .get(&data)
            .is_some_and(|states| states.iter().any(|s| s.holder() == Some(node)));
        if !referenced {
            self.buffers[node.index()].remove(data);
            self.meta[node.index()].on_remove(data);
        }
    }

    /// §V-A: advance the push copies carried by either contact endpoint.
    fn advance_pushes(&mut self, ctx: &mut SimCtx<'_>, a: NodeId, b: NodeId) {
        let now = ctx.now();
        let data_ids: Vec<DataId> = self.copies.keys().copied().collect();
        for data in data_ids {
            let Some(&item) = self.registry.get(data) else {
                continue;
            };
            if !item.is_alive(now) {
                continue;
            }
            for k in 0..self.centrals.len() {
                let state = self.copies[&data][k];
                let CopyState::Carried(holder) = state else {
                    continue;
                };
                let (from, to) = if holder == a {
                    (a, b)
                } else if holder == b {
                    (b, a)
                } else {
                    continue;
                };
                let central = self.centrals[k];
                let oracle = self.oracle.as_mut().expect("configured");
                if !oracle.forward(ctx.rate_table(), now, from, to, central) {
                    continue;
                }
                // The next selected relay: forward if it can hold the
                // item, otherwise settle at the current relay (§V-A).
                let already_there = self.buffers[to.index()].contains(data);
                if already_there {
                    self.set_copy(data, k, CopyState::transit(to, central));
                    self.drop_physical_if_unreferenced(from, data);
                    continue;
                }
                if !self.buffers[to.index()].fits(item.size)
                    && self.cfg.replacement == ReplacementKind::UtilityKnapsack
                {
                    // Next relay's buffer is full: cache here.
                    self.set_copy(data, k, CopyState::Settled(from));
                    ctx.probe().emit(|| ProbeEvent::PushSettled {
                        at: now,
                        data,
                        node: from,
                        ncl: k,
                    });
                    continue;
                }
                if !ctx.try_transmit(item.size) {
                    continue; // contact too short; retry later
                }
                if self.insert_physical(ctx, to, item) {
                    self.set_copy(data, k, CopyState::transit(to, central));
                    if to == central {
                        ctx.probe().emit(|| ProbeEvent::PushSettled {
                            at: now,
                            data,
                            node: to,
                            ncl: k,
                        });
                    }
                    self.drop_physical_if_unreferenced(from, data);
                } else {
                    // Traditional policy could not make room either.
                    self.set_copy(data, k, CopyState::Settled(from));
                    ctx.probe().emit(|| ProbeEvent::PushSettled {
                        at: now,
                        data,
                        node: from,
                        ncl: k,
                    });
                }
            }
        }
    }

    fn set_copy(&mut self, data: DataId, k: usize, state: CopyState) {
        if let Some(states) = self.copies.get_mut(&data) {
            states[k] = state;
        }
    }

    /// §V-B: advance query copies toward their central nodes.
    fn advance_pulls(&mut self, ctx: &mut SimCtx<'_>, a: NodeId, b: NodeId) {
        let now = ctx.now();
        let mut arrived = Vec::new();
        let query_size = ctx.query_size();
        for (i, pull) in self.pulls.iter_mut().enumerate() {
            if !ctx.query_is_open(pull.query.id) {
                continue;
            }
            let (from, to) = if pull.carrier == a {
                (a, b)
            } else if pull.carrier == b {
                (b, a)
            } else {
                continue;
            };
            let central = self.centrals[pull.ncl];
            let oracle = self.oracle.as_mut().expect("configured");
            if !oracle.forward(ctx.rate_table(), now, from, to, central) {
                continue;
            }
            if !ctx.try_transmit(query_size) {
                continue;
            }
            pull.carrier = to;
            if to == central {
                arrived.push(i);
            }
        }
        // Handle arrivals (immediate reply or NCL broadcast), then drop
        // the delivered pull copies.
        for &i in &arrived {
            let pull = self.pulls[i];
            self.handle_query_at_central(ctx, pull.query, pull.ncl);
        }
        let mut index = 0;
        self.pulls.retain(|_| {
            let keep = !arrived.contains(&index);
            index += 1;
            keep
        });
    }

    /// A query reached central node `centrals[ncl]` (§V-B, Fig. 6).
    fn handle_query_at_central(&mut self, ctx: &mut SimCtx<'_>, query: Query, ncl: usize) {
        if let Some(slot) = self.ncl_query_load.get_mut(ncl) {
            *slot += 1;
        }
        let at = ctx.now();
        ctx.probe().emit(|| ProbeEvent::QueryAtCentral {
            at,
            query: query.id,
            ncl,
        });
        let central = self.centrals[ncl];
        if self.buffers[central.index()].contains(query.data) {
            // "a central node immediately replies to the requester with
            // the data if it is cached locally"
            let pop = self.registry.popularity(query.data, ctx.now());
            self.meta[central.index()].on_use(
                query.data,
                ctx.now(),
                pop,
                self.registry.get(query.data).map_or(1, |d| d.size),
            );
            self.spawn_response(ctx, query, central);
        } else {
            // Otherwise broadcast among the NCL's caching nodes.
            let mut holders = HashSet::new();
            holders.insert(central);
            self.broadcasts.push(BroadcastCopy {
                query,
                ncl,
                holders,
            });
        }
    }

    /// §V-B: spread broadcast queries among NCL members; §V-C: members
    /// caching the data decide probabilistically whether to respond.
    fn advance_broadcasts(&mut self, ctx: &mut SimCtx<'_>, a: NodeId, b: NodeId) {
        let query_size = ctx.query_size();
        let mut decisions: Vec<(Query, NodeId)> = Vec::new();
        // Collect membership checks first to appease the borrow checker.
        let mut spreads: Vec<(usize, NodeId)> = Vec::new();
        for (i, bc) in self.broadcasts.iter().enumerate() {
            if !ctx.query_is_open(bc.query.id) {
                continue;
            }
            for (from, to) in [(a, b), (b, a)] {
                if bc.holders.contains(&from)
                    && !bc.holders.contains(&to)
                    && (self.is_member(to, bc.ncl) || to == self.centrals[bc.ncl])
                {
                    spreads.push((i, to));
                }
            }
        }
        for (i, to) in spreads {
            if !ctx.try_transmit(query_size) {
                continue;
            }
            let bc = &mut self.broadcasts[i];
            bc.holders.insert(to);
            let (query, data) = (bc.query, bc.query.data);
            if self.buffers[to.index()].contains(data) {
                decisions.push((query, to));
            }
            let at = ctx.now();
            ctx.probe().emit(|| ProbeEvent::BroadcastSpread {
                at,
                query: query.id,
                node: to,
            });
        }
        for (query, node) in decisions {
            self.maybe_respond(ctx, query, node);
        }
    }

    /// §V-C: one response decision per (query, caching node).
    fn maybe_respond(&mut self, ctx: &mut SimCtx<'_>, query: Query, node: NodeId) {
        if !self.responded.insert((query.id, node)) {
            return; // already decided
        }
        let remaining = query.remaining(ctx.now());
        if remaining == Duration::ZERO {
            return;
        }
        let probability = match self.cfg.response {
            ResponseStrategy::Sigmoid { p_min, p_max } => {
                match ResponseFunction::new(p_min, p_max, query.constraint()) {
                    Ok(f) => f.probability(remaining),
                    Err(_) => p_max.clamp(0.0, 1.0),
                }
            }
            ResponseStrategy::PathAware => {
                let oracle = self.oracle.as_mut().expect("configured");
                let table = oracle.table(ctx.rate_table(), ctx.now(), node);
                table
                    .path_to(query.requester)
                    .map_or(0.0, |p| p.weight(remaining.as_secs_f64()))
            }
        };
        let pop = self.registry.popularity(query.data, ctx.now());
        let size = self.registry.get(query.data).map_or(1, |d| d.size);
        if ctx.rng().gen_bool(probability.clamp(0.0, 1.0)) {
            self.meta[node.index()].on_use(query.data, ctx.now(), pop, size);
            self.spawn_response(ctx, query, node);
        }
    }

    fn spawn_response(&mut self, ctx: &mut SimCtx<'_>, query: Query, from: NodeId) {
        let at = ctx.now();
        ctx.probe().emit(|| ProbeEvent::ResponseSpawned {
            at,
            query: query.id,
            node: from,
        });
        if from == query.requester {
            ctx.mark_delivered(query.id);
            return;
        }
        let Some(&item) = self.registry.get(query.data) else {
            return;
        };
        let mut msg = RoutedMessage::new(query.requester, item.size, from);
        if let ForwardingStrategy::SprayAndWait { initial_copies } = self.cfg.response_routing {
            msg = msg.with_copy_budget(initial_copies);
        }
        self.responses.push(ResponseInFlight { query, msg });
    }

    /// Return cached data copies to their requesters using the
    /// configured forwarding strategy (§V-B).
    fn advance_responses(&mut self, ctx: &mut SimCtx<'_>, a: NodeId, b: NodeId) {
        let now = ctx.now();
        let open: Vec<bool> = self
            .responses
            .iter()
            .map(|r| ctx.query_is_open(r.query.id))
            .collect();
        let strategy = self.cfg.response_routing;
        let oracle = self.oracle.as_mut().expect("configured");
        let mut delivered = Vec::new();
        {
            let mut link = ctx.link_access();
            for (resp, is_open) in self.responses.iter_mut().zip(&open) {
                if !*is_open {
                    continue;
                }
                let out = resp.msg.on_contact(strategy, oracle, now, a, b, &mut link);
                if out.delivered {
                    delivered.push(resp.query.id);
                }
            }
        }
        for id in delivered {
            ctx.mark_delivered(id);
        }
        self.responses.retain(|r| !r.msg.is_delivered());
    }

    /// §V-D: contact-time cache replacement between two caching nodes.
    fn exchange_caches(&mut self, ctx: &mut SimCtx<'_>, a: NodeId, b: NodeId) {
        if self.cfg.replacement != ReplacementKind::UtilityKnapsack {
            return;
        }
        let now = ctx.now();
        for k in 0..self.centrals.len() {
            self.exchange_ncl(ctx, a, b, k, now);
        }
    }

    fn exchange_ncl(&mut self, ctx: &mut SimCtx<'_>, a: NodeId, b: NodeId, k: usize, now: Time) {
        // Pool the settled copies of NCL k held by either node, skipping
        // copies whose physical bytes are pinned by another NCL's tag at
        // the same node (they are not free to move).
        let mut pool: Vec<(DataItem, NodeId)> = Vec::new();
        for (&data, states) in &self.copies {
            let CopyState::Settled(holder) = states[k] else {
                continue;
            };
            if holder != a && holder != b {
                continue;
            }
            let Some(&item) = self.registry.get(data) else {
                continue;
            };
            if !item.is_alive(now) {
                continue;
            }
            let pinned = states
                .iter()
                .enumerate()
                .any(|(j, s)| j != k && s.holder() == Some(holder));
            if !pinned {
                pool.push((item, holder));
            }
        }
        if pool.is_empty() {
            return;
        }
        // Nothing to optimise if only one node participates and already
        // holds everything — still run when both hold copies or the
        // better-placed node differs.
        let central = self.centrals[k];
        let oracle = self.oracle.as_mut().expect("configured");
        let wa = oracle.weight(ctx.rate_table(), now, a, central);
        let wb = oracle.weight(ctx.rate_table(), now, b, central);
        let (first, second) = if wa >= wb { (a, b) } else { (b, a) };

        // Extract the pooled physical copies, remembering prior holders.
        for (item, holder) in &pool {
            self.buffers[holder.index()].remove(item.id);
            self.meta[holder.index()].on_remove(item.id);
        }

        let items: Vec<CacheItem> = pool
            .iter()
            .map(|(d, _)| CacheItem {
                size: d.size,
                utility: self.registry.popularity(d.id, now),
            })
            .collect();

        // Algorithm 1 (or the deterministic basic strategy when
        // ablated) for the better-placed node, then the remainder for
        // the other.
        let cap_first = self.buffers[first.index()].free();
        let chosen_first = if self.cfg.probabilistic_selection {
            self.solver
                .probabilistic_select_in(&items, cap_first, ctx.rng())
                .to_vec()
        } else {
            self.solver.solve_in(&items, cap_first).indices.clone()
        };
        let first_set: HashSet<usize> = chosen_first.iter().copied().collect();
        let rest: Vec<usize> = (0..items.len())
            .filter(|i| !first_set.contains(i))
            .collect();
        let rest_items: Vec<CacheItem> = rest.iter().map(|&i| items[i]).collect();
        let cap_second = self.buffers[second.index()].free();
        let chosen_second_local = if self.cfg.probabilistic_selection {
            self.solver
                .probabilistic_select_in(&rest_items, cap_second, ctx.rng())
                .to_vec()
        } else {
            self.solver
                .solve_in(&rest_items, cap_second)
                .indices
                .clone()
        };
        let second_set: HashSet<usize> = chosen_second_local.iter().map(|&j| rest[j]).collect();

        let mut moves = 0u64;
        for (i, (item, prior_holder)) in pool.iter().enumerate() {
            let target = if first_set.contains(&i) {
                Some(first)
            } else if second_set.contains(&i) {
                Some(second)
            } else {
                None
            };
            // Preference: knapsack target, then where it was before.
            let mut candidates: Vec<NodeId> = Vec::new();
            if let Some(node) = target {
                candidates.push(node);
            }
            if !candidates.contains(prior_holder) {
                candidates.push(*prior_holder);
            }
            let mut placed = false;
            for node in candidates {
                let moved = node != *prior_holder;
                // Moving needs bandwidth unless the bytes are already
                // there via another NCL's copy.
                let needs_transfer = moved && !self.buffers[node.index()].contains(item.id);
                if needs_transfer && !ctx.try_transmit(item.size) {
                    continue; // contact too short to carry the move
                }
                if self.buffers[node.index()].insert(*item).is_ok() {
                    let pop = self.registry.popularity(item.id, now);
                    self.meta[node.index()].on_insert(item.id, now, pop, item.size);
                    self.set_copy(item.id, k, CopyState::Settled(node));
                    if moved {
                        moves += 1;
                    }
                    placed = true;
                    break;
                }
            }
            if !placed {
                self.set_copy(item.id, k, CopyState::Dropped);
                moves += 1;
            }
        }
        ctx.note_replacements(moves);
    }
}

impl Scheme for ReferenceIntentionalScheme {
    fn on_data_generated(&mut self, ctx: &mut SimCtx<'_>, item: DataItem) {
        if !self.configured() {
            return;
        }
        self.registry.register(item);
        // The source holds one physical copy and owes one to each NCL.
        if self.insert_physical(ctx, item.source, item) {
            self.copies.insert(
                item.id,
                vec![CopyState::Carried(item.source); self.centrals.len()],
            );
        } else {
            // The item never fits anywhere; it is lost.
            self.copies
                .insert(item.id, vec![CopyState::Dropped; self.centrals.len()]);
        }
    }

    fn on_query_issued(&mut self, ctx: &mut SimCtx<'_>, query: Query) {
        if !self.configured() {
            return;
        }
        self.registry.record_request(query.data, ctx.now());
        // Local hit: the requester happens to cache the data already.
        if self.buffers[query.requester.index()].contains(query.data) {
            ctx.mark_delivered(query.id);
            return;
        }
        let centrals = self.centrals.clone();
        for (k, &central) in centrals.iter().enumerate() {
            if central == query.requester {
                self.handle_query_at_central(ctx, query, k);
            } else {
                self.pulls.push(PullCopy {
                    query,
                    ncl: k,
                    carrier: query.requester,
                });
            }
        }
    }

    fn on_contact(&mut self, ctx: &mut SimCtx<'_>, contact: Contact) {
        if !self.configured() {
            return;
        }
        let (a, b) = (contact.a, contact.b);
        self.prune(ctx);
        self.advance_pushes(ctx, a, b);
        self.advance_pulls(ctx, a, b);
        self.advance_broadcasts(ctx, a, b);
        self.advance_responses(ctx, a, b);
        self.exchange_caches(ctx, a, b);
    }

    fn on_epoch(&mut self, _ctx: &mut SimCtx<'_>, _epoch: dtn_sim::engine::Epoch) {
        // The reference scheme keeps its NCLs frozen for the whole run:
        // it is the fixed point the optimized scheme must match bit for
        // bit when `epoch_interval` is `None`, and the frozen baseline
        // the re-election experiment compares against.
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
        use dtn_sim::audit::{check_buffers, AuditLaw, AuditViolation};
        check_buffers(&self.buffers, now, report);
        // Copy conservation: every live copy's holder physically stores
        // the bytes. `prune` flips copies whose holder lost the item to
        // Dropped at the start of each contact, so the law holds at
        // audit time (after the contact) for every alive item; expired
        // items are reconciled lazily and are exempt.
        for (&data, states) in &self.copies {
            if !self.registry.get(data).is_some_and(|d| d.is_alive(now)) {
                continue;
            }
            for (k, s) in states.iter().enumerate() {
                let Some(holder) = s.holder() else { continue };
                if !self.buffers[holder.index()].contains(data) {
                    report.violate(AuditViolation {
                        law: AuditLaw::CopyConservation,
                        at: now,
                        node: Some(holder),
                        item: Some(data),
                        detail: format!("NCL {k} copy points at a node lacking the bytes"),
                    });
                }
            }
        }
    }
}

impl CachingScheme for ReferenceIntentionalScheme {
    fn configure(&mut self, setup: &NetworkSetup<'_>) {
        let graph = dtn_core::graph::ContactGraph::from_rate_table(setup.rate_table, setup.now);
        let (scores, work) = dtn_core::ncl::select_by_strategy_counted(
            &graph,
            self.cfg.ncl_count,
            setup.horizon,
            self.cfg.ncl_selection,
        );
        self.ncl_work = work;
        self.centrals = scores.iter().map(|s| s.node).collect();
        self.ncl_query_load = vec![0; self.centrals.len()];
        self.oracle = Some(PathOracle::new(
            setup.capacities.len(),
            setup.horizon,
            setup.path_refresh.unwrap_or(PATH_REFRESH),
        ));
        self.buffers = setup.capacities.iter().map(|&c| Buffer::new(c)).collect();
        self.meta = vec![NodeCacheMeta::new(self.cfg.replacement); setup.capacities.len()];
    }

    fn central_nodes(&self) -> &[NodeId] {
        &self.centrals
    }

    fn ncl_query_load(&self) -> &[u64] {
        &self.ncl_query_load
    }

    fn oracle_stats(&self) -> Option<OracleStats> {
        self.oracle.as_ref().map(PathOracle::stats)
    }

    fn ncl_work(&self) -> Option<SweepWork> {
        Some(self.ncl_work)
    }
}
