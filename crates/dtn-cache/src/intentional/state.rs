//! Per-node cache state of the intentional scheme: the copy table, the
//! per-holder indexes kept in sync through [`IntentionalScheme::set_copy`],
//! buffer insertion/eviction, expiry garbage collection, and the §V-D
//! contact-time cache exchange.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dtn_core::ids::{DataId, IdMap, IdSet, NodeId, QueryId};
use dtn_core::knapsack::{CacheItem, KnapsackSolver};
use dtn_core::ncl::SweepWork;
use dtn_core::rate::RateTable;
use dtn_core::time::Time;
use dtn_sim::audit::{check_buffers, AuditLaw, AuditReport, AuditViolation};
use dtn_sim::buffer::Buffer;
use dtn_sim::decision::DecisionPoint;
use dtn_sim::engine::SimCtx;
use dtn_sim::message::{DataItem, Query};
use dtn_sim::oracle::PathOracle;
use dtn_sim::probe::ProbeEvent;
use dtn_sim::profiler::Phase;

use crate::common::DataRegistry;
use crate::pending::{AdvanceScratch, CarrierSlab, RoutedSlab};
use crate::replacement::{make_room, NodeCacheMeta, ReplacementKind};

use super::pending::{BroadcastCopy, PullRecord};
use super::IntentionalConfig;

/// Where one NCL's copy of a data item currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum CopyState {
    /// Still being pushed; the node is a *temporal* caching location.
    Carried(NodeId),
    /// Settled at this caching node.
    Settled(NodeId),
    /// Evicted or undeliverable.
    Dropped,
}

impl CopyState {
    pub(super) fn holder(self) -> Option<NodeId> {
        match self {
            CopyState::Carried(n) | CopyState::Settled(n) => Some(n),
            CopyState::Dropped => None,
        }
    }

    /// A copy that just moved to `node`: settled if `node` is the target
    /// central node, still in transit otherwise.
    pub(super) fn transit(node: NodeId, central: NodeId) -> CopyState {
        if node == central {
            CopyState::Settled(node)
        } else {
            CopyState::Carried(node)
        }
    }
}

/// Counters accumulated by epoch-based NCL re-election (see
/// [`IntentionalScheme::reelection_stats`]). All zero while
/// `epoch_interval` is off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReelectionStats {
    /// Epochs in which an election actually ran.
    pub elections: u64,
    /// Central-set churn: NCL slots whose central node changed, summed
    /// over all elections.
    pub central_changes: u64,
    /// Settled copies flipped back to carried for migration toward a
    /// newly elected central node.
    pub migrated_copies: u64,
    /// Total payload bytes of those migrated copies.
    pub migrated_bytes: u64,
}

/// The intentional NCL caching scheme (§V).
///
/// Construct with [`IntentionalScheme::new`], then install the warm-up
/// network state via
/// [`CachingScheme::configure`](crate::CachingScheme::configure) before
/// feeding workload events.
#[derive(Debug)]
pub struct IntentionalScheme {
    pub(super) cfg: IntentionalConfig,
    /// What [`configure`](crate::CachingScheme::configure) built, beside
    /// the per-contact scratch it lends each phase; `None` until then,
    /// and every hook is a no-op while it is.
    pub(super) live: Option<(Live, Scratch)>,
}

/// The configured scheme: NCLs, oracle, and every node's cache state.
#[derive(Debug)]
pub(super) struct Live {
    pub(super) cfg: IntentionalConfig,
    pub(super) centrals: Vec<NodeId>,
    pub(super) oracle: PathOracle,
    pub(super) buffers: Vec<Buffer>,
    pub(super) meta: Vec<NodeCacheMeta>,
    pub(super) registry: DataRegistry,
    /// copies[data][k] — the k-th NCL's copy of `data`. Never iterated
    /// in map order; all ordered traversal goes through the per-node
    /// indexes below.
    pub(super) copies: IdMap<DataId, Vec<CopyState>>,
    /// In-flight pulls, broadcasts and responses, each listed under
    /// every node carrying a copy.
    pub(super) pulls: CarrierSlab<PullRecord>,
    pub(super) broadcasts: CarrierSlab<BroadcastCopy>,
    pub(super) responses: RoutedSlab,
    /// carried_at[n] — `(data, k)` push copies in `Carried(n)` state.
    pub(super) carried_at: Vec<Vec<(DataId, u32)>>,
    /// settled_at[n] — `(data, k)` copies in `Settled(n)` state.
    pub(super) settled_at: Vec<Vec<(DataId, u32)>>,
    /// member_count[n·K + k] — copies (carried or settled) node `n`
    /// holds for NCL `k`, row-major over the `K = centrals.len()` NCLs;
    /// `is_member` in O(1). Flat storage: one allocation instead of one
    /// per node, which matters at city-scale populations.
    pub(super) member_count: Vec<u32>,
    /// Expiry heap over data items (replaces the all-buffer dead scan).
    pub(super) data_gc: BinaryHeap<Reverse<(Time, DataId)>>,
    /// Nodes that already made their response decision, per query.
    pub(super) responded: IdMap<QueryId, IdSet<NodeId>>,
    /// Expiry heap over `responded` entries.
    pub(super) responded_gc: BinaryHeap<Reverse<(Time, QueryId)>>,
    pub(super) solver: KnapsackSolver,
    /// Queries that arrived at each central node (NCL load, by index).
    pub(super) ncl_query_load: Vec<u64>,
    /// Last oracle snapshot epoch relayed to an installed probe; only
    /// consulted while a probe is enabled.
    pub(super) last_oracle_epoch: u64,
    /// Path horizon `T` of the initial selection; epoch re-elections
    /// score candidates with it too.
    pub(super) horizon: f64,
    /// Re-election counters (zero while epochs are off).
    pub(super) reelection: ReelectionStats,
    /// Work of every NCL selection since `configure`, its own included.
    pub(super) ncl_work: SweepWork,
}

/// Per-contact scratch, lent to each phase of [`Live`] (contents mean
/// nothing between phases; kept to avoid re-allocation in the hot loop).
#[derive(Debug, Default)]
pub(super) struct Scratch {
    pub(super) copies: Vec<(DataId, u32)>,
    pub(super) open: Vec<u32>,
    pub(super) arrived: Vec<(Query, usize)>,
    pub(super) spreads: Vec<(u32, NodeId)>,
    pub(super) decisions: Vec<(Query, NodeId)>,
    pub(super) advance: AdvanceScratch,
    pub(super) delivered: Vec<(u32, QueryId)>,
    pool: Vec<(DataItem, NodeId)>,
    items: Vec<CacheItem>,
    chosen: Vec<usize>,
    rest: Vec<usize>,
    rest_items: Vec<CacheItem>,
    in_first: Vec<bool>,
    in_second: Vec<bool>,
}

impl IntentionalScheme {
    /// Creates an unconfigured scheme.
    pub fn new(cfg: IntentionalConfig) -> Self {
        IntentionalScheme { cfg, live: None }
    }

    pub(super) fn live(&self) -> Option<&Live> {
        self.live.as_ref().map(|(live, _)| live)
    }

    /// A [`DecisionPoint`] borrowing this scheme's own path oracle and
    /// elected central set — the scheme-side decision API for the online
    /// serving mode. Decisions answered through it read exactly the
    /// weights the engine's [`PathOracle::forward`] reads at the next
    /// contact. `None` until [`configure`](crate::CachingScheme::configure)
    /// has elected central nodes and built the oracle.
    pub fn decision_point<'a>(
        &'a mut self,
        rates: &'a RateTable,
        now: Time,
    ) -> Option<DecisionPoint<'a>> {
        let (live, _) = self.live.as_mut()?;
        Some(DecisionPoint::new(
            &mut live.oracle,
            rates,
            now,
            &live.centrals,
        ))
    }

    /// Counters accumulated by epoch-based NCL re-election. All zero
    /// unless the engine drives
    /// [`Scheme::on_epoch`](dtn_sim::engine::Scheme::on_epoch) via
    /// `SimConfig::epoch_interval`.
    pub fn reelection_stats(&self) -> ReelectionStats {
        self.live().map(|l| l.reelection).unwrap_or_default()
    }

    /// Checks the scheme's internal invariants; used by stress tests.
    ///
    /// Thin wrapper over the sweep behind
    /// [`Scheme::audit`](dtn_sim::engine::Scheme::audit).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant: buffer
    /// byte-accounting, buffer over-commitment, an NCL copy pointing at
    /// a node that does not physically hold the data, or a per-node
    /// index (copy lists, membership counters, pending-message lists)
    /// out of sync with the canonical state.
    pub fn validate(&self) -> Result<(), String> {
        let mut report = AuditReport::default();
        if let Some(live) = self.live() {
            live.audit_into(Time::ZERO, &mut report);
        }
        match report.violations().first() {
            Some(v) => Err(v.to_string()),
            None => Ok(()),
        }
    }
}

impl Live {
    /// Re-derives the canonical copy/index state and reports every
    /// broken conservation law into `report` (the laws of
    /// [`dtn_sim::audit`]): buffer byte-accounting, copy conservation
    /// (every live copy's holder physically stores the bytes, the
    /// per-node copy lists and membership counters match the copy
    /// table), and index consistency for the pull/broadcast/response
    /// locators. Drives [`Scheme::audit`](dtn_sim::engine::Scheme::audit).
    pub(crate) fn audit_into(&self, at: Time, report: &mut AuditReport) {
        check_buffers(&self.buffers, at, report);
        let n = self.buffers.len();
        let k_count = self.centrals.len();
        let mut expect_member = vec![0u32; n * k_count];
        let mut carried_seen = 0usize;
        let mut settled_seen = 0usize;
        for (data, states) in &self.copies {
            for (k, s) in states.iter().enumerate() {
                let Some(holder) = s.holder() else { continue };
                if !self.buffers[holder.index()].contains(*data) {
                    report.violate(AuditViolation {
                        law: AuditLaw::CopyConservation,
                        at,
                        node: Some(holder),
                        item: Some(*data),
                        detail: format!("NCL {k} copy points at a node lacking the bytes"),
                    });
                    continue;
                }
                expect_member[holder.index() * k_count + k] += 1;
                let (seen, lists) = match s {
                    CopyState::Settled(_) => (&mut settled_seen, &self.settled_at),
                    _ => (&mut carried_seen, &self.carried_at),
                };
                *seen += 1;
                if !lists[holder.index()].contains(&(*data, k as u32)) {
                    report.violate(AuditViolation {
                        law: AuditLaw::CopyConservation,
                        at,
                        node: Some(holder),
                        item: Some(*data),
                        detail: format!("NCL {k} copy missing from the holder's index list"),
                    });
                }
            }
        }
        if expect_member != self.member_count {
            let culprit = (0..n)
                .find(|&i| {
                    expect_member[i * k_count..(i + 1) * k_count]
                        != self.member_count[i * k_count..(i + 1) * k_count]
                })
                .map(|i| NodeId(i as u32));
            report.violate(AuditViolation {
                law: AuditLaw::CopyConservation,
                at,
                node: culprit,
                item: None,
                detail: "member_count out of sync with copy states".into(),
            });
        }
        let carried_total: usize = self.carried_at.iter().map(Vec::len).sum();
        let settled_total: usize = self.settled_at.iter().map(Vec::len).sum();
        if carried_total != carried_seen || settled_total != settled_seen {
            report.violate(AuditViolation {
                law: AuditLaw::CopyConservation,
                at,
                node: None,
                item: None,
                detail: format!(
                    "copy index lists hold {carried_total}+{settled_total} entries, \
                     copy states say {carried_seen}+{settled_seen}"
                ),
            });
        }
        self.pulls.audit("pull", at, report);
        self.broadcasts.audit("broadcast", at, report);
        self.responses.audit("response", at, report);
    }

    /// Whether `node` currently holds a copy (carried or settled) on
    /// behalf of NCL `ncl`.
    pub(super) fn is_member(&self, node: NodeId, ncl: usize) -> bool {
        self.member_count[node.index() * self.centrals.len() + ncl] > 0
    }

    /// Garbage-collects expired data and dead in-flight state from the
    /// expiry heaps. Unlike the original full sweeps this touches only
    /// entries that actually expired; messages whose query closed early
    /// (satisfied) are dropped lazily when next gathered, which is
    /// unobservable because every processing path checks
    /// `query_is_open` first.
    pub(super) fn prune(&mut self, ctx: &SimCtx<'_>) {
        let now = ctx.now();
        while let Some(&Reverse((t, data))) = self.data_gc.peek() {
            if t > now {
                break;
            }
            self.data_gc.pop();
            let Some(states) = self.copies.remove(&data) else {
                continue;
            };
            for (k, &s) in states.iter().enumerate() {
                let Some(h) = self.index_copy(data, k, s, false) else {
                    continue;
                };
                if self.buffers[h.index()].remove(data).is_some() {
                    self.meta[h.index()].on_remove(data);
                }
            }
        }
        self.pulls.expire(now);
        self.broadcasts.expire(now);
        self.responses.expire(now);
        while let Some(&Reverse((t, query))) = self.responded_gc.peek() {
            if t > now {
                break;
            }
            self.responded_gc.pop();
            self.responded.remove(&query);
        }
    }

    /// Inserts a physical copy of `item` at `node`, evicting per the
    /// traditional policies if configured. Returns whether it fits.
    pub(super) fn insert_physical(
        &mut self,
        ctx: &mut SimCtx<'_>,
        node: NodeId,
        item: DataItem,
    ) -> bool {
        let buf = &mut self.buffers[node.index()];
        if buf.contains(item.id) {
            return true;
        }
        if !buf.fits(item.size) {
            let evicted = make_room(buf, &mut self.meta[node.index()], item.size);
            if !evicted.is_empty() {
                ctx.note_replacements(evicted.len() as u64);
                let at = ctx.now();
                for id in evicted {
                    ctx.probe()
                        .emit(|| ProbeEvent::ReplacementEvicted { at, node, data: id });
                    for k in 0..self.centrals.len() {
                        let holds = self
                            .copies
                            .get(&id)
                            .is_some_and(|s| s[k].holder() == Some(node));
                        if holds {
                            self.set_copy(id, k, CopyState::Dropped);
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
    pub(super) fn drop_physical_if_unreferenced(&mut self, node: NodeId, data: DataId) {
        let referenced = self
            .copies
            .get(&data)
            .is_some_and(|states| states.iter().any(|s| s.holder() == Some(node)));
        if !referenced {
            self.buffers[node.index()].remove(data);
            self.meta[node.index()].on_remove(data);
        }
    }

    /// Routes every copy-state transition, keeping the per-node copy
    /// indexes and membership counters in sync.
    pub(super) fn set_copy(&mut self, data: DataId, k: usize, state: CopyState) {
        let Some(states) = self.copies.get_mut(&data) else {
            return;
        };
        let old = std::mem::replace(&mut states[k], state);
        if old != state {
            self.index_copy(data, k, old, false);
            self.index_copy(data, k, state, true);
        }
    }

    /// Lists NCL `k`'s copy of `data` in `state` under its holder
    /// (`add`), or unlists it: the per-holder list and the membership
    /// counter. The holder; `None` for a dropped copy.
    pub(super) fn index_copy(
        &mut self,
        data: DataId,
        k: usize,
        state: CopyState,
        add: bool,
    ) -> Option<NodeId> {
        let (h, list) = match state {
            CopyState::Carried(h) => (h, &mut self.carried_at[h.index()]),
            CopyState::Settled(h) => (h, &mut self.settled_at[h.index()]),
            CopyState::Dropped => return None,
        };
        let count = &mut self.member_count[h.index() * self.centrals.len() + k];
        if add {
            list.push((data, k as u32));
            *count += 1;
        } else {
            let pos = list.iter().position(|&x| x == (data, k as u32));
            list.swap_remove(pos.expect("index entry missing"));
            *count -= 1;
        }
        Some(h)
    }

    /// §V-D: contact-time cache replacement between two caching nodes.
    ///
    /// The exchange is scoped per NCL: each NCL keeps (at most) one copy
    /// of each data item among its connected set of caching nodes, and
    /// the exchange re-places those copies so the node nearer the
    /// central node ends up with the more popular data. Items are only
    /// removed from the network when no participant can hold them
    /// ("in cases of limited cache space, some cached data with lower
    /// popularity may be removed", §V-D-2).
    pub(super) fn exchange_caches(
        &mut self,
        ctx: &mut SimCtx<'_>,
        sx: &mut Scratch,
        a: NodeId,
        b: NodeId,
    ) {
        if self.cfg.replacement != ReplacementKind::UtilityKnapsack {
            return;
        }
        let now = ctx.now();
        for k in 0..self.centrals.len() {
            self.exchange_ncl(ctx, sx, a, b, k, now);
        }
    }

    /// Runs the §V-D exchange for NCL `k`. An empty pool returns before
    /// any oracle read, RNG draw or transmission.
    fn exchange_ncl(
        &mut self,
        ctx: &mut SimCtx<'_>,
        sx: &mut Scratch,
        a: NodeId,
        b: NodeId,
        k: usize,
        now: Time,
    ) {
        let Scratch {
            copies: cand,
            pool,
            items,
            chosen: chosen_first,
            rest,
            rest_items,
            in_first,
            in_second,
            ..
        } = sx;
        // Pool the settled copies of NCL k held by either node, skipping
        // copies whose physical bytes are pinned by another NCL's tag at
        // the same node (they are not free to move). Candidates come
        // from the per-holder indexes, sorted by data id to match the
        // reference implementation's copy-table iteration order.
        cand.clear();
        for &holder in &[a, b][..if a == b { 1 } else { 2 }] {
            let settled = self.settled_at[holder.index()].iter();
            cand.extend(
                settled
                    .filter(|&&(_, kk)| kk as usize == k)
                    .map(|&(data, _)| (data, holder.0)),
            );
        }
        cand.sort_unstable();
        pool.clear();
        for &(data, holder_raw) in cand.iter() {
            let holder = NodeId(holder_raw);
            let Some(&item) = self.registry.get(data) else {
                continue;
            };
            if !item.is_alive(now) {
                continue;
            }
            let states = self.copies.get(&data).expect("settled copy is tracked");
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
        let wa = self.oracle.weight(ctx.rate_table(), now, a, central);
        let wb = self.oracle.weight(ctx.rate_table(), now, b, central);
        let (first, second) = if wa >= wb { (a, b) } else { (b, a) };

        // Extract the pooled physical copies, remembering prior holders.
        for (item, holder) in pool.iter() {
            self.buffers[holder.index()].remove(item.id);
            self.meta[holder.index()].on_remove(item.id);
        }

        items.clear();
        items.extend(pool.iter().map(|(d, _)| CacheItem {
            size: d.size,
            utility: self.registry.popularity(d.id, now),
        }));

        // Algorithm 1 (or the deterministic basic strategy when
        // ablated) for the better-placed node, then the remainder for
        // the other. The solver reuses its DP scratch across calls.
        ctx.profile_enter(Phase::KnapsackSolve);
        let cap_first = self.buffers[first.index()].free();
        chosen_first.clear();
        if self.cfg.probabilistic_selection {
            chosen_first.extend_from_slice(self.solver.probabilistic_select_in(
                items,
                cap_first,
                ctx.rng(),
            ));
        } else {
            chosen_first.extend_from_slice(&self.solver.solve_in(items, cap_first).indices);
        }
        in_first.clear();
        in_first.resize(items.len(), false);
        for &i in chosen_first.iter() {
            in_first[i] = true;
        }
        rest.clear();
        rest.extend((0..items.len()).filter(|&i| !in_first[i]));
        rest_items.clear();
        rest_items.extend(rest.iter().map(|&i| items[i]));
        let cap_second = self.buffers[second.index()].free();
        in_second.clear();
        in_second.resize(items.len(), false);
        {
            let chosen_second: &[usize] = if self.cfg.probabilistic_selection {
                self.solver
                    .probabilistic_select_in(rest_items, cap_second, ctx.rng())
            } else {
                &self.solver.solve_in(rest_items, cap_second).indices
            };
            for &j in chosen_second {
                in_second[rest[j]] = true;
            }
        }
        ctx.profile_exit();

        let mut moves = 0u64;
        for (i, &(item, prior_holder)) in pool.iter().enumerate() {
            let target = if in_first[i] {
                Some(first)
            } else if in_second[i] {
                Some(second)
            } else {
                None
            };
            // Preference: knapsack target, then where it was before.
            let fallback = if target == Some(prior_holder) {
                None
            } else {
                Some(prior_holder)
            };
            let mut placed = false;
            for node in [target, fallback].into_iter().flatten() {
                let moved = node != prior_holder;
                // Moving needs bandwidth unless the bytes are already
                // there via another NCL's copy.
                let needs_transfer = moved && !self.buffers[node.index()].contains(item.id);
                if needs_transfer && !ctx.try_transmit(item.size) {
                    continue; // contact too short to carry the move
                }
                if self.buffers[node.index()].insert(item).is_ok() {
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
                ctx.probe().emit(|| ProbeEvent::ReplacementEvicted {
                    at: now,
                    node: prior_holder,
                    data: item.id,
                });
                moves += 1;
            }
        }
        ctx.note_replacements(moves);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{busy_trace, mixed_workload};
    use super::*;
    use crate::experiment::configure_from_live_state;
    use crate::pending::Carried;
    use dtn_core::time::Duration;
    use dtn_sim::engine::{SimConfig, Simulator, WorkloadEvent};
    use dtn_trace::trace::{Contact, ContactTrace};

    /// [`mixed_workload`] plus late queries for an item nobody ever
    /// generates: their pulls reach the centrals, find nothing, and turn
    /// into broadcasts that live until the queries expire.
    fn workload_with_misses(trace: &ContactTrace) -> Vec<WorkloadEvent> {
        let mut events = mixed_workload(trace, 8, 900);
        for i in 0..12u64 {
            events.push(WorkloadEvent::IssueQuery {
                at: trace.midpoint() + Duration::hours(2) + Duration::minutes(20 * i),
                requester: NodeId((i * 3 % 16) as u32),
                data: DataId(99),
                constraint: Duration::hours(12),
            });
        }
        events
    }

    /// Seeds each way a carrier list can go wrong into one slab of a
    /// running scheme; the scheme's own audit must name every one as an
    /// index-consistency violation, and none may panic.
    fn seed_carrier_list_corruption<T: Carried + Clone>(
        live: &mut Live,
        now: Time,
        slab: fn(&mut Live) -> &mut CarrierSlab<T>,
    ) {
        use dtn_sim::audit::{AuditLaw, AuditReport};
        let broken = |live: &Live| {
            let mut report = AuditReport::default();
            live.audit_into(now, &mut report);
            let found = report.violations();
            assert!(found.iter().all(|v| v.law == AuditLaw::IndexConsistency));
            found.len()
        };
        assert_eq!(broken(live), 0);
        let id = slab(live).ids().next().expect("a message in flight");
        let (msg, listed) = (slab(live).get(id).clone(), slab(live).entry_of(id));
        let carrier = msg.carriers().next().expect("carried by someone");
        let stray = (0..16).map(NodeId).find(|&n| !msg.carries(n));
        let stray = stray.expect("some node does not carry it");

        slab(live).list_mut(stray).push(listed);
        assert!(
            broken(live) > 0,
            "entry under a non-carrier went undetected"
        );
        slab(live).list_mut(stray).pop();

        slab(live).list_mut(carrier).push(listed);
        assert!(broken(live) > 0, "double listing went undetected");
        slab(live).list_mut(carrier).pop();
        assert_eq!(broken(live), 0);

        slab(live).remove(id);
        slab(live).list_mut(carrier).push(listed);
        assert!(broken(live) > 0, "freed slot still listed went undetected");
        slab(live).list_mut(carrier).pop();
        assert_eq!(broken(live), 0);

        slab(live).expire(msg.query().expires_at);
        assert_eq!(broken(live), 0, "the sweep itself leaves no debris");
        let overdue = slab(live).insert(msg);
        assert!(
            broken(live) > 0,
            "entry past an expiry sweep went undetected"
        );
        slab(live).remove(overdue);
        assert_eq!(broken(live), 0);
    }

    #[test]
    fn audit_catches_seeded_corruption() {
        // The audit must not just pass on healthy runs — it must *fail*
        // when the canonical state is perturbed, else it proves nothing.
        use dtn_sim::audit::{AuditLaw, AuditReport};
        let trace = busy_trace(31);
        let sim_cfg = SimConfig {
            seed: 31,
            audit: true,
            ..SimConfig::default()
        };
        let scheme = IntentionalScheme::new(IntentionalConfig {
            ncl_count: 2,
            ..IntentionalConfig::default()
        });
        let mut sim = Simulator::new(&trace, scheme, sim_cfg);
        sim.run_until(trace.midpoint());
        configure_from_live_state(&mut sim, 3600.0, None);
        sim.add_workload(workload_with_misses(&trace));
        // Stop while pulls are still traveling and broadcasts spreading.
        let in_flight = |sim: &Simulator<IntentionalScheme, _>| {
            let live = sim.scheme().live().expect("configure ran");
            live.pulls.len() > 0 && live.broadcasts.len() > 0
        };
        let mut at = trace.midpoint() + Duration::hours(2);
        while !in_flight(&sim) {
            at += Duration::minutes(5);
            assert!(
                at < Time(trace.duration().as_secs()),
                "never both in flight"
            );
            sim.run_until(at);
        }
        let engine_report = sim.audit_report().expect("audit was enabled");
        assert!(engine_report.is_clean(), "{}", engine_report.summary());
        assert!(engine_report.sweeps() > 0);
        let now = sim.now();
        let (live, _) = sim.scheme_mut().live.as_mut().expect("configure ran");

        // Seed a membership-counter drift: copy conservation must trip.
        live.member_count[0] += 1;
        let mut report = AuditReport::default();
        live.audit_into(now, &mut report);
        assert!(
            report
                .violations()
                .iter()
                .any(|v| v.law == AuditLaw::CopyConservation),
            "seeded member_count drift went undetected: {}",
            report.summary()
        );
        live.member_count[0] -= 1;

        seed_carrier_list_corruption(live, now, |l| &mut l.pulls);
        seed_carrier_list_corruption(live, now, |l| &mut l.broadcasts);
    }

    #[test]
    fn a_contact_examines_only_its_endpoints_messages() {
        // Fails by count if a gather ever walks a whole slab again: per
        // contact, each slab looks at the records the two endpoints
        // carried going in — a query's pull record once, however many of
        // its copies they hold — plus the records the contact itself put
        // in flight (an arriving pull's broadcast, a response spawned on
        // the spot — both carried by an endpoint, both stepped in the
        // same contact).
        let mut contacts = busy_trace(71).contacts().to_vec();
        contacts.dedup_by_key(|c| c.start); // one contact a second
        let trace = ContactTrace::new(16, contacts, Duration::days(2));
        let events = workload_with_misses(&trace);
        let event_times: Vec<Time> = events.iter().map(WorkloadEvent::at).collect();
        let scheme = IntentionalScheme::new(IntentionalConfig {
            ncl_count: 3,
            ..IntentionalConfig::default()
        });
        let sim_cfg = SimConfig {
            seed: 71,
            audit: true,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&trace, scheme, sim_cfg);
        sim.run_until(trace.midpoint());
        configure_from_live_state(&mut sim, 3600.0, None);
        sim.add_workload(events);

        fn counts<T: Carried>(slab: &CarrierSlab<T>, c: &Contact) -> [u64; 4] {
            let open = slab.iter().filter(|m| m.query().expires_at > c.start);
            let carried = open.filter(|m| m.carries(c.a) || m.carries(c.b));
            let work = slab.work();
            [
                carried.count() as u64,
                work.examined,
                work.inserted,
                slab.len() as u64,
            ]
        }
        let snapshot = |sim: &Simulator<IntentionalScheme, _>, c: &Contact| {
            let live = sim.scheme().live().expect("configure ran");
            [
                counts(&live.pulls, c),
                counts(&live.broadcasts, c),
                counts(&live.responses, c),
            ]
        };
        let (mut examined_total, mut in_flight_total) = ([0u64; 3], 0u64);
        for contact in trace.contacts_between(trace.midpoint(), Time(u64::MAX)) {
            if event_times.contains(&contact.start) {
                continue; // a query issued in this very second muddies the count
            }
            // Events strictly before the contact, then the contact.
            sim.run_until(contact.start);
            let before = snapshot(&sim, contact);
            sim.run_until(Time(contact.start.0 + 1));
            let after = snapshot(&sim, contact);
            for slab in 0..3 {
                let [carried, examined_before, inserted_before, len] = before[slab];
                let [_, examined, inserted, _] = after[slab];
                assert_eq!(
                    examined - examined_before,
                    carried + (inserted - inserted_before),
                    "slab {slab}, contact {contact:?}"
                );
                examined_total[slab] += examined - examined_before;
                in_flight_total += len;
            }
        }
        assert!(
            examined_total.iter().all(|&n| n > 50),
            "workload too thin: {examined_total:?}"
        );
        assert!(
            examined_total.iter().sum::<u64>() * 2 < in_flight_total,
            "examined {examined_total:?} of {in_flight_total} in flight"
        );
    }
}
