//! Per-node cache state of the intentional scheme: the copy table, the
//! per-holder indexes kept in sync through [`IntentionalScheme::set_copy`],
//! buffer insertion/eviction, expiry garbage collection, and the §V-D
//! contact-time cache exchange.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;

use dtn_core::graph::ContactGraph;
use dtn_core::ids::{DataId, IdMap, IdSet, NodeId, QueryId};
use dtn_core::knapsack::{CacheItem, KnapsackSolver};
use dtn_core::ncl::SweepWork;
use dtn_core::rate::RateTable;
use dtn_core::time::Time;
use dtn_sim::audit::{check_buffers, AuditLaw, AuditReport, AuditViolation};
use dtn_sim::buffer::Buffer;
use dtn_sim::decision::DecisionPoint;
use dtn_sim::engine::SimCtx;
use dtn_sim::message::DataItem;
use dtn_sim::oracle::PathOracle;
use dtn_sim::probe::ProbeEvent;
use dtn_sim::profiler::Phase;

use crate::common::DataRegistry;
use crate::pending::{remove_u32, PendingSlab, RoutedSlab};
use crate::replacement::{make_room, NodeCacheMeta, ReplacementKind};

use super::pending::{remove_copy_entry, BroadcastCopy, PullCopy, GC_PULL};
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
    pub(super) centrals: Vec<NodeId>,
    pub(super) oracle: Option<PathOracle>,
    pub(super) buffers: Vec<Buffer>,
    pub(super) meta: Vec<NodeCacheMeta>,
    pub(super) registry: DataRegistry,
    /// copies[data][k] — the k-th NCL's copy of `data`. Never iterated
    /// in map order; all ordered traversal goes through the per-node
    /// indexes below.
    pub(super) copies: IdMap<DataId, Vec<CopyState>>,
    pub(super) pulls: PendingSlab<PullCopy>,
    pub(super) broadcasts: PendingSlab<BroadcastCopy>,
    /// In-flight responses, listed under every node carrying a copy.
    pub(super) responses: RoutedSlab,
    /// pull_at[n] — pending pulls currently carried by node `n`.
    pub(super) pull_at: Vec<Vec<u32>>,
    /// bcast_at[n] — broadcasts whose holder set contains node `n`.
    pub(super) bcast_at: Vec<Vec<u32>>,
    /// carried_at[n] — `(data, k)` push copies in `Carried(n)` state.
    pub(super) carried_at: Vec<Vec<(DataId, u32)>>,
    /// settled_at[n] — `(data, k)` copies in `Settled(n)` state.
    pub(super) settled_at: Vec<Vec<(DataId, u32)>>,
    /// member_count[n·K + k] — copies (carried or settled) node `n`
    /// holds for NCL `k`, row-major over the `K = centrals.len()` NCLs;
    /// `is_member` in O(1). Flat storage: one allocation instead of one
    /// per node, which matters at city-scale populations.
    pub(super) member_count: Vec<u32>,
    /// Dirty generation per node, bumped on every copy-state change
    /// touching the node; drives the §V-D exchange skip.
    pub(super) cache_gen: Vec<u64>,
    /// Last all-pools-empty exchange per ordered node pair:
    /// `(cache_gen_lo, cache_gen_hi, buffer_gen_lo, buffer_gen_hi)`.
    /// A pair whose generations are unchanged is skipped.
    pub(super) pair_clean: IdMap<(NodeId, NodeId), (u64, u64, u64, u64)>,
    /// Expiry heap over pending pulls and broadcasts: `(query expiry,
    /// kind, id, seq)`. Entries referencing reused slots are detected
    /// via `seq`.
    pub(super) pending_gc: BinaryHeap<Reverse<(Time, u8, u32, u64)>>,
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
    /// Path horizon `T` installed by `configure`; reused by epoch
    /// re-elections so they score candidates exactly like the initial
    /// selection did.
    pub(super) horizon: f64,
    /// Scratch contact graph rebuilt in place on every re-election.
    pub(super) reelect_graph: ContactGraph,
    /// Re-election counters (zero while epochs are off).
    pub(super) reelection: ReelectionStats,
    /// Work of every NCL selection since `configure`, its own included.
    pub(super) ncl_work: SweepWork,
    // Reusable per-contact scratch buffers (all logically empty between
    // contacts; kept to avoid re-allocation in the hot loop).
    pub(super) sx_batch: Vec<(u64, u32)>,
    pub(super) sx_push_batch: Vec<(DataId, u32)>,
    pub(super) sx_arrived: Vec<u32>,
    pub(super) sx_spreads: Vec<(u32, NodeId)>,
    pub(super) sx_decisions: Vec<(dtn_sim::message::Query, NodeId)>,
    pub(super) sx_process: Vec<u32>,
    pub(super) sx_delivered: Vec<(u32, QueryId)>,
    pub(super) sx_pool: Vec<(DataItem, NodeId)>,
    pub(super) sx_items: Vec<CacheItem>,
    pub(super) sx_chosen: Vec<usize>,
    pub(super) sx_rest: Vec<usize>,
    pub(super) sx_rest_items: Vec<CacheItem>,
    pub(super) sx_in_first: Vec<bool>,
    pub(super) sx_in_second: Vec<bool>,
}

impl IntentionalScheme {
    /// Creates an unconfigured scheme.
    pub fn new(cfg: IntentionalConfig) -> Self {
        let solver = KnapsackSolver::new(cfg.knapsack_quantum);
        IntentionalScheme {
            cfg,
            centrals: Vec::new(),
            oracle: None,
            buffers: Vec::new(),
            meta: Vec::new(),
            registry: DataRegistry::default(),
            copies: IdMap::default(),
            pulls: PendingSlab::default(),
            broadcasts: PendingSlab::default(),
            responses: RoutedSlab::default(),
            pull_at: Vec::new(),
            bcast_at: Vec::new(),
            carried_at: Vec::new(),
            settled_at: Vec::new(),
            member_count: Vec::new(),
            cache_gen: Vec::new(),
            pair_clean: IdMap::default(),
            pending_gc: BinaryHeap::new(),
            data_gc: BinaryHeap::new(),
            responded: IdMap::default(),
            responded_gc: BinaryHeap::new(),
            solver,
            ncl_query_load: Vec::new(),
            last_oracle_epoch: 0,
            horizon: 0.0,
            reelect_graph: ContactGraph::default(),
            reelection: ReelectionStats::default(),
            ncl_work: SweepWork::default(),
            sx_batch: Vec::new(),
            sx_push_batch: Vec::new(),
            sx_arrived: Vec::new(),
            sx_spreads: Vec::new(),
            sx_decisions: Vec::new(),
            sx_process: Vec::new(),
            sx_delivered: Vec::new(),
            sx_pool: Vec::new(),
            sx_items: Vec::new(),
            sx_chosen: Vec::new(),
            sx_rest: Vec::new(),
            sx_rest_items: Vec::new(),
            sx_in_first: Vec::new(),
            sx_in_second: Vec::new(),
        }
    }

    /// Queries that reached each central node, by NCL index — a
    /// load-balance view across the NCLs.
    pub fn ncl_query_load(&self) -> &[u64] {
        &self.ncl_query_load
    }

    /// The configuration the scheme was built with.
    pub fn config(&self) -> &IntentionalConfig {
        &self.cfg
    }

    /// A [`DecisionPoint`] borrowing this scheme's own path oracle and
    /// elected central set — the scheme-side decision API for the online
    /// serving mode. Decisions answered through it are computed by
    /// exactly the code path (`DecisionPoint::forward` ==
    /// `better_relay`) and exactly the state the engine uses at the next
    /// contact. `None` until [`configure`](crate::CachingScheme::configure)
    /// has elected central nodes and built the oracle.
    pub fn decision_point<'a>(
        &'a mut self,
        rates: &'a RateTable,
        now: Time,
    ) -> Option<DecisionPoint<'a>> {
        let oracle = self.oracle.as_mut()?;
        Some(DecisionPoint::new(oracle, rates, now, &self.centrals))
    }

    /// Counters accumulated by epoch-based NCL re-election. All zero
    /// unless the engine drives
    /// [`Scheme::on_epoch`](dtn_sim::engine::Scheme::on_epoch) via
    /// `SimConfig::epoch_interval`.
    pub fn reelection_stats(&self) -> ReelectionStats {
        self.reelection
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
        self.audit_into(Time::ZERO, &mut report);
        match report.violations().first() {
            Some(v) => Err(v.to_string()),
            None => Ok(()),
        }
    }

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
                let list = match s {
                    CopyState::Carried(_) => {
                        carried_seen += 1;
                        &self.carried_at[holder.index()]
                    }
                    CopyState::Settled(_) => {
                        settled_seen += 1;
                        &self.settled_at[holder.index()]
                    }
                    CopyState::Dropped => unreachable!("holder implies not dropped"),
                };
                if !list.contains(&(*data, k as u32)) {
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
        for (node, list) in self.pull_at.iter().enumerate() {
            for &id in list {
                let Some(pull) = self.pulls.get(id) else {
                    report.violate(AuditViolation {
                        law: AuditLaw::IndexConsistency,
                        at,
                        node: Some(NodeId(node as u32)),
                        item: None,
                        detail: format!("pull_at references freed slot {id}"),
                    });
                    continue;
                };
                if pull.carrier.index() != node {
                    report.violate(AuditViolation {
                        law: AuditLaw::IndexConsistency,
                        at,
                        node: Some(NodeId(node as u32)),
                        item: None,
                        detail: format!("pull {id} indexed here, carried elsewhere"),
                    });
                }
            }
        }
        if self.pull_at.iter().map(Vec::len).sum::<usize>() != self.pulls.len() {
            report.violate(AuditViolation {
                law: AuditLaw::IndexConsistency,
                at,
                node: None,
                item: None,
                detail: "pull index entry count != pull slab len".into(),
            });
        }
        for (node, list) in self.bcast_at.iter().enumerate() {
            for &id in list {
                let Some(bc) = self.broadcasts.get(id) else {
                    report.violate(AuditViolation {
                        law: AuditLaw::IndexConsistency,
                        at,
                        node: Some(NodeId(node as u32)),
                        item: None,
                        detail: format!("bcast_at references freed slot {id}"),
                    });
                    continue;
                };
                if !bc.holders.contains(&NodeId(node as u32)) {
                    report.violate(AuditViolation {
                        law: AuditLaw::IndexConsistency,
                        at,
                        node: Some(NodeId(node as u32)),
                        item: None,
                        detail: format!("broadcast {id} indexed at a non-holder"),
                    });
                }
            }
        }
        let holder_total: usize = self.broadcasts.iter().map(|(_, bc)| bc.holders.len()).sum();
        if self.bcast_at.iter().map(Vec::len).sum::<usize>() != holder_total {
            report.violate(AuditViolation {
                law: AuditLaw::IndexConsistency,
                at,
                node: None,
                item: None,
                detail: "broadcast index entry count != holder count".into(),
            });
        }
        self.responses.audit("response", at, report);
    }

    pub(super) fn configured(&self) -> bool {
        self.oracle.is_some()
    }

    /// Whether `node` currently holds a copy (carried or settled) on
    /// behalf of NCL `ncl`.
    pub(super) fn is_member(&self, node: NodeId, ncl: usize) -> bool {
        self.member_count[node.index() * self.centrals.len() + ncl] > 0
    }

    /// Removes a pending pull and its index entry.
    pub(super) fn remove_pull(&mut self, id: u32) -> Option<PullCopy> {
        let pull = self.pulls.remove(id)?;
        remove_u32(&mut self.pull_at[pull.carrier.index()], id);
        Some(pull)
    }

    /// Removes a pending broadcast and its index entries.
    pub(super) fn remove_broadcast(&mut self, id: u32) -> Option<BroadcastCopy> {
        let bc = self.broadcasts.remove(id)?;
        for h in &bc.holders {
            remove_u32(&mut self.bcast_at[h.index()], id);
        }
        Some(bc)
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
            for (k, s) in states.iter().enumerate() {
                let Some(h) = s.holder() else { continue };
                match s {
                    CopyState::Carried(_) => {
                        remove_copy_entry(&mut self.carried_at[h.index()], data, k as u32);
                    }
                    CopyState::Settled(_) => {
                        remove_copy_entry(&mut self.settled_at[h.index()], data, k as u32);
                    }
                    CopyState::Dropped => unreachable!("holder implies not dropped"),
                }
                let slot = h.index() * self.centrals.len() + k;
                self.member_count[slot] -= 1;
                self.cache_gen[h.index()] += 1;
                if self.buffers[h.index()].remove(data).is_some() {
                    self.meta[h.index()].on_remove(data);
                }
            }
        }
        while let Some(&Reverse((t, tag, id, seq))) = self.pending_gc.peek() {
            if t > now {
                break;
            }
            self.pending_gc.pop();
            match tag {
                GC_PULL => {
                    if self.pulls.seq(id) == Some(seq) {
                        self.remove_pull(id);
                    }
                }
                _ => {
                    if self.broadcasts.seq(id) == Some(seq) {
                        self.remove_broadcast(id);
                    }
                }
            }
        }
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
            let evicted = make_room(
                self.cfg.replacement,
                buf,
                &mut self.meta[node.index()],
                item.size,
            );
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
    /// indexes, membership counters and dirty generations in sync.
    pub(super) fn set_copy(&mut self, data: DataId, k: usize, state: CopyState) {
        let Some(states) = self.copies.get_mut(&data) else {
            return;
        };
        let old = states[k];
        if old == state {
            return;
        }
        states[k] = state;
        let k32 = k as u32;
        match old {
            CopyState::Carried(h) => {
                remove_copy_entry(&mut self.carried_at[h.index()], data, k32);
                self.member_count[h.index() * self.centrals.len() + k] -= 1;
                self.cache_gen[h.index()] += 1;
            }
            CopyState::Settled(h) => {
                remove_copy_entry(&mut self.settled_at[h.index()], data, k32);
                self.member_count[h.index() * self.centrals.len() + k] -= 1;
                self.cache_gen[h.index()] += 1;
            }
            CopyState::Dropped => {}
        }
        match state {
            CopyState::Carried(h) => {
                self.carried_at[h.index()].push((data, k32));
                self.member_count[h.index() * self.centrals.len() + k] += 1;
                self.cache_gen[h.index()] += 1;
            }
            CopyState::Settled(h) => {
                self.settled_at[h.index()].push((data, k32));
                self.member_count[h.index() * self.centrals.len() + k] += 1;
                self.cache_gen[h.index()] += 1;
            }
            CopyState::Dropped => {}
        }
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
    ///
    /// When a previous meeting of this pair found every NCL pool empty
    /// and neither node's copy state or buffer changed since (dirty
    /// generations match), the whole exchange is provably a no-op — the
    /// reference implementation returns before any oracle or RNG use on
    /// empty pools — and is skipped.
    pub(super) fn exchange_caches(&mut self, ctx: &mut SimCtx<'_>, a: NodeId, b: NodeId) {
        if self.cfg.replacement != ReplacementKind::UtilityKnapsack {
            return;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        let gens = (
            self.cache_gen[key.0.index()],
            self.cache_gen[key.1.index()],
            self.buffers[key.0.index()].generation(),
            self.buffers[key.1.index()].generation(),
        );
        if self.pair_clean.get(&key) == Some(&gens) {
            return;
        }
        let now = ctx.now();
        let mut all_empty = true;
        for k in 0..self.centrals.len() {
            if !self.exchange_ncl(ctx, a, b, k, now) {
                all_empty = false;
            }
        }
        if all_empty {
            self.pair_clean.insert(key, gens);
        } else {
            self.pair_clean.remove(&key);
        }
    }

    /// Runs the §V-D exchange for NCL `k`. Returns whether the pooled
    /// item set was empty (used for the pair-skip memo).
    fn exchange_ncl(
        &mut self,
        ctx: &mut SimCtx<'_>,
        a: NodeId,
        b: NodeId,
        k: usize,
        now: Time,
    ) -> bool {
        // Pool the settled copies of NCL k held by either node, skipping
        // copies whose physical bytes are pinned by another NCL's tag at
        // the same node (they are not free to move). Candidates come
        // from the per-holder indexes, sorted by data id to match the
        // reference implementation's copy-table iteration order.
        let mut cand = mem::take(&mut self.sx_push_batch);
        cand.clear();
        for &(data, kk) in &self.settled_at[a.index()] {
            if kk as usize == k {
                cand.push((data, a.0));
            }
        }
        if b != a {
            for &(data, kk) in &self.settled_at[b.index()] {
                if kk as usize == k {
                    cand.push((data, b.0));
                }
            }
        }
        cand.sort_unstable();
        let mut pool = mem::take(&mut self.sx_pool);
        pool.clear();
        for &(data, holder_raw) in &cand {
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
        cand.clear();
        self.sx_push_batch = cand;
        if pool.is_empty() {
            self.sx_pool = pool;
            return true;
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

        let mut items = mem::take(&mut self.sx_items);
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
        let mut chosen_first = mem::take(&mut self.sx_chosen);
        chosen_first.clear();
        if self.cfg.probabilistic_selection {
            chosen_first.extend_from_slice(self.solver.probabilistic_select_in(
                &items,
                cap_first,
                ctx.rng(),
            ));
        } else {
            chosen_first.extend_from_slice(&self.solver.solve_in(&items, cap_first).indices);
        }
        let mut in_first = mem::take(&mut self.sx_in_first);
        in_first.clear();
        in_first.resize(items.len(), false);
        for &i in &chosen_first {
            in_first[i] = true;
        }
        let mut rest = mem::take(&mut self.sx_rest);
        rest.clear();
        rest.extend((0..items.len()).filter(|&i| !in_first[i]));
        let mut rest_items = mem::take(&mut self.sx_rest_items);
        rest_items.clear();
        rest_items.extend(rest.iter().map(|&i| items[i]));
        let cap_second = self.buffers[second.index()].free();
        let mut in_second = mem::take(&mut self.sx_in_second);
        in_second.clear();
        in_second.resize(items.len(), false);
        {
            let chosen_second: &[usize] = if self.cfg.probabilistic_selection {
                self.solver
                    .probabilistic_select_in(&rest_items, cap_second, ctx.rng())
            } else {
                &self.solver.solve_in(&rest_items, cap_second).indices
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

        pool.clear();
        self.sx_pool = pool;
        items.clear();
        self.sx_items = items;
        chosen_first.clear();
        self.sx_chosen = chosen_first;
        in_first.clear();
        self.sx_in_first = in_first;
        rest.clear();
        self.sx_rest = rest;
        rest_items.clear();
        self.sx_rest_items = rest_items;
        in_second.clear();
        self.sx_in_second = in_second;
        false
    }
}
