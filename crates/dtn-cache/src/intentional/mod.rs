//! The paper's contribution: intentional caching at Network Central
//! Locations (§V).
//!
//! Life of a data item under this scheme:
//!
//! 1. **Push** (§V-A): the source holds the item and owes one copy to
//!    each of the `K` central nodes. On every contact, a copy advances
//!    to relays with a strictly higher opportunistic-path weight to its
//!    target central node; the previous relay deletes its copy. A copy
//!    *settles* (becomes a caching location of that NCL) when it reaches
//!    the central node, or earlier when the next selected relay has no
//!    buffer space.
//! 2. **Pull** (§V-B): a requester multicasts the query to all central
//!    nodes (greedy forwarding again). A central node that caches the
//!    item responds immediately; otherwise it broadcasts the query among
//!    the NCL's caching nodes (which form a connected subgraph of the
//!    contact graph, so epidemic spreading among members reaches them).
//! 3. **Probabilistic response** (§V-C): a non-central caching node that
//!    receives the query replies with probability given either by the
//!    sigmoid of the remaining query time (Eq. 4) or, in path-aware
//!    mode, by the path weight `p_CR(T_q − t₀)` to the requester.
//! 4. **Cache replacement** (§V-D): when two caching nodes meet (and
//!    the native [`ReplacementKind::UtilityKnapsack`] policy is active),
//!    their cached items are pooled and reassigned by the probabilistic
//!    knapsack (Algorithm 1) so the node closer to the NCL keeps the
//!    more popular data. With a traditional policy (FIFO/LRU/GDS — the
//!    Fig. 12 comparison) the exchange is disabled and evict-on-insert
//!    is used instead.
//!
//! # Module layout
//!
//! Each §V sub-protocol lives in its own module and narrates its
//! milestones through the engine's [`ProbeEvent`] vocabulary, so the
//! stages can be read — and tested — independently:
//!
//! - [`pending`](self) — pull and broadcast records (the arena they
//!   and the responses ride is `crate::pending`, shared with the
//!   baselines);
//! - `state` — per-node cache state: the copy table, the per-holder
//!   indexes behind `set_copy`, expiry GC, and the §V-D exchange;
//! - `push` — the §V-A push stage and the epoch-time cache migration;
//! - `pull` — the §V-B query pull and the NCL-member broadcast;
//! - `response` — the §V-C response decision and return forwarding;
//! - this file — configuration, the [`Scheme`] / [`CachingScheme`]
//!   glue, and epoch-based NCL re-election.
//!
//! # Epochs and NCL re-election
//!
//! When the engine drives [`Scheme::on_epoch`] (off by default; see
//! `SimConfig::epoch_interval`), the scheme re-runs NCL selection on a
//! contact graph rebuilt from the live [`RateTable`](dtn_core::rate::RateTable)
//! and, for every NCL whose central node moved, flips that NCL's settled
//! copies back into the §V-A push pipeline so later contacts migrate
//! them toward the new central node. With `epoch_interval = None` the
//! hook never fires and the scheme is bit-identical to the frozen-NCL
//! behaviour (and to [`reference`](crate::reference)).
//!
//! # Hot-loop layout
//!
//! A contact costs what its two endpoints carry (DESIGN.md §7; the
//! retain-based [`reference`](crate::reference) is the other side of the
//! differential):
//!
//! - pulls, broadcasts and responses ride `crate::pending::CarrierSlab`,
//!   whose per-carrier lists are sorted by sequence number: a contact
//!   merges its two endpoints' lists into the reference's global order.
//!   A query's §V-B multicast is one pull record holding its `K` copies'
//!   carriers, stepped in NCL order — the order `K` consecutive inserts
//!   would give them;
//! - expired messages, data items and response memos leave from
//!   time-ordered heaps, not full sweeps;
//! - push and settled copies are indexed per holder, and NCL membership
//!   is a counter (`member_count`);
//! - the §V-D exchange pools its two endpoints' settled copies from
//!   those indexes, and an empty pool returns before any oracle read.
//!
//! Every shortcut keeps the reference's RNG draw, `try_transmit` charge
//! and event order bit for bit; `tests/scheme_equivalence.rs` holds it.

mod pending;
mod pull;
mod push;
mod response;
mod state;

pub use state::{IntentionalScheme, ReelectionStats};

use std::cmp::Reverse;

use dtn_core::graph::CsrGraph;
use dtn_core::ids::{IdMap, NodeId};
use dtn_core::knapsack::KnapsackSolver;
use dtn_core::ncl::{CentralityScore, SweepWork};
use dtn_core::time::Time;
use dtn_sim::buffer::Buffer;
use dtn_sim::engine::{CacheStats, Epoch, Scheme, SimCtx};
use dtn_sim::message::{DataItem, Query};
use dtn_sim::oracle::{OracleStats, PathOracle};
use dtn_sim::probe::ProbeEvent;
use dtn_sim::profiler::Phase;
use dtn_trace::trace::Contact;

use crate::common::DataRegistry;
use crate::pending::CarrierSlab;
use crate::replacement::{NodeCacheMeta, ReplacementKind};
use crate::routing::ForwardingStrategy;
use crate::{CachingScheme, NetworkSetup, PendingWork, PATH_REFRESH};

use self::pending::PullRecord;
use self::state::{CopyState, Live, Scratch};

/// How a caching node decides whether to return data (§V-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResponseStrategy {
    /// Sigmoid of the remaining query time (Eq. 4) with the given
    /// `(p_min, p_max)`; used when nodes only know paths to the NCLs.
    Sigmoid {
        /// Response probability when no time remains.
        p_min: f64,
        /// Response probability when the full constraint remains.
        p_max: f64,
    },
    /// Path-aware: reply with probability `p_CR(T_q − t₀)` — the weight
    /// of the shortest opportunistic path to the requester evaluated at
    /// the remaining time.
    PathAware,
}

impl Default for ResponseStrategy {
    /// The §V-C example parameters: `p_min = 0.45`, `p_max = 0.8`.
    fn default() -> Self {
        ResponseStrategy::Sigmoid {
            p_min: 0.45,
            p_max: 0.8,
        }
    }
}

/// Configuration of the intentional caching scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct IntentionalConfig {
    /// Number of NCLs `K`.
    pub ncl_count: usize,
    /// Response strategy (§V-C).
    pub response: ResponseStrategy,
    /// Replacement policy (§V-D; Fig. 12 swaps this).
    pub replacement: ReplacementKind,
    /// Whether knapsack selection is probabilistic (Algorithm 1,
    /// §V-D-3) or deterministic (the basic strategy of §V-D-2). The
    /// paper argues the probabilistic variant protects cumulative data
    /// accessibility; setting this to `false` ablates that choice.
    pub probabilistic_selection: bool,
    /// How cached data copies travel back to requesters (§V-B: "any
    /// existing data forwarding protocol"). Default: greedy delegation.
    pub response_routing: ForwardingStrategy,
    /// How central nodes are picked from warm-up information. Default:
    /// the paper's probabilistic path metric (Eq. 3).
    pub ncl_selection: dtn_core::ncl::SelectionStrategy,
    /// Knapsack size quantum in bytes (see
    /// [`dtn_core::knapsack::KnapsackSolver`]).
    pub knapsack_quantum: u64,
    /// Scale mode: `(max_hops, _)` switches the path oracle into
    /// hop-bounded sparse searches, one reach per source per epoch (see
    /// [`PathOracle::with_bounded_reach`]). The second value is ignored,
    /// and kept only for the callers that still set it. `None` (the
    /// default) keeps the exact dense oracle — required for bit-for-bit
    /// equivalence with the reference scheme, so only city-scale
    /// harnesses set this.
    pub bounded_reach: Option<(usize, usize)>,
}

impl Default for IntentionalConfig {
    fn default() -> Self {
        IntentionalConfig {
            ncl_count: 8,
            response: ResponseStrategy::default(),
            replacement: ReplacementKind::UtilityKnapsack,
            probabilistic_selection: true,
            response_routing: ForwardingStrategy::Greedy,
            ncl_selection: dtn_core::ncl::SelectionStrategy::PathMetric,
            knapsack_quantum: 1 << 20,
            bounded_reach: None,
        }
    }
}

/// The configured NCL selection over `graph`, with the work it took.
fn select_ncls(
    cfg: &IntentionalConfig,
    graph: &CsrGraph,
    horizon: f64,
) -> (Vec<CentralityScore>, SweepWork) {
    dtn_core::ncl::select_by_strategy_counted(graph, cfg.ncl_count, horizon, cfg.ncl_selection)
}

impl Live {
    /// Elects the NCLs from the warm-up rates and builds empty caches.
    fn new(cfg: &IntentionalConfig, setup: &NetworkSetup<'_>) -> Live {
        let graph = CsrGraph::from_rate_table(setup.rate_table, setup.now);
        let (scores, ncl_work) = select_ncls(cfg, &graph, setup.horizon);
        let centrals: Vec<NodeId> = scores.iter().map(|s| s.node).collect();
        let n = setup.capacities.len();
        let mut oracle =
            PathOracle::new(n, setup.horizon, setup.path_refresh.unwrap_or(PATH_REFRESH));
        // Push, pull and cache exchange read weights *to the centrals*:
        // the oracle's searches stop once those have settled.
        oracle.set_targets(&centrals);
        if let Some((hops, _)) = cfg.bounded_reach {
            oracle = oracle.with_bounded_reach(hops);
        }
        Live {
            cfg: cfg.clone(),
            oracle,
            buffers: setup.capacities.iter().map(|&c| Buffer::new(c)).collect(),
            meta: vec![NodeCacheMeta::new(cfg.replacement); n],
            registry: DataRegistry::default(),
            copies: IdMap::default(),
            pulls: CarrierSlab::new(n),
            broadcasts: CarrierSlab::new(n),
            responses: CarrierSlab::new(n),
            carried_at: vec![Vec::new(); n],
            settled_at: vec![Vec::new(); n],
            member_count: vec![0; n * centrals.len()],
            data_gc: Default::default(),
            responded: IdMap::default(),
            responded_gc: Default::default(),
            solver: KnapsackSolver::new(cfg.knapsack_quantum),
            ncl_query_load: vec![0; centrals.len()],
            last_oracle_epoch: 0,
            horizon: setup.horizon,
            reelection: ReelectionStats::default(),
            ncl_work,
            centrals,
        }
    }

    /// Epoch-based NCL re-election (driven by [`Scheme::on_epoch`]).
    ///
    /// Rebuilds the contact graph from the live rate table's
    /// regime-tracking current rates (EWMA inter-contact gaps, decayed
    /// while a pair stays silent — cumulative time averages would keep
    /// ranking yesterday's hubs first long after they go quiet),
    /// re-runs the configured NCL selection strategy, and keeps each
    /// still-central node at its NCL slot (so unaffected NCLs see no
    /// churn). For every
    /// slot whose central node moved, the demoted NCL's settled copies
    /// are flipped back into the §V-A push pipeline toward the new
    /// central node; the path oracle is invalidated so future forwarding
    /// decisions use the updated centrality.
    ///
    /// Runs between contacts and therefore transmits nothing and draws
    /// no randomness: with `epoch_interval = None` (the default) the
    /// scheme's behaviour is untouched.
    fn reelect(&mut self, ctx: &mut SimCtx<'_>) {
        let now = ctx.now();
        let graph = CsrGraph::from_current_rates(ctx.rate_table(), now);
        let (scores, work) = select_ncls(&self.cfg, &graph, self.horizon);
        self.ncl_work += work;
        let new_centrals = dtn_core::ncl::reassign_central_nodes(&self.centrals, &scores);
        self.reelection.elections += 1;
        let changed: Vec<(usize, NodeId, NodeId)> = self
            .centrals
            .iter()
            .zip(&new_centrals)
            .enumerate()
            .filter(|(_, (old, new))| old != new)
            .map(|(k, (&old, &new))| (k, old, new))
            .collect();
        if changed.is_empty() {
            return;
        }
        self.reelection.central_changes += changed.len() as u64;
        self.centrals = new_centrals;
        self.oracle.invalidate();
        self.oracle.set_targets(&self.centrals);
        ctx.probe()
            .emit(|| ProbeEvent::OracleInvalidated { at: now });
        for &(k, old, new) in &changed {
            ctx.probe().emit(|| ProbeEvent::CentralReelected {
                at: now,
                ncl: k,
                old,
                new,
            });
            let (copies, bytes) = self.migrate_ncl(now, k);
            self.reelection.migrated_copies += copies;
            self.reelection.migrated_bytes += bytes;
        }
    }
}

impl Scheme for IntentionalScheme {
    fn on_data_generated(&mut self, ctx: &mut SimCtx<'_>, item: DataItem) {
        let Some((live, _)) = &mut self.live else {
            return;
        };
        live.registry.register(item);
        live.data_gc.push(Reverse((item.expires_at, item.id)));
        // The source holds one physical copy and owes one to each NCL.
        let k_count = live.centrals.len();
        if live.insert_physical(ctx, item.source, item) {
            let carried = CopyState::Carried(item.source);
            live.copies.insert(item.id, vec![carried; k_count]);
            for k in 0..k_count {
                live.index_copy(item.id, k, carried, true);
            }
        } else {
            // The item never fits anywhere; it is lost.
            live.copies
                .insert(item.id, vec![CopyState::Dropped; k_count]);
        }
    }

    fn on_query_issued(&mut self, ctx: &mut SimCtx<'_>, query: Query) {
        let Some((live, _)) = &mut self.live else {
            return;
        };
        live.registry.record_request(query.data, ctx.now());
        // Local hit: the requester happens to cache the data already.
        if live.buffers[query.requester.index()].contains(query.data) {
            ctx.mark_delivered(query.id);
            return;
        }
        // One pull record for the multicast, no copy to a requester's own NCL.
        let mut copies: Box<[_]> = vec![Some(query.requester); live.centrals.len()].into();
        for ncl in 0..copies.len() {
            if live.centrals[ncl] == query.requester {
                copies[ncl] = None;
                live.handle_query_at_central(ctx, query, ncl);
            }
        }
        if copies.iter().any(Option::is_some) {
            live.pulls.insert(PullRecord { query, copies });
        }
    }

    fn on_contact(&mut self, ctx: &mut SimCtx<'_>, contact: Contact) {
        let Some((live, sx)) = &mut self.live else {
            return;
        };
        let (a, b) = (contact.a, contact.b);
        live.prune(ctx);
        live.advance_pushes(ctx, sx, a, b);
        live.advance_pulls(ctx, sx, a, b);
        live.advance_broadcasts(ctx, sx, a, b);
        live.advance_responses(ctx, sx, a, b);
        live.exchange_caches(ctx, sx, a, b);
        // Relay oracle rebuilds to an installed probe. The oracle cannot
        // emit directly (it is queried under a rate-table borrow), so the
        // scheme watches its epoch counter between contacts instead.
        let epoch = live.oracle.snapshot_epoch();
        if ctx.probe_enabled() && epoch > live.last_oracle_epoch {
            live.last_oracle_epoch = epoch;
            let stats = live.oracle.stats();
            let at = ctx.now();
            ctx.probe().emit(|| ProbeEvent::OracleRebuilt {
                at,
                epoch,
                table_recomputes: stats.table_recomputes,
                table_hits: stats.table_hits,
            });
        }
    }

    fn on_epoch(&mut self, ctx: &mut SimCtx<'_>, _epoch: Epoch) {
        if let Some((live, _)) = &mut self.live {
            // The whole re-election pass — contact-graph refresh, central
            // re-selection, oracle invalidation, copy migration — is the
            // maintenance-driven oracle-rebuild phase of the profile.
            ctx.profile_enter(Phase::OracleRebuild);
            live.reelect(ctx);
            ctx.profile_exit();
        }
    }

    fn cache_stats(&self, now: Time) -> CacheStats {
        crate::common::cache_stats(self.live().map_or(&[], |l| &l.buffers), now)
    }

    fn audit(&self, now: Time, report: &mut dtn_sim::audit::AuditReport) {
        if let Some(live) = self.live() {
            live.audit_into(now, report);
        }
    }
}

impl CachingScheme for IntentionalScheme {
    fn configure(&mut self, setup: &NetworkSetup<'_>) {
        self.live = Some((Live::new(&self.cfg, setup), Scratch::default()));
    }

    fn central_nodes(&self) -> &[NodeId] {
        self.live().map_or(&[], |l| &l.centrals)
    }

    fn ncl_query_load(&self) -> &[u64] {
        self.live().map_or(&[], |l| &l.ncl_query_load)
    }

    fn oracle_stats(&self) -> Option<OracleStats> {
        self.live().map(|l| l.oracle.stats())
    }

    fn ncl_work(&self) -> Option<SweepWork> {
        Some(self.live().map(|l| l.ncl_work).unwrap_or_default())
    }

    fn pending_work(&self) -> PendingWork {
        let mut work = PendingWork::default();
        if let Some(l) = self.live() {
            work += l.pulls.work();
            work += l.broadcasts.work();
            work += l.responses.work();
        }
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::configure_from_live_state;
    use crate::reference::ReferenceIntentionalScheme;
    use dtn_core::ids::DataId;
    use dtn_core::time::Duration;
    use dtn_sim::engine::{SimConfig, Simulator, TraceSource, WorkloadEvent};
    use dtn_trace::synthetic::SyntheticTraceBuilder;
    use dtn_trace::trace::ContactTrace;

    /// Warm-up → configure → `events` over the second half; the
    /// finished simulator.
    fn run_sim<S: CachingScheme>(
        trace: &ContactTrace,
        scheme: S,
        events: Vec<WorkloadEvent>,
        sim_cfg: SimConfig,
    ) -> Simulator<S, TraceSource<'_>> {
        let mut sim = Simulator::new(trace, scheme, sim_cfg);
        sim.run_until(trace.midpoint());
        configure_from_live_state(&mut sim, 3600.0, None);
        sim.add_workload(events);
        sim.run_to_end();
        sim
    }

    /// Epochs are off, so the central set read after the run is the
    /// warm-up election.
    fn run_intentional(
        trace: &ContactTrace,
        cfg: IntentionalConfig,
        events: Vec<WorkloadEvent>,
        seed: u64,
    ) -> (dtn_sim::metrics::Metrics, Vec<NodeId>) {
        let sim_cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
        let sim = run_sim(trace, IntentionalScheme::new(cfg), events, sim_cfg);
        (sim.metrics().clone(), sim.scheme().central_nodes().to_vec())
    }

    pub(super) fn busy_trace(seed: u64) -> ContactTrace {
        SyntheticTraceBuilder::new(16)
            .duration(Duration::days(2))
            .target_contacts(6_000)
            .seed(seed)
            .build()
    }

    fn gen_event(id: u64, source: u32, size: u64, at: Time, life: Duration) -> WorkloadEvent {
        WorkloadEvent::GenerateData {
            item: DataItem::new(DataId(id), NodeId(source), size, at, life),
        }
    }

    pub(super) fn mixed_workload(
        trace: &ContactTrace,
        items: u64,
        size: u64,
    ) -> Vec<WorkloadEvent> {
        let mid = trace.midpoint();
        let life = Duration::days(1);
        let mut events = Vec::new();
        for i in 0..items {
            events.push(gen_event(
                i,
                (i % 16) as u32,
                size,
                mid + Duration::minutes(i),
                life,
            ));
        }
        for i in 0..items {
            events.push(WorkloadEvent::IssueQuery {
                at: mid + Duration::hours(1) + Duration::minutes(i),
                requester: NodeId(((i + 5) % 16) as u32),
                data: DataId(i),
                constraint: Duration::hours(12),
            });
        }
        events
    }

    #[test]
    fn configure_selects_k_centrals() {
        let trace = busy_trace(1);
        let (_, centrals) = run_intentional(
            &trace,
            IntentionalConfig {
                ncl_count: 3,
                ..IntentionalConfig::default()
            },
            Vec::new(),
            1,
        );
        assert_eq!(centrals.len(), 3);
        let distinct: dtn_core::ids::IdSet<_> = centrals.iter().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn queries_get_satisfied_end_to_end() {
        let trace = busy_trace(2);
        let mid = trace.midpoint();
        let life = Duration::days(1);
        let mut events = vec![gen_event(0, 3, 1000, mid + Duration::minutes(1), life)];
        for n in 0..16u32 {
            if n != 3 {
                events.push(WorkloadEvent::IssueQuery {
                    at: mid + Duration::hours(2),
                    requester: NodeId(n),
                    data: DataId(0),
                    constraint: Duration::hours(12),
                });
            }
        }
        let (metrics, _) = run_intentional(
            &trace,
            IntentionalConfig {
                ncl_count: 3,
                ..IntentionalConfig::default()
            },
            events,
            2,
        );
        assert_eq!(metrics.queries_issued, 15);
        assert!(
            metrics.queries_satisfied >= 8,
            "only {}/15 satisfied",
            metrics.queries_satisfied
        );
        assert!(metrics.avg_delay() > Duration::ZERO);
    }

    #[test]
    fn data_gets_pushed_away_from_source() {
        let trace = busy_trace(3);
        let mid = trace.midpoint();
        let events = vec![gen_event(
            0,
            5,
            1000,
            mid + Duration::minutes(1),
            Duration::days(1),
        )];
        let (metrics, _) = run_intentional(
            &trace,
            IntentionalConfig {
                ncl_count: 4,
                ..IntentionalConfig::default()
            },
            events,
            3,
        );
        // Pushing to 4 NCLs must replicate the item beyond the source.
        let last = metrics.samples.iter().rev().find(|s| s.distinct > 0);
        let copies = last.map_or(0, |s| s.copies);
        assert!(copies >= 2, "expected ≥2 cached copies, got {copies}");
        assert!(metrics.bytes_transmitted > 0);
    }

    #[test]
    fn unconfigured_scheme_ignores_events_gracefully() {
        let trace = busy_trace(4);
        let mut sim = Simulator::new(
            &trace,
            IntentionalScheme::new(IntentionalConfig::default()),
            SimConfig::default(),
        );
        sim.add_workload(vec![gen_event(0, 1, 10, Time(10), Duration::days(1))]);
        sim.run_to_end();
        assert_eq!(sim.metrics().bytes_transmitted, 0);
    }

    #[test]
    fn zero_size_queries_do_not_block_on_capacity() {
        // Even with a tiny data item the scheme works with default cfg.
        let trace = busy_trace(5);
        let mid = trace.midpoint();
        let events = vec![
            gen_event(0, 1, 1, mid + Duration::minutes(1), Duration::days(1)),
            WorkloadEvent::IssueQuery {
                at: mid + Duration::hours(1),
                requester: NodeId(9),
                data: DataId(0),
                constraint: Duration::hours(20),
            },
        ];
        let (metrics, _) = run_intentional(&trace, IntentionalConfig::default(), events, 5);
        assert_eq!(metrics.queries_issued, 1);
    }

    #[test]
    fn requester_holding_data_is_satisfied_instantly() {
        let trace = busy_trace(6);
        let mid = trace.midpoint();
        // Source queries its own data: local hit with zero delay.
        let events = vec![
            gen_event(0, 2, 1000, mid + Duration::minutes(1), Duration::days(1)),
            WorkloadEvent::IssueQuery {
                at: mid + Duration::minutes(2),
                requester: NodeId(2),
                data: DataId(0),
                constraint: Duration::hours(10),
            },
        ];
        let (metrics, _) = run_intentional(&trace, IntentionalConfig::default(), events, 6);
        // Either the copy is still at the source (instant hit) or it was
        // pushed away — in a 1-minute window it must still be there.
        assert_eq!(metrics.queries_satisfied, 1);
        assert_eq!(metrics.total_delay_secs, 0);
    }

    #[test]
    fn tight_buffers_still_function_with_knapsack_replacement() {
        let trace = busy_trace(7);
        let mid = trace.midpoint();
        let life = Duration::days(1);
        let mut events = Vec::new();
        // Many items of 1/3 buffer size → replacement pressure.
        for i in 0..12u64 {
            events.push(gen_event(
                i,
                (i % 16) as u32,
                400,
                mid + Duration::minutes(i),
                life,
            ));
        }
        for i in 0..12u64 {
            events.push(WorkloadEvent::IssueQuery {
                at: mid + Duration::hours(1),
                requester: NodeId(((i + 5) % 16) as u32),
                data: DataId(i),
                constraint: Duration::hours(12),
            });
        }
        let sim_cfg = SimConfig {
            buffer_range: (1000, 1200),
            seed: 7,
            ..SimConfig::default()
        };
        let sim = run_sim(
            &trace,
            IntentionalScheme::new(IntentionalConfig {
                ncl_count: 2,
                ..IntentionalConfig::default()
            }),
            events,
            sim_cfg,
        );
        let m = sim.metrics();
        assert!(m.queries_satisfied > 0, "nothing satisfied under pressure");
        // Buffers must never be over-committed.
        for buf in &sim.scheme().live().expect("configure ran").buffers {
            assert!(buf.used() <= buf.capacity());
        }
        sim.scheme().validate().expect("indexes stay consistent");
    }

    #[test]
    fn traditional_replacement_evicts_and_counts() {
        let trace = busy_trace(8);
        let mid = trace.midpoint();
        let life = Duration::days(1);
        let mut events = Vec::new();
        for i in 0..10u64 {
            events.push(gen_event(
                i,
                (i % 16) as u32,
                700,
                mid + Duration::minutes(i),
                life,
            ));
        }
        let sim_cfg = SimConfig {
            buffer_range: (1000, 1100),
            seed: 8,
            ..SimConfig::default()
        };
        let sim = run_sim(
            &trace,
            IntentionalScheme::new(IntentionalConfig {
                ncl_count: 2,
                replacement: ReplacementKind::Lru,
                ..IntentionalConfig::default()
            }),
            events,
            sim_cfg,
        );
        assert!(
            sim.metrics().replacement_ops > 0,
            "LRU under pressure must evict"
        );
    }

    #[test]
    fn ncl_query_load_accumulates_per_central() {
        let trace = busy_trace(13);
        let mid = trace.midpoint();
        let life = Duration::days(1);
        let mut events = vec![gen_event(0, 3, 1000, mid + Duration::minutes(1), life)];
        for n in 0..16u32 {
            if n != 3 {
                events.push(WorkloadEvent::IssueQuery {
                    at: mid + Duration::hours(2),
                    requester: NodeId(n),
                    data: DataId(0),
                    constraint: Duration::hours(12),
                });
            }
        }
        let sim = run_sim(
            &trace,
            IntentionalScheme::new(IntentionalConfig {
                ncl_count: 3,
                ..IntentionalConfig::default()
            }),
            events,
            SimConfig {
                seed: 9,
                ..SimConfig::default()
            },
        );
        let load = sim.scheme().ncl_query_load();
        assert_eq!(load.len(), 3);
        let total: u64 = load.iter().sum();
        // Each of the 15 queries multicasts to 3 NCLs; most arrive.
        assert!(total > 15, "only {total} central arrivals");
        assert!(total <= 45);
        // Load is spread, not all on one NCL.
        assert!(
            load.iter().filter(|&&l| l > 0).count() >= 2,
            "load {load:?}"
        );
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = IntentionalConfig::default();
        assert_eq!(cfg.ncl_count, 8);
        assert_eq!(cfg.replacement, ReplacementKind::UtilityKnapsack);
        assert_eq!(
            cfg.response,
            ResponseStrategy::Sigmoid {
                p_min: 0.45,
                p_max: 0.8
            }
        );
    }

    #[test]
    fn matches_reference_scheme_bit_for_bit() {
        // The indexed-queue engine must reproduce the retain-sweep
        // reference implementation exactly: same RNG draws, same link
        // charges, same metrics. The broader randomized suite lives in
        // tests/scheme_equivalence.rs; this is the fast smoke check.
        for seed in [11u64, 12, 13] {
            let trace = busy_trace(seed);
            let cfg = IntentionalConfig {
                ncl_count: 3,
                ..IntentionalConfig::default()
            };
            let events = mixed_workload(&trace, 10, 900);
            let sim_cfg = SimConfig {
                seed,
                ..SimConfig::default()
            };
            let fast = run_sim(
                &trace,
                IntentionalScheme::new(cfg.clone()),
                events.clone(),
                sim_cfg.clone(),
            );
            let reference = run_sim(
                &trace,
                ReferenceIntentionalScheme::new(cfg),
                events,
                sim_cfg,
            );
            assert_eq!(
                fast.metrics(),
                reference.metrics(),
                "seed {seed} diverged from reference"
            );
        }
    }

    #[test]
    fn matches_reference_under_replacement_pressure() {
        // Tight buffers force evictions, knapsack exchanges and push
        // settles — the paths with the trickiest index bookkeeping.
        let trace = busy_trace(14);
        let cfg = IntentionalConfig {
            ncl_count: 2,
            ..IntentionalConfig::default()
        };
        let events = mixed_workload(&trace, 12, 400);
        let sim_cfg = SimConfig {
            buffer_range: (1000, 1200),
            seed: 14,
            ..SimConfig::default()
        };
        let fast = run_sim(
            &trace,
            IntentionalScheme::new(cfg.clone()),
            events.clone(),
            sim_cfg.clone(),
        );
        let reference = run_sim(
            &trace,
            ReferenceIntentionalScheme::new(cfg),
            events,
            sim_cfg,
        );
        assert_eq!(fast.metrics(), reference.metrics());
    }

    #[test]
    fn epochs_keep_invariants_and_count_elections() {
        // Epochs on a stationary trace must run elections without ever
        // corrupting the per-node indexes, and an unchanged central set
        // must migrate nothing.
        let trace = busy_trace(21);
        let sim_cfg = SimConfig {
            seed: 21,
            epoch_interval: Some(Duration::hours(4)),
            ..SimConfig::default()
        };
        let sim = run_sim(
            &trace,
            IntentionalScheme::new(IntentionalConfig {
                ncl_count: 3,
                ..IntentionalConfig::default()
            }),
            mixed_workload(&trace, 10, 900),
            sim_cfg,
        );
        let stats = sim.scheme().reelection_stats();
        assert!(stats.elections > 0, "no epoch fired in the workload half");
        sim.scheme().validate().expect("indexes stay consistent");
        if stats.central_changes == 0 {
            assert_eq!(stats.migrated_copies, 0);
            assert_eq!(stats.migrated_bytes, 0);
        }
    }
}
