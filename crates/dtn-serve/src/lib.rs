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
//!   the elected NCL set plus, per NCL, the next hop toward its central
//!   node ([`PlacementDecision`]).
//! - [`Request::Route`]: where should a query go? → the central node
//!   with the highest opportunistic weight from the requester plus the
//!   next hop toward it ([`RouteDecision`]).
//!
//! A next hop is the central node itself (§V-A: the destination always
//! accepts) unless the carrier is that central. A relay chosen among the
//! carrier's current contacts would be a different answer.
//!
//! # Snapshot reads, and who pays for a new snapshot
//!
//! A decision reads the scheme's own [`PathOracle`] and centrals
//! (`IntentionalScheme::decision_point`), as the engine does at the next
//! contact: the carrier's weight to each central, through the oracle's
//! generation-versioned snapshot. Staleness is bounded by the refresh
//! interval; nothing refreshes in the background. The first decision
//! after the interval rebuilds the snapshot inline, orphaning every
//! per-source table, and [`PathOracle::warm`] then searches every node
//! without a table as one batch over the machine's workers, each search
//! stopped once the centrals have settled; a later decision of the epoch
//! reads one table per central. On the `serve_churn` workload (200
//! nodes, 5 NCLs, a rebuild every 30 simulated minutes, a 2-vCPU host)
//! the cold decision runs those 200 short searches once per epoch,
//! ≈ 2 ms, and a warm `Place` takes ≈ 0.5 µs. Each [`Decision`] says
//! what it paid ([`Decision::tables_recomputed`],
//! [`Decision::snapshot_rebuilt`]); [`ServeStats::cold_decisions`]
//! counts the ones that paid anything. [`DecisionService::decide`]
//! ingests the stream up to the request time before answering, so an
//! epoch's NCL re-election is visible to the very next decision.
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
use dtn_core::rate::RateTable;
use dtn_core::time::Time;
use dtn_sim::engine::{ContactSource, Simulator};
use dtn_sim::oracle::PathOracle;

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

/// One NCL's slice of a placement decision.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayPlan {
    /// NCL index (position in the central-node set).
    pub ncl: usize,
    /// The central node this NCL's copy is pushed toward.
    pub central: NodeId,
    /// Opportunistic-path weight from the current carrier to `central`.
    pub carrier_weight: f64,
    /// The central node itself, which always accepts (§V-A); `None` when
    /// the carrier already *is* the central node.
    pub next_hop: Option<NodeId>,
}

/// Answer to `Place(data)`: the NCL set and one relay plan per NCL.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementDecision {
    /// The elected central nodes, in NCL order.
    pub ncls: Vec<NodeId>,
    /// Per-NCL relay plan for the copy currently at the source.
    pub plan: Vec<RelayPlan>,
}

/// Answer to `Route(query)`: the central target and next hop.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteDecision {
    /// NCL index of the chosen central target.
    pub ncl: usize,
    /// The central node with the highest opportunistic weight from the
    /// requester (ties break toward the lower NCL index — the paper's
    /// NCL priority order).
    pub central: NodeId,
    /// Weight from the requester to that central node.
    pub central_weight: f64,
    /// The next hop toward `central`, as in [`RelayPlan::next_hop`].
    pub next_hop: Option<NodeId>,
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

/// Aggregate serving statistics. Every [`DecisionService::decide`] call
/// lands in exactly one of `decisions`, `unknown_node_requests` and
/// `not_configured_requests`.
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
    /// Requests refused with [`ServeError::NotConfigured`]; like an
    /// unknown node, never in the checksum.
    pub not_configured_requests: u64,
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
    cfg: ServeConfig,
    stats: ServeStats,
    log: Option<Vec<Decision>>,
}

impl<C: ContactSource> DecisionService<C> {
    /// Wraps an engine. The simulator may be fresh or already warmed;
    /// decisions are refused until the scheme is configured
    /// ([`configure_at`](Self::configure_at) or an external
    /// `configure`).
    pub fn new(sim: Simulator<IntentionalScheme, C>, cfg: ServeConfig) -> Self {
        DecisionService {
            sim,
            cfg,
            stats: ServeStats {
                decisions: 0,
                budget_violations: 0,
                checksum: FNV_OFFSET,
                max_service_ns: 0,
                unknown_node_requests: 0,
                not_configured_requests: 0,
                cold_decisions: 0,
            },
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
    /// scheme's own oracle and central set. Only the answer computation
    /// counts toward the decision's service time.
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
        if node.index() >= self.sim.source().node_count() {
            self.stats.unknown_node_requests += 1;
            return Err(ServeError::UnknownNode(node));
        }
        // `configure` builds the oracle with the NCLs: none means neither.
        if self.sim.scheme().oracle_stats().is_none() {
            self.stats.not_configured_requests += 1;
            return Err(ServeError::NotConfigured);
        }
        let at = at.max(self.sim.now());
        self.sim.run_until(at);
        let (scheme, rates, now, _) = self.sim.live_state();
        let started = Instant::now();
        let (oracle, centrals) = scheme
            .decision_point()
            .expect("refused above until configured");
        let oracle_epoch = oracle.snapshot_epoch();
        let before = oracle.stats();
        let answer = match request {
            Request::Place { source, .. } => {
                Answer::Place(place(oracle, rates, now, centrals, source))
            }
            Request::Route { requester, .. } => {
                Answer::Route(route(oracle, rates, now, centrals, requester))
            }
        };
        let after = oracle.stats();
        let service_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let tables_recomputed = after.table_recomputes - before.table_recomputes;
        let snapshot_rebuilt = after.rebuilds > before.rebuilds;

        let stats = &mut self.stats;
        stats.decisions += 1;
        stats.cold_decisions += u64::from(snapshot_rebuilt || tables_recomputed > 0);
        stats.max_service_ns = stats.max_service_ns.max(service_ns);
        if service_ns > self.cfg.latency_budget_ns {
            stats.budget_violations += 1;
        }
        stats.checksum = checksum_fold(stats.checksum, at, &request, &answer);

        let decision = Decision {
            seq: stats.decisions - 1,
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
        self.stats
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

/// `Place(data)` for a copy at `source`: one [`RelayPlan`] per NCL.
fn place(
    oracle: &mut PathOracle,
    rates: &RateTable,
    now: Time,
    centrals: &[NodeId],
    source: NodeId,
) -> PlacementDecision {
    oracle.warm(rates, now);
    let plan = centrals
        .iter()
        .enumerate()
        .map(|(ncl, &central)| RelayPlan {
            ncl,
            central,
            carrier_weight: oracle.weight(rates, now, source, central),
            next_hop: (source != central).then_some(central),
        })
        .collect();
    PlacementDecision {
        ncls: centrals.to_vec(),
        plan,
    }
}

/// `Route(query)` for `requester`: the central heaviest from it (itself,
/// if it is one) and the next hop toward it; `None` without centrals.
fn route(
    oracle: &mut PathOracle,
    rates: &RateTable,
    now: Time,
    centrals: &[NodeId],
    requester: NodeId,
) -> Option<RouteDecision> {
    oracle.warm(rates, now);
    let mut best: Option<(usize, NodeId, f64)> = None;
    for (ncl, &central) in centrals.iter().enumerate() {
        let w = if requester == central {
            f64::INFINITY
        } else {
            oracle.weight(rates, now, requester, central)
        };
        if best.is_none_or(|(_, _, bw)| w > bw) {
            best = Some((ncl, central, w));
        }
    }
    let (ncl, central, central_weight) = best?;
    Some(RouteDecision {
        ncl,
        central,
        central_weight,
        next_hop: (requester != central).then_some(central),
    })
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
mod tests;
