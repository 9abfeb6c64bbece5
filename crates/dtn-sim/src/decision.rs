//! The placement/routing decision kernel shared by the simulation
//! engine and the online serving mode.
//!
//! The intentional scheme's contact hooks reduce every forwarding
//! choice to one comparison: *does the candidate carrier have a higher
//! opportunistic-path weight to the destination than the current
//! carrier?* (§V-A: "a relay forwards data to another node with higher
//! metric than itself"), asked of [`PathOracle::forward`].
//! [`DecisionPoint`] composes from the same oracle reads the two
//! request-level decisions a serving deployment asks for:
//!
//! - [`DecisionPoint::place`]: where should a data item be cached?
//!   The NCL set (the elected central nodes) plus, per NCL, the best
//!   next relay toward that central node under the §V-A rule.
//! - [`DecisionPoint::route`]: where should a query go? The central
//!   target with the highest opportunistic weight from the requester,
//!   plus the best next relay toward it (§V-B pull).
//!
//! The scheme-side decision API (`IntentionalScheme::decision_point`)
//! borrows the scheme's *own* oracle and central set, so a decision
//! answered online reads exactly the weights the engine reads at the
//! next contact — what the serve-vs-engine differential tests pin.
//!
//! All oracle reads go through the generation-versioned snapshot inside
//! [`PathOracle`], and staleness is bounded by the oracle's refresh
//! interval. There is no background refresh: the first read after the
//! interval elapses rebuilds the snapshot inline. The best next relay is
//! the oracle's: `forward` hoisted over the candidates. A list that names
//! the destination — every list the decision service passes — is
//! answered by it, as the destination always accepts, without a read; so
//! a decision reads the carrier's weight to each central. It warms its
//! candidates first: the epoch's first decision searches every one
//! without a table as one batch over the machine's workers, each search
//! stopped once the central nodes have settled; a later one pays an
//! epoch compare.

use dtn_core::ids::NodeId;
use dtn_core::rate::RateTable;
use dtn_core::time::Time;

use crate::oracle::{OracleStats, PathOracle};

/// One NCL's slice of a placement decision: the central node the copy
/// should migrate toward and the best currently-known next relay.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayPlan {
    /// NCL index (position in the central-node set).
    pub ncl: usize,
    /// The central node this NCL's copy is pushed toward.
    pub central: NodeId,
    /// Opportunistic-path weight from the current carrier to `central`.
    pub carrier_weight: f64,
    /// The best next relay under the §V-A rule — the candidate with the
    /// highest weight to `central`, provided it strictly beats the
    /// carrier. `None` when the carrier is already the best placed (or
    /// already *is* the central node).
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

/// Answer to `Route(query)`: the central target and next relay.
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
    /// The best next relay toward `central` under the §V-A rule, as in
    /// [`RelayPlan::next_hop`].
    pub next_hop: Option<NodeId>,
}

/// A borrowed view of the decision state: the path oracle (snapshot
/// reads), the live contact-rate table, the decision time and the
/// elected central set. Construct via
/// `IntentionalScheme::decision_point` to borrow the engine scheme's
/// own state, or [`DecisionPoint::new`] for standalone use.
#[derive(Debug)]
pub struct DecisionPoint<'a> {
    oracle: &'a mut PathOracle,
    rates: &'a RateTable,
    now: Time,
    centrals: &'a [NodeId],
}

impl<'a> DecisionPoint<'a> {
    /// A decision point over explicit state.
    pub fn new(
        oracle: &'a mut PathOracle,
        rates: &'a RateTable,
        now: Time,
        centrals: &'a [NodeId],
    ) -> Self {
        DecisionPoint {
            oracle,
            rates,
            now,
            centrals,
        }
    }

    /// The decision time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The elected central nodes, in NCL order.
    pub fn centrals(&self) -> &[NodeId] {
        self.centrals
    }

    /// Opportunistic-path weight from `from` to `dest` at the decision
    /// time (a snapshot read; may lazily refresh the table for `from`).
    pub fn weight(&mut self, from: NodeId, dest: NodeId) -> f64 {
        self.oracle.weight(self.rates, self.now, from, dest)
    }

    /// The oracle's generation-versioned snapshot epoch — bumps when a
    /// read replaces a stale snapshot, so a serving loop can report
    /// which oracle generation answered each decision.
    pub fn snapshot_epoch(&self) -> u64 {
        self.oracle.snapshot_epoch()
    }

    /// The oracle's cumulative work counters; their difference around a
    /// decision is what that decision paid for (snapshot rebuild, path
    /// searches).
    pub fn oracle_stats(&self) -> OracleStats {
        self.oracle.stats()
    }

    /// `Place(data)` for a copy currently at `source`: the NCL set plus
    /// one [`RelayPlan`] per NCL over `candidates`.
    pub fn place(&mut self, source: NodeId, candidates: &[NodeId]) -> PlacementDecision {
        self.oracle.warm(self.rates, self.now, candidates);
        let ncls = self.centrals.to_vec();
        let plan = ncls
            .iter()
            .enumerate()
            .map(|(k, &central)| RelayPlan {
                ncl: k,
                central,
                carrier_weight: self.weight(source, central),
                next_hop: self
                    .oracle
                    .best_relay(self.rates, self.now, source, central, candidates),
            })
            .collect();
        PlacementDecision { ncls, plan }
    }

    /// `Route(query)` for a requester: the best central target by
    /// opportunistic weight (lower NCL index wins ties) and the best
    /// next relay toward it over `candidates`. `None` when no central
    /// nodes are elected.
    pub fn route(&mut self, requester: NodeId, candidates: &[NodeId]) -> Option<RouteDecision> {
        self.oracle.warm(self.rates, self.now, candidates);
        let mut best: Option<(usize, NodeId, f64)> = None;
        for (k, &central) in self.centrals.iter().enumerate() {
            let w = if requester == central {
                f64::INFINITY
            } else {
                self.weight(requester, central)
            };
            if best.is_none_or(|(_, _, bw)| w > bw) {
                best = Some((k, central, w));
            }
        }
        let (ncl, central, central_weight) = best?;
        Some(RouteDecision {
            ncl,
            central,
            central_weight,
            next_hop: self
                .oracle
                .best_relay(self.rates, self.now, requester, central, candidates),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::time::Duration;

    /// 0 — 1 — 2 line with frequent contacts; node 2 is the hub side.
    fn rates_line() -> RateTable {
        let mut r = RateTable::new(4, Time::ZERO);
        for t in 1..=5u64 {
            r.record(NodeId(0), NodeId(1), Time(t * 100));
            r.record(NodeId(1), NodeId(2), Time(t * 100));
        }
        r
    }

    fn oracle() -> PathOracle {
        PathOracle::new(4, 1000.0, Duration::hours(1))
    }

    #[test]
    fn place_plans_one_relay_per_ncl() {
        let rates = rates_line();
        let mut o = oracle();
        let centrals = [NodeId(2), NodeId(0)];
        let mut dp = DecisionPoint::new(&mut o, &rates, Time(600), &centrals);
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let d = dp.place(NodeId(0), &nodes);
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
        let mut o = oracle();
        let centrals = [NodeId(2), NodeId(0)];
        let mut dp = DecisionPoint::new(&mut o, &rates, Time(600), &centrals);
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        // Node 1 meets both 0 and 2 equally often: the tie breaks to
        // the lower NCL index.
        let r = dp.route(NodeId(1), &nodes).expect("centrals elected");
        assert_eq!(r.ncl, 0);
        assert_eq!(r.central, NodeId(2));
        assert_eq!(r.next_hop, Some(NodeId(2)), "direct contact wins");
        // A requester that *is* a central routes to itself, no hop.
        let r = dp.route(NodeId(2), &nodes).expect("centrals elected");
        assert_eq!(r.central, NodeId(2));
        assert_eq!(r.next_hop, None);
        // Node 3 is isolated: weights are all zero, the tie breaks to
        // NCL 0, and no relay strictly beats the carrier.
        let r = dp.route(NodeId(3), &nodes).expect("centrals elected");
        assert_eq!(r.ncl, 0);
        assert_eq!(r.next_hop, Some(NodeId(2)), "destination always accepts");
    }

    #[test]
    fn empty_central_set_routes_to_none() {
        let rates = rates_line();
        let mut o = oracle();
        let centrals: [NodeId; 0] = [];
        let mut dp = DecisionPoint::new(&mut o, &rates, Time(600), &centrals);
        assert!(dp.route(NodeId(0), &[NodeId(1)]).is_none());
        let d = dp.place(NodeId(0), &[NodeId(1)]);
        assert!(d.ncls.is_empty() && d.plan.is_empty());
    }
}
