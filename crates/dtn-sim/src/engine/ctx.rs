//! Engine state shared with schemes, and the services [`SimCtx`]
//! offers a [`Scheme`](super::Scheme) while it handles an event.

use rand::rngs::StdRng;

use dtn_core::ids::{NodeId, QueryId};
use dtn_core::rate::RateTable;
use dtn_core::time::Time;

use crate::audit::AuditState;
use crate::metrics::Metrics;
use crate::probe::{ProbeEvent, ProbeSink};
use crate::profiler::{Phase, Profiler};

use super::DeliveryOutcome;

/// Internal record of an issued query: 24 B.
#[derive(Debug, Clone, Copy)]
pub(super) struct QueryRecord {
    pub(super) issued_at: Time,
    pub(super) expires_at: Time,
    /// [`QueryRecord::OPEN`] until the first in-time delivery.
    satisfied_at: Time,
}

impl QueryRecord {
    /// `satisfied_at` of an unsatisfied query. No delivery lands on it:
    /// one at `u64::MAX` is at or past every expiry, so it is late.
    const OPEN: Time = Time(u64::MAX);

    pub(super) fn new(issued_at: Time, expires_at: Time) -> Self {
        QueryRecord {
            issued_at,
            expires_at,
            satisfied_at: Self::OPEN,
        }
    }

    pub(super) fn satisfied_at(&self) -> Option<Time> {
        (self.satisfied_at != Self::OPEN).then_some(self.satisfied_at)
    }
}

/// Engine state shared with schemes through [`SimCtx`].
pub(super) struct Shared {
    pub(super) now: Time,
    pub(super) rate_table: RateTable,
    pub(super) metrics: Metrics,
    pub(super) rng: StdRng,
    pub(super) buffer_capacities: Vec<u64>,
    pub(super) queries: Vec<QueryRecord>, // indexed by QueryId
    pub(super) query_size: u64,
    pub(super) link_budget: Option<u64>, // bytes left in the current contact
    pub(super) probe: ProbeSink,
    /// `Some` iff `SimConfig::audit` was set; boxed so the audit-off
    /// hot path carries one machine word.
    pub(super) audit: Option<Box<AuditState>>,
    /// `Some` iff `SimConfig::profile` was set; same one-machine-word
    /// discipline as the audit slot.
    pub(super) profiler: Option<Box<Profiler>>,
}

/// The services a [`Scheme`](super::Scheme) can call while handling an event.
pub struct SimCtx<'a> {
    pub(super) shared: &'a mut Shared,
}

impl SimCtx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.shared.now
    }

    /// The engine's deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.shared.rng
    }

    /// The live pairwise contact-rate table (updated on every contact).
    pub fn rate_table(&self) -> &RateTable {
        &self.shared.rate_table
    }

    /// Number of nodes in the simulated population.
    pub fn node_count(&self) -> usize {
        self.shared.buffer_capacities.len()
    }

    /// The caching-buffer capacity assigned to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn buffer_capacity(&self, node: NodeId) -> u64 {
        self.shared.buffer_capacities[node.index()]
    }

    /// The configured size of a query message in bytes.
    pub fn query_size(&self) -> u64 {
        self.shared.query_size
    }

    /// The probe sink: schemes emit [`ProbeEvent`]s through this. With
    /// no probe installed (the default) an emission is one predicted
    /// branch and the event is never constructed.
    pub fn probe(&mut self) -> &mut ProbeSink {
        &mut self.shared.probe
    }

    /// Whether a probe is installed — for gating instrumentation work
    /// that a lazy [`ProbeSink::emit`] closure cannot express.
    pub fn probe_enabled(&self) -> bool {
        self.shared.probe.is_enabled()
    }

    /// Opens a profiler span for `phase` (no-op unless
    /// [`SimConfig::profile`](super::SimConfig::profile) is set). Schemes bracket their own
    /// heavyweight phases — knapsack solves, maintenance rebuilds —
    /// with this and [`SimCtx::profile_exit`]; calls must balance on
    /// every path, including early returns.
    #[inline]
    pub fn profile_enter(&mut self, phase: Phase) {
        if let Some(p) = &mut self.shared.profiler {
            p.enter(phase);
        }
    }

    /// Closes the innermost open profiler span (no-op when profiling is
    /// off).
    #[inline]
    pub fn profile_exit(&mut self) {
        if let Some(p) = &mut self.shared.profiler {
            p.exit();
        }
    }

    /// Attempts to transmit `bytes` over the current contact, consuming
    /// link capacity. Returns `false` (and counts a rejected transfer)
    /// if the contact's remaining capacity is insufficient.
    ///
    /// # Panics
    ///
    /// Panics if called outside a contact hook — transmission without a
    /// contact is impossible in a DTN and indicates a scheme bug.
    pub fn try_transmit(&mut self, bytes: u64) -> bool {
        let shared = &mut *self.shared;
        let budget = shared
            .link_budget
            .as_mut()
            .expect("try_transmit is only valid inside on_contact");
        transmit(
            budget,
            &mut shared.metrics,
            &mut shared.probe,
            shared.now,
            bytes,
        )
    }

    /// Remaining transmission capacity of the current contact, if inside
    /// a contact hook.
    #[cfg(test)]
    fn remaining_link_capacity(&self) -> Option<u64> {
        self.shared.link_budget
    }

    /// Reports that the requester of `query` received the data now.
    ///
    /// Only the first in-time delivery satisfies the query; duplicates
    /// and late arrivals are tallied separately (they are the "wasted
    /// bandwidth" §V-C talks about).
    pub fn mark_delivered(&mut self, query: QueryId) -> DeliveryOutcome {
        let now = self.shared.now;
        let outcome = 'classify: {
            let Some(rec) = self.shared.queries.get_mut(query.0 as usize) else {
                break 'classify DeliveryOutcome::Unknown;
            };
            if rec.satisfied_at().is_some() {
                self.shared.metrics.duplicate_deliveries += 1;
                break 'classify DeliveryOutcome::Duplicate;
            }
            if now >= rec.expires_at {
                self.shared.metrics.late_deliveries += 1;
                break 'classify DeliveryOutcome::Late;
            }
            rec.satisfied_at = now;
            let delay = now - rec.issued_at;
            self.shared.metrics.queries_satisfied += 1;
            self.shared.metrics.total_delay_secs += delay.as_secs();
            DeliveryOutcome::Accepted { delay }
        };
        if let Some(audit) = &mut self.shared.audit {
            audit.deliveries_reported += 1;
            if outcome == DeliveryOutcome::Unknown {
                audit.unknown_deliveries += 1;
            }
        }
        self.shared.probe.emit(|| ProbeEvent::Delivery {
            at: now,
            query,
            outcome,
        });
        outcome
    }

    /// Whether `query` is still unsatisfied and unexpired.
    pub fn query_is_open(&self, query: QueryId) -> bool {
        self.shared
            .queries
            .get(query.0 as usize)
            .is_some_and(|r| r.satisfied_at().is_none() && self.shared.now < r.expires_at)
    }

    /// Counts `count` cache-replacement operations (Fig. 12(c) metric).
    pub fn note_replacements(&mut self, count: u64) {
        self.shared.metrics.replacement_ops += count;
    }

    /// Splits the context into a [`LinkAccess`] that exposes the rate
    /// table and the transmit budget *simultaneously* — needed by
    /// routing code that reads path weights while charging transfers.
    ///
    /// # Panics
    ///
    /// Panics if called outside a contact hook.
    pub fn link_access(&mut self) -> LinkAccess<'_> {
        assert!(
            self.shared.link_budget.is_some(),
            "link_access is only valid inside on_contact"
        );
        LinkAccess {
            rates: &self.shared.rate_table,
            budget: self
                .shared
                .link_budget
                .as_mut()
                .expect("checked just above"),
            metrics: &mut self.shared.metrics,
            now: self.shared.now,
            probe: &mut self.shared.probe,
        }
    }
}

/// Simultaneous access to the rate table and the contact's transmit
/// budget (split borrow of the engine state). Implements [`Link`].
pub struct LinkAccess<'a> {
    rates: &'a RateTable,
    budget: &'a mut u64,
    metrics: &'a mut Metrics,
    now: Time,
    probe: &'a mut ProbeSink,
}

/// A transmission medium: pairwise rates plus a budgeted transmit
/// operation. Implemented by [`LinkAccess`]; test code can provide
/// stubs.
pub trait Link {
    /// The live pairwise contact-rate table.
    fn rate_table(&self) -> &RateTable;

    /// Attempts to transmit `bytes`, consuming link capacity.
    fn try_transmit(&mut self, bytes: u64) -> bool;
}

impl Link for LinkAccess<'_> {
    fn rate_table(&self) -> &RateTable {
        self.rates
    }

    fn try_transmit(&mut self, bytes: u64) -> bool {
        transmit(self.budget, self.metrics, self.probe, self.now, bytes)
    }
}

/// Charges `bytes` to a contact's remaining `budget` if they fit, and
/// counts a rejected transfer if they do not.
fn transmit(
    budget: &mut u64,
    metrics: &mut Metrics,
    probe: &mut ProbeSink,
    at: Time,
    bytes: u64,
) -> bool {
    if *budget >= bytes {
        *budget -= bytes;
        metrics.bytes_transmitted += bytes;
        probe.emit(|| ProbeEvent::TransmitAccepted { at, bytes });
        true
    } else {
        metrics.transfers_rejected += 1;
        probe.emit(|| ProbeEvent::TransmitRejected { at, bytes });
        false
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{
        gen_event, query_event, two_node_trace, DirectDelivery, RedundantDelivery,
    };
    use super::super::{CacheStats, Scheme, SimConfig, Simulator};
    use super::*;
    use crate::message::{DataItem, Query};
    use dtn_core::time::Duration;
    use dtn_trace::trace::Contact;

    #[test]
    fn transfer_fails_when_contact_too_short() {
        let trace = two_node_trace();
        // 100 s contact at default bandwidth carries 26.25 MB; ask for more.
        let huge = 100 * 262_500 + 1;
        let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
        sim.add_workload(vec![
            gen_event(1, 0, huge, 100, 9000),
            query_event(200, 1, 1, 8000),
        ]);
        sim.run_to_end();
        let m = sim.metrics();
        assert_eq!(m.queries_satisfied, 0);
        assert_eq!(m.transfers_rejected, 2); // both contacts too short
        assert_eq!(m.bytes_transmitted, 0);
    }

    #[test]
    fn redelivered_query_counts_as_duplicate() {
        // The same query delivered at both contacts: the t=1000 arrival
        // satisfies it, the t=5000 re-delivery is wasted bandwidth and
        // must land in `duplicate_deliveries`, not `queries_satisfied`.
        let trace = two_node_trace();
        let mut sim = Simulator::new(&trace, RedundantDelivery::default(), SimConfig::default());
        sim.add_workload(vec![query_event(200, 1, 1, 9000)]);
        sim.run_to_end();
        let m = sim.metrics();
        assert_eq!(m.queries_satisfied, 1);
        assert_eq!(m.duplicate_deliveries, 1);
        assert_eq!(m.late_deliveries, 0);
        assert_eq!(m.total_delay_secs, 800); // satisfied at the first contact
        assert_eq!(
            sim.scheme().outcomes,
            vec![
                DeliveryOutcome::Accepted {
                    delay: Duration(800)
                },
                DeliveryOutcome::Duplicate,
            ]
        );
    }

    #[test]
    fn duplicate_late_and_rejected_metrics_disagree_never() {
        // One trace, three failure modes, each counted exactly once in
        // its own bucket: a satisfied query with one duplicate re-send, a
        // query that expires before its only delivery (late), and an
        // oversized transfer (rejected). None of them leak into
        // `queries_satisfied`.
        let trace = two_node_trace();
        let mut sim = Simulator::new(&trace, RedundantDelivery::default(), SimConfig::default());
        sim.add_workload(vec![
            query_event(200, 1, 1, 9000), // satisfied at 1000, duplicate at 5000
            query_event(300, 0, 2, 400),  // expires at 700 < first contact
        ]);
        sim.run_to_end();
        let m = sim.metrics();
        assert_eq!(m.queries_issued, 2);
        assert_eq!(m.queries_satisfied, 1);
        assert_eq!(m.duplicate_deliveries, 1);
        // The expired query is "delivered" at both contacts, both late.
        assert_eq!(m.late_deliveries, 2);
        assert!((m.success_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "try_transmit is only valid inside on_contact")]
    fn try_transmit_outside_a_contact_panics() {
        struct Eager;
        impl Scheme for Eager {
            fn on_data_generated(&mut self, _: &mut SimCtx<'_>, _: DataItem) {}
            fn on_query_issued(&mut self, ctx: &mut SimCtx<'_>, _: Query) {
                ctx.try_transmit(1);
            }
            fn on_contact(&mut self, _: &mut SimCtx<'_>, _: Contact) {}
            fn cache_stats(&self, _: Time) -> CacheStats {
                CacheStats::default()
            }
        }
        let trace = two_node_trace();
        let mut sim = Simulator::new(&trace, Eager, SimConfig::default());
        sim.add_workload(vec![query_event(200, 1, 1, 9000)]);
        sim.run_to_end();
    }

    #[test]
    fn link_access_shares_budget_with_try_transmit() {
        struct Splitter;
        impl Scheme for Splitter {
            fn on_data_generated(&mut self, _: &mut SimCtx<'_>, _: DataItem) {}
            fn on_query_issued(&mut self, _: &mut SimCtx<'_>, _: Query) {}
            fn on_contact(&mut self, ctx: &mut SimCtx<'_>, _: Contact) {
                let start = ctx.remaining_link_capacity().expect("in contact");
                // Spend half through the split-borrow interface…
                {
                    let mut link = ctx.link_access();
                    assert!(link.try_transmit(start / 2));
                    // …and read rates through the same handle.
                    let _ = link.rate_table().node_count();
                }
                // …and the rest through the plain interface.
                assert_eq!(ctx.remaining_link_capacity(), Some(start - start / 2));
                assert!(ctx.try_transmit(start - start / 2));
                assert!(!ctx.try_transmit(1), "budget must be exhausted");
            }
            fn cache_stats(&self, _: Time) -> CacheStats {
                CacheStats::default()
            }
        }
        let trace = two_node_trace();
        let mut sim = Simulator::new(&trace, Splitter, SimConfig::default());
        sim.run_to_end();
        assert!(sim.metrics().bytes_transmitted > 0);
        assert_eq!(sim.metrics().transfers_rejected, 2);
    }

    #[test]
    fn unknown_query_delivery_reports_unknown() {
        struct Bogus;
        impl Scheme for Bogus {
            fn on_data_generated(&mut self, _: &mut SimCtx<'_>, _: DataItem) {}
            fn on_query_issued(&mut self, _: &mut SimCtx<'_>, _: Query) {}
            fn on_contact(&mut self, ctx: &mut SimCtx<'_>, _: Contact) {
                assert_eq!(ctx.mark_delivered(QueryId(42)), DeliveryOutcome::Unknown);
            }
            fn cache_stats(&self, _: Time) -> CacheStats {
                CacheStats::default()
            }
        }
        let trace = two_node_trace();
        let cfg = SimConfig {
            audit: true,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&trace, Bogus, cfg);
        sim.run_to_end();
        // Unknown deliveries are classified, so delivery accounting
        // still balances and the audit stays clean.
        let report = sim.audit_report().expect("audit enabled");
        assert!(report.is_clean(), "{}", report.summary());
        assert!(report.sweeps() >= 2, "one sweep per surviving contact");
    }
}
