//! Debug-gated invariant audit: machine-checkable conservation laws.
//!
//! The paper's evaluation rests on conservation properties the
//! simulation must uphold at every instant: every cached copy is
//! carried, settled, or dropped — never duplicated or leaked — every
//! query ends exactly one of satisfied / expired / pending, and a
//! contact never transmits more than its link budget. This module makes
//! those properties *checkable*: [`AuditLaw`] names each law,
//! [`AuditViolation`] is a structured report of one breach, and
//! [`AuditReport`] accumulates them across a run.
//!
//! Audits run after every contact and every epoch when
//! [`SimConfig::audit`] is on. The engine checks its own bookkeeping
//! (query/delivery conservation) and then calls [`Scheme::audit`], which
//! re-derives the scheme's canonical state and reports any drift. With
//! the flag off (the default) the engine carries a single `None` option
//! and the per-event cost is one predicted branch.
//!
//! [`SimConfig::audit`]: crate::engine::SimConfig::audit
//! [`Scheme::audit`]: crate::engine::Scheme::audit

use std::fmt;

use dtn_core::ids::{DataId, NodeId};
use dtn_core::time::Time;
use dtn_trace::trace::Contact;

use crate::buffer::Buffer;
use crate::metrics::Metrics;
use crate::probe::RecordingProbe;

/// A conservation law the simulation must uphold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditLaw {
    /// Every live cached copy is carried, settled, or dropped — its
    /// holder physically stores the bytes, and per-NCL member counts
    /// match the per-copy states.
    CopyConservation,
    /// Every copy a scheme pushed toward a central is in exactly one
    /// fate — settled at the central, settled elsewhere, displaced,
    /// expired in transit, or still in flight — so `pushed` is their sum
    /// and the in-flight count is the copies still being pushed.
    CopyFates,
    /// A buffer's used-byte counter equals the sum of its stored item
    /// sizes and never exceeds its capacity.
    BufferAccounting,
    /// Within a contact, `bytes_used = budget − remaining` never
    /// underflows: a scheme may only *consume* link budget.
    LinkBudget,
    /// `queries_issued == satisfied + expired + in_flight`, and the sum
    /// of recorded delays equals `Metrics::total_delay_secs`.
    QueryConservation,
    /// Every reported delivery is classified exactly once: satisfied,
    /// duplicate, late, or unknown.
    DeliveryAccounting,
    /// The probe's per-query delay decomposition sums to the metrics'
    /// `total_delay_secs` (probe/metric cross-check).
    DelayDecomposition,
    /// Side indexes agree with what they index: pull/broadcast/carrier
    /// lists with their slabs (no message outliving an expiry sweep), a
    /// buffer-expiry watermark with the buffers.
    IndexConsistency,
    /// The contact stream feeding the engine is well-formed: starts are
    /// nondecreasing, durations positive, endpoints distinct and in
    /// range. Regime overlays may *drop or reshape* contacts but must
    /// never emit an out-of-order or negative-duration one; this law
    /// catches a corrupting [`ContactSource`] before its contacts
    /// poison the rate table and every downstream metric.
    ///
    /// [`ContactSource`]: crate::engine::ContactSource
    TraceMonotonicity,
}

impl AuditLaw {
    /// Stable kebab-case name for reports and log lines.
    pub fn name(self) -> &'static str {
        match self {
            AuditLaw::CopyConservation => "copy-conservation",
            AuditLaw::CopyFates => "copy-fates",
            AuditLaw::BufferAccounting => "buffer-accounting",
            AuditLaw::LinkBudget => "link-budget",
            AuditLaw::QueryConservation => "query-conservation",
            AuditLaw::DeliveryAccounting => "delivery-accounting",
            AuditLaw::DelayDecomposition => "delay-decomposition",
            AuditLaw::IndexConsistency => "index-consistency",
            AuditLaw::TraceMonotonicity => "trace-monotonicity",
        }
    }
}

impl fmt::Display for AuditLaw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One observed breach of a conservation law.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// The law that was broken.
    pub law: AuditLaw,
    /// Simulation time of the audit sweep that caught it.
    pub at: Time,
    /// The node involved, when the law localises to one.
    pub node: Option<NodeId>,
    /// The data item involved, when the law localises to one.
    pub item: Option<DataId>,
    /// Human-readable specifics (expected vs. actual).
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] at {}", self.law, self.at)?;
        if let Some(node) = self.node {
            write!(f, " node {node}")?;
        }
        if let Some(item) = self.item {
            write!(f, " item {item}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Violations stored verbatim before the report switches to counting
/// only — a broken invariant usually cascades, and the first few
/// violations are the diagnostic ones.
const MAX_STORED_VIOLATIONS: usize = 64;

/// Accumulated audit results for one simulation run.
#[derive(Debug, Default)]
pub struct AuditReport {
    violations: Vec<AuditViolation>,
    violations_total: u64,
    sweeps: u64,
}

impl AuditReport {
    /// Whether no law was ever violated.
    pub fn is_clean(&self) -> bool {
        self.violations_total == 0
    }

    /// The stored violations (capped at 64, `MAX_STORED_VIOLATIONS`; see
    /// [`violations_total`](Self::violations_total) for the full count).
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Total violations observed, including ones beyond the storage cap.
    pub fn violations_total(&self) -> u64 {
        self.violations_total
    }

    /// Number of audit sweeps run (one per contact/epoch when enabled).
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Counts one audit sweep.
    pub(crate) fn begin_sweep(&mut self) {
        self.sweeps += 1;
    }

    /// Records a violation.
    pub fn violate(&mut self, violation: AuditViolation) {
        self.violations_total += 1;
        if self.violations.len() < MAX_STORED_VIOLATIONS {
            self.violations.push(violation);
        }
    }

    /// One-line summary: sweep count plus violation count, with the
    /// first violation inlined when there is one.
    pub fn summary(&self) -> String {
        match self.violations.first() {
            None => format!("audit clean: {} sweeps, 0 violations", self.sweeps),
            Some(first) => format!(
                "audit FAILED: {} violations over {} sweeps; first: {first}",
                self.violations_total, self.sweeps
            ),
        }
    }
}

/// Engine-side audit bookkeeping, carried behind
/// [`SimConfig::audit`](crate::engine::SimConfig::audit).
#[derive(Debug, Default)]
pub(crate) struct AuditState {
    /// The accumulated report.
    pub(crate) report: AuditReport,
    /// Deliveries reported through `SimCtx::mark_delivered`.
    pub(crate) deliveries_reported: u64,
    /// Deliveries naming a query id that was never issued.
    pub(crate) unknown_deliveries: u64,
    /// High-water mark of dispatched contact starts, for
    /// [`AuditLaw::TraceMonotonicity`].
    pub(crate) last_contact_start: Time,
}

/// Checks [`AuditLaw::TraceMonotonicity`] on one contact about to be
/// dispatched: positive duration, distinct in-range endpoints, and a
/// start no earlier than any previously dispatched contact. Returns
/// `true` when the contact is well-formed (and advances the high-water
/// mark in `state`); `false` means the engine must quarantine the
/// contact — replaying a malformed contact would corrupt the rate
/// table and every metric downstream, turning one structured violation
/// into an avalanche of secondary ones.
///
/// `Contact::new` upholds all the shape laws by panicking, and
/// [`StreamSource`] asserts ordering — this audit exists for *other*
/// [`ContactSource`] implementations (overlay stacks, trace importers,
/// fuzzers) that build contacts from raw fields.
///
/// [`StreamSource`]: crate::engine::StreamSource
/// [`ContactSource`]: crate::engine::ContactSource
pub(crate) fn check_contact_well_formed(
    contact: &Contact,
    nodes: usize,
    state: &mut AuditState,
) -> bool {
    let at = contact.start;
    let mut flag = |detail: String, node: Option<NodeId>| {
        state.report.violate(AuditViolation {
            law: AuditLaw::TraceMonotonicity,
            at,
            node,
            item: None,
            detail,
        });
    };
    let mut ok = true;
    if contact.end <= contact.start {
        flag(
            format!(
                "non-positive contact duration: start {:?} end {:?}",
                contact.start, contact.end
            ),
            Some(contact.a),
        );
        ok = false;
    }
    if contact.a == contact.b {
        flag(
            format!("self-contact ({}, {})", contact.a, contact.b),
            Some(contact.a),
        );
        ok = false;
    }
    if contact.a.index() >= nodes || contact.b.index() >= nodes {
        flag(
            format!(
                "contact ({}, {}) outside the {nodes}-node population",
                contact.a, contact.b
            ),
            Some(contact.a.max(contact.b)),
        );
        ok = false;
    }
    if contact.start < state.last_contact_start {
        flag(
            format!(
                "out-of-order contact: start {:?} after high-water mark {:?}",
                contact.start, state.last_contact_start
            ),
            Some(contact.a),
        );
        ok = false;
    }
    if ok {
        state.last_contact_start = contact.start;
    }
    ok
}

/// Checks [`AuditLaw::BufferAccounting`] over a slice of per-node
/// buffers: the used-byte counter must equal the recomputed sum of
/// stored item sizes and stay within capacity. Shared by every scheme's
/// [`Scheme::audit`](crate::engine::Scheme::audit) implementation.
pub fn check_buffers(buffers: &[Buffer], at: Time, report: &mut AuditReport) {
    for (n, buf) in buffers.iter().enumerate() {
        let node = NodeId(n as u32);
        let actual: u64 = buf.iter().map(|d| d.size).sum();
        if buf.used() != actual {
            report.violate(AuditViolation {
                law: AuditLaw::BufferAccounting,
                at,
                node: Some(node),
                item: None,
                detail: format!("used counter {} != stored bytes {actual}", buf.used()),
            });
        }
        if buf.used() > buf.capacity() {
            report.violate(AuditViolation {
                law: AuditLaw::BufferAccounting,
                at,
                node: Some(node),
                item: None,
                detail: format!("used {} exceeds capacity {}", buf.used(), buf.capacity()),
            });
        }
    }
}

/// Checks [`AuditLaw::DelayDecomposition`]: the probe's summed
/// three-phase decomposition must equal the metrics' total delay, and
/// the probe must have a delivered trace per satisfied query. Run at
/// end of run by harnesses that install a [`RecordingProbe`] (the
/// engine cannot see through its type-erased probe sink).
pub fn check_delay_decomposition(
    probe: &RecordingProbe,
    metrics: &Metrics,
    at: Time,
    report: &mut AuditReport,
) {
    let decomposed = probe.total_decomposition().total_secs();
    if decomposed != metrics.total_delay_secs {
        report.violate(AuditViolation {
            law: AuditLaw::DelayDecomposition,
            at,
            node: None,
            item: None,
            detail: format!(
                "probe decomposition sums to {decomposed}s, metrics recorded {}s",
                metrics.total_delay_secs
            ),
        });
    }
    let delivered = probe.traces().filter(|t| t.delivered()).count() as u64;
    if delivered != metrics.queries_satisfied {
        report.violate(AuditViolation {
            law: AuditLaw::DelayDecomposition,
            at,
            node: None,
            item: None,
            detail: format!(
                "probe saw {delivered} delivered traces, metrics satisfied {}",
                metrics.queries_satisfied
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DeliveryOutcome;
    use crate::probe::{Probe, ProbeEvent};
    use dtn_core::ids::QueryId;
    use dtn_core::time::Duration;

    fn violation(at: u64, detail: &str) -> AuditViolation {
        AuditViolation {
            law: AuditLaw::CopyConservation,
            at: Time(at),
            node: Some(NodeId(3)),
            item: Some(DataId(7)),
            detail: detail.to_owned(),
        }
    }

    #[test]
    fn report_counts_past_the_storage_cap() {
        let mut report = AuditReport::default();
        assert!(report.is_clean());
        for i in 0..(MAX_STORED_VIOLATIONS as u64 + 10) {
            report.violate(violation(i, "drift"));
        }
        assert!(!report.is_clean());
        assert_eq!(report.violations().len(), MAX_STORED_VIOLATIONS);
        assert_eq!(report.violations_total(), MAX_STORED_VIOLATIONS as u64 + 10);
        assert!(report.summary().contains("FAILED"));
    }

    #[test]
    fn violation_display_names_law_node_and_item() {
        let v = violation(42, "expected 1, got 2");
        let s = v.to_string();
        assert!(s.contains("copy-conservation"), "{s}");
        assert!(s.contains("t+42s"), "{s}");
        assert!(s.contains("node n3"), "{s}");
        assert!(s.contains("item d7"), "{s}");
        assert!(s.contains("expected 1, got 2"), "{s}");
    }

    #[test]
    fn law_names_are_distinct() {
        let laws = [
            AuditLaw::CopyConservation,
            AuditLaw::BufferAccounting,
            AuditLaw::LinkBudget,
            AuditLaw::QueryConservation,
            AuditLaw::DeliveryAccounting,
            AuditLaw::DelayDecomposition,
            AuditLaw::IndexConsistency,
            AuditLaw::TraceMonotonicity,
        ];
        let names: std::collections::BTreeSet<_> = laws.iter().map(|l| l.name()).collect();
        assert_eq!(names.len(), laws.len());
    }

    #[test]
    fn contact_shape_checker_accepts_ordered_well_formed_contacts() {
        let mut state = AuditState::default();
        let a = Contact {
            a: NodeId(0),
            b: NodeId(1),
            start: Time(100),
            end: Time(160),
        };
        let b = Contact {
            a: NodeId(2),
            b: NodeId(3),
            start: Time(100),
            end: Time(220),
        };
        assert!(check_contact_well_formed(&a, 4, &mut state));
        assert!(
            check_contact_well_formed(&b, 4, &mut state),
            "ties are in order"
        );
        assert!(state.report.is_clean());
        assert_eq!(state.last_contact_start, Time(100));
    }

    #[test]
    fn contact_shape_checker_flags_each_malformation() {
        let mut state = AuditState::default();
        let good = Contact {
            a: NodeId(0),
            b: NodeId(1),
            start: Time(500),
            end: Time(560),
        };
        assert!(check_contact_well_formed(&good, 4, &mut state));

        // Negative duration.
        let negative = Contact {
            start: Time(600),
            end: Time(600),
            ..good
        };
        assert!(!check_contact_well_formed(&negative, 4, &mut state));
        // Self-contact.
        let selfc = Contact {
            b: NodeId(0),
            start: Time(700),
            end: Time(760),
            ..good
        };
        assert!(!check_contact_well_formed(&selfc, 4, &mut state));
        // Out of range.
        let oob = Contact {
            b: NodeId(9),
            start: Time(800),
            end: Time(860),
            ..good
        };
        assert!(!check_contact_well_formed(&oob, 4, &mut state));
        // Time travel: before the Time(500) high-water mark.
        let stale = Contact {
            start: Time(400),
            end: Time(460),
            ..good
        };
        assert!(!check_contact_well_formed(&stale, 4, &mut state));

        assert_eq!(state.report.violations_total(), 4);
        assert!(state
            .report
            .violations()
            .iter()
            .all(|v| v.law == AuditLaw::TraceMonotonicity));
        // Rejected contacts never advance the high-water mark.
        assert_eq!(state.last_contact_start, Time(500));
    }

    #[test]
    fn consistent_buffers_pass() {
        use crate::message::DataItem;
        let mut buf = Buffer::new(100);
        buf.insert(DataItem::new(
            DataId(1),
            NodeId(0),
            60,
            Time(0),
            Duration(100),
        ))
        .expect("fits");
        let mut report = AuditReport::default();
        check_buffers(&[buf, Buffer::new(10)], Time(5), &mut report);
        assert!(report.is_clean(), "{}", report.summary());
    }

    #[test]
    fn delay_decomposition_cross_check() {
        let mut probe = RecordingProbe::new();
        probe.record(&ProbeEvent::QueryInjected {
            at: Time(100),
            query: QueryId(0),
            requester: NodeId(1),
            data: DataId(1),
            expires_at: Time(9_000),
        });
        probe.record(&ProbeEvent::Delivery {
            at: Time(900),
            query: QueryId(0),
            outcome: DeliveryOutcome::Accepted {
                delay: Duration(800),
            },
        });
        let metrics = Metrics {
            queries_issued: 1,
            queries_satisfied: 1,
            total_delay_secs: 800,
            ..Metrics::default()
        };
        let mut report = AuditReport::default();
        check_delay_decomposition(&probe, &metrics, Time(900), &mut report);
        assert!(report.is_clean(), "{}", report.summary());

        // A metrics total the probe cannot account for is a violation.
        let skewed = Metrics {
            total_delay_secs: 801,
            ..metrics
        };
        let mut report = AuditReport::default();
        check_delay_decomposition(&probe, &skewed, Time(900), &mut report);
        assert_eq!(report.violations_total(), 1);
        assert_eq!(report.violations()[0].law, AuditLaw::DelayDecomposition);
    }
}
