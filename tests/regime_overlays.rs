//! Regime overlays under the audit layer.
//!
//! Two end-to-end guarantees:
//!
//! - a corrupted contact source — out-of-order, inverted, self-loop and
//!   out-of-range contacts spliced between valid ones — trips the
//!   trace-monotonicity law with one structured violation per bad
//!   contact and the run completes instead of panicking downstream;
//! - every composed [`RegimeOverlay`] stream stays audit-clean: the
//!   drop-only filtering cannot manufacture a violation of its own.

use dtn_coop_cache::cache::experiment::configure_from_live_state;
use dtn_coop_cache::cache::intentional::{IntentionalConfig, IntentionalScheme};
use dtn_coop_cache::prelude::*;
use dtn_coop_cache::sim::audit::AuditLaw;
use dtn_coop_cache::sim::engine::{ContactSource, SimConfig, Simulator, TraceSource};
use dtn_trace::trace::Contact;

/// A contact source that replays a literal contact list verbatim — no
/// ordering or well-formedness guarantees, unlike [`TraceSource`] and
/// the generators. This is the corruption injector.
struct RawSource {
    contacts: Vec<Contact>,
    next: usize,
    nodes: usize,
    end: Time,
}

impl ContactSource for RawSource {
    fn node_count(&self) -> usize {
        self.nodes
    }
    fn end_time(&self) -> Time {
        self.end
    }
    fn peek(&mut self) -> Option<Contact> {
        self.contacts.get(self.next).copied()
    }
    fn advance(&mut self) {
        self.next += 1;
    }
}

/// A well-formed contact `a—b` at `[start, start + 60)`.
fn ok_contact(a: u32, b: u32, start: u64) -> Contact {
    Contact::new(NodeId(a), NodeId(b), Time(start), Time(start + 60))
}

/// Literal struct construction bypasses [`Contact::new`]'s validation,
/// exactly like a corrupted on-disk trace or a buggy source would.
fn raw_contact(a: u32, b: u32, start: u64, end: u64) -> Contact {
    Contact {
        a: NodeId(a),
        b: NodeId(b),
        start: Time(start),
        end: Time(end),
    }
}

#[test]
fn corrupted_source_trips_trace_monotonicity_without_panicking() {
    let nodes = 6;
    let mut contacts = Vec::new();
    for i in 0..40u64 {
        contacts.push(ok_contact((i % 5) as u32, ((i % 5) + 1) as u32, 100 * i));
    }
    // Four distinct corruptions spliced mid-stream.
    contacts.insert(10, raw_contact(0, 1, 950, 940)); // inverted interval
    contacts.insert(20, raw_contact(3, 3, 1_900, 1_960)); // self-loop
    contacts.insert(30, raw_contact(2, 17, 2_800, 2_860)); // node out of range
    contacts.push(raw_contact(1, 2, 50, 110)); // time travel after 3900

    let source = RawSource {
        contacts,
        next: 0,
        nodes,
        end: Time(5_000),
    };
    let scheme = IntentionalScheme::new(IntentionalConfig {
        ncl_count: 2,
        ..IntentionalConfig::default()
    });
    let mut sim = Simulator::from_source(
        source,
        scheme,
        SimConfig {
            audit: true,
            seed: 9,
            ..SimConfig::default()
        },
    );
    sim.run_to_end();

    let report = sim.audit_report().expect("audit was enabled");
    let monotonicity: Vec<_> = report
        .violations()
        .iter()
        .filter(|v| v.law == AuditLaw::TraceMonotonicity)
        .collect();
    assert_eq!(
        monotonicity.len(),
        4,
        "each corruption reports exactly one violation: {report:?}"
    );
    // Quarantine keeps the malformed contacts out of the rate table:
    // only the 40 valid contacts are recorded.
    assert_eq!(
        report
            .violations()
            .iter()
            .filter(|v| v.law != AuditLaw::TraceMonotonicity)
            .count(),
        0,
        "quarantine must prevent secondary violations"
    );
    assert_eq!(sim.rate_table().total_contacts(), 40);
}

#[test]
fn clean_source_reports_no_monotonicity_violations() {
    let contacts: Vec<Contact> = (0..40u64)
        .map(|i| ok_contact((i % 5) as u32, ((i % 5) + 1) as u32, 100 * i))
        .collect();
    let source = RawSource {
        contacts,
        next: 0,
        nodes: 6,
        end: Time(5_000),
    };
    let mut sim = Simulator::from_source(
        source,
        IntentionalScheme::new(IntentionalConfig::default()),
        SimConfig {
            audit: true,
            seed: 9,
            ..SimConfig::default()
        },
    );
    sim.run_to_end();
    let report = sim.audit_report().expect("audit was enabled");
    assert!(report.is_clean(), "{}", report.summary());
    assert_eq!(sim.rate_table().total_contacts(), 40);
}

/// End-to-end: every overlay kind composed over a synthetic trace runs
/// audit-clean (including the trace-monotonicity law over the filtered
/// stream), and drop-kind overlays actually suppress contacts.
#[test]
fn every_overlay_kind_runs_audit_clean() {
    let trace = SyntheticTraceBuilder::new(16)
        .duration(Duration::days(1))
        .target_contacts(4_000)
        .contact_process(ContactProcessKind::PARETO)
        .seed(21)
        .build();
    let mid = trace.midpoint();
    let end = Time(trace.duration().as_secs());
    let window = (Time(mid.as_secs() + 3_600), Time(end.as_secs() - 3_600));
    let overlays = [
        RegimeOverlay::new(
            window.0,
            window.1,
            OverlayKind::FlashCrowd {
                item: DataId(0),
                requests: 12,
                constraint: Duration::hours(4),
            },
        )
        .unwrap(),
        RegimeOverlay::new(
            window.0,
            window.1,
            OverlayKind::NclBlackout {
                nodes: vec![NodeId(0), NodeId(1)],
            },
        )
        .unwrap(),
        RegimeOverlay::new(window.0, window.1, OverlayKind::Partition { cut: 8 }).unwrap(),
        RegimeOverlay::new(
            window.0,
            window.1,
            OverlayKind::BufferFamine {
                items: 6,
                size: 2_000,
            },
        )
        .unwrap(),
    ];
    for overlay in overlays {
        let name = overlay.kind.name();
        let drops = matches!(
            overlay.kind,
            OverlayKind::NclBlackout { .. } | OverlayKind::Partition { .. }
        );
        let extra = overlay.workload_events(16, 100);
        let source = OverlaySource::new(TraceSource::new(&trace), vec![overlay]);
        let mut sim = Simulator::from_source(
            source,
            IntentionalScheme::new(IntentionalConfig {
                ncl_count: 2,
                ..IntentionalConfig::default()
            }),
            SimConfig {
                audit: true,
                seed: 5,
                ..SimConfig::default()
            },
        );
        sim.run_until(mid);
        configure_from_live_state(&mut sim, 7_200.0, None);
        sim.add_workload(extra);
        sim.run_to_end();
        let report = sim.audit_report().expect("audit was enabled");
        assert!(report.is_clean(), "{name}: {}", report.summary());
        assert_eq!(
            sim.source().dropped() > 0,
            drops,
            "{name}: unexpected drop count {}",
            sim.source().dropped()
        );
    }
}
