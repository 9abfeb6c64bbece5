//! Failure injection: starved links, impossible buffers, hostile
//! workloads. The stack must degrade gracefully, never panic or
//! over-commit resources.

use dtn_coop_cache::cache::experiment::{build_scheme, configure_from_live_state};
use dtn_coop_cache::core::ids::{DataId, NodeId};
use dtn_coop_cache::prelude::*;
use dtn_coop_cache::sim::engine::{SimConfig, Simulator, WorkloadEvent};
use dtn_coop_cache::sim::message::DataItem;

fn trace(seed: u64) -> ContactTrace {
    SyntheticTraceBuilder::new(12)
        .duration(Duration::days(1))
        .target_contacts(3_000)
        .seed(seed)
        .build()
}

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        ncl_count: 2,
        mean_data_lifetime: Duration::hours(6),
        mean_data_size: 1 << 20,
        buffer_range: (8 << 20, 16 << 20),
        ..ExperimentConfig::default()
    }
}

/// Runs a scheme with a custom SimConfig through the standard two-phase
/// protocol.
fn run_with_sim_config(
    trace: &ContactTrace,
    kind: SchemeKind,
    config: &ExperimentConfig,
    sim_config: SimConfig,
) -> dtn_coop_cache::sim::metrics::Metrics {
    let scheme = build_scheme(kind, config);
    let mut sim = Simulator::new(trace, scheme, sim_config);
    let mid = trace.midpoint();
    sim.run_until(mid);
    configure_from_live_state(&mut sim, 3600.0, None);
    let mut events = Vec::new();
    for i in 0..6u64 {
        events.push(WorkloadEvent::GenerateData {
            item: DataItem::new(
                DataId(i),
                NodeId((i % 12) as u32),
                1 << 20,
                mid + Duration::minutes(i),
                Duration::hours(8),
            ),
        });
        events.push(WorkloadEvent::IssueQuery {
            at: mid + Duration::hours(1),
            requester: NodeId(((i + 6) % 12) as u32),
            data: DataId(i),
            constraint: Duration::hours(8),
        });
    }
    sim.add_workload(events);
    sim.run_to_end();
    sim.metrics().clone()
}

#[test]
fn one_byte_per_second_links_starve_all_schemes() {
    // With 1 B/s links, a 1 MiB item can never cross a contact; every
    // scheme must end with zero satisfied data queries and many
    // rejected transfers — and must not panic.
    let trace = trace(1);
    for kind in SchemeKind::ALL {
        let m = run_with_sim_config(
            &trace,
            kind,
            &cfg(),
            SimConfig {
                bandwidth_bytes_per_sec: 1,
                query_size_bytes: 16, // queries still tiny enough to move
                ..SimConfig::default()
            },
        );
        assert_eq!(
            m.queries_satisfied, 0,
            "{kind}: data crossed a starved link"
        );
    }
}

#[test]
fn buffers_smaller_than_any_item_disable_caching() {
    // Buffers of 10 bytes cannot hold 1 MiB items anywhere — including
    // at the data source, so nothing can ever be delivered.
    let trace = trace(2);
    for kind in SchemeKind::ALL {
        let m = run_with_sim_config(
            &trace,
            kind,
            &cfg(),
            SimConfig {
                buffer_range: (10, 10),
                ..SimConfig::default()
            },
        );
        for s in &m.samples {
            assert_eq!(s.copies, 0, "{kind}: cached into a 10-byte buffer");
        }
    }
}

#[test]
fn queries_for_expired_data_fail_cleanly() {
    let trace = trace(3);
    let scheme = build_scheme(SchemeKind::Intentional, &cfg());
    let mut sim = Simulator::new(&trace, scheme, SimConfig::default());
    let mid = trace.midpoint();
    sim.run_until(mid);
    configure_from_live_state(&mut sim, 3600.0, None);
    sim.add_workload(vec![
        WorkloadEvent::GenerateData {
            item: DataItem::new(
                DataId(0),
                NodeId(0),
                1000,
                mid + Duration::minutes(1),
                Duration::minutes(5), // expires almost immediately
            ),
        },
        WorkloadEvent::IssueQuery {
            at: mid + Duration::hours(2), // long after expiry
            requester: NodeId(5),
            data: DataId(0),
            constraint: Duration::hours(4),
        },
    ]);
    sim.run_to_end();
    assert_eq!(sim.metrics().queries_satisfied, 0);
}

#[test]
fn empty_trace_second_half_is_harmless() {
    // All contacts packed into the first half: the workload phase sees
    // no contacts at all.
    let contacts: Vec<_> = SyntheticTraceBuilder::new(8)
        .duration(Duration::hours(6))
        .target_contacts(500)
        .seed(4)
        .build()
        .contacts()
        .to_vec();
    let trace = ContactTrace::new(8, contacts, Duration::days(2));
    let report = run_experiment(&trace, SchemeKind::Intentional, &cfg(), 1);
    // Queries can only self-satisfy (requester happens to be a caching
    // node at issue time — impossible without contacts), so expect 0.
    assert_eq!(report.metrics.queries_satisfied, 0);
}
