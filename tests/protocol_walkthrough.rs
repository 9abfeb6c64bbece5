//! White-box walkthrough of the intentional scheme on a hand-crafted
//! deterministic trace, exercising the exact sequence of Fig. 5/6 of
//! the paper: push stops at a relay because the central node's buffer
//! is full, the query reaches the central node, gets broadcast inside
//! the NCL, and the caching node returns the data to the requester.

use bench::observe::Instruments;
use dtn_coop_cache::cache::experiment::configure_from_live_state;
use dtn_coop_cache::cache::intentional::{IntentionalConfig, IntentionalScheme, ResponseStrategy};
use dtn_coop_cache::cache::CachingScheme;
use dtn_coop_cache::core::ids::{DataId, NodeId};
use dtn_coop_cache::core::time::Time;
use dtn_coop_cache::prelude::*;
use dtn_coop_cache::sim::engine::{SimConfig, Simulator, WorkloadEvent};
use dtn_coop_cache::sim::message::DataItem;
use dtn_coop_cache::sim::probe::{ProbeEvent, RecordingProbe};
use dtn_coop_cache::trace::trace::Contact;

/// Nodes: 0 = source, 1 = bystander, 2 = hub (central), 3 = requester.
fn walkthrough_trace() -> ContactTrace {
    let mut contacts = Vec::new();
    // Warm-up [0, 1000]: node 2 is clearly the hub.
    for i in 0..10u64 {
        let t = 100 * i;
        contacts.push(Contact::new(
            NodeId(2),
            NodeId(0),
            Time(t + 1),
            Time(t + 20),
        ));
        contacts.push(Contact::new(
            NodeId(2),
            NodeId(1),
            Time(t + 30),
            Time(t + 50),
        ));
        contacts.push(Contact::new(
            NodeId(2),
            NodeId(3),
            Time(t + 60),
            Time(t + 80),
        ));
    }
    contacts.push(Contact::new(NodeId(0), NodeId(1), Time(200), Time(260)));
    contacts.push(Contact::new(NodeId(0), NodeId(1), Time(700), Time(760)));
    // Evaluation phase (after midpoint 10_000):
    contacts.push(Contact::new(
        NodeId(0),
        NodeId(2),
        Time(11_000),
        Time(11_100),
    )); // push meets full central
    contacts.push(Contact::new(
        NodeId(3),
        NodeId(2),
        Time(12_000),
        Time(12_100),
    )); // query reaches central
    contacts.push(Contact::new(
        NodeId(0),
        NodeId(2),
        Time(13_000),
        Time(13_100),
    )); // broadcast reaches cacher; response hops to hub
    contacts.push(Contact::new(
        NodeId(2),
        NodeId(3),
        Time(14_000),
        Time(14_100),
    )); // hub delivers the response
    ContactTrace::new(4, contacts, Duration(20_000))
}

/// Runs the walkthrough; returns the metrics and the §V milestones the
/// probe recorded during the evaluation phase.
fn run_walkthrough(
    response: ResponseStrategy,
) -> (dtn_coop_cache::sim::metrics::Metrics, Vec<ProbeEvent>) {
    let trace = walkthrough_trace();
    let scheme = IntentionalScheme::new(IntentionalConfig {
        ncl_count: 1,
        response,
        ..IntentionalConfig::default()
    });
    let mut sim = Simulator::new(
        &trace,
        scheme,
        SimConfig {
            seed: 5,
            sample_interval: Duration(1_000),
            ..SimConfig::default()
        },
    );
    let mid = trace.midpoint();
    sim.run_until(mid);
    // The central node's buffer is too small for the 1000-byte item;
    // everyone else has plenty of room.
    for (node, bytes) in [1_000_000, 1_000_000, 500, 1_000_000]
        .into_iter()
        .enumerate()
    {
        sim.set_buffer_capacity(NodeId(node as u32), bytes);
    }
    configure_from_live_state(&mut sim, 3600.0, None);
    assert_eq!(
        sim.scheme().central_nodes(),
        &[NodeId(2)],
        "the hub must be selected as the central node"
    );
    let instruments = Instruments::install(&mut sim, RecordingProbe::new());
    sim.add_workload(vec![
        WorkloadEvent::GenerateData {
            item: DataItem::new(DataId(0), NodeId(0), 1000, Time(10_500), Duration(9_000)),
        },
        WorkloadEvent::IssueQuery {
            at: Time(11_500),
            requester: NodeId(3),
            data: DataId(0),
            constraint: Duration(8_000),
        },
    ]);
    sim.run_to_end();
    let recorder = instruments.finish(&mut sim);
    let milestones = recorder.events().iter().filter(|e| {
        [
            "push_settled",
            "query_at_central",
            "broadcast_spread",
            "response_spawned",
            "delivery",
        ]
        .contains(&e.kind())
    });
    (sim.metrics().clone(), milestones.cloned().collect())
}

#[test]
fn broadcast_path_delivers_from_non_central_caching_node() {
    // Near-certain response probability makes the walkthrough
    // deterministic for the chosen seed.
    let (m, events) = run_walkthrough(ResponseStrategy::Sigmoid {
        p_min: 0.98,
        p_max: 0.999,
    });
    assert_eq!(m.queries_issued, 1);
    assert_eq!(m.queries_satisfied, 1, "metrics: {m:?}");
    // Delivered at the t = 14 000 contact; issued at 11 500.
    assert_eq!(m.total_delay_secs, 2_500);

    // The probe records the full Fig. 5/6 lifecycle in order: settle
    // at the relay → query at central → broadcast → response →
    // delivery.
    let kind_order: Vec<&str> = events.iter().map(ProbeEvent::kind).collect();
    assert_eq!(
        kind_order,
        [
            "push_settled",
            "query_at_central",
            "broadcast_spread",
            "response_spawned",
            "delivery"
        ],
        "events: {events:?}"
    );
    assert!(matches!(
        events[0],
        ProbeEvent::PushSettled {
            node: NodeId(0),
            ncl: 0,
            ..
        }
    ));
    assert!(matches!(
        events[2],
        ProbeEvent::BroadcastSpread {
            node: NodeId(0),
            ..
        }
    ));
}

#[test]
fn path_aware_response_also_delivers() {
    // Node 0 reaches node 3 only through the hub; the path weight over
    // the remaining ~6 500 s is high given the warm-up contact rates, so
    // the path-aware decision responds too (seeded).
    let (m, _) = run_walkthrough(ResponseStrategy::PathAware);
    assert_eq!(m.queries_satisfied, 1, "metrics: {m:?}");
}

#[test]
fn central_buffer_full_keeps_copy_at_relay() {
    // The same walkthrough, interrogated via cache samples: after the
    // t = 11 000 contact the item must still be cached (at node 0 — the
    // central node cannot hold it), i.e. exactly one copy, not zero and
    // not at the 500-byte buffer.
    let (m, _) = run_walkthrough(ResponseStrategy::Sigmoid {
        p_min: 0.98,
        p_max: 0.999,
    });
    let copies_mid: Vec<_> = m
        .samples
        .iter()
        .filter(|s| s.at > Time(11_000) && s.at < Time(19_000))
        .collect();
    assert!(!copies_mid.is_empty());
    for s in copies_mid {
        assert_eq!(s.copies, 1, "sample {s:?}");
        assert!(s.bytes == 1000);
    }
}
