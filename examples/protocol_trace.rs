//! Protocol trace: watch a single query travel through the intentional
//! caching scheme — push settling, query multicast, NCL broadcast,
//! probabilistic response, delivery (Fig. 5/6 of the paper, live).
//!
//! ```text
//! cargo run --release --example protocol_trace
//! ```

use dtn_coop_cache::cache::experiment::configure_from_live_state;
use dtn_coop_cache::cache::intentional::{IntentionalConfig, IntentionalScheme, ProtocolEvent};
use dtn_coop_cache::cache::CachingScheme;
use dtn_coop_cache::core::time::Time;
use dtn_coop_cache::prelude::*;
use dtn_coop_cache::sim::engine::{SimConfig, Simulator};
use dtn_coop_cache::workload::{Workload, WorkloadConfig};

fn main() {
    let trace = SyntheticTraceBuilder::new(24)
        .duration(Duration::days(2))
        .target_contacts(10_000)
        .edge_density(0.3)
        .seed(11)
        .build();

    let scheme = IntentionalScheme::new(IntentionalConfig {
        ncl_count: 3,
        ..IntentionalConfig::default()
    })
    .enable_event_log();

    let mut sim = Simulator::new(&trace, scheme, SimConfig::default());
    let mid = trace.midpoint();
    sim.run_until(mid);
    configure_from_live_state(&mut sim, 3600.0 * 6.0, None);
    println!("central nodes: {:?}\n", sim.scheme().central_nodes());

    let workload = Workload::generate(
        trace.node_count(),
        &WorkloadConfig {
            mean_lifetime: Duration::hours(10),
            mean_size: 2 << 20,
            seed: 11,
            ..WorkloadConfig::new((mid, Time(trace.duration().as_secs())))
        },
    );
    sim.add_workload(workload.into_events());
    sim.run_to_end();

    // Pick a delivered query with the richest lifecycle (reached a
    // central node, got broadcast, answered) and print it.
    let events = sim.scheme().events();
    let query_of = |e: &ProtocolEvent| match e {
        ProtocolEvent::QueryAtCentral { query, .. }
        | ProtocolEvent::BroadcastSpread { query, .. }
        | ProtocolEvent::ResponseSpawned { query, .. }
        | ProtocolEvent::Delivered { query, .. } => Some(*query),
        ProtocolEvent::PushSettled { .. } | ProtocolEvent::CentralReelected { .. } => None,
    };
    let delivered = events
        .iter()
        .filter_map(|e| match e {
            ProtocolEvent::Delivered { query, .. } => Some(*query),
            _ => None,
        })
        .max_by_key(|q| events.iter().filter(|e| query_of(e) == Some(*q)).count());
    match delivered {
        Some(q) => {
            println!("lifecycle of query {q}:");
            for e in events {
                let relevant = match e {
                    ProtocolEvent::QueryAtCentral { query, .. }
                    | ProtocolEvent::BroadcastSpread { query, .. }
                    | ProtocolEvent::ResponseSpawned { query, .. }
                    | ProtocolEvent::Delivered { query, .. } => *query == q,
                    ProtocolEvent::PushSettled { .. } | ProtocolEvent::CentralReelected { .. } => {
                        false
                    }
                };
                if relevant {
                    println!("  {e:?}");
                }
            }
        }
        None => println!("no query delivered in this run — try another seed"),
    }

    let settled = events
        .iter()
        .filter(|e| matches!(e, ProtocolEvent::PushSettled { .. }))
        .count();
    let m = sim.metrics();
    println!(
        "\n{} push copies settled; {}/{} queries satisfied (mean delay {:.2} h)",
        settled,
        m.queries_satisfied,
        m.queries_issued,
        m.avg_delay_hours(),
    );
}
