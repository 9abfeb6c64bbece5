//! Protocol trace: watch a single query travel through the intentional
//! caching scheme — push settling, query multicast, NCL broadcast,
//! probabilistic response, delivery (Fig. 5/6 of the paper, live).
//!
//! ```text
//! cargo run --release --example protocol_trace
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use dtn_coop_cache::cache::experiment::configure_from_live_state;
use dtn_coop_cache::cache::intentional::{IntentionalConfig, IntentionalScheme};
use dtn_coop_cache::cache::CachingScheme;
use dtn_coop_cache::core::ids::QueryId;
use dtn_coop_cache::core::time::Time;
use dtn_coop_cache::prelude::*;
use dtn_coop_cache::sim::engine::{SimConfig, Simulator};
use dtn_coop_cache::sim::probe::{FieldValue, ProbeEvent, RecordingProbe};
use dtn_coop_cache::workload::{Workload, WorkloadConfig};

/// The query an event belongs to, if it carries one.
fn query_of(event: &ProbeEvent) -> Option<QueryId> {
    let mut query = None;
    event.fields(&mut |name, value| {
        if let ("query", FieldValue::Int(q)) = (name, value) {
            query = Some(QueryId(q));
        }
    });
    query
}

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
    });

    let mut sim = Simulator::new(&trace, scheme, SimConfig::default());
    let mid = trace.midpoint();
    sim.run_until(mid);
    configure_from_live_state(&mut sim, 3600.0 * 6.0, None);
    println!("central nodes: {:?}\n", sim.scheme().central_nodes());

    // Record the measurement phase: the probe layer narrates every
    // protocol milestone.
    let recorder = Rc::new(RefCell::new(RecordingProbe::new()));
    sim.set_probe(Box::new(Rc::clone(&recorder)));

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
    let recorder = recorder.borrow();

    // Pick a delivered query with the richest lifecycle (reached a
    // central node, got broadcast, answered) and print it.
    let richest = recorder
        .traces()
        .filter(|t| t.delivered())
        .max_by_key(|t| t.hops.len() as u64 + t.broadcast_fanout)
        .map(|t| t.query);
    match richest {
        Some(q) => {
            println!("lifecycle of query {q}:");
            for e in recorder.events() {
                if query_of(e) == Some(q) {
                    println!("  {e:?}");
                }
            }
        }
        None => println!("no query delivered in this run — try another seed"),
    }

    let m = sim.metrics();
    println!(
        "\n{} push copies settled; {}/{} queries satisfied (mean delay {:.2} h)",
        recorder.count("push_settled"),
        m.queries_satisfied,
        m.queries_issued,
        m.avg_delay_hours(),
    );
}
