//! Robustness under radio-level contact loss: performance must degrade
//! monotonically-ish with the loss rate, never crash, and the loss must
//! be invisible to the protocol (no rate-table pollution).

use dtn_coop_cache::cache::experiment::{build_scheme, configure_from_live_state};
use dtn_coop_cache::core::time::Time;
use dtn_coop_cache::prelude::*;
use dtn_coop_cache::sim::engine::{SimConfig, Simulator};
use dtn_coop_cache::workload::{Workload, WorkloadConfig};

fn run_with_loss(loss: f64, seed: u64) -> dtn_coop_cache::sim::metrics::Metrics {
    let trace = SyntheticTraceBuilder::new(18)
        .duration(Duration::days(2))
        .target_contacts(9_000)
        .edge_density(0.3)
        .seed(31)
        .build();
    let cfg = ExperimentConfig {
        ncl_count: 3,
        mean_data_lifetime: Duration::hours(8),
        mean_data_size: 1 << 20,
        buffer_range: (16 << 20, 48 << 20),
        ..ExperimentConfig::default()
    };
    let scheme = build_scheme(SchemeKind::Intentional, &cfg);
    let mut sim = Simulator::new(
        &trace,
        scheme,
        SimConfig {
            seed,
            buffer_range: cfg.buffer_range,
            contact_loss_probability: loss,
            ..SimConfig::default()
        },
    );
    let mid = trace.midpoint();
    sim.run_until(mid);
    configure_from_live_state(&mut sim, 3600.0 * 4.0, None);
    let workload = Workload::generate(
        18,
        &WorkloadConfig {
            mean_lifetime: Duration::hours(8),
            mean_size: 1 << 20,
            seed,
            ..WorkloadConfig::new((mid, Time(trace.duration().as_secs())))
        },
    );
    sim.add_workload(workload.into_events());
    sim.run_to_end();
    sim.metrics().clone()
}

#[test]
fn heavy_contact_loss_hurts_but_never_breaks() {
    let mut prev_satisfied = u64::MAX;
    for loss in [0.0, 0.5, 0.9] {
        let mut satisfied = 0;
        for seed in 0..3 {
            let m = run_with_loss(loss, seed);
            assert!(m.queries_satisfied <= m.queries_issued);
            satisfied += m.queries_satisfied;
        }
        assert!(
            satisfied <= prev_satisfied.saturating_add(2),
            "loss {loss}: {satisfied} satisfied, more than at lower loss"
        );
        prev_satisfied = satisfied;
    }
}

#[test]
fn lost_contacts_never_reach_the_rate_table() {
    let m = run_with_loss(0.3, 1);
    assert!(m.contacts_lost > 0);
    // Satisfied queries still happen at 30% loss.
    assert!(m.queries_issued > 0);
}
