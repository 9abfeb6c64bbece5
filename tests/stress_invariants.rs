//! Randomized stress runs checking the intentional scheme's internal
//! invariants (buffer accounting, copy/holder consistency) across many
//! seeds, trace shapes and buffer pressures.

use dtn_coop_cache::cache::experiment::configure_from_live_state;
use dtn_coop_cache::cache::intentional::{IntentionalConfig, IntentionalScheme};
use dtn_coop_cache::cache::replacement::ReplacementKind;
use dtn_coop_cache::prelude::*;
use dtn_coop_cache::sim::engine::{SimConfig, Simulator};
use dtn_coop_cache::workload::{Workload, WorkloadConfig};

fn stress_once(
    seed: u64,
    nodes: usize,
    buffer_range: (u64, u64),
    replacement: ReplacementKind,
    ncl_count: usize,
) {
    let trace = SyntheticTraceBuilder::new(nodes)
        .duration(Duration::days(1))
        .target_contacts(300 * nodes as u64)
        .seed(seed)
        .build();
    let scheme = IntentionalScheme::new(IntentionalConfig {
        ncl_count,
        replacement,
        ..IntentionalConfig::default()
    });
    let mut sim = Simulator::new(
        &trace,
        scheme,
        SimConfig {
            seed,
            buffer_range,
            ..SimConfig::default()
        },
    );
    let mid = trace.midpoint();
    sim.run_until(mid);
    configure_from_live_state(&mut sim, 3600.0, None);
    let workload = Workload::generate(
        nodes,
        &WorkloadConfig {
            mean_lifetime: Duration::hours(4),
            mean_size: 600_000, // large relative to the tight buffers below
            seed,
            ..WorkloadConfig::new((mid, Time(trace.duration().as_secs())))
        },
    );
    sim.add_workload(workload.into_events());

    // Validate repeatedly during the run, not just at the end.
    let end = trace.duration().as_secs();
    for slice in 1..=4u64 {
        sim.run_until(Time(mid.as_secs() + (end - mid.as_secs()) * slice / 4));
        sim.scheme()
            .validate()
            .unwrap_or_else(|e| panic!("seed {seed} {replacement}: {e}"));
    }
    sim.run_to_end();
    sim.scheme().validate().expect("final state");
}

use dtn_coop_cache::core::time::Time;

#[test]
fn knapsack_replacement_under_pressure() {
    for seed in 0..6 {
        stress_once(
            seed,
            14,
            (1_000_000, 2_000_000), // 1-3 items per buffer
            ReplacementKind::UtilityKnapsack,
            3,
        );
    }
}

#[test]
fn traditional_replacements_under_pressure() {
    for (i, kind) in [
        ReplacementKind::Fifo,
        ReplacementKind::Lru,
        ReplacementKind::GreedyDualSize,
    ]
    .into_iter()
    .enumerate()
    {
        stress_once(100 + i as u64, 12, (900_000, 1_500_000), kind, 2);
    }
}

#[test]
fn roomy_buffers_many_ncls() {
    for seed in 0..3 {
        stress_once(
            200 + seed,
            18,
            (50_000_000, 80_000_000),
            ReplacementKind::UtilityKnapsack,
            6,
        );
    }
}
