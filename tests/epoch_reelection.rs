//! Online NCL re-election on a trace with a mid-run mobility shift.
//!
//! The regime-shift trace reverses the node identities at its midpoint:
//! the hubs the warm-up phase elects as Network Central Locations go
//! quiet exactly when the workload starts, so a frozen central set is
//! maximally stale. With `SimConfig::epoch_interval` set, the
//! intentional scheme periodically rebuilds the contact graph from the
//! live rate table, re-runs NCL selection, and migrates settled cache
//! copies from demoted centrals toward the newly elected ones (§V-A
//! relay rule on subsequent contacts). That adaptivity must (a) change
//! at least one central node and (b) strictly beat the frozen-NCL run
//! on successful-delivery ratio at the same seed.

use dtn_coop_cache::cache::experiment::configure_from_live_state;
use dtn_coop_cache::cache::intentional::{IntentionalConfig, IntentionalScheme, ReelectionStats};
use dtn_coop_cache::cache::CachingScheme;
use dtn_coop_cache::core::ids::{DataId, NodeId};
use dtn_coop_cache::core::time::Duration;
use dtn_coop_cache::sim::engine::{SimConfig, Simulator, WorkloadEvent};
use dtn_coop_cache::sim::message::DataItem;
use dtn_coop_cache::sim::metrics::Metrics;
use dtn_coop_cache::trace::synthetic::regime_shift_trace;
use dtn_coop_cache::trace::trace::ContactTrace;

const NODES: usize = 22;
const SEED: u64 = 11;

struct RunOutcome {
    metrics: Metrics,
    initial_centrals: Vec<NodeId>,
    final_centrals: Vec<NodeId>,
    stats: ReelectionStats,
}

/// Data in the early second half, queries spread across the rest of it.
fn workload(trace: &ContactTrace) -> Vec<WorkloadEvent> {
    let mid = trace.midpoint();
    let items = 20u64;
    let mut events = Vec::new();
    for i in 0..items {
        events.push(WorkloadEvent::GenerateData {
            item: DataItem::new(
                DataId(i),
                NodeId((i * 5 % NODES as u64) as u32),
                1_000,
                mid + Duration::minutes(10 * i),
                Duration::hours(22),
            ),
        });
    }
    for q in 0..90u64 {
        events.push(WorkloadEvent::IssueQuery {
            at: mid + Duration::minutes(60 + 13 * q),
            requester: NodeId(((q * 7 + 3) % NODES as u64) as u32),
            data: DataId(q * q % items),
            constraint: Duration::hours(8),
        });
    }
    events
}

fn run(epoch_interval: Option<Duration>) -> RunOutcome {
    let trace = regime_shift_trace(NODES, 4_000, SEED, Duration::days(1));
    let scheme = IntentionalScheme::new(IntentionalConfig {
        ncl_count: 3,
        ..IntentionalConfig::default()
    });
    let mut sim = Simulator::new(
        &trace,
        scheme,
        SimConfig {
            seed: SEED,
            buffer_range: (256_000, 512_000),
            epoch_interval,
            audit: true,
            ..SimConfig::default()
        },
    );
    let mid = trace.midpoint();
    sim.run_until(mid);
    configure_from_live_state(&mut sim, 3600.0 * 8.0, None);
    let initial_centrals = sim.scheme().central_nodes().to_vec();
    sim.add_workload(workload(&trace));
    sim.run_to_end();
    let report = sim.audit_report().expect("audit enabled");
    assert!(report.is_clean(), "{}", report.summary());
    assert!(report.sweeps() > 0, "audit never swept");
    RunOutcome {
        metrics: sim.metrics().clone(),
        initial_centrals,
        final_centrals: sim.scheme().central_nodes().to_vec(),
        stats: sim.scheme().reelection_stats(),
    }
}

#[test]
fn reelection_changes_centrals_and_beats_frozen_ncls() {
    let frozen = run(None);
    let adaptive = run(Some(Duration::hours(2)));

    // Epochs disabled: nothing fires, nothing moves.
    assert_eq!(frozen.stats, ReelectionStats::default());
    assert_eq!(frozen.final_centrals, frozen.initial_centrals);

    // Epochs enabled: elections ran and at least one central changed.
    assert!(adaptive.stats.elections > 0, "no epochs fired");
    assert!(
        adaptive.stats.central_changes >= 1,
        "the regime shift must demote at least one warm-up central: {:?}",
        adaptive.stats
    );
    assert_ne!(
        adaptive.final_centrals, adaptive.initial_centrals,
        "the central set must differ after the mobility shift"
    );
    // Both runs share the warm-up, so they start from the same set.
    assert_eq!(adaptive.initial_centrals, frozen.initial_centrals);

    eprintln!(
        "adaptive ratio {:.3} (stats {:?}) vs frozen {:.3}",
        adaptive.metrics.success_ratio(),
        adaptive.stats,
        frozen.metrics.success_ratio()
    );

    // The adaptive run answers strictly more queries at equal seed.
    assert_eq!(
        adaptive.metrics.queries_issued,
        frozen.metrics.queries_issued
    );
    assert!(
        adaptive.metrics.success_ratio() > frozen.metrics.success_ratio(),
        "adaptive {:.3} must beat frozen {:.3}",
        adaptive.metrics.success_ratio(),
        frozen.metrics.success_ratio()
    );
}

#[test]
fn migration_only_moves_copies_when_centrals_change() {
    let adaptive = run(Some(Duration::hours(2)));
    if adaptive.stats.central_changes == 0 {
        assert_eq!(adaptive.stats.migrated_copies, 0);
        assert_eq!(adaptive.stats.migrated_bytes, 0);
    } else {
        // Bytes only accrue alongside copies.
        assert!(adaptive.stats.migrated_bytes >= adaptive.stats.migrated_copies);
    }
}
