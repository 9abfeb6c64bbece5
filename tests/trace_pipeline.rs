//! Trace toolkit integration: generation → CSV → statistics → NCL
//! selection, across crates.

use dtn_coop_cache::core::graph::ContactGraph;
use dtn_coop_cache::core::ncl::{select_by_strategy, SelectionStrategy};
use dtn_coop_cache::core::time::Time;
use dtn_coop_cache::prelude::*;
use dtn_coop_cache::trace::io::{read_trace, write_trace};
use dtn_coop_cache::trace::stats::{metric_distribution, TraceStats};
use dtn_coop_cache::trace::TracePreset;

#[test]
fn csv_roundtrip_preserves_every_preset() {
    for preset in TracePreset::ALL {
        let trace = SyntheticTraceBuilder::from_preset(preset)
            .scale(0.02)
            .seed(8)
            .build();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).expect("write to Vec");
        let restored = read_trace(&buf[..]).expect("read own output");
        assert_eq!(trace, restored, "{}", preset.name());
    }
}

#[test]
fn stats_match_preset_calibration() {
    let scale = 0.05;
    for preset in TracePreset::ALL {
        let trace = SyntheticTraceBuilder::from_preset(preset)
            .scale(scale)
            .seed(3)
            .build();
        let stats = TraceStats::compute(&trace);
        assert_eq!(stats.nodes, preset.node_count());
        let target = preset.total_contacts() as f64 * scale;
        assert!(
            (stats.contacts as f64 - target).abs() < 0.3 * target,
            "{}: {} contacts vs target {target}",
            preset.name(),
            stats.contacts
        );
    }
}

#[test]
fn ncl_selection_agrees_between_stats_and_core() {
    let trace = SyntheticTraceBuilder::from_preset(TracePreset::Infocom05)
        .scale(0.05)
        .seed(5)
        .build();
    let horizon = TracePreset::Infocom05.ncl_horizon().as_secs_f64();
    // Via the stats helper…
    let dist = metric_distribution(&trace, horizon);
    // …and via the core API directly.
    let end = Time(trace.duration().as_secs());
    let graph = ContactGraph::from_rate_table(&trace.rate_table(end), end);
    let top = select_by_strategy(&graph, 4, horizon, SelectionStrategy::PathMetric);
    let stats_top: Vec<_> = dist.iter().take(4).map(|s| s.node).collect();
    let core_top: Vec<_> = top.iter().map(|s| s.node).collect();
    assert_eq!(stats_top, core_top);
}

#[test]
fn metric_distribution_shows_hubs() {
    // The Fig. 4 property on the long heterogeneous traces: the top
    // node clearly beats the median node.
    for preset in [TracePreset::MitReality, TracePreset::Ucsd] {
        let trace = SyntheticTraceBuilder::from_preset(preset)
            .scale(0.05)
            .seed(7)
            .build();
        let dist = metric_distribution(&trace, preset.ncl_horizon().as_secs_f64());
        let max = dist[0].metric;
        let median = dist[dist.len() / 2].metric;
        assert!(
            max > 1.3 * median.max(1e-6),
            "{}: max {max:.3} vs median {median:.3} is not skewed",
            preset.name()
        );
    }
}
