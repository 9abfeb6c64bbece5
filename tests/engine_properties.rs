//! Property tests on the simulation engine: under arbitrary (valid)
//! workloads and traces, the metrics must stay internally consistent.

use dtn_coop_cache::cache::experiment::configure_from_live_state;
use dtn_coop_cache::core::ids::{DataId, NodeId};
use dtn_coop_cache::core::time::{Duration, Time};
use dtn_coop_cache::prelude::*;
use dtn_coop_cache::sim::engine::{SimConfig, Simulator, WorkloadEvent};
use dtn_coop_cache::sim::message::DataItem;
use proptest::prelude::*;

fn arbitrary_workload(nodes: u32, span: u64) -> impl Strategy<Value = Vec<WorkloadEvent>> {
    let item = (0..nodes, 1u64..4_000_000, 0..span / 2, 1u64..span).prop_map(
        move |(src, size, at, life)| WorkloadEvent::GenerateData {
            item: DataItem::new(
                DataId(0), // rewritten below to be unique
                NodeId(src),
                size,
                Time(at),
                Duration(life),
            ),
        },
    );
    let query =
        (0..nodes, 0u64..30, 0..span, 1u64..span).prop_map(move |(req, data, at, constraint)| {
            WorkloadEvent::IssueQuery {
                at: Time(at),
                requester: NodeId(req),
                data: DataId(data),
                constraint: Duration(constraint),
            }
        });
    prop::collection::vec(prop_oneof![item, query], 0..40).prop_map(|mut events| {
        // Make item ids unique and events time-ordered.
        let mut next_id = 0u64;
        for e in &mut events {
            if let WorkloadEvent::GenerateData { item } = e {
                *item = DataItem::new(
                    DataId(next_id),
                    item.source,
                    item.size,
                    item.created_at,
                    item.expires_at() - item.created_at,
                );
                next_id += 1;
            }
        }
        events.sort_by_key(|e| e.at());
        events
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every scheme and arbitrary workloads: counters stay
    /// consistent — satisfied ≤ issued, generated counts match, and
    /// success ratio is a probability.
    #[test]
    fn metrics_are_internally_consistent(
        events in arbitrary_workload(10, 40_000),
        scheme_idx in 0usize..6,
        seed in 0u64..1000,
    ) {
        let trace = SyntheticTraceBuilder::new(10)
            .duration(Duration(80_000))
            .target_contacts(1_500)
            .seed(seed)
            .build();
        let kind = SchemeKind::ALL_WITH_BOUNDS[scheme_idx];
        let cfg = ExperimentConfig {
            ncl_count: 2,
            buffer_range: (4_000_000, 8_000_000),
            ..ExperimentConfig::default()
        };
        let scheme = dtn_coop_cache::cache::experiment::build_scheme(kind, &cfg);
        let mut sim = Simulator::new(
            &trace,
            scheme,
            SimConfig { seed, buffer_range: cfg.buffer_range, ..SimConfig::default() },
        );
        // Configure at time zero so the whole span carries workload.
        configure_from_live_state(&mut sim, 3600.0, None);
        let generated = events
            .iter()
            .filter(|e| matches!(e, WorkloadEvent::GenerateData { .. }))
            .count() as u64;
        let issued = events
            .iter()
            .filter(|e| matches!(e, WorkloadEvent::IssueQuery { .. }))
            .count() as u64;
        sim.add_workload(events);
        let m = sim.run_to_end().clone();

        prop_assert_eq!(m.data_generated, generated);
        prop_assert_eq!(m.queries_issued, issued);
        prop_assert!(m.queries_satisfied <= m.queries_issued);
        prop_assert!((0.0..=1.0).contains(&m.success_ratio()));
        // Every sample is well-formed.
        for s in &m.samples {
            prop_assert!(s.copies >= s.distinct || s.distinct == 0 || s.copies >= 1);
        }
    }
}
