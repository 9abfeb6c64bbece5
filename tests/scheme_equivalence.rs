//! Differential test: the indexed-queue intentional caching engine must
//! be indistinguishable from the retain-sweep reference implementation.
//!
//! `IntentionalScheme` indexes pending pulls/broadcasts/responses and
//! push copies per carrier node, garbage-collects expirations from
//! heaps, reuses knapsack scratch buffers and pools each §V-D exchange
//! from the per-holder copy indexes. `ReferenceIntentionalScheme` keeps
//! the original global vectors and full retain sweeps. Both must make
//! the same `try_transmit` calls in the same order and draw the same
//! RNG values, so every run must produce bit-identical `Metrics` —
//! asserted here with exact equality across randomized traces,
//! workloads and configurations.

use bench::observe::Instruments;
use dtn_coop_cache::cache::experiment::{
    configure_from_live_state, run_experiment, run_experiment_with, ExperimentConfig,
    ExperimentReport,
};
use dtn_coop_cache::cache::intentional::{IntentionalConfig, IntentionalScheme, ResponseStrategy};
use dtn_coop_cache::cache::reference::ReferenceIntentionalScheme;
use dtn_coop_cache::cache::replacement::ReplacementKind;
use dtn_coop_cache::cache::routing::ForwardingStrategy;
use dtn_coop_cache::cache::{CachingScheme, SchemeKind};
use dtn_coop_cache::core::ids::{DataId, NodeId};
use dtn_coop_cache::core::time::Duration;
use dtn_coop_cache::sim::engine::{SimConfig, Simulator, TraceSource, WorkloadEvent};
use dtn_coop_cache::sim::message::DataItem;
use dtn_coop_cache::sim::metrics::Metrics;
use dtn_coop_cache::sim::probe::{ProbeEvent, RecordingProbe};
use dtn_coop_cache::trace::synthetic::SyntheticTraceBuilder;
use dtn_coop_cache::trace::trace::ContactTrace;

use proptest::prelude::*;

fn trace_with(nodes: usize, contacts: u64, seed: u64) -> ContactTrace {
    SyntheticTraceBuilder::new(nodes)
        .duration(Duration::days(2))
        .target_contacts(contacts)
        .seed(seed)
        .build()
}

/// Runs one scheme through the standard warm-up → configure → workload
/// protocol and returns the finished simulator. Every run executes with
/// the invariant audit enabled and must come back clean.
fn run_audited<S: CachingScheme>(
    trace: &ContactTrace,
    scheme: S,
    events: Vec<WorkloadEvent>,
    sim_cfg: SimConfig,
) -> Simulator<S, TraceSource<'_>> {
    run_audited_with(trace, scheme, events, sim_cfg, |_| ()).0
}

/// [`run_audited`] with a hook on the fresh simulator (probe install);
/// also returns what the hook returned.
fn run_audited_with<'t, S: CachingScheme, R>(
    trace: &'t ContactTrace,
    scheme: S,
    events: Vec<WorkloadEvent>,
    sim_cfg: SimConfig,
    prepare: impl FnOnce(&mut Simulator<S, TraceSource<'t>>) -> R,
) -> (Simulator<S, TraceSource<'t>>, R) {
    let sim_cfg = SimConfig {
        audit: true,
        ..sim_cfg
    };
    let mut sim = Simulator::new(trace, scheme, sim_cfg);
    let prepared = prepare(&mut sim);
    let mid = trace.midpoint();
    sim.run_until(mid);
    configure_from_live_state(&mut sim, 7200.0, None);
    sim.add_workload(events);
    sim.run_to_end();
    let report = sim.audit_report().expect("audit enabled");
    assert!(report.is_clean(), "{}", report.summary());
    (sim, prepared)
}

/// One audited run's probe stream from t=0, minus the hop-level and
/// oracle diagnostics only the optimized scheme narrates: what is left
/// — every engine event plus the §V milestones (`push_settled`,
/// `query_at_central`, `broadcast_spread`, `response_spawned`,
/// `delivery`) — is the story both implementations must tell alike.
fn narrated<S: CachingScheme>(
    trace: &ContactTrace,
    scheme: S,
    events: Vec<WorkloadEvent>,
    sim_cfg: SimConfig,
) -> Vec<ProbeEvent> {
    const DIAGNOSTICS: [&str; 7] = [
        "push_relay",
        "query_relay",
        "response_decision",
        "response_relay",
        "replacement_evicted",
        "oracle_rebuilt",
        "oracle_invalidated",
    ];
    let (mut sim, instruments) = run_audited_with(trace, scheme, events, sim_cfg, |sim| {
        Instruments::install(sim, RecordingProbe::new())
    });
    let recorder = instruments.finish(&mut sim);
    let narrated = recorder.events().iter();
    narrated
        .filter(|e| !DIAGNOSTICS.contains(&e.kind()))
        .cloned()
        .collect()
}

/// [`run_audited`], reduced to its metrics plus per-NCL query load.
fn run_one<S: CachingScheme>(
    trace: &ContactTrace,
    scheme: S,
    events: Vec<WorkloadEvent>,
    sim_cfg: SimConfig,
) -> (Metrics, Vec<u64>) {
    let sim = run_audited(trace, scheme, events, sim_cfg);
    let load = sim.scheme().ncl_query_load().to_vec();
    (sim.metrics().clone(), load)
}

/// Asserts the optimized and reference schemes agree bit-for-bit on one
/// (trace, config, workload, seed) combination.
fn assert_equivalent(
    trace: &ContactTrace,
    cfg: &IntentionalConfig,
    events: &[WorkloadEvent],
    sim_cfg: &SimConfig,
) {
    let (fast, fast_load) = run_one(
        trace,
        IntentionalScheme::new(cfg.clone()),
        events.to_vec(),
        sim_cfg.clone(),
    );
    let (reference, ref_load) = run_one(
        trace,
        ReferenceIntentionalScheme::new(cfg.clone()),
        events.to_vec(),
        sim_cfg.clone(),
    );
    assert_eq!(fast, reference, "metrics diverged (cfg {cfg:?})");
    assert_eq!(fast_load, ref_load, "NCL query load diverged");
}

/// A mixed workload: `items` data items spread over the second half of
/// the trace, then `queries` Zipf-ish queries against them.
fn mixed_events(
    trace: &ContactTrace,
    nodes: u32,
    items: u64,
    queries: u64,
    size: u64,
) -> Vec<WorkloadEvent> {
    let mid = trace.midpoint();
    let life = Duration::hours(20);
    let mut events = Vec::new();
    for i in 0..items {
        events.push(WorkloadEvent::GenerateData {
            item: DataItem::new(
                DataId(i),
                NodeId((i * 7 % u64::from(nodes)) as u32),
                size,
                mid + Duration::minutes(3 * i),
                life,
            ),
        });
    }
    for q in 0..queries {
        // Zipf-ish skew: low data ids are queried more often.
        let data = DataId(q * q % items.max(1));
        events.push(WorkloadEvent::IssueQuery {
            at: mid + Duration::minutes(30 + 11 * q),
            requester: NodeId(((q * 5 + 2) % u64::from(nodes)) as u32),
            data,
            constraint: Duration::hours(10),
        });
    }
    events
}

#[test]
fn default_config_is_equivalent() {
    let trace = trace_with(16, 6_000, 21);
    let cfg = IntentionalConfig {
        ncl_count: 3,
        ..IntentionalConfig::default()
    };
    let events = mixed_events(&trace, 16, 12, 30, 1_000);
    let sim_cfg = SimConfig {
        seed: 21,
        ..SimConfig::default()
    };
    assert_equivalent(&trace, &cfg, &events, &sim_cfg);
}

#[test]
fn starved_links_are_equivalent() {
    // A contact carries a few messages at most, so the charge order
    // decides which copy of a multicast moves: a query's copies must step
    // in NCL order, as the reference's consecutive per-NCL copies do.
    let trace = trace_with(16, 6_000, 25);
    let cfg = IntentionalConfig {
        ncl_count: 5,
        ..IntentionalConfig::default()
    };
    let events = mixed_events(&trace, 16, 12, 80, 600);
    for bandwidth in [2, 8] {
        let sim_cfg = SimConfig {
            bandwidth_bytes_per_sec: bandwidth,
            query_size_bytes: 256,
            seed: 25,
            ..SimConfig::default()
        };
        assert_equivalent(&trace, &cfg, &events, &sim_cfg);
    }
}

#[test]
fn replacement_pressure_is_equivalent() {
    // Tight buffers: evictions, settles-on-full and §V-D moves all fire.
    let trace = trace_with(14, 5_000, 22);
    let cfg = IntentionalConfig {
        ncl_count: 2,
        ..IntentionalConfig::default()
    };
    let events = mixed_events(&trace, 14, 14, 40, 450);
    let sim_cfg = SimConfig {
        buffer_range: (1_000, 1_400),
        seed: 22,
        ..SimConfig::default()
    };
    assert_equivalent(&trace, &cfg, &events, &sim_cfg);
}

#[test]
fn traditional_policies_are_equivalent() {
    let trace = trace_with(12, 4_000, 23);
    for replacement in [
        ReplacementKind::Fifo,
        ReplacementKind::Lru,
        ReplacementKind::GreedyDualSize,
    ] {
        let cfg = IntentionalConfig {
            ncl_count: 2,
            replacement,
            ..IntentionalConfig::default()
        };
        let events = mixed_events(&trace, 12, 10, 25, 600);
        let sim_cfg = SimConfig {
            buffer_range: (1_500, 2_000),
            seed: 23,
            ..SimConfig::default()
        };
        assert_equivalent(&trace, &cfg, &events, &sim_cfg);
    }
}

#[test]
fn path_aware_response_is_equivalent() {
    let trace = trace_with(14, 5_000, 24);
    let cfg = IntentionalConfig {
        ncl_count: 3,
        response: ResponseStrategy::PathAware,
        ..IntentionalConfig::default()
    };
    let events = mixed_events(&trace, 14, 10, 30, 800);
    let sim_cfg = SimConfig {
        seed: 24,
        ..SimConfig::default()
    };
    assert_equivalent(&trace, &cfg, &events, &sim_cfg);
}

#[test]
fn response_routing_variants_are_equivalent() {
    let trace = trace_with(12, 4_000, 25);
    for routing in [
        ForwardingStrategy::Direct,
        ForwardingStrategy::Epidemic,
        ForwardingStrategy::SprayAndWait { initial_copies: 4 },
    ] {
        let cfg = IntentionalConfig {
            ncl_count: 2,
            response_routing: routing,
            ..IntentionalConfig::default()
        };
        let events = mixed_events(&trace, 12, 8, 24, 700);
        let sim_cfg = SimConfig {
            seed: 25,
            ..SimConfig::default()
        };
        assert_equivalent(&trace, &cfg, &events, &sim_cfg);
    }
}

#[test]
fn deterministic_selection_is_equivalent() {
    // probabilistic_selection = false exercises solve_in / Selection.
    let trace = trace_with(12, 4_000, 26);
    let cfg = IntentionalConfig {
        ncl_count: 2,
        probabilistic_selection: false,
        ..IntentionalConfig::default()
    };
    let events = mixed_events(&trace, 12, 12, 30, 500);
    let sim_cfg = SimConfig {
        buffer_range: (1_200, 1_600),
        seed: 26,
        ..SimConfig::default()
    };
    assert_equivalent(&trace, &cfg, &events, &sim_cfg);
}

#[test]
fn full_experiment_pipeline_is_equivalent() {
    // The generated (Zipf) workload through run_experiment[_with]: the
    // optimized scheme inside the real experiment runner must match the
    // reference given the same seed.
    let trace = trace_with(16, 5_000, 27);
    let cfg = ExperimentConfig {
        ncl_count: 3,
        mean_data_lifetime: Duration::hours(8),
        mean_data_size: 1 << 20,
        buffer_range: (8 << 20, 16 << 20),
        ..ExperimentConfig::default()
    };
    for seed in [1u64, 9] {
        let fast = run_experiment(&trace, SchemeKind::Intentional, &cfg, seed);
        let reference = run_experiment_with(
            &trace,
            SchemeKind::Intentional,
            Box::new(ReferenceIntentionalScheme::new(IntentionalConfig {
                ncl_count: cfg.ncl_count,
                response: cfg.response,
                replacement: cfg.replacement,
                probabilistic_selection: cfg.probabilistic_selection,
                response_routing: cfg.response_routing,
                ncl_selection: cfg.ncl_selection,
                ..IntentionalConfig::default()
            })),
            &cfg,
            seed,
        );
        // Everything but the oracle's work counters: the reference names
        // no targets, so its searches settle more nodes for the same
        // answers.
        assert!(fast.oracle.is_some() && reference.oracle.is_some());
        let outcome = |report| ExperimentReport {
            oracle: None,
            ..report
        };
        assert_eq!(outcome(fast), outcome(reference), "seed {seed}");
    }
}

fn arb_replacement() -> impl Strategy<Value = ReplacementKind> {
    prop_oneof![
        Just(ReplacementKind::UtilityKnapsack),
        Just(ReplacementKind::Fifo),
        Just(ReplacementKind::Lru),
        Just(ReplacementKind::GreedyDualSize),
    ]
}

fn arb_response() -> impl Strategy<Value = ResponseStrategy> {
    prop_oneof![
        Just(ResponseStrategy::default()),
        Just(ResponseStrategy::PathAware),
        Just(ResponseStrategy::Sigmoid {
            p_min: 0.2,
            p_max: 0.95
        }),
    ]
}

fn arb_routing() -> impl Strategy<Value = ForwardingStrategy> {
    prop_oneof![
        Just(ForwardingStrategy::Greedy),
        Just(ForwardingStrategy::Direct),
        Just(ForwardingStrategy::Epidemic),
        Just(ForwardingStrategy::SprayAndWait { initial_copies: 3 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized traces, workloads and scheme configurations: the
    /// indexed engine must reproduce the reference bit-for-bit.
    #[test]
    fn random_runs_are_equivalent(
        trace_seed in 0u64..1_000,
        sim_seed in 0u64..1_000,
        ncl_count in 1usize..=4,
        replacement in arb_replacement(),
        response in arb_response(),
        routing in arb_routing(),
        probabilistic in any::<bool>(),
        tight in any::<bool>(),
        items in 4u64..14,
        queries in 8u64..32,
    ) {
        let trace = trace_with(12, 3_000, trace_seed);
        let cfg = IntentionalConfig {
            ncl_count,
            replacement,
            response,
            response_routing: routing,
            probabilistic_selection: probabilistic,
            ..IntentionalConfig::default()
        };
        let size = if tight { 500 } else { 1_000 };
        let events = mixed_events(&trace, 12, items, queries, size);
        let sim_cfg = SimConfig {
            buffer_range: if tight { (1_100, 1_500) } else { (64_000, 96_000) },
            seed: sim_seed,
            ..SimConfig::default()
        };
        let (fast, fast_load) = run_one(
            &trace,
            IntentionalScheme::new(cfg.clone()),
            events.clone(),
            sim_cfg.clone(),
        );
        let (reference, ref_load) = run_one(
            &trace,
            ReferenceIntentionalScheme::new(cfg),
            events,
            sim_cfg,
        );
        prop_assert_eq!(fast, reference);
        prop_assert_eq!(fast_load, ref_load);
    }
}

#[test]
fn event_streams_are_equivalent() {
    // Beyond bit-identical metrics, both implementations must narrate
    // the run identically: the same engine events and §V milestones, in
    // the same order, with the same timestamps and payloads.
    let trace = trace_with(14, 5_000, 29);
    let cfg = IntentionalConfig {
        ncl_count: 3,
        ..IntentionalConfig::default()
    };
    let events = mixed_events(&trace, 14, 12, 30, 800);
    let sim_cfg = SimConfig {
        seed: 29,
        ..SimConfig::default()
    };
    let fast = narrated(
        &trace,
        IntentionalScheme::new(cfg.clone()),
        events.clone(),
        sim_cfg.clone(),
    );
    let reference = narrated(
        &trace,
        ReferenceIntentionalScheme::new(cfg),
        events,
        sim_cfg,
    );
    for milestone in [
        "push_settled",
        "query_at_central",
        "response_spawned",
        "delivery",
    ] {
        assert!(
            reference.iter().any(|e| e.kind() == milestone),
            "expected {milestone} milestones on a busy trace"
        );
    }
    assert_eq!(fast.len(), reference.len(), "event counts diverged");
    for (i, (f, r)) in fast.iter().zip(&reference).enumerate() {
        assert_eq!(f, r, "probe event streams diverged at event {i}");
    }
}

#[test]
fn long_run_with_expirations_is_equivalent() {
    // Short lifetimes force the expiry-heap GC paths (data, pending
    // messages, responded memos) to fire repeatedly mid-run.
    let trace = trace_with(14, 6_000, 28);
    let mid = trace.midpoint();
    let mut events = Vec::new();
    for i in 0..16u64 {
        events.push(WorkloadEvent::GenerateData {
            item: DataItem::new(
                DataId(i),
                NodeId((i % 14) as u32),
                800,
                mid + Duration::minutes(9 * i),
                Duration::hours(3), // expires well before trace end
            ),
        });
    }
    for q in 0..40u64 {
        events.push(WorkloadEvent::IssueQuery {
            at: mid + Duration::minutes(15 + 8 * q),
            requester: NodeId(((q * 3 + 1) % 14) as u32),
            data: DataId(q % 16),
            constraint: Duration::hours(2), // queries expire mid-run too
        });
    }
    let cfg = IntentionalConfig {
        ncl_count: 3,
        ..IntentionalConfig::default()
    };
    let sim_cfg = SimConfig {
        seed: 28,
        ..SimConfig::default()
    };
    assert_equivalent(&trace, &cfg, &events, &sim_cfg);
}
