//! Conservation of the windowed flight recorder on an audited run.
//!
//! A [`RecordingProbe`] with a [`Telemetry`] series folds its event
//! stream into fixed simulation-time windows. Folding must lose
//! nothing: summing every window has to reproduce the engine's
//! [`Metrics`] totals *exactly* — strict equality, not approximation —
//! and agree with the recorder's own per-kind event counts. The run is fully audited so the totals being
//! conserved are themselves invariant-checked.
//!
//! Recording must also perturb nothing: the same experiment run with
//! every instrument off, with the recorder installed, with the phase
//! profiler on and with the audit on ends in `==` [`Metrics`].
//!
//! The path oracle's work counters ride outside [`Metrics`] — in the
//! report and the capture footer — and obey the same rule: one set of
//! counters in every place that reports them, unmoved by observing.

use bench::json::JsonValue;
use bench::observe::{write_jsonl, Instruments};
use bench::scale::{run_scale_observed, ScaleConfig};
use dtn_coop_cache::cache::experiment::{
    build_scheme, configure_from_live_state, prepare_experiment, ExperimentConfig,
};
use dtn_coop_cache::cache::intentional::{IntentionalConfig, IntentionalScheme};
use dtn_coop_cache::cache::SchemeKind;
use dtn_coop_cache::core::ids::{DataId, NodeId};
use dtn_coop_cache::core::time::{Duration, Time};
use dtn_coop_cache::sim::engine::{SimConfig, Simulator, WorkloadEvent};
use dtn_coop_cache::sim::message::DataItem;
use dtn_coop_cache::sim::metrics::Metrics;
use dtn_coop_cache::sim::probe::RecordingProbe;
use dtn_coop_cache::sim::telemetry::Counter::*;
use dtn_coop_cache::sim::telemetry::Telemetry;
use dtn_coop_cache::trace::synthetic::SyntheticTraceBuilder;
use dtn_coop_cache::trace::trace::ContactTrace;

const NODES: usize = 24;
const SEED: u64 = 5;

fn trace() -> ContactTrace {
    SyntheticTraceBuilder::new(NODES)
        .duration(Duration::days(2))
        .target_contacts(7_000)
        .seed(SEED)
        .build()
}

fn workload(trace: &ContactTrace) -> Vec<WorkloadEvent> {
    let mid = trace.midpoint();
    let items = 16u64;
    let mut events = Vec::new();
    for i in 0..items {
        events.push(WorkloadEvent::GenerateData {
            item: DataItem::new(
                DataId(i),
                NodeId((i * 5 % NODES as u64) as u32),
                1_200,
                mid + Duration::minutes(12 * i),
                Duration::hours(20),
            ),
        });
    }
    for q in 0..80u64 {
        events.push(WorkloadEvent::IssueQuery {
            at: mid + Duration::minutes(45 + 11 * q),
            requester: NodeId(((q * 7 + 3) % NODES as u64) as u32),
            data: DataId(q * q % items),
            constraint: Duration::hours(8),
        });
    }
    events
}

#[test]
fn window_sums_reproduce_metrics_totals_on_an_audited_run() {
    let trace = trace();
    let mid = trace.midpoint();

    let scheme = IntentionalScheme::new(IntentionalConfig {
        ncl_count: 4,
        ..IntentionalConfig::default()
    });
    let mut sim = Simulator::new(
        &trace,
        scheme,
        SimConfig {
            buffer_range: (40_000, 60_000),
            seed: SEED,
            audit: true,
            epoch_interval: Some(Duration::hours(6)),
            ..SimConfig::default()
        },
    );

    // Probes from t=0: the capture covers warm-up and measurement, so
    // every counter the engine ever bumps is in some window.
    let telemetry = Telemetry::spanning(Time(0), trace.duration(), 20, 4);
    let instruments =
        Instruments::install(&mut sim, RecordingProbe::new().with_telemetry(telemetry));

    sim.run_until(mid);
    configure_from_live_state(&mut sim, 7_200.0, None);
    sim.add_workload(workload(&trace));
    sim.run_to_end();

    let audit = sim.audit_report().expect("audit was enabled");
    assert!(audit.is_clean(), "audit violations: {}", audit.summary());

    let probe = instruments.finish(&mut sim);
    let telemetry = probe.telemetry().expect("window series installed");
    let m = sim.metrics();
    let t = telemetry.totals();

    // The run actually exercised the counters being conserved.
    assert!(m.queries_issued > 0 && m.queries_satisfied > 0);
    assert!(m.bytes_transmitted > 0);
    assert!(
        telemetry.windows().iter().filter(|w| !w.is_empty()).count() > 1,
        "fold degenerated into one window"
    );

    // Strict conservation against the engine metrics.
    assert_eq!(t[QueriesIssued], m.queries_issued);
    assert_eq!(t[Deliveries], m.queries_satisfied);
    assert_eq!(t[DelaySumSecs], m.total_delay_secs);
    assert_eq!(t[DuplicateDeliveries], m.duplicate_deliveries);
    assert_eq!(t[LateDeliveries], m.late_deliveries);
    assert_eq!(t[DataInjected], m.data_generated);
    assert_eq!(t[BytesTransmitted], m.bytes_transmitted);
    assert_eq!(t[TransfersRejected], m.transfers_rejected);
    assert_eq!(t[ContactsLost], m.contacts_lost);

    // And against the recorder's per-kind event counts.
    assert_eq!(t[Contacts], probe.count("contact_begin"));
    assert_eq!(t.ncl_load_total(), probe.count("query_at_central"));
    assert_eq!(t[Replacements], probe.count("replacement_evicted"));
    assert_eq!(t[Epochs], probe.count("epoch_fired"));
    assert_eq!(t[OracleRebuilds], probe.count("oracle_rebuilt"));
    let (_, recomputes, hits) = probe.oracle_counters();
    assert_eq!((t[OracleRecomputes], t[OracleHits]), (recomputes, hits));
}

/// Which instrument the run carries.
#[derive(Clone, Copy, PartialEq)]
enum Instrument {
    Off,
    Recorder,
    Profiler,
    Audit,
}

fn instrumented_run(
    trace: &ContactTrace,
    config: &ExperimentConfig,
    instrument: Instrument,
) -> Metrics {
    let engine = SimConfig {
        seed: SEED,
        profile: instrument == Instrument::Profiler,
        audit: instrument == Instrument::Audit,
        ..SimConfig::default()
    };
    let scheme = build_scheme(SchemeKind::Intentional, config);
    let mut sim = prepare_experiment(trace, scheme, config, engine);
    let instruments = (instrument == Instrument::Recorder).then(|| {
        let mid = trace.midpoint();
        let telemetry = Telemetry::spanning(
            mid,
            Duration(trace.duration().as_secs() - mid.0),
            24,
            config.ncl_count,
        );
        Instruments::install(&mut sim, RecordingProbe::new().with_telemetry(telemetry))
    });
    sim.run_to_end();
    if let Some(instruments) = instruments {
        let recorder = instruments.finish(&mut sim);
        assert!(recorder.count("contact_begin") > 0, "recorder saw the run");
    }
    sim.metrics().clone()
}

#[test]
fn instruments_perturb_nothing() {
    let trace = trace();
    let config = ExperimentConfig {
        ncl_count: 4,
        mean_data_lifetime: Duration::hours(8),
        mean_data_size: 2 << 20,
        buffer_range: (16 << 20, 48 << 20),
        ..ExperimentConfig::default()
    };
    let off = instrumented_run(&trace, &config, Instrument::Off);
    assert!(off.queries_issued > 0 && off.bytes_transmitted > 0);
    for (name, instrument) in [
        ("recorder + telemetry", Instrument::Recorder),
        ("profiler", Instrument::Profiler),
        ("audit", Instrument::Audit),
    ] {
        assert_eq!(
            instrumented_run(&trace, &config, instrument),
            off,
            "{name} perturbed the run"
        );
    }
}

#[test]
fn oracle_reads_are_conserved_on_a_bounded_run() {
    // A 400-node city on the bounded-reach branch (three hops), observed
    // and not. The report, the capture and its footer carry one set of
    // counters; observing changes no answer, so the scheme makes the same
    // reads and every counter is equal; and within a run each source's
    // reach is searched at most once per snapshot epoch.
    let nodes = 400;
    let cfg = ScaleConfig::city(nodes);
    let run = |observe| {
        let (report, observed) = run_scale_observed(&cfg, observe);
        let Some(observed) = observed else {
            return report.oracle;
        };
        let oracle = observed.oracle.expect("intentional scheme, configured");
        assert_eq!(oracle, report.oracle);
        let mut jsonl = Vec::new();
        write_jsonl(&observed, &mut jsonl).expect("in-memory write");
        let jsonl = String::from_utf8(jsonl).expect("utf-8");
        let footer = JsonValue::parse(jsonl.lines().last().expect("footer")).expect("parses");
        for (key, value) in [
            ("oracle_rebuilds", oracle.rebuilds),
            ("oracle_table_hits", oracle.table_hits),
            ("oracle_table_recomputes", oracle.table_recomputes),
            ("oracle_nodes_settled", oracle.nodes_settled),
            ("oracle_accumulators_built", oracle.accumulators_built),
            ("oracle_leaf_evaluations", oracle.leaf_evaluations),
            ("oracle_reach_bytes", oracle.reach_bytes),
            ("oracle_balls_built", oracle.balls_built),
            ("oracle_ball_bytes", oracle.ball_bytes),
        ] {
            assert_eq!(
                footer.get(key).and_then(JsonValue::as_u64),
                Some(value),
                "{key}"
            );
        }
        oracle
    };
    let observed = run(true);
    assert_eq!(observed, run(false), "observing moved the oracle");
    assert!(
        observed.table_hits > 0 && observed.leaf_evaluations > 0 && observed.reach_bytes > 0,
        "{observed:?}"
    );
    assert!(
        observed.table_recomputes <= observed.rebuilds * nodes as u64,
        "a source searched twice in one epoch: {observed:?}"
    );
}
