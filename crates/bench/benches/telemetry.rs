//! Flight-recorder overhead benchmark: the same fig10-style point run
//! uninstrumented, with a counters-only [`RecordingProbe`] carrying the
//! windowed [`Telemetry`] series, and with the hierarchical phase
//! profiler enabled.
//!
//! Three arms over the two stages of `run_experiment`
//! (`prepare_experiment`, then the measured half), the instrument
//! attached in between:
//!
//! - `off` — no probe, `profile: false`. This is the zero-cost-off
//!   gate arm: its time must stay within 5% of the committed
//!   `BENCH_sim_engine.json` optimized baseline, because with
//!   everything disabled the engine runs the identical hot loop.
//! - `telemetry` — the recorder (raw event stream off) with its window
//!   series installed as the probe. Measures the cost of counting every
//!   engine event, assembling the per-query traces and folding into the
//!   fixed window array. (Numbers committed before the window fold
//!   moved into the recorder timed the fold alone.)
//! - `profiler` — `profile: true`. Measures the scoped span tree
//!   (monotonic clock reads around engine phases).
//!
//! Before measuring, the instrumented arms assert bit-identical
//! [`Metrics`] against the `off` arm — they perturb nothing. The
//! committed `BENCH_telemetry.json` records the gate; `cargo bench -p
//! bench --bench telemetry -- --test` runs each body once as a CI smoke.

use bench::observe::Instruments;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dtn_cache::experiment::{build_scheme, prepare_experiment, ExperimentConfig};
use dtn_cache::SchemeKind;
use dtn_core::time::Duration;
use dtn_sim::engine::SimConfig;
use dtn_sim::metrics::Metrics;
use dtn_sim::probe::RecordingProbe;
use dtn_sim::telemetry::Telemetry;
use dtn_trace::synthetic::SyntheticTraceBuilder;
use dtn_trace::trace::ContactTrace;
use dtn_trace::TracePreset;

/// Same reduced fig10 point as `benches/sim_engine.rs`, so the `off`
/// arm is directly comparable to the committed optimized baseline.
const SCALE: f64 = 0.3;
const SEED: u64 = 42;

/// Which instrument the run carries.
#[derive(Clone, Copy, PartialEq)]
enum Instrument {
    Off,
    Telemetry,
    Profiler,
}

fn fig10_trace() -> ContactTrace {
    SyntheticTraceBuilder::from_preset(TracePreset::MitReality)
        .scale(SCALE)
        .seed(42)
        .build()
}

fn fig10_config() -> ExperimentConfig {
    ExperimentConfig {
        ncl_count: 8,
        mean_data_lifetime: Duration((Duration::weeks(1).as_secs() as f64 * SCALE) as u64)
            .max(Duration::hours(1)),
        ..ExperimentConfig::default()
    }
}

/// One benchmark point: the instrument rides the measured half only.
fn run_point(trace: &ContactTrace, config: &ExperimentConfig, instrument: Instrument) -> Metrics {
    let engine = SimConfig {
        seed: SEED,
        profile: instrument == Instrument::Profiler,
        ..SimConfig::default()
    };
    let scheme = build_scheme(SchemeKind::Intentional, config);
    let mut sim = prepare_experiment(trace, scheme, config, engine);

    let instruments = (instrument == Instrument::Telemetry).then(|| {
        let mid = trace.midpoint();
        let telemetry = Telemetry::spanning(
            mid,
            Duration(trace.duration().as_secs() - mid.0),
            24,
            config.ncl_count,
        );
        let recorder = RecordingProbe::new()
            .without_event_stream()
            .with_telemetry(telemetry);
        Instruments::install(&mut sim, recorder)
    });
    sim.run_to_end();

    if let Some(instruments) = instruments {
        let recorder = instruments.finish(&mut sim);
        black_box(recorder.telemetry().map(Telemetry::totals));
    }
    sim.metrics().clone()
}

fn bench_telemetry(c: &mut Criterion) {
    let trace = fig10_trace();
    let cfg = fig10_config();

    // Self-checks: neither instrument perturbs the engine.
    let off = run_point(&trace, &cfg, Instrument::Off);
    assert_eq!(
        run_point(&trace, &cfg, Instrument::Telemetry),
        off,
        "telemetry probe perturbed the run"
    );
    assert_eq!(
        run_point(&trace, &cfg, Instrument::Profiler),
        off,
        "profiler perturbed the run"
    );

    let mut group = c.benchmark_group("telemetry");
    for (name, instrument) in [
        ("off", Instrument::Off),
        ("telemetry", Instrument::Telemetry),
        ("profiler", Instrument::Profiler),
    ] {
        group.bench_with_input(
            BenchmarkId::new(name, "fig10_mit_single_seed"),
            &trace,
            |b, trace| b.iter(|| run_point(black_box(trace), black_box(&cfg), instrument)),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_telemetry
}
criterion_main!(benches);
