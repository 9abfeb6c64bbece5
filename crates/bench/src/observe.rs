//! The `observe`/`timeline` capture layer: one fully-instrumented
//! experiment run behind one versioned JSONL emitter.
//!
//! Re-runs a figure's base configuration (intentional scheme, same
//! warm-up → configure → workload protocol as
//! [`dtn_cache::experiment::run_experiment`]) with a
//! [`RecordingProbe`] *and* a windowed [`Telemetry`] recorder tee'd
//! onto the probe layer, plus the hierarchical phase profiler, then
//!
//! - streams the capture as versioned JSONL (`--out PATH`): a
//!   [`RUN_SCHEMA`] header, every probe event, every assembled query
//!   trace, the telemetry window series, the phase-profile rows, and a
//!   totals footer the `experiments compare` harness aligns runs by;
//! - renders a human-readable post-mortem ([`render_report`]) or the
//!   over-time timeline view ([`render_timeline`]).
//!
//! [`observe_any`] is the single entry point every subcommand routes
//! through: the five figures plus the `regimes` blackout cell and the
//! `scale` streaming smoke run, so every target shares the emitter.
//!
//! The probe is installed *after* `configure` for figure runs, so the
//! export covers the measurement phase only — the phase every figure
//! reports on. (`scale` captures from t=0: its warm-up half is part of
//! what the streaming timeline is for.)

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::rc::Rc;

use dtn_cache::experiment::{build_scheme, prepare_experiment, ExperimentConfig};
use dtn_cache::{CachingScheme, SchemeKind};
use dtn_core::ids::NodeId;
use dtn_core::time::Duration;
use dtn_sim::engine::{ContactSource, Scheme, SimConfig, Simulator};
use dtn_sim::metrics::Metrics;
use dtn_sim::probe::{ProbeEvent, QueryTrace, RecordingProbe, TeeProbe};
use dtn_sim::profiler::ProfileReport;
use dtn_sim::telemetry::{Telemetry, TelemetryConfig};
use dtn_trace::synthetic::regime_shift_trace;
use dtn_trace::trace::ContactTrace;
use dtn_trace::TracePreset;

use crate::figures::{mit_config, preset_trace};

/// Version tag of the JSONL run capture (header + footer layout).
/// `dtn-observe/1` was the unversioned header-only format; `compare`
/// still parses it.
pub const RUN_SCHEMA: &str = "dtn-observe/2";

/// Telemetry windows a capture folds its measurement phase into.
pub const TIMELINE_WINDOWS: u64 = 24;

/// Everything one instrumented run produced.
#[derive(Debug)]
pub struct ObserveRun {
    /// The figure whose base configuration ran (or `regimes`/`scale`).
    pub figure: String,
    /// The scheme that ran (always the intentional scheme today).
    pub scheme: SchemeKind,
    /// Workload/protocol seed.
    pub seed: u64,
    /// Engine metrics of the run.
    pub metrics: Metrics,
    /// The recorder with events, traces, counters and histograms.
    pub probe: RecordingProbe,
    /// The windowed flight recorder tee'd onto the same event stream.
    pub telemetry: Telemetry,
    /// The hierarchical phase profile of the run.
    pub profile: Option<ProfileReport>,
    /// Central nodes after the run (reflects re-elections).
    pub central_nodes: Vec<NodeId>,
    /// Queries that arrived at each central node, by NCL index.
    pub ncl_query_load: Vec<u64>,
}

/// The capture pair every instrumented harness rides on: a
/// [`RecordingProbe`] and a windowed [`Telemetry`] recorder folding the
/// identical event stream behind one [`TeeProbe`].
pub struct Instruments {
    recorder: Rc<RefCell<RecordingProbe>>,
    telemetry: Rc<RefCell<Telemetry>>,
}

impl Instruments {
    /// Installs both recorders as `sim`'s probe; events flow into them
    /// from now on.
    pub fn install<S: Scheme, C: ContactSource>(
        sim: &mut Simulator<S, C>,
        recorder: RecordingProbe,
        telemetry: Telemetry,
    ) -> Self {
        let recorder = Rc::new(RefCell::new(recorder));
        let telemetry = Rc::new(RefCell::new(telemetry));
        sim.set_probe(Box::new(TeeProbe::new(
            Box::new(Rc::clone(&recorder)),
            Box::new(Rc::clone(&telemetry)),
        )));
        Instruments {
            recorder,
            telemetry,
        }
    }

    /// Detaches the probe from `sim` and returns both recorders.
    pub fn finish<S: Scheme, C: ContactSource>(
        self,
        sim: &mut Simulator<S, C>,
    ) -> (RecordingProbe, Telemetry) {
        drop(sim.take_probe());
        let recorder = Rc::try_unwrap(self.recorder)
            .expect("engine returned its probe handle")
            .into_inner();
        let telemetry = Rc::try_unwrap(self.telemetry)
            .expect("engine returned its telemetry handle")
            .into_inner();
        (recorder, telemetry)
    }
}

impl ObserveRun {
    /// Collects a finished, instrumented intentional-scheme run.
    pub(crate) fn capture<S: CachingScheme, C: ContactSource>(
        figure: &str,
        seed: u64,
        sim: &mut Simulator<S, C>,
        instruments: Instruments,
    ) -> Self {
        let (probe, telemetry) = instruments.finish(sim);
        ObserveRun {
            figure: figure.to_string(),
            scheme: SchemeKind::Intentional,
            seed,
            metrics: sim.metrics().clone(),
            probe,
            telemetry,
            profile: sim.profile_report(),
            central_nodes: sim.scheme().central_nodes().to_vec(),
            ncl_query_load: sim.scheme().ncl_query_load().to_vec(),
        }
    }
}

/// The figures `observe` knows base configurations for.
pub const FIGURES: [&str; 5] = ["fig10", "fig11", "fig12", "fig13", "churn"];

/// Every target [`observe_any`] accepts: the figures plus the hostile-
/// regime blackout cell and the city-scale streaming smoke run.
pub const TARGETS: [&str; 7] = [
    "fig10", "fig11", "fig12", "fig13", "churn", "regimes", "scale",
];

/// The trace and base configuration behind one figure, at `scale`
/// (trace seeds are pinned to the figures' 42).
fn figure_setup(figure: &str, scale: f64) -> Option<(ContactTrace, ExperimentConfig)> {
    match figure {
        // The three MIT Reality sweeps share one base point.
        "fig10" | "fig11" | "fig12" => Some((
            preset_trace(TracePreset::MitReality, scale, 42),
            mit_config(scale),
        )),
        "fig13" => {
            let lifetime = Duration((Duration::hours(3).as_secs() as f64 * scale) as u64)
                .max(Duration::minutes(30));
            Some((
                preset_trace(TracePreset::Infocom06, scale, 42),
                ExperimentConfig {
                    ncl_count: TracePreset::Infocom06.default_ncl_count(),
                    mean_data_lifetime: lifetime,
                    ..ExperimentConfig::default()
                },
            ))
        }
        // The churn study's regime-shift trace with online re-election:
        // exercises epoch, re-election and oracle-invalidation events.
        "churn" => {
            let s = scale.max(0.05);
            let half =
                Duration((Duration::days(2).as_secs() as f64 * s) as u64).max(Duration::hours(4));
            let trace = regime_shift_trace(30, (10_000.0 * s) as u64, 42, half);
            let cfg = ExperimentConfig {
                ncl_count: 4,
                mean_data_lifetime: Duration((half.as_secs() as f64 * 0.9) as u64),
                epoch_interval: Some(
                    Duration((half.as_secs() as f64 * 0.25) as u64).max(Duration::minutes(30)),
                ),
                ..ExperimentConfig::default()
            };
            Some((trace, cfg))
        }
        _ => None,
    }
}

/// Runs the named figure's base configuration once with a recording
/// probe covering the measurement phase. `Err` names the unknown figure.
pub fn observe_figure(figure: &str, scale: f64, seed: u64) -> Result<ObserveRun, String> {
    let (trace, config) = figure_setup(figure, scale)
        .ok_or_else(|| format!("unknown figure {figure:?}; expected one of {FIGURES:?}"))?;
    let engine = SimConfig {
        seed,
        profile: true,
        ..SimConfig::default()
    };
    let scheme = build_scheme(SchemeKind::Intentional, &config);
    let mut sim = prepare_experiment(&trace, scheme, &config, engine);

    // Warm-up and configure ran unobserved: the recording probe and the
    // windowed flight recorder cover the measurement half only.
    let mid = trace.midpoint();
    let telemetry = Telemetry::new(&TelemetryConfig::spanning(
        mid,
        Duration(trace.duration().as_secs() - mid.0),
        TIMELINE_WINDOWS,
        config.ncl_count,
    ));
    let instruments = Instruments::install(&mut sim, RecordingProbe::new(), telemetry);
    sim.run_to_end();
    Ok(ObserveRun::capture(figure, seed, &mut sim, instruments))
}

/// The unified capture entry point: figures run through
/// [`observe_figure`], `regimes` runs the instrumented
/// NCL-blackout cell, `scale` runs the instrumented streaming smoke
/// city. Every target returns the same [`ObserveRun`] and therefore
/// shares one JSONL emitter and one report/timeline renderer.
pub fn observe_any(target: &str, scale: f64, seed: u64) -> Result<ObserveRun, String> {
    match target {
        "regimes" => Ok(crate::regimes::observe_blackout(scale, seed)),
        "scale" => Ok(crate::scale::observe_city_smoke(seed)),
        _ => observe_figure(target, scale, seed),
    }
    .map_err(|_| format!("unknown target {target:?}; expected one of {TARGETS:?}"))
}

/// One `{"type":"run",...}` JSONL header line describing the run. The
/// `schema`/`telemetry_schema` tags version the capture; the legacy
/// per-run totals stay in place so pre-versioning consumers keep
/// working.
pub fn run_header_json(run: &ObserveRun) -> String {
    let d = run.probe.total_decomposition();
    format!(
        "{{\"type\":\"run\",\"schema\":\"{RUN_SCHEMA}\",\"telemetry_schema\":\"{}\",\
         \"figure\":\"{}\",\"scheme\":\"{}\",\"seed\":{},\
         \"window_secs\":{},\"origin\":{},\
         \"queries_issued\":{},\"queries_satisfied\":{},\"total_delay_secs\":{},\
         \"pull_secs\":{},\"ncl_secs\":{},\"response_secs\":{}}}",
        Telemetry::SCHEMA,
        run.figure,
        run.scheme.name(),
        run.seed,
        run.telemetry.window_secs(),
        run.telemetry.origin().0,
        run.metrics.queries_issued,
        run.metrics.queries_satisfied,
        run.metrics.total_delay_secs,
        d.pull_secs,
        d.ncl_secs,
        d.response_secs,
    )
}

/// The `{"type":"footer",...}` closing line: whole-run totals from the
/// engine metrics (the authoritative side of the conservation check)
/// plus the non-empty telemetry window count, so `compare` can align
/// and sanity-check a capture without replaying its event stream.
pub fn run_footer_json(run: &ObserveRun) -> String {
    let m = &run.metrics;
    let windows = run
        .telemetry
        .windows()
        .iter()
        .filter(|w| !w.is_empty())
        .count();
    format!(
        "{{\"type\":\"footer\",\"schema\":\"{RUN_SCHEMA}\",\
         \"queries_issued\":{},\"queries_satisfied\":{},\"total_delay_secs\":{},\
         \"duplicate_deliveries\":{},\"late_deliveries\":{},\"data_generated\":{},\
         \"bytes_transmitted\":{},\"transfers_rejected\":{},\"contacts_lost\":{},\
         \"windows\":{windows}}}",
        m.queries_issued,
        m.queries_satisfied,
        m.total_delay_secs,
        m.duplicate_deliveries,
        m.late_deliveries,
        m.data_generated,
        m.bytes_transmitted,
        m.transfers_rejected,
        m.contacts_lost,
    )
}

/// Streams the run as versioned JSONL: the header, every probe event,
/// every assembled query trace, the telemetry window series, the phase
/// profile, and the totals footer. Returns the number of lines written.
pub fn write_jsonl(run: &ObserveRun, out: &mut dyn io::Write) -> io::Result<usize> {
    let mut lines = 0usize;
    writeln!(out, "{}", run_header_json(run))?;
    lines += 1;
    for event in run.probe.events() {
        writeln!(out, "{}", event.to_json())?;
        lines += 1;
    }
    for trace in run.probe.traces() {
        writeln!(out, "{}", trace.to_json())?;
        lines += 1;
    }
    for line in run.telemetry.to_jsonl().lines() {
        writeln!(out, "{line}")?;
        lines += 1;
    }
    if let Some(profile) = &run.profile {
        for line in profile.to_jsonl().lines() {
            writeln!(out, "{line}")?;
            lines += 1;
        }
    }
    writeln!(out, "{}", run_footer_json(run))?;
    lines += 1;
    Ok(lines)
}

/// [`write_jsonl`] into a file path.
pub fn write_jsonl_file(run: &ObserveRun, path: &Path) -> io::Result<usize> {
    let file = std::fs::File::create(path)?;
    let mut out = io::BufWriter::new(file);
    let lines = write_jsonl(run, &mut out)?;
    out.flush()?;
    Ok(lines)
}

fn render_trace(out: &mut String, t: &QueryTrace) {
    let _ = writeln!(
        out,
        "  query {} (requester {}, data {}): issued t={}, expires t={}",
        t.query.0, t.requester.0, t.data.0, t.issued_at.0, t.expires_at.0
    );
    if let Some(at) = t.first_central_at {
        let _ = writeln!(
            out,
            "    t={:>8}  reached central (NCL {})",
            at.0,
            t.first_central_ncl.unwrap_or(0)
        );
    }
    if let Some(at) = t.first_response_at {
        let _ = writeln!(
            out,
            "    t={:>8}  response spawned at node {} (broadcast fan-out {})",
            at.0,
            t.responder.map_or(0, |n| n.0),
            t.broadcast_fanout
        );
    }
    if let Some(at) = t.delivered_at {
        let _ = writeln!(out, "    t={:>8}  delivered", at.0);
    }
    // A query keeps one pull copy per NCL, so several identical hops
    // often cross the same link at the same contact; collapse them.
    let mut i = 0;
    while i < t.hops.len() {
        let h = &t.hops[i];
        let mut copies = 1;
        while i + copies < t.hops.len() && t.hops[i + copies] == *h {
            copies += 1;
        }
        let _ = write!(
            out,
            "    t={:>8}  {:>8} hop {} -> {}",
            h.at.0,
            match h.phase {
                dtn_sim::probe::HopPhase::Pull => "pull",
                dtn_sim::probe::HopPhase::Response => "response",
            },
            h.from.0,
            h.to.0
        );
        if copies > 1 {
            let _ = write!(out, " (x{copies} copies)");
        }
        out.push('\n');
        i += copies;
    }
    if let Some(d) = t.decomposition() {
        let _ = writeln!(
            out,
            "    delay {}s = pull {}s + ncl {}s + response {}s",
            d.total_secs(),
            d.pull_secs,
            d.ncl_secs,
            d.response_secs
        );
    }
}

/// Renders the human-readable post-mortem of one observed run.
pub fn render_report(run: &ObserveRun) -> String {
    let mut out = String::new();
    let m = &run.metrics;
    let _ = writeln!(
        out,
        "== observe {}: {} (seed {}) ==",
        run.figure,
        run.scheme.name(),
        run.seed
    );
    let _ = writeln!(
        out,
        "queries: {} issued, {} satisfied ({:.1}%), avg delay {:.2}h; \
         {} duplicate / {} late deliveries, {} transfers rejected",
        m.queries_issued,
        m.queries_satisfied,
        m.success_ratio() * 100.0,
        m.avg_delay_hours(),
        m.duplicate_deliveries,
        m.late_deliveries,
        m.transfers_rejected,
    );

    // Probe counter table: every vocabulary kind, observed count.
    let _ = writeln!(out, "\n-- probe counters --");
    for kind in ProbeEvent::KINDS {
        let count = run.probe.count(kind);
        if count > 0 {
            let _ = writeln!(out, "{kind:>24} {count:>10}");
        }
    }

    // Per-NCL arrivals and hit rates from the assembled traces.
    let _ = writeln!(out, "\n-- NCL query arrivals & hit rates --");
    let k = run.central_nodes.len();
    let mut arrived = vec![0u64; k];
    let mut hit = vec![0u64; k];
    for t in run.probe.traces() {
        if let Some(ncl) = t.first_central_ncl {
            if ncl < k {
                arrived[ncl] += 1;
                if t.delivered() {
                    hit[ncl] += 1;
                }
            }
        }
    }
    let _ = writeln!(
        out,
        "{:>4} {:>8} {:>10} {:>10} {:>10}",
        "NCL", "central", "load", "1st-here", "hit rate"
    );
    for (i, &central) in run.central_nodes.iter().enumerate() {
        let rate = if arrived[i] > 0 {
            hit[i] as f64 / arrived[i] as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:>4} {:>8} {:>10} {:>10} {:>9.1}%",
            i,
            central.0,
            run.ncl_query_load.get(i).copied().unwrap_or(0),
            arrived[i],
            rate * 100.0
        );
    }

    // Delay decomposition: the three phases sum to total_delay_secs.
    let d = run.probe.total_decomposition();
    let total = d.total_secs().max(1);
    let _ = writeln!(out, "\n-- delay decomposition (satisfied queries) --");
    let _ = writeln!(out, "{:>12} {:>12} {:>8}", "phase", "seconds", "share");
    for (name, secs) in [
        ("pull", d.pull_secs),
        ("ncl", d.ncl_secs),
        ("response", d.response_secs),
    ] {
        let _ = writeln!(
            out,
            "{:>12} {:>12} {:>7.1}%",
            name,
            secs,
            secs as f64 / total as f64 * 100.0
        );
    }
    let _ = writeln!(
        out,
        "{:>12} {:>12} (metrics total_delay_secs: {}{})",
        "sum",
        d.total_secs(),
        m.total_delay_secs,
        if d.total_secs() == m.total_delay_secs {
            ", exact match"
        } else {
            " -- MISMATCH"
        }
    );

    // Oracle cache behavior relayed from the scheme.
    let (rebuilds, recomputes, hits) = run.probe.oracle_counters();
    if rebuilds + recomputes + hits > 0 {
        let _ = writeln!(out, "\n-- path oracle --");
        let served = recomputes + hits;
        let _ = writeln!(
            out,
            "snapshots rebuilt: {rebuilds}; path tables: {recomputes} recomputed, \
             {hits} reused ({:.1}% hit rate)",
            if served > 0 {
                hits as f64 / served as f64 * 100.0
            } else {
                0.0
            }
        );
    }

    // Histograms (alloc-free fixed buckets, recorded in the hot loop).
    if run.probe.delay_hist().count() > 0 {
        let _ = writeln!(out, "\n{}", run.probe.delay_hist().render("delay", "s"));
    }
    if run.probe.hop_hist().count() > 0 {
        let _ = writeln!(out, "{}", run.probe.hop_hist().render("hops/query", ""));
    }
    if run.probe.occupancy_hist().count() > 0 {
        let _ = writeln!(
            out,
            "{}",
            run.probe.occupancy_hist().render("cache occupancy", "B")
        );
    }

    // Top-k slowest satisfied queries, full lifecycle each.
    let mut slowest: Vec<&QueryTrace> = run.probe.traces().filter(|t| t.delivered()).collect();
    slowest.sort_by_key(|t| {
        std::cmp::Reverse(t.delivered_at.unwrap_or(t.issued_at).0 - t.issued_at.0)
    });
    let _ = writeln!(
        out,
        "\n-- top {} slowest satisfied queries --",
        5.min(slowest.len())
    );
    for t in slowest.iter().take(5) {
        render_trace(&mut out, t);
    }
    out
}

/// Renders the `timeline` view: run banner, the windowed over-time
/// table, and the hierarchical phase profile.
pub fn render_timeline(run: &ObserveRun) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== timeline {}: {} (seed {}) ==",
        run.figure,
        run.scheme.name(),
        run.seed
    );
    let _ = writeln!(
        out,
        "window {}s from t={}s; {} non-empty windows; {} queries, {} satisfied ({:.1}%)",
        run.telemetry.window_secs(),
        run.telemetry.origin().0,
        run.telemetry
            .windows()
            .iter()
            .filter(|w| !w.is_empty())
            .count(),
        run.metrics.queries_issued,
        run.metrics.queries_satisfied,
        run.metrics.success_ratio() * 100.0,
    );
    out.push_str(&run.telemetry.render_table());
    if let Some(profile) = &run.profile {
        out.push('\n');
        out.push_str(&profile.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_run_covers_every_satisfied_query() {
        let run = observe_figure("fig10", 0.02, 7).expect("known figure");
        assert!(run.metrics.queries_issued > 0, "workload generated queries");
        // Every issued query has an assembled trace; every satisfied one
        // carries a delivery timestamp.
        assert_eq!(
            run.probe.traces().count() as u64,
            run.metrics.queries_issued
        );
        assert_eq!(
            run.probe.traces().filter(|t| t.delivered()).count() as u64,
            run.metrics.queries_satisfied
        );
        // The per-phase decomposition sums exactly to the metric delay.
        assert_eq!(
            run.probe.total_decomposition().total_secs(),
            run.metrics.total_delay_secs
        );
        // The probe's delay histogram mirrors the delivery count.
        assert_eq!(
            run.probe.delay_hist().count(),
            run.metrics.queries_satisfied
        );
        // The tee'd flight recorder conserves the same totals window by
        // window (the full matrix lives in tests/telemetry_conservation).
        let totals = run.telemetry.totals();
        assert_eq!(totals.queries_issued, run.metrics.queries_issued);
        assert_eq!(totals.deliveries, run.metrics.queries_satisfied);
        assert_eq!(totals.delay_sum_secs, run.metrics.total_delay_secs);
        assert_eq!(totals.bytes_transmitted, run.metrics.bytes_transmitted);
        // The profiler ran and charged the contact loop.
        let profile = run.profile.as_ref().expect("observe profiles its runs");
        assert!(profile.entries.iter().any(|e| e.phase == "contact_commit"));
        assert!(profile.total_ns() > 0);
    }

    #[test]
    fn jsonl_lines_parse_as_flat_objects() {
        let run = observe_figure("fig10", 0.02, 7).expect("known figure");
        let mut buf = Vec::new();
        let lines = write_jsonl(&run, &mut buf).expect("in-memory write");
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(text.lines().count(), lines);
        assert!(lines > 1, "header plus events/traces");
        for line in text.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "bad line {line:?}"
            );
            assert!(line.contains("\"type\":\""), "line missing type: {line:?}");
        }
        // Header first, then events, traces, windows, phases, footer.
        let first = text.lines().next().unwrap();
        assert!(first.contains("\"type\":\"run\""));
        assert!(first.contains("\"schema\":\"dtn-observe/2\""));
        assert!(first.contains("\"telemetry_schema\":\"dtn-telemetry/2\""));
        assert!(text.contains("\"type\":\"event\""));
        assert!(text.contains("\"type\":\"trace\""));
        assert!(text.contains("\"type\":\"window\""));
        assert!(text.contains("\"type\":\"phase\""));
        let last = text.lines().last().unwrap();
        assert!(last.contains("\"type\":\"footer\""), "{last}");
        assert!(last.contains(&format!(
            "\"queries_satisfied\":{}",
            run.metrics.queries_satisfied
        )));
    }

    #[test]
    fn timeline_renders_windows_and_profile() {
        let run = observe_figure("fig10", 0.02, 7).expect("known figure");
        let timeline = render_timeline(&run);
        assert!(timeline.contains("timeline fig10"));
        assert!(timeline.contains("t_start"), "{timeline}");
        assert!(timeline.contains("phase profile"), "{timeline}");
        assert!(timeline.contains("contact_commit"), "{timeline}");
    }

    #[test]
    fn observe_any_rejects_unknown_targets() {
        let err = observe_any("fig99", 0.02, 1).unwrap_err();
        assert!(err.contains("regimes") && err.contains("scale"), "{err}");
    }

    #[test]
    fn report_renders_decomposition_and_ncl_table() {
        let run = observe_figure("fig10", 0.02, 7).expect("known figure");
        let report = render_report(&run);
        assert!(report.contains("delay decomposition"));
        assert!(report.contains("exact match"), "{report}");
        assert!(report.contains("NCL query arrivals"));
        assert!(report.contains("probe counters"));
        assert!(!report.contains("MISMATCH"), "{report}");
    }

    #[test]
    fn unknown_figure_is_an_error() {
        assert!(observe_figure("fig99", 0.02, 1).is_err());
    }

    #[test]
    fn churn_run_observes_reelections() {
        let run = observe_figure("churn", 0.05, 3).expect("known figure");
        // Epochs fire on the churn setup; re-elections and oracle
        // invalidations surface through the probe vocabulary.
        assert!(run.probe.count("epoch_fired") > 0, "no epochs observed");
    }
}
