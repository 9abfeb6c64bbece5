//! The `observe`/`timeline` capture layer: one fully-instrumented
//! experiment run behind one versioned JSONL emitter.
//!
//! Re-runs a figure's base configuration (intentional scheme, same
//! warm-up → configure → workload protocol as
//! [`dtn_cache::experiment::run_experiment`]) with a
//! [`RecordingProbe`] carrying a windowed [`Telemetry`] series, plus
//! the hierarchical phase profiler, then
//!
//! - streams the capture as versioned JSONL (`--out PATH`) through
//!   [`write_jsonl`], the one capture emitter: a [`RUN_SCHEMA`] header,
//!   every probe event, every assembled query trace, the telemetry
//!   window series, the phase-profile rows, and a totals footer the
//!   `experiments compare` harness aligns runs by;
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
use dtn_sim::oracle::OracleStats;
use dtn_sim::probe::{FieldValue, ProbeEvent, QueryTrace, RecordingProbe};
use dtn_sim::profiler::{ProfileEntry, ProfileReport};
use dtn_sim::telemetry::{Counter, Telemetry, WindowStats};
use dtn_sim::DeliveryOutcome;
use dtn_trace::synthetic::regime_shift_trace;
use dtn_trace::trace::ContactTrace;
use dtn_trace::TracePreset;

use crate::figures::{mit_config, preset_trace};
use crate::json::JsonValue;

/// Version tag of the JSONL run capture, carried by its header and
/// footer lines. Bump on any change to a line layout; `experiments
/// compare` refuses every other tag rather than misaligning series.
pub const RUN_SCHEMA: &str = "dtn-observe/3";

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
    /// The recorder with events, traces, counters, histograms and the
    /// window series.
    pub probe: RecordingProbe,
    /// The hierarchical phase profile of the run.
    pub profile: Option<ProfileReport>,
    /// Central nodes after the run (reflects re-elections).
    pub central_nodes: Vec<NodeId>,
    /// Queries that arrived at each central node, by NCL index.
    pub ncl_query_load: Vec<u64>,
    /// The scheme's path-oracle work counters at the end of the run.
    pub oracle: Option<OracleStats>,
    /// Heap bytes of the contact stream, for a run fed by one.
    pub stream_bytes: Option<u64>,
}

/// The capture every instrumented harness rides on: one
/// [`RecordingProbe`] (with its window series) shared with the engine.
pub struct Instruments {
    recorder: Rc<RefCell<RecordingProbe>>,
}

impl Instruments {
    /// Installs `recorder` as `sim`'s probe; events flow into it from
    /// now on.
    pub fn install<S: Scheme, C: ContactSource>(
        sim: &mut Simulator<S, C>,
        recorder: RecordingProbe,
    ) -> Self {
        let recorder = Rc::new(RefCell::new(recorder));
        sim.set_probe(Box::new(Rc::clone(&recorder)));
        Instruments { recorder }
    }

    /// Detaches the probe from `sim` and returns the recorder.
    pub fn finish<S: Scheme, C: ContactSource>(self, sim: &mut Simulator<S, C>) -> RecordingProbe {
        drop(sim.take_probe());
        Rc::try_unwrap(self.recorder)
            .expect("engine returned its probe handle")
            .into_inner()
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
        ObserveRun {
            figure: figure.to_string(),
            scheme: SchemeKind::Intentional,
            seed,
            metrics: sim.metrics().clone(),
            probe: instruments.finish(sim),
            profile: sim.profile_report(),
            central_nodes: sim.scheme().central_nodes().to_vec(),
            ncl_query_load: sim.scheme().ncl_query_load().to_vec(),
            oracle: sim.scheme().oracle_stats(),
            stream_bytes: None,
        }
    }

    /// The window series the capture's recorder folded.
    pub fn telemetry(&self) -> &Telemetry {
        self.probe
            .telemetry()
            .expect("every capture installs a window series")
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
    let telemetry = Telemetry::spanning(
        mid,
        Duration(trace.duration().as_secs() - mid.0),
        TIMELINE_WINDOWS,
        config.ncl_count,
    );
    let instruments =
        Instruments::install(&mut sim, RecordingProbe::new().with_telemetry(telemetry));
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

/// The `run` header line: what ran, the window layout, and the delay
/// decomposition (whole-run totals live in the footer only).
fn header_line(run: &ObserveRun) -> JsonValue {
    let d = run.probe.total_decomposition();
    let telemetry = run.telemetry();
    JsonValue::object()
        .with("type", "run")
        .with("schema", RUN_SCHEMA)
        .with("figure", run.figure.as_str())
        .with("scheme", run.scheme.name())
        .with("seed", run.seed)
        .with("window_secs", telemetry.window_secs())
        .with("origin", telemetry.origin().0)
        .with("pull_secs", d.pull_secs)
        .with("ncl_secs", d.ncl_secs)
        .with("response_secs", d.response_secs)
}

/// One `event` line: kind, timestamp, then the payload in declaration
/// order (a delivery's outcome spreads into `outcome` + `delay_secs`).
fn event_line(event: &ProbeEvent) -> JsonValue {
    let mut line = JsonValue::object()
        .with("type", "event")
        .with("kind", event.kind())
        .with("at", event.at().0);
    event.fields(&mut |name, value| match value {
        FieldValue::Int(n) => line.set(name, n),
        FieldValue::Real(x) => line.set(name, JsonValue::fixed(x, 6)),
        FieldValue::Flag(b) => line.set(name, b),
        FieldValue::Outcome(outcome) => {
            let (label, delay) = match outcome {
                DeliveryOutcome::Accepted { delay } => ("accepted", Some(delay.as_secs())),
                DeliveryOutcome::Duplicate => ("duplicate", None),
                DeliveryOutcome::Late => ("late", None),
                DeliveryOutcome::Unknown => ("unknown", None),
            };
            line.set(name, label);
            if let Some(secs) = delay {
                line.set("delay_secs", secs);
            }
        }
    });
    line
}

/// One `trace` line: the query's lifecycle milestones (absent ones are
/// omitted), its delay decomposition when delivered, and every hop.
fn trace_line(t: &QueryTrace) -> JsonValue {
    let mut line = JsonValue::object()
        .with("type", "trace")
        .with("query", t.query.0)
        .with("requester", t.requester.0)
        .with("data", t.data.0)
        .with("issued_at", t.issued_at.0)
        .with("expires_at", t.expires_at.0);
    if let Some(at) = t.first_central_at {
        line.set("first_central_at", at.0);
        line.set("first_central_ncl", t.first_central_ncl.unwrap_or(0));
    }
    line.set("broadcast_fanout", t.broadcast_fanout);
    if let Some(at) = t.first_response_at {
        line.set("first_response_at", at.0);
    }
    if let Some(node) = t.responder {
        line.set("responder", node.0);
    }
    if let Some(at) = t.delivered_at {
        line.set("delivered_at", at.0);
    }
    if let Some(d) = t.decomposition() {
        line.set("pull_secs", d.pull_secs);
        line.set("ncl_secs", d.ncl_secs);
        line.set("response_secs", d.response_secs);
    }
    let hops = t.hops.iter().map(|h| {
        JsonValue::object()
            .with("at", h.at.0)
            .with("phase", h.phase.name())
            .with("from", h.from.0)
            .with("to", h.to.0)
    });
    line.with("hops", hops.collect::<JsonValue>())
}

/// One `window` line: edges, every [`Counter`] by name, the occupancy
/// gauges when sampled, the NCL lanes and any active overlays.
fn window_line(telemetry: &Telemetry, index: usize, w: &WindowStats) -> JsonValue {
    let start = telemetry.origin().0 + index as u64 * telemetry.window_secs();
    let mut line = JsonValue::object()
        .with("type", "window")
        .with("index", index)
        .with("start", start)
        .with("end", start + telemetry.window_secs());
    for counter in Counter::ALL {
        line.set(counter.name(), w[counter]);
    }
    if w.sampled {
        line.set("cache_copies", w.cache_copies);
        line.set("cache_bytes", w.cache_bytes);
    }
    let lanes = |xs: &[u64]| xs.iter().copied().collect::<JsonValue>();
    line.set("ncl_load", lanes(&w.ncl_load));
    line.set("ncl_hits", lanes(&w.ncl_hits));
    line.set("ncl_overflow", w.ncl_overflow);
    let overlays = telemetry.overlays_in(index);
    if !overlays.is_empty() {
        line.set("overlays", overlays.into_iter().collect::<JsonValue>());
    }
    line
}

/// One `phase` line per profiler row (preorder; `depth` is the nesting).
fn phase_line(e: &ProfileEntry) -> JsonValue {
    JsonValue::object()
        .with("type", "phase")
        .with("phase", e.phase)
        .with("depth", e.depth)
        .with("calls", e.calls)
        .with("total_ns", e.total_ns)
        .with("self_ns", e.self_ns)
}

/// The closing `footer` line: whole-run totals from the engine metrics
/// (the authoritative side of the conservation check) plus the
/// non-empty telemetry window count, so `compare` can align and
/// sanity-check a capture without replaying its event stream — and,
/// when the scheme keeps a path oracle, its final work counters
/// (`oracle_table_hits + oracle_table_recomputes` = reads that were not
/// self-reads; `oracle_reach_bytes` the heap of the bounded reaches) —
/// and, for a streamed run, the heap of its contact stream
/// (`stream_bytes`).
fn footer_line(run: &ObserveRun) -> JsonValue {
    let m = &run.metrics;
    let windows = run.telemetry().windows().iter();
    let mut line = JsonValue::object()
        .with("type", "footer")
        .with("schema", RUN_SCHEMA)
        .with("queries_issued", m.queries_issued)
        .with("queries_satisfied", m.queries_satisfied)
        .with("total_delay_secs", m.total_delay_secs)
        .with("duplicate_deliveries", m.duplicate_deliveries)
        .with("late_deliveries", m.late_deliveries)
        .with("data_generated", m.data_generated)
        .with("bytes_transmitted", m.bytes_transmitted)
        .with("transfers_rejected", m.transfers_rejected)
        .with("contacts_lost", m.contacts_lost)
        .with("windows", windows.filter(|w| !w.is_empty()).count());
    if let Some(o) = run.oracle {
        line.set("oracle_rebuilds", o.rebuilds);
        line.set("oracle_table_hits", o.table_hits);
        line.set("oracle_table_recomputes", o.table_recomputes);
        line.set("oracle_nodes_settled", o.nodes_settled);
        line.set("oracle_accumulators_built", o.accumulators_built);
        line.set("oracle_leaf_evaluations", o.leaf_evaluations);
        line.set("oracle_reach_bytes", o.reach_bytes);
    }
    if let Some(bytes) = run.stream_bytes {
        line.set("stream_bytes", bytes);
    }
    line
}

/// Streams the run as [`RUN_SCHEMA`] JSONL — the single capture
/// emitter: the header, every probe event, every assembled query
/// trace, the non-empty telemetry windows (`index` keeps alignment
/// exact), the phase profile, and the totals footer. Returns the
/// number of lines written.
pub fn write_jsonl(run: &ObserveRun, out: &mut dyn io::Write) -> io::Result<usize> {
    let telemetry = run.telemetry();
    let windows = telemetry.windows().iter().enumerate();
    let lines = std::iter::once(header_line(run))
        .chain(run.probe.events().iter().map(event_line))
        .chain(run.probe.traces().map(trace_line))
        .chain(
            windows
                .filter(|(_, w)| !w.is_empty())
                .map(|(i, w)| window_line(telemetry, i, w)),
        )
        .chain(run.profile.iter().flat_map(|p| &p.entries).map(phase_line))
        .chain(std::iter::once(footer_line(run)));
    let mut written = 0usize;
    for line in lines {
        writeln!(out, "{}", line.compact())?;
        written += 1;
    }
    Ok(written)
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
            h.phase.name(),
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
        run.telemetry().window_secs(),
        run.telemetry().origin().0,
        run.telemetry()
            .windows()
            .iter()
            .filter(|w| !w.is_empty())
            .count(),
        run.metrics.queries_issued,
        run.metrics.queries_satisfied,
        run.metrics.success_ratio() * 100.0,
    );
    out.push_str(&run.telemetry().render_table());
    if let Some(profile) = &run.profile {
        out.push('\n');
        out.push_str(&profile.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::ids::{DataId, QueryId};
    use dtn_core::time::Time;

    /// `ev!(Kind @ t, field: value, ..)` — one sample event per line.
    macro_rules! ev {
        ($kind:ident @ $at:expr $(, $field:ident: $value:expr)*) => {
            ProbeEvent::$kind { at: Time($at), $($field: $value),* }
        };
    }

    /// One sample of each of the 22 event kinds (all four delivery
    /// outcomes), telling one query's whole lifecycle.
    #[rustfmt::skip]
    fn one_of_each_kind() -> Vec<ProbeEvent> {
        let (q, n, m, d) = (QueryId(7), NodeId(3), NodeId(4), DataId(9));
        let accepted = DeliveryOutcome::Accepted { delay: Duration(450) };
        vec![
            ev!(ContactBegin @ 100, a: n, b: m, budget: 5000),
            ev!(DataInjected @ 101, data: d, source: n, size: 800),
            ev!(QueryInjected @ 110, query: q, requester: m, data: d, expires_at: Time(900)),
            ev!(TransmitAccepted @ 111, bytes: 800),
            ev!(TransmitRejected @ 112, bytes: 9000),
            ev!(PushRelay @ 113, data: d, from: n, to: m, ncl: 1),
            ev!(PushSettled @ 114, data: d, node: m, ncl: 1),
            ev!(QueryRelay @ 120, query: q, from: m, to: n),
            ev!(QueryAtCentral @ 130, query: q, ncl: 1),
            ev!(BroadcastSpread @ 140, query: q, node: n),
            ev!(ResponseDecision @ 150, query: q, node: n, probability: 0.8125, responded: true),
            ev!(ResponseSpawned @ 150, query: q, node: n),
            ev!(ResponseRelay @ 300, query: q, from: n, to: m),
            ev!(ContactEnd @ 310, a: n, b: m, bytes_used: 1600),
            ev!(ContactLost @ 320, a: n, b: m),
            ev!(EpochFired @ 400, index: 2),
            ev!(CentralReelected @ 400, ncl: 0, old: n, new: m),
            ev!(OracleInvalidated @ 400),
            ev!(OracleRebuilt @ 410, epoch: 3, table_recomputes: 40, table_hits: 100),
            ev!(ReplacementEvicted @ 420, node: m, data: d),
            ev!(CacheSampled @ 500, copies: 2, bytes: 1600),
            ev!(Delivery @ 560, query: q, outcome: accepted),
            ev!(Delivery @ 570, query: q, outcome: DeliveryOutcome::Duplicate),
            ev!(Delivery @ 580, query: QueryId(8), outcome: DeliveryOutcome::Late),
            ev!(Delivery @ 590, query: QueryId(99), outcome: DeliveryOutcome::Unknown),
        ]
    }

    /// A hand-fed capture: the samples above through a recorder with a
    /// two-lane window series and an overlay, a two-row profile.
    fn sample_run(figure: &str, overlay: &str) -> ObserveRun {
        use dtn_sim::probe::Probe;
        let mut telemetry = Telemetry::spanning(Time(100), Duration(500), 2, 2);
        telemetry.mark_overlay(overlay, Time(300), Time(450));
        let mut probe = RecordingProbe::new().with_telemetry(telemetry);
        for event in one_of_each_kind() {
            probe.record(&event);
        }
        let row = |phase, depth, calls, total_ns, self_ns| ProfileEntry {
            phase,
            depth,
            calls,
            total_ns,
            self_ns,
        };
        ObserveRun {
            figure: figure.to_string(),
            scheme: SchemeKind::Intentional,
            seed: 7,
            metrics: Metrics {
                queries_issued: 1,
                queries_satisfied: 1,
                total_delay_secs: 450,
                duplicate_deliveries: 1,
                late_deliveries: 1,
                data_generated: 1,
                bytes_transmitted: 800,
                transfers_rejected: 1,
                contacts_lost: 1,
                ..Metrics::default()
            },
            probe,
            profile: Some(ProfileReport {
                entries: vec![
                    row("contact_commit", 0, 3, 900, 600),
                    row("knapsack_solve", 1, 2, 300, 300),
                ],
            }),
            central_nodes: vec![NodeId(3), NodeId(4)],
            ncl_query_load: vec![0, 1],
            oracle: Some(OracleStats {
                rebuilds: 1,
                table_hits: 9,
                table_recomputes: 2,
                nodes_settled: 7,
                accumulators_built: 4,
                leaf_evaluations: 3,
                reach_bytes: 60,
                ..OracleStats::default()
            }),
            stream_bytes: Some(1_200),
        }
    }

    fn emitted(run: &ObserveRun) -> String {
        let mut buf = Vec::new();
        write_jsonl(run, &mut buf).expect("in-memory write");
        String::from_utf8(buf).expect("utf8")
    }

    /// What the `dtn-observe/2` emitters (`ProbeEvent::to_json`,
    /// `QueryTrace::to_json`, `Telemetry::to_jsonl`,
    /// `ProfileReport::to_jsonl`, the header/footer `format!`s) wrote
    /// for [`sample_run`], with the tag bumped and the header's
    /// `telemetry_schema` and footer-duplicated totals dropped.
    const SAMPLE_CAPTURE: &str = r#"{"type":"run","schema":"dtn-observe/3","figure":"fig10","scheme":"Intentional","seed":7,"window_secs":250,"origin":100,"pull_secs":20,"ncl_secs":20,"response_secs":410}
{"type":"event","kind":"contact_begin","at":100,"a":3,"b":4,"budget":5000}
{"type":"event","kind":"data_injected","at":101,"data":9,"source":3,"size":800}
{"type":"event","kind":"query_injected","at":110,"query":7,"requester":4,"data":9,"expires_at":900}
{"type":"event","kind":"transmit_accepted","at":111,"bytes":800}
{"type":"event","kind":"transmit_rejected","at":112,"bytes":9000}
{"type":"event","kind":"push_relay","at":113,"data":9,"from":3,"to":4,"ncl":1}
{"type":"event","kind":"push_settled","at":114,"data":9,"node":4,"ncl":1}
{"type":"event","kind":"query_relay","at":120,"query":7,"from":4,"to":3}
{"type":"event","kind":"query_at_central","at":130,"query":7,"ncl":1}
{"type":"event","kind":"broadcast_spread","at":140,"query":7,"node":3}
{"type":"event","kind":"response_decision","at":150,"query":7,"node":3,"probability":0.812500,"responded":true}
{"type":"event","kind":"response_spawned","at":150,"query":7,"node":3}
{"type":"event","kind":"response_relay","at":300,"query":7,"from":3,"to":4}
{"type":"event","kind":"contact_end","at":310,"a":3,"b":4,"bytes_used":1600}
{"type":"event","kind":"contact_lost","at":320,"a":3,"b":4}
{"type":"event","kind":"epoch_fired","at":400,"index":2}
{"type":"event","kind":"central_reelected","at":400,"ncl":0,"old":3,"new":4}
{"type":"event","kind":"oracle_invalidated","at":400}
{"type":"event","kind":"oracle_rebuilt","at":410,"epoch":3,"table_recomputes":40,"table_hits":100}
{"type":"event","kind":"replacement_evicted","at":420,"node":4,"data":9}
{"type":"event","kind":"cache_sampled","at":500,"copies":2,"bytes":1600}
{"type":"event","kind":"delivery","at":560,"query":7,"outcome":"accepted","delay_secs":450}
{"type":"event","kind":"delivery","at":570,"query":7,"outcome":"duplicate"}
{"type":"event","kind":"delivery","at":580,"query":8,"outcome":"late"}
{"type":"event","kind":"delivery","at":590,"query":99,"outcome":"unknown"}
{"type":"trace","query":7,"requester":4,"data":9,"issued_at":110,"expires_at":900,"first_central_at":130,"first_central_ncl":1,"broadcast_fanout":1,"first_response_at":150,"responder":3,"delivered_at":560,"pull_secs":20,"ncl_secs":20,"response_secs":410,"hops":[{"at":120,"phase":"pull","from":4,"to":3},{"at":300,"phase":"response","from":3,"to":4}]}
{"type":"window","index":0,"start":100,"end":350,"contacts":1,"contacts_lost":1,"data_injected":1,"queries_issued":1,"deliveries":0,"duplicate_deliveries":0,"late_deliveries":0,"unknown_deliveries":0,"delay_sum_secs":0,"bytes_transmitted":800,"transfers_rejected":1,"replacements":0,"epochs":0,"reelections":0,"oracle_invalidations":0,"oracle_rebuilds":0,"oracle_recomputes":0,"oracle_hits":0,"ncl_load":[0,1],"ncl_hits":[0,0],"ncl_overflow":0,"overlays":["ncl-blackout"]}
{"type":"window","index":1,"start":350,"end":600,"contacts":0,"contacts_lost":0,"data_injected":0,"queries_issued":0,"deliveries":1,"duplicate_deliveries":1,"late_deliveries":1,"unknown_deliveries":1,"delay_sum_secs":450,"bytes_transmitted":0,"transfers_rejected":0,"replacements":1,"epochs":1,"reelections":1,"oracle_invalidations":1,"oracle_rebuilds":1,"oracle_recomputes":40,"oracle_hits":100,"cache_copies":2,"cache_bytes":1600,"ncl_load":[0,0],"ncl_hits":[0,1],"ncl_overflow":0,"overlays":["ncl-blackout"]}
{"type":"phase","phase":"contact_commit","depth":0,"calls":3,"total_ns":900,"self_ns":600}
{"type":"phase","phase":"knapsack_solve","depth":1,"calls":2,"total_ns":300,"self_ns":300}
{"type":"footer","schema":"dtn-observe/3","queries_issued":1,"queries_satisfied":1,"total_delay_secs":450,"duplicate_deliveries":1,"late_deliveries":1,"data_generated":1,"bytes_transmitted":800,"transfers_rejected":1,"contacts_lost":1,"windows":2,"oracle_rebuilds":1,"oracle_table_hits":9,"oracle_table_recomputes":2,"oracle_nodes_settled":7,"oracle_accumulators_built":4,"oracle_leaf_evaluations":3,"oracle_reach_bytes":60,"stream_bytes":1200}
"#;

    #[test]
    fn every_line_type_round_trips_and_keeps_its_fields() {
        let text = emitted(&sample_run("fig10", "ncl-blackout"));
        // Field for field, value for value, what the per-type emitters
        // wrote — for all 22 kinds, a trace with hops, windows with NCL
        // lanes and overlays, phase rows, header and footer.
        for (got, want) in text.lines().zip(SAMPLE_CAPTURE.lines()) {
            assert_eq!(got, want);
        }
        assert_eq!(text.lines().count(), SAMPLE_CAPTURE.lines().count());
        // The expected text names the 22 kinds this schema was frozen
        // with (a later kind adds a line type's worth of text, not a
        // change to these).
        let kinds: std::collections::BTreeSet<&str> =
            one_of_each_kind().iter().map(ProbeEvent::kind).collect();
        assert_eq!(kinds.len(), 22);
        assert!(kinds.iter().all(|kind| ProbeEvent::KINDS.contains(kind)));
        // The round-trip law: parse(emit(x)) re-emits byte-identically.
        for line in text.lines() {
            let parsed = JsonValue::parse(line).expect("emitted line parses");
            assert_eq!(parsed.compact(), line);
        }
    }

    #[test]
    fn hostile_names_are_escaped_not_interpolated() {
        // A quote or backslash in a figure name or overlay kind used to
        // be pasted raw into the line, leaving the capture unparseable.
        let (figure, overlay) = ("fig\"10\\", "ncl \"black\\out\"\n");
        let text = emitted(&sample_run(figure, overlay));
        let mut overlays_seen = 0;
        for line in text.lines() {
            let v = JsonValue::parse(line).expect("every line still parses");
            assert_eq!(v.compact(), line);
            if v.get("type").and_then(JsonValue::as_str) == Some("run") {
                assert_eq!(v.get("figure").and_then(JsonValue::as_str), Some(figure));
            }
            if let Some(JsonValue::Arr(kinds)) = v.get("overlays") {
                assert_eq!(kinds, &[JsonValue::from(overlay)]);
                overlays_seen += 1;
            }
        }
        assert_eq!(overlays_seen, 2);
    }

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
        // The window series conserves the same totals window by window
        // (the full matrix lives in tests/telemetry_conservation).
        let totals = run.telemetry().totals();
        assert_eq!(totals[Counter::QueriesIssued], run.metrics.queries_issued);
        assert_eq!(totals[Counter::Deliveries], run.metrics.queries_satisfied);
        assert_eq!(totals[Counter::DelaySumSecs], run.metrics.total_delay_secs);
        assert_eq!(
            totals[Counter::BytesTransmitted],
            run.metrics.bytes_transmitted
        );
        // The profiler ran and charged the contact loop.
        let profile = run.profile.as_ref().expect("observe profiles its runs");
        assert!(profile.entries.iter().any(|e| e.phase == "contact_commit"));
        assert!(profile.total_ns() > 0);
    }

    #[test]
    fn real_capture_round_trips_in_file_order() {
        let run = observe_figure("fig10", 0.02, 7).expect("known figure");
        let text = emitted(&run);
        // The round-trip law holds on a real run too, and the line types
        // come in file order: header, events, traces, windows, phases,
        // footer.
        let mut types = Vec::new();
        for line in text.lines() {
            let v = JsonValue::parse(line).expect("emitted line parses");
            assert_eq!(v.compact(), line);
            let ty = v.get("type").and_then(JsonValue::as_str).expect("typed");
            if types.last() != Some(&ty.to_string()) {
                types.push(ty.to_string());
            }
        }
        assert_eq!(
            types,
            ["run", "event", "trace", "window", "phase", "footer"]
        );
        let last = JsonValue::parse(text.lines().last().expect("footer")).expect("parses");
        assert_eq!(
            last.get("queries_satisfied").and_then(JsonValue::as_u64),
            Some(run.metrics.queries_satisfied)
        );
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
