//! The `observe`/`timeline` capture layer: one fully-instrumented
//! experiment run behind one versioned JSONL emitter.
//!
//! Re-runs the base point of a sweep figure's definition
//! ([`crate::figures::sweep`]; the warm-up → configure → workload
//! protocol of [`dtn_cache::experiment::run_experiment`]) with a
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
//! through: every sweep figure plus the `regimes` blackout cell and the
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

use dtn_cache::experiment::{build_scheme, prepare_experiment};
use dtn_cache::{CachingScheme, SchemeKind};
use dtn_core::ids::NodeId;
use dtn_core::time::Duration;
use dtn_sim::engine::{ContactSource, DeliveryOutcome, Scheme, SimConfig, Simulator};
use dtn_sim::metrics::Metrics;
use dtn_sim::oracle::OracleStats;
use dtn_sim::probe::{FieldValue, ProbeEvent, QueryTrace, RecordingProbe};
use dtn_sim::profiler::{ProfileEntry, ProfileReport};
use dtn_sim::telemetry::{Counter, Telemetry, WindowStats};

use crate::figures::{sweep, Figure, Point, SWEEPS};
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
    /// The recorder with events, traces, counts and the window series.
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

/// Runs the base point of a sweep figure (DESIGN.md §4) once with a
/// recording probe covering the measurement phase.
fn observe_base(figure: &Figure, seed: u64) -> ObserveRun {
    let Point {
        trace,
        scheme,
        ref config,
    } = figure.base;
    let trace = &figure.traces[trace];
    let engine = SimConfig {
        seed,
        profile: true,
        ..SimConfig::default()
    };
    let mut sim = prepare_experiment(trace, build_scheme(scheme, config), config, engine);

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
    ObserveRun {
        scheme,
        ..ObserveRun::capture(figure.name, seed, &mut sim, instruments)
    }
}

/// The unified capture entry point: a sweep figure runs its base point,
/// `regimes` the instrumented NCL-blackout cell, `scale` the
/// instrumented streaming smoke city. Every target returns the same
/// [`ObserveRun`] and therefore shares one JSONL emitter and one
/// report/timeline renderer.
pub fn observe_any(target: &str, scale: f64, seed: u64) -> Result<ObserveRun, String> {
    match target {
        "regimes" => Ok(crate::regimes::observe_blackout(scale, seed)),
        "scale" => Ok(crate::scale::observe_city_smoke(seed)),
        _ => sweep(target, scale, None)
            .map(|figure| observe_base(&figure, seed))
            .ok_or_else(|| {
                format!(
                    "unknown target {target:?}; expected one of {}, regimes, scale",
                    SWEEPS.join(", ")
                )
            }),
    }
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
/// self-reads; `oracle_reach_bytes` the heap of the bounded reaches,
/// `oracle_ball_bytes` that of the destination balls) —
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
        line.set("oracle_balls_built", o.balls_built);
        line.set("oracle_ball_bytes", o.ball_bytes);
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

/// The post-mortem's distributions, each sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Distributions {
    /// `delivered_at − issued_at` of every delivered query, in seconds.
    pub delay_secs: Vec<u64>,
    /// Hops of every delivered query recorded at or before its delivery
    /// (duplicate copies keep moving afterwards; those hops are not the
    /// delivery's).
    pub hops: Vec<u64>,
    /// Cached bytes of every engine sample at or after the capture's
    /// origin — the samples the recorder saw.
    pub occupancy_bytes: Vec<u64>,
}

/// Reads the delay, hop and occupancy distributions of `run` off its
/// query traces and its engine samples.
pub fn distributions(run: &ObserveRun) -> Distributions {
    let mut delay_secs = Vec::new();
    let mut hops = Vec::new();
    for t in run.probe.traces() {
        if let Some(at) = t.delivered_at {
            delay_secs.push(at.0 - t.issued_at.0);
            hops.push(t.hops.iter().filter(|h| h.at <= at).count() as u64);
        }
    }
    let origin = run.telemetry().origin();
    let samples = run.metrics.samples.iter().filter(|s| s.at >= origin);
    let mut occupancy_bytes: Vec<u64> = samples.map(|s| s.bytes).collect();
    for values in [&mut delay_secs, &mut hops, &mut occupancy_bytes] {
        values.sort_unstable();
    }
    Distributions {
        delay_secs,
        hops,
        occupancy_bytes,
    }
}

/// One post-mortem line for an ascending `sorted`: n, the exact mean,
/// the nearest-rank p50/p90/p99 and the max. Nothing for an empty one.
fn render_distribution(out: &mut String, label: &str, unit: &str, sorted: &[u64]) {
    let Some(&max) = sorted.last() else {
        return;
    };
    let n = sorted.len();
    let rank = |pct: usize| sorted[(pct * n).div_ceil(100) - 1];
    let mean = sorted.iter().sum::<u64>() as f64 / n as f64;
    let _ = writeln!(
        out,
        "{label}: n={n} mean={mean:.1}{unit} p50={}{unit} p90={}{unit} p99={}{unit} max={max}{unit}",
        rank(50),
        rank(90),
        rank(99),
    );
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

    // The path oracle's work over the whole run, as the footer has it.
    if let Some(o) = run
        .oracle
        .filter(|o| o.rebuilds + o.table_recomputes + o.table_hits > 0)
    {
        let _ = writeln!(out, "\n-- path oracle --");
        let served = o.table_recomputes + o.table_hits;
        let _ = writeln!(
            out,
            "snapshots rebuilt: {}; path tables: {} recomputed, \
             {} reused ({:.1}% hit rate)",
            o.rebuilds,
            o.table_recomputes,
            o.table_hits,
            if served > 0 {
                o.table_hits as f64 / served as f64 * 100.0
            } else {
                0.0
            }
        );
    }

    // Distributions, read off the traces and the engine's samples.
    let d = distributions(run);
    out.push('\n');
    for (label, unit, values) in [
        ("delay", "s", &d.delay_secs),
        ("hops/query", "", &d.hops),
        ("cache occupancy", "B", &d.occupancy_bytes),
    ] {
        render_distribution(&mut out, label, unit, values);
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
mod tests;
