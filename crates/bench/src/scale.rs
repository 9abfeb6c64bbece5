//! City-scale streaming benchmark: one end-to-end cooperative-caching
//! run at 10⁴–10⁶ nodes without ever materialising the contact trace.
//!
//! The harness mirrors `run_experiment`'s §VI-A protocol (warm-up →
//! NCL selection → workload → metrics) but swaps every dense component
//! for its streaming / sparse counterpart:
//!
//! - contacts come from [`SyntheticTraceBuilder::stream`] through a
//!   [`StreamSource`] — peak memory holds per-pair generator state, not
//!   the contact vector;
//! - NCL selection runs community-scoped
//!   ([`SelectionStrategy::CommunityPathMetric`]) over the CSR graph;
//! - the path oracle runs in bounded-reach mode
//!   (`IntentionalConfig::bounded_reach`), so no `O(N)` distance table
//!   is ever built;
//! - the workload is constructed directly as [`WorkloadEvent`]s —
//!   `Workload::generate`'s per-epoch × per-node Bernoulli sweep is
//!   `O(epochs · N)` and would dominate a 100k-node run.
//!
//! Reported numbers (contacts/sec, peak RSS and the bytes of it the
//! oracle's cached reaches and the contact stream hold) feed
//! `BENCH_scale.json`;
//! the `experiments scale` subcommand drives it from the command line.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dtn_cache::experiment::configure_from_live_state;
use dtn_cache::intentional::{IntentionalConfig, IntentionalScheme};
use dtn_cache::{CachingScheme, PendingWork};
use dtn_core::ids::{DataId, NodeId};
use dtn_core::ncl::{SelectionStrategy, SweepWork};
use dtn_core::time::{Duration, Time};
use dtn_sim::engine::{SimConfig, Simulator, StreamSource, WorkloadEvent};
use dtn_sim::message::DataItem;
use dtn_sim::oracle::OracleStats;
use dtn_sim::probe::RecordingProbe;
use dtn_sim::telemetry::Telemetry;
use dtn_trace::synthetic::SyntheticTraceBuilder;

use dtn_core::sys::peak_rss_bytes;

use crate::json::JsonValue;
use crate::observe::{Instruments, ObserveRun, TIMELINE_WINDOWS};

/// One city-scale run: a population ([`city`](Self::city), thinned by
/// [`smoke`](Self::smoke)), its seed and whether it is audited. The
/// trace, the workload and the scheme's knobs follow from those.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    nodes: usize,
    smoke: bool,
    /// Seed for trace, buffers, workload, and protocol randomness.
    pub seed: u64,
    /// Run the full invariant audit after every contact (the audited
    /// mid-size configuration; far too slow for 100k nodes).
    pub audit: bool,
}

/// Trace duration; the first half is warm-up.
const DURATION: Duration = Duration(2 * 86_400);
/// Number of NCLs `K`.
const NCL_COUNT: usize = 8;
/// Hop bound for NCL selection sweeps and the bounded-reach oracle.
const MAX_HOPS: usize = 3;
/// Data size in bytes (fixed — this benchmark stresses the event loop,
/// not the buffer economy).
const DATA_SIZE: u64 = 1 << 20;
/// Data lifetime; the query constraint is half of it.
const DATA_LIFETIME: Duration = Duration(12 * 3_600);
/// Per-node buffer capacity range in bytes.
const BUFFER_RANGE: (u64, u64) = (8 << 20, 16 << 20);
/// A heartbeat goes to stderr every this many streamed contacts
/// (contacts/s, peak RSS, ETA): city runs at 10⁵–10⁶ nodes take minutes,
/// and it is the only sign of life before the report prints. Smokes and
/// tests finish before the first beat.
const HEARTBEAT_EVERY_CONTACTS: u64 = 500_000;

impl ScaleConfig {
    /// A city-scale population: clustered communities, sparse contact
    /// graph (mean degree 12), ~25 contacts per node over two days, and
    /// a workload sized so protocol work scales with the population
    /// without drowning the contact loop.
    pub fn city(nodes: usize) -> Self {
        ScaleConfig {
            nodes,
            smoke: false,
            seed: 42,
            audit: false,
        }
    }

    /// Thins a configuration to completion-smoke density (~5 contacts
    /// per node over mean degree 8, capped workload) — the 1M-node
    /// recipe.
    pub fn smoke(self) -> Self {
        ScaleConfig {
            smoke: true,
            ..self
        }
    }

    /// The calibration target for the total contact count and the mean
    /// contact-graph degree, which sets the builder's `edge_density` to
    /// `degree / (nodes - 1)` so the kept-pair count stays `O(N)`
    /// instead of `O(N²)`.
    fn density(&self) -> (u64, f64) {
        let (per_node, degree) = if self.smoke { (5, 8.0) } else { (25, 12.0) };
        (per_node * self.nodes as u64, degree)
    }

    /// Data items generated and queries issued in the measurement phase.
    fn workload_size(&self) -> (usize, usize) {
        let items = (self.nodes / 100).clamp(64, 1024);
        let queries = (self.nodes / 50).clamp(128, 2048);
        if self.smoke {
            (items.min(128), queries.min(256))
        } else {
            (items, queries)
        }
    }

    fn builder(&self) -> SyntheticTraceBuilder {
        let (target_contacts, mean_degree) = self.density();
        SyntheticTraceBuilder::new(self.nodes)
            .duration(DURATION)
            .target_contacts(target_contacts)
            .communities((self.nodes / 500).clamp(4, 4096))
            .community_boost(6.0)
            .edge_density((mean_degree / (self.nodes - 1) as f64).min(1.0))
            .seed(self.seed)
    }
}

/// Outcome of one city-scale run.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Population size.
    pub nodes: usize,
    /// Contacts actually streamed through the engine.
    pub contacts: u64,
    /// Wall-clock seconds of the warm-up half (streaming generation +
    /// rate accumulation + scheme contact hooks).
    pub warmup_secs: f64,
    /// Wall-clock seconds of NCL selection + scheme configuration.
    pub configure_secs: f64,
    /// Wall-clock seconds of the measured half (workload + contacts).
    pub measured_secs: f64,
    /// Contacts per second over the whole event loop (excluding
    /// configuration).
    pub contacts_per_sec: f64,
    /// Process peak RSS after the run, bytes (0 off Linux).
    pub peak_rss_bytes: u64,
    /// Queries issued.
    pub queries_issued: u64,
    /// Fraction of queries satisfied in time.
    pub success_ratio: f64,
    /// NCLs selected at configuration.
    pub central_nodes: usize,
    /// `(sweeps, violations)` when the invariant audit ran.
    pub audit: Option<(u64, u64)>,
    /// The scheme's path-oracle work counters at the end of the run:
    /// counted, not timed, so equal on every machine.
    pub oracle: OracleStats,
    /// The work of the scheme's NCL selection, counted likewise.
    pub ncl: SweepWork,
    /// The work of the scheme's in-flight messages, counted likewise.
    pub pending: PendingWork,
    /// Heap bytes the contact stream held when it opened
    /// ([`ContactStream::heap_bytes`](dtn_trace::synthetic::ContactStream::heap_bytes)):
    /// its per-pair state and merge heap, fixed for the run.
    pub stream_bytes: u64,
}

impl ScaleReport {
    /// The report as one JSON object — a `report` member of
    /// `BENCH_scale.json`. Wall-clock and memory numbers only, the heap
    /// bytes of the oracle's reaches and destination balls and of the
    /// contact stream beside peak RSS: nothing here is gated.
    pub fn to_json(&self) -> JsonValue {
        let audit = self.audit.map(|(sweeps, violations)| {
            JsonValue::object()
                .with("sweeps", sweeps)
                .with("violations", violations)
        });
        JsonValue::object()
            .with("nodes", self.nodes)
            .with("contacts", self.contacts)
            .with("warmup_secs", JsonValue::fixed(self.warmup_secs, 3))
            .with("configure_secs", JsonValue::fixed(self.configure_secs, 3))
            .with("measured_secs", JsonValue::fixed(self.measured_secs, 3))
            .with(
                "contacts_per_sec",
                JsonValue::fixed(self.contacts_per_sec, 0),
            )
            .with("peak_rss_bytes", self.peak_rss_bytes)
            .with("oracle_reach_bytes", self.oracle.reach_bytes)
            .with("oracle_ball_bytes", self.oracle.ball_bytes)
            .with("stream_bytes", self.stream_bytes)
            .with("queries_issued", self.queries_issued)
            .with("success_ratio", JsonValue::fixed(self.success_ratio, 4))
            .with("central_nodes", self.central_nodes)
            .with("audit", audit)
    }

    /// [`to_json`](Self::to_json) plus the oracle's, the NCL selection's
    /// and the in-flight arena's work counters as `_exact` keys, which `experiments
    /// compare` gates: the `audited_case` of `BENCH_scale.json`, the one
    /// run of the scale command whose size is fixed.
    pub fn to_json_exact(&self) -> JsonValue {
        self.to_json()
            .with(
                "oracle_table_recomputes_exact",
                self.oracle.table_recomputes,
            )
            .with("oracle_nodes_settled_exact", self.oracle.nodes_settled)
            .with(
                "oracle_accumulators_built_exact",
                self.oracle.accumulators_built,
            )
            .with(
                "oracle_leaf_evaluations_exact",
                self.oracle.leaf_evaluations,
            )
            .with("oracle_reach_bytes_exact", self.oracle.reach_bytes)
            .with("oracle_balls_built_exact", self.oracle.balls_built)
            .with("oracle_ball_bytes_exact", self.oracle.ball_bytes)
            .with("stream_bytes_exact", self.stream_bytes)
            .with("ncl_searches_run_exact", self.ncl.searches_run)
            .with("ncl_candidates_pruned_exact", self.ncl.candidates_pruned)
            .with("ncl_communities_exact", self.ncl.communities)
            .with("pending_examined_exact", self.pending.examined)
            .with("pending_inserted_exact", self.pending.inserted)
    }
}

/// Builds the measurement-phase workload directly as events: item
/// generations uniform over the first half of the window, queries with
/// a squared-uniform skew toward low item ids (a cheap Zipf stand-in)
/// at times after their item exists.
fn scale_workload(cfg: &ScaleConfig, start: Time, end: Time) -> Vec<WorkloadEvent> {
    assert!(end.0 > start.0 + 1, "workload window too small");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0005_CA1E_D017);
    let span = end.0 - start.0;
    let nodes = cfg.nodes as u32;
    let (data_items, queries) = cfg.workload_size();
    let mut item_times = Vec::with_capacity(data_items);
    let mut events = Vec::with_capacity(data_items + queries);
    for i in 0..data_items {
        let at = Time(start.0 + rng.gen_range(0..span / 2));
        let item = DataItem::new(
            DataId(i as u64),
            NodeId(rng.gen_range(0..nodes)),
            DATA_SIZE,
            at,
            DATA_LIFETIME,
        );
        item_times.push(at);
        events.push(WorkloadEvent::GenerateData { item });
    }
    for _ in 0..queries {
        let u: f64 = rng.gen_range(0.0..1.0);
        let j = (((u * u) * data_items as f64) as usize).min(data_items - 1);
        let created = item_times[j];
        if created.0 + 1 >= end.0 {
            continue;
        }
        events.push(WorkloadEvent::IssueQuery {
            at: Time(rng.gen_range(created.0 + 1..end.0)),
            requester: NodeId(rng.gen_range(0..nodes)),
            data: DataId(j as u64),
            constraint: Duration(DATA_LIFETIME.as_secs() / 2),
        });
    }
    // Same ordering contract as `Workload::generate`: by time, items
    // before queries at equal instants.
    events.sort_by_key(|e| (e.at(), matches!(e, WorkloadEvent::IssueQuery { .. })));
    events
}

/// Progress line for long city runs, written to stderr (stdout stays
/// free for JSONL): simulation progress, contact throughput since the
/// last beat, peak RSS, and an ETA extrapolated from overall progress.
/// Started at the first streamed contact, so stream set-up distorts
/// neither the rate nor the ETA.
struct Heartbeat {
    /// Wall clock and simulation time at the first contact.
    started: (Instant, Time),
    /// Wall clock and contact count at the last beat.
    last: (Instant, u64),
}

impl Heartbeat {
    fn start(sim_now: Time) -> Self {
        let now = Instant::now();
        Heartbeat {
            started: (now, sim_now),
            last: (now, 0),
        }
    }

    fn beat(&mut self, contacts: u64, sim_now: Time, end: Time) {
        let now = Instant::now();
        let secs = now.duration_since(self.last.0).as_secs_f64();
        let rate = if secs > 0.0 {
            (contacts - self.last.1) as f64 / secs
        } else {
            0.0
        };
        let wall = now.duration_since(self.started.0).as_secs_f64();
        eprintln!(
            "[heartbeat] {} contacts={contacts} ({rate:.0}/s) rss={:.1}MB eta={}",
            heartbeat_progress(sim_now.0, end),
            peak_rss_bytes() as f64 / (1024.0 * 1024.0),
            heartbeat_eta(wall, self.started.1 .0, sim_now.0, end),
        );
        self.last = (now, contacts);
    }
}

/// Formats the heartbeat ETA field: `-` before any simulated progress
/// (nothing to extrapolate from — and the naive formula would divide
/// by zero), otherwise wall clock scaled by the remaining fraction of
/// simulated time.
fn heartbeat_eta(wall_secs: f64, started_sim: u64, sim_now: u64, end: Time) -> String {
    let progressed = sim_now.saturating_sub(started_sim);
    if progressed == 0 {
        return "-".to_string();
    }
    let remaining = end.0.saturating_sub(sim_now);
    format!("{:.0}s", wall_secs * remaining as f64 / progressed as f64)
}

/// Formats the heartbeat progress field: `t=<now>s/<end>s (<pct>%)`.
fn heartbeat_progress(sim_now: u64, end: Time) -> String {
    let pct = if end.0 > 0 {
        sim_now as f64 / end.0 as f64 * 100.0
    } else {
        100.0
    };
    format!("t={sim_now}s/{}s ({pct:.1}%)", end.0)
}

/// Runs one city-scale experiment end to end and reports throughput
/// and memory. Panics on configuration errors (fewer than two nodes,
/// zero NCLs) — this is a benchmark harness, not a library API.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleReport {
    run_scale_observed(cfg, false).0
}

/// [`run_scale`] with optional full instrumentation: when `observe` is
/// on, a recording probe with its window series and the phase
/// profiler ride along and come back as an [`ObserveRun`] next to the
/// throughput report. Unlike the figure captures, the telemetry spans
/// the *whole* run from t=0 — warm-up visibility is what a streaming
/// timeline is for.
pub fn run_scale_observed(cfg: &ScaleConfig, observe: bool) -> (ScaleReport, Option<ObserveRun>) {
    let contacts_seen = Rc::new(Cell::new(0u64));
    let counter = Rc::clone(&contacts_seen);
    let stream = cfg.builder().stream();
    let (nodes, duration) = (stream.node_count(), stream.duration());
    let stream_bytes = stream.heap_bytes() as u64;
    let end = Time(duration.as_secs());
    let mut heartbeat: Option<Heartbeat> = None;
    let source = StreamSource::new(
        stream.inspect(move |contact| {
            let seen = counter.get() + 1;
            counter.set(seen);
            let hb = heartbeat.get_or_insert_with(|| Heartbeat::start(contact.start));
            if seen.is_multiple_of(HEARTBEAT_EVERY_CONTACTS) {
                hb.beat(seen, contact.start, end);
            }
        }),
        nodes,
        duration,
    );
    let scheme = IntentionalScheme::new(IntentionalConfig {
        ncl_count: NCL_COUNT,
        ncl_selection: SelectionStrategy::CommunityPathMetric {
            max_hops: Some(MAX_HOPS),
        },
        bounded_reach: Some((MAX_HOPS, cfg.nodes)),
        ..IntentionalConfig::default()
    });
    let mut sim = Simulator::from_source(
        source,
        scheme,
        SimConfig {
            buffer_range: BUFFER_RANGE,
            audit: cfg.audit,
            seed: cfg.seed,
            profile: observe,
            ..SimConfig::default()
        },
    );
    let instruments = observe.then(|| {
        let telemetry = Telemetry::spanning(Time(0), DURATION, TIMELINE_WINDOWS, NCL_COUNT);
        Instruments::install(&mut sim, RecordingProbe::new().with_telemetry(telemetry))
    });

    // Phase 1: warm-up over the first half of the stream.
    let started = Instant::now();
    let mid = Time(DURATION.as_secs() / 2);
    sim.run_until(mid);
    let warmup_secs = started.elapsed().as_secs_f64();

    // Phase 2: community-scoped NCL selection from accumulated rates.
    let configure_started = Instant::now();
    let horizon = DATA_LIFETIME.as_secs_f64().max(3600.0);
    // Every snapshot rebuild invalidates all ~N cached reaches, and
    // recomputing them (not the contact loop itself) dominates the
    // measured phase. Pin the wall-clock refresh to the whole trace:
    // the oracle's generation-doubling rule still rebuilds when the
    // observed contact count doubles, which bounds staleness the way
    // §III-B's "rates remain relatively constant" assumes.
    configure_from_live_state(&mut sim, horizon, Some(DURATION));
    let central_nodes = sim.scheme().central_nodes().len();
    let configure_secs = configure_started.elapsed().as_secs_f64();

    // Phase 3: direct workload over the second half.
    let measured_started = Instant::now();
    sim.add_workload(scale_workload(cfg, mid, Time(DURATION.as_secs())));
    sim.run_to_end();
    let measured_secs = measured_started.elapsed().as_secs_f64();

    let metrics = sim.metrics().clone();
    let contacts = contacts_seen.get();
    let loop_secs = warmup_secs + measured_secs;
    let report = ScaleReport {
        nodes: cfg.nodes,
        contacts,
        warmup_secs,
        configure_secs,
        measured_secs,
        contacts_per_sec: if loop_secs > 0.0 {
            contacts as f64 / loop_secs
        } else {
            0.0
        },
        peak_rss_bytes: peak_rss_bytes(),
        queries_issued: metrics.queries_issued,
        success_ratio: metrics.success_ratio(),
        central_nodes,
        audit: sim
            .audit_report()
            .map(|r| (r.sweeps(), r.violations_total())),
        oracle: sim.scheme().oracle_stats().expect("scheme configured"),
        ncl: sim.scheme().ncl_work().expect("scheme selects NCLs"),
        pending: sim.scheme().pending_work(),
        stream_bytes,
    };
    let observed = instruments.map(|i| ObserveRun {
        stream_bytes: Some(stream_bytes),
        ..ObserveRun::capture("scale", cfg.seed, &mut sim, i)
    });
    (report, observed)
}

/// The instrumented city smoke behind `observe scale` / `timeline
/// scale`: a 2 000-node city at full density, telemetry from t=0.
pub(crate) fn observe_city_smoke(seed: u64) -> ObserveRun {
    let cfg = ScaleConfig {
        seed,
        ..ScaleConfig::city(2_000)
    };
    run_scale_observed(&cfg, true).1.expect("observe requested")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::telemetry::Counter;

    fn tiny() -> ScaleConfig {
        ScaleConfig::city(400)
    }

    #[test]
    fn tiny_city_runs_end_to_end() {
        let report = run_scale(&tiny());
        assert_eq!(report.nodes, 400);
        assert!(report.contacts > 1_000, "too few contacts streamed");
        assert!(report.queries_issued > 0);
        assert!((0.0..=1.0).contains(&report.success_ratio));
        assert_eq!(report.central_nodes, 8);
        assert!(report.contacts_per_sec > 0.0);
        assert!(report.audit.is_none());
    }

    #[test]
    fn audited_run_is_clean() {
        let cfg = ScaleConfig {
            audit: true,
            ..tiny()
        };
        let report = run_scale(&cfg);
        let (sweeps, violations) = report.audit.expect("audit was enabled");
        assert!(sweeps > 0, "audit never swept");
        assert_eq!(violations, 0, "invariant violations at scale");
    }

    #[test]
    fn report_renders_as_json() {
        let report = run_scale(&tiny());
        let json = report.to_json();
        assert_eq!(
            json.get("contacts").and_then(JsonValue::as_u64),
            Some(report.contacts)
        );
        assert!(json.get("contacts_per_sec").is_some());
        assert!(json.get("peak_rss_bytes").is_some());
        assert_eq!(json.get("audit"), Some(&JsonValue::Null));
    }

    #[test]
    fn exact_report_carries_the_oracle_work_counters() {
        let report = run_scale(&tiny());
        let oracle = report.oracle;
        assert!(oracle.table_recomputes > 0);
        // Three hops over mean degree 12: the searches settle the inner
        // ball only, most of it two hops out and relaxing, and the leaves
        // beyond it are weighed by the few reads that ask for one.
        assert!(
            oracle.accumulators_built * 4 > oracle.nodes_settled,
            "{oracle:?}"
        );
        assert!(
            0 < oracle.leaf_evaluations && oracle.leaf_evaluations < oracle.nodes_settled,
            "{oracle:?}"
        );
        // A reach holds its ball, 20 B a node, and nothing per rim node
        // or leaf.
        assert!(
            0 < oracle.reach_bytes && oracle.reach_bytes == 20 * oracle.nodes_settled,
            "{oracle:?}"
        );
        // Comparisons the first-hop cap leaves open read a destination's
        // ball, 16 B a node, built once an epoch.
        assert!(
            0 < oracle.balls_built && oracle.ball_bytes.is_multiple_of(16),
            "{oracle:?}"
        );
        assert!(oracle.ball_bytes > 16 * oracle.balls_built, "{oracle:?}");
        assert_eq!(run_scale(&tiny()).oracle, oracle, "counted, not timed");
        let json = report.to_json_exact();
        for (key, value) in [
            ("oracle_table_recomputes_exact", oracle.table_recomputes),
            ("oracle_nodes_settled_exact", oracle.nodes_settled),
            ("oracle_accumulators_built_exact", oracle.accumulators_built),
            ("oracle_leaf_evaluations_exact", oracle.leaf_evaluations),
            ("oracle_reach_bytes_exact", oracle.reach_bytes),
            ("oracle_balls_built_exact", oracle.balls_built),
            ("oracle_ball_bytes_exact", oracle.ball_bytes),
        ] {
            assert_eq!(json.get(key).and_then(JsonValue::as_u64), Some(value));
        }
        // The sized runs of the document carry nothing that is gated,
        // and their reach bytes ungated beside peak RSS.
        assert!(report.to_json().get("oracle_nodes_settled_exact").is_none());
        assert_eq!(
            report
                .to_json()
                .get("oracle_reach_bytes")
                .and_then(JsonValue::as_u64),
            Some(oracle.reach_bytes)
        );
    }

    #[test]
    fn reports_carry_the_stream_bytes() {
        let cfg = tiny();
        let report = run_scale(&cfg);
        let opened = cfg.builder().stream().heap_bytes() as u64;
        assert!(opened > 0);
        assert_eq!(report.stream_bytes, opened, "measured at open");
        for (json, key) in [
            (report.to_json(), "stream_bytes"),
            (report.to_json_exact(), "stream_bytes_exact"),
        ] {
            assert_eq!(json.get(key).and_then(JsonValue::as_u64), Some(opened));
        }
        let (_, observed) = run_scale_observed(&cfg, true);
        assert_eq!(observed.expect("observed").stream_bytes, Some(opened));
    }

    #[test]
    fn exact_report_carries_the_ncl_selection_work() {
        let report = run_scale(&tiny());
        let ncl = report.ncl;
        // The bound leaves a fraction of the city to search and names the
        // rest; what it searched, it searched in a real community.
        assert!(0 < ncl.searches_run && ncl.searches_run * 2 < report.nodes as u64);
        assert!(ncl.candidates_pruned * 2 > report.nodes as u64, "{ncl:?}");
        assert!(ncl.searches_run + ncl.candidates_pruned <= report.nodes as u64);
        assert!(0 < ncl.communities && ncl.communities < report.nodes as u64);
        assert_eq!(run_scale(&tiny()).ncl, ncl, "counted, not timed");
        let json = report.to_json_exact();
        for (key, value) in [
            ("ncl_searches_run_exact", ncl.searches_run),
            ("ncl_candidates_pruned_exact", ncl.candidates_pruned),
            ("ncl_communities_exact", ncl.communities),
        ] {
            assert_eq!(json.get(key).and_then(JsonValue::as_u64), Some(value));
        }
        assert!(report.to_json().get("ncl_searches_run_exact").is_none());
    }

    #[test]
    fn exact_report_carries_the_arena_work() {
        let report = run_scale(&tiny());
        let pending = report.pending;
        // A query's multicast is one pull record, however many centrals.
        assert!(0 < pending.inserted, "{pending:?}");
        assert!(pending.inserted < pending.examined, "{pending:?}");
        assert_eq!(run_scale(&tiny()).pending, pending, "counted, not timed");
        let json = report.to_json_exact();
        for (key, value) in [
            ("pending_examined_exact", pending.examined),
            ("pending_inserted_exact", pending.inserted),
        ] {
            assert_eq!(json.get(key).and_then(JsonValue::as_u64), Some(value));
        }
        assert!(report.to_json().get("pending_examined_exact").is_none());
    }

    #[test]
    fn observed_run_carries_telemetry_and_profile() {
        let (report, observed) = run_scale_observed(&tiny(), true);
        let run = observed.expect("observe requested");
        assert_eq!(run.figure, "scale");
        assert_eq!(report.queries_issued, run.metrics.queries_issued);
        // The capture spans the whole run from t=0, warm-up included:
        // every contact the engine processed is in some window.
        assert_eq!(run.telemetry().origin(), Time(0));
        let totals = run.telemetry().totals();
        assert!(totals[Counter::Contacts] > 0);
        assert_eq!(totals[Counter::Contacts], run.probe.count("contact_begin"));
        assert_eq!(totals[Counter::QueriesIssued], run.metrics.queries_issued);
        assert!(run.profile.as_ref().is_some_and(|p| p.total_ns() > 0));
        // The plain runner reports identical throughput-facing outcomes.
        let plain = run_scale(&tiny());
        assert_eq!(plain.contacts, report.contacts);
        assert_eq!(plain.queries_issued, report.queries_issued);
        assert_eq!(
            plain.success_ratio.to_bits(),
            report.success_ratio.to_bits()
        );
    }

    #[test]
    fn heartbeat_eta_is_dash_before_any_progress() {
        // progressed == 0: nothing to extrapolate from — never a
        // division by zero.
        assert_eq!(heartbeat_eta(12.0, 500, 500, Time(10_000)), "-");
        // started_sim ahead of sim_now (clock skew) saturates to zero.
        assert_eq!(heartbeat_eta(12.0, 800, 500, Time(10_000)), "-");
    }

    #[test]
    fn heartbeat_eta_extrapolates_to_the_horizon() {
        // 10 wall seconds covered 2000 of 10000 sim seconds → 8000
        // remain → 40s of wall clock left.
        assert_eq!(heartbeat_eta(10.0, 0, 2_000, Time(10_000)), "40s");
        assert_eq!(
            heartbeat_progress(2_000, Time(10_000)),
            "t=2000s/10000s (20.0%)"
        );
        // Past the horizon: remaining saturates, ETA collapses to 0.
        assert_eq!(heartbeat_eta(10.0, 0, 12_000, Time(10_000)), "0s");
        // Degenerate zero-length horizon reads as complete.
        assert_eq!(heartbeat_progress(0, Time(0)), "t=0s/0s (100.0%)");
    }

    #[test]
    fn smoke_preset_thins_the_run() {
        let city = ScaleConfig::city(10_000);
        let smoke = ScaleConfig::city(10_000).smoke();
        assert!(smoke.density().0 < city.density().0);
        assert!(smoke.density().1 < city.density().1);
        assert!(smoke.workload_size().1 <= city.workload_size().1);
    }

    #[test]
    fn workload_is_time_ordered_and_in_window() {
        let cfg = tiny();
        let events = scale_workload(&cfg, Time(1_000), Time(50_000));
        assert!(!events.is_empty());
        let mut last = Time(0);
        for e in &events {
            assert!(e.at() >= last, "workload out of order");
            assert!((1_000..50_000).contains(&e.at().0));
            last = e.at();
        }
    }
}
