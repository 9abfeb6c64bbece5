//! The two simulator workloads: `paper_fig10` (the paper's own
//! experiment) and `city_5k` (the scale cliff). Both hand-drive the
//! §VI-A protocol through the product's public calls so that set-up and
//! the timed section are separated exactly where a user would see them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use dtn_cache::experiment::{build_scheme, ExperimentConfig};
use dtn_cache::intentional::{IntentionalConfig, IntentionalScheme};
use dtn_cache::{CachingScheme, NetworkSetup, SchemeKind};
use dtn_core::ids::{DataId, NodeId};
use dtn_core::ncl::SelectionStrategy;
use dtn_core::rate::RateTable;
use dtn_core::time::{Duration, Time};
use dtn_sim::engine::{
    CacheStats, ContactSource, Scheme, SimConfig, SimCtx, Simulator, StreamSource, WorkloadEvent,
};
use dtn_sim::message::{DataItem, Query};
use dtn_sim::metrics::Metrics;
use dtn_sim::probe::RecordingProbe;
use dtn_sim::profiler::ProfileReport;
use dtn_trace::synthetic::SyntheticTraceBuilder;
use dtn_trace::trace::Contact;
use dtn_trace::TracePreset;
use dtn_workload::{Workload, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::json::{obj, Json};
use crate::kernels::{self, KernelInputs};
use crate::report::{Fnv, Report};
use crate::span::SpanLog;
use crate::stats::{median, minimum, unitwise_sum};
use crate::{Options, REFERENCE_SEED, TRACE_SEED};

type Sim<C> = Simulator<Box<dyn CachingScheme>, C>;
type ProbeHandle = Rc<RefCell<RecordingProbe>>;

/// Both ends and the default of the Fig. 10 x-axis (12 h, 1 d, 3 d, 1 w,
/// 2 w, 30 d, 90 d): average data lifetimes at trace scale 1. Three of
/// the seven keep a pass near 1.5 s, and how many passes sample each
/// timed step is what steadies a run on this box.
const FIG10_LIFETIMES: [Duration; 3] = [
    Duration(12 * 3600),
    Duration(7 * 86_400),
    Duration(90 * 86_400),
];
/// NCL count of the §VI-B MIT Reality experiments and of the city run.
const NCL_COUNT: usize = 8;
/// City hop bound: NCL selection sweeps and the bounded-reach oracle.
const CITY_HOPS: usize = 3;
const CITY_DURATION: Duration = Duration(2 * 86_400);
const CITY_ITEM_LIFETIME: Duration = Duration(12 * 3600);
const CITY_ITEM_BYTES: u64 = 1 << 20;
const CITY_BUFFERS: (u64, u64) = (8 << 20, 16 << 20);
/// Timed steps the measured half of one run is advanced in: the finer
/// the step, the likelier that some pass ran it undisturbed.
const FIG10_SLICES: u64 = 32;
const CITY_SLICES: u64 = 1920;
/// MIT scale of the audited replica.
const REPLICA_MIT_SCALE: f64 = 0.1;
/// Population of the audited city replica: just past `DENSE_NODE_LIMIT`,
/// so the sparse rate table is the one audited.
const REPLICA_CITY_NODES: usize = 2_100;

/// How large the simulator workloads run.
#[derive(Debug, Clone, Copy)]
pub struct SimSizes {
    /// Scale of the MIT Reality preset (duration and contacts shrink
    /// together; lifetimes shrink with them so the figure keeps its shape).
    pub mit_scale: f64,
    /// City population.
    pub city_nodes: usize,
}

/// Which cells one `paper_fig10` pass runs.
struct Fig10Spec {
    scale: f64,
    lifetimes: Vec<Duration>,
    schemes: Vec<SchemeKind>,
}

impl Fig10Spec {
    fn full(scale: f64) -> Self {
        Fig10Spec {
            scale,
            lifetimes: FIG10_LIFETIMES.to_vec(),
            schemes: SchemeKind::ALL.to_vec(),
        }
    }

    /// The audited replica: every scheme at the default lifetime.
    fn replica() -> Self {
        Fig10Spec {
            scale: REPLICA_MIT_SCALE,
            lifetimes: vec![Duration::weeks(1)],
            schemes: SchemeKind::ALL.to_vec(),
        }
    }
}

/// Instruments switched on for one pass.
#[derive(Debug, Clone, Copy, Default)]
struct Instruments {
    /// `SimConfig::profile` plus a counters-only `RecordingProbe`.
    traced: bool,
    /// `SimConfig::audit`.
    audit: bool,
}

/// One finished simulation run.
struct CellResult {
    label: String,
    kind: SchemeKind,
    metrics: Metrics,
    /// Wall time of each timed step (a slice of simulated time).
    step_s: Vec<f64>,
    secs: f64,
    contacts: u64,
    audit: Option<(u64, u64)>,
    profile: Option<ProfileReport>,
    probe: Option<RecordingProbe>,
}

/// Inputs captured at the midpoint of a traced pass, for the kernels.
struct Captured {
    rates: RateTable,
    capacities: Vec<u64>,
    item_sizes: Vec<u64>,
    warm_contacts: Vec<Contact>,
    now: Time,
    horizon: f64,
}

/// One pass: set-up of every cell, then the timed section over them.
struct Pass {
    setup_s: f64,
    /// Wall time of every timed step of the pass, in a fixed order.
    step_s: Vec<f64>,
    timed_s: f64,
    contacts: u64,
    cells: Vec<CellResult>,
    captured: Option<Captured>,
}

/// A prepared (warmed, configured, loaded) simulator awaiting its timed run.
struct Cell<C: ContactSource> {
    label: String,
    kind: SchemeKind,
    sim: Sim<C>,
    probe: Option<ProbeHandle>,
    /// Instants at which the timed section pauses to read the clock
    /// (ascending, inside the measured half).
    pauses: Vec<Time>,
}

/// Warm-up over the first half, then NCL selection and configuration
/// from the accumulated rates. Returns the midpoint rate table and the
/// buffer capacities the scheme was configured with.
fn warm_and_configure<C: ContactSource>(
    sim: &mut Sim<C>,
    mid: Time,
    horizon: f64,
    path_refresh: Option<Duration>,
    log: &mut SpanLog,
) -> (RateTable, Vec<u64>) {
    log.span("dtn-sim.engine.warmup", || sim.run_until(mid));
    log.span("dtn-cache.configure", || {
        let capacities: Vec<u64> = (0..sim.source().node_count() as u32)
            .map(|n| sim.buffer_capacity(NodeId(n)))
            .collect();
        let rate_table = sim.rate_table().clone();
        sim.scheme_mut().configure(&NetworkSetup {
            rate_table: &rate_table,
            now: mid,
            capacities: capacities.clone(),
            horizon,
            path_refresh,
        });
        (rate_table, capacities)
    })
}

fn install_probe<C: ContactSource>(sim: &mut Sim<C>, instr: Instruments) -> Option<ProbeHandle> {
    instr.traced.then(|| {
        let handle = Rc::new(RefCell::new(RecordingProbe::new().without_event_stream()));
        sim.set_probe(Box::new(Rc::clone(&handle)));
        handle
    })
}

/// The instants that cut `mid..end` into `slices` equal timed steps.
fn pauses(mid: Time, end: Time, slices: u64) -> Vec<Time> {
    (1..slices)
        .map(|k| Time(mid.0 + (end.0 - mid.0) * k / slices))
        .collect()
}

/// The timed section of one cell: `run_until` each pause, then
/// `run_to_end` — nothing else.
fn run_measured<C: ContactSource>(mut cell: Cell<C>, log: &mut SpanLog) -> CellResult {
    let before = cell.sim.rate_table().total_contacts();
    let started = Instant::now();
    let mut step_s = Vec::with_capacity(cell.pauses.len() + 1);
    let mut last = started;
    for &pause in &cell.pauses {
        cell.sim.run_until(pause);
        let now = Instant::now();
        step_s.push((now - last).as_secs_f64());
        last = now;
    }
    cell.sim.run_to_end();
    let ended = Instant::now();
    step_s.push((ended - last).as_secs_f64());
    let span = if cell.kind == SchemeKind::Intentional {
        "dtn-cache.intentional.measured"
    } else {
        "dtn-cache.baselines.measured"
    };
    log.record(span, started, ended);
    let probe = cell.probe.map(|handle| {
        drop(cell.sim.take_probe());
        Rc::try_unwrap(handle)
            .expect("engine returned its probe handle")
            .into_inner()
    });
    CellResult {
        label: cell.label,
        kind: cell.kind,
        metrics: cell.sim.metrics().clone(),
        step_s,
        secs: (ended - started).as_secs_f64(),
        contacts: cell.sim.rate_table().total_contacts() - before,
        audit: cell
            .sim
            .audit_report()
            .map(|r| (r.sweeps(), r.violations_total())),
        profile: cell.sim.profile_report(),
        probe,
    }
}

fn run_cells<C: ContactSource>(
    cells: Vec<Cell<C>>,
    setup_s: f64,
    captured: Option<Captured>,
    log: &mut SpanLog,
) -> Pass {
    log.enter("dtn-sim.engine.measured");
    let cells: Vec<CellResult> = cells.into_iter().map(|c| run_measured(c, log)).collect();
    log.exit();
    Pass {
        setup_s,
        step_s: cells
            .iter()
            .flat_map(|c| c.step_s.iter().copied())
            .collect(),
        timed_s: cells.iter().map(|c| c.secs).sum(),
        contacts: cells.iter().map(|c| c.contacts).sum(),
        cells,
        captured,
    }
}

fn mit_builder(scale: f64) -> SyntheticTraceBuilder {
    SyntheticTraceBuilder::from_preset(TracePreset::MitReality)
        .scale(scale)
        .seed(TRACE_SEED)
}

fn fig10_pass(seed: u64, spec: &Fig10Spec, instr: Instruments, log: &mut SpanLog) -> Pass {
    let setup_started = Instant::now();
    log.enter("setup");
    let trace = log.span("dtn-trace.synthetic.build", || {
        mit_builder(spec.scale).build()
    });
    let mid = trace.midpoint();
    let end = Time(trace.duration().as_secs());
    let mut cells = Vec::new();
    let mut captured = None;
    for &full_lifetime in &spec.lifetimes {
        let lifetime = full_lifetime.mul_f64(spec.scale).max(Duration::hours(1));
        let config = ExperimentConfig {
            ncl_count: NCL_COUNT,
            mean_data_lifetime: lifetime,
            ..ExperimentConfig::default()
        };
        let horizon = lifetime.as_secs_f64().max(3600.0);
        for &kind in &spec.schemes {
            let mut sim = Simulator::new(
                &trace,
                build_scheme(kind, &config),
                SimConfig {
                    buffer_range: config.buffer_range,
                    sample_interval: config.sample_interval,
                    audit: instr.audit,
                    profile: instr.traced,
                    seed,
                    ..SimConfig::default()
                },
            );
            let probe = install_probe(&mut sim, instr);
            let (rates, capacities) = warm_and_configure(&mut sim, mid, horizon, None, log);
            let workload = log.span("dtn-workload.generate", || {
                Workload::generate(
                    trace.node_count(),
                    &WorkloadConfig {
                        generation_probability: config.generation_probability,
                        mean_lifetime: lifetime,
                        mean_size: config.mean_data_size,
                        zipf_exponent: config.zipf_exponent,
                        query_constraint: config.query_constraint,
                        window: (mid, end),
                        seed,
                    },
                )
            });
            // Kernels run on the default-lifetime Intentional cell's
            // inputs — the paper's own operating point.
            if instr.traced
                && kind == SchemeKind::Intentional
                && full_lifetime == Duration::weeks(1)
            {
                captured = Some(Captured {
                    rates,
                    capacities,
                    item_sizes: workload.items().iter().map(|i| i.size).collect(),
                    warm_contacts: trace.contacts_between(Time::ZERO, mid).to_vec(),
                    now: mid,
                    horizon,
                });
            }
            sim.add_workload(workload.into_events());
            cells.push(Cell {
                label: format!("{}@{}s", kind.name(), lifetime.as_secs()),
                kind,
                sim,
                probe,
                pauses: pauses(mid, end, FIG10_SLICES),
            });
        }
    }
    log.exit();
    let setup_s = setup_started.elapsed().as_secs_f64();
    run_cells(cells, setup_s, captured, log)
}

fn city_builder(nodes: usize) -> SyntheticTraceBuilder {
    // `ScaleConfig::city(nodes)` of `crates/bench`, written out: that
    // crate is due for a rewrite and is not a dependency.
    SyntheticTraceBuilder::new(nodes)
        .duration(CITY_DURATION)
        .target_contacts(25 * nodes as u64)
        .communities((nodes / 500).clamp(4, 4096))
        .community_boost(6.0)
        .edge_density((12.0 / (nodes - 1) as f64).min(1.0))
        .seed(TRACE_SEED)
}

/// Items uniform over the first half of the window, queries skewed
/// toward low ids, each after its item exists — built directly as events
/// (`Workload::generate` sweeps epochs × nodes, which would dominate).
fn city_workload(nodes: usize, seed: u64, start: Time, end: Time) -> Vec<WorkloadEvent> {
    let items = (nodes / 100).clamp(64, 1024);
    let queries = (nodes / 50).clamp(128, 2048);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0005_CA1E_D017);
    let span = end.0 - start.0;
    let nodes = nodes as u32;
    let mut created = Vec::with_capacity(items);
    let mut events = Vec::with_capacity(items + queries);
    for i in 0..items {
        let at = Time(start.0 + rng.gen_range(0..span / 2));
        created.push(at);
        events.push(WorkloadEvent::GenerateData {
            item: DataItem::new(
                DataId(i as u64),
                NodeId(rng.gen_range(0..nodes)),
                CITY_ITEM_BYTES,
                at,
                CITY_ITEM_LIFETIME,
            ),
        });
    }
    for _ in 0..queries {
        let u: f64 = rng.gen_range(0.0..1.0);
        let j = ((u * u * items as f64) as usize).min(items - 1);
        events.push(WorkloadEvent::IssueQuery {
            at: Time(rng.gen_range(created[j].0 + 1..end.0)),
            requester: NodeId(rng.gen_range(0..nodes)),
            data: DataId(j as u64),
            constraint: CITY_ITEM_LIFETIME.div_by(2),
        });
    }
    events.sort_by_key(|e| (e.at(), matches!(e, WorkloadEvent::IssueQuery { .. })));
    events
}

fn city_selection() -> SelectionStrategy {
    SelectionStrategy::CommunityPathMetric {
        max_hops: Some(CITY_HOPS),
    }
}

fn city_pass(seed: u64, nodes: usize, instr: Instruments, log: &mut SpanLog) -> Pass {
    let setup_started = Instant::now();
    log.enter("setup");
    let source = log.span("dtn-trace.synthetic.stream_open", || {
        StreamSource::from_synthetic(city_builder(nodes).stream())
    });
    let scheme: Box<dyn CachingScheme> = Box::new(IntentionalScheme::new(IntentionalConfig {
        ncl_count: NCL_COUNT,
        ncl_selection: city_selection(),
        // One slot per node: the direct-mapped reach cache never collides.
        bounded_reach: Some((CITY_HOPS, nodes)),
        ..IntentionalConfig::default()
    }));
    let mut sim = Simulator::from_source(
        source,
        scheme,
        SimConfig {
            buffer_range: CITY_BUFFERS,
            audit: instr.audit,
            profile: instr.traced,
            seed,
            ..SimConfig::default()
        },
    );
    let probe = install_probe(&mut sim, instr);
    let mid = Time(CITY_DURATION.as_secs() / 2);
    let end = Time(CITY_DURATION.as_secs());
    let horizon = CITY_ITEM_LIFETIME.as_secs_f64();
    // The wall-clock refresh is pinned to the whole trace; the oracle's
    // generation-doubling rule still rebuilds the snapshot as contacts
    // accumulate.
    let (rates, capacities) = warm_and_configure(&mut sim, mid, horizon, Some(CITY_DURATION), log);
    let events = city_workload(nodes, seed, mid, end);
    let captured = instr.traced.then(|| Captured {
        rates,
        capacities,
        item_sizes: vec![CITY_ITEM_BYTES],
        warm_contacts: Vec::new(),
        now: mid,
        horizon,
    });
    sim.add_workload(events);
    log.exit();
    let setup_s = setup_started.elapsed().as_secs_f64();
    let cell = Cell {
        label: format!("Intentional@{nodes}"),
        kind: SchemeKind::Intentional,
        sim,
        probe,
        pauses: pauses(mid, end, CITY_SLICES),
    };
    run_cells(vec![cell], setup_s, captured, log)
}

/// A scheme that does nothing: the engine's dispatch cost alone.
struct NoopScheme;

impl Scheme for NoopScheme {
    fn on_data_generated(&mut self, _ctx: &mut SimCtx<'_>, _item: DataItem) {}
    fn on_query_issued(&mut self, _ctx: &mut SimCtx<'_>, _query: Query) {}
    fn on_contact(&mut self, _ctx: &mut SimCtx<'_>, _contact: Contact) {}
    fn cache_stats(&self, _now: Time) -> CacheStats {
        CacheStats::default()
    }
}

fn fingerprint(cells: &[CellResult]) -> u64 {
    let mut h = Fnv::new();
    for c in cells {
        let m = &c.metrics;
        for v in [
            m.queries_issued,
            m.queries_satisfied,
            m.total_delay_secs,
            m.data_generated,
            m.bytes_transmitted,
            m.transfers_rejected,
            m.replacement_ops,
            m.duplicate_deliveries,
            m.late_deliveries,
            m.contacts_lost,
            m.samples.len() as u64,
        ] {
            h.fold(v);
        }
    }
    h.0
}

/// Satisfied ÷ issued over the Intentional cells.
fn intentional_success(cells: &[CellResult]) -> f64 {
    let (sat, issued) = cells
        .iter()
        .filter(|c| c.kind == SchemeKind::Intentional)
        .fold((0u64, 0u64), |(s, i), c| {
            (
                s + c.metrics.queries_satisfied,
                i + c.metrics.queries_issued,
            )
        });
    sat as f64 / issued.max(1) as f64
}

fn per_scheme_summary(cells: &[CellResult]) -> Json {
    let mut rows = Vec::new();
    for kind in SchemeKind::ALL {
        let of_kind: Vec<&CellResult> = cells.iter().filter(|c| c.kind == kind).collect();
        if of_kind.is_empty() {
            continue;
        }
        let sum =
            |f: fn(&Metrics) -> u64| of_kind.iter().map(|c| f(&c.metrics)).sum::<u64>() as f64;
        let satisfied = sum(|m| m.queries_satisfied);
        rows.push((
            kind.name().to_string(),
            obj([
                (
                    "success_ratio",
                    Json::Num(satisfied / sum(|m| m.queries_issued).max(1.0)),
                ),
                (
                    "avg_delay_hours",
                    Json::Num(sum(|m| m.total_delay_secs) / satisfied.max(1.0) / 3600.0),
                ),
                (
                    "avg_copies_per_item",
                    Json::Num(
                        of_kind
                            .iter()
                            .map(|c| c.metrics.avg_copies_per_item())
                            .sum::<f64>()
                            / of_kind.len() as f64,
                    ),
                ),
                ("run_s", Json::Num(of_kind.iter().map(|c| c.secs).sum())),
            ]),
        ));
    }
    Json::Obj(rows)
}

/// Which simulator workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// All five schemes × the seven Fig. 10 lifetimes on MIT Reality.
    PaperFig10,
    /// One streamed city run of the Intentional scheme.
    City,
}

impl SimWorkload {
    /// Seconds one pass (set-up and timed section) takes on the box the
    /// sizes were calibrated on, between its calm and its busy minutes:
    /// plans 20 passes for a 30 s run ([`Options::wants_pass`]).
    fn nominal_pass_s(self, sizes: &SimSizes) -> f64 {
        match self {
            SimWorkload::PaperFig10 => 7.5 * sizes.mit_scale,
            SimWorkload::City => 3.0e-4 * sizes.city_nodes as f64,
        }
    }

    fn pass(self, opts: &Options, sizes: &SimSizes, instr: Instruments, log: &mut SpanLog) -> Pass {
        match self {
            SimWorkload::PaperFig10 => {
                fig10_pass(opts.seed, &Fig10Spec::full(sizes.mit_scale), instr, log)
            }
            SimWorkload::City => city_pass(opts.seed, sizes.city_nodes, instr, log),
        }
    }

    /// The reduced replica with `SimConfig::audit` on. Its size and seed
    /// are fixed, so its fingerprint is the same on every run of every
    /// seed and can be held against the committed baseline.
    fn audited_replica(self) -> Pass {
        let instr = Instruments {
            audit: true,
            ..Instruments::default()
        };
        let log = &mut SpanLog::new(false);
        match self {
            SimWorkload::PaperFig10 => {
                fig10_pass(REFERENCE_SEED, &Fig10Spec::replica(), instr, log)
            }
            SimWorkload::City => city_pass(REFERENCE_SEED, REPLICA_CITY_NODES, instr, log),
        }
    }
}

/// Output checks shared by the traced and untraced runs: every cell of
/// every pass must reproduce the first pass bit for bit, and the audited
/// replica must report no violation.
fn check_outputs(report: &mut Report, reference: &Pass, pass: &Pass, index: usize) {
    report.attempted += pass.cells.len() as u64;
    for (a, b) in reference.cells.iter().zip(&pass.cells) {
        if a.metrics != b.metrics {
            report.fail(format!("pass {index}: {} differs from pass 0", b.label));
        }
    }
    if reference.cells.len() != pass.cells.len() {
        report.fail(format!("pass {index}: cell count differs from pass 0"));
    }
}

fn check_audit(report: &mut Report, workload: SimWorkload) {
    let replica = workload.audited_replica();
    let mut rows = Vec::new();
    for cell in &replica.cells {
        report.attempted += 1;
        let (sweeps, violations) = cell.audit.unwrap_or((0, 0));
        if sweeps == 0 || violations > 0 {
            report.fail(format!(
                "audited replica {}: {sweeps} sweeps, {violations} violations",
                cell.label
            ));
        }
        rows.push((
            cell.label.clone(),
            obj([
                ("sweeps", Json::Num(sweeps as f64)),
                ("violations", Json::Num(violations as f64)),
            ]),
        ));
    }
    report.note("audited_replica", Json::Obj(rows));
    report.note(
        "replica_fingerprint",
        Json::Str(format!("{:016x}", fingerprint(&replica.cells))),
    );
}

fn note_outputs(report: &mut Report, pass: &Pass) {
    report.note("cells", Json::Num(pass.cells.len() as f64));
    report.note("contacts_per_pass", Json::Num(pass.contacts as f64));
    report.note("success_ratio", Json::Num(intentional_success(&pass.cells)));
    report.note(
        "success_ratio_by_cell",
        Json::Obj(
            pass.cells
                .iter()
                .filter(|c| c.kind == SchemeKind::Intentional)
                .map(|c| {
                    let m = &c.metrics;
                    (
                        c.label.clone(),
                        Json::Num(m.queries_satisfied as f64 / m.queries_issued.max(1) as f64),
                    )
                })
                .collect(),
        ),
    );
    report.note(
        "fingerprint",
        Json::Str(format!("{:016x}", fingerprint(&pass.cells))),
    );
    report.note("per_scheme", per_scheme_summary(&pass.cells));
}

/// The untraced run: end-to-end metrics.
pub fn run(workload: SimWorkload, name: &'static str, opts: &Options, sizes: &SimSizes) -> Report {
    let mut report = Report::new(name, opts.seed, false);
    let log = &mut SpanLog::new(false);
    // Only the first pass is kept whole (as the reference every later
    // pass must reproduce); of the others only the timings survive, so
    // memory does not grow with the number of passes.
    let mut reference: Option<Pass> = None;
    let (mut setup_s, mut step_s, mut timed_s) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while opts.wants_pass(
        timed_s.len(),
        started.elapsed().as_secs_f64(),
        workload.nominal_pass_s(sizes),
    ) {
        let pass = workload.pass(opts, sizes, Instruments::default(), log);
        check_outputs(
            &mut report,
            reference.as_ref().unwrap_or(&pass),
            &pass,
            timed_s.len(),
        );
        setup_s.push(pass.setup_s);
        step_s.push(pass.step_s.clone());
        timed_s.push(pass.timed_s);
        reference.get_or_insert(pass);
    }
    let reference = reference.expect("at least one pass");
    check_audit(&mut report, workload);

    let contacts = reference.contacts as f64;
    report.set_value("setup_s", minimum(&setup_s), setup_s);
    report.set_value(
        "ops_per_s",
        contacts / unitwise_sum(&step_s, minimum),
        timed_s.iter().map(|t| contacts / t).collect(),
    );
    report.note(
        "ops_per_s_from_step_medians",
        Json::Num(contacts / unitwise_sum(&step_s, median)),
    );
    report.set(
        "peak_rss_bytes",
        vec![dtn_core::sys::peak_rss_bytes() as f64],
    );
    report.note("op", Json::Str("contact dispatched".to_string()));
    report.note("passes", Json::Num(timed_s.len() as f64));
    report.note(
        "run_s",
        Json::Arr(timed_s.iter().map(|&t| Json::Num(t)).collect()),
    );
    note_outputs(&mut report, &reference);
    report.check_against_baselines(opts.smoke);
    report
}

/// Sums a profiler phase over a set of cells: `(total s, self s, calls)`.
fn phase(cells: &[&CellResult], name: &str) -> (f64, f64, f64) {
    let mut out = (0.0, 0.0, 0.0);
    for entry in cells
        .iter()
        .filter_map(|c| c.profile.as_ref())
        .flat_map(|p| &p.entries)
        .filter(|e| e.phase == name)
    {
        out.0 += entry.total_ns as f64 / 1e9;
        out.1 += entry.self_ns as f64 / 1e9;
        out.2 += entry.calls as f64;
    }
    out
}

/// The per-layer values one traced pass yields on its own (no kernels).
fn layer_values(pass: &Pass, log: &SpanLog, run: u32) -> BTreeMap<&'static str, f64> {
    let span_s = |name: &str| log.total_s(name, run);
    let all: Vec<&CellResult> = pass.cells.iter().collect();
    let intentional: Vec<&CellResult> = all
        .iter()
        .copied()
        .filter(|c| c.kind == SchemeKind::Intentional)
        .collect();
    let count = |cells: &[&CellResult], kinds: &[&str]| -> f64 {
        cells
            .iter()
            .filter_map(|c| c.probe.as_ref())
            .map(|p| kinds.iter().map(|k| p.count(k)).sum::<u64>())
            .sum::<u64>() as f64
    };
    let oracle = intentional
        .iter()
        .filter_map(|c| c.probe.as_ref())
        .map(RecordingProbe::oracle_counters)
        .fold((0u64, 0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));

    let mut v = BTreeMap::new();
    v.insert(
        "dtn-trace.synthetic.build_s",
        span_s("dtn-trace.synthetic.build"),
    );
    v.insert(
        "dtn-trace.synthetic.stream_open_s",
        span_s("dtn-trace.synthetic.stream_open"),
    );
    v.insert("dtn-sim.engine.warmup_s", span_s("dtn-sim.engine.warmup"));
    v.insert("dtn-cache.configure_s", span_s("dtn-cache.configure"));
    v.insert("dtn-workload.generate_s", span_s("dtn-workload.generate"));
    v.insert(
        "dtn-sim.engine.measured_s",
        span_s("dtn-sim.engine.measured"),
    );
    v.insert(
        "dtn-cache.intentional.measured_s",
        span_s("dtn-cache.intentional.measured"),
    );
    v.insert(
        "dtn-cache.baselines.measured_s",
        span_s("dtn-cache.baselines.measured"),
    );
    v.insert(
        "dtn-sim.engine.contact_commit_self_s",
        phase(&all, "contact_commit").1,
    );
    v.insert("dtn-sim.engine.workload_s", phase(&all, "workload").0);
    v.insert("dtn-sim.engine.sample_s", phase(&all, "sample").0);
    v.insert("dtn-core.knapsack.busy_s", phase(&all, "knapsack_solve").0);
    v.insert("dtn-core.knapsack.solves", phase(&all, "knapsack_solve").2);
    v.insert(
        "dtn-sim.metrics.success_ratio",
        intentional_success(&pass.cells),
    );
    v.extend(kernels::oracle_values(oracle));
    v.insert(
        "dtn-cache.intentional.relays",
        count(
            &intentional,
            &["push_relay", "query_relay", "response_relay"],
        ),
    );
    v.insert(
        "dtn-cache.intentional.transmits",
        count(&intentional, &["transmit_accepted"]),
    );
    v.insert(
        "dtn-cache.intentional.replacements",
        intentional
            .iter()
            .map(|c| c.metrics.replacement_ops)
            .sum::<u64>() as f64,
    );
    v.insert(
        "dtn-cache.intentional.evictions",
        count(&intentional, &["replacement_evicted"]),
    );
    v
}

/// Drains a fresh city stream with no engine attached: generation cost
/// alone. Returns the warm-up contacts, the total count and the seconds.
fn drain_city_stream(nodes: usize) -> (Vec<Contact>, u64, f64) {
    let mid = Time(CITY_DURATION.as_secs() / 2);
    let started = Instant::now();
    let mut warm = Vec::new();
    let mut total = 0u64;
    for contact in city_builder(nodes).stream() {
        total += 1;
        if contact.start < mid {
            warm.push(contact);
        }
    }
    (warm, total, started.elapsed().as_secs_f64())
}

/// Engine dispatch floor: the whole source through a no-op scheme.
fn dispatch_ns_per_contact(workload: SimWorkload, opts: &Options, sizes: &SimSizes) -> f64 {
    let config = SimConfig {
        seed: opts.seed,
        ..SimConfig::default()
    };
    match workload {
        SimWorkload::PaperFig10 => {
            let trace = mit_builder(sizes.mit_scale).build();
            kernels::mean_secs(|| {
                let mut sim = Simulator::new(&trace, NoopScheme, config.clone());
                sim.run_to_end();
            }) * 1e9
                / trace.contact_count() as f64
        }
        SimWorkload::City => {
            // Stream generation rides inside the engine loop here, as it
            // does in the workload; `stream_contacts_per_s` prices it.
            let source = StreamSource::from_synthetic(city_builder(sizes.city_nodes).stream());
            let mut sim = Simulator::from_source(source, NoopScheme, config);
            let started = Instant::now();
            sim.run_to_end();
            started.elapsed().as_secs_f64() * 1e9 / sim.rate_table().total_contacts().max(1) as f64
        }
    }
}

/// The traced run: per-layer metrics. Each traced pass is paired with an
/// untraced one so the cost of tracing itself is reported.
pub fn run_traced(
    workload: SimWorkload,
    name: &'static str,
    opts: &Options,
    sizes: &SimSizes,
    log: &mut SpanLog,
) -> Report {
    let mut report = Report::new(name, opts.seed, true);
    let traced_instr = Instruments {
        traced: true,
        ..Instruments::default()
    };
    let mut overhead = Vec::new();
    let mut values: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut last: Option<Pass> = None;
    let started = Instant::now();
    while values.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        let plain = workload.pass(
            opts,
            sizes,
            Instruments::default(),
            &mut SpanLog::new(false),
        );
        let run = values.len() as u32;
        log.set_run(run);
        let traced = workload.pass(opts, sizes, traced_instr, log);
        overhead.push(traced.timed_s / plain.timed_s - 1.0);
        check_outputs(&mut report, &plain, &traced, values.len());
        values.push(layer_values(&traced, log, run));
        last = Some(traced);
    }
    let mut pass = last.expect("at least one traced pass");
    report.set("trace_overhead_ratio", overhead);
    for key in values[0].keys() {
        report.set(key, values.iter().map(|v| v[key]).collect());
    }

    // Unit costs on the inputs captured at the midpoint of the last pass.
    let mut captured = pass.captured.take().expect("traced passes capture inputs");
    if workload == SimWorkload::City {
        let (warm, total, secs) = drain_city_stream(sizes.city_nodes);
        captured.warm_contacts = warm;
        report.set(
            "dtn-trace.synthetic.stream_contacts_per_s",
            vec![total as f64 / secs],
        );
    }
    let bounded = (workload == SimWorkload::City).then_some(CITY_HOPS);
    let costs = kernels::measure(&KernelInputs {
        rates: &captured.rates,
        now: captured.now,
        horizon: captured.horizon,
        ncl_count: NCL_COUNT,
        selection: if bounded.is_some() {
            city_selection()
        } else {
            SelectionStrategy::PathMetric
        },
        bounded_hops: bounded,
        warm_contacts: &captured.warm_contacts,
        item_sizes: &captured.item_sizes,
        capacities: &captured.capacities,
        seed: opts.seed,
    });
    let dispatch_ns = dispatch_ns_per_contact(workload, opts, sizes);
    report.set("dtn-sim.engine.dispatch_ns_per_contact", vec![dispatch_ns]);

    // What the outside view can and cannot explain of the Intentional
    // cells' commit time: oracle work priced at unit cost, the engine's
    // dispatch floor, and a remainder that is scheme bookkeeping.
    let last_values = values.last().expect("at least one traced pass");
    let oracle_s = costs.record(
        &mut report,
        bounded.is_some(),
        last_values["dtn-sim.oracle.table_recomputes"],
        last_values["dtn-sim.oracle.rebuilds"],
    );
    let intentional: Vec<&CellResult> = pass
        .cells
        .iter()
        .filter(|c| c.kind == SchemeKind::Intentional)
        .collect();
    let floor_s = intentional.iter().map(|c| c.contacts).sum::<u64>() as f64 * dispatch_ns / 1e9;
    report.set(
        "dtn-cache.intentional.residual_s",
        vec![phase(&intentional, "contact_commit").1 - oracle_s - floor_s],
    );
    report.note("traced_passes", Json::Num(values.len() as f64));
    note_outputs(&mut report, &pass);
    report
}
