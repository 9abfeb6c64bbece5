//! Hostile-regime experiment matrix: contact process × overlay ×
//! NCL-maintenance policy.
//!
//! The paper's evaluation assumes stationary Poisson contacts. This
//! runner measures what happens when that assumption breaks twice over:
//! the *contact process* is swapped for a heavy-tailed / lognormal /
//! duty-cycled law ([`ContactProcessKind`]), and a *hostile overlay*
//! ([`RegimeOverlay`]) perturbs the second half of the run — a query
//! flash crowd, a coordinated blackout of the elected NCLs, a network
//! partition, or buffer famine. Every cell runs twice: with the NCLs
//! frozen at their mid-trace election, and with epoch re-election
//! enabled — the difference (`recovery`) quantifies how much online
//! re-election buys back under each regime.
//!
//! Per-process estimator diagnostics (exponential-fit R², Hill tail
//! exponent, mean gap CV²) quantify how far each process pushes the
//! rate estimator from the Poisson world it was built for.

use dtn_cache::experiment::configure_from_live_state;
use dtn_cache::intentional::{IntentionalConfig, IntentionalScheme};
use dtn_core::graph::ContactGraph;
use dtn_core::ids::{DataId, NodeId};
use dtn_core::ncl::{select_by_strategy, SelectionStrategy};
use dtn_core::time::{Duration, Time};
use dtn_sim::engine::{SimConfig, Simulator, TraceSource, WorkloadEvent};
use dtn_sim::message::DataItem;
use dtn_sim::overlay::{OverlayKind, OverlaySource, RegimeOverlay};
use dtn_sim::probe::RecordingProbe;
use dtn_sim::telemetry::Telemetry;
use dtn_trace::process::ContactProcessKind;
use dtn_trace::synthetic::SyntheticTraceBuilder;
use dtn_trace::trace::ContactTrace;
use dtn_trace::{analysis, stats};

use crate::json::JsonValue;
use crate::observe::{Instruments, ObserveRun, TIMELINE_WINDOWS};

/// The overlay slots of the matrix, in report order. `"none"` is the
/// unperturbed baseline every other slot is read against.
pub const OVERLAY_SLOTS: [&str; 5] = [
    "none",
    "flash-crowd",
    "ncl-blackout",
    "partition",
    "buffer-famine",
];

/// Matrix configuration.
#[derive(Debug, Clone)]
pub struct RegimeMatrixConfig {
    /// Scales trace duration and contact volume, like the figure
    /// commands (1.0 = 10 days / 150k contacts over 40 nodes).
    pub scale: f64,
    /// Repetitions per cell; outcomes are seed-averaged.
    pub seeds: u32,
    /// Contact processes to sweep (columns of the matrix).
    pub processes: Vec<ContactProcessKind>,
    /// Overlay slots to sweep (subset of [`OVERLAY_SLOTS`]).
    pub overlays: Vec<String>,
    /// Run every simulation with the invariant audit on.
    pub audit: bool,
}

impl Default for RegimeMatrixConfig {
    fn default() -> Self {
        RegimeMatrixConfig {
            scale: 0.1,
            seeds: 3,
            processes: ContactProcessKind::ALL.to_vec(),
            overlays: OVERLAY_SLOTS.iter().map(|s| s.to_string()).collect(),
            audit: true,
        }
    }
}

/// Seed-averaged outcome of one (process, overlay, policy) corner.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegimeOutcome {
    /// Mean fraction of issued queries satisfied in time.
    pub success_ratio: f64,
    /// Mean satisfied-query delay in hours.
    pub delay_hours: f64,
    /// Mean queries issued per run.
    pub queries_issued: f64,
    /// Mean contacts the overlay suppressed per run.
    pub contacts_dropped: f64,
    /// Total audit violations across the seeds (0 when clean or when
    /// the audit is off).
    pub audit_violations: u64,
    /// Total audit sweeps across the seeds.
    pub audit_sweeps: u64,
}

/// One matrix cell: a (process, overlay) pair run frozen and adaptive.
#[derive(Debug, Clone)]
pub struct RegimeCell {
    /// The per-pair contact process of the trace.
    pub process: ContactProcessKind,
    /// The overlay slot name (one of [`OVERLAY_SLOTS`]).
    pub overlay: String,
    /// Outcome with NCLs frozen at their mid-trace election.
    pub frozen: RegimeOutcome,
    /// Outcome with epoch re-election enabled.
    pub adaptive: RegimeOutcome,
}

impl RegimeCell {
    /// Success-ratio gain of epoch re-election over frozen NCLs.
    pub fn recovery(&self) -> f64 {
        self.adaptive.success_ratio - self.frozen.success_ratio
    }
}

/// Estimator-facing diagnostics of one contact process, measured on an
/// unperturbed trace.
#[derive(Debug, Clone, Copy)]
pub struct ProcessDiagnostics {
    /// The process under diagnosis.
    pub process: ContactProcessKind,
    /// R² of the log-CCDF exponential fit of pooled inter-contact gaps
    /// (≈ 1 for Poisson; drops as the law leaves the exponential family).
    pub exp_fit_r2: f64,
    /// Hill tail-exponent estimate over the top decile of gaps.
    pub hill_tail: Option<f64>,
    /// The tail exponent the process was configured with, if it has one.
    pub configured_tail: Option<f64>,
    /// Gap-weighted mean of the per-pair inter-contact gap CV²
    /// (1 ≈ Poisson, ≫ 1 heavy-tailed, ≪ 1 periodic; 0 when no pair has
    /// two gaps).
    pub mean_gap_cv2: f64,
    /// Contacts in the diagnostic trace.
    pub contacts: u64,
}

/// The full matrix result.
#[derive(Debug, Clone)]
pub struct RegimeReport {
    /// Population size of every run.
    pub nodes: usize,
    /// The scale the matrix ran at.
    pub scale: f64,
    /// Seeds per cell.
    pub seeds: u32,
    /// Adaptive epoch cadence, in seconds.
    pub epoch_secs: u64,
    /// Whether the audit ran on every simulation.
    pub audited: bool,
    /// One diagnostics row per process.
    pub diagnostics: Vec<ProcessDiagnostics>,
    /// One cell per (process, overlay) pair.
    pub cells: Vec<RegimeCell>,
}

impl RegimeReport {
    /// Total audit violations across every cell and policy.
    pub fn total_violations(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.frozen.audit_violations + c.adaptive.audit_violations)
            .sum()
    }

    /// The cell with the largest adaptive-over-frozen recovery.
    pub fn best_recovery(&self) -> Option<&RegimeCell> {
        self.cells
            .iter()
            .filter(|c| c.overlay != "none")
            .max_by(|a, b| a.recovery().total_cmp(&b.recovery()))
    }
}

/// Geometry of one run, derived from the scaled duration. All regime
/// events live in the second half: the first half is estimator warm-up,
/// exactly like the paper's experiment protocol.
struct RunPlan {
    duration: Duration,
    mid: Time,
    /// Overlay window: hostile from `w_start` (inclusive) to `w_end`
    /// (exclusive, the heal instant).
    w_start: Time,
    w_end: Time,
    /// Adaptive-policy epoch cadence — a quarter of the overlay window,
    /// so re-election gets several chances to observe the regime and at
    /// least one to observe the heal.
    epoch: Duration,
    query_constraint: Duration,
}

impl RunPlan {
    fn new(scale: f64) -> Self {
        let duration = Duration::days(10).mul_f64(scale);
        let mid = Time(duration.as_secs() / 2);
        let half = duration.as_secs() - mid.as_secs();
        let w_start = Time(mid.as_secs() + half * 15 / 100);
        let w_end = Time(mid.as_secs() + half * 75 / 100);
        let window = w_end.as_secs() - w_start.as_secs();
        RunPlan {
            duration,
            mid,
            w_start,
            w_end,
            epoch: Duration((window / 4).max(1)),
            query_constraint: Duration(half / 3),
        }
    }
}

const NODES: usize = 40;
const BASE_CONTACTS: f64 = 150_000.0;
const NCL_COUNT: usize = 4;
const ITEMS: u64 = 12;
const QUERIES: u64 = 64;
/// DataId range start for famine filler items, far above real items.
const SPARE_ITEM_BASE: u64 = 1_000;

fn trace_builder(process: ContactProcessKind, scale: f64, seed: u64) -> SyntheticTraceBuilder {
    SyntheticTraceBuilder::new(NODES)
        .duration(Duration::days(10).mul_f64(scale))
        .target_contacts((BASE_CONTACTS * scale).max(2_000.0) as u64)
        .contact_process(process)
        .seed(seed)
}

/// The base workload: items generated just after the warm-up midpoint,
/// Zipf-skewed queries spread over the second half. Deterministic in
/// the plan alone so every (process, overlay, policy) corner of a seed
/// sees the identical demand.
fn base_workload(plan: &RunPlan) -> Vec<WorkloadEvent> {
    let half = plan.duration.as_secs() - plan.mid.as_secs();
    let life = Duration(half.max(1));
    let mut events = Vec::new();
    for i in 0..ITEMS {
        events.push(WorkloadEvent::GenerateData {
            item: DataItem::new(
                DataId(i),
                NodeId((i * 7 % NODES as u64) as u32),
                1_000,
                plan.mid + Duration(half * i / (ITEMS * 8)),
                life,
            ),
        });
    }
    for q in 0..QUERIES {
        // Zipf-ish skew: low data ids are queried more often.
        let data = DataId(q * q % ITEMS);
        events.push(WorkloadEvent::IssueQuery {
            at: plan.mid + Duration(half / 20 + q * (half * 7 / 10) / QUERIES),
            requester: NodeId(((q * 13 + 2) % NODES as u64) as u32),
            data,
            constraint: plan.query_constraint,
        });
    }
    events
}

/// Instantiates the named overlay slot for one trace. The blackout
/// targets the nodes the frozen policy actually elects: the top-K
/// central nodes of the rate table at the configuration midpoint.
fn build_overlay(slot: &str, plan: &RunPlan, trace: &ContactTrace) -> Option<RegimeOverlay> {
    let kind = match slot {
        "none" => return None,
        "flash-crowd" => OverlayKind::FlashCrowd {
            item: DataId(0),
            requests: 48,
            constraint: plan.query_constraint,
        },
        "ncl-blackout" => {
            let table = trace.rate_table(plan.mid);
            let graph = ContactGraph::from_rate_table(&table, plan.mid);
            let strategy = SelectionStrategy::PathMetric;
            let nodes: Vec<NodeId> = select_by_strategy(&graph, NCL_COUNT, 7_200.0, strategy)
                .into_iter()
                .map(|s| s.node)
                .collect();
            OverlayKind::NclBlackout { nodes }
        }
        "partition" => OverlayKind::Partition {
            cut: (NODES / 2) as u32,
        },
        "buffer-famine" => OverlayKind::BufferFamine {
            items: 60,
            size: 30_000,
        },
        other => panic!("unknown overlay slot {other:?}"),
    };
    let overlay = RegimeOverlay::new(plan.w_start, plan.w_end, kind);
    Some(overlay.expect("the plan's window and every slot's regime are non-degenerate"))
}

struct SingleRun {
    success_ratio: f64,
    delay_hours: f64,
    queries_issued: u64,
    contacts_dropped: u64,
    audit_violations: u64,
    audit_sweeps: u64,
}

/// A cell's simulator, ready for its measured half: warmed to the
/// midpoint through the overlay-filtered contact stream, the
/// intentional scheme configured from the live rate table, base +
/// overlay workload queued. `engine` carries the seed, the epoch
/// interval and the instrument switches.
fn prepare_cell<'t>(
    trace: &'t ContactTrace,
    plan: &RunPlan,
    overlay: Option<&RegimeOverlay>,
    engine: SimConfig,
) -> Simulator<IntentionalScheme, OverlaySource<TraceSource<'t>>> {
    let overlays: Vec<RegimeOverlay> = overlay.cloned().into_iter().collect();
    let source = OverlaySource::new(TraceSource::new(trace), overlays);
    let scheme = IntentionalScheme::new(IntentionalConfig {
        ncl_count: NCL_COUNT,
        ..IntentionalConfig::default()
    });
    let config = SimConfig {
        buffer_range: (64_000, 96_000),
        ..engine
    };
    let mut sim = Simulator::from_source(source, scheme, config);
    sim.run_until(plan.mid);
    configure_from_live_state(&mut sim, 7_200.0, None);
    let mut events = base_workload(plan);
    if let Some(o) = overlay {
        events.extend(o.workload_events(NODES, SPARE_ITEM_BASE));
    }
    sim.add_workload(events);
    sim
}

/// One matrix simulation, run to the end of the trace.
fn run_one(
    trace: &ContactTrace,
    plan: &RunPlan,
    overlay: Option<&RegimeOverlay>,
    epoch: Option<Duration>,
    seed: u64,
    audit: bool,
) -> SingleRun {
    let engine = SimConfig {
        seed,
        audit,
        epoch_interval: epoch,
        ..SimConfig::default()
    };
    let mut sim = prepare_cell(trace, plan, overlay, engine);
    sim.run_to_end();

    let m = sim.metrics();
    let (violations, sweeps) = sim
        .audit_report()
        .map_or((0, 0), |r| (r.violations_total(), r.sweeps()));
    SingleRun {
        success_ratio: m.success_ratio(),
        delay_hours: m.avg_delay_hours(),
        queries_issued: m.queries_issued,
        contacts_dropped: sim.source().dropped(),
        audit_violations: violations,
        audit_sweeps: sweeps,
    }
}

/// One fully-instrumented hostile-regime run for `observe`/`timeline`:
/// the Poisson base process under the `ncl-blackout` overlay with
/// adaptive re-election — the cell whose over-time story (load collapse
/// at the blacked-out NCLs, recovery after re-election, heal at the
/// window end) the flight recorder exists to show. Same protocol as
/// the matrix's `run_one`; the probes are installed after `configure`, so the
/// capture covers the measurement half, and the blackout window is
/// marked on the telemetry series.
pub(crate) fn observe_blackout(scale: f64, seed: u64) -> ObserveRun {
    let scale = scale.max(0.02);
    let plan = RunPlan::new(scale);
    let trace = trace_builder(ContactProcessKind::Poisson, scale, seed).build();
    let overlay = build_overlay("ncl-blackout", &plan, &trace).expect("blackout slot");
    let engine = SimConfig {
        seed,
        epoch_interval: Some(plan.epoch),
        profile: true,
        ..SimConfig::default()
    };
    let mut sim = prepare_cell(&trace, &plan, Some(&overlay), engine);

    let mut telemetry = Telemetry::spanning(
        plan.mid,
        Duration(plan.duration.as_secs() - plan.mid.0),
        TIMELINE_WINDOWS,
        NCL_COUNT,
    );
    telemetry.mark_overlay("ncl-blackout", plan.w_start, plan.w_end);
    let instruments =
        Instruments::install(&mut sim, RecordingProbe::new().with_telemetry(telemetry));
    sim.run_to_end();
    ObserveRun::capture("regimes", seed, &mut sim, instruments)
}

fn aggregate(runs: &[SingleRun]) -> RegimeOutcome {
    let n = runs.len().max(1) as f64;
    RegimeOutcome {
        success_ratio: runs.iter().map(|r| r.success_ratio).sum::<f64>() / n,
        delay_hours: runs.iter().map(|r| r.delay_hours).sum::<f64>() / n,
        queries_issued: runs.iter().map(|r| r.queries_issued as f64).sum::<f64>() / n,
        contacts_dropped: runs.iter().map(|r| r.contacts_dropped as f64).sum::<f64>() / n,
        audit_violations: runs.iter().map(|r| r.audit_violations).sum(),
        audit_sweeps: runs.iter().map(|r| r.audit_sweeps).sum(),
    }
}

/// Base seed of the matrix; repetition `s` of any cell uses
/// `MATRIX_SEED + s` so frozen/adaptive and all overlays of a
/// repetition share one trace and one workload.
pub const MATRIX_SEED: u64 = 42;

/// Mean, weighted by gap count, of each pair's squared coefficient of
/// variation of its inter-contact gaps (`Var(gap) / E[gap]²`: ≈ 1 for a
/// Poisson pair, well above 1 for heavy tails, near 0 for periodic
/// schedules), or `None` if no pair has two gaps. Weighting by gap count
/// keeps barely-observed pairs, whose two-gap CV² is mostly noise, from
/// dominating.
///
/// A gap runs from one contact start of the pair to the next, in trace
/// order up to the trace's end, and only positive gaps count; each
/// pair's population variance comes from its running sum and square
/// sum, and pairs are summed in ascending `(a, b)` order — the
/// arithmetic and order the committed `BENCH_regimes.json` was recorded
/// with, so it reproduces to the bit.
fn mean_gap_cv2(trace: &ContactTrace) -> Option<f64> {
    use std::collections::btree_map::{BTreeMap, Entry};
    let end = Time(trace.duration().as_secs());
    // Per pair: the latest start, then the count, sum and square sum of
    // its positive gaps.
    let mut pairs: BTreeMap<(NodeId, NodeId), (Time, u64, f64, f64)> = BTreeMap::new();
    for c in trace.contacts().iter().take_while(|c| c.start < end) {
        match pairs.entry((c.a, c.b)) {
            Entry::Vacant(pair) => {
                pair.insert((c.start, 0, 0.0, 0.0));
            }
            Entry::Occupied(mut pair) => {
                let (last, count, sum, sq) = pair.get_mut();
                let gap = c.start.saturating_since(*last).as_secs_f64();
                if gap > 0.0 {
                    *count += 1;
                    *sum += gap;
                    *sq += gap * gap;
                }
                *last = (*last).max(c.start);
            }
        }
    }
    let (mut weighted, mut weight) = (0.0, 0.0);
    for &(_, count, sum, sq) in pairs.values() {
        let n = count as f64;
        let mean = sum / n;
        if count < 2 || mean <= 0.0 {
            continue;
        }
        let var = (sq / n - mean * mean).max(0.0);
        weighted += var / (mean * mean) * n;
        weight += n;
    }
    (weight > 0.0).then(|| weighted / weight)
}

/// Runs the diagnostics pass for one process on an unperturbed trace.
fn diagnose(process: ContactProcessKind, scale: f64) -> ProcessDiagnostics {
    let trace = trace_builder(process, scale, MATRIX_SEED).build();
    let gaps = analysis::aggregate_intercontact_times(&trace);
    let exp_fit_r2 = analysis::fit_exponential(&gaps).map_or(0.0, |f| f.log_ccdf_r2);
    let hill_tail = stats::tail_exponent(&gaps, 0.1);
    let mean_gap_cv2 = mean_gap_cv2(&trace).unwrap_or(0.0);
    ProcessDiagnostics {
        process,
        exp_fit_r2,
        hill_tail,
        configured_tail: process.tail_exponent(),
        mean_gap_cv2,
        contacts: trace.contact_count() as u64,
    }
}

/// Runs the full matrix: `processes × overlays`, each cell
/// seed-averaged and run under both NCL policies. Cells fan out over
/// [`dtn_core::par::map_slice`]; every cell is deterministic in
/// (process, overlay, seed) alone, so the fan-out order is irrelevant.
pub fn run_regime_matrix(cfg: &RegimeMatrixConfig) -> RegimeReport {
    assert!(cfg.seeds > 0, "at least one seed per cell");
    assert!(!cfg.processes.is_empty(), "at least one process");
    assert!(!cfg.overlays.is_empty(), "at least one overlay slot");
    let plan = RunPlan::new(cfg.scale);

    let cells: Vec<(ContactProcessKind, String)> = cfg
        .processes
        .iter()
        .flat_map(|&p| cfg.overlays.iter().map(move |o| (p, o.clone())))
        .collect();

    let results = dtn_core::par::map_slice(&cells, |(process, slot)| {
        let mut frozen = Vec::with_capacity(cfg.seeds as usize);
        let mut adaptive = Vec::with_capacity(cfg.seeds as usize);
        for s in 0..u64::from(cfg.seeds) {
            let seed = MATRIX_SEED + s;
            let trace = trace_builder(*process, cfg.scale, seed).build();
            let overlay = build_overlay(slot, &plan, &trace);
            frozen.push(run_one(
                &trace,
                &plan,
                overlay.as_ref(),
                None,
                seed,
                cfg.audit,
            ));
            adaptive.push(run_one(
                &trace,
                &plan,
                overlay.as_ref(),
                Some(plan.epoch),
                seed,
                cfg.audit,
            ));
        }
        RegimeCell {
            process: *process,
            overlay: slot.clone(),
            frozen: aggregate(&frozen),
            adaptive: aggregate(&adaptive),
        }
    });

    let diagnostics = dtn_core::par::map_slice(&cfg.processes, |&p| diagnose(p, cfg.scale));

    RegimeReport {
        nodes: NODES,
        scale: cfg.scale,
        seeds: cfg.seeds,
        epoch_secs: plan.epoch.as_secs(),
        audited: cfg.audit,
        diagnostics,
        cells: results,
    }
}

fn outcome_json(o: &RegimeOutcome) -> JsonValue {
    JsonValue::object()
        .with("success_ratio", JsonValue::fixed(o.success_ratio, 4))
        .with("delay_hours", JsonValue::fixed(o.delay_hours, 3))
        .with("queries_issued", JsonValue::fixed(o.queries_issued, 1))
        .with("contacts_dropped", JsonValue::fixed(o.contacts_dropped, 1))
        .with("audit_violations", o.audit_violations)
        .with("audit_sweeps", o.audit_sweeps)
}

/// Builds the report as the `BENCH_regimes.json` document.
pub fn report_to_json(report: &RegimeReport) -> JsonValue {
    let fixed4 = |x: f64| JsonValue::fixed(x, 4);
    let diagnostics = report.diagnostics.iter().map(|d| {
        JsonValue::object()
            .with("process", d.process.name())
            .with("exp_fit_r2", fixed4(d.exp_fit_r2))
            .with("hill_tail", d.hill_tail.map(fixed4))
            .with("configured_tail", d.configured_tail.map(fixed4))
            .with("mean_gap_cv2", fixed4(d.mean_gap_cv2))
            .with("contacts", d.contacts)
    });
    let cells = report.cells.iter().map(|c| {
        JsonValue::object()
            .with("process", c.process.name())
            .with("overlay", c.overlay.as_str())
            .with("frozen", outcome_json(&c.frozen))
            .with("adaptive", outcome_json(&c.adaptive))
            .with("recovery", fixed4(c.recovery()))
    });
    let best = report.best_recovery().map(|c| {
        JsonValue::object()
            .with("process", c.process.name())
            .with("overlay", c.overlay.as_str())
            .with("recovery", fixed4(c.recovery()))
    });
    let notes = [
        "Every cell runs the intentional scheme twice on identical traces and workload: \
         frozen (NCLs elected once at the trace midpoint) and adaptive (epoch re-election \
         every epoch_secs). recovery = adaptive.success_ratio - frozen.success_ratio.",
        "The overlay window covers [mid + 15%, mid + 75%] of the second half; the \
         ncl-blackout slot blacks out exactly the top-K central nodes the frozen policy \
         elects, so frozen NCLs lose their caching infrastructure until the heal while \
         adaptive policies can re-elect around it.",
        "process_diagnostics quantify estimator stress on unperturbed traces: exp_fit_r2 \
         is the log-CCDF exponential fit (Poisson = 1), hill_tail the Hill estimator over \
         the top decile of inter-contact gaps, mean_gap_cv2 the squared coefficient of \
         variation of each pair's start-to-start gaps, weighted by gap count (Poisson = 1).",
    ];
    JsonValue::object()
        .with("benchmark", "crates/bench/src/regimes.rs")
        .with(
            "command",
            "cargo run --release -p bench --bin experiments -- regimes",
        )
        .with("nodes", report.nodes)
        .with("scale", JsonValue::Num(report.scale.to_string()))
        .with("seeds", report.seeds)
        .with("epoch_secs", report.epoch_secs)
        .with("audited", report.audited)
        .with("total_audit_violations", report.total_violations())
        .with("process_diagnostics", diagnostics.collect::<JsonValue>())
        .with("cells", cells.collect::<JsonValue>())
        .with("best_recovery", best)
        .with("notes", notes.into_iter().collect::<JsonValue>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::telemetry::Counter;

    fn tiny_config() -> RegimeMatrixConfig {
        RegimeMatrixConfig {
            scale: 0.02,
            seeds: 1,
            processes: vec![ContactProcessKind::Poisson, ContactProcessKind::PARETO],
            overlays: vec!["none".into(), "ncl-blackout".into()],
            audit: true,
        }
    }

    #[test]
    fn tiny_matrix_runs_clean_and_reports_every_cell() {
        let report = run_regime_matrix(&tiny_config());
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.diagnostics.len(), 2);
        assert_eq!(report.total_violations(), 0, "audit must stay clean");
        for cell in &report.cells {
            assert!(
                cell.frozen.queries_issued > 0.0,
                "{}: no queries",
                cell.overlay
            );
            assert!(
                cell.frozen.audit_sweeps > 0,
                "{}: never audited",
                cell.overlay
            );
            if cell.overlay == "ncl-blackout" {
                assert!(
                    cell.frozen.contacts_dropped > 0.0,
                    "blackout dropped no contacts"
                );
            } else {
                assert_eq!(cell.frozen.contacts_dropped, 0.0);
            }
        }
        let json = report_to_json(&report).pretty();
        assert!(json.contains("\"best_recovery\""));
        assert!(json.contains("\"ncl-blackout\""));
        assert!(json.contains("\"pareto\""));
    }

    #[test]
    fn matrix_is_deterministic() {
        let cfg = tiny_config();
        let a = run_regime_matrix(&cfg);
        let b = run_regime_matrix(&cfg);
        assert_eq!(report_to_json(&a), report_to_json(&b));
    }

    #[test]
    fn observed_blackout_marks_the_window_and_profiles() {
        let run = observe_blackout(0.02, MATRIX_SEED);
        assert_eq!(run.figure, "regimes");
        assert!(run.metrics.queries_issued > 0);
        // The blackout overlay is marked on at least one window.
        let telemetry = run.telemetry();
        let marked = (0..telemetry.windows().len()).any(|i| !telemetry.overlays_in(i).is_empty());
        assert!(marked, "no window carries the blackout overlay");
        // Telemetry conserves the engine totals.
        let totals = telemetry.totals();
        assert_eq!(totals[Counter::QueriesIssued], run.metrics.queries_issued);
        assert_eq!(totals[Counter::Deliveries], run.metrics.queries_satisfied);
        // The profiler ran.
        assert!(run.profile.as_ref().is_some_and(|p| p.total_ns() > 0));
    }

    /// A trace of one-second contacts between the given pairs, starting
    /// at the given times.
    fn trace_of(contacts: impl IntoIterator<Item = (u32, u32, u64)>) -> ContactTrace {
        use dtn_trace::trace::Contact;
        let contacts: Vec<Contact> = contacts
            .into_iter()
            .map(|(a, b, at)| Contact::new(NodeId(a), NodeId(b), Time(at), Time(at + 1)))
            .collect();
        ContactTrace::new(3, contacts, Duration::ZERO)
    }

    fn one_pair(starts: impl IntoIterator<Item = u64>) -> ContactTrace {
        trace_of(starts.into_iter().map(|at| (0, 1, at)))
    }

    #[test]
    fn gap_cv2_separates_periodic_exponential_and_heavy_tails() {
        // Periodic: identical gaps, zero variance.
        let cv2 = mean_gap_cv2(&one_pair((1..=20u64).map(|i| i * 100))).expect("19 gaps");
        assert!(cv2 < 1e-9, "periodic gaps must score ~0, got {cv2}");

        // Exponential: inverse-CDF samples on a uniform grid have the
        // exponential's unit squared coefficient of variation.
        let n = 4000;
        let expo = one_pair((0..n).scan(0.0f64, |t, i| {
            let u = (i as f64 + 0.5) / n as f64;
            *t += -u.ln() * 100.0;
            Some(*t as u64)
        }));
        let cv2 = mean_gap_cv2(&expo).expect("many gaps");
        assert!((cv2 - 1.0).abs() < 0.1, "exponential CV² ≈ 1, got {cv2}");

        // Heavy tail: Pareto(α = 1.5) gaps via the inverse CDF. Infinite
        // theoretical variance; any long sample run scores far above 1.
        let heavy = one_pair((0..n).scan(0.0f64, |t, i| {
            let u = 1.0 - (i as f64 + 0.5) / n as f64;
            *t += 30.0 * u.powf(-1.0 / 1.5);
            Some(*t as u64)
        }));
        let cv2 = mean_gap_cv2(&heavy).expect("many gaps");
        assert!(cv2 > 2.0, "Pareto gaps must score well above 1, got {cv2}");
    }

    #[test]
    fn gap_cv2_needs_two_positive_gaps() {
        assert_eq!(mean_gap_cv2(&one_pair([100])), None, "no gap yet");
        assert_eq!(
            mean_gap_cv2(&one_pair([100, 200])),
            None,
            "one gap has no variance estimate"
        );
        // A zero gap does not count.
        assert_eq!(mean_gap_cv2(&one_pair([100, 200, 200])), None);
        assert!(
            mean_gap_cv2(&one_pair([100, 200, 200, 300])).is_some(),
            "two positive gaps suffice"
        );
    }

    #[test]
    fn gap_cv2_weights_pairs_by_gap_count() {
        // Pair (0,1): 10 periodic gaps, CV² = 0. Pair (1,2): gaps of 100
        // and 300 s, mean 200, variance 10 000 ⇒ CV² = 0.25. Pair (0,2)
        // never meets and contributes nothing.
        let trace = trace_of((1..=11u64).map(|i| (0, 1, i * 50)).chain([
            (2, 1, 100),
            (1, 2, 200),
            (1, 2, 500),
        ]));
        let mean = mean_gap_cv2(&trace).expect("two pairs have dispersion");
        let expect = (0.0 * 10.0 + 0.25 * 2.0) / 12.0;
        assert!((mean - expect).abs() < 1e-9, "got {mean}, want {expect}");
    }

    #[test]
    fn gap_cv2_reproduces_the_committed_diagnostics() {
        // The bits the per-pair rate estimator's gap moments gave on
        // `diagnose`'s traces at the committed scale, before the
        // diagnostic moved here.
        let want = [
            ("poisson", 0x3fee4ff62c07c8be),
            ("pareto", 0x400432c27f53c769),
            ("lognormal", 0x4013acf09368d6fb),
            ("bounded-power-law", 0x402599cd698670e8),
            ("duty-cycled", 0x40590f2701370950),
        ];
        for (process, (name, bits)) in ContactProcessKind::ALL.into_iter().zip(want) {
            assert_eq!(process.name(), name);
            let trace = trace_builder(process, 0.1, MATRIX_SEED).build();
            let cv2 = mean_gap_cv2(&trace).expect("pairs with two gaps");
            assert_eq!(cv2.to_bits(), bits, "{name}: {cv2}");
        }
    }

    #[test]
    fn overlay_slots_instantiate() {
        let plan = RunPlan::new(0.02);
        let trace = trace_builder(ContactProcessKind::Poisson, 0.02, MATRIX_SEED).build();
        for slot in OVERLAY_SLOTS {
            let overlay = build_overlay(slot, &plan, &trace);
            assert_eq!(overlay.is_none(), slot == "none", "slot {slot}");
            if let Some(o) = overlay {
                assert_eq!(o.kind.name(), slot);
                assert!(o.start >= plan.mid && o.end <= Time(plan.duration.as_secs()));
            }
        }
    }
}
