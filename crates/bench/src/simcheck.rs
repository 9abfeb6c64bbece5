//! Randomized invariant fuzzing: the `simcheck` harness.
//!
//! Each seed deterministically derives a full experiment case — trace
//! shape, workload mix, and intentional-scheme configuration — and runs
//! it with [`SimConfig::audit`] enabled and a [`RecordingProbe`]
//! installed. A case fails if any [`AuditLaw`] is violated, if the
//! probe's delay decomposition disagrees with the metrics, or (for
//! cases without epoch re-election) if the optimized
//! [`IntentionalScheme`] diverges from [`ReferenceIntentionalScheme`]
//! in metrics or per-NCL query load.
//!
//! Epoch cases are audited but *not* compared differentially: the
//! reference scheme deliberately keeps its NCLs frozen across epochs,
//! so the two implementations legitimately diverge once a re-election
//! fires.
//!
//! On failure, [`shrink`] greedily reduces the case — drop epochs,
//! shrink the node count, halve contacts/queries/items — while the
//! failure persists, and reports the minimal reproducer.
//!
//! [`SimConfig::audit`]: dtn_sim::engine::SimConfig::audit
//! [`AuditLaw`]: dtn_sim::audit::AuditLaw
//! [`RecordingProbe`]: dtn_sim::probe::RecordingProbe

use std::fmt;

use dtn_cache::experiment::{build_scheme, configure_from_live_state, ExperimentConfig};
use dtn_cache::intentional::{IntentionalConfig, IntentionalScheme, ResponseStrategy};
use dtn_cache::reference::ReferenceIntentionalScheme;
use dtn_cache::replacement::ReplacementKind;
use dtn_cache::routing::ForwardingStrategy;
use dtn_cache::{CachingScheme, SchemeKind};
use dtn_core::ids::{DataId, NodeId};
use dtn_core::ncl::{select_by_strategy, SelectionStrategy};
use dtn_core::time::{Duration, Time};
use dtn_sim::audit::{check_delay_decomposition, AuditReport};
use dtn_sim::engine::{
    ContactSource, SimConfig, Simulator, StreamSource, TraceSource, WorkloadEvent,
};
use dtn_sim::message::DataItem;
use dtn_sim::metrics::Metrics;
use dtn_sim::overlay::{OverlayKind, OverlaySource, RegimeOverlay};
use dtn_sim::probe::RecordingProbe;
use dtn_sim::telemetry::{Counter, Telemetry};
use dtn_trace::process::ContactProcessKind;
use dtn_trace::synthetic::SyntheticTraceBuilder;
use dtn_trace::trace::ContactTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::observe::Instruments;

/// One fully-specified fuzz case, derived deterministically from a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseParams {
    /// Seed for the trace generator and the simulation RNG.
    pub seed: u64,
    /// Node count of the synthetic trace.
    pub nodes: usize,
    /// Target contact count of the synthetic trace.
    pub contacts: u64,
    /// Data items generated in the workload half.
    pub items: u64,
    /// Queries issued against those items.
    pub queries: u64,
    /// NCLs the intentional scheme selects.
    pub ncl_count: usize,
    /// Cache-replacement policy under test.
    pub replacement: ReplacementKind,
    /// Query-response strategy under test.
    pub response: ResponseStrategy,
    /// Response forwarding strategy under test.
    pub routing: ForwardingStrategy,
    /// Probabilistic (paper) vs. deterministic knapsack selection.
    pub probabilistic: bool,
    /// Small buffers that force replacement pressure.
    pub tight_buffers: bool,
    /// NCL re-election cadence in hours; `None` freezes the NCLs (and
    /// enables the optimized-vs-reference differential comparison).
    pub epoch_hours: Option<u64>,
}

impl CaseParams {
    /// Derives a case from a seed. The same seed always yields the same
    /// case, so a failure report is a complete reproducer.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x051A_CCDC_011E_C7ED);
        let replacement = match rng.gen_range(0..4u8) {
            0 => ReplacementKind::UtilityKnapsack,
            1 => ReplacementKind::Fifo,
            2 => ReplacementKind::Lru,
            _ => ReplacementKind::GreedyDualSize,
        };
        let response = match rng.gen_range(0..3u8) {
            0 => ResponseStrategy::default(),
            1 => ResponseStrategy::PathAware,
            _ => ResponseStrategy::Sigmoid {
                p_min: 0.2,
                p_max: 0.95,
            },
        };
        let routing = match rng.gen_range(0..4u8) {
            0 => ForwardingStrategy::Greedy,
            1 => ForwardingStrategy::Direct,
            2 => ForwardingStrategy::Epidemic,
            _ => ForwardingStrategy::SprayAndWait { initial_copies: 3 },
        };
        CaseParams {
            seed,
            nodes: rng.gen_range(8..=16),
            contacts: rng.gen_range(2_000..=5_000),
            items: rng.gen_range(4..14),
            queries: rng.gen_range(8..32),
            ncl_count: rng.gen_range(1..=4),
            replacement,
            response,
            routing,
            probabilistic: rng.gen_bool(0.5),
            tight_buffers: rng.gen_bool(0.5),
            epoch_hours: if rng.gen_bool(0.4) {
                Some(rng.gen_range(2..=8))
            } else {
                None
            },
        }
    }
}

impl fmt::Display for CaseParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {} nodes {} contacts {} items {} queries {} ncls {} \
             {:?}/{:?}/{:?} probabilistic {} tight {} epoch {:?}",
            self.seed,
            self.nodes,
            self.contacts,
            self.items,
            self.queries,
            self.ncl_count,
            self.replacement,
            self.response,
            self.routing,
            self.probabilistic,
            self.tight_buffers,
            self.epoch_hours,
        )
    }
}

/// A case that violated an invariant, with the diagnostic detail.
#[derive(Debug, Clone)]
pub struct SimcheckFailure {
    /// The failing case (after shrinking, a minimal reproducer).
    pub params: CaseParams,
    /// What went wrong: an audit summary or a divergence description.
    pub detail: String,
}

impl fmt::Display for SimcheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n  case: {}", self.detail, self.params)
    }
}

/// Statistics from one clean case.
#[derive(Debug, Clone, Copy)]
pub struct CaseStats {
    /// Audit sweeps run across both schemes.
    pub sweeps: u64,
    /// Queries the workload issued.
    pub queries_issued: u64,
    /// Whether the optimized-vs-reference comparison ran (epoch-free
    /// cases only).
    pub differential: bool,
}

struct RunResult {
    metrics: Metrics,
    load: Vec<u64>,
    sweeps: u64,
    /// `Some(summary)` when the audit or probe cross-check failed.
    failure: Option<String>,
}

impl RunResult {
    /// The run itself, or its audit / cross-check failure under `who`'s name.
    fn clean(self, who: &str) -> Result<RunResult, String> {
        match self.failure {
            Some(detail) => Err(format!("{who}: {detail}")),
            None => Ok(self),
        }
    }

    /// `Err` unless this run (`name`) and `other` agree on the metrics
    /// and the NCL query load, bit for bit.
    fn agrees_with(&self, name: &str, other: &RunResult, other_name: &str) -> Result<(), String> {
        let diverged = |what: &str, mine: &dyn fmt::Debug, theirs: &dyn fmt::Debug| {
            Err(format!(
                "{what} diverged: {name} {mine:?} vs {other_name} {theirs:?}"
            ))
        };
        if self.metrics != other.metrics {
            return diverged("metrics", &self.metrics, &other.metrics);
        }
        if self.load != other.load {
            return diverged("NCL query load", &self.load, &other.load);
        }
        Ok(())
    }
}

fn workload(params: &CaseParams, trace: &ContactTrace) -> Vec<WorkloadEvent> {
    let mid = trace.midpoint();
    let life = Duration::hours(20);
    let size = if params.tight_buffers { 500 } else { 1_000 };
    let nodes = params.nodes as u64;
    let mut events = Vec::new();
    for i in 0..params.items {
        events.push(WorkloadEvent::GenerateData {
            item: DataItem::new(
                DataId(i),
                NodeId((i * 7 % nodes) as u32),
                size,
                mid + Duration::minutes(3 * i),
                life,
            ),
        });
    }
    for q in 0..params.queries {
        // Zipf-ish skew: low data ids are queried more often.
        let data = DataId(q * q % params.items.max(1));
        events.push(WorkloadEvent::IssueQuery {
            at: mid + Duration::minutes(30 + 11 * q),
            requester: NodeId(((q * 5 + 2) % nodes) as u32),
            data,
            constraint: Duration::hours(10),
        });
    }
    events
}

fn sim_config(params: &CaseParams) -> SimConfig {
    SimConfig {
        buffer_range: if params.tight_buffers {
            (1_100, 1_500)
        } else {
            (64_000, 96_000)
        },
        seed: params.seed,
        audit: true,
        epoch_interval: params.epoch_hours.map(Duration::hours),
        ..SimConfig::default()
    }
}

/// Runs one scheme over `source` through warm-up (to `mid`) → configure
/// → workload with audits on and a recording probe installed, then
/// cross-checks the probe's delay decomposition against the metrics.
fn run_instrumented<S: CachingScheme, C: ContactSource>(
    source: C,
    scheme: S,
    events: Vec<WorkloadEvent>,
    sim_cfg: SimConfig,
    mid: Time,
) -> RunResult {
    let mut sim = Simulator::from_source(source, scheme, sim_cfg);
    // A flight recorder rides along on every fuzz case: its window sums
    // must conserve the engine totals and the probe's event counts
    // exactly, on every seed the fuzzer throws at it. The horizon is
    // only a preallocation hint; overrunning it is fine.
    let telemetry = Telemetry::spanning(Time(0), Duration((mid.0 * 2).max(1)), 16, 16);
    let recorder = RecordingProbe::new()
        .without_event_stream()
        .with_telemetry(telemetry);
    let instruments = Instruments::install(&mut sim, recorder);
    sim.run_until(mid);
    configure_from_live_state(&mut sim, 7200.0, None);
    sim.add_workload(events);
    sim.run_to_end();
    let probe = instruments.finish(&mut sim);

    let report = sim.audit_report().expect("simcheck always enables audit");
    let mut failure = (!report.is_clean()).then(|| report.summary());
    let sweeps = report.sweeps();
    if failure.is_none() {
        let mut probe_report = AuditReport::default();
        check_delay_decomposition(&probe, sim.metrics(), sim.now(), &mut probe_report);
        failure = (!probe_report.is_clean()).then(|| probe_report.summary());
    }
    if failure.is_none() {
        failure = check_telemetry_conservation(&probe, sim.metrics());
    }
    RunResult {
        metrics: sim.metrics().clone(),
        load: sim.scheme().ncl_query_load().to_vec(),
        sweeps,
        failure,
    }
}

/// Strict-equality conservation: the telemetry window sums must
/// reproduce the engine totals and the recording probe's independent
/// event counts. Returns a failure description on the first mismatch.
fn check_telemetry_conservation(probe: &RecordingProbe, metrics: &Metrics) -> Option<String> {
    use Counter::*;
    let t = probe.telemetry().expect("window series installed").totals();
    let (_, oracle_recomputes, oracle_hits) = probe.oracle_counters();
    let checks: [(Counter, u64); 14] = [
        (QueriesIssued, metrics.queries_issued),
        (Deliveries, metrics.queries_satisfied),
        (DelaySumSecs, metrics.total_delay_secs),
        (DuplicateDeliveries, metrics.duplicate_deliveries),
        (LateDeliveries, metrics.late_deliveries),
        (DataInjected, metrics.data_generated),
        (BytesTransmitted, metrics.bytes_transmitted),
        (TransfersRejected, metrics.transfers_rejected),
        (ContactsLost, metrics.contacts_lost),
        (Contacts, probe.count("contact_begin")),
        (Replacements, probe.count("replacement_evicted")),
        (OracleRebuilds, probe.count("oracle_rebuilt")),
        (OracleRecomputes, oracle_recomputes),
        (OracleHits, oracle_hits),
    ];
    for (counter, expected) in checks {
        if t[counter] != expected {
            return Some(format!(
                "telemetry conservation: {} folded {} != {expected}",
                counter.name(),
                t[counter]
            ));
        }
    }
    let arrivals = probe.count("query_at_central");
    if t.ncl_load_total() != arrivals {
        return Some(format!(
            "telemetry conservation: ncl_load folded {} != {arrivals}",
            t.ncl_load_total()
        ));
    }
    None
}

/// The intentional-scheme configuration a case puts under test.
fn intentional_config(params: &CaseParams) -> IntentionalConfig {
    IntentionalConfig {
        ncl_count: params.ncl_count,
        replacement: params.replacement,
        response: params.response,
        response_routing: params.routing,
        probabilistic_selection: params.probabilistic,
        ..IntentionalConfig::default()
    }
}

/// The body of a differential case over the contacts `source` yields
/// (`label` names them in a failure): the optimized scheme under audit;
/// the seed's pick of the incidental schemes — the four baselines and
/// the epidemic bound, whose messages have many carriers — under every
/// law, their carrier-index and expiry-watermark laws among them; and,
/// when the case has no epochs, the reference scheme, whose metrics and
/// NCL query load the optimized one must reproduce.
fn run_differential<C: ContactSource>(
    params: &CaseParams,
    events: &[WorkloadEvent],
    mid: Time,
    label: &str,
    source: impl Fn() -> C,
) -> Result<CaseStats, String> {
    const INCIDENTAL: [SchemeKind; 5] = [
        SchemeKind::NoCache,
        SchemeKind::RandomCache,
        SchemeKind::CacheData,
        SchemeKind::BundleCache,
        SchemeKind::Flooding,
    ];
    let cfg = intentional_config(params);
    let run = |scheme: Box<dyn CachingScheme>, who: &str| {
        run_instrumented(source(), scheme, events.to_vec(), sim_config(params), mid)
            .clean(&format!("{who}{label}"))
    };
    let fast = run(
        Box::new(IntentionalScheme::new(cfg.clone())),
        "optimized scheme",
    )?;
    let kind = INCIDENTAL[(params.seed % 5) as usize];
    let incidental = run(
        build_scheme(kind, &ExperimentConfig::default()),
        kind.name(),
    )?;
    let mut stats = CaseStats {
        sweeps: fast.sweeps + incidental.sweeps,
        queries_issued: fast.metrics.queries_issued,
        differential: false,
    };
    // The reference scheme keeps its NCLs frozen across epochs by
    // design, so the differential comparison only holds without
    // re-elections.
    if params.epoch_hours.is_none() {
        let reference = run(
            Box::new(ReferenceIntentionalScheme::new(cfg)),
            "reference scheme",
        )?;
        fast.agrees_with(&format!("optimized{label}"), &reference, "reference")?;
        stats.sweeps += reference.sweeps;
        stats.differential = true;
    }
    Ok(stats)
}

/// Runs one case: optimized scheme under audit, plus the reference
/// differential when the case has no epochs.
///
/// # Errors
///
/// Returns the audit summary or divergence description on failure.
pub fn run_case(params: &CaseParams) -> Result<CaseStats, String> {
    let trace = SyntheticTraceBuilder::new(params.nodes)
        .duration(Duration::days(2))
        .target_contacts(params.contacts)
        .seed(params.seed)
        .build();
    let events = workload(params, &trace);
    run_differential(params, &events, trace.midpoint(), "", || {
        TraceSource::new(&trace)
    })
}

/// Runs one streaming/CSR case: the seed's protocol configuration is
/// re-scaled to a clustered mid-size population (60–180 nodes, four
/// communities) and run three ways under the full audit:
///
/// 1. from the materialized trace (the baseline);
/// 2. from the streaming generator, which must reproduce the
///    materialized run's metrics and NCL query load bit for bit;
/// 3. in city-scale mode — streamed contacts, community-scoped CSR NCL
///    selection, bounded-reach path oracle — which is audited but not
///    compared: the hop bound legitimately changes path weights.
///
/// # Errors
///
/// Returns the audit summary or divergence description on failure.
pub fn run_streaming_case(params: &CaseParams) -> Result<CaseStats, String> {
    let nodes = 60 + (params.seed % 5) as usize * 30;
    let params = CaseParams {
        nodes,
        contacts: nodes as u64 * 40,
        ..params.clone()
    };
    let builder = SyntheticTraceBuilder::new(nodes)
        .duration(Duration::days(2))
        .target_contacts(params.contacts)
        .communities(4)
        .community_boost(5.0)
        .seed(params.seed);
    let trace = builder.build();
    let events = workload(&params, &trace);
    let mid = trace.midpoint();
    let cfg = intentional_config(&params);

    let by_trace = run_instrumented(
        TraceSource::new(&trace),
        IntentionalScheme::new(cfg.clone()),
        events.clone(),
        sim_config(&params),
        mid,
    )
    .clean("materialized run")?;
    let by_stream = run_instrumented(
        StreamSource::from_synthetic(builder.stream()),
        IntentionalScheme::new(cfg.clone()),
        events.clone(),
        sim_config(&params),
        mid,
    )
    .clean("streamed run")?;
    by_stream.agrees_with("streamed", &by_trace, "materialized")?;

    let scaled = run_instrumented(
        StreamSource::from_synthetic(builder.stream()),
        IntentionalScheme::new(IntentionalConfig {
            ncl_selection: SelectionStrategy::CommunityPathMetric { max_hops: Some(3) },
            bounded_reach: Some((3, 64)),
            ..cfg
        }),
        events,
        sim_config(&params),
        mid,
    )
    .clean("city-scale run")?;

    Ok(CaseStats {
        sweeps: by_trace.sweeps + by_stream.sweeps + scaled.sweeps,
        queries_issued: by_trace.metrics.queries_issued,
        differential: true,
    })
}

/// Derives this seed's hostile overlay for the process batch: the kind
/// rotates with the seed, the window covers the middle of the workload
/// half, and the blackout targets the top central nodes of the
/// mid-trace rate table — the same nodes the scheme is about to elect.
fn process_case_overlay(
    params: &CaseParams,
    trace: &ContactTrace,
) -> Result<RegimeOverlay, String> {
    let mid = trace.midpoint();
    let half = trace.duration().as_secs() - mid.as_secs();
    let start = Time(mid.as_secs() + half * 15 / 100);
    let end = Time(mid.as_secs() + half * 75 / 100);
    let kind = match params.seed % 4 {
        0 => OverlayKind::FlashCrowd {
            item: DataId(0),
            requests: 8 + (params.seed % 9) as u32,
            constraint: Duration::hours(10),
        },
        1 => {
            let table = trace.rate_table(mid);
            let graph = dtn_core::graph::ContactGraph::from_rate_table(&table, mid);
            let count = 1 + (params.seed as usize / 4) % 3;
            let strategy = SelectionStrategy::PathMetric;
            let nodes: Vec<NodeId> = select_by_strategy(&graph, count, 7200.0, strategy)
                .into_iter()
                .map(|s| s.node)
                .collect();
            OverlayKind::NclBlackout { nodes }
        }
        2 => OverlayKind::Partition {
            cut: (params.nodes / 2) as u32,
        },
        _ => OverlayKind::BufferFamine {
            items: 4 + (params.seed % 12) as u32,
            size: if params.tight_buffers { 400 } else { 20_000 },
        },
    };
    RegimeOverlay::new(start, end, kind).map_err(|e| format!("seed {}: {e}", params.seed))
}

/// Runs one non-Poisson process case: the seed's protocol configuration
/// on a trace generated under `process`, with the seed's hostile
/// overlay filtering the contact stream and injecting its workload.
/// Both schemes see the identical overlaid stream, so the epoch-free
/// optimized-vs-reference differential still holds; every run is fully
/// audited (including the trace-monotonicity law over the overlay
/// output).
///
/// # Errors
///
/// Returns the audit summary or divergence description on failure.
pub fn run_process_case(
    params: &CaseParams,
    process: ContactProcessKind,
) -> Result<CaseStats, String> {
    let trace = SyntheticTraceBuilder::new(params.nodes)
        .duration(Duration::days(2))
        .target_contacts(params.contacts)
        .contact_process(process)
        .seed(params.seed)
        .build();
    let overlay = process_case_overlay(params, &trace)?;
    let mut events = workload(params, &trace);
    // Famine fillers start above the workload's item-id range.
    events.extend(overlay.workload_events(params.nodes, params.items));
    let label = format!(" ({})", process.name());
    run_differential(params, &events, trace.midpoint(), &label, || {
        OverlaySource::new(TraceSource::new(&trace), vec![overlay.clone()])
    })
}

/// Checks one seed's process/overlay case; failures come back shrunk
/// against the same process (the overlay kind follows the seed, which
/// shrinking never changes).
///
/// # Errors
///
/// Returns the (shrunk) failing case on any invariant breach or
/// divergence.
pub fn check_process_seed(
    seed: u64,
    process: ContactProcessKind,
) -> Result<CaseStats, Box<SimcheckFailure>> {
    check_shrinking(seed, |params| run_process_case(params, process))
}

/// Checks one seed's streaming/CSR case. Streaming failures are not
/// shrunk: the interesting dimension (population size) is pinned by the
/// case derivation, and `shrink` reduces toward the dense regime the
/// batch exists to avoid.
///
/// # Errors
///
/// Returns the failing case on any invariant breach or divergence.
pub fn check_streaming_seed(seed: u64) -> Result<CaseStats, Box<SimcheckFailure>> {
    let params = CaseParams::from_seed(seed);
    run_streaming_case(&params).map_err(|detail| Box::new(SimcheckFailure { params, detail }))
}

/// Checks one seed end to end; failures come back shrunk.
///
/// # Errors
///
/// Returns the (shrunk) failing case on any invariant breach.
pub fn check_seed(seed: u64) -> Result<CaseStats, Box<SimcheckFailure>> {
    check_shrinking(seed, run_case)
}

/// Runs the seed's case through `run`; a failure comes back shrunk
/// against the same runner.
fn check_shrinking(
    seed: u64,
    run: impl Fn(&CaseParams) -> Result<CaseStats, String>,
) -> Result<CaseStats, Box<SimcheckFailure>> {
    let params = CaseParams::from_seed(seed);
    run(&params).map_err(|detail| Box::new(shrink(SimcheckFailure { params, detail }, run)))
}

/// Candidate one-step reductions of a case, most aggressive first.
/// Public so the shrinking order itself is testable.
pub fn shrink_steps(params: &CaseParams) -> Vec<CaseParams> {
    let mut steps = Vec::new();
    if params.epoch_hours.is_some() {
        steps.push(CaseParams {
            epoch_hours: None,
            ..params.clone()
        });
    }
    if params.nodes > 8 {
        steps.push(CaseParams {
            nodes: 8,
            ..params.clone()
        });
    }
    if params.contacts > 500 {
        steps.push(CaseParams {
            contacts: (params.contacts / 2).max(500),
            ..params.clone()
        });
    }
    if params.queries > 2 {
        steps.push(CaseParams {
            queries: (params.queries / 2).max(2),
            ..params.clone()
        });
    }
    if params.items > 2 {
        steps.push(CaseParams {
            items: (params.items / 2).max(2),
            ..params.clone()
        });
    }
    steps
}

/// Greedily shrinks a case failing under `run`: applies the first
/// reduction that still fails, repeating until no reduction reproduces
/// the failure.
pub fn shrink(
    failure: SimcheckFailure,
    run: impl Fn(&CaseParams) -> Result<CaseStats, String>,
) -> SimcheckFailure {
    let mut best = failure;
    loop {
        let step = shrink_steps(&best.params)
            .into_iter()
            .find_map(|params| Some((run(&params).err()?, params)));
        match step {
            Some((detail, params)) => best = SimcheckFailure { params, detail },
            None => return best,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_derivation_is_deterministic() {
        assert_eq!(CaseParams::from_seed(7), CaseParams::from_seed(7));
        // Nearby seeds should not collapse onto one case.
        assert_ne!(CaseParams::from_seed(7), CaseParams::from_seed(8));
    }

    #[test]
    fn first_seeds_run_clean() {
        for seed in 0..2u64 {
            let stats = check_seed(seed).unwrap_or_else(|f| panic!("seed {seed} failed: {f}"));
            assert!(stats.sweeps > 0, "seed {seed} never audited");
            assert!(stats.queries_issued > 0, "seed {seed} issued no queries");
        }
    }

    #[test]
    fn streaming_case_first_seed_clean() {
        let stats = check_streaming_seed(0).unwrap_or_else(|f| panic!("streaming seed 0: {f}"));
        assert!(stats.sweeps > 0, "streaming case never audited");
        assert!(stats.differential, "streaming case skipped the diff");
    }

    #[test]
    fn process_cases_first_seeds_clean() {
        // Seeds 0..4 rotate through all four overlay kinds.
        for seed in 0..4u64 {
            let process = ContactProcessKind::ALL[1 + seed as usize % 4];
            let stats = check_process_seed(seed, process)
                .unwrap_or_else(|f| panic!("process seed {seed}: {f}"));
            assert!(stats.sweeps > 0, "process seed {seed} never audited");
            assert!(
                stats.queries_issued > 0,
                "process seed {seed} issued no queries"
            );
        }
    }

    #[test]
    fn shrink_steps_only_reduce() {
        let params = CaseParams::from_seed(3);
        for step in shrink_steps(&params) {
            let smaller = step.epoch_hours.is_none() && params.epoch_hours.is_some()
                || step.nodes < params.nodes
                || step.contacts < params.contacts
                || step.queries < params.queries
                || step.items < params.items;
            assert!(smaller, "step {step} does not reduce {params}");
        }
        let minimal = CaseParams {
            nodes: 8,
            contacts: 500,
            items: 2,
            queries: 2,
            epoch_hours: None,
            ..params
        };
        assert!(shrink_steps(&minimal).is_empty());
    }
}
