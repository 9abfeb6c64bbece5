//! End-to-end experiment runner: warm-up → NCL selection → workload →
//! metrics (the §VI-A protocol used by every table and figure).
//!
//! The protocol lives here once. [`configure_from_live_state`] is its
//! NCL-selection step over any warmed simulator; [`prepare_experiment`]
//! is the set-up stage of [`run_experiment`], public so an instrumented
//! harness can attach probes before the measurement phase runs.

use dtn_core::ids::NodeId;
use dtn_core::ncl::SweepWork;
use dtn_core::time::{Duration, Time};
use dtn_sim::engine::{ContactSource, SimConfig, Simulator, TraceSource};
use dtn_sim::metrics::Metrics;
use dtn_sim::oracle::OracleStats;
use dtn_trace::trace::ContactTrace;
use dtn_workload::{Workload, WorkloadConfig};

use crate::baselines::{
    BundleCachePolicy, CacheDataPolicy, IncidentalScheme, NoCachePolicy, RandomCachePolicy,
};
use crate::intentional::{IntentionalConfig, IntentionalScheme, ResponseStrategy};
use crate::replacement::ReplacementKind;
use crate::routing::ForwardingStrategy;
use crate::{CachingScheme, NetworkSetup, SchemeKind};

/// All knobs of one experiment run, defaulting to the paper's §VI-B
/// setup (MIT Reality defaults: `K = 8`, `T_L` = 1 week,
/// `s_avg` = 100 Mb, Zipf `s = 1`, buffers 200–600 Mb).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Number of NCLs `K`.
    pub ncl_count: usize,
    /// Mean data lifetime `T_L`.
    pub mean_data_lifetime: Duration,
    /// Mean data size `s_avg` in bytes.
    pub mean_data_size: u64,
    /// Zipf exponent `s` of the query pattern.
    pub zipf_exponent: f64,
    /// Data-generation probability `p_G`.
    pub generation_probability: f64,
    /// Query time constraint; `None` = `T_L / 2`.
    pub query_constraint: Option<Duration>,
    /// Per-node buffer range in bytes.
    pub buffer_range: (u64, u64),
    /// Cache replacement policy (Fig. 12 swaps this).
    pub replacement: ReplacementKind,
    /// Probabilistic response strategy (§V-C).
    pub response: ResponseStrategy,
    /// Algorithm 1 probabilistic selection (`true`, the paper's scheme)
    /// vs the deterministic basic strategy (`false`, §V-D-2 ablation).
    pub probabilistic_selection: bool,
    /// How the intentional scheme's data responses are forwarded back
    /// to requesters (§V-B: "any existing data forwarding protocol").
    pub response_routing: crate::routing::ForwardingStrategy,
    /// NCL selection strategy (the paper's path metric by default).
    pub ncl_selection: dtn_core::ncl::SelectionStrategy,
    /// Interval between cache-occupancy samples.
    pub sample_interval: Duration,
    /// Interval between maintenance epochs (online NCL re-election);
    /// `None` keeps the warm-up NCLs frozen for the whole run.
    pub epoch_interval: Option<Duration>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            ncl_count: 8,
            mean_data_lifetime: Duration::weeks(1),
            mean_data_size: dtn_sim::engine::megabits(100),
            zipf_exponent: 1.0,
            generation_probability: 0.2,
            query_constraint: None,
            buffer_range: (
                dtn_sim::engine::megabits(200),
                dtn_sim::engine::megabits(600),
            ),
            replacement: ReplacementKind::UtilityKnapsack,
            response: ResponseStrategy::default(),
            probabilistic_selection: true,
            response_routing: crate::routing::ForwardingStrategy::Greedy,
            ncl_selection: dtn_core::ncl::SelectionStrategy::PathMetric,
            sample_interval: Duration::hours(6),
            epoch_interval: None,
        }
    }
}

impl ExperimentConfig {
    /// The time horizon `T` in seconds for path weights and NCL
    /// selection: `T_L`, bounded to ≥ 1 h.
    fn effective_horizon(&self) -> f64 {
        self.mean_data_lifetime.as_secs_f64().max(3600.0)
    }
}

/// The outcome of one experiment run — one point of one curve in
/// Fig. 10–13.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Which scheme ran.
    pub scheme: SchemeKind,
    /// Queries issued during the measurement phase.
    pub queries_issued: u64,
    /// The paper's "successful ratio".
    pub success_ratio: f64,
    /// The paper's "data access delay", in hours.
    pub avg_delay_hours: f64,
    /// The paper's "caching overhead": cached copies per item.
    pub avg_copies_per_item: f64,
    /// The Fig. 12(c) metric: replacements per generated item.
    pub avg_replacements_per_item: f64,
    /// Data items generated.
    pub data_items: u64,
    /// Central nodes selected (empty for baselines without NCLs).
    pub central_nodes: Vec<NodeId>,
    /// Queries that reached each central node (NCL load balance; empty
    /// for baselines).
    pub ncl_query_load: Vec<u64>,
    /// Bytes transmitted per satisfied query (network cost of one
    /// successful access).
    pub bytes_per_satisfied_query: f64,
    /// Full raw metrics for deeper analysis.
    pub metrics: Metrics,
    /// The scheme's path-oracle work at the end of the run — hits,
    /// recomputes, nodes settled, accumulators built, leaf evaluations.
    /// Counted, not timed; the baselines route through an oracle too
    /// and report theirs. Work, not outcome: it lives here and not in
    /// [`Metrics`], so two implementations of one scheme can agree on
    /// every metric and differ in this.
    pub oracle: Option<OracleStats>,
    /// The work of the scheme's NCL selections — searches run,
    /// candidates pruned, communities swept. Counted like
    /// [`oracle`](Self::oracle), and `None` for the baselines.
    pub ncl: Option<SweepWork>,
}

/// Builds an unconfigured scheme instance of the requested kind.
pub fn build_scheme(kind: SchemeKind, config: &ExperimentConfig) -> Box<dyn CachingScheme> {
    match kind {
        SchemeKind::NoCache => Box::new(IncidentalScheme::new(NoCachePolicy)),
        SchemeKind::RandomCache => Box::new(IncidentalScheme::new(RandomCachePolicy)),
        SchemeKind::CacheData => Box::new(IncidentalScheme::new(CacheDataPolicy::default())),
        SchemeKind::BundleCache => Box::new(IncidentalScheme::new(BundleCachePolicy::default())),
        SchemeKind::Flooding => Box::new(IncidentalScheme::with_routing(
            RandomCachePolicy,
            ForwardingStrategy::Epidemic,
            ForwardingStrategy::Epidemic,
        )),
        SchemeKind::Intentional => Box::new(IntentionalScheme::new(IntentionalConfig {
            ncl_count: config.ncl_count,
            response: config.response,
            replacement: config.replacement,
            probabilistic_selection: config.probabilistic_selection,
            response_routing: config.response_routing,
            ncl_selection: config.ncl_selection,
            ..IntentionalConfig::default()
        })),
    }
}

/// Runs one full experiment: the first half of `trace` is warm-up, the
/// second half carries the generated workload (§VI-A).
///
/// `seed` drives buffer assignment, workload generation and every
/// probabilistic protocol decision — the same seed reproduces the same
/// run exactly.
///
/// # Example
///
/// ```
/// use dtn_cache::experiment::{run_experiment, ExperimentConfig};
/// use dtn_cache::SchemeKind;
/// use dtn_core::time::Duration;
/// use dtn_trace::synthetic::SyntheticTraceBuilder;
///
/// let trace = SyntheticTraceBuilder::new(12)
///     .duration(Duration::days(1))
///     .target_contacts(2_000)
///     .seed(3)
///     .build();
/// let cfg = ExperimentConfig {
///     ncl_count: 2,
///     mean_data_lifetime: Duration::hours(4),
///     mean_data_size: 1 << 20,
///     ..ExperimentConfig::default()
/// };
/// let report = run_experiment(&trace, SchemeKind::Intentional, &cfg, 7);
/// assert!(report.success_ratio >= 0.0 && report.success_ratio <= 1.0);
/// ```
pub fn run_experiment(
    trace: &ContactTrace,
    kind: SchemeKind,
    config: &ExperimentConfig,
    seed: u64,
) -> ExperimentReport {
    run_experiment_with(trace, kind, build_scheme(kind, config), config, seed)
}

/// [`run_experiment`] with a caller-supplied scheme instance instead of
/// one built from `kind` — used to run alternative implementations of a
/// scheme (e.g. [`crate::reference::ReferenceIntentionalScheme`]) under
/// the exact same warm-up, buffers and workload. `kind` is only recorded
/// in the report.
pub fn run_experiment_with(
    trace: &ContactTrace,
    kind: SchemeKind,
    scheme: Box<dyn CachingScheme>,
    config: &ExperimentConfig,
    seed: u64,
) -> ExperimentReport {
    let engine = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut sim = prepare_experiment(trace, scheme, config, engine);
    sim.run_to_end();
    experiment_report(kind, &sim)
}

/// NCL selection and scheme configuration (§VI-A phase 2) from the
/// simulator's own state: the live rate table, the engine clock and the
/// assigned buffer capacities, borrowed in place — the rate table is
/// not copied and the clock the rates are read at cannot disagree with
/// the clock they were accumulated to.
pub fn configure_from_live_state<S: CachingScheme, C: ContactSource>(
    sim: &mut Simulator<S, C>,
    horizon: f64,
    path_refresh: Option<Duration>,
) {
    let (scheme, rate_table, now, capacities) = sim.live_state();
    scheme.configure(&NetworkSetup {
        rate_table,
        now,
        capacities: capacities.to_vec(),
        horizon,
        path_refresh,
    });
}

/// The "prepare" stage of [`run_experiment`]: builds the simulator,
/// warms it up over the first half of `trace`, configures `scheme` from
/// the accumulated rates and queues the generated workload for the
/// second half. The caller runs it (`run_to_end`) and reads the
/// metrics off the simulator; probes attached in between observe the
/// measurement phase only.
///
/// `engine` carries the seed (buffer assignment, workload generation
/// and every probabilistic protocol decision) and the instrument
/// switches (`audit`, `profile`); its buffer range, sample
/// interval and epoch interval are taken from `config`.
pub fn prepare_experiment<'t, S: CachingScheme>(
    trace: &'t ContactTrace,
    scheme: S,
    config: &ExperimentConfig,
    engine: SimConfig,
) -> Simulator<S, TraceSource<'t>> {
    let seed = engine.seed;
    let sim_config = SimConfig {
        buffer_range: config.buffer_range,
        sample_interval: config.sample_interval,
        epoch_interval: config.epoch_interval,
        ..engine
    };
    let mut sim = Simulator::new(trace, scheme, sim_config);

    // Phase 1: warm-up over the first half of the trace.
    let mid = trace.midpoint();
    sim.run_until(mid);

    // Phase 2: NCL selection and scheme configuration from the
    // accumulated network information.
    configure_from_live_state(&mut sim, config.effective_horizon(), None);

    // Phase 3: workload over the second half.
    let workload_cfg = WorkloadConfig {
        generation_probability: config.generation_probability,
        mean_lifetime: config.mean_data_lifetime,
        mean_size: config.mean_data_size,
        zipf_exponent: config.zipf_exponent,
        query_constraint: config.query_constraint,
        window: (mid, Time(trace.duration().as_secs())),
        seed,
    };
    sim.add_workload(Workload::generate(trace.node_count(), &workload_cfg).into_events());
    sim
}

/// The "report" stage of [`run_experiment`]: one figure point from a
/// finished simulator. `kind` is only recorded.
///
/// The central set is read back *after* the run so reports reflect any
/// online re-elections (with epochs off it equals the warm-up
/// selection).
fn experiment_report<S: CachingScheme, C: ContactSource>(
    kind: SchemeKind,
    sim: &Simulator<S, C>,
) -> ExperimentReport {
    let metrics = sim.metrics().clone();
    ExperimentReport {
        scheme: kind,
        queries_issued: metrics.queries_issued,
        success_ratio: metrics.success_ratio(),
        avg_delay_hours: metrics.avg_delay_hours(),
        avg_copies_per_item: metrics.avg_copies_per_item(),
        avg_replacements_per_item: metrics.avg_replacements_per_item(),
        data_items: metrics.data_generated,
        central_nodes: sim.scheme().central_nodes().to_vec(),
        ncl_query_load: sim.scheme().ncl_query_load().to_vec(),
        bytes_per_satisfied_query: metrics.bytes_per_satisfied_query(),
        metrics,
        oracle: sim.scheme().oracle_stats(),
        ncl: sim.scheme().ncl_work(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_trace::synthetic::SyntheticTraceBuilder;

    fn small_trace(seed: u64) -> ContactTrace {
        SyntheticTraceBuilder::new(14)
            .duration(Duration::days(2))
            .target_contacts(5_000)
            .seed(seed)
            .build()
    }

    fn small_config() -> ExperimentConfig {
        ExperimentConfig {
            ncl_count: 3,
            mean_data_lifetime: Duration::hours(8),
            mean_data_size: 1 << 20, // 1 MiB
            buffer_range: (8 << 20, 16 << 20),
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn every_scheme_runs_end_to_end() {
        let trace = small_trace(1);
        let cfg = small_config();
        for kind in SchemeKind::ALL {
            let report = run_experiment(&trace, kind, &cfg, 1);
            assert!(report.queries_issued > 0, "{kind}: no queries issued");
            assert!(
                (0.0..=1.0).contains(&report.success_ratio),
                "{kind}: bad ratio"
            );
            if kind == SchemeKind::Intentional {
                assert_eq!(report.central_nodes.len(), 3);
                // One community, every node searched or pruned by name.
                let ncl = report.ncl.expect("the scheme selects NCLs");
                assert_eq!(ncl.communities, 1);
                assert!(ncl.searches_run >= 3 && ncl.searches_run + ncl.candidates_pruned == 14);
            } else {
                assert!(report.central_nodes.is_empty());
                assert_eq!(report.ncl, None);
            }
        }
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let trace = small_trace(2);
        let cfg = small_config();
        let a = run_experiment(&trace, SchemeKind::Intentional, &cfg, 9);
        let b = run_experiment(&trace, SchemeKind::Intentional, &cfg, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn intentional_beats_no_cache_on_success_ratio() {
        // The paper's headline result, at test scale. Caching only helps
        // when sources are hard to reach directly, so use a sparse,
        // strongly heterogeneous trace (the realistic DTN regime) and
        // average over seeds to damp variance.
        let trace = SyntheticTraceBuilder::new(24)
            .duration(Duration::days(3))
            .target_contacts(4_000)
            .edge_density(0.15)
            .activity_sigma(2.0)
            .seed(3)
            .build();
        let cfg = ExperimentConfig {
            ncl_count: 3,
            mean_data_lifetime: Duration::hours(10),
            mean_data_size: 1 << 20,
            buffer_range: (8 << 20, 16 << 20),
            ..ExperimentConfig::default()
        };
        let mut ours = 0.0;
        let mut theirs = 0.0;
        for seed in 0..4 {
            ours += run_experiment(&trace, SchemeKind::Intentional, &cfg, seed).success_ratio;
            theirs += run_experiment(&trace, SchemeKind::NoCache, &cfg, seed).success_ratio;
        }
        assert!(
            ours > theirs,
            "intentional {ours:.3} must beat nocache {theirs:.3}"
        );
    }

    #[test]
    fn live_state_driver_matches_hand_built_setup() {
        // The reference: the NetworkSetup literal every harness used to
        // spell out, fed a cloned rate table and a caller-supplied `now`.
        let trace = small_trace(4);
        let cfg = small_config();
        let mid = trace.midpoint();
        let warmed = || {
            let engine = SimConfig {
                buffer_range: cfg.buffer_range,
                seed: 11,
                ..SimConfig::default()
            };
            let mut sim =
                Simulator::new(&trace, build_scheme(SchemeKind::Intentional, &cfg), engine);
            sim.run_until(mid);
            sim
        };
        let finish = |mut sim: Simulator<Box<dyn CachingScheme>, TraceSource<'_>>| {
            let window = (mid, Time(trace.duration().as_secs()));
            let workload = Workload::generate(
                trace.node_count(),
                &WorkloadConfig {
                    mean_lifetime: Duration::hours(8),
                    mean_size: 1 << 20,
                    seed: 11,
                    ..WorkloadConfig::new(window)
                },
            );
            sim.add_workload(workload.into_events());
            sim.run_to_end();
            (
                sim.scheme().central_nodes().to_vec(),
                sim.scheme().cache_stats(sim.now()),
                sim.metrics().clone(),
            )
        };

        let mut by_hand = warmed();
        let rate_table = by_hand.rate_table().clone();
        let capacities = (0..trace.node_count() as u32)
            .map(|n| by_hand.buffer_capacity(NodeId(n)))
            .collect();
        by_hand.scheme_mut().configure(&NetworkSetup {
            rate_table: &rate_table,
            now: mid,
            capacities,
            horizon: 7_200.0,
            path_refresh: None,
        });

        let mut driven = warmed();
        configure_from_live_state(&mut driven, 7_200.0, None);

        let (centrals, buffers, metrics) = finish(driven);
        assert_eq!(centrals.len(), 3);
        assert!(metrics.queries_satisfied > 0, "run exercised the caches");
        assert_eq!((centrals, buffers, metrics), finish(by_hand));
    }

    #[test]
    fn default_config_matches_paper_section_6b() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.ncl_count, 8);
        assert_eq!(cfg.mean_data_lifetime, Duration::weeks(1));
        assert_eq!(cfg.mean_data_size, dtn_sim::engine::megabits(100));
        assert_eq!(cfg.zipf_exponent, 1.0);
        assert_eq!(cfg.generation_probability, 0.2);
        assert_eq!(
            cfg.buffer_range,
            (
                dtn_sim::engine::megabits(200),
                dtn_sim::engine::megabits(600)
            )
        );
    }
}
