//! Per-figure experiment definitions (DESIGN.md §4).
//!
//! Every function regenerates the data behind one table or figure of the
//! paper. A global `scale` parameter shrinks trace duration and contact
//! counts proportionally (contact density preserved) so the same code
//! runs as a full reproduction or a quick check.
//! Data lifetimes scale with the trace so the lifetime-to-duration ratio
//! — the quantity that shapes the curves — is preserved.

use dtn_cache::experiment::ExperimentConfig;
use dtn_cache::replacement::ReplacementKind;
use dtn_cache::SchemeKind;
use dtn_core::ncl::CentralityScore;
use dtn_core::sigmoid::ResponseFunction;
use dtn_core::time::{Duration, Time};
use dtn_sim::engine::megabits;
use dtn_trace::stats::{metric_distribution, TraceStats};
use dtn_trace::synthetic::{regime_shift_trace, SyntheticTraceBuilder};
use dtn_trace::trace::ContactTrace;
use dtn_trace::TracePreset;
use dtn_workload::{Workload, WorkloadConfig, Zipf};

use crate::runner::{averaged_sweep, AveragedReport, SweepPoint};

/// Builds the synthetic stand-in for a preset trace at the given scale.
pub fn preset_trace(preset: TracePreset, scale: f64, seed: u64) -> ContactTrace {
    SyntheticTraceBuilder::from_preset(preset)
        .scale(scale)
        .seed(seed)
        .build()
}

/// Formats a duration as fractional hours/days for axis labels.
pub fn human_duration(d: Duration) -> String {
    fn trim(v: f64) -> String {
        let s = format!("{v:.1}");
        s.strip_suffix(".0").map_or(s.clone(), str::to_owned)
    }
    let secs = d.as_secs() as f64;
    if secs >= 86_400.0 {
        format!("{}d", trim(secs / 86_400.0))
    } else {
        format!("{}h", trim(secs / 3600.0))
    }
}

// ---------------------------------------------------------------- Table I

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Which trace.
    pub preset: TracePreset,
    /// Statistics of the generated stand-in.
    pub stats: TraceStats,
    /// The paper's contact-count target (scaled).
    pub target_contacts: f64,
}

/// Regenerates Table I: summary statistics of all four traces.
pub fn table1(scale: f64, seed: u64) -> Vec<Table1Row> {
    TracePreset::ALL
        .iter()
        .map(|&preset| {
            let trace = preset_trace(preset, scale, seed);
            Table1Row {
                preset,
                stats: TraceStats::compute(&trace),
                target_contacts: preset.total_contacts() as f64 * scale,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 4

/// The NCL-metric distribution of one trace (one subplot of Fig. 4).
#[derive(Debug, Clone)]
pub struct Fig4Series {
    /// Which trace.
    pub preset: TracePreset,
    /// Horizon `T` used (§IV-B values).
    pub horizon: Duration,
    /// Metric of every node, descending.
    pub scores: Vec<CentralityScore>,
}

/// Regenerates Fig. 4: the skewed NCL selection metric distributions.
pub fn fig4(scale: f64, seed: u64) -> Vec<Fig4Series> {
    TracePreset::ALL
        .iter()
        .map(|&preset| {
            let trace = preset_trace(preset, scale, seed);
            let horizon = preset.ncl_horizon();
            Fig4Series {
                preset,
                horizon,
                scores: metric_distribution(&trace, horizon.as_secs_f64()),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 7

/// Regenerates Fig. 7: the sigmoid response probability over remaining
/// time, with the paper's example parameters (`p_min = 0.45`,
/// `p_max = 0.8`, `T_q = 10 h`). Returns `(hours, probability)` points.
pub fn fig7() -> Vec<(f64, f64)> {
    let f =
        ResponseFunction::new(0.45, 0.8, Duration::hours(10)).expect("paper parameters are valid");
    (0..=20)
        .map(|half_hours| {
            let t = Duration::minutes(30 * half_hours);
            (t.as_secs_f64() / 3600.0, f.probability(t))
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 9

/// One `T_L` point of Fig. 9(a).
#[derive(Debug, Clone)]
pub struct Fig9aRow {
    /// Mean data lifetime.
    pub lifetime: Duration,
    /// Total items generated over the window.
    pub items_generated: usize,
    /// Time-averaged live items.
    pub avg_live_items: f64,
}

/// Regenerates Fig. 9(a): amount of data in the network vs `T_L`
/// (MIT Reality population, `p_G = 0.2`).
pub fn fig9a(scale: f64, seed: u64) -> Vec<Fig9aRow> {
    let preset = TracePreset::MitReality;
    let window_end = preset.duration().mul_f64(scale);
    let window = (Time(window_end.as_secs() / 2), Time(window_end.as_secs()));
    lifetimes_mit(scale)
        .into_iter()
        .map(|lifetime| {
            let cfg = WorkloadConfig {
                mean_lifetime: lifetime,
                seed,
                ..WorkloadConfig::new(window)
            };
            let w = Workload::generate(preset.node_count(), &cfg);
            Fig9aRow {
                lifetime,
                items_generated: w.items().len(),
                avg_live_items: w.avg_live_items(),
            }
        })
        .collect()
}

/// Regenerates Fig. 9(b): Zipf probabilities `P_j` for `j ≤ 20` at
/// exponents `s ∈ {0.5, 1.0, 1.5}` with `M = 100` items.
pub fn fig9b() -> Vec<(f64, Vec<f64>)> {
    [0.5, 1.0, 1.5]
        .iter()
        .map(|&s| {
            let z = Zipf::new(100, s);
            (s, (1..=20).map(|j| z.probability(j)).collect())
        })
        .collect()
}

// ------------------------------------------------------- Fig. 10/11/13

/// One parameter point of a scheme-comparison figure: the five schemes'
/// averaged metrics at one x-axis value.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Human-readable x-axis label (e.g. "1w" or "100Mb").
    pub label: String,
    /// Reports in [`SchemeKind::ALL`] order.
    pub reports: Vec<AveragedReport>,
}

/// The Fig. 10 lifetime sweep, scaled with the trace so the
/// lifetime/duration ratio matches the paper's 123-day window.
fn lifetimes_mit(scale: f64) -> Vec<Duration> {
    [
        Duration::hours(12),
        Duration::days(1),
        Duration::days(3),
        Duration::weeks(1),
        Duration::weeks(2),
        Duration::days(30),
        Duration::days(90),
    ]
    .into_iter()
    .map(|d| Duration((d.as_secs() as f64 * scale) as u64).max(Duration::hours(1)))
    .collect()
}

/// Base configuration of the §VI-B MIT Reality experiments, scaled.
pub(crate) fn mit_config(scale: f64) -> ExperimentConfig {
    ExperimentConfig {
        ncl_count: 8,
        mean_data_lifetime: Duration((Duration::weeks(1).as_secs() as f64 * scale) as u64)
            .max(Duration::hours(1)),
        ..ExperimentConfig::default()
    }
}

/// Regenerates Fig. 10: data-access performance vs average data
/// lifetime `T_L` on MIT Reality (all five schemes; success ratio,
/// delay, caching overhead).
pub fn fig10(scale: f64, seeds: u32) -> Vec<ComparisonRow> {
    let trace = preset_trace(TracePreset::MitReality, scale, 42);
    let lifetimes = lifetimes_mit(scale);
    let mut points = Vec::new();
    for &lifetime in &lifetimes {
        let cfg = ExperimentConfig {
            mean_data_lifetime: lifetime,
            ..mit_config(scale)
        };
        for &scheme in &SchemeKind::ALL {
            points.push(SweepPoint {
                trace: &trace,
                scheme,
                config: cfg.clone(),
            });
        }
    }
    let mut results = averaged_sweep(&points, seeds).into_iter();
    lifetimes
        .into_iter()
        .map(|lifetime| ComparisonRow {
            label: human_duration(lifetime),
            reports: results.by_ref().take(SchemeKind::ALL.len()).collect(),
        })
        .collect()
}

/// The Fig. 11/12 data-size sweep: 20–200 Mb.
pub fn sizes_mb() -> Vec<u64> {
    vec![20, 50, 100, 150, 200]
}

/// Regenerates Fig. 11: data-access performance vs average data size
/// `s_avg` on MIT Reality.
pub fn fig11(scale: f64, seeds: u32) -> Vec<ComparisonRow> {
    let trace = preset_trace(TracePreset::MitReality, scale, 42);
    let sizes = sizes_mb();
    let mut points = Vec::new();
    for &mb in &sizes {
        let cfg = ExperimentConfig {
            mean_data_size: megabits(mb),
            ..mit_config(scale)
        };
        for &scheme in &SchemeKind::ALL {
            points.push(SweepPoint {
                trace: &trace,
                scheme,
                config: cfg.clone(),
            });
        }
    }
    let mut results = averaged_sweep(&points, seeds).into_iter();
    sizes
        .into_iter()
        .map(|mb| ComparisonRow {
            label: format!("{mb}Mb"),
            reports: results.by_ref().take(SchemeKind::ALL.len()).collect(),
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 12

/// One data-size point of Fig. 12: the four replacement policies'
/// averaged metrics inside the intentional scheme.
#[derive(Debug, Clone)]
pub struct ReplacementRow {
    /// Mean data size label.
    pub label: String,
    /// Reports in [`ReplacementKind::ALL`] order.
    pub reports: Vec<AveragedReport>,
}

/// Regenerates Fig. 12: cache-replacement strategies vs data size on
/// MIT Reality (`T_L` = 1 week).
pub fn fig12(scale: f64, seeds: u32) -> Vec<ReplacementRow> {
    let trace = preset_trace(TracePreset::MitReality, scale, 42);
    let sizes = sizes_mb();
    let mut points = Vec::new();
    for &mb in &sizes {
        for &replacement in &ReplacementKind::ALL {
            points.push(SweepPoint {
                trace: &trace,
                scheme: SchemeKind::Intentional,
                config: ExperimentConfig {
                    mean_data_size: megabits(mb),
                    replacement,
                    ..mit_config(scale)
                },
            });
        }
    }
    let mut results = averaged_sweep(&points, seeds).into_iter();
    sizes
        .into_iter()
        .map(|mb| ReplacementRow {
            label: format!("{mb}Mb"),
            reports: results.by_ref().take(ReplacementKind::ALL.len()).collect(),
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 13

/// One `(K, s_avg)` point of Fig. 13.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Number of NCLs.
    pub ncl_count: usize,
    /// Reports per data size, in [`fig13_sizes_mb`] order.
    pub reports: Vec<AveragedReport>,
}

/// The data sizes of the Fig. 13 curves.
pub fn fig13_sizes_mb() -> Vec<u64> {
    vec![50, 100, 200]
}

/// Regenerates Fig. 13: impact of the number of NCLs `K` on Infocom06
/// (`T_L` = 3 h), for several node-buffer conditions.
pub fn fig13(scale: f64, seeds: u32) -> Vec<Fig13Row> {
    let trace = preset_trace(TracePreset::Infocom06, scale, 42);
    let lifetime =
        Duration((Duration::hours(3).as_secs() as f64 * scale) as u64).max(Duration::minutes(30));
    let sizes = fig13_sizes_mb();
    let mut points = Vec::new();
    for k in 1..=10usize {
        for &mb in &sizes {
            points.push(SweepPoint {
                trace: &trace,
                scheme: SchemeKind::Intentional,
                config: ExperimentConfig {
                    ncl_count: k,
                    mean_data_lifetime: lifetime,
                    mean_data_size: megabits(mb),
                    ..ExperimentConfig::default()
                },
            });
        }
    }
    let mut results = averaged_sweep(&points, seeds).into_iter();
    (1..=10)
        .map(|ncl_count| Fig13Row {
            ncl_count,
            reports: results.by_ref().take(sizes.len()).collect(),
        })
        .collect()
}

// ---------------------------------------------------------------- Ablations

/// One ablation variant of the intentional scheme.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant description.
    pub label: String,
    /// Averaged metrics of the variant per data size (see
    /// [`ablation_sizes_mb`]).
    pub reports: Vec<AveragedReport>,
}

/// The data sizes used by the ablation study.
pub fn ablation_sizes_mb() -> Vec<u64> {
    vec![50, 150]
}

/// Ablation study of the paper's two probabilistic design choices
/// (DESIGN.md §4, "Ablation"):
///
/// 1. Algorithm 1's probabilistic knapsack selection vs the
///    deterministic basic strategy (§V-D-2 vs §V-D-3),
/// 2. the sigmoid response function vs path-aware response
///    probabilities (§V-C's two information regimes).
pub fn ablation(scale: f64, seeds: u32) -> Vec<AblationRow> {
    use dtn_cache::intentional::ResponseStrategy;
    use dtn_cache::routing::ForwardingStrategy;
    let trace = preset_trace(TracePreset::MitReality, scale, 42);
    let greedy = ForwardingStrategy::Greedy;
    let variants: Vec<(String, bool, ResponseStrategy, ForwardingStrategy)> = vec![
        (
            "paper (Alg.1 + sigmoid)".into(),
            true,
            ResponseStrategy::default(),
            greedy,
        ),
        (
            "deterministic knapsack".into(),
            false,
            ResponseStrategy::default(),
            greedy,
        ),
        (
            "path-aware response".into(),
            true,
            ResponseStrategy::PathAware,
            greedy,
        ),
        (
            "deterministic + path-aware".into(),
            false,
            ResponseStrategy::PathAware,
            greedy,
        ),
        (
            "spray-and-wait responses (L=4)".into(),
            true,
            ResponseStrategy::default(),
            ForwardingStrategy::SprayAndWait { initial_copies: 4 },
        ),
        (
            "epidemic responses".into(),
            true,
            ResponseStrategy::default(),
            ForwardingStrategy::Epidemic,
        ),
        (
            "direct-delivery responses".into(),
            true,
            ResponseStrategy::default(),
            ForwardingStrategy::Direct,
        ),
    ];
    let sizes = ablation_sizes_mb();
    let mut points = Vec::new();
    for &(_, probabilistic, response, routing) in &variants {
        for &mb in &sizes {
            points.push(SweepPoint {
                trace: &trace,
                scheme: SchemeKind::Intentional,
                config: ExperimentConfig {
                    mean_data_size: megabits(mb),
                    probabilistic_selection: probabilistic,
                    response,
                    response_routing: routing,
                    ..mit_config(scale)
                },
            });
        }
    }
    let mut results = averaged_sweep(&points, seeds).into_iter();
    variants
        .into_iter()
        .map(|(label, _, _, _)| AblationRow {
            label,
            reports: results.by_ref().take(sizes.len()).collect(),
        })
        .collect()
}

// ------------------------------------------------------ Bounds study

/// One scheme's averaged metrics in the bounds comparison.
#[derive(Debug, Clone)]
pub struct BoundsRow {
    /// The scheme.
    pub scheme: SchemeKind,
    /// Averaged metrics on the study configuration.
    pub report: AveragedReport,
}

/// Compares the paper's five schemes against the epidemic-flooding
/// upper bound on the MIT Reality configuration, including the network
/// cost per satisfied query (flooding buys delivery with bandwidth).
pub fn bounds(scale: f64, seeds: u32) -> Vec<BoundsRow> {
    let trace = preset_trace(TracePreset::MitReality, scale, 42);
    let cfg = mit_config(scale);
    let points: Vec<SweepPoint<'_>> = SchemeKind::ALL_WITH_BOUNDS
        .iter()
        .map(|&scheme| SweepPoint {
            trace: &trace,
            scheme,
            config: cfg.clone(),
        })
        .collect();
    SchemeKind::ALL_WITH_BOUNDS
        .iter()
        .zip(averaged_sweep(&points, seeds))
        .map(|(&scheme, report)| BoundsRow { scheme, report })
        .collect()
}

// -------------------------------------------------- NCL strategy study

/// One NCL-selection strategy's averaged metrics, per trace preset.
#[derive(Debug, Clone)]
pub struct NclStrategyRow {
    /// Strategy description.
    pub label: String,
    /// One report per entry of [`ncl_study_presets`].
    pub reports: Vec<AveragedReport>,
}

/// The traces the NCL-strategy study runs on.
pub fn ncl_study_presets() -> Vec<TracePreset> {
    vec![TracePreset::MitReality, TracePreset::Infocom06]
}

/// Compares the paper's probabilistic NCL selection metric (Eq. 3)
/// against degree centrality, raw contact frequency and a random pick —
/// the §IV design-choice ablation.
pub fn ncl_strategies(scale: f64, seeds: u32) -> Vec<NclStrategyRow> {
    use dtn_core::ncl::SelectionStrategy;
    let strategies: Vec<(String, SelectionStrategy)> = vec![
        ("path metric (paper)".into(), SelectionStrategy::PathMetric),
        (
            "degree centrality".into(),
            SelectionStrategy::DegreeCentrality,
        ),
        (
            "contact frequency".into(),
            SelectionStrategy::ContactFrequency,
        ),
        ("random".into(), SelectionStrategy::Random { seed: 9 }),
    ];
    let traces: Vec<(TracePreset, ContactTrace)> = ncl_study_presets()
        .into_iter()
        .map(|p| (p, preset_trace(p, scale, 42)))
        .collect();
    let mut points = Vec::new();
    for &(_, strategy) in &strategies {
        for (preset, trace) in &traces {
            let lifetime = match preset {
                TracePreset::Infocom06 => Duration::hours(3),
                _ => Duration::weeks(1),
            };
            points.push(SweepPoint {
                trace,
                scheme: SchemeKind::Intentional,
                config: ExperimentConfig {
                    ncl_count: preset.default_ncl_count(),
                    mean_data_lifetime: Duration((lifetime.as_secs() as f64 * scale) as u64)
                        .max(Duration::minutes(30)),
                    ncl_selection: strategy,
                    ..ExperimentConfig::default()
                },
            });
        }
    }
    let mut results = averaged_sweep(&points, seeds).into_iter();
    strategies
        .into_iter()
        .map(|(label, _)| NclStrategyRow {
            label,
            reports: results.by_ref().take(traces.len()).collect(),
        })
        .collect()
}

// -------------------------------------------------- Epoch churn study

/// One epoch-interval point of the churn study.
#[derive(Debug, Clone)]
pub struct ChurnRow {
    /// Human-readable epoch cadence ("frozen" for no epochs).
    pub label: String,
    /// The swept maintenance-epoch interval (`None` = frozen NCLs).
    pub epoch_interval: Option<Duration>,
    /// Averaged intentional-scheme metrics at this cadence.
    pub report: AveragedReport,
}

/// The epoch cadences of the churn sweep, scaled with the trace. The
/// leading `None` is the frozen-NCL baseline every other point is read
/// against.
pub fn churn_intervals(scale: f64) -> Vec<Option<Duration>> {
    let mut intervals = vec![None];
    intervals.extend(
        [
            Duration::hours(2),
            Duration::hours(6),
            Duration::hours(12),
            Duration::days(1),
        ]
        .into_iter()
        .map(|d| {
            Some(Duration((d.as_secs() as f64 * scale.max(0.25)) as u64).max(Duration::minutes(30)))
        }),
    );
    intervals
}

/// The churn study: delivery ratio and delay of the intentional scheme
/// vs the maintenance-epoch interval, on a two-regime synthetic trace
/// whose hubs move at the midpoint (so warm-up-frozen NCLs are stale
/// for the whole measurement phase). Fast cadences adapt quickly but
/// churn the central set and migrate more cache copies; `None` never
/// adapts — the gap between the two is what online re-election buys.
pub fn churn(scale: f64, seeds: u32) -> Vec<ChurnRow> {
    churn_with(scale, seeds, churn_intervals(scale))
}

/// [`churn`] with caller-chosen epoch cadences — the `--epoch` flag of
/// `experiments` narrows the sweep to frozen-vs-one-cadence this way.
pub fn churn_with(scale: f64, seeds: u32, intervals: Vec<Option<Duration>>) -> Vec<ChurnRow> {
    let s = scale.max(0.05);
    let half = Duration((Duration::days(2).as_secs() as f64 * s) as u64).max(Duration::hours(4));
    let trace = regime_shift_trace(30, (10_000.0 * s) as u64, 42, half);
    let base = ExperimentConfig {
        ncl_count: 4,
        mean_data_lifetime: Duration((half.as_secs() as f64 * 0.9) as u64),
        ..ExperimentConfig::default()
    };
    let points: Vec<SweepPoint<'_>> = intervals
        .iter()
        .map(|&epoch_interval| SweepPoint {
            trace: &trace,
            scheme: SchemeKind::Intentional,
            config: ExperimentConfig {
                epoch_interval,
                ..base.clone()
            },
        })
        .collect();
    let results = averaged_sweep(&points, seeds);
    intervals
        .into_iter()
        .zip(results)
        .map(|(epoch_interval, report)| ChurnRow {
            label: epoch_interval.map_or_else(|| "frozen".into(), human_duration),
            epoch_interval,
            report,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: f64 = 0.02;

    #[test]
    fn table1_covers_all_presets() {
        let rows = table1(TINY, 1);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.stats.nodes, row.preset.node_count());
            assert!(row.stats.contacts > 0);
        }
    }

    #[test]
    fn fig4_distributions_are_skewed() {
        let series = fig4(TINY, 1);
        assert_eq!(series.len(), 4);
        for s in &series {
            assert_eq!(s.scores.len(), s.preset.node_count());
            let max = s.scores.first().map(|c| c.metric).unwrap_or(0.0);
            let min = s.scores.last().map(|c| c.metric).unwrap_or(0.0);
            assert!(max >= min);
        }
    }

    #[test]
    fn fig7_is_monotone_between_bounds() {
        let points = fig7();
        assert_eq!(points.len(), 21);
        for w in points.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
        assert!((points[0].1 - 0.45).abs() < 1e-9);
        assert!((points[20].1 - 0.8).abs() < 1e-9);
    }

    #[test]
    fn fig9_outputs_are_plausible() {
        let rows = fig9a(0.05, 1);
        assert_eq!(rows.len(), 7);
        // Total generated decreases as T_L grows.
        assert!(rows.first().unwrap().items_generated >= rows.last().unwrap().items_generated);
        let zipf = fig9b();
        assert_eq!(zipf.len(), 3);
        for (_, probs) in &zipf {
            assert!(probs[0] >= probs[19]);
        }
    }

    #[test]
    fn human_duration_picks_natural_units() {
        assert_eq!(human_duration(Duration::hours(12)), "12h");
        assert_eq!(human_duration(Duration::days(3)), "3d");
        assert_eq!(human_duration(Duration::minutes(90)), "1.5h");
        assert_eq!(human_duration(Duration((1.4 * 86_400.0) as u64)), "1.4d");
    }

    #[test]
    fn churn_intervals_start_frozen_and_stay_sorted() {
        let intervals = churn_intervals(1.0);
        assert_eq!(intervals.len(), 5);
        assert!(intervals[0].is_none());
        let cadences: Vec<u64> = intervals[1..]
            .iter()
            .map(|i| i.expect("swept cadence").as_secs())
            .collect();
        assert!(cadences.windows(2).all(|w| w[0] < w[1]));
        // Scaling shrinks cadences but never below the floor.
        for i in churn_intervals(0.01).into_iter().flatten() {
            assert!(i >= Duration::minutes(30));
        }
    }

    #[test]
    fn fig13_row_shape() {
        // One tiny smoke run: K ∈ {1..10} would be slow, so check the
        // static shape helpers only.
        assert_eq!(fig13_sizes_mb().len(), 3);
        assert_eq!(sizes_mb().len(), 5);
    }
}
