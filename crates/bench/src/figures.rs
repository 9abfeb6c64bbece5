//! Per-figure experiment definitions (DESIGN.md §4).
//!
//! Table I and Fig. 4, 7 and 9 are one function each. Every sweep figure
//! (Fig. 10–13 and the ablation, NCL, bounds and churn studies) is one
//! [`Figure`] from [`sweep`]: a base point, two axes that edit it, and
//! the metrics it reports. A global `scale` parameter shrinks trace duration and contact
//! counts proportionally (contact density preserved) so the same code
//! runs as a full reproduction or a quick check.
//! Data lifetimes scale with the trace so the lifetime-to-duration ratio
//! — the quantity that shapes the curves — is preserved.

use std::fmt::Write as _;

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

mod verdicts;
use verdicts::{claim, Claim};

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

// ------------------------------------------------------- Sweep figures

/// `d × scale`, never below `floor`: how a duration shrinks with the trace.
fn scaled(d: Duration, scale: f64, floor: Duration) -> Duration {
    Duration((d.as_secs() as f64 * scale) as u64).max(floor)
}

/// The Fig. 10 lifetime sweep, scaled with the trace so the
/// lifetime/duration ratio matches the paper's 123-day window.
fn lifetimes_mit(scale: f64) -> Vec<Duration> {
    // 12 h, 1 d, 3 d, 1 week, 2 weeks, 30 d, 90 d.
    let hours = [12, 24, 72, 168, 336, 720, 2160];
    hours
        .map(|h| scaled(Duration::hours(h), scale, Duration::hours(1)))
        .to_vec()
}

/// Base configuration of the §VI-B MIT Reality experiments, scaled.
fn mit_config(scale: f64) -> ExperimentConfig {
    ExperimentConfig {
        ncl_count: 8,
        mean_data_lifetime: scaled(Duration::weeks(1), scale, Duration::hours(1)),
        ..ExperimentConfig::default()
    }
}

/// One cell of a sweep before it meets its trace.
#[derive(Debug, Clone)]
pub(crate) struct Point {
    /// Index into the figure's [`Figure::traces`].
    pub(crate) trace: usize,
    /// Which scheme runs.
    pub(crate) scheme: SchemeKind,
    /// The experiment configuration.
    pub(crate) config: ExperimentConfig,
}

/// What an axis entry does to the base point.
type Edit = Box<dyn Fn(&mut Point)>;

/// One axis of a sweep: a heading and, per entry, a label and the edit
/// the entry makes to the figure's base point.
struct Axis {
    /// The heading: a row axis's heads the label column and the CSV's
    /// first column; a column axis's ends each sub-table's title.
    label: &'static str,
    /// `(label, edit)` per entry, in print order.
    entries: Vec<(String, Edit)>,
}

impl Axis {
    /// An axis over `values`: `name` labels an entry, `edit` applies it.
    fn over<T: Copy + 'static>(
        label: &'static str,
        values: impl IntoIterator<Item = T>,
        name: impl Fn(T) -> String,
        edit: impl Fn(&mut Point, T) + Copy + 'static,
    ) -> Self {
        let entry =
            |v: T| -> (String, Edit) { (name(v), Box::new(move |p: &mut Point| edit(p, v))) };
        Axis {
            label,
            entries: values.into_iter().map(entry).collect(),
        }
    }
}

/// What a sweep reports per cell: one sub-table and one CSV file each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Metric {
    /// Successful ratio.
    Success,
    /// Data access delay, hours.
    Delay,
    /// Caching overhead, copies per item.
    Copies,
    /// Replacement operations per item.
    Replacements,
    /// Megabytes transmitted per satisfied query.
    MbPerQuery,
}

impl Metric {
    /// The CSV file's suffix and the sub-table's title.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Metric::Success => ("success", "successful ratio"),
            Metric::Delay => ("delay_hours", "data access delay (hours)"),
            Metric::Copies => ("copies", "caching overhead (copies/item)"),
            Metric::Replacements => ("replacements", "replacement overhead (ops/item)"),
            Metric::MbPerQuery => ("mb_per_query", "MB per satisfied query"),
        }
    }

    /// Whether a larger value is the better one (success alone).
    fn higher_is_better(self) -> bool {
        self == Metric::Success
    }

    fn of(self, r: &AveragedReport) -> f64 {
        match self {
            Metric::Success => r.success_ratio,
            Metric::Delay => r.avg_delay_hours,
            Metric::Copies => r.avg_copies_per_item,
            Metric::Replacements => r.avg_replacements_per_item,
            Metric::MbPerQuery => r.bytes_per_satisfied_query / 1e6,
        }
    }
}

/// One sweep figure (DESIGN.md §4): a base point, a row axis and a column
/// axis whose entries edit it, the metrics it reports and the paper claims
/// it grades. A cell is the base point edited by its row's entry, then its
/// column's; cells run row-major.
pub struct Figure {
    /// The command name, and the stem of the figure's CSV files.
    pub(crate) name: &'static str,
    /// The printed heading.
    pub title: &'static str,
    /// The traces a [`Point`] indexes (one, bar the NCL study's two).
    pub(crate) traces: Vec<ContactTrace>,
    /// The point every cell edits, and the one `observe` captures.
    pub(crate) base: Point,
    /// The row axis.
    rows: Axis,
    /// The column axis.
    columns: Axis,
    /// The sub-tables (a), (b), … in order.
    metrics: Vec<Metric>,
    /// What `experiments verdicts` grades (paper claims for Fig. 10–13, the
    /// extensions' own for ablation, NCL and churn); empty for bounds.
    claims: Vec<Claim>,
}

impl Figure {
    /// Every cell's sweep point, row-major.
    fn points(&self) -> Vec<SweepPoint<'_>> {
        let mut points = Vec::new();
        for (_, row) in &self.rows.entries {
            for (_, column) in &self.columns.entries {
                let mut p = self.base.clone();
                row(&mut p);
                column(&mut p);
                points.push(SweepPoint {
                    trace: &self.traces[p.trace],
                    scheme: p.scheme,
                    config: p.config,
                });
            }
        }
        points
    }

    /// Runs every cell over `seeds` repetitions: one report per cell,
    /// row-major.
    pub fn run(&self, seeds: u32) -> Vec<AveragedReport> {
        averaged_sweep(&self.points(), seeds)
    }

    /// Each row's label beside its cells.
    fn rows_of<'a>(
        &'a self,
        cells: &'a [AveragedReport],
    ) -> impl Iterator<Item = (&'a str, &'a [AveragedReport])> {
        let labels = self.rows.entries.iter().map(|(label, _)| label.as_str());
        labels.zip(cells.chunks(self.columns.entries.len()))
    }

    /// One text table per metric of `cells` (as [`Figure::run`] returns
    /// them), values at three decimals.
    pub fn render(&self, cells: &[AveragedReport]) -> String {
        let labels = self.rows.entries.iter().map(|(label, _)| label.len());
        let first = labels.fold(self.rows.label.len(), usize::max);
        let widths = self.columns.entries.iter().map(|(label, _)| label.len());
        let width = widths.fold(12, usize::max);
        let mut out = String::new();
        for (letter, metric) in ('a'..).zip(&self.metrics) {
            let title = metric.names().1;
            let _ = write!(out, "\n({letter}) {title} by {}\n", self.columns.label);
            let _ = write!(out, "{:<first$}", self.rows.label);
            for (label, _) in &self.columns.entries {
                let _ = write!(out, " {label:>width$}");
            }
            for (label, row) in self.rows_of(cells) {
                let _ = write!(out, "\n{label:<first$}");
                for cell in row {
                    let _ = write!(out, " {:>width$.3}", metric.of(cell));
                }
            }
            out.push('\n');
        }
        out
    }

    /// One CSV file per metric of `cells`: `(file name, contents)`, the
    /// file `{name}{letter}_{metric}.csv`, the row axis's label then the
    /// column labels as its header, values at six decimals.
    pub fn csv(&self, cells: &[AveragedReport]) -> Vec<(String, String)> {
        let columns = self.columns.entries.iter().map(|(label, _)| label.as_str());
        let header = std::iter::once(self.rows.label).chain(columns);
        let header = header.collect::<Vec<_>>().join(",");
        let file = |(letter, metric): (char, &Metric)| {
            let mut body = format!("{header}\n");
            for (label, row) in self.rows_of(cells) {
                body.push_str(label);
                for cell in row {
                    let _ = write!(body, ",{:.6}", metric.of(cell));
                }
                body.push('\n');
            }
            let name = format!("{}{letter}_{}.csv", self.name, metric.names().0);
            (name, body)
        };
        ('a'..).zip(&self.metrics).map(file).collect()
    }
}

/// The sweep figures, in the order `experiments all` runs them.
pub const SWEEPS: [&str; 8] = [
    "fig10", "fig11", "fig12", "fig13", "ablation", "ncl", "bounds", "churn",
];

/// The named sweep figure at `scale` (trace seeds pinned to 42), or
/// `None` for a name not in [`SWEEPS`]. `epoch` narrows churn's rows to
/// frozen NCLs vs that one cadence (the `--epoch` flag); the other
/// figures ignore it.
pub fn sweep(name: &str, scale: f64, epoch: Option<Duration>) -> Option<Figure> {
    use dtn_cache::intentional::ResponseStrategy;
    use dtn_cache::routing::ForwardingStrategy;
    use dtn_core::ncl::SelectionStrategy;
    use Metric::{Copies, Delay, MbPerQuery, Replacements, Success};

    let mit = || vec![preset_trace(TracePreset::MitReality, scale, 42)];
    let intentional = |config| Point {
        trace: 0,
        scheme: SchemeKind::Intentional,
        config,
    };
    let schemes = |kinds: &[SchemeKind]| {
        let name = |k: SchemeKind| k.name().to_string();
        Axis::over("scheme", kinds.to_vec(), name, |p, k| p.scheme = k)
    };
    let sizes = |label, mbs: &[u64]| {
        let size = |p: &mut Point, mb| p.config.mean_data_size = megabits(mb);
        Axis::over(label, mbs.to_vec(), |mb| format!("{mb}Mb"), size)
    };
    const SIZES_MB: [u64; 5] = [20, 50, 100, 150, 200];
    let figure = match name {
        // Fig. 10: data-access performance vs average data lifetime T_L.
        "fig10" => Figure {
            name: "fig10",
            title: "Fig. 10: performance vs data lifetime (MIT Reality)",
            traces: mit(),
            base: intentional(mit_config(scale)),
            rows: Axis::over("T_L", lifetimes_mit(scale), human_duration, |p, d| {
                p.config.mean_data_lifetime = d;
            }),
            columns: schemes(&SchemeKind::ALL),
            metrics: vec![Success, Delay, Copies],
            claims: vec![
                claim(Success, "Intentional", "NoCache", 1.0),
                claim(Success, "Intentional", "NoCache", 3.0),
                claim(Success, "Intentional", "BundleCache", 1.0),
                claim(Success, "Intentional", "BundleCache", 1.5),
                claim(Success, "Intentional", "CacheData", 1.0),
                claim(Success, "CacheData", "RandomCache", 1.0),
                claim(Copies, "CacheData", "Intentional", 0.7),
            ],
        },
        // Fig. 11: … vs average data size s_avg.
        "fig11" => Figure {
            name: "fig11",
            title: "Fig. 11: performance vs data size (MIT Reality)",
            traces: mit(),
            base: intentional(mit_config(scale)),
            rows: sizes("s_avg", &SIZES_MB),
            columns: schemes(&SchemeKind::ALL),
            metrics: vec![Success, Delay, Copies],
            claims: ["BundleCache", "CacheData", "RandomCache"]
                .map(|b| claim(Success, "Intentional", b, 1.0))
                .into(),
        },
        // Fig. 12: the replacement policies inside the intentional scheme.
        "fig12" => Figure {
            name: "fig12",
            title: "Fig. 12: cache replacement strategies (MIT Reality)",
            traces: mit(),
            base: intentional(mit_config(scale)),
            rows: sizes("s_avg", &SIZES_MB),
            columns: Axis::over(
                "policy",
                ReplacementKind::ALL,
                |k| k.name().to_string(),
                |p, k| p.config.replacement = k,
            ),
            metrics: vec![Success, Delay, Replacements],
            claims: ["FIFO", "LRU", "Greedy-Dual-Size"]
                .map(|b| claim(Success, "Utility-Knapsack", b, 1.0))
                .into(),
        },
        // Fig. 13: the number of NCLs K on Infocom06 (T_L = 3 h), for
        // several node-buffer conditions.
        "fig13" => Figure {
            name: "fig13",
            title: "Fig. 13: impact of the number of NCLs (Infocom06)",
            traces: vec![preset_trace(TracePreset::Infocom06, scale, 42)],
            base: intentional(ExperimentConfig {
                ncl_count: TracePreset::Infocom06.default_ncl_count(),
                mean_data_lifetime: scaled(Duration::hours(3), scale, Duration::minutes(30)),
                ..ExperimentConfig::default()
            }),
            rows: Axis::over(
                "K",
                1..=10,
                |k: usize| k.to_string(),
                |p, k| p.config.ncl_count = k,
            ),
            columns: sizes("s_avg", &[50, 100, 200]),
            metrics: vec![Success, Delay, Copies],
            // The paper's "K = 1 loses 25% of K = 2" is K = 2 ≥ 4/3 × K = 1.
            claims: vec![
                claim(Success, "2", "1", 1.0),
                claim(Success, "2", "1", 4.0 / 3.0),
            ],
        },
        // The paper's two probabilistic design choices (Algorithm 1's
        // knapsack vs §V-D-2's deterministic one; the sigmoid vs
        // path-aware response of §V-C) and the response routing.
        "ablation" => {
            use ForwardingStrategy::{Direct, Epidemic, Greedy};
            let (paper, aware) = (ResponseStrategy::default(), ResponseStrategy::PathAware);
            let spray = ForwardingStrategy::SprayAndWait { initial_copies: 4 };
            let variants = [
                ("paper (Alg.1 + sigmoid)", true, paper, Greedy),
                ("deterministic knapsack", false, paper, Greedy),
                ("path-aware response", true, aware, Greedy),
                ("deterministic + path-aware", false, aware, Greedy),
                ("spray-and-wait responses (L=4)", true, paper, spray),
                ("epidemic responses", true, paper, Epidemic),
                ("direct-delivery responses", true, paper, Direct),
            ];
            Figure {
                name: "ablation",
                title: "Ablation: probabilistic selection & response strategy (MIT Reality)",
                traces: mit(),
                base: intentional(mit_config(scale)),
                rows: Axis::over(
                    "variant",
                    variants,
                    |v| v.0.to_string(),
                    |p, v| {
                        let c = &mut p.config;
                        (_, c.probabilistic_selection, c.response, c.response_routing) = v;
                    },
                ),
                columns: sizes("s_avg", &[50, 150]),
                metrics: vec![Success, Delay],
                claims: vec![
                    claim(
                        Success,
                        "spray-and-wait responses (L=4)",
                        variants[0].0,
                        1.0,
                    ),
                    claim(Delay, "spray-and-wait responses (L=4)", variants[0].0, 1.0),
                    claim(Success, "epidemic responses", variants[0].0, 1.0),
                ],
            }
        }
        // The paper's NCL metric (Eq. 3) vs degree centrality, raw contact
        // frequency and a random pick (§IV), on two traces.
        "ncl" => {
            let presets = [TracePreset::MitReality, TracePreset::Infocom06];
            let on = move |p: &mut Point, (trace, preset): (usize, TracePreset)| {
                let lifetime = match preset {
                    TracePreset::Infocom06 => Duration::hours(3),
                    _ => Duration::weeks(1),
                };
                p.trace = trace;
                p.config.ncl_count = preset.default_ncl_count();
                p.config.mean_data_lifetime = scaled(lifetime, scale, Duration::minutes(30));
            };
            let mut base = intentional(ExperimentConfig::default());
            on(&mut base, (0, presets[0]));
            let strategies = [
                ("path metric (paper)", SelectionStrategy::PathMetric),
                ("degree centrality", SelectionStrategy::DegreeCentrality),
                ("contact frequency", SelectionStrategy::ContactFrequency),
                ("random", SelectionStrategy::Random { seed: 9 }),
            ];
            Figure {
                name: "ncl",
                title: "NCL selection strategies (§IV design choice)",
                traces: presets.map(|p| preset_trace(p, scale, 42)).to_vec(),
                base,
                rows: Axis::over(
                    "strategy",
                    strategies,
                    |s| s.0.to_string(),
                    |p, s| {
                        p.config.ncl_selection = s.1;
                    },
                ),
                columns: Axis::over(
                    "trace",
                    presets.into_iter().enumerate(),
                    |(_, p)| p.name().to_string(),
                    on,
                ),
                metrics: vec![Success, Delay],
                claims: strategies[..3]
                    .iter()
                    .map(|s| claim(Success, s.0, "random", 1.0))
                    .collect(),
            }
        }
        // The five schemes against the epidemic-flooding upper bound,
        // with what each pays per satisfied query.
        "bounds" => Figure {
            name: "bounds",
            title: "Bounds: the paper's schemes vs epidemic flooding (MIT Reality)",
            traces: mit(),
            base: intentional(mit_config(scale)),
            rows: schemes(&SchemeKind::ALL_WITH_BOUNDS),
            columns: Axis::over(
                "trace",
                [TracePreset::MitReality],
                |p| p.name().into(),
                |_, _| {},
            ),
            metrics: vec![Success, Delay, MbPerQuery],
            claims: Vec::new(),
        },
        // The intentional scheme vs the maintenance-epoch interval on a
        // two-regime trace whose hubs move at the midpoint, so warm-up-
        // frozen NCLs (the leading row) are stale for the whole
        // measurement phase.
        "churn" => {
            let s = scale.max(0.05);
            let half = scaled(Duration::days(2), s, Duration::hours(4));
            let cadences = [
                Duration::hours(2),
                Duration::hours(6),
                Duration::hours(12),
                Duration::days(1),
            ];
            let cadence = |d| Some(scaled(d, scale.max(0.25), Duration::minutes(30)));
            let intervals: Vec<Option<Duration>> = match epoch {
                Some(d) => vec![None, Some(d)],
                None => std::iter::once(None).chain(cadences.map(cadence)).collect(),
            };
            let label = |i: Option<Duration>| i.map_or_else(|| "frozen".into(), human_duration);
            let claims = (intervals[1..].iter())
                .map(|&i| claim(Success, label(i), "frozen", 1.0))
                .collect();
            Figure {
                name: "churn",
                title: "Churn: NCL re-election cadence on a regime-shift trace",
                traces: vec![regime_shift_trace(30, (10_000.0 * s) as u64, 42, half)],
                base: intentional(ExperimentConfig {
                    ncl_count: 4,
                    mean_data_lifetime: scaled(half, 0.9, Duration(0)),
                    epoch_interval: Some(scaled(half, 0.25, Duration::minutes(30))),
                    ..ExperimentConfig::default()
                }),
                rows: Axis::over("epoch", intervals, label, |p, i| {
                    p.config.epoch_interval = i
                }),
                columns: schemes(&[SchemeKind::Intentional]),
                metrics: vec![Success, Delay, Copies],
                claims,
            }
        }
        _ => return None,
    };
    Some(figure)
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

    /// A report whose success ratio and bytes per satisfied query are
    /// `success` and `bytes`; every other metric reads 0.
    pub(super) fn report(success: f64, bytes: f64) -> AveragedReport {
        AveragedReport {
            scheme: SchemeKind::NoCache,
            success_ratio: success,
            avg_delay_hours: 0.0,
            avg_copies_per_item: 0.0,
            avg_replacements_per_item: 0.0,
            queries_issued: 0.0,
            bytes_per_satisfied_query: bytes,
            seeds: 1,
            per_seed: Vec::new(),
        }
    }

    /// `averaged_sweep` over the one point a cell names, on one seed.
    fn alone(trace: &ContactTrace, scheme: SchemeKind, config: ExperimentConfig) -> AveragedReport {
        let point = SweepPoint {
            trace,
            scheme,
            config,
        };
        averaged_sweep(&[point], 1).remove(0)
    }

    #[test]
    fn every_figure_has_its_rows_columns_and_metrics() {
        // Name, rows, columns, metrics, and the lines its verdicts grade:
        // each claim at every entry of the axis its labels do not name.
        let shapes = [
            ("fig10", 7, 5, 3, 7 * 7),
            ("fig11", 5, 5, 3, 3 * 5),
            ("fig12", 5, 4, 3, 3 * 5),
            ("fig13", 10, 3, 3, 2 * 3),
            ("ablation", 7, 2, 2, 3 * 2),
            ("ncl", 4, 2, 2, 3 * 2),
            ("bounds", 6, 1, 3, 0),
            ("churn", 5, 1, 3, 4),
        ];
        assert_eq!(shapes.map(|s| s.0), SWEEPS);
        for (name, rows, columns, metrics, graded) in shapes {
            let fig = sweep(name, TINY, None).expect(name);
            assert_eq!(fig.name, name);
            let shape = (fig.rows.entries.len(), fig.columns.entries.len());
            assert_eq!((shape, fig.metrics.len()), ((rows, columns), metrics));
            assert_eq!(fig.points().len(), rows * columns, "{name}");
            let files = fig.csv(&vec![report(0.5, 1e6); rows * columns]);
            assert_eq!(files.len(), metrics, "{name}");
            for (file, body) in &files {
                assert!(file.starts_with(name), "{file}");
                assert_eq!(body.lines().count(), rows + 1, "{file}");
            }
            let cell = AveragedReport {
                per_seed: vec![report(0.5, 1e6); 2],
                ..report(0.5, 1e6)
            };
            let verdicts = fig.verdicts(&vec![cell; rows * columns]);
            assert_eq!(verdicts.lines().count(), graded + 1, "{name}");
        }
        assert!(sweep("fig99", TINY, None).is_none());
        // `--epoch` narrows churn to frozen vs the one cadence.
        let narrowed = sweep("churn", TINY, Some(Duration::hours(1))).expect("churn");
        let labels: Vec<&str> = narrowed.rows.entries.iter().map(|e| e.0.as_str()).collect();
        assert_eq!(labels, ["frozen", "1h"]);
    }

    #[test]
    fn each_cell_is_the_point_its_row_and_column_name() {
        // Bounds: one row per scheme on the MIT base point.
        let bounds = sweep("bounds", TINY, None).expect("bounds");
        let trace = preset_trace(TracePreset::MitReality, TINY, 42);
        let cells = bounds.run(1);
        assert_eq!(cells.len(), SchemeKind::ALL_WITH_BOUNDS.len());
        for (cell, scheme) in cells.iter().zip(SchemeKind::ALL_WITH_BOUNDS) {
            assert_eq!(cell, &alone(&trace, scheme, mit_config(TINY)), "{scheme}");
        }
        // Churn: frozen, then the cadences 2 h, 6 h, 12 h and 1 d scaled
        // by max(scale, 0.25) = 0.25, on a trace of halves 2 d × 0.05
        // floored at 4 h.
        let churn = sweep("churn", TINY, None).expect("churn");
        let trace = regime_shift_trace(30, 500, 42, Duration::hours(4));
        let epochs = [None, Some(Duration::minutes(30))]
            .into_iter()
            .chain([90, 180, 360].map(|m| Some(Duration::minutes(m))));
        let labels: Vec<&str> = churn.rows.entries.iter().map(|e| e.0.as_str()).collect();
        assert_eq!(labels, ["frozen", "0.5h", "1.5h", "3h", "6h"]);
        for (cell, epoch_interval) in churn.run(1).iter().zip(epochs) {
            let config = ExperimentConfig {
                ncl_count: 4,
                mean_data_lifetime: Duration(12_960),
                epoch_interval,
                ..ExperimentConfig::default()
            };
            assert_eq!(cell, &alone(&trace, SchemeKind::Intentional, config));
        }
    }

    /// A 2 × 2 grid over `traces`: schemes down, data sizes across.
    pub(super) fn grid(traces: Vec<ContactTrace>, metrics: Vec<Metric>) -> Figure {
        let schemes = [SchemeKind::NoCache, SchemeKind::Intentional];
        Figure {
            name: "grid",
            title: "a 2 x 2 grid",
            traces,
            base: Point {
                trace: 0,
                scheme: SchemeKind::NoCache,
                config: ExperimentConfig {
                    ncl_count: 2,
                    mean_data_lifetime: Duration::hours(6),
                    buffer_range: (8 << 20, 16 << 20),
                    ..ExperimentConfig::default()
                },
            },
            rows: Axis::over("scheme", schemes, |k| k.name().into(), |p, k| p.scheme = k),
            columns: Axis::over(
                "size",
                [1u64, 2],
                |mb| format!("{mb}MiB"),
                |p, mb| {
                    p.config.mean_data_size = mb << 20;
                },
            ),
            metrics,
            claims: vec![claim(Metric::Success, "Intentional", "NoCache", 1.0)],
        }
    }

    #[test]
    fn a_grid_runs_row_major() {
        let trace = SyntheticTraceBuilder::new(12)
            .duration(Duration::days(1))
            .target_contacts(2_000)
            .seed(3)
            .build();
        let fig = grid(vec![trace.clone()], vec![Metric::Success]);
        let cells = fig.run(1);
        let mut expected = Vec::new();
        for scheme in [SchemeKind::NoCache, SchemeKind::Intentional] {
            for mb in [1u64, 2] {
                let config = ExperimentConfig {
                    mean_data_size: mb << 20,
                    ..fig.base.config.clone()
                };
                expected.push(alone(&trace, scheme, config));
            }
        }
        assert_eq!(cells, expected);
    }

    #[test]
    fn a_grid_writes_one_csv_per_metric() {
        let fig = grid(Vec::new(), vec![Metric::Success, Metric::MbPerQuery]);
        let cells = [
            report(0.125, 1e6),
            report(0.25, 2.5e6),
            report(0.5, 0.0),
            report(1.0, 31_250_000.0),
        ];
        let files = fig.csv(&cells);
        let expected = [
            (
                "grida_success.csv",
                "scheme,1MiB,2MiB\nNoCache,0.125000,0.250000\nIntentional,0.500000,1.000000\n",
            ),
            (
                "gridb_mb_per_query.csv",
                "scheme,1MiB,2MiB\nNoCache,1.000000,2.500000\nIntentional,0.000000,31.250000\n",
            ),
        ];
        let files: Vec<(&str, &str)> = files
            .iter()
            .map(|(f, b)| (f.as_str(), b.as_str()))
            .collect();
        assert_eq!(files, expected);
        let table = fig.render(&cells);
        assert!(
            table.starts_with("\n(a) successful ratio by size\n"),
            "{table}"
        );
        assert!(
            table.contains("\nIntentional        0.500        1.000\n"),
            "{table}"
        );
    }
}
