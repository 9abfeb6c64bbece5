//! The metric catalogue and the result of one benchmark run.
//!
//! `BENCHMARK.json` names exactly the metrics listed here; `check`
//! verifies the two stay in step.

use std::path::Path;

use crate::json::{obj, Json};
use crate::stats::median;

/// Result sets of the commit that defined the benchmark (or last changed
/// simulated behaviour on purpose). A run whose deterministic outputs
/// differ from them fails: that is what ties `correct` to the parent
/// commit and not just to the other passes of the same process.
const BASELINES: [&str; 2] = ["benchmark/baseline/a", "benchmark/baseline/seed7"];

/// Every end-to-end metric, `(name, unit)`. Each is defined — and never
/// zero — on every workload; the unit of work behind `ops_per_s` is the
/// workload's own (a contact dispatched, or a decision answered).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_bytes", "B"),
];

/// Every per-layer metric, `(name, unit)`, prefixed with the module that
/// produces it. A layer a workload never calls reports 0 work and 0 time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace_overhead_ratio", "ratio"),
    // Set-up, split by the layer that spends it.
    ("dtn-trace.synthetic.build_s", "s"),
    ("dtn-trace.synthetic.stream_open_s", "s"),
    ("dtn-trace.synthetic.stream_contacts_per_s", "1/s"),
    ("dtn-sim.engine.warmup_s", "s"),
    ("dtn-cache.configure_s", "s"),
    ("dtn-workload.generate_s", "s"),
    // The timed section of the simulator workloads.
    ("dtn-sim.engine.measured_s", "s"),
    ("dtn-cache.intentional.measured_s", "s"),
    ("dtn-cache.baselines.measured_s", "s"),
    ("dtn-sim.engine.contact_commit_self_s", "s"),
    ("dtn-sim.engine.workload_s", "s"),
    ("dtn-sim.engine.sample_s", "s"),
    ("dtn-sim.engine.dispatch_ns_per_contact", "ns"),
    ("dtn-sim.metrics.success_ratio", "ratio"),
    ("dtn-core.knapsack.busy_s", "s"),
    ("dtn-core.knapsack.solves", "count"),
    ("dtn-sim.oracle.rebuilds", "count"),
    ("dtn-sim.oracle.table_recomputes", "count"),
    ("dtn-sim.oracle.table_hits", "count"),
    ("dtn-sim.oracle.hit_ratio", "ratio"),
    ("dtn-sim.oracle.est_busy_s", "s"),
    ("dtn-cache.intentional.relays", "count"),
    ("dtn-cache.intentional.transmits", "count"),
    ("dtn-cache.intentional.replacements", "count"),
    ("dtn-cache.intentional.evictions", "count"),
    ("dtn-cache.intentional.residual_s", "s"),
    // Unit costs of single kernels on inputs captured at the midpoint.
    ("dtn-core.rate.record_ns", "ns"),
    ("dtn-core.graph.snapshot_build_ms", "ms"),
    ("dtn-core.path.search_us", "us"),
    ("dtn-core.path.bounded_search_us", "us"),
    ("dtn-core.hypoexp.extended_cdf_ns", "ns"),
    ("dtn-core.knapsack.solve_us", "us"),
    ("dtn-core.ncl.select_s", "s"),
    // The decision service.
    ("dtn-serve.ingest_s", "s"),
    ("dtn-serve.ingest_ns_per_contact", "ns"),
    ("dtn-serve.answer_s", "s"),
    ("dtn-serve.answer_p50_us", "us"),
    ("dtn-serve.answer_p99_us", "us"),
    ("dtn-serve.answer_p999_us", "us"),
    ("dtn-sim.decision.place_us", "us"),
    ("dtn-sim.decision.route_us", "us"),
    ("dtn-serve.cold_decisions", "count"),
    ("dtn-serve.cold_share", "ratio"),
    ("dtn-serve.epoch_changes", "count"),
    ("dtn-serve.decide_p50_us", "us"),
    ("dtn-serve.decide_p99_us", "us"),
    ("dtn-serve.decide_p999_us", "us"),
    ("dtn-serve.rate_at_budget_per_s", "1/s"),
    ("dtn-serve.budget_miss_ratio", "ratio"),
];

/// One reported metric: the per-pass samples and their unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Catalogue unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// The raw reading of each pass (a single one for run-wide metrics).
    pub values: Vec<f64>,
}

/// What one invocation measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// Whether this is the traced run (per-layer metrics) or the untraced
    /// one (end-to-end metrics).
    pub traced: bool,
    /// Operations attempted (simulation runs, or decisions).
    pub attempted: u64,
    /// One line per operation that failed an output check.
    pub failures: Vec<String>,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Ungated context: sizes, counts, fingerprints, simulated statistics.
    pub info: Vec<(String, Json)>,
}

impl Report {
    /// An empty report whose metric list is the catalogue for the run
    /// kind; per-layer metrics start at 0 (layer not exercised).
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        let metrics = if traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: 0.0,
                    values: vec![0.0],
                })
                .collect()
        } else {
            Vec::new()
        };
        Report {
            workload,
            seed,
            traced,
            attempted: 0,
            failures: Vec::new(),
            metrics,
            info: Vec::new(),
        }
    }

    /// Records a catalogue metric as the median of its per-pass readings.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue of this run kind, or on no
    /// readings — bugs in the benchmark itself.
    pub fn set(&mut self, name: &str, values: Vec<f64>) {
        assert!(!values.is_empty(), "metric {name} has no samples");
        self.set_value(name, median(&values), values);
    }

    /// Records a catalogue metric whose reported `value` is not the plain
    /// median of the raw per-pass readings kept beside it.
    ///
    /// # Panics
    ///
    /// As [`Report::set`].
    pub fn set_value(&mut self, name: &str, value: f64, values: Vec<f64>) {
        let catalogue = if self.traced { PER_LAYER } else { END_TO_END };
        let &(name, unit) = catalogue
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        let metric = Metric {
            name,
            unit,
            value,
            values,
        };
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => *m = metric,
            None => self.metrics.push(metric),
        }
    }

    /// Records a failed output check.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Adds an ungated context entry.
    pub fn note(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }

    /// Holds this run's fingerprints against every committed baseline of
    /// the same workload: the fixed-seed replica's always, the workload's
    /// own when seed and size match. A baseline that is absent (it is
    /// being regenerated) is skipped; the number of comparisons made is
    /// noted.
    pub fn check_against_baselines(&mut self, smoke: bool) {
        let mine = |r: &Report, key: &str| {
            r.info
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        let mut compared = 0u64;
        for dir in BASELINES {
            let file = Path::new(dir).join(format!("{}.json", self.workload));
            let Some(baseline) = std::fs::read_to_string(&file)
                .ok()
                .and_then(|text| Json::parse(&text).ok())
            else {
                continue;
            };
            let same_inputs = baseline.get("seed").and_then(Json::as_f64) == Some(self.seed as f64)
                && baseline.get("smoke") == Some(&Json::Bool(smoke));
            for key in ["replica_fingerprint", "fingerprint"] {
                if key == "fingerprint" && !same_inputs {
                    continue;
                }
                compared += 1;
                self.attempted += 1;
                let theirs = baseline.get("info").and_then(|i| i.get(key)).cloned();
                if theirs != mine(self, key) {
                    self.fail(format!(
                        "{key} {} differs from {}'s {}",
                        mine(self, key).map_or("-".to_string(), |v| v.compact()),
                        file.display(),
                        theirs.map_or("-".to_string(), |v| v.compact()),
                    ));
                }
            }
        }
        self.note("baseline_comparisons", Json::Num(compared as f64));
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The full result file.
    pub fn to_json(&self, smoke: bool, seconds: f64) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let lo = m.values.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = m.values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                (
                    m.name.to_string(),
                    obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                        ("min", Json::Num(lo)),
                        ("max", Json::Num(hi)),
                        (
                            "values",
                            Json::Arr(m.values.iter().map(|&v| Json::Num(v)).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        obj([
            ("schema", Json::Str("dtn-benchmark/1".to_string())),
            ("workload", Json::Str(self.workload.to_string())),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.traced)),
            ("smoke", Json::Bool(smoke)),
            ("seconds", Json::Num(seconds)),
            (
                "host_cores",
                Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failures.len() as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| Json::Str(f.clone())).collect()),
            ),
            ("metrics", Json::Obj(metrics)),
            ("info", Json::Obj(self.info.clone())),
        ])
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics` (`name → {value, unit}`).
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failures.len() as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .compact()
    }
}

/// FNV-1a over a sequence of `u64`s — the fingerprint of a run's
/// deterministic outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one value in, byte by byte.
    pub fn fold(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        assert!(END_TO_END.iter().any(|(n, u)| *n == "setup_s" && *u == "s"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("w", 1, false);
        r.attempted = 4;
        r.set("setup_s", vec![0.5, 0.25, 1.0]);
        let doc = Json::parse(&r.result_line()).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.5));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn traced_reports_start_with_every_layer_at_zero() {
        let r = Report::new("w", 1, true);
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        assert!(r.metrics.iter().all(|m| m.value == 0.0));
    }
}
