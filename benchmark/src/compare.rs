//! `compare` (two result sets, metric by metric) and `check` (a result
//! set against `BENCHMARK.json`).

use std::fs;
use std::path::Path;

use crate::json::Json;
use crate::stats::quartiles;

/// The contract both commands read, relative to the repository root
/// (`run.sh` changes into it).
const BENCHMARK_JSON: &str = "BENCHMARK.json";

/// Absolute allowance on `setup_s` beside its relative bound ("15% or
/// 0.05 s" in the issue that defined the benchmark): set-ups of 40–100 ms
/// swing by more than any relative bound from pass to pass, and 50 ms of
/// set-up is nothing a user of a 30 s run sees.
const SETUP_FLOOR_S: f64 = 0.05;

/// One `end_to_end` entry of `BENCHMARK.json`.
struct Spec {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn load_benchmark_json() -> Result<Json, String> {
    load(Path::new(BENCHMARK_JSON))
}

fn load(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn specs(benchmark: &Json, section: &str) -> Vec<Spec> {
    benchmark
        .get(section)
        .map_or(&[][..], Json::items)
        .iter()
        .map(|m| Spec {
            name: m
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            unit: m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
            bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
        })
        .collect()
}

fn workload_names(benchmark: &Json) -> Vec<String> {
    benchmark
        .get("workloads")
        .map_or(&[][..], Json::items)
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .map(str::to_string)
        .collect()
}

/// Reported value of one metric in a result file, with the first and
/// third quartile of its raw per-pass readings.
fn reading(result: &Json, metric: &str) -> Option<(f64, f64, f64)> {
    let m = result.get("metrics")?.get(metric)?;
    let raw: Vec<f64> = m
        .get("values")?
        .items()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    let (q1, q3) = quartiles(&raw)?;
    Some((m.get("value")?.as_f64()?, q1, q3))
}

/// How one workload × metric row reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's own quartile range is wider than the allowance and the
    /// two ranges overlap, so the medians cannot resolve a difference.
    Unresolved,
}

/// Judges B against A. `a` and `b` are each side's `(reported value,
/// first quartile, third quartile of its whole-pass readings)`; B may be
/// worse than A by `bound` of A's value or by `floor` in the metric's own
/// unit, whichever is more. The quartiles say how much the passes of one
/// run disagree among themselves — the reported value of a timed metric
/// is a best time and may lie outside them. Returns the relative
/// worsening and the verdict.
pub fn judge(
    a: (f64, f64, f64),
    b: (f64, f64, f64),
    higher_is_better: bool,
    bound: f64,
    floor: f64,
) -> (f64, Verdict) {
    // Signed so that positive always means "B is worse".
    let worse_by = if higher_is_better {
        a.0 - b.0
    } else {
        b.0 - a.0
    };
    let allowed = (bound * a.0).max(floor);
    let spread = |r: (f64, f64, f64)| r.2 - r.1;
    let overlap = a.1 <= b.2 && b.1 <= a.2;
    let verdict = if overlap && (spread(a) > allowed || spread(b) > allowed) {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Worse
    } else {
        Verdict::Within
    };
    (worse_by / a.0, verdict)
}

/// Prints one row per workload × end-to-end metric for result sets `a`
/// and `b`. Returns whether every row is within its bound and every
/// fingerprint agrees.
///
/// # Errors
///
/// A message when `BENCHMARK.json` or a result file is missing or
/// malformed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let benchmark = load_benchmark_json()?;
    let mut all_within = true;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A value", "B value", "worse by", "bound"
    );
    for workload in workload_names(&benchmark) {
        let file = format!("{workload}.json");
        let (ra, rb) = (load(&a.join(&file))?, load(&b.join(&file))?);
        for spec in specs(&benchmark, "end_to_end") {
            let (Some(va), Some(vb)) = (reading(&ra, &spec.name), reading(&rb, &spec.name)) else {
                return Err(format!(
                    "{workload}: metric {} missing from a result set",
                    spec.name
                ));
            };
            let floor = if spec.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let (worse_by, verdict) = judge(va, vb, spec.higher_is_better, spec.bound, floor);
            all_within &= verdict == Verdict::Within;
            println!(
                "{workload:<14} {:<16} {:>14.6e} {:>14.6e} {:>8.2}% {:>6.0}%  {}",
                spec.name,
                va.0,
                vb.0,
                worse_by * 100.0,
                spec.bound * 100.0,
                match verdict {
                    Verdict::Within => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                },
            );
        }
        // Deterministic outputs: equal seeds must give equal fingerprints.
        let info = |r: &Json, key: &str| r.get("info").and_then(|i| i.get(key)).cloned();
        if ra.get("seed") == rb.get("seed") {
            let same = info(&ra, "fingerprint") == info(&rb, "fingerprint");
            all_within &= same;
            println!(
                "{workload:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  {}",
                "fingerprint",
                info(&ra, "fingerprint")
                    .as_ref()
                    .and_then(Json::as_str)
                    .unwrap_or("-"),
                info(&rb, "fingerprint")
                    .as_ref()
                    .and_then(Json::as_str)
                    .unwrap_or("-"),
                "",
                "exact",
                if same { "equal" } else { "DIFFERENT" },
            );
        }
    }
    Ok(all_within)
}

fn check_section(result: &Json, wanted: &[Spec], file: &str, problems: &mut Vec<String>) {
    let metrics = result.get("metrics").map_or(&[][..], Json::members);
    for spec in wanted {
        match metrics.iter().find(|(k, _)| *k == spec.name) {
            None => problems.push(format!("{file}: metric {} is missing", spec.name)),
            Some((_, m)) => {
                if !m
                    .get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite)
                {
                    problems.push(format!(
                        "{file}: metric {} is not a finite number",
                        spec.name
                    ));
                }
                if m.get("unit").and_then(Json::as_str) != Some(spec.unit.as_str()) {
                    problems.push(format!(
                        "{file}: metric {} does not carry unit {}",
                        spec.name, spec.unit
                    ));
                }
            }
        }
    }
    for (name, _) in metrics {
        if !wanted.iter().any(|s| s.name == *name) {
            problems.push(format!(
                "{file}: metric {name} is not named in BENCHMARK.json"
            ));
        }
    }
    if result.get("correct") != Some(&Json::Bool(true)) {
        problems.push(format!("{file}: output checks failed"));
    }
}

/// Validates that result set `dir` carries, for every workload named in
/// `BENCHMARK.json`, every end-to-end metric (`<workload>.json`) and every
/// per-layer metric (`<workload>.trace.json`): present, finite, with its
/// unit. Returns the list of problems (empty = pass).
///
/// # Errors
///
/// A message when `BENCHMARK.json` or a result file is missing or
/// malformed.
pub fn check(dir: &Path) -> Result<Vec<String>, String> {
    let benchmark = load_benchmark_json()?;
    let mut problems = Vec::new();
    for workload in workload_names(&benchmark) {
        for (suffix, section) in [("json", "end_to_end"), ("trace.json", "per_layer")] {
            let file = format!("{workload}.{suffix}");
            let result = load(&dir.join(&file))?;
            check_section(&result, &specs(&benchmark, section), &file, &mut problems);
        }
    }
    Ok(problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_resolves_only_what_the_spread_allows() {
        // Throughput, 10% bound. Tight runs, B 5% slower: within bound.
        let (by, v) = judge((100.0, 99.0, 101.0), (95.0, 94.0, 96.0), true, 0.10, 0.0);
        assert!((by - 0.05).abs() < 1e-12);
        assert_eq!(v, Verdict::Within);
        // Tight runs, B 20% slower: worse.
        assert_eq!(
            judge((100.0, 99.0, 101.0), (80.0, 79.0, 81.0), true, 0.10, 0.0).1,
            Verdict::Worse
        );
        // A's own runs swing 30% and overlap B's: unresolved either way.
        assert_eq!(
            judge((100.0, 80.0, 110.0), (95.0, 94.0, 96.0), true, 0.10, 0.0).1,
            Verdict::Unresolved
        );
        // Wide but disjoint: every run of B is worse than every run of A.
        assert_eq!(
            judge((100.0, 90.0, 110.0), (60.0, 50.0, 70.0), true, 0.10, 0.0).1,
            Verdict::Worse
        );
        // Lower-is-better flips the sign: B larger is worse.
        let (by, v) = judge((1.0, 1.0, 1.0), (1.3, 1.3, 1.3), false, 0.25, 0.0);
        assert!((by - 0.3).abs() < 1e-12);
        assert_eq!(v, Verdict::Worse);
        assert_eq!(
            judge((1.0, 1.0, 1.0), (0.5, 0.5, 0.5), false, 0.25, 0.0).1,
            Verdict::Within
        );
        // A 40 ms set-up that reads 55 ms, with passes swinging 20 ms:
        // worse by 37% and a spread of 50%, yet inside the 50 ms floor.
        let (by, v) = judge(
            (0.040, 0.035, 0.055),
            (0.055, 0.045, 0.065),
            false,
            0.25,
            0.05,
        );
        assert!((by - 0.375).abs() < 1e-12);
        assert_eq!(v, Verdict::Within);
        // The floor does not hide 80 ms.
        assert_eq!(
            judge(
                (0.040, 0.039, 0.041),
                (0.120, 0.119, 0.121),
                false,
                0.25,
                0.05
            )
            .1,
            Verdict::Worse
        );
    }
}
