//! The run-diff regression harness behind `experiments compare`.
//!
//! Aligns two runs — JSONL captures from `observe`/`timeline`, or two
//! committed `BENCH_*.json` documents — into keyed numeric series,
//! reports every per-window / per-phase / per-counter delta, and gates
//! a small set of outcome metrics behind a configurable threshold so
//! CI can fail a pull request that quietly regresses delivery.
//!
//! Two alignment modes, auto-detected per file:
//!
//! - **jsonl**: one [`crate::observe`] capture per file. Lines become
//!   series keys — `run.*` header counters, `events.<kind>` counts,
//!   `traces`, `window[i].*` (including per-NCL `[j]` lanes and the
//!   window edges, so a layout drift surfaces as its own delta),
//!   `phase[order:name@depth].*`, `footer.*`. Only deterministic
//!   counters are *gated* (success ratio, mean delay, bytes on the
//!   wire); phase wall-clock rows are informational — CI machines are
//!   too noisy for timed gates, per the repo's benching convention.
//! - **bench**: one JSON document per file (`BENCH_*.json`). Every
//!   numeric leaf becomes a dotted-path series and every difference is
//!   reported; only the determinism contract is *gated* — an `_exact`
//!   or `_checksum` key that changes or vanishes fails regardless of
//!   threshold. Wall-clock numbers are never gated here: performance
//!   is compared by `benchmark/run.sh compare`.
//!
//! A run compared against itself aligns exactly: zero differing rows,
//! zero regressions, exit 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::JsonValue;
use crate::observe::RUN_SCHEMA;

/// One aligned series whose value differs between the runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// Series key (`window[3].deliveries`, `results.smoke.decisions_exact`, …).
    pub key: String,
    /// Value in the first run.
    pub a: f64,
    /// Value in the second run.
    pub b: f64,
}

impl DeltaRow {
    /// Relative change in percent (`None` when the baseline is 0).
    pub fn pct(&self) -> Option<f64> {
        (self.a != 0.0).then(|| (self.b - self.a) / self.a * 100.0)
    }
}

/// The full alignment of two runs.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Detected alignment mode: `"jsonl"` or `"bench"`.
    pub mode: &'static str,
    /// Label of the first run (its path).
    pub a_label: String,
    /// Label of the second run (its path).
    pub b_label: String,
    /// Series present in both runs.
    pub aligned: usize,
    /// Aligned series whose values differ, in key order.
    pub rows: Vec<DeltaRow>,
    /// Series only the first run has.
    pub only_a: Vec<String>,
    /// Series only the second run has.
    pub only_b: Vec<String>,
    /// Human-readable gate violations; non-empty fails the compare.
    pub regressions: Vec<String>,
    /// The relative threshold the gates ran at, in percent.
    pub threshold_pct: f64,
}

impl CompareReport {
    /// Whether any gated metric regressed past the threshold.
    pub fn has_regressions(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Renders the report for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== compare ({}): {} vs {} ==",
            self.mode, self.a_label, self.b_label
        );
        let _ = writeln!(
            out,
            "{} aligned series; {} differ; {} only in a; {} only in b; threshold {}%",
            self.aligned,
            self.rows.len(),
            self.only_a.len(),
            self.only_b.len(),
            self.threshold_pct,
        );
        const SHOW: usize = 64;
        if !self.rows.is_empty() {
            let _ = writeln!(
                out,
                "{:<44} {:>14} {:>14} {:>9}",
                "series", "a", "b", "delta"
            );
            for row in self.rows.iter().take(SHOW) {
                let delta = row
                    .pct()
                    .map_or_else(|| "new".to_string(), |p| format!("{p:+.1}%"));
                let _ = writeln!(
                    out,
                    "{:<44} {:>14} {:>14} {:>9}",
                    row.key, row.a, row.b, delta
                );
            }
            if self.rows.len() > SHOW {
                let _ = writeln!(
                    out,
                    "... and {} more differing series",
                    self.rows.len() - SHOW
                );
            }
        }
        for (name, keys) in [("a", &self.only_a), ("b", &self.only_b)] {
            if !keys.is_empty() {
                let shown: Vec<&str> = keys.iter().take(8).map(String::as_str).collect();
                let _ = writeln!(
                    out,
                    "only in {name} ({}): {}{}",
                    keys.len(),
                    shown.join(", "),
                    if keys.len() > 8 { ", ..." } else { "" }
                );
            }
        }
        if self.regressions.is_empty() {
            let _ = writeln!(out, "verdict: OK");
        } else {
            for r in &self.regressions {
                let _ = writeln!(out, "regression: {r}");
            }
            let _ = writeln!(out, "verdict: REGRESSED");
        }
        out
    }
}

/// Compares two run exports on disk. See the module docs for the
/// formats; mixing a JSONL capture with a bench document is an error.
pub fn compare_files(a: &Path, b: &Path, threshold_pct: f64) -> Result<CompareReport, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    compare_strings(
        &read(a)?,
        &a.display().to_string(),
        &read(b)?,
        &b.display().to_string(),
        threshold_pct,
    )
}

/// [`compare_files`] over in-memory text (the testable core).
pub fn compare_strings(
    a_text: &str,
    a_label: &str,
    b_text: &str,
    b_label: &str,
    threshold_pct: f64,
) -> Result<CompareReport, String> {
    let a_doc = JsonValue::parse(a_text).ok();
    let b_doc = JsonValue::parse(b_text).ok();
    let (mode, a_series, b_series, regressions) = match (a_doc, b_doc) {
        (Some(a), Some(b)) => {
            let (mut sa, mut ea) = (BTreeMap::new(), BTreeMap::new());
            let (mut sb, mut eb) = (BTreeMap::new(), BTreeMap::new());
            flatten(&a, "", &mut sa, &mut ea);
            flatten(&b, "", &mut sb, &mut eb);
            let regressions = exact_key_regressions(&ea, &eb);
            ("bench", sa, sb, regressions)
        }
        (None, None) => {
            let sa = jsonl_series(a_text, a_label)?;
            let sb = jsonl_series(b_text, b_label)?;
            let regressions = jsonl_regressions(&sa, &sb, threshold_pct);
            ("jsonl", sa, sb, regressions)
        }
        (Some(_), None) | (None, Some(_)) => {
            return Err(format!(
                "format mismatch: one of {a_label} / {b_label} is a single JSON \
                 document, the other a JSONL capture"
            ))
        }
    };

    let mut rows = Vec::new();
    let mut only_a = Vec::new();
    let mut aligned = 0usize;
    for (key, &va) in &a_series {
        match b_series.get(key) {
            Some(&vb) => {
                aligned += 1;
                if va != vb {
                    rows.push(DeltaRow {
                        key: key.clone(),
                        a: va,
                        b: vb,
                    });
                }
            }
            None => only_a.push(key.clone()),
        }
    }
    let only_b: Vec<String> = b_series
        .keys()
        .filter(|k| !a_series.contains_key(*k))
        .cloned()
        .collect();

    Ok(CompareReport {
        mode,
        a_label: a_label.to_string(),
        b_label: b_label.to_string(),
        aligned,
        rows,
        only_a,
        only_b,
        regressions,
        threshold_pct,
    })
}

/// Flattens every numeric leaf of a JSON document to a dotted path
/// (array elements as `[i]`). Strings, booleans and nulls are dropped —
/// the diff aligns numbers. Leaves under an exactness key
/// ([`bench_exactness`]) also land in `exact` as their literal token:
/// the `f64` series cannot tell two 64-bit digests apart above 2^53.
fn flatten<'a>(
    value: &'a JsonValue,
    prefix: &str,
    out: &mut BTreeMap<String, f64>,
    exact: &mut BTreeMap<String, &'a str>,
) {
    match value {
        JsonValue::Num(token) => {
            if let Some(n) = value.as_f64() {
                out.insert(prefix.to_string(), n);
            }
            if bench_exactness(prefix) {
                exact.insert(prefix.to_string(), token);
            }
        }
        JsonValue::Obj(fields) => {
            for (k, v) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(v, &path, out, exact);
            }
        }
        JsonValue::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten(v, &format!("{prefix}[{i}]"), out, exact);
            }
        }
        _ => {}
    }
}

/// Folds one JSONL capture into keyed numeric series. Unknown line
/// types pass through silently so the harness stays forward-compatible
/// with new exporters; an unparseable line is an error.
fn jsonl_series(text: &str, label: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    let mut event_counts: BTreeMap<String, f64> = BTreeMap::new();
    let mut traces = 0.0f64;
    let mut phase_order = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = JsonValue::parse(line).map_err(|e| format!("{label}:{}: {e}", idx + 1))?;
        match v.get("type").and_then(JsonValue::as_str).unwrap_or("") {
            kind @ ("run" | "footer") => {
                let tag = v.get("schema").and_then(JsonValue::as_str);
                if tag != Some(RUN_SCHEMA) {
                    return Err(format!(
                        "{label}:{}: unsupported capture schema {tag:?} (this build reads \
                         {RUN_SCHEMA:?})",
                        idx + 1
                    ));
                }
                flatten(&v, kind, &mut out, &mut BTreeMap::new());
            }
            "event" => {
                let kind = v.get("kind").and_then(JsonValue::as_str).unwrap_or("?");
                *event_counts.entry(kind.to_string()).or_insert(0.0) += 1.0;
            }
            "trace" => traces += 1.0,
            "window" => {
                let i = v
                    .get("index")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("{label}:{}: window without index", idx + 1))?;
                flatten(&v, &format!("window[{i}]"), &mut out, &mut BTreeMap::new());
            }
            "phase" => {
                let name = v.get("phase").and_then(JsonValue::as_str).unwrap_or("?");
                let depth = v.get("depth").and_then(JsonValue::as_f64).unwrap_or(0.0);
                // Order + depth pin the key to the tree position, so a
                // reshaped call tree misaligns instead of silently
                // pairing different spans.
                let key = format!("phase[{phase_order}:{name}@{depth}]");
                flatten(&v, &key, &mut out, &mut BTreeMap::new());
                phase_order += 1;
            }
            _ => {}
        }
    }
    for (kind, count) in event_counts {
        out.insert(format!("events.{kind}"), count);
    }
    out.insert("traces".to_string(), traces);
    Ok(out)
}

/// Reads a whole-run counter from the capture's footer.
fn run_total(series: &BTreeMap<String, f64>, name: &str) -> Option<f64> {
    series.get(&format!("footer.{name}")).copied()
}

/// The whole-run counters the JSONL gates are built from. A capture
/// that *loses* one of these (truncated file, exporter drift) must not
/// sail through just because the corresponding threshold gate had
/// nothing to compare.
const GATED_COUNTERS: [&str; 4] = [
    "queries_issued",
    "queries_satisfied",
    "total_delay_secs",
    "bytes_transmitted",
];

/// The JSONL gates: deterministic outcome counters only; wall-clock
/// phase rows are never gated.
fn jsonl_regressions(
    a: &BTreeMap<String, f64>,
    b: &BTreeMap<String, f64>,
    threshold_pct: f64,
) -> Vec<String> {
    let mut out = Vec::new();
    let t = threshold_pct / 100.0;
    for name in GATED_COUNTERS {
        if run_total(a, name).is_some() && run_total(b, name).is_none() {
            out.push(format!(
                "missing gated series: {name} present in baseline but absent \
                 from candidate (truncated or incompatible capture?)"
            ));
        }
    }
    let ratio = |m: &BTreeMap<String, f64>| -> Option<f64> {
        let issued = run_total(m, "queries_issued")?;
        let satisfied = run_total(m, "queries_satisfied")?;
        (issued > 0.0).then(|| satisfied / issued)
    };
    if let (Some(ra), Some(rb)) = (ratio(a), ratio(b)) {
        if rb < ra * (1.0 - t) {
            out.push(format!(
                "success ratio fell {:.1}% ({ra:.4} -> {rb:.4})",
                (ra - rb) / ra * 100.0
            ));
        }
    }
    let delay = |m: &BTreeMap<String, f64>| -> Option<f64> {
        let total = run_total(m, "total_delay_secs")?;
        let satisfied = run_total(m, "queries_satisfied")?;
        (satisfied > 0.0).then(|| total / satisfied)
    };
    if let (Some(da), Some(db)) = (delay(a), delay(b)) {
        if da > 0.0 && db > da * (1.0 + t) {
            out.push(format!(
                "mean delay rose {:.1}% ({da:.0}s -> {db:.0}s)",
                (db - da) / da * 100.0
            ));
        }
    }
    if let (Some(ba), Some(bb)) = (
        run_total(a, "bytes_transmitted"),
        run_total(b, "bytes_transmitted"),
    ) {
        if ba > 0.0 && bb > ba * (1.0 + t) {
            out.push(format!(
                "bytes on the wire rose {:.1}% ({ba:.0} -> {bb:.0})",
                (bb - ba) / ba * 100.0
            ));
        }
    }
    out
}

/// Keys carrying a determinism contract rather than a performance
/// number: `_exact` counts and `_checksum` digests must reproduce
/// bit-identically, so any drift — or the key vanishing from the
/// candidate — is a regression regardless of threshold.
fn bench_exactness(key: &str) -> bool {
    let last = key.rsplit('.').next().unwrap_or(key);
    last.ends_with("_exact") || last.ends_with("_checksum")
}

/// The exact-key gate. Exact keys are integers written by the one
/// writer, so the literal tokens themselves must match — all 64 bits of
/// a digest, not the 53 an `f64` keeps.
fn exact_key_regressions(a: &BTreeMap<String, &str>, b: &BTreeMap<String, &str>) -> Vec<String> {
    let mut out = Vec::new();
    for (key, va) in a {
        match b.get(key) {
            None => out.push(format!(
                "missing exact key: {key} present in baseline but absent from candidate"
            )),
            Some(vb) if vb != va => {
                out.push(format!("exact key {key} changed ({va} -> {vb})"));
            }
            Some(_) => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{observe_any, write_jsonl};

    fn capture(seed: u64) -> String {
        let run = observe_any("fig10", 0.02, seed).expect("known target");
        let mut buf = Vec::new();
        write_jsonl(&run, &mut buf).expect("in-memory write");
        String::from_utf8(buf).expect("utf8")
    }

    #[test]
    fn run_against_itself_is_clean() {
        let a = capture(7);
        let report = compare_strings(&a, "a", &a, "b", 5.0).expect("same format");
        assert_eq!(report.mode, "jsonl");
        assert!(report.aligned > 10, "capture produced series");
        assert!(report.rows.is_empty(), "{:?}", report.rows);
        assert!(report.only_a.is_empty() && report.only_b.is_empty());
        assert!(!report.has_regressions());
        assert!(report.render().contains("verdict: OK"));
    }

    #[test]
    fn different_seeds_produce_window_deltas() {
        let report = compare_strings(&capture(7), "a", &capture(8), "b", 5.0).expect("same format");
        assert!(!report.rows.is_empty(), "seeds diverge somewhere");
        assert!(
            report.rows.iter().any(|r| r.key.starts_with("window[")),
            "no per-window delta in {:?}",
            report.rows
        );
        assert!(report.render().contains("window["));
    }

    #[test]
    fn success_ratio_drop_is_gated() {
        let a = "{\"type\":\"run\",\"schema\":\"dtn-observe/3\",\"queries_issued\":100,\"queries_satisfied\":80,\"total_delay_secs\":800}\n{\"type\":\"footer\",\"schema\":\"dtn-observe/3\",\"queries_issued\":100,\"queries_satisfied\":80,\"total_delay_secs\":800,\"bytes_transmitted\":1000}\n";
        let b = "{\"type\":\"run\",\"schema\":\"dtn-observe/3\",\"queries_issued\":100,\"queries_satisfied\":60,\"total_delay_secs\":800}\n{\"type\":\"footer\",\"schema\":\"dtn-observe/3\",\"queries_issued\":100,\"queries_satisfied\":60,\"total_delay_secs\":800,\"bytes_transmitted\":1000}\n";
        let report = compare_strings(a, "a", b, "b", 5.0).expect("same format");
        assert!(report.has_regressions());
        assert!(report.regressions[0].contains("success ratio"));
        // The same drop passes under a liberal threshold.
        let loose = compare_strings(a, "a", b, "b", 50.0).expect("same format");
        assert!(!loose.has_regressions());
        // And the improvement direction never gates.
        let gain = compare_strings(b, "b", a, "a", 5.0).expect("same format");
        assert!(!gain.has_regressions());
    }

    #[test]
    fn exact_keys_gate_on_any_change_and_on_loss() {
        let a = "{\"results\": {\"serve\": {\"decisions_exact\": 400, \"decision_checksum\": 123456, \"p99_service_ns\": 5000}}}";
        // Threshold-sized drift in an `_exact` key still regresses.
        let drifted = "{\"results\": {\"serve\": {\"decisions_exact\": 401, \"decision_checksum\": 123456, \"p99_service_ns\": 5000}}}";
        let report = compare_strings(a, "a", drifted, "b", 50.0).expect("bench mode");
        assert!(report.has_regressions(), "{report:?}");
        assert!(report.regressions[0].contains("decisions_exact"));
        // A checksum flip regresses even though the key has no
        // performance direction.
        let flipped = "{\"results\": {\"serve\": {\"decisions_exact\": 400, \"decision_checksum\": 999, \"p99_service_ns\": 5000}}}";
        let report = compare_strings(a, "a", flipped, "b", 50.0).expect("bench mode");
        assert!(report.has_regressions(), "{report:?}");
        assert!(report.regressions[0].contains("decision_checksum"));
        // Losing the key entirely regresses too (a plain perf key would
        // just be skipped).
        let lost = "{\"results\": {\"serve\": {\"p99_service_ns\": 5000}}}";
        let report = compare_strings(a, "a", lost, "b", 50.0).expect("bench mode");
        assert!(
            report
                .regressions
                .iter()
                .any(|r| r.contains("missing exact key") && r.contains("decisions_exact")),
            "{:?}",
            report.regressions
        );
        // Identical documents stay clean.
        let clean = compare_strings(a, "a", a, "b", 50.0).expect("bench mode");
        assert!(!clean.has_regressions(), "{clean:?}");
        // A key outside the contract is reported, never gated.
        let slower = a.replace("5000", "9000");
        let report = compare_strings(a, "a", &slower, "b", 5.0).expect("bench mode");
        assert_eq!(report.mode, "bench");
        assert_eq!(report.rows.len(), 1, "{:?}", report.rows);
        assert!(!report.has_regressions(), "{report:?}");
    }

    #[test]
    fn mixed_formats_are_an_error() {
        let bench = "{\"results\": {\"x\": 1}}";
        let jsonl =
            "{\"type\":\"run\",\"queries_issued\":1}\n{\"type\":\"footer\",\"schema\":\"dtn-observe/3\",\"queries_issued\":1}\n";
        assert!(compare_strings(bench, "a", jsonl, "b", 5.0).is_err());
    }

    #[test]
    fn truncated_capture_missing_gated_series_fails() {
        let full = "{\"type\":\"run\",\"schema\":\"dtn-observe/3\",\"queries_issued\":100,\"queries_satisfied\":80,\"total_delay_secs\":800}\n{\"type\":\"footer\",\"schema\":\"dtn-observe/3\",\"queries_issued\":100,\"queries_satisfied\":80,\"total_delay_secs\":800,\"bytes_transmitted\":1000}\n";
        // The candidate capture was cut off before its footer, the only
        // home of the whole-run totals: no threshold gate has anything
        // to compare. Before the missing-series gate this compared
        // clean.
        let truncated = "{\"type\":\"run\",\"schema\":\"dtn-observe/3\",\"seed\":7}\n{\"type\":\"event\",\"kind\":\"x\",\"at\":1}\n";
        let report = compare_strings(full, "a", truncated, "b", 5.0).expect("same format");
        assert!(report.has_regressions(), "{report:?}");
        assert!(
            report
                .regressions
                .iter()
                .any(|r| r.contains("missing gated series") && r.contains("bytes_transmitted")),
            "{:?}",
            report.regressions
        );
        assert!(report.render().contains("verdict: REGRESSED"));
        // Absent on both sides is a truncated pair, not a loss.
        let pair = compare_strings(truncated, "a", truncated, "b", 5.0).expect("same format");
        assert!(!pair.has_regressions(), "{:?}", pair.regressions);
        // A series the candidate *gained* never gates either.
        let gained = compare_strings(truncated, "a", full, "b", 5.0).expect("same format");
        assert!(!gained.has_regressions(), "{:?}", gained.regressions);
    }

    #[test]
    fn any_capture_tag_but_the_current_one_is_refused() {
        let current = capture(7);
        assert!(current.starts_with("{\"type\":\"run\",\"schema\":\"dtn-observe/3\""));
        for stale in ["dtn-observe/2", "dtn-observe/9", "dtn-telemetry/2"] {
            // A stale header is refused…
            let header = current.replacen(RUN_SCHEMA, stale, 1);
            let err = compare_strings(&current, "a", &header, "b", 5.0).unwrap_err();
            assert!(err.contains(stale) && err.contains("b:1"), "{err}");
            // …and so is a stale footer under a current header.
            let at = current.rfind(RUN_SCHEMA).expect("footer tag");
            let mut footer = current.clone();
            footer.replace_range(at..at + RUN_SCHEMA.len(), stale);
            let err = compare_strings(&footer, "a", &current, "b", 5.0).unwrap_err();
            assert!(err.contains(stale) && err.contains("a:"), "{err}");
        }
        // A header with no tag at all (`dtn-observe/1`) is refused too.
        let untagged =
            "{\"type\":\"run\",\"queries_issued\":50}\n{\"type\":\"event\",\"kind\":\"x\",\"at\":1}\n";
        assert!(compare_strings(untagged, "a", untagged, "b", 5.0).is_err());
    }

    #[test]
    fn checksums_differing_in_the_last_bit_fail_the_exact_gate() {
        // 14485680915734382006 > 2^53 (ulp 2048): as f64 series both
        // digests are the same number, so the old gate passed silently.
        let doc = |checksum: u64| {
            JsonValue::object()
                .with(
                    "results",
                    JsonValue::object().with(
                        "smoke",
                        JsonValue::object()
                            .with("decisions_exact", 2000u64)
                            .with("decision_checksum", checksum),
                    ),
                )
                .pretty()
        };
        let a = doc(14_485_680_915_734_382_006);
        let b = doc(14_485_680_915_734_382_007);
        let report = compare_strings(&a, "a", &b, "b", 50.0).expect("bench mode");
        assert_eq!(
            report.regressions,
            ["exact key results.smoke.decision_checksum changed \
              (14485680915734382006 -> 14485680915734382007)"]
        );
        let clean = compare_strings(&a, "a", &a, "b", 50.0).expect("bench mode");
        assert!(!clean.has_regressions(), "{clean:?}");
    }
}
