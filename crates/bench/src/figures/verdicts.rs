//! Grading a sweep figure's paper claims over paired seeds:
//! `experiments verdicts`.

use std::fmt::Write as _;

use super::{AveragedReport, Figure, Metric};

/// One paper claim a figure grades seed by seed: in `metric`, the entry
/// labelled `a` beats `factor` times the entry labelled `b` — two columns
/// at each row, or, when the labels name rows, two rows at each column.
/// Every scheme of a seed shares that seed's trace and workload, so the
/// two cells of a seed are a pair.
pub(super) struct Claim {
    metric: Metric,
    a: String,
    b: String,
    factor: f64,
}

pub(super) fn claim(metric: Metric, a: impl Into<String>, b: &str, factor: f64) -> Claim {
    Claim {
        metric,
        a: a.into(),
        b: b.into(),
        factor,
    }
}

/// Two-sided sign-test p of one side winning `k` of `n` paired seeds:
/// twice the chance that a fair coin gives at least `k` heads in `n`
/// tosses, at most 1.
fn sign_test(k: u32, n: u32) -> f64 {
    // P(X = i) for X ~ Binomial(n, 1/2), from P(X = 0) by the ratio
    // (n − i) / (i + 1).
    let mut pmf = 0.5f64.powi(n as i32);
    let mut tail = 0.0;
    for i in 0..=n {
        if i >= k {
            tail += pmf;
        }
        pmf *= f64::from(n - i) / f64::from(i + 1);
    }
    (2.0 * tail).min(1.0)
}

impl Figure {
    /// Grades the figure's claims on `cells` (as [`Figure::run`] returns
    /// them), as CSV: a header, then per claim and entry of the other
    /// axis the mean over seeds of the paired difference `a − factor·b`
    /// (`factor·b − a` where lower is better), the seeds won of those
    /// run, the two-sided sign-test p of the side that won more, and the
    /// verdict. A seed with equal cells counts for neither side, so
    /// "match" and "overturned" need p < 0.05 over all the seeds — at 16,
    /// 13 won or 13 lost — and anything weaker is a "tie".
    pub fn verdicts(&self, cells: &[AveragedReport]) -> String {
        let find = |axis: &super::Axis, label: &str| axis.entries.iter().position(|e| e.0 == label);
        let width = self.columns.entries.len();
        let mut out = String::from("figure,claim,at,metric,mean_diff,won,seeds,p,verdict\n");
        for claim in &self.claims {
            // The pairs of cells the claim compares, and where.
            let pairs: Vec<(&str, usize, usize)> =
                match (find(&self.columns, &claim.a), find(&self.columns, &claim.b)) {
                    (Some(a), Some(b)) => (self.rows.entries.iter().enumerate())
                        .map(|(r, (label, _))| (label.as_str(), r * width + a, r * width + b))
                        .collect(),
                    _ => {
                        let a =
                            find(&self.rows, &claim.a).expect("a claim names entries of an axis");
                        let b =
                            find(&self.rows, &claim.b).expect("a claim names entries of an axis");
                        (self.columns.entries.iter().enumerate())
                            .map(|(c, (label, _))| (label.as_str(), a * width + c, b * width + c))
                            .collect()
                    }
                };
            let metric = claim.metric;
            // "a beats b", or "a >= 1.5x b" ("<=" where lower is better);
            // a row's label after its axis's ("K = 2").
            let name = |label: &str| match find(&self.columns, label) {
                Some(_) => label.to_string(),
                None => format!("{} = {label}", self.rows.label),
            };
            let (a_name, b_name) = (name(&claim.a), name(&claim.b));
            let text = if claim.factor == 1.0 {
                format!("{a_name} beats {b_name}")
            } else {
                let factor = format!("{:.2}", claim.factor);
                let factor = factor.trim_end_matches('0').trim_end_matches('.');
                let at_least = if metric.higher_is_better() {
                    ">="
                } else {
                    "<="
                };
                format!("{a_name} {at_least} {factor}x {b_name}")
            };
            for (at, a, b) in pairs {
                let diffs: Vec<f64> = (cells[a].per_seed.iter().zip(&cells[b].per_seed))
                    .map(|(a, b)| {
                        let (a, b) = (metric.of(a), claim.factor * metric.of(b));
                        if metric.higher_is_better() {
                            a - b
                        } else {
                            b - a
                        }
                    })
                    .collect();
                let won = diffs.iter().filter(|&&d| d > 0.0).count() as u32;
                let lost = diffs.iter().filter(|&&d| d < 0.0).count() as u32;
                let p = sign_test(won.max(lost), diffs.len() as u32);
                let verdict = match (p < 0.05, won > lost) {
                    (false, _) => "tie",
                    (true, true) => "match",
                    (true, false) => "overturned",
                };
                let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
                let _ = writeln!(
                    out,
                    "{},{text},{at},{},{mean:.6},{won},{},{p:.4},{verdict}",
                    self.name,
                    metric.names().0,
                    diffs.len()
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{grid, report};
    use super::*;

    #[test]
    fn a_verdict_is_a_sign_test_over_paired_seeds() {
        assert_eq!(sign_test(16, 16), 2.0 / 65_536.0);
        assert_eq!((sign_test(0, 0), sign_test(3, 16)), (1.0, 1.0));
        assert!(sign_test(13, 16) < 0.05 && sign_test(12, 16) > 0.05);
        // NoCache reads 0.25 on every seed; Intentional reads 0.5 on the
        // first `won` of 16 seeds and 0.125 on the rest.
        let cell = |won: usize| {
            let success = |s| if s < won { 0.5 } else { 0.125 };
            AveragedReport {
                per_seed: (0..16).map(|s| report(success(s), 0.0)).collect(),
                ..report(0.0, 0.0)
            }
        };
        let flat = AveragedReport {
            per_seed: vec![report(0.25, 0.0); 16],
            ..report(0.25, 0.0)
        };
        let fig = grid(Vec::new(), vec![Metric::Success]);
        let cells = [flat.clone(), flat, cell(13), cell(12)];
        assert_eq!(
            fig.verdicts(&cells),
            "figure,claim,at,metric,mean_diff,won,seeds,p,verdict\n\
             grid,scheme = Intentional beats scheme = NoCache,1MiB,success,0.179688,13,16,0.0213,match\n\
             grid,scheme = Intentional beats scheme = NoCache,2MiB,success,0.156250,12,16,0.0768,tie\n"
        );
    }
}
