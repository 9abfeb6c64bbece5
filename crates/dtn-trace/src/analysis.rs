//! Inter-contact time analysis.
//!
//! The network model (§III-B of the paper) assumes pairwise
//! inter-contact times are exponentially distributed, citing the
//! empirical analyses of \[2\]\[5\]\[19\]. This module lets users check
//! that assumption on any [`ContactTrace`] — real or synthetic: extract
//! per-pair or aggregate inter-contact samples, fit an exponential by
//! maximum likelihood, and measure how well the empirical tail matches
//! (an exponential CCDF is a straight line in log space, so the R² of
//! the log-CCDF regression is a natural goodness score).

use dtn_core::ids::NodeId;
use dtn_core::time::Duration;

use crate::trace::ContactTrace;

/// Pools the inter-contact times of every pair that met at least twice.
pub fn aggregate_intercontact_times(trace: &ContactTrace) -> Vec<Duration> {
    use std::collections::HashMap;
    let mut last_end: HashMap<(NodeId, NodeId), dtn_core::time::Time> = HashMap::new();
    let mut gaps = Vec::new();
    for c in trace.contacts() {
        let key = (c.a, c.b);
        if let Some(prev_end) = last_end.get(&key) {
            gaps.push(c.start.saturating_since(*prev_end));
        }
        let entry = last_end.entry(key).or_insert(c.end);
        *entry = (*entry).max(c.end);
    }
    gaps
}

/// Empirical complementary CDF of a sample set: `(t, P(X > t))` at each
/// distinct sample value, ascending in `t`.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn ccdf(samples: &[Duration]) -> Vec<(f64, f64)> {
    assert!(!samples.is_empty(), "CCDF of an empty sample set");
    let mut secs: Vec<u64> = samples.iter().map(|d| d.as_secs()).collect();
    secs.sort_unstable();
    let n = secs.len() as f64;
    let mut out = Vec::new();
    let mut i = 0;
    while i < secs.len() {
        let v = secs[i];
        // count samples <= v
        let le = secs.partition_point(|&x| x <= v);
        let p_gt = 1.0 - le as f64 / n;
        out.push((v as f64, p_gt));
        i = le;
    }
    out
}

/// Maximum-likelihood exponential fit of inter-contact samples, plus a
/// goodness score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialFit {
    /// Fitted rate `λ = 1 / mean` (per second).
    pub rate: f64,
    /// Sample mean in seconds.
    pub mean_secs: f64,
    /// R² of the linear regression of `ln CCDF(t)` on `t` — 1.0 for a
    /// perfect exponential tail.
    pub log_ccdf_r2: f64,
    /// Number of samples fitted.
    pub samples: usize,
}

/// Fits an exponential distribution to the samples.
///
/// Returns `None` when there are fewer than 3 samples or the mean is
/// zero (all gaps degenerate) — too little information to fit.
///
/// # Example
///
/// ```
/// use dtn_core::time::Duration;
/// use dtn_trace::analysis::fit_exponential;
///
/// // A geometric-ish spread of gaps, roughly exponential.
/// let gaps: Vec<Duration> = (1..200u64).map(|i| Duration(i * 7 % 997 + 1)).collect();
/// let fit = fit_exponential(&gaps).unwrap();
/// assert!(fit.rate > 0.0);
/// assert!(fit.samples == gaps.len());
/// ```
pub fn fit_exponential(samples: &[Duration]) -> Option<ExponentialFit> {
    if samples.len() < 3 {
        return None;
    }
    let mean_secs = samples.iter().map(|d| d.as_secs_f64()).sum::<f64>() / samples.len() as f64;
    if mean_secs <= 0.0 {
        return None;
    }
    let rate = 1.0 / mean_secs;

    // Regression of ln CCDF(t) on t over the non-degenerate points.
    let points: Vec<(f64, f64)> = ccdf(samples)
        .into_iter()
        .filter(|&(_, p)| p > 0.0)
        .map(|(t, p)| (t, p.ln()))
        .collect();
    let r2 = if points.len() >= 2 {
        linear_r2(&points)
    } else {
        1.0
    };
    Some(ExponentialFit {
        rate,
        mean_secs,
        log_ccdf_r2: r2,
        samples: samples.len(),
    })
}

/// R² of the ordinary least-squares line through `points`.
fn linear_r2(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for &(x, y) in points {
        sxy += (x - mean_x) * (y - mean_y);
        sxx += (x - mean_x) * (x - mean_x);
        syy += (y - mean_y) * (y - mean_y);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 1.0; // degenerate: a single x or constant y fits exactly
    }
    (sxy * sxy) / (sxx * syy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticTraceBuilder;
    use dtn_core::time::Time;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn aggregate_pools_all_pairs() {
        use crate::trace::Contact;
        let t = ContactTrace::new(
            3,
            vec![
                Contact::new(NodeId(0), NodeId(1), Time(0), Time(10)),
                Contact::new(NodeId(0), NodeId(1), Time(30), Time(40)),
                Contact::new(NodeId(1), NodeId(2), Time(0), Time(5)),
                Contact::new(NodeId(1), NodeId(2), Time(105), Time(110)),
            ],
            Duration(200),
        );
        let mut gaps = aggregate_intercontact_times(&t);
        gaps.sort();
        assert_eq!(gaps, vec![Duration(20), Duration(100)]);
    }

    #[test]
    fn ccdf_is_monotone_decreasing_from_below_one() {
        let samples: Vec<Duration> = vec![10, 20, 20, 30, 50].into_iter().map(Duration).collect();
        let c = ccdf(&samples);
        assert!(c[0].1 < 1.0);
        for w in c.windows(2) {
            assert!(w[1].0 > w[0].0);
            assert!(w[1].1 <= w[0].1);
        }
        assert_eq!(c.last().unwrap().1, 0.0);
    }

    #[test]
    fn exponential_samples_fit_well() {
        let mut rng = StdRng::seed_from_u64(3);
        let rate = 1e-3;
        let samples: Vec<Duration> = (0..2000)
            .map(|_| {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                Duration((-u.ln() / rate) as u64)
            })
            .collect();
        let fit = fit_exponential(&samples).unwrap();
        assert!((fit.rate - rate).abs() < 0.15 * rate, "rate {}", fit.rate);
        assert!(fit.log_ccdf_r2 > 0.95, "r2 {}", fit.log_ccdf_r2);
    }

    #[test]
    fn uniform_samples_fit_poorly() {
        // A uniform distribution's log-CCDF is strongly curved.
        let samples: Vec<Duration> = (1..=2000u64).map(Duration).collect();
        let fit = fit_exponential(&samples).unwrap();
        assert!(fit.log_ccdf_r2 < 0.9, "r2 {}", fit.log_ccdf_r2);
    }

    #[test]
    fn too_few_samples_is_none() {
        assert!(fit_exponential(&[Duration(5), Duration(6)]).is_none());
        assert!(fit_exponential(&[]).is_none());
        assert!(fit_exponential(&[Duration(0), Duration(0), Duration(0)]).is_none());
    }

    #[test]
    fn synthetic_traces_have_exponential_intercontact_times() {
        // The generator emits Poisson contact processes (§III-B), so the
        // pooled per-pair gaps must look exponential.
        let trace = SyntheticTraceBuilder::new(15)
            .duration(Duration::days(4))
            .target_contacts(8_000)
            .edge_density(1.0)
            .activity_sigma(0.0) // homogeneous: pooled gaps stay exponential
            .heterogeneity(100.0) // near-degenerate Pareto → equal weights
            .seed(5)
            .build();
        let gaps = aggregate_intercontact_times(&trace);
        let fit = fit_exponential(&gaps).expect("plenty of samples");
        assert!(fit.log_ccdf_r2 > 0.9, "r2 {}", fit.log_ccdf_r2);
    }
}
