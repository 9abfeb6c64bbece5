//! Trace statistics (Table I), NCL-metric distributions (Fig. 4), and
//! inter-contact tail diagnostics for the pluggable contact processes.

use std::fmt;

use dtn_core::graph::CsrGraph;
use dtn_core::ncl::{all_metrics, CentralityScore};
use dtn_core::time::{Duration, Time};

use crate::trace::ContactTrace;

/// Summary statistics of a contact trace — the columns of the paper's
/// Table I.
///
/// # Example
///
/// ```
/// use dtn_trace::{stats::TraceStats, synthetic::SyntheticTraceBuilder};
/// use dtn_core::time::Duration;
///
/// let trace = SyntheticTraceBuilder::new(10)
///     .duration(Duration::days(2))
///     .target_contacts(500)
///     .seed(3)
///     .build();
/// let stats = TraceStats::compute(&trace);
/// assert_eq!(stats.nodes, 10);
/// assert!(stats.pairwise_contact_frequency_per_day > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Number of devices.
    pub nodes: usize,
    /// Number of internal contacts.
    pub contacts: u64,
    /// Observation length in days (fractional).
    pub duration_days: f64,
    /// Mean contacts per unordered node pair per day.
    pub pairwise_contact_frequency_per_day: f64,
    /// Mean contact duration in seconds.
    pub mean_contact_duration_secs: f64,
}

impl TraceStats {
    /// Computes the statistics of a trace.
    pub fn compute(trace: &ContactTrace) -> Self {
        let nodes = trace.node_count();
        let contacts = trace.contact_count() as u64;
        let duration_days = trace.duration().as_secs_f64() / 86_400.0;
        let pairs = (nodes * (nodes - 1) / 2) as f64;
        let freq = if pairs > 0.0 && duration_days > 0.0 {
            contacts as f64 / pairs / duration_days
        } else {
            0.0
        };
        let mean_dur = if contacts > 0 {
            trace
                .contacts()
                .iter()
                .map(|c| c.duration().as_secs_f64())
                .sum::<f64>()
                / contacts as f64
        } else {
            0.0
        };
        TraceStats {
            nodes,
            contacts,
            duration_days,
            pairwise_contact_frequency_per_day: freq,
            mean_contact_duration_secs: mean_dur,
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} contacts over {:.1} days ({:.3}/pair/day, mean contact {:.0}s)",
            self.nodes,
            self.contacts,
            self.duration_days,
            self.pairwise_contact_frequency_per_day,
            self.mean_contact_duration_secs
        )
    }
}

/// The NCL selection metric of every node of a trace, sorted descending —
/// the data behind one subplot of the paper's Fig. 4.
///
/// The contact graph is built from the entire trace ("we calculate the
/// pairwise contact rates based on the cumulative contacts between each
/// pair of nodes during the entire trace", §IV-B) and weights are
/// evaluated at `horizon` seconds.
pub fn metric_distribution(trace: &ContactTrace, horizon: f64) -> Vec<CentralityScore> {
    let end = Time(trace.duration().as_secs());
    let table = trace.rate_table(end);
    let graph = CsrGraph::from_rate_table(&table, end);
    let mut scores = all_metrics(&graph, horizon);
    scores.sort_by(|a, b| {
        b.metric
            .total_cmp(&a.metric)
            .then_with(|| a.node.cmp(&b.node))
    });
    scores
}

/// Hill estimator of the power-law tail exponent α over the largest
/// `tail_fraction` of the samples: the maximum-likelihood exponent of a
/// Pareto fitted to the exceedances over the tail threshold. For a
/// process whose CCDF decays as `t^-α` the estimate recovers α; for an
/// exponential tail it grows without bound as the threshold rises.
///
/// Returns `None` with fewer than 8 positive samples or a degenerate
/// tail (all exceedances equal).
///
/// # Panics
///
/// Panics unless `tail_fraction` is in `(0, 1)`.
pub fn tail_exponent(samples: &[Duration], tail_fraction: f64) -> Option<f64> {
    assert!(
        tail_fraction > 0.0 && tail_fraction < 1.0,
        "tail fraction must be in (0, 1), got {tail_fraction}"
    );
    let mut secs: Vec<f64> = samples
        .iter()
        .map(|d| d.as_secs_f64())
        .filter(|&s| s > 0.0)
        .collect();
    if secs.len() < 8 {
        return None;
    }
    secs.sort_by(|a, b| b.total_cmp(a)); // descending
    let k = ((secs.len() as f64 * tail_fraction) as usize).clamp(2, secs.len() - 1);
    let threshold = secs[k];
    let log_sum: f64 = secs[..k].iter().map(|&x| (x / threshold).ln()).sum();
    if log_sum <= 0.0 {
        return None; // every exceedance equals the threshold
    }
    Some(k as f64 / log_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ContactProcessKind;
    use crate::synthetic::SyntheticTraceBuilder;

    fn small_trace() -> ContactTrace {
        SyntheticTraceBuilder::new(12)
            .duration(Duration::days(1))
            .target_contacts(800)
            .seed(21)
            .build()
    }

    #[test]
    fn stats_fields_are_consistent() {
        let t = small_trace();
        let s = TraceStats::compute(&t);
        assert_eq!(s.nodes, 12);
        assert_eq!(s.contacts, t.contact_count() as u64);
        assert!((s.duration_days - 1.0).abs() < 0.05);
        let pairs = 12.0 * 11.0 / 2.0;
        let expect = s.contacts as f64 / pairs / s.duration_days;
        assert!((s.pairwise_contact_frequency_per_day - expect).abs() < 1e-9);
        assert!(s.mean_contact_duration_secs > 0.0);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = TraceStats::compute(&small_trace());
        let text = s.to_string();
        assert!(text.contains("12 nodes"));
        assert!(text.contains("contacts"));
    }

    #[test]
    fn metric_distribution_is_sorted_descending() {
        let t = small_trace();
        let dist = metric_distribution(&t, 3600.0);
        assert_eq!(dist.len(), 12);
        for w in dist.windows(2) {
            assert!(w[0].metric >= w[1].metric);
        }
        for s in &dist {
            assert!((0.0..=1.0).contains(&s.metric));
        }
    }

    #[test]
    fn hill_estimator_recovers_a_known_pareto_exponent() {
        // Direct Pareto(α = 1.5) samples via inverse CDF on a uniform
        // grid — no RNG, no generator in the loop.
        let samples: Vec<Duration> = (1..20_000u64)
            .map(|i| {
                let u = i as f64 / 20_000.0;
                Duration((100.0 * u.powf(-1.0 / 1.5)) as u64)
            })
            .collect();
        let alpha = tail_exponent(&samples, 0.1).expect("plenty of samples");
        assert!((alpha - 1.5).abs() < 0.15, "hill estimate {alpha}");
    }

    /// A homogeneous-rate builder so the pooled gaps reflect the
    /// process's law and not per-pair rate heterogeneity.
    fn process_trace(kind: ContactProcessKind) -> ContactTrace {
        SyntheticTraceBuilder::new(10)
            .duration(Duration::days(60))
            .target_contacts(9_000)
            .granularity(Duration::secs(60))
            .edge_density(1.0)
            .activity_sigma(0.0)
            .heterogeneity(100.0) // near-degenerate Pareto → equal weights
            .contact_process(kind)
            .seed(8)
            .build()
    }

    #[test]
    fn generator_self_validation_poisson_tail_is_exponential() {
        let gaps = crate::analysis::aggregate_intercontact_times(&process_trace(
            ContactProcessKind::Poisson,
        ));
        let fit = crate::analysis::fit_exponential(&gaps).expect("samples");
        assert!(fit.log_ccdf_r2 > 0.9, "r2 {}", fit.log_ccdf_r2);
    }

    #[test]
    fn generator_self_validation_pareto_recovers_configured_tail() {
        let kind = ContactProcessKind::PARETO;
        let configured = kind.tail_exponent().expect("pareto has a tail");
        let gaps = crate::analysis::aggregate_intercontact_times(&process_trace(kind));
        let alpha = tail_exponent(&gaps, 0.1).expect("samples");
        // Span truncation censors the longest gaps, biasing the
        // estimate up; the configured exponent must still be visible.
        assert!(
            (alpha - configured).abs() < 0.5,
            "hill {alpha} vs configured {configured}"
        );
        // And the exponential story must fit this trace worse than the
        // Poisson reference fits its own.
        let fit = crate::analysis::fit_exponential(&gaps).expect("samples");
        assert!(fit.log_ccdf_r2 < 0.9, "pareto gaps look exponential?");
    }

    #[test]
    fn generator_self_validation_bounded_power_law_recovers_configured_tail() {
        let kind = ContactProcessKind::BOUNDED_POWER_LAW;
        let configured = kind.tail_exponent().expect("has a tail");
        let gaps = crate::analysis::aggregate_intercontact_times(&process_trace(kind));
        // Estimate in the power-law body (wide tail fraction): the
        // upper truncation piles mass at the cap, so a top-decile Hill
        // estimate would read the pile-up, not the exponent.
        let alpha = tail_exponent(&gaps, 0.5).expect("samples");
        assert!(
            (alpha - configured).abs() < 0.4,
            "hill {alpha} vs configured {configured}"
        );
    }

    #[test]
    fn generator_self_validation_lognormal_recovers_configured_sigma() {
        let ContactProcessKind::Lognormal { sigma } = ContactProcessKind::LOGNORMAL else {
            panic!("default changed");
        };
        let gaps = crate::analysis::aggregate_intercontact_times(&process_trace(
            ContactProcessKind::LOGNORMAL,
        ));
        // Gaps are lognormal by construction, so the σ of ln(gap) is
        // directly the configured parameter (contact-duration clipping
        // perturbs only the shortest gaps).
        let logs: Vec<f64> = gaps
            .iter()
            .map(|d| d.as_secs_f64())
            .filter(|&s| s > 0.0)
            .map(|s| s.ln())
            .collect();
        let n = logs.len() as f64;
        let mean = logs.iter().sum::<f64>() / n;
        let var = logs.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / n;
        let got = var.sqrt();
        assert!(
            (got - sigma).abs() < 0.25,
            "log-gap sigma {got} vs configured {sigma}"
        );
    }

    #[test]
    fn generator_self_validation_duty_cycle_concentrates_in_on_windows() {
        let ContactProcessKind::DutyCycled { period_secs, duty } = ContactProcessKind::DUTY_CYCLED
        else {
            panic!("default changed");
        };
        // A single pair: every contact start is one session start, so
        // starts folded modulo the period must fit inside one on-window
        // (the pair's phase is unknown — find the smallest circular
        // window covering all residues).
        let trace = SyntheticTraceBuilder::new(2)
            .duration(Duration::days(30))
            .target_contacts(800)
            .granularity(Duration::secs(60))
            .edge_density(1.0)
            .activity_sigma(0.0)
            .heterogeneity(100.0)
            .contact_process(ContactProcessKind::DUTY_CYCLED)
            .seed(4)
            .build();
        let mut residues: Vec<f64> = trace
            .contacts()
            .iter()
            .map(|c| c.start.as_secs() as f64 % period_secs)
            .collect();
        assert!(residues.len() > 200, "degenerate trace");
        residues.sort_by(f64::total_cmp);
        let mut largest_hole = period_secs - (residues.last().unwrap() - residues[0]);
        for w in residues.windows(2) {
            largest_hole = largest_hole.max(w[1] - w[0]);
        }
        let covering = period_secs - largest_hole;
        let on_len = duty * period_secs;
        assert!(
            covering <= on_len + 120.0,
            "session starts cover {covering:.0}s of the cycle, on-window is {on_len:.0}s"
        );
    }
}
