//! Simulation metrics — the three evaluation metrics of §VI plus
//! bookkeeping counters.

use dtn_core::time::{Duration, Time};

/// One periodic snapshot of global cache occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSample {
    /// When the sample was taken.
    pub at: Time,
    /// Total cached copies across all nodes (one item cached at five
    /// nodes counts five).
    pub copies: u64,
    /// Distinct live data items cached anywhere.
    pub distinct: u64,
    /// Total cached bytes across all nodes.
    pub bytes: u64,
}

/// Aggregated results of one simulation run.
///
/// The paper's three metrics map to [`success_ratio`](Metrics::success_ratio)
/// ("successful ratio"), [`avg_delay`](Metrics::avg_delay) ("data access
/// delay") and [`avg_copies_per_item`](Metrics::avg_copies_per_item)
/// ("caching overhead").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Queries issued during the measured phase.
    pub queries_issued: u64,
    /// Queries satisfied before their time constraint.
    pub queries_satisfied: u64,
    /// Sum of response delays over satisfied queries, in seconds.
    pub total_delay_secs: u64,
    /// Data items generated.
    pub data_generated: u64,
    /// Bytes successfully transmitted over contacts.
    pub bytes_transmitted: u64,
    /// Transmissions rejected because the contact's capacity was spent.
    pub transfers_rejected: u64,
    /// Cache-replacement operations (items moved/swapped between caches).
    pub replacement_ops: u64,
    /// Deliveries for queries that were already satisfied.
    pub duplicate_deliveries: u64,
    /// Deliveries that arrived after the query expired.
    pub late_deliveries: u64,
    /// Contacts dropped by fault injection
    /// (`SimConfig::contact_loss_probability`).
    pub contacts_lost: u64,
    /// Periodic cache-occupancy samples.
    pub samples: Vec<CacheSample>,
}

impl Metrics {
    /// Fraction of issued queries satisfied in time; 0 if none issued.
    pub fn success_ratio(&self) -> f64 {
        if self.queries_issued == 0 {
            0.0
        } else {
            self.queries_satisfied as f64 / self.queries_issued as f64
        }
    }

    /// Mean response delay over satisfied queries, floored to whole
    /// seconds by the `Duration` representation. Prefer
    /// [`avg_delay_hours`](Metrics::avg_delay_hours) for plotting.
    pub fn avg_delay(&self) -> Duration {
        match self.total_delay_secs.checked_div(self.queries_satisfied) {
            None => Duration::ZERO,
            Some(mean) => Duration(mean),
        }
    }

    /// Exact mean response delay in fractional seconds
    /// (`total_delay_secs / queries_satisfied`, no integer truncation);
    /// 0 if no query was satisfied. The delay *distribution* is read off
    /// a recording probe's query traces (`bench::observe::distributions`).
    fn avg_delay_secs_f64(&self) -> f64 {
        if self.queries_satisfied == 0 {
            0.0
        } else {
            self.total_delay_secs as f64 / self.queries_satisfied as f64
        }
    }

    /// Mean response delay in fractional hours (the unit of Fig. 10–13).
    pub fn avg_delay_hours(&self) -> f64 {
        self.avg_delay_secs_f64() / 3600.0
    }

    /// Mean cached copies per distinct live item, averaged over samples
    /// that saw at least one cached item — the "caching overhead" of
    /// Fig. 10(c)/11(c)/13(c).
    pub fn avg_copies_per_item(&self) -> f64 {
        let ratios: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.distinct > 0)
            .map(|s| s.copies as f64 / s.distinct as f64)
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    }

    /// Bytes transmitted per satisfied query — the network cost of one
    /// successful data access (§V-C's "wasted bandwidth" shows up
    /// here). 0 if nothing was satisfied.
    pub fn bytes_per_satisfied_query(&self) -> f64 {
        if self.queries_satisfied == 0 {
            0.0
        } else {
            self.bytes_transmitted as f64 / self.queries_satisfied as f64
        }
    }

    /// Mean replacement operations per generated item — the
    /// "cache replacement overhead" of Fig. 12(c).
    pub fn avg_replacements_per_item(&self) -> f64 {
        if self.data_generated == 0 {
            0.0
        } else {
            self.replacement_ops as f64 / self.data_generated as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics_are_zero() {
        let m = Metrics::default();
        assert_eq!(m.success_ratio(), 0.0);
        assert_eq!(m.avg_delay(), Duration::ZERO);
        assert_eq!(m.avg_delay_hours(), 0.0);
        assert_eq!(m.avg_copies_per_item(), 0.0);
        assert_eq!(m.avg_replacements_per_item(), 0.0);
    }

    #[test]
    fn ratios_compute_correctly() {
        let m = Metrics {
            queries_issued: 10,
            queries_satisfied: 4,
            total_delay_secs: 4 * 7200,
            data_generated: 8,
            replacement_ops: 16,
            ..Metrics::default()
        };
        assert!((m.success_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(m.avg_delay(), Duration::hours(2));
        assert!((m.avg_delay_hours() - 2.0).abs() < 1e-12);
        assert!((m.avg_replacements_per_item() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn avg_delay_secs_f64_is_not_truncated() {
        let m = Metrics {
            queries_satisfied: 3,
            total_delay_secs: 10, // 3.333… s — `avg_delay()` floors to 3 s
            ..Metrics::default()
        };
        assert_eq!(m.avg_delay(), Duration(3));
        assert!((m.avg_delay_secs_f64() - 10.0 / 3.0).abs() < 1e-12);
        assert!((m.avg_delay_hours() - 10.0 / 3.0 / 3600.0).abs() < 1e-15);
    }

    #[test]
    fn copies_per_item_averages_nonempty_samples() {
        let m = Metrics {
            samples: vec![
                CacheSample {
                    at: Time(0),
                    copies: 10,
                    distinct: 5,
                    bytes: 0,
                },
                CacheSample {
                    at: Time(1),
                    copies: 0,
                    distinct: 0,
                    bytes: 0,
                },
                CacheSample {
                    at: Time(2),
                    copies: 12,
                    distinct: 3,
                    bytes: 0,
                },
            ],
            ..Metrics::default()
        };
        // (2 + 4) / 2 samples with data
        assert!((m.avg_copies_per_item() - 3.0).abs() < 1e-12);
    }
}
