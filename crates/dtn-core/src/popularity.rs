//! Per-item data popularity estimation (Eq. 5–6 of the paper).
//!
//! The occurrences of requests to a data item are modelled as a Poisson
//! process whose rate is estimated from the last `k` requests observed in
//! `[t₁, t_k]`: `λ_d = k / (t_k − t₁)`. The item's *popularity* is the
//! probability that it is requested at least once more before it expires:
//!
//! ```text
//! w_i = 1 − e^{−λ_d · Δ}
//! ```
//!
//! The paper's Eq. (6) writes the exponent as `t_e − t₁`; since the prose
//! defines `w_i` as "the probability that this data will be requested
//! again **in the future** before the data expires", we take `Δ` as the
//! remaining lifetime `t_e − now` (using `t_e − t₁` would count time that
//! has already passed). This matches the prose and keeps `w_i = 0` for
//! expired data.
//!
//! The estimator only stores the first/last request times and a count —
//! the "two time values" of negligible space overhead the paper promises.

use crate::time::Time;

/// Poisson estimator of a data item's request popularity.
///
/// # Example
///
/// ```
/// use dtn_core::popularity::PopularityEstimator;
/// use dtn_core::time::Time;
///
/// let mut est = PopularityEstimator::new();
/// est.record_request(Time(100));
/// est.record_request(Time(200));
/// // Two requests 100 s apart → λ_d = 0.02/s; plenty of lifetime left
/// // → near-certain to be requested again.
/// let w = est.popularity(Time(250), Time(10_000));
/// assert!(w > 0.99);
/// // An expired item is never requested again.
/// assert_eq!(est.popularity(Time(10_001), Time(10_000)), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PopularityEstimator {
    first_request: Option<Time>,
    last_request: Option<Time>,
    requests: u64,
}

impl PopularityEstimator {
    /// Creates an estimator that has seen no requests and uses the whole
    /// request history (the "two time values" variant of the paper).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request to the item at time `at`.
    pub fn record_request(&mut self, at: Time) {
        if self.first_request.is_none() {
            self.first_request = Some(at);
        }
        self.last_request = Some(self.last_request.map_or(at, |t| t.max(at)));
        self.requests += 1;
    }

    /// The estimated request rate `λ_d` (requests per second), or `None`
    /// if fewer than two requests (or zero elapsed time) were observed.
    fn request_rate(&self) -> Option<f64> {
        let (first, last) = (self.first_request?, self.last_request?);
        if self.requests < 2 || last <= first {
            return None;
        }
        Some(self.requests as f64 / (last - first).as_secs_f64())
    }

    /// The popularity `w_i`: probability of at least one more request
    /// before the item expires at `expires_at`, seen from `now`.
    ///
    /// Returns 0 for expired items and for items never requested ("for
    /// newly created data, the utility value will initially be low since
    /// the data has not yet been requested" — footnote 3 of the paper).
    /// A single observed request yields a small non-zero prior based on
    /// the request having arrived within the item's elapsed lifetime.
    pub fn popularity(&self, now: Time, expires_at: Time) -> f64 {
        if now >= expires_at {
            return 0.0;
        }
        let remaining = (expires_at - now).as_secs_f64();
        match self.request_rate() {
            Some(rate) => 1.0 - (-rate * remaining).exp(),
            None => match (self.requests, self.first_request) {
                // One request at time t₁: crude prior λ ≈ 1/(now − t₁).
                (1, Some(t1)) if now > t1 => {
                    let rate = 1.0 / (now - t1).as_secs_f64();
                    1.0 - (-rate * remaining).exp()
                }
                _ => 0.0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unrequested_data_has_zero_popularity() {
        let est = PopularityEstimator::new();
        assert_eq!(est.popularity(Time(10), Time(100)), 0.0);
        assert_eq!(est.request_rate(), None);
    }

    #[test]
    fn expired_data_has_zero_popularity() {
        let mut est = PopularityEstimator::new();
        est.record_request(Time(10));
        est.record_request(Time(20));
        assert_eq!(est.popularity(Time(100), Time(100)), 0.0);
        assert_eq!(est.popularity(Time(150), Time(100)), 0.0);
    }

    #[test]
    fn rate_is_count_over_span() {
        let mut est = PopularityEstimator::new();
        est.record_request(Time(100));
        est.record_request(Time(200));
        est.record_request(Time(300));
        // 3 requests over 200 s
        assert_eq!(est.request_rate(), Some(0.015));
        assert_eq!(est.requests, 3);
    }

    #[test]
    fn more_frequent_requests_mean_higher_popularity() {
        let mut hot = PopularityEstimator::new();
        hot.record_request(Time(0));
        hot.record_request(Time(10));
        let mut cold = PopularityEstimator::new();
        cold.record_request(Time(0));
        cold.record_request(Time(1000));
        let (now, exp) = (Time(1000), Time(1500));
        assert!(hot.popularity(now, exp) > cold.popularity(now, exp));
    }

    #[test]
    fn longer_remaining_lifetime_means_higher_popularity() {
        let mut est = PopularityEstimator::new();
        est.record_request(Time(0));
        est.record_request(Time(500));
        let now = Time(600);
        assert!(est.popularity(now, Time(10_000)) > est.popularity(now, Time(700)));
    }

    #[test]
    fn single_request_gives_small_nonzero_prior() {
        let mut est = PopularityEstimator::new();
        est.record_request(Time(100));
        let w = est.popularity(Time(1100), Time(1200));
        assert!(w > 0.0 && w < 0.2, "prior was {w}");
    }

    #[test]
    fn out_of_order_requests_do_not_panic() {
        let mut est = PopularityEstimator::new();
        est.record_request(Time(500));
        est.record_request(Time(100)); // late-arriving record
                                       // first stays 500, last stays 500; rate undefined → prior path.
        assert!(est.popularity(Time(600), Time(1000)) >= 0.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn popularity_is_probability(
                times in prop::collection::vec(0u64..1_000_000, 0..20),
                now in 0u64..2_000_000,
                expiry in 0u64..2_000_000,
            ) {
                let mut est = PopularityEstimator::new();
                for t in times {
                    est.record_request(Time(t));
                }
                let w = est.popularity(Time(now), Time(expiry));
                prop_assert!((0.0..=1.0).contains(&w), "w={w}");
            }
        }
    }
}
