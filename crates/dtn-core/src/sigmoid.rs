//! Probabilistic query-response function (Eq. 4 of the paper).
//!
//! When a caching node cannot estimate its delivery probability to the
//! requester (it only keeps paths to the central nodes), it decides
//! whether to return cached data using a sigmoid of the *remaining* query
//! time `t = T_q − t₀`:
//!
//! ```text
//! p_R(t) = k₁ / (1 + e^{−k₂·t})
//! k₁ = 2·p_min,   k₂ = (1/T_q)·ln( p_max / (2·p_min − p_max) )
//! ```
//!
//! with user parameters `p_max ∈ (0, 1]` and `p_min ∈ (p_max/2, p_max)`,
//! so that `p_R(0) = p_min` and `p_R(T_q) = p_max`: the more time remains,
//! the more likely the (possibly redundant) copy is sent back.

use crate::error::CoreError;
use crate::time::Duration;

/// The sigmoid response-probability function, pre-validated.
///
/// # Example
///
/// ```
/// use dtn_core::sigmoid::ResponseFunction;
/// use dtn_core::time::Duration;
///
/// // The paper's Fig. 7 parameters.
/// let f = ResponseFunction::new(0.45, 0.8, Duration::hours(10))?;
/// assert!((f.probability(Duration::ZERO) - 0.45).abs() < 1e-9);
/// assert!((f.probability(Duration::hours(10)) - 0.8).abs() < 1e-9);
/// # Ok::<(), dtn_core::error::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseFunction {
    k1: f64,
    k2: f64,
    p_min: f64,
    p_max: f64,
    query_constraint: Duration,
}

impl ResponseFunction {
    /// Builds the response function from the minimum/maximum response
    /// probabilities and the query time constraint `T_q`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] unless
    /// `0 < p_max ≤ 1`, `p_max/2 < p_min < p_max`, and `T_q > 0`.
    pub fn new(p_min: f64, p_max: f64, query_constraint: Duration) -> Result<Self, CoreError> {
        if !(p_max > 0.0 && p_max <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "p_max",
                reason: format!("must lie in (0, 1], got {p_max}"),
            });
        }
        if !(p_min > p_max / 2.0 && p_min < p_max) {
            return Err(CoreError::InvalidParameter {
                name: "p_min",
                reason: format!(
                    "must lie in (p_max/2, p_max) = ({}, {p_max}), got {p_min}",
                    p_max / 2.0
                ),
            });
        }
        if query_constraint == Duration::ZERO {
            return Err(CoreError::InvalidParameter {
                name: "query_constraint",
                reason: "must be positive".into(),
            });
        }
        let k1 = 2.0 * p_min;
        let k2 = (p_max / (2.0 * p_min - p_max)).ln() / query_constraint.as_secs_f64();
        Ok(ResponseFunction {
            k1,
            k2,
            p_min,
            p_max,
            query_constraint,
        })
    }

    /// The response probability for `remaining` time until the query
    /// expires. Clamped to `[p_min, p_max]` outside the `[0, T_q]` domain.
    pub fn probability(&self, remaining: Duration) -> f64 {
        let t = remaining
            .as_secs_f64()
            .min(self.query_constraint.as_secs_f64());
        (self.k1 / (1.0 + (-self.k2 * t).exp())).clamp(self.p_min, self.p_max)
    }

    /// The configured minimum response probability `p_R(0)`.
    pub fn p_min(&self) -> f64 {
        self.p_min
    }

    /// The configured maximum response probability `p_R(T_q)`.
    pub fn p_max(&self) -> f64 {
        self.p_max
    }

    /// The query time constraint `T_q`.
    pub fn query_constraint(&self) -> Duration {
        self.query_constraint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_fig7() -> ResponseFunction {
        ResponseFunction::new(0.45, 0.8, Duration::hours(10)).expect("valid paper parameters")
    }

    #[test]
    fn endpoints_match_parameters() {
        let f = paper_fig7();
        assert!((f.probability(Duration::ZERO) - 0.45).abs() < 1e-9);
        assert!((f.probability(Duration::hours(10)) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn monotone_increasing_in_remaining_time() {
        let f = paper_fig7();
        let mut prev = 0.0;
        for h in 0..=10 {
            let p = f.probability(Duration::hours(h));
            assert!(p >= prev, "h={h}: {p} < {prev}");
            prev = p;
        }
    }

    #[test]
    fn clamped_beyond_constraint() {
        let f = paper_fig7();
        assert_eq!(f.probability(Duration::hours(20)), f.p_max());
    }

    #[test]
    fn accessors_roundtrip() {
        let f = paper_fig7();
        assert_eq!(f.p_min(), 0.45);
        assert_eq!(f.p_max(), 0.8);
        assert_eq!(f.query_constraint(), Duration::hours(10));
    }

    #[test]
    fn rejects_p_min_below_half_p_max() {
        let err = ResponseFunction::new(0.3, 0.8, Duration::hours(1)).unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidParameter { name: "p_min", .. }
        ));
    }

    #[test]
    fn rejects_p_min_at_or_above_p_max() {
        assert!(ResponseFunction::new(0.8, 0.8, Duration::hours(1)).is_err());
        assert!(ResponseFunction::new(0.9, 0.8, Duration::hours(1)).is_err());
    }

    #[test]
    fn rejects_bad_p_max() {
        assert!(ResponseFunction::new(0.45, 0.0, Duration::hours(1)).is_err());
        assert!(ResponseFunction::new(0.45, 1.2, Duration::hours(1)).is_err());
    }

    #[test]
    fn rejects_zero_constraint() {
        assert!(ResponseFunction::new(0.45, 0.8, Duration::ZERO).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn probability_always_within_bounds(
                p_max in 0.1f64..1.0,
                frac in 0.51f64..0.99,
                tq_secs in 60u64..1_000_000,
                t_secs in 0u64..2_000_000,
            ) {
                let p_min = p_max * frac;
                let f = ResponseFunction::new(p_min, p_max, Duration(tq_secs))
                    .expect("parameters constructed to be valid");
                let p = f.probability(Duration(t_secs));
                prop_assert!(p >= p_min - 1e-12 && p <= p_max + 1e-12, "p={p}");
            }
        }
    }
}
