//! Delivery probability along a multi-hop opportunistic path.
//!
//! The inter-contact time of each hop `k` on an opportunistic path is
//! exponentially distributed with rate `λ_k` (§III-B of the paper), so the
//! end-to-end delay `Y = Σ X_k` is **hypoexponential**. Eq. (1)–(2) of the
//! paper give its CDF in the distinct-rate case:
//!
//! ```text
//! p(T) = Σ_k C_k · (1 − e^{−λ_k T}),   C_k = Π_{s≠k} λ_s / (λ_s − λ_k)
//! ```
//!
//! That closed form is numerically singular when two rates coincide (the
//! `λ_s − λ_k` denominators vanish) and suffers catastrophic cancellation
//! when they are merely close. This module therefore evaluates the CDF with
//! a three-way strategy:
//!
//! 1. all rates equal → exact Erlang CDF,
//! 2. all rates pairwise well-separated → the closed form above,
//! 3. otherwise → tiny deterministic perturbation of clustered rates,
//!    which bounds the error by `O(ε · r²)` while restoring case 2.
//!
//! The workhorse is the incremental [`Accumulator`]: it maintains the
//! coefficients `C_k` of the partial product and extends them by one stage
//! in `O(r)` using
//!
//! ```text
//! C'_k = C_k · λ_n / (λ_n − λ_k),    C'_n = Π_s λ_s / (λ_s − λ_n)
//! ```
//!
//! so a path search that grows paths hop by hop pays `O(r)` per extension
//! instead of re-deriving all coefficients in `O(r²)`. The batch [`cdf`]
//! function is defined *on top of* the accumulator (push the rates in
//! order, then evaluate), which makes batch and incremental evaluation
//! produce bit-identical results by construction — the property the
//! differential path-equivalence tests rely on.
//!
//! Property tests validate all branches against Monte-Carlo simulation.

/// Relative separation below which two rates are treated as "clustered"
/// and perturbed before using the distinct-rate closed form.
const REL_SEPARATION: f64 = 1e-4;

/// Relative perturbation applied to break rate clusters.
const REL_PERTURBATION: f64 = 1e-3;

/// Longest path, in stages, whose weight [`weight_cap`] bounds by its
/// first stage. Past three stages the closed form's rounding error is
/// no longer small against a weight: four stages spaced just over
/// [`REL_SEPARATION`] apart come out up to 3e-7 above their first
/// stage's CDF, five up to 6e-4, six anywhere in `[0, 1]`.
const FIRST_STAGE_CAP_STAGES: usize = 3;

/// Absolute slack of [`weight_cap`]. The worst excess found over a path
/// of up to [`FIRST_STAGE_CAP_STAGES`] stages is 1.4e-10 (three stages
/// each 1e-4 apart, coefficients near 1e8); the single-stage weight is
/// `1 − e^{−λt}` evaluated without `exp_m1` and sits up to 1.2e-16 above
/// it. Also covers the rounding of a sum of up to 10⁸ capped weights.
const WEIGHT_CAP_SLACK: f64 = 1e-7;

/// An upper bound on every weight the path search can give a path of at
/// most `max_stages` stages (`None`: any number) whose first stage has a
/// rate of at most `first_rate` (which may be 0: no such path), at
/// horizon `t`.
///
/// A sum of independent delays exceeds its first term, so a path's CDF
/// is at most its first stage's, `1 − e^{−λ₁t}`; perturbing a clustered
/// rate only ever raises a *later* stage, which keeps that true of the
/// path actually evaluated. What the cap adds is the evaluation's own
/// rounding, which the property tests hold below [`WEIGHT_CAP_SLACK`]
/// for short paths; a longer path is capped by the clamp to 1 alone.
/// NCL selection ([`crate::ncl`]) prunes by this bound.
pub(crate) fn weight_cap(first_rate: f64, t: f64, max_stages: Option<usize>) -> f64 {
    let first = match max_stages {
        Some(stages) if stages <= FIRST_STAGE_CAP_STAGES => -(-first_rate * t).exp_m1(),
        _ => 1.0,
    };
    first + WEIGHT_CAP_SLACK
}

/// Effective rate for a new stage: `rate` nudged upward until it is
/// well-separated from every rate in `spread`, the effective rates
/// already backing the coefficients. Deterministic, and a function of
/// the push prefix only — so any two evaluations that share a prefix
/// share its perturbations.
fn effective_rate(spread: &[f64], rate: f64) -> f64 {
    let mut eff = rate;
    let mut adjusted = true;
    while adjusted {
        adjusted = false;
        for &s in spread {
            if (eff - s).abs() <= REL_SEPARATION * eff.max(s) {
                eff = eff.max(s) * (1.0 + REL_PERTURBATION);
                adjusted = true;
            }
        }
    }
    eff
}

/// Incrementally maintained hypoexponential CDF of a growing rate
/// sequence.
///
/// Pushing a rate costs `O(r)`; evaluating the CDF costs `O(r)`;
/// [`Accumulator::extended_cdf`] evaluates the CDF of the sequence plus
/// one extra stage in `O(r)` **without allocating or mutating** — the
/// exact value a `clone → push → evaluate` round trip would produce.
///
/// # Example
///
/// ```
/// use dtn_core::hypoexp::{cdf, Accumulator};
///
/// let mut acc = Accumulator::new();
/// acc.push(1e-3);
/// acc.push(2e-3);
/// // Candidate evaluation without materialising the extension:
/// assert_eq!(acc.extended_cdf(5e-4, 1500.0), cdf(&[1e-3, 2e-3, 5e-4], 1500.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    /// Raw rates in push order.
    rates: Vec<f64>,
    /// Effective (possibly perturbed) rates backing the coefficients.
    spread: Vec<f64>,
    /// Closed-form coefficients `C_k` over `spread`.
    coeffs: Vec<f64>,
    /// All raw rates pushed so far are bitwise equal (Erlang fast path).
    all_equal: bool,
}

impl Accumulator {
    /// An empty accumulator: the zero-hop path with CDF 1.
    pub fn new() -> Self {
        Accumulator {
            rates: Vec::new(),
            spread: Vec::new(),
            coeffs: Vec::new(),
            all_equal: true,
        }
    }

    /// Number of stages pushed so far.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether no stage has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Raw rates in push order.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    fn assert_rate(rate: f64) {
        assert!(
            rate.is_finite() && rate > 0.0,
            "contact rates must be finite and positive, got {rate}"
        );
    }

    /// Appends one exponential stage with the given contact rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is non-positive or non-finite.
    pub fn push(&mut self, rate: f64) {
        Self::assert_rate(rate);
        if !self.rates.is_empty() && rate != self.rates[0] {
            self.all_equal = false;
        }
        let eff = effective_rate(&self.spread, rate);
        let mut c_new = 1.0;
        for k in 0..self.spread.len() {
            let lk = self.spread[k];
            // One reciprocal serves both the coefficient update
            // (eff/(eff−λk) = −eff·inv) and the new coefficient's factor
            // (λk·inv) — this exact operation order is mirrored by every
            // extension evaluator below, keeping them bit-identical.
            let inv = 1.0 / (lk - eff);
            self.coeffs[k] *= -eff * inv;
            c_new *= lk * inv;
        }
        self.rates.push(rate);
        self.spread.push(eff);
        self.coeffs.push(c_new);
    }

    /// CDF of the accumulated stage sequence at time `t` — the path
    /// weight `p(t)`, clamped to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN.
    fn cdf_at(&self, t: f64) -> f64 {
        assert!(!t.is_nan(), "time must not be NaN");
        if t <= 0.0 {
            return if self.rates.is_empty() { 1.0 } else { 0.0 };
        }
        if self.rates.is_empty() {
            return 1.0;
        }
        if self.all_equal {
            return erlang_cdf(self.rates[0], self.rates.len() as u32, t);
        }
        let mut acc = 0.0;
        for k in 0..self.spread.len() {
            acc += self.coeffs[k] * -(-self.spread[k] * t).exp_m1();
        }
        clamp01(acc)
    }

    /// CDF at `t` of the accumulated sequence extended by one stage of
    /// the given `rate`, without mutating or allocating.
    ///
    /// Performs the same floating-point operations in the same order as
    /// `clone() → push(rate) → cdf_at(t)`, so the result is bit-identical
    /// to that round trip — this is what lets an incremental path search
    /// agree exactly with batch re-evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is non-positive or non-finite, or `t` is NaN.
    pub fn extended_cdf(&self, rate: f64, t: f64) -> f64 {
        Self::assert_rate(rate);
        assert!(!t.is_nan(), "time must not be NaN");
        if t <= 0.0 {
            return 0.0;
        }
        if self.all_equal && (self.rates.is_empty() || rate == self.rates[0]) {
            return erlang_cdf(rate, self.rates.len() as u32 + 1, t);
        }
        let eff = effective_rate(&self.spread, rate);
        let mut c_new = 1.0;
        let mut acc = 0.0;
        for k in 0..self.spread.len() {
            let lk = self.spread[k];
            let inv = 1.0 / (lk - eff);
            acc += (self.coeffs[k] * (-eff * inv)) * -(-lk * t).exp_m1();
            c_new *= lk * inv;
        }
        acc += c_new * -(-eff * t).exp_m1();
        clamp01(acc)
    }
}

/// An [`Accumulator`] paired with a fixed evaluation time `t`, caching
/// the per-stage exponential factor `1 − e^{−λ_k t}` incrementally — the
/// path search's working representation of a settled node's path.
///
/// Two amortisations on top of the plain accumulator, both exact:
///
/// - **extension** ([`push`]) appends one cached exponential instead of
///   recomputing all of them, so extending a path costs one `exp`;
/// - **candidate evaluation** ([`extended_cdf`]) reuses the cached
///   factors and needs only a single fresh exponential per candidate;
///   the cluster scan runs ahead of the evaluation loop as its own
///   branchless reduction, so the loop itself stays flat.
///
/// The cached factors are the exact bit patterns the inline expression
/// `-(-λ_k t).exp_m1()` produces (`exp_m1` is deterministic), and the
/// evaluation replays [`Accumulator::push`]'s arithmetic op for op, so
/// [`extended_cdf`] is bit-identical to a
/// `clone → push → cdf_at` round trip on the underlying accumulator.
///
/// [`push`]: HorizonAccumulator::push
/// [`extended_cdf`]: HorizonAccumulator::extended_cdf
#[derive(Debug, Clone)]
pub(crate) struct HorizonAccumulator {
    acc: Accumulator,
    t: f64,
    /// `-(-spread[k] * t).exp_m1()` per stage.
    em1: Vec<f64>,
}

impl HorizonAccumulator {
    /// An empty accumulator evaluating at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN.
    pub(crate) fn new(t: f64) -> Self {
        assert!(!t.is_nan(), "time must not be NaN");
        HorizonAccumulator {
            acc: Accumulator::new(),
            t,
            em1: Vec::new(),
        }
    }

    /// Makes `self` the empty accumulator at time `t` —
    /// `*self = HorizonAccumulator::new(t)` with the buffers kept.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN.
    pub(crate) fn reset(&mut self, t: f64) {
        assert!(!t.is_nan(), "time must not be NaN");
        self.acc.rates.clear();
        self.acc.spread.clear();
        self.acc.coeffs.clear();
        self.acc.all_equal = true;
        self.t = t;
        self.em1.clear();
    }

    /// Makes `self` a copy of `parent` extended by one stage of `rate` —
    /// `*self = parent.clone(); self.push(rate)` to the bit, but refilling
    /// the buffers `self` already owns. The derived `Clone::clone_from`
    /// would not: it drops the four vectors and clones fresh ones.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is non-positive or non-finite.
    pub(crate) fn assign_extended(&mut self, parent: &Self, rate: f64) {
        let refill = |dst: &mut Vec<f64>, src: &[f64]| {
            dst.clear();
            dst.extend_from_slice(src);
        };
        refill(&mut self.acc.rates, &parent.acc.rates);
        refill(&mut self.acc.spread, &parent.acc.spread);
        refill(&mut self.acc.coeffs, &parent.acc.coeffs);
        refill(&mut self.em1, &parent.em1);
        self.acc.all_equal = parent.acc.all_equal;
        self.t = parent.t;
        self.push(rate);
    }

    /// Appends one exponential stage, extending the exponential cache by
    /// the new stage's factor — one `exp` regardless of path length.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is non-positive or non-finite.
    pub(crate) fn push(&mut self, rate: f64) {
        self.acc.push(rate);
        let eff = *self.acc.spread.last().expect("push appended a stage");
        self.em1.push(-(-eff * self.t).exp_m1());
    }

    /// The accumulated stages as a borrowed view — what
    /// [`extended_cdf`](Self::extended_cdf) evaluates, and what a caller
    /// copies out to evaluate an extension after this accumulator has
    /// been recycled.
    #[inline]
    pub(crate) fn stages(&self) -> Stages<'_> {
        Stages {
            spread: &self.acc.spread,
            coeffs: &self.acc.coeffs,
            em1: &self.em1,
            all_equal: self.acc.all_equal,
            t: self.t,
        }
    }

    /// CDF at the fixed time of the accumulated sequence extended by one
    /// stage of `rate` — [`Stages::extended_cdf`] over
    /// [`stages`](Self::stages).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is non-positive or non-finite.
    pub(crate) fn extended_cdf(&self, rate: f64) -> f64 {
        self.stages().extended_cdf(rate)
    }

    /// Address and capacity of each of the four buffers — what a test
    /// compares to show that a refill reallocated nothing.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> [(*const f64, usize); 4] {
        [
            &self.acc.rates,
            &self.acc.spread,
            &self.acc.coeffs,
            &self.em1,
        ]
        .map(|v| (v.as_ptr(), v.capacity()))
    }
}

/// Everything a [`HorizonAccumulator`] reads to evaluate a one-stage
/// extension, borrowed: per stage the effective rate, the closed-form
/// coefficient and the cached `1 − e^{−λ_k t}`, plus the Erlang flag and
/// the evaluation time. The raw rates are not among them — the first
/// stage is never perturbed (`spread[0]` *is* the first raw rate) and
/// `all_equal` says whether the others equal it, which is all the Erlang
/// branch asks.
///
/// The view exists so that the stages can live somewhere other than an
/// accumulator's four vectors (the path search keeps the rim of a
/// bounded search flat, [`crate::path::LazyReach`]) and still be
/// evaluated by the one implementation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stages<'a> {
    /// Effective (possibly perturbed) rate per stage.
    pub(crate) spread: &'a [f64],
    /// Closed-form coefficient `C_k` per stage.
    pub(crate) coeffs: &'a [f64],
    /// `-(-spread[k] * t).exp_m1()` per stage.
    pub(crate) em1: &'a [f64],
    /// All raw rates are bitwise equal (Erlang fast path).
    pub(crate) all_equal: bool,
    /// The evaluation time.
    pub(crate) t: f64,
}

impl Stages<'_> {
    /// CDF at `t` of the stages extended by one stage of `rate` —
    /// bit-identical to [`Accumulator::extended_cdf`] with the same
    /// arguments, in `O(r)` multiply-adds and exactly one fresh
    /// exponential.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is non-positive or non-finite.
    #[inline]
    pub(crate) fn extended_cdf(&self, rate: f64) -> f64 {
        Accumulator::assert_rate(rate);
        if self.t <= 0.0 {
            return 0.0;
        }
        if self.all_equal && (self.spread.is_empty() || rate == self.spread[0]) {
            return erlang_cdf(rate, self.spread.len() as u32 + 1, self.t);
        }
        // Separation scan first, as its own branchless max/compare
        // reduction: fused into the evaluation loop it forces an early
        // exit per iteration and defeats autovectorization.
        let mut clustered = false;
        for &lk in self.spread {
            clustered |= (rate - lk).abs() <= REL_SEPARATION * rate.max(lk);
        }
        // A clustered candidate (rare) is perturbed exactly as
        // [`Accumulator::push`] would. A separated one is its own
        // effective rate: the scan is `effective_rate`'s first pass,
        // which returns `rate` untouched when nothing trips it.
        let eff = if clustered {
            effective_rate(self.spread, rate)
        } else {
            rate
        };
        // Flat evaluation: independent multiply-adds per stage, one
        // running product, the operation order of `Accumulator::push` —
        // f64 accumulation is never reassociated.
        let mut c_new = 1.0;
        let mut sum = 0.0;
        for k in 0..self.spread.len() {
            let lk = self.spread[k];
            let inv = 1.0 / (lk - eff);
            sum += (self.coeffs[k] * (-eff * inv)) * self.em1[k];
            c_new *= lk * inv;
        }
        sum += c_new * -(-eff * self.t).exp_m1();
        clamp01(sum)
    }
}

/// Probability that a sum of independent exponentials with the given
/// `rates` is at most `t` — i.e. the probability that data traverses the
/// path within `t` seconds (the paper's path weight `p_AB(T)`, Eq. 2).
///
/// An empty `rates` slice denotes the zero-hop path from a node to itself
/// and has probability 1 for any `t ≥ 0`.
///
/// The result is clamped to `[0, 1]`. Defined as pushing the rates into
/// an [`Accumulator`] in order and evaluating, so batch and incremental
/// evaluation agree bitwise.
///
/// # Panics
///
/// Panics if any rate is non-positive or non-finite, or if `t` is NaN.
///
/// # Example
///
/// ```
/// use dtn_core::hypoexp::cdf;
///
/// // Single hop: plain exponential CDF.
/// let p = cdf(&[1.0 / 3600.0], 3600.0);
/// assert!((p - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
///
/// // Adding a hop can only slow delivery down.
/// assert!(cdf(&[0.001, 0.002], 1000.0) < cdf(&[0.001], 1000.0));
/// ```
pub fn cdf(rates: &[f64], t: f64) -> f64 {
    assert!(!t.is_nan(), "time must not be NaN");
    let mut acc = Accumulator::new();
    for &r in rates {
        acc.push(r);
    }
    acc.cdf_at(t)
}

/// Erlang CDF: sum of `k` i.i.d. exponentials with rate `rate`.
///
/// `P(Y ≤ t) = 1 − e^{−λt} Σ_{n=0}^{k−1} (λt)^n / n!`
///
/// # Panics
///
/// Panics if `rate` is non-positive or `k == 0`.
fn erlang_cdf(rate: f64, k: u32, t: f64) -> f64 {
    assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
    assert!(k > 0, "Erlang shape must be at least 1");
    if t <= 0.0 {
        return 0.0;
    }
    let lt = rate * t;
    // Accumulate the truncated Poisson series term-by-term to avoid
    // computing large factorials explicitly.
    let mut term = 1.0;
    let mut sum = 1.0;
    for n in 1..k {
        term *= lt / n as f64;
        sum += term;
    }
    clamp01(1.0 - (-lt).exp() * sum)
}

fn clamp01(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Monte-Carlo estimate of the hypoexponential CDF.
    fn mc_cdf(rates: &[f64], t: f64, samples: u32, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hits = 0u32;
        for _ in 0..samples {
            let total: f64 = rates
                .iter()
                .map(|&r| {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    -u.ln() / r
                })
                .sum();
            if total <= t {
                hits += 1;
            }
        }
        f64::from(hits) / f64::from(samples)
    }

    #[test]
    fn zero_hops_is_certain() {
        assert_eq!(cdf(&[], 0.0), 1.0);
        assert_eq!(cdf(&[], 100.0), 1.0);
    }

    #[test]
    fn zero_time_is_impossible_with_hops() {
        assert_eq!(cdf(&[1.0], 0.0), 0.0);
        assert_eq!(cdf(&[1.0, 2.0], -5.0), 0.0);
    }

    #[test]
    fn single_hop_matches_exponential() {
        let l = 1.0 / 3600.0;
        for t in [60.0f64, 3600.0, 86_400.0] {
            let expect = 1.0 - (-l * t).exp();
            assert!((cdf(&[l], t) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn equal_rates_match_erlang() {
        let p = cdf(&[0.5, 0.5, 0.5], 4.0);
        let e = erlang_cdf(0.5, 3, 4.0);
        assert!((p - e).abs() < 1e-12, "{p} vs {e}");
    }

    #[test]
    fn distinct_rates_match_monte_carlo() {
        let rates = [1.0 / 100.0, 1.0 / 350.0, 1.0 / 1000.0];
        for t in [200.0, 1000.0, 4000.0] {
            let exact = cdf(&rates, t);
            let approx = mc_cdf(&rates, t, 200_000, 42);
            assert!(
                (exact - approx).abs() < 5e-3,
                "t={t}: exact {exact} vs mc {approx}"
            );
        }
    }

    #[test]
    fn near_equal_rates_are_stable_and_accurate() {
        // Rates that differ by 1e-9 relative — the naive closed form
        // produces garbage here; the cluster-spreading path must not.
        let base = 1.0 / 500.0;
        let rates = [base, base * (1.0 + 1e-9), base * (1.0 - 1e-9)];
        let t = 1500.0;
        let exact = cdf(&rates, t);
        let erlang = erlang_cdf(base, 3, t);
        assert!(
            (exact - erlang).abs() < 1e-2,
            "stabilised {exact} vs erlang {erlang}"
        );
        assert!((0.0..=1.0).contains(&exact));
    }

    #[test]
    fn erlang_cdf_monotone_in_stages() {
        // More stages → stochastically larger sum → smaller CDF.
        let (rate, t) = (0.01, 300.0);
        let mut prev = 1.0;
        for k in 1..8 {
            let p = erlang_cdf(rate, k, t);
            assert!(p < prev, "k={k}: {p} !< {prev}");
            prev = p;
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_rate() {
        let _ = cdf(&[0.0], 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan_time() {
        let _ = cdf(&[1.0], f64::NAN);
    }

    #[test]
    fn accumulator_empty_is_certain() {
        let acc = Accumulator::new();
        assert!(acc.is_empty());
        assert_eq!(acc.cdf_at(0.0), 1.0);
        assert_eq!(acc.cdf_at(100.0), 1.0);
    }

    #[test]
    fn accumulator_matches_batch_bitwise() {
        let sequences: [&[f64]; 6] = [
            &[1e-3],
            &[1e-3, 2e-3],
            &[5e-4, 5e-4, 5e-4],
            &[1e-2, 1e-5, 3e-3, 7e-4],
            &[2e-3, 2e-3 * (1.0 + 1e-9)],
            &[1e-4, 1e-4, 9e-2, 1e-4],
        ];
        for rates in sequences {
            let mut acc = Accumulator::new();
            for &r in rates {
                acc.push(r);
            }
            for t in [0.0, 30.0, 900.0, 40_000.0] {
                let batch = cdf(rates, t);
                let inc = acc.cdf_at(t);
                assert!(
                    batch == inc,
                    "rates {rates:?} t={t}: batch {batch} != incremental {inc}"
                );
            }
        }
    }

    #[test]
    fn extended_cdf_matches_push_bitwise() {
        let prefix = [1e-3, 4e-3, 4e-3];
        let extensions = [2e-3, 4e-3, 4e-3 * (1.0 + 1e-9), 1e-6];
        let mut acc = Accumulator::new();
        for &r in &prefix {
            acc.push(r);
        }
        for &ext in &extensions {
            for t in [0.0, 120.0, 5_000.0] {
                let lazy = acc.extended_cdf(ext, t);
                let mut materialised = acc.clone();
                materialised.push(ext);
                let eager = materialised.cdf_at(t);
                assert!(
                    lazy == eager,
                    "ext {ext} t={t}: extended {lazy} != push+eval {eager}"
                );
            }
        }
        // From an empty accumulator too (the source-node case).
        let empty = Accumulator::new();
        assert_eq!(empty.extended_cdf(1e-3, 500.0), cdf(&[1e-3], 500.0));
    }

    #[test]
    fn horizon_accumulator_matches_extended_cdf_bitwise() {
        let prefixes: [&[f64]; 6] = [
            &[],
            &[1e-3],
            &[4e-3, 4e-3],
            &[1e-2, 1e-5, 3e-3, 7e-4],
            // Two stages a hair apart: the second is stored perturbed.
            &[2e-3, 2e-3 * (1.0 + 1e-9), 6e-4],
            // Two stored stages within REL_SEPARATION of one candidate.
            &[5e-3, 5e-3 * (1.0 + 1.5e-4), 9e-5],
        ];
        // Exact duplicates take the Erlang branch; the rest sit on both
        // sides of the separation scan: clear of every stage, within
        // REL_SEPARATION of one stage (from above, from below, and by a
        // relative 1e-9), of two stages at once, and equal to a stage as
        // it is stored after perturbation.
        let extensions = [
            2e-3,
            4e-3,
            1e-6,
            4e-3 * (1.0 + 1e-9),
            1e-2 * (1.0 + 0.9 * REL_SEPARATION),
            3e-3 * (1.0 - 0.9 * REL_SEPARATION),
            1e-2 * (1.0 + 1.1 * REL_SEPARATION),
            5e-3 * (1.0 + 0.75e-4),
            2e-3 * (1.0 + 1e-9) * (1.0 + REL_PERTURBATION),
        ];
        let (mut clustered, mut separated) = (0, 0);
        for prefix in prefixes {
            for t in [0.0, 120.0, 5_000.0] {
                let mut acc = Accumulator::new();
                let mut hacc = HorizonAccumulator::new(t);
                for &r in prefix {
                    acc.push(r);
                    hacc.push(r);
                }
                for &ext in &extensions {
                    let hoisted = hacc.extended_cdf(ext);
                    let inline = acc.extended_cdf(ext, t);
                    assert!(
                        hoisted.to_bits() == inline.to_bits(),
                        "prefix {prefix:?} ext {ext} t={t}: hoisted {hoisted} != inline {inline}"
                    );
                    if effective_rate(&acc.spread, ext) == ext {
                        separated += 1;
                    } else {
                        clustered += 1;
                    }
                }
            }
        }
        // Both sides of the scan were exercised; the two-stage cluster
        // and the perturbed-stage collision are what their names say.
        assert!(clustered > 0 && separated > 0, "{clustered} / {separated}");
        let two = [5e-3, 5e-3 * (1.0 + 1.5e-4)];
        let between = 5e-3 * (1.0 + 0.75e-4);
        assert!(two
            .iter()
            .all(|&s: &f64| (between - s).abs() <= REL_SEPARATION * between.max(s)));
        let mut acc = Accumulator::new();
        acc.push(2e-3);
        acc.push(2e-3 * (1.0 + 1e-9));
        assert_eq!(
            acc.spread[1],
            2e-3 * (1.0 + 1e-9) * (1.0 + REL_PERTURBATION)
        );
    }

    #[test]
    fn refilled_horizon_accumulator_equals_clone_and_push() {
        // Everything an accumulator holds, floats by bit pattern.
        fn bits(h: &HorizonAccumulator) -> (Vec<Vec<u64>>, bool, u64) {
            let vecs = [&h.acc.rates, &h.acc.spread, &h.acc.coeffs, &h.em1];
            let vecs = vecs.map(|v| v.iter().map(|x| x.to_bits()).collect());
            (vecs.to_vec(), h.acc.all_equal, h.t.to_bits())
        }
        let t = 3_000.0;
        // Equal rates (Erlang branch), a clustered pair, a plain tail.
        let rates = [4e-3, 4e-3, 4e-3 * (1.0 + 1e-9), 1e-5, 2e-3];
        // The recycled buffer starts out holding a longer, unrelated path
        // evaluated at another time.
        let mut recycled = HorizonAccumulator::new(17.0);
        for r in [1e-2, 3e-4, 5e-3, 7e-4, 9e-3, 1e-6, 2e-2] {
            recycled.push(r);
        }
        let warm = recycled.buffers();
        let mut parent = HorizonAccumulator::new(t);
        for &r in &rates {
            let mut cloned = parent.clone();
            cloned.push(r);
            recycled.assign_extended(&parent, r);
            assert_eq!(bits(&recycled), bits(&cloned), "extending by {r}");
            assert_eq!(recycled.extended_cdf(6e-4), cloned.extended_cdf(6e-4));
            assert_eq!(recycled.buffers(), warm, "a refill reallocated");
            parent = cloned;
        }
        recycled.reset(t);
        assert_eq!(bits(&recycled), bits(&HorizonAccumulator::new(t)));
        assert_eq!(recycled.buffers(), warm, "a reset reallocated");
    }

    #[test]
    fn accumulator_extension_never_raises_cdf() {
        // Monotonicity under extension is what makes label-setting exact;
        // the incremental form must preserve it for shared prefixes.
        let mut acc = Accumulator::new();
        let t = 2_000.0;
        let mut prev = acc.cdf_at(t);
        for &r in &[3e-3, 3e-3, 1e-2, 3e-3 * (1.0 + 1e-8), 5e-4] {
            let lazy = acc.extended_cdf(r, t);
            assert!(lazy <= prev, "extension raised weight {prev} -> {lazy}");
            acc.push(r);
            prev = acc.cdf_at(t);
            assert_eq!(prev, lazy);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn rate_strategy() -> impl Strategy<Value = f64> {
            // Rates from ~1/month to ~1/10s, the realistic DTN range.
            (1e-7f64..1e-1).prop_map(|x| x)
        }

        /// A rate sequence built to stress the closed form: the first
        /// stage anywhere in the DTN range, each later stage either up
        /// to 10⁶ times faster than the slowest, an exact duplicate of an
        /// earlier one (Erlang branch while all are), within
        /// `REL_SEPARATION` of one (perturbed), just outside it (largest
        /// coefficients) or a relative 1e-9 away.
        fn adversarial_rates(base: f64, stages: &[(u32, f64, usize)]) -> Vec<f64> {
            let mut rates: Vec<f64> = Vec::with_capacity(stages.len());
            for &(mode, u, pick) in stages {
                let earlier = rates.get(pick % rates.len().max(1)).copied();
                rates.push(match (earlier, mode) {
                    (None, _) | (_, 0) => base * 10f64.powf(6.0 * u),
                    (Some(r), 1) => r,
                    (Some(r), 2) => r * (1.0 + (2.0 * u - 1.0) * REL_SEPARATION),
                    (Some(r), 3) => r * (1.0 + (1.0 + 2.0 * u) * REL_SEPARATION),
                    (Some(r), _) => r * (1.0 + (2.0 * u - 1.0) * 1e-9),
                });
            }
            rates
        }

        /// A horizon from 0 through `≪ 1/λ₁` to `≫ 1/λ_min`.
        fn adversarial_horizon(rates: &[f64], mode: u32, u: f64) -> f64 {
            let slowest = rates.iter().copied().fold(f64::INFINITY, f64::min);
            match mode {
                0 => 0.0,
                1 => 10f64.powf(8.0 * u - 6.0) / slowest,
                2 => 10f64.powf(13.0 * u - 12.0) / rates[0],
                _ => 1e7 * u,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(20_000))]

            /// What NCL selection prunes by: no weight the search can
            /// compute for a path exceeds [`weight_cap`] of its first
            /// stage — at every prefix, so at every stage count up to 6.
            #[test]
            fn weight_never_exceeds_its_first_stage_cap(
                base_exp in -7.0f64..-1.0,
                stages in prop::collection::vec((0u32..5, 0.0f64..1.0, 0usize..6), 1..7),
                t_mode in 0u32..4,
                t_u in 0.0f64..1.0,
            ) {
                let rates = adversarial_rates(10f64.powf(base_exp), &stages);
                let t = adversarial_horizon(&rates, t_mode, t_u);
                let mut path = HorizonAccumulator::new(t);
                for (i, &rate) in rates.iter().enumerate() {
                    let weight = path.extended_cdf(rate);
                    path.push(rate);
                    let cap = weight_cap(rates[0], t, Some(i + 1));
                    prop_assert!(weight <= cap,
                        "{:?} at t={t}: weight {weight} above cap {cap}", &rates[..=i]);
                    // A faster first hop only raises the cap, and an
                    // unbounded path is capped by the clamp alone.
                    prop_assert!(cap <= weight_cap(2.0 * rates[0], t, Some(i + 1)));
                    prop_assert!(weight <= weight_cap(rates[0], t, None));
                }
            }

            /// One more stage never raises the weight by more than the
            /// cluster perturbation can: leaving the Erlang branch stores
            /// the duplicates `REL_PERTURBATION` apart, which moves the
            /// CDF by up to 3e-4 — far above [`WEIGHT_CAP_SLACK`], which
            /// is why the cap rests on the first stage and not on this.
            #[test]
            fn one_more_stage_never_helps_beyond_the_perturbation(
                base_exp in -7.0f64..-1.0,
                stages in prop::collection::vec((0u32..5, 0.0f64..1.0, 0usize..6), 2..5),
                t_mode in 0u32..4,
                t_u in 0.0f64..1.0,
            ) {
                let rates = adversarial_rates(10f64.powf(base_exp), &stages);
                let t = adversarial_horizon(&rates, t_mode, t_u);
                let mut path = HorizonAccumulator::new(t);
                let mut shorter = 1.0;
                for (i, &rate) in rates.iter().enumerate() {
                    let weight = path.extended_cdf(rate);
                    path.push(rate);
                    if i < FIRST_STAGE_CAP_STAGES {
                        prop_assert!(weight <= shorter + REL_PERTURBATION,
                            "{:?} at t={t}: {shorter} -> {weight}", &rates[..=i]);
                    }
                    shorter = weight;
                }
            }
        }

        proptest! {
            #[test]
            fn cdf_is_probability(
                rates in prop::collection::vec(rate_strategy(), 1..6),
                t in 0.0f64..1e7,
            ) {
                let p = cdf(&rates, t);
                prop_assert!((0.0..=1.0).contains(&p), "p={p}");
            }

            #[test]
            fn cdf_monotone_in_time(
                rates in prop::collection::vec(rate_strategy(), 1..6),
                t1 in 0.0f64..1e6,
                dt in 0.0f64..1e6,
            ) {
                let p1 = cdf(&rates, t1);
                let p2 = cdf(&rates, t1 + dt);
                prop_assert!(p2 >= p1 - 1e-9, "p({})={} > p({})={}", t1, p1, t1 + dt, p2);
            }

            #[test]
            fn extra_hop_never_helps(
                rates in prop::collection::vec(rate_strategy(), 1..5),
                extra in rate_strategy(),
                t in 1.0f64..1e6,
            ) {
                let base = cdf(&rates, t);
                let mut longer = rates.clone();
                longer.push(extra);
                let ext = cdf(&longer, t);
                prop_assert!(ext <= base + 1e-6, "extending path raised p: {base} -> {ext}");
            }

            #[test]
            fn closed_form_tracks_monte_carlo(
                rates in prop::collection::vec(1e-4f64..1e-1, 2..5),
                t in 10.0f64..1e5,
                seed in any::<u64>(),
            ) {
                let exact = cdf(&rates, t);
                let approx = mc_cdf(&rates, t, 20_000, seed);
                prop_assert!((exact - approx).abs() < 0.02,
                    "exact {exact} vs mc {approx} for rates {rates:?}, t={t}");
            }

            #[test]
            fn incremental_and_batch_agree(
                rates in prop::collection::vec(rate_strategy(), 1..7),
                t in 0.0f64..1e6,
            ) {
                let mut acc = Accumulator::new();
                let mut hacc = HorizonAccumulator::new(t);
                for (i, &r) in rates.iter().enumerate() {
                    // Candidate evaluation (inline and with hoisted
                    // exponentials), materialisation and batch
                    // re-evaluation must all agree exactly at every prefix.
                    let lazy = acc.extended_cdf(r, t);
                    let hoisted = hacc.extended_cdf(r);
                    acc.push(r);
                    hacc.push(r);
                    let eager = acc.cdf_at(t);
                    let batch = cdf(&rates[..=i], t);
                    prop_assert!(lazy == hoisted && lazy == eager && eager == batch,
                        "prefix {:?} t={}: lazy {} hoisted {} eager {} batch {}",
                        &rates[..=i], t, lazy, hoisted, eager, batch);
                }
            }
        }
    }
}
