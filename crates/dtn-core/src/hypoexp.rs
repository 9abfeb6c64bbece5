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
/// rounding, which the property tests hold below an absolute 1e-7 for
/// paths of up to three stages; a longer path (or `None`) is capped by
/// the clamp to 1 alone, plus that slack. At a `t` that is not positive,
/// or NaN, where a search weighs every path 0, the first stage's CDF
/// reads 0.
/// NCL selection ([`crate::ncl`]) prunes by this bound, and the bounded
/// path oracle decides a comparison of two weights by it.
pub fn weight_cap(first_rate: f64, t: f64, max_stages: Option<usize>) -> f64 {
    let first = match max_stages {
        Some(stages) if stages <= FIRST_STAGE_CAP_STAGES => (-(-first_rate * t).exp_m1()).max(0.0),
        _ => 1.0,
    };
    first + WEIGHT_CAP_SLACK
}

/// How much [`product_cap`] raises a stage's rate: enough to cover what
/// [`effective_rate`] does to a stage of a path of up to three stages.
/// Each earlier stage nudges it at most once, to at most
/// `(1 + REL_PERTURBATION) / (1 − REL_SEPARATION)` times its value, so a
/// third stage moves at most 1.0022 times its rate.
const STAGE_RATE_INFLATION: f64 = 1.0025;

/// An upper bound on every weight the path search can give a path of at
/// most three stages whose first stage has a rate of at most `rate`, at
/// horizon `t`, when `rest` bounds the stages after it: 1 for none, else
/// the `product_cap` of the second stage with its own `rest`.
///
/// A sum of independent delays is at most `t` only if each delay is, so
/// a path's CDF is at most the product of its stage CDFs. Each stage is
/// weighed at its rate times 1.0025, which covers the perturbation a
/// clustered later stage gets, and adds [`weight_cap`]'s slack for the
/// evaluation's rounding (so a three-stage product carries it three
/// times). Unlike [`weight_cap`] it bounds a path by where it goes: the
/// bounded path oracle takes the best product over the walks from a
/// node into a destination's 2-hop ball.
pub fn product_cap(rate: f64, t: f64, rest: f64) -> f64 {
    -(-rate * STAGE_RATE_INFLATION * t).exp_m1() * rest + WEIGHT_CAP_SLACK
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

    #[inline]
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
        self.push_admitted(rate);
    }

    /// [`push`](Self::push) of a rate already known finite and positive —
    /// one a sealed [`Topology`](crate::graph::Topology) refused otherwise
    /// when it was built — returning its effective rate.
    fn push_admitted(&mut self, rate: f64) -> f64 {
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
        eff
    }

    /// CDF of the accumulated stage sequence at time `t` — the path
    /// weight `p(t)`, clamped to `[0, 1]`. [`cdf`] checks `t`.
    fn cdf_at(&self, t: f64) -> f64 {
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

/// The two exponentials of one unperturbed stage of rate `λ` at time
/// `t`, a function of `(λ, t)` alone: a search computes them once per
/// distinct rate and reads them from its cache after.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Factors {
    /// `1 − e^{−λt}`, as the closed form evaluates it.
    pub(crate) em1: f64,
    /// `e^{−λt}`, as the Erlang branch does.
    pub(crate) exp: f64,
}

impl Factors {
    /// Both factors of `rate` at `t`, fresh: the bits of the inline
    /// `-(-rate * t).exp_m1()` and `(-(rate * t)).exp()`.
    pub(crate) fn of(rate: f64, t: f64) -> Factors {
        #[cfg(test)]
        tests::FRESH.with(|n| n.set(n.get() + 1));
        Factors {
            em1: -(-rate * t).exp_m1(),
            exp: (-(rate * t)).exp(),
        }
    }
}

/// An [`Accumulator`] paired with a fixed evaluation time `t`, caching
/// the per-stage exponential factor `1 − e^{−λ_k t}` incrementally — the
/// path search's working representation of a settled node's path.
///
/// Extending a path ([`push`]) appends one factor and evaluating a
/// candidate stage (through its [`view`]) reuses them all; the new
/// stage's own [`Factors`] come from the caller, so neither computes an
/// exponential unless that stage is perturbed off a cluster.
///
/// The cached factors are the exact bit patterns the inline expression
/// `-(-λ_k t).exp_m1()` produces (`exp_m1` is deterministic), and the
/// evaluation replays [`Accumulator::push`]'s arithmetic op for op, so
/// [`PathView::extended_cdf`] is bit-identical to a
/// `clone → push → cdf_at` round trip on the underlying accumulator.
///
/// [`push`]: HorizonAccumulator::push
/// [`view`]: HorizonAccumulator::view
#[derive(Debug, Clone)]
pub(crate) struct HorizonAccumulator {
    acc: Accumulator,
    t: f64,
    /// `-(-spread[k] * t).exp_m1()` per stage.
    em1: Vec<f64>,
}

impl HorizonAccumulator {
    /// An empty accumulator evaluating at time `t`, which the search
    /// has checked.
    pub(crate) fn new(t: f64) -> Self {
        HorizonAccumulator {
            acc: Accumulator::new(),
            t,
            em1: Vec::new(),
        }
    }

    /// Makes `self` the empty accumulator at time `t` —
    /// `*self = HorizonAccumulator::new(t)` with the buffers kept.
    pub(crate) fn reset(&mut self, t: f64) {
        self.acc.rates.clear();
        self.acc.spread.clear();
        self.acc.coeffs.clear();
        self.acc.all_equal = true;
        self.t = t;
        self.em1.clear();
    }

    /// Makes `self` a copy of `parent` extended by one stage of `rate` —
    /// `*self = parent.clone(); self.push(rate, new)` to the bit, but
    /// refilling the buffers `self` already owns. The derived `Clone::clone_from`
    /// would not: it drops the four vectors and clones fresh ones.
    pub(crate) fn assign_extended(&mut self, parent: &Self, rate: f64, new: Factors) {
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
        self.push(rate, new);
    }

    /// Appends one exponential stage, extending the exponential cache by
    /// `new.em1` (`new` is [`Factors::of`]`(rate, t)`), or by one fresh
    /// `exp_m1` of the effective rate if the stage is perturbed. Checks
    /// nothing: `rate` is an edge of a sealed
    /// [`Topology`](crate::graph::Topology).
    pub(crate) fn push(&mut self, rate: f64, new: Factors) {
        let eff = self.acc.push_admitted(rate);
        // A perturbed rate lands strictly above `rate`.
        self.em1.push(if eff == rate {
            new.em1
        } else {
            -(-eff * self.t).exp_m1()
        });
    }

    /// The accumulated path as its evaluator reads it: a settle takes it
    /// once and weighs every edge it relaxes through
    /// [`PathView::extended_cdf`].
    #[inline(always)]
    pub(crate) fn view(&self) -> PathView<'_> {
        let stages = self.acc.spread.len();
        PathView {
            spread: &self.acc.spread,
            coeffs: &self.acc.coeffs[..stages],
            em1: &self.em1[..stages],
            t: self.t,
            erlang: self.acc.all_equal,
        }
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

/// A [`HorizonAccumulator`] borrowed for evaluation: its stages'
/// effective rates, coefficients and cached `1 − e^{−λ_k t}`, sliced to
/// one length, with the time and the Erlang flag beside them. `Copy`, so
/// a search takes it once per settled node and reads no `Vec` header
/// while it weighs that node's row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PathView<'a> {
    spread: &'a [f64],
    coeffs: &'a [f64],
    em1: &'a [f64],
    t: f64,
    /// Every raw rate is bitwise the first (the Erlang fast path).
    erlang: bool,
}

impl PathView<'_> {
    /// CDF at the fixed time of the path extended by one stage of
    /// `rate` — bit-identical to [`Accumulator::extended_cdf`] with the
    /// same arguments, in `O(r)` multiply-adds. `new` is
    /// [`Factors::of`]`(rate, t)`, which the Erlang branch and a
    /// separated stage read in place of an exponential; a clustered stage
    /// is perturbed and takes one fresh `exp_m1` of its effective rate.
    ///
    /// Checks nothing: every rate a search reads comes from a
    /// [`Topology`](crate::graph::Topology), whose two implementations
    /// refuse a rate that is not finite and positive when they are
    /// built, and a search weighs no edge at a horizon that is not
    /// finite and positive.
    #[inline(always)]
    pub(crate) fn extended_cdf(self, rate: f64, new: Factors) -> f64 {
        let PathView {
            spread,
            coeffs,
            em1,
            t,
            erlang,
        } = self;
        // The first stage is never perturbed, so `spread[0]` is the first
        // raw rate: the Erlang test reads no buffer the loop does not.
        if erlang && spread.first().is_none_or(|&first| rate == first) {
            return erlang_tail(rate * t, spread.len() as u32 + 1, new.exp);
        }
        // Separation scan first, as its own branchless max/compare
        // reduction: fused into the evaluation loop it forces an early
        // exit per iteration and defeats autovectorization.
        let mut clustered = false;
        for &lk in spread {
            clustered |= (rate - lk).abs() <= REL_SEPARATION * rate.max(lk);
        }
        // A separated candidate is its own effective rate: the scan is
        // `effective_rate`'s first pass, which returns `rate` untouched
        // when nothing trips it.
        let (eff, eff_em1) = if clustered {
            perturbed(spread, rate, t)
        } else {
            (rate, new.em1)
        };
        // Flat evaluation over the zipped stages: independent
        // multiply-adds per stage, one running product, the operation
        // order of `Accumulator::push` — f64 accumulation is never
        // reassociated.
        let mut c_new = 1.0;
        let mut sum = 0.0;
        for ((&lk, &ck), &ek) in spread.iter().zip(coeffs).zip(em1) {
            let inv = 1.0 / (lk - eff);
            sum += (ck * (-eff * inv)) * ek;
            c_new *= lk * inv;
        }
        sum += c_new * eff_em1;
        clamp01(sum)
    }
}

/// A clustered candidate (rare) perturbed exactly as
/// [`Accumulator::push`] would perturb it, with its fresh
/// `1 − e^{−λt}`.
#[cold]
#[inline(never)]
fn perturbed(spread: &[f64], rate: f64, t: f64) -> (f64, f64) {
    let eff = effective_rate(spread, rate);
    (eff, -(-eff * t).exp_m1())
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

/// Erlang CDF: sum of `k ≥ 1` i.i.d. exponentials with rate `rate`, at
/// `t > 0` — what its two callers pass, each after its own checks.
///
/// `P(Y ≤ t) = 1 − e^{−λt} Σ_{n=0}^{k−1} (λt)^n / n!`
fn erlang_cdf(rate: f64, k: u32, t: f64) -> f64 {
    erlang_tail(rate * t, k, (-(rate * t)).exp())
}

/// [`erlang_cdf`] at `t > 0` from `lt = λt` and `e^{−λt}`.
#[inline]
fn erlang_tail(lt: f64, k: u32, exp: f64) -> f64 {
    // Accumulate the truncated Poisson series term-by-term to avoid
    // computing large factorials explicitly.
    let mut term = 1.0;
    let mut sum = 1.0;
    for n in 1..k {
        term *= lt / n as f64;
        sum += term;
    }
    clamp01(1.0 - exp * sum)
}

#[inline]
fn clamp01(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

#[cfg(test)]
pub(crate) mod tests;
