use super::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

thread_local! {
    /// Calls of [`Factors::of`] on this thread.
    pub(crate) static FRESH: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// [`HorizonAccumulator::push`] with the new stage's factors computed
/// fresh.
fn fresh_push(h: &mut HorizonAccumulator, rate: f64) {
    let t = h.t;
    h.push(rate, Factors::of(rate, t));
}

/// [`PathView::extended_cdf`] with the new stage's factors computed
/// fresh.
fn fresh_cdf(h: &HorizonAccumulator, rate: f64) -> f64 {
    h.view().extended_cdf(rate, Factors::of(rate, h.t))
}

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

/// The Erlang CDF at `x = λt`, `P(Poisson(x) ≥ k)`, as the upper-tail
/// series `e^{−x} Σ_{n≥k} xⁿ/n!`: every term positive, each one's log
/// `−x + n ln x − ln n!` the last one's plus `ln x − ln n`, summed against
/// the largest. No cancellation, so it is accurate where `1 − e^{−x} Σ_{n<k}`
/// is not (small `x`), at the price of a term per `n` past the mode.
fn erlang_upper_tail(x: f64, k: u32) -> f64 {
    let ln_fact: f64 = (1..=k).map(|i| f64::from(i).ln()).sum();
    let mut logs = vec![-x + f64::from(k) * x.ln() - ln_fact];
    let mut top = logs[0];
    for n in k + 1.. {
        let last = logs[logs.len() - 1];
        // Past the mode the terms only fall: stop 50 nats below the top.
        if f64::from(n) > x + 1.0 && last < top - 50.0 {
            break;
        }
        let log = last + x.ln() - f64::from(n).ln();
        top = top.max(log);
        logs.push(log);
    }
    top.exp() * logs.iter().map(|&l| (l - top).exp()).sum::<f64>()
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
fn accumulator_extension_matches_push_bitwise() {
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

/// The view's evaluator against the reference [`Accumulator::extended_cdf`],
/// bit for bit, on every branch it takes: the empty path, the Erlang
/// branch, a separated candidate, a candidate clustered against one
/// stored stage and against two, and paths that store a perturbed stage.
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
    // The view reads the new stage's factors as a cache holds them,
    // computed once per rate and horizon; a clustered stage is perturbed
    // and must not read them at all, so it is handed NaNs.
    let unused = Factors {
        em1: f64::NAN,
        exp: f64::NAN,
    };
    // Evaluations per branch: empty path, Erlang, separated, clustered
    // against one stage, against two, and over a stored perturbed stage.
    let mut branches = [0; 6];
    for prefix in prefixes {
        // t = 0 included: the view has no early return for it, and every
        // factor it multiplies is 0.
        for t in [0.0, 120.0, 5_000.0] {
            let mut acc = Accumulator::new();
            let mut hacc = HorizonAccumulator::new(t);
            for &r in prefix {
                acc.push(r);
                fresh_push(&mut hacc, r);
            }
            let view = hacc.view();
            for &ext in &extensions {
                let near = acc
                    .spread
                    .iter()
                    .filter(|&&s| (ext - s).abs() <= REL_SEPARATION * ext.max(s));
                let new = if prefix.is_empty() {
                    branches[0] += 1;
                    Factors::of(ext, t)
                } else if hacc.acc.all_equal && prefix[0] == ext {
                    branches[1] += 1;
                    Factors::of(ext, t)
                } else {
                    match near.count() {
                        0 => branches[2] += 1,
                        1 => branches[3] += 1,
                        _ => branches[4] += 1,
                    }
                    if acc.spread != acc.rates {
                        branches[5] += 1;
                    }
                    if effective_rate(&acc.spread, ext) == ext {
                        Factors::of(ext, t)
                    } else {
                        unused
                    }
                };
                let viewed = view.extended_cdf(ext, new);
                let reference = acc.extended_cdf(ext, t);
                assert!(
                    viewed.to_bits() == reference.to_bits(),
                    "prefix {prefix:?} ext {ext} t={t}: view {viewed} != reference {reference}"
                );
            }
        }
    }
    assert!(branches.iter().all(|&n| n > 0), "{branches:?}");
    // The two-stage cluster and the perturbed-stage collision are what
    // their names say.
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
        fresh_push(&mut recycled, r);
    }
    let warm = recycled.buffers();
    let mut parent = HorizonAccumulator::new(t);
    for &r in &rates {
        let mut cloned = parent.clone();
        fresh_push(&mut cloned, r);
        recycled.assign_extended(&parent, r, Factors::of(r, t));
        assert_eq!(bits(&recycled), bits(&cloned), "extending by {r}");
        assert_eq!(fresh_cdf(&recycled, 6e-4), fresh_cdf(&cloned, 6e-4));
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
                let weight = fresh_cdf(&path, rate);
                fresh_push(&mut path, rate);
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
                let weight = fresh_cdf(&path, rate);
                fresh_push(&mut path, rate);
                if i < FIRST_STAGE_CAP_STAGES {
                    prop_assert!(weight <= shorter + REL_PERTURBATION,
                        "{:?} at t={t}: {shorter} -> {weight}", &rates[..=i]);
                }
                shorter = weight;
            }
        }

        /// What the bounded oracle's destination ball prunes by: every
        /// stage the evaluator weighs, perturbed or not, is covered by
        /// its [`product_cap`] factor, and no weight of up to three
        /// stages exceeds the nested product of its stages.
        #[test]
        fn weight_never_exceeds_its_stage_product(
            base_exp in -7.0f64..-1.0,
            stages in prop::collection::vec((0u32..5, 0.0f64..1.0, 0usize..6), 1..4),
            t_mode in 0u32..4,
            t_u in 0.0f64..1.0,
        ) {
            let rates = adversarial_rates(10f64.powf(base_exp), &stages);
            let t = adversarial_horizon(&rates, t_mode, t_u);
            let mut path = HorizonAccumulator::new(t);
            let mut acc = Accumulator::new();
            for (i, &rate) in rates.iter().enumerate() {
                let weight = fresh_cdf(&path, rate);
                fresh_push(&mut path, rate);
                acc.push(rate);
                let stage = -(-acc.spread[i] * t).exp_m1();
                prop_assert!(stage <= product_cap(rate, t, 1.0),
                    "{:?} at t={t}: stage {i} weighed at {}", &rates[..=i], acc.spread[i]);
                let cap = rates[..=i].iter().rev().fold(1.0, |rest, &r| product_cap(r, t, rest));
                prop_assert!(weight <= cap,
                    "{:?} at t={t}: weight {weight} above the product {cap}", &rates[..=i]);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_000))]

        /// The Erlang branch against the series without cancellation:
        /// within 1e-9 absolute for up to six equal stages, `λt` from
        /// 1e-12 to 700.
        #[test]
        fn erlang_branch_tracks_the_upper_tail_series(
            k in 1u32..=6,
            ln_x in (1e-12f64).ln()..=700f64.ln(),
        ) {
            let x = ln_x.exp();
            let (got, want) = (erlang_tail(x, k, (-x).exp()), erlang_upper_tail(x, k));
            prop_assert!((got - want).abs() <= 1e-9, "k={k}, x={x}: {got} vs {want}");
            // The series itself, where a closed form is accurate: one stage.
            let one = erlang_upper_tail(x, 1) / -(-x).exp_m1();
            prop_assert!((one - 1.0).abs() <= 1e-9, "x={x}: {one}");
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
                let hoisted = fresh_cdf(&hacc, r);
                acc.push(r);
                fresh_push(&mut hacc, r);
                let eager = acc.cdf_at(t);
                let batch = cdf(&rates[..=i], t);
                prop_assert!(lazy == hoisted && lazy == eager && eager == batch,
                    "prefix {:?} t={}: lazy {} hoisted {} eager {} batch {}",
                    &rates[..=i], t, lazy, hoisted, eager, batch);
            }
        }
    }
}
