//! Pluggable per-pair inter-contact processes.
//!
//! The paper's network model (§III-B) assumes every node pair meets
//! according to a Poisson process, and the whole stack downstream — the
//! `RateEstimator`, the hypoexp path weights, the NCL metric — inherits
//! that assumption. Real traces do not cooperate: Conan et al. show
//! heavy-tailed, per-pair-heterogeneous inter-contact times. This module
//! makes the generator's per-pair law pluggable so experiments can
//! measure how far the Poisson-assuming machinery degrades under model
//! mismatch.
//!
//! A process is a resumable per-pair sampler, split in two: a
//! `ProcessLaw` holds what every pair shares and a `PairLaw` the
//! pair's calibrated values. Given the current session clock the law
//! returns the start of the pair's next co-location session, drawing
//! only from the pair's private RNG. Every process is
//! **calibrated to the same mean session rate** — the expected number of
//! sessions over the observation stays equal to the Poisson reference —
//! so traces generated under different processes remain comparable in
//! the figures; only the *shape* of the inter-contact law changes.
//!
//! [`ContactProcessKind::Poisson`] is the reference implementation and
//! reproduces the pre-trait generator bit for bit at equal seed (see
//! `tests/poisson_golden.rs`).

use rand::rngs::StdRng;
use rand::Rng;

/// Domain-separation salt for the duty-cycle phase derived from a pair's
/// process seed (no RNG draw — Poisson draw order stays untouched).
const DUTY_PHASE_SALT: u64 = 0x7F4A_7C15_9E37_79B9;

/// Configuration of the per-pair inter-contact law, selected on
/// [`SyntheticTraceBuilder::contact_process`].
///
/// Every variant is calibrated so the mean inter-session gap equals the
/// pair's calibrated `1/rate` — the expected contact count of a trace is
/// invariant under the process choice; only the gap distribution's shape
/// (tail weight, periodicity) changes.
///
/// [`SyntheticTraceBuilder::contact_process`]:
/// crate::synthetic::SyntheticTraceBuilder::contact_process
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ContactProcessKind {
    /// Exponential gaps — the paper's §III-B reference model.
    #[default]
    Poisson,
    /// Pareto gaps with tail exponent `shape` (> 1 so the mean exists).
    /// Smaller shapes mean heavier tails: a few enormous silences
    /// carrying most of the mass.
    Pareto {
        /// Tail exponent α; the CCDF decays as `x^-α`.
        shape: f64,
    },
    /// Lognormal gaps with log-domain standard deviation `sigma`:
    /// subexponential but all moments finite.
    Lognormal {
        /// σ of `ln(gap)`.
        sigma: f64,
    },
    /// Power-law gaps with exponent `shape` truncated at `cap` times the
    /// minimum gap. Unlike [`ContactProcessKind::Pareto`] the exponent
    /// may be ≤ 1 (the truncation keeps the mean finite) — the regime
    /// real inter-contact measurements report.
    BoundedPowerLaw {
        /// Tail exponent α within the bounded region (> 0, ≠ 1).
        shape: f64,
        /// Upper truncation as a multiple of the minimum gap (> 1).
        cap: f64,
    },
    /// Periodic on/off availability: within "on" windows of
    /// `duty × period` seconds the pair meets as a Poisson process at
    /// `rate / duty`; in the "off" remainder it never meets. Each pair
    /// gets a deterministic phase derived from its process seed.
    DutyCycled {
        /// Full on+off cycle length in seconds.
        period_secs: f64,
        /// Fraction of the period the pair is available, in `(0, 1]`.
        duty: f64,
    },
}

impl ContactProcessKind {
    /// Every process with its default parameters, Poisson first.
    pub const ALL: [ContactProcessKind; 5] = [
        ContactProcessKind::Poisson,
        ContactProcessKind::PARETO,
        ContactProcessKind::LOGNORMAL,
        ContactProcessKind::BOUNDED_POWER_LAW,
        ContactProcessKind::DUTY_CYCLED,
    ];

    /// Default heavy-tail Pareto: α = 1.5 (finite mean, infinite
    /// variance — the classic DTN inter-contact regime).
    pub const PARETO: ContactProcessKind = ContactProcessKind::Pareto { shape: 1.5 };

    /// Default lognormal: σ = 1.6 (gaps span ~3 orders of magnitude).
    pub(crate) const LOGNORMAL: ContactProcessKind = ContactProcessKind::Lognormal { sigma: 1.6 };

    /// Default bounded power law: α = 0.8 truncated at 1000× the
    /// minimum gap.
    pub(crate) const BOUNDED_POWER_LAW: ContactProcessKind = ContactProcessKind::BoundedPowerLaw {
        shape: 0.8,
        cap: 1000.0,
    };

    /// Default duty cycle: 6 h period, available 30% of it.
    pub(crate) const DUTY_CYCLED: ContactProcessKind = ContactProcessKind::DutyCycled {
        period_secs: 21_600.0,
        duty: 0.3,
    };

    /// Stable kebab-case name, used by `simcheck --process` and the
    /// regimes experiment.
    pub fn name(self) -> &'static str {
        match self {
            ContactProcessKind::Poisson => "poisson",
            ContactProcessKind::Pareto { .. } => "pareto",
            ContactProcessKind::Lognormal { .. } => "lognormal",
            ContactProcessKind::BoundedPowerLaw { .. } => "bounded-power-law",
            ContactProcessKind::DutyCycled { .. } => "duty-cycled",
        }
    }

    /// Parses a kebab-case name to the default-parameter variant.
    pub fn parse(name: &str) -> Option<ContactProcessKind> {
        ContactProcessKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
    }

    /// The configured power-law tail exponent, for processes that have
    /// one — what the Hill estimator should recover from a generated
    /// trace.
    pub fn tail_exponent(self) -> Option<f64> {
        match self {
            ContactProcessKind::Pareto { shape }
            | ContactProcessKind::BoundedPowerLaw { shape, .. } => Some(shape),
            _ => None,
        }
    }

    /// Validates the parameters, panicking with a named reason.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is outside its documented domain.
    pub fn validate(self) {
        match self {
            ContactProcessKind::Poisson => {}
            ContactProcessKind::Pareto { shape } => {
                assert!(
                    shape.is_finite() && shape > 1.0,
                    "Pareto shape must exceed 1 so the mean gap exists, got {shape}"
                );
            }
            ContactProcessKind::Lognormal { sigma } => {
                assert!(
                    sigma.is_finite() && sigma > 0.0,
                    "lognormal sigma must be positive, got {sigma}"
                );
            }
            ContactProcessKind::BoundedPowerLaw { shape, cap } => {
                assert!(
                    shape.is_finite() && shape > 0.0 && shape != 1.0,
                    "bounded power-law shape must be positive and != 1, got {shape}"
                );
                assert!(
                    cap.is_finite() && cap > 1.0,
                    "bounded power-law cap must exceed 1, got {cap}"
                );
            }
            ContactProcessKind::DutyCycled { period_secs, duty } => {
                assert!(
                    period_secs.is_finite() && period_secs > 0.0,
                    "duty-cycle period must be positive, got {period_secs}"
                );
                assert!(
                    duty.is_finite() && duty > 0.0 && duty <= 1.0,
                    "duty fraction must be in (0, 1], got {duty}"
                );
            }
        }
    }

    /// The half of the process every pair of a plan shares, derived once
    /// per plan: the shape terms of each law's calibration.
    pub(crate) fn law(self) -> ProcessLaw {
        match self {
            ContactProcessKind::Poisson => ProcessLaw::Poisson,
            ContactProcessKind::Pareto { shape } => ProcessLaw::Pareto {
                shape,
                inv_shape: 1.0 / shape,
            },
            ContactProcessKind::Lognormal { sigma } => ProcessLaw::Lognormal { sigma },
            ContactProcessKind::BoundedPowerLaw { shape, cap } => {
                // Truncated Pareto on [x_m, cap·x_m]:
                // E = x_m · α/(α−1) · (1 − cap^(1−α)) / (1 − cap^(−α)).
                let tail_mass = 1.0 - cap.powf(-shape);
                let mean_factor = shape / (shape - 1.0) * (1.0 - cap.powf(1.0 - shape)) / tail_mass;
                ProcessLaw::BoundedPowerLaw {
                    mean_factor,
                    inv_shape: 1.0 / shape,
                    tail_mass,
                }
            }
            ContactProcessKind::DutyCycled { period_secs, duty } => ProcessLaw::DutyCycled {
                duty,
                period: period_secs,
                on_len: duty * period_secs,
            },
        }
    }
}

/// A process's plan-wide parameters ([`ContactProcessKind::law`]). With
/// a pair's [`PairLaw`] it draws that pair's sessions: the per-pair
/// sampler split in two, so a kept pair stores only what differs
/// between pairs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ProcessLaw {
    /// Exponential gaps; the pair holds its rate.
    Poisson,
    /// Pareto gaps `x_m · U^(-1/α)`; the pair holds `x_m`.
    Pareto { shape: f64, inv_shape: f64 },
    /// Lognormal gaps `exp(μ + σZ)` with Z a Box–Muller standard
    /// normal; the pair holds μ.
    Lognormal { sigma: f64 },
    /// Truncated power-law gaps by inverse CDF on `[x_m, cap·x_m]`; the
    /// pair holds `x_m`. `tail_mass` is `1 − cap^(−α)`, the CDF mass
    /// between the bounds.
    BoundedPowerLaw {
        mean_factor: f64,
        inv_shape: f64,
        tail_mass: f64,
    },
    /// Periodic on/off availability: Poisson at `rate/duty` inside the
    /// "on" window of each cycle, silent outside it. The pair holds
    /// `duty/rate` and its phase. The exponential wait is drawn in
    /// *active time* and mapped to wall-clock time by skipping the off
    /// windows, so the process resumes exactly where it stopped.
    DutyCycled { duty: f64, period: f64, on_len: f64 },
}

/// One pair's calibrated process values (16 B): the rate (Poisson),
/// the minimum gap `x_m` (Pareto, bounded power law), μ (lognormal) or
/// `duty/rate` (duty cycle) — plus the duty cycle's phase, 0 otherwise.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairLaw {
    value: f64,
    phase: f64,
}

impl ProcessLaw {
    /// Calibrates a pair so its mean inter-session gap is `1 / rate`.
    /// `pair_seed` derives per-pair constants (the duty-cycle phase)
    /// without consuming the pair's contact RNG.
    pub(crate) fn calibrate(self, rate: f64, pair_seed: u64) -> PairLaw {
        let value = |value| PairLaw { value, phase: 0.0 };
        match self {
            ProcessLaw::Poisson => value(rate),
            // E[x_m · U^(-1/α)] = x_m · α/(α−1).
            ProcessLaw::Pareto { shape, .. } => value((shape - 1.0) / (shape * rate)),
            // E[exp(μ + σZ)] = exp(μ + σ²/2) = 1/rate.
            ProcessLaw::Lognormal { sigma } => value(-rate.ln() - 0.5 * sigma * sigma),
            ProcessLaw::BoundedPowerLaw { mean_factor, .. } => value(1.0 / (rate * mean_factor)),
            ProcessLaw::DutyCycled { duty, period, .. } => PairLaw {
                value: duty / rate,
                // Deterministic per-pair phase from the seed hash: no RNG
                // draw, so the sampler's draw count matches Poisson's.
                phase: crate::synthetic::hash_uniform01(pair_seed ^ DUTY_PHASE_SALT) * period,
            },
        }
    }

    /// Given the pair's session clock `t` (seconds since trace start),
    /// returns the start of its next session, drawing only from the
    /// pair's private RNG. Never less than `t`.
    pub(crate) fn next_session(self, pair: &PairLaw, t: f64, rng: &mut StdRng) -> f64 {
        match self {
            ProcessLaw::Poisson => {
                // Draw order and arithmetic are frozen: this is the
                // pre-trait generator's exact expression
                // (tests/poisson_golden.rs).
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                t + -u.ln() / pair.value
            }
            ProcessLaw::Pareto { inv_shape, .. } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                t + pair.value * u.powf(-inv_shape)
            }
            ProcessLaw::Lognormal { sigma } => {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                let z = (-2.0 * u1.ln()).sqrt() * u2.cos();
                t + (pair.value + sigma * z).exp()
            }
            ProcessLaw::BoundedPowerLaw {
                inv_shape,
                tail_mass,
                ..
            } => {
                let u: f64 = rng.gen_range(0.0..1.0);
                t + pair.value * (1.0 - u * tail_mass).powf(-inv_shape)
            }
            ProcessLaw::DutyCycled { period, on_len, .. } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let mut wait = -u.ln() * pair.value; // active seconds
                let mut t = t;
                // Align to the containing or next on-window.
                let x = (t - pair.phase).rem_euclid(period);
                if x >= on_len {
                    t += period - x;
                } else {
                    let available = on_len - x;
                    if wait < available {
                        return t + wait;
                    }
                    wait -= available;
                    t += available + (period - on_len);
                }
                // `t` is now at an on-window start; consume whole windows.
                let windows = (wait / on_len).floor();
                t += windows * period;
                wait -= windows * on_len;
                t + wait
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// One pair's session clock: `kind` calibrated to `rate` for
    /// `pair_seed`.
    fn sampler(
        kind: ContactProcessKind,
        rate: f64,
        pair_seed: u64,
    ) -> impl FnMut(f64, &mut StdRng) -> f64 {
        let law = kind.law();
        let pair = law.calibrate(rate, pair_seed);
        move |t, rng| law.next_session(&pair, t, rng)
    }

    /// Mean gap over `n` draws from a fresh sampler.
    fn mean_gap(kind: ContactProcessKind, rate: f64, n: usize) -> f64 {
        let mut next_session = sampler(kind, rate, 0xABCD);
        let mut rng = StdRng::seed_from_u64(42);
        let mut t = 0.0;
        let mut prev = 0.0;
        let mut sum = 0.0;
        for _ in 0..n {
            t = next_session(t, &mut rng);
            sum += t - prev;
            prev = t;
        }
        sum / n as f64
    }

    #[test]
    fn every_process_calibrates_to_the_target_rate() {
        let rate = 1.0 / 3600.0; // one session per hour
        for kind in ContactProcessKind::ALL {
            kind.validate();
            let mean = mean_gap(kind, rate, 200_000);
            let err = (mean - 3600.0).abs() / 3600.0;
            // Pareto α=1.5 has infinite variance: the sample mean
            // converges slowly, hence the loose band.
            let tol = if kind == ContactProcessKind::PARETO {
                0.25
            } else {
                0.05
            };
            assert!(
                err < tol,
                "{}: mean gap {mean:.1}s vs calibrated 3600s (err {err:.3})",
                kind.name()
            );
        }
    }

    #[test]
    fn duty_cycle_sessions_only_land_in_on_windows() {
        let kind = ContactProcessKind::DutyCycled {
            period_secs: 1000.0,
            duty: 0.25,
        };
        let mut next_session = sampler(kind, 1.0 / 500.0, 0x1234);
        // Recover the phase the sampler derived for this pair seed.
        let phase = crate::synthetic::hash_uniform01(0x1234 ^ DUTY_PHASE_SALT) * 1000.0;
        let mut rng = StdRng::seed_from_u64(7);
        let mut t = 0.0;
        for _ in 0..5_000 {
            let next = next_session(t, &mut rng);
            assert!(next >= t, "clock went backwards: {next} < {t}");
            t = next;
            let x = (t - phase).rem_euclid(1000.0);
            assert!(
                x < 250.0 + 1e-6,
                "session at {t} lands {x:.3}s into the cycle (on-window is 250s)"
            );
        }
    }

    #[test]
    fn bounded_power_law_respects_the_cap() {
        let kind = ContactProcessKind::BoundedPowerLaw {
            shape: 0.8,
            cap: 100.0,
        };
        let mut next_session = sampler(kind, 1.0 / 3600.0, 9);
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = 0.0;
        let mut min_gap = f64::INFINITY;
        let mut max_gap: f64 = 0.0;
        for _ in 0..50_000 {
            let next = next_session(t, &mut rng);
            let gap = next - t;
            min_gap = min_gap.min(gap);
            max_gap = max_gap.max(gap);
            t = next;
        }
        assert!(
            max_gap / min_gap <= 105.0,
            "observed gap ratio {:.1} exceeds the 100x cap",
            max_gap / min_gap
        );
    }

    #[test]
    fn names_round_trip() {
        for kind in ContactProcessKind::ALL {
            let parsed = ContactProcessKind::parse(kind.name()).expect("parses");
            assert_eq!(parsed.name(), kind.name());
        }
        assert_eq!(ContactProcessKind::parse("nonsense"), None);
    }

    #[test]
    fn configured_tails_are_exposed() {
        assert_eq!(ContactProcessKind::PARETO.tail_exponent(), Some(1.5));
        assert_eq!(
            ContactProcessKind::BOUNDED_POWER_LAW.tail_exponent(),
            Some(0.8)
        );
        assert_eq!(ContactProcessKind::Poisson.tail_exponent(), None);
        assert_eq!(ContactProcessKind::LOGNORMAL.tail_exponent(), None);
    }

    #[test]
    #[should_panic(expected = "Pareto shape")]
    fn sub_unit_pareto_shape_panics() {
        ContactProcessKind::Pareto { shape: 0.9 }.validate();
    }

    #[test]
    #[should_panic(expected = "duty fraction")]
    fn bad_duty_fraction_panics() {
        ContactProcessKind::DutyCycled {
            period_secs: 100.0,
            duty: 1.5,
        }
        .validate();
    }
}
