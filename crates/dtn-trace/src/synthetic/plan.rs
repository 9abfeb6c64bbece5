//! The per-pair contact plan both generation paths share: calibration,
//! kept-pair selection and the derived per-pair randomness.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dtn_core::ids::NodeId;
use dtn_core::time::Duration;

use super::SyntheticTraceBuilder;
use crate::process::ProcessLaw;

impl SyntheticTraceBuilder {
    /// Computes everything both generation paths share: calibrated
    /// durations, the kept-pair set, and each pair's session rate and
    /// derived RNG seed. `O(kept pairs)` memory.
    pub(super) fn plan(&self) -> TracePlan {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let duration = self.duration.mul_f64(self.scale);
        let target = self.calibrated_contacts();
        let span = duration.as_secs_f64().max(1.0);

        // Per-node sociability: a truncated Pareto(shape, x_m = 1) upper
        // tail (hubs) multiplied by a lognormal activity factor that
        // also produces a heavy *lower* tail — real traces contain many
        // near-inactive devices, and that inactivity is what keeps the
        // median NCL metric far below the hubs' (Fig. 4).
        let weights: Vec<f64> = (0..self.nodes)
            .map(|_| {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let pareto = u.powf(-1.0 / self.pareto_shape).min(SOCIABILITY_CAP);
                // Box-Muller standard normal for the activity factor.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                let z = (-2.0 * u1.ln()).sqrt() * u2.cos();
                pareto * (self.activity_sigma * z).exp()
            })
            .collect();

        // Select which pairs ever meet: keep probability proportional to
        // affinity (capped at 1), scaled so the expected kept fraction is
        // `edge_density`. Sociable nodes keep more edges, producing the
        // skewed, sparse contact graphs of real traces (Fig. 4). Small
        // populations enumerate every pair exactly; large ones skip-sample.
        let kept = if self.nodes <= EXACT_PAIR_SWEEP_LIMIT {
            self.keep_pairs_exact(&weights)
        } else {
            self.keep_pairs_sampled(&weights)
        };

        // Calibrate the global rate constant over the kept pairs so that
        // Σ λ_ij · duration = target contacts.
        let affinity_sum: f64 = kept.iter().map(|&(_, _, a)| a).sum();
        let mut pairs = Vec::with_capacity(kept.len());
        if affinity_sum > 0.0 {
            let c = target / (affinity_sum * span);
            // With burstiness B, meetings arrive as sessions at rate/B
            // and each emits a geometric(mean B) run of contacts —
            // expected total contacts stay calibrated.
            for &(i, j, affinity) in &kept {
                pairs.push(PlannedPair {
                    a: NodeId(i),
                    b: NodeId(j),
                    session_rate: c * affinity / self.burstiness,
                    rng_seed: mix64(pair_key(self.seed, i, j) ^ PAIR_PROCESS_SALT),
                });
            }
        }
        TracePlan {
            nodes: self.nodes,
            trace_duration: duration,
            constants: PlanConstants {
                law: self.process.law(),
                // Geometric runs with mean B continue with probability
                // 1 − 1/B; the log is taken once here, not per session.
                run_ln_continue: (self.burstiness > 1.0)
                    .then(|| (1.0 - 1.0 / self.burstiness).ln()),
                granularity_secs: self.granularity.as_secs().max(1),
                duration_secs: duration.as_secs(),
                span,
            },
            pairs,
        }
    }

    /// The expected contact count the plan calibrates to.
    pub(super) fn calibrated_contacts(&self) -> f64 {
        (self.target_contacts as f64 * self.scale).round().max(1.0)
    }

    /// Exact pair selection: enumerate all `C(N, 2)` affinities, binary
    /// search the multiplier `k` with `Σ min(1, k·a)` = the edge target,
    /// and keep each pair by its own derived uniform.
    fn keep_pairs_exact(&self, weights: &[f64]) -> Vec<(u32, u32, f64)> {
        let mut affinities = Vec::with_capacity(self.nodes * (self.nodes - 1) / 2);
        for i in 0..self.nodes {
            for j in (i + 1)..self.nodes {
                affinities.push((
                    i as u32,
                    j as u32,
                    weights[i] * weights[j] * self.pair_boost(i, j),
                ));
            }
        }
        let pair_count = affinities.len() as f64;
        let target_edges = self.edge_density * pair_count;
        // Binary search the affinity multiplier k with Σ min(1, k·a) =
        // target_edges (monotone in k).
        let kept_expectation =
            |k: f64| -> f64 { affinities.iter().map(|&(_, _, a)| (k * a).min(1.0)).sum() };
        let mut lo = 0.0f64;
        let mut hi = 1.0f64;
        while kept_expectation(hi) < target_edges && hi < 1e12 {
            hi *= 2.0;
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if kept_expectation(mid) < target_edges {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let k = hi;
        affinities
            .into_iter()
            .filter(|&(i, j, a)| {
                uniform01(mix64(pair_key(self.seed, i, j) ^ PAIR_KEEP_SALT)) < (k * a).min(1.0)
            })
            .collect()
    }

    /// Skip-sampled pair selection for populations where enumerating
    /// `C(N, 2)` pairs is infeasible (Miller–Hagberg style Chung-Lu
    /// sampling): nodes are sorted by weight, each source walks its
    /// heavier-to-lighter candidate list with geometric skips drawn
    /// against the monotone proposal bound `min(1, k·boost·wᵢ·wⱼ)`, and
    /// landed candidates are thinned to the exact pair probability
    /// `min(1, k·a)`. Expected work is `O(N + kept)`.
    ///
    /// The multiplier `k` comes from the closed form
    /// `k = target_edges / Σ a` (with `Σ a` computed in `O(N)` from
    /// weight sums) instead of the exact-capped binary search, so the
    /// realized edge count can undershoot the target where `k·a` exceeds
    /// 1 — hub pairs — by design an edge-density approximation, while
    /// the *contact* calibration below stays exact because it sums
    /// affinities over the actually-kept pairs.
    fn keep_pairs_sampled(&self, weights: &[f64]) -> Vec<(u32, u32, f64)> {
        let n = self.nodes;
        let boost = if self.communities > 1 {
            self.community_boost
        } else {
            1.0
        };
        let pair_count = n as f64 * (n as f64 - 1.0) / 2.0;
        let target_edges = self.edge_density * pair_count;
        // Σ a in closed form: the unboosted term over all pairs plus the
        // boost surplus over intra-community pairs (node i lives in
        // community i % m).
        let sum_w: f64 = weights.iter().sum();
        let sum_w2: f64 = weights.iter().map(|w| w * w).sum();
        let mut affinity_total = (sum_w * sum_w - sum_w2) / 2.0;
        if self.communities > 1 {
            let m = self.communities;
            let mut s = vec![0.0f64; m];
            let mut q = vec![0.0f64; m];
            for (i, &w) in weights.iter().enumerate() {
                s[i % m] += w;
                q[i % m] += w * w;
            }
            for c in 0..m {
                affinity_total += (boost - 1.0) * (s[c] * s[c] - q[c]) / 2.0;
            }
        }
        if affinity_total <= 0.0 {
            return Vec::new();
        }
        let k = target_edges / affinity_total;

        // Weight-descending node order (ties by id) makes the proposal
        // bound non-increasing along each source's candidate walk.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&x, &y| {
            weights[y as usize]
                .total_cmp(&weights[x as usize])
                .then(x.cmp(&y))
        });

        let mut kept = Vec::new();
        for si in 0..n.saturating_sub(1) {
            let i = order[si];
            let wi = weights[i as usize];
            let mut rng =
                StdRng::seed_from_u64(mix64(self.seed ^ EDGE_SAMPLE_SALT ^ (u64::from(i) << 20)));
            let mut sj = si + 1;
            while sj < n {
                let q = (k * boost * wi * weights[order[sj] as usize]).min(1.0);
                if q <= 0.0 {
                    break;
                }
                if q < 1.0 {
                    // Geometric number of candidates rejected by the
                    // proposal bound before the next landing.
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    let skip = u.ln() / (1.0 - q).ln();
                    if skip >= (n - sj) as f64 {
                        break;
                    }
                    sj += skip as usize;
                }
                let j = order[sj];
                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                let a = wi * weights[j as usize] * self.pair_boost(lo as usize, hi as usize);
                let p = (k * a).min(1.0);
                // Thin the proposal down to the exact pair probability.
                let u: f64 = rng.gen_range(0.0..1.0);
                if u * q < p {
                    kept.push((lo, hi, a));
                }
                sj += 1;
            }
        }
        kept
    }

    fn pair_boost(&self, i: usize, j: usize) -> f64 {
        if self.communities > 1 && i % self.communities == j % self.communities {
            self.community_boost
        } else {
            1.0
        }
    }
}

/// Cap on the Pareto sociability weights: bounds the share of all
/// contacts a hub node can absorb.
const SOCIABILITY_CAP: f64 = 25.0;

/// Populations up to this size select pairs by exact enumeration
/// ([`SyntheticTraceBuilder::plan`]); larger ones switch to skip
/// sampling. `C(2048, 2) ≈ 2.1 M` pairs is the last cheap sweep.
const EXACT_PAIR_SWEEP_LIMIT: usize = 2048;

/// Domain-separation salts for the derived per-pair randomness.
const PAIR_KEEP_SALT: u64 = 0x9E6C_5A0B_11C4_93D1;
const PAIR_PROCESS_SALT: u64 = 0x3C79_AC49_2F1E_8889;
const EDGE_SAMPLE_SALT: u64 = 0xD1B5_4A32_D192_ED03;

/// SplitMix64 finalizer: a cheap, well-mixed u64 → u64 hash.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Mixes a builder seed and an unordered pair into one key, so every
/// pair's randomness is independent of enumeration order — the property
/// that lets the streaming and materialized paths agree exactly.
fn pair_key(seed: u64, i: u32, j: u32) -> u64 {
    mix64(seed.wrapping_add(mix64((u64::from(i) << 32) | u64::from(j))))
}

/// Maps a hash to a uniform in `[0, 1)` (53-bit mantissa).
fn uniform01(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Hashes `x` to a uniform in `[0, 1)` — for per-pair derived constants
/// (e.g. duty-cycle phases) that must not consume any RNG stream.
pub(crate) fn hash_uniform01(x: u64) -> f64 {
    uniform01(mix64(x))
}

/// Everything the two generation paths share: calibration results plus
/// one entry per kept pair.
#[derive(Debug, Clone)]
pub(super) struct TracePlan {
    pub(super) nodes: usize,
    pub(super) trace_duration: Duration,
    pub(super) constants: PlanConstants,
    pub(super) pairs: Vec<PlannedPair>,
}

/// What every pair's contact process reads and no pair owns: one copy
/// per plan, held by the stream and read by `build()`'s loop alike.
#[derive(Debug, Clone, Copy)]
pub(super) struct PlanConstants {
    /// The session law's shared parameters.
    pub(super) law: ProcessLaw,
    /// `ln(1 − 1/B)` for a burstiness B above 1; `None` when every
    /// session is one contact.
    pub(super) run_ln_continue: Option<f64>,
    /// Re-detection spacing within a session, seconds (≥ 1).
    pub(super) granularity_secs: u64,
    /// Observation end: no contact starts at or after it.
    pub(super) duration_secs: u64,
    /// Session clock horizon (the duration, at least 1 s).
    pub(super) span: f64,
}

/// One kept pair: endpoints, calibrated session rate, and the seed of
/// its private contact-process RNG.
#[derive(Debug, Clone, Copy)]
pub(super) struct PlannedPair {
    pub(super) a: NodeId,
    pub(super) b: NodeId,
    pub(super) session_rate: f64,
    pub(super) rng_seed: u64,
}
