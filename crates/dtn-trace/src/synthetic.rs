//! Synthetic contact-trace generation.
//!
//! Substitutes the paper's proprietary traces (see DESIGN.md §2). The
//! model follows the paper's own assumptions:
//!
//! - each unordered node pair `(i, j)` meets according to a **Poisson
//!   process** with rate `λ_ij` (§III-B of the paper) by default — the
//!   per-pair law is pluggable via [`ContactProcessKind`] (heavy-tailed
//!   and duty-cycled alternatives, all calibrated to the same mean
//!   rate, for estimator-mismatch experiments);
//! - rates are heterogeneous: each node has a *sociability* weight `w_i`
//!   drawn from a truncated Pareto distribution and
//!   `λ_ij ∝ w_i · w_j · m_ij`, where `m_ij` boosts pairs in the same
//!   community — this yields the highly skewed NCL-metric distribution
//!   of Fig. 4;
//! - the proportionality constant is calibrated so the **expected total
//!   number of contacts** matches the preset's Table I figure;
//! - each contact lasts uniformly `[0.5g, 1.5g]` around the preset
//!   granularity `g`, mirroring how the real traces' detection intervals
//!   bound observable contact durations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dtn_core::ids::NodeId;
use dtn_core::time::{Duration, Time};

use crate::process::{ContactProcess, ContactProcessKind, PairSampler};
use crate::trace::{Contact, ContactTrace};
use crate::TracePreset;

/// Builder for synthetic contact traces.
///
/// # Example
///
/// ```
/// use dtn_core::time::Duration;
/// use dtn_trace::synthetic::SyntheticTraceBuilder;
///
/// let trace = SyntheticTraceBuilder::new(30)
///     .duration(Duration::days(2))
///     .target_contacts(5_000)
///     .communities(3)
///     .seed(7)
///     .build();
/// assert_eq!(trace.node_count(), 30);
/// // Poisson counts concentrate near the calibration target.
/// assert!((trace.contact_count() as f64 - 5_000.0).abs() < 500.0);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticTraceBuilder {
    nodes: usize,
    duration: Duration,
    granularity: Duration,
    target_contacts: u64,
    pareto_shape: f64,
    activity_sigma: f64,
    communities: usize,
    community_boost: f64,
    edge_density: f64,
    burstiness: f64,
    process: ContactProcessKind,
    seed: u64,
    scale: f64,
}

impl SyntheticTraceBuilder {
    /// Starts a builder for a population of `nodes` nodes with neutral
    /// defaults: one day, 120 s granularity, 50 contacts per node,
    /// moderate heterogeneity, no community structure.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes >= 2, "need at least two nodes to generate contacts");
        SyntheticTraceBuilder {
            nodes,
            duration: Duration::days(1),
            granularity: Duration::secs(120),
            target_contacts: 50 * nodes as u64,
            pareto_shape: 1.8,
            activity_sigma: 0.8,
            communities: 1,
            community_boost: 4.0,
            edge_density: 0.4,
            burstiness: 1.0,
            process: ContactProcessKind::Poisson,
            seed: 0,
            scale: 1.0,
        }
    }

    /// Starts a builder calibrated to one of the paper's Table I traces.
    pub fn from_preset(preset: TracePreset) -> Self {
        let mut b = SyntheticTraceBuilder::new(preset.node_count());
        b.duration = preset.duration();
        b.granularity = preset.granularity();
        b.target_contacts = preset.total_contacts();
        b.communities = match preset {
            // Conferences mix heavily; campus/city traces are clustered.
            TracePreset::Infocom05 | TracePreset::Infocom06 => 2,
            TracePreset::MitReality => 4,
            TracePreset::Ucsd => 8,
        };
        // Real contact graphs are sparse: conference attendees meet a
        // large share of their peers, campus populations only a few —
        // this sparsity is what makes the Fig. 4 metric distribution
        // skewed ("few nodes contact many others and act as the
        // communication hubs", §IV-B).
        b.edge_density = match preset {
            TracePreset::Infocom05 | TracePreset::Infocom06 => 0.5,
            TracePreset::MitReality => 0.12,
            TracePreset::Ucsd => 0.04,
        };
        b.pareto_shape = match preset {
            TracePreset::Infocom05 | TracePreset::Infocom06 => 1.8,
            TracePreset::MitReality | TracePreset::Ucsd => 1.4,
        };
        // Long traces accumulate strong participation heterogeneity
        // (devices switched off, dropouts); conferences less so.
        b.activity_sigma = match preset {
            TracePreset::Infocom05 => 2.2,
            TracePreset::Infocom06 => 2.6,
            TracePreset::MitReality => 3.0,
            TracePreset::Ucsd => 2.6,
        };
        b
    }

    /// Sets the lognormal σ of the per-node activity factor (default
    /// 0.8). Larger values produce more near-inactive nodes and a more
    /// skewed metric distribution.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn activity_sigma(mut self, sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "activity sigma must be finite and non-negative, got {sigma}"
        );
        self.activity_sigma = sigma;
        self
    }

    /// Sets the observation length.
    pub fn duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the mean contact duration (detection granularity).
    pub fn granularity(mut self, granularity: Duration) -> Self {
        self.granularity = granularity;
        self
    }

    /// Sets the expected total number of contacts to calibrate to.
    pub fn target_contacts(mut self, contacts: u64) -> Self {
        self.target_contacts = contacts;
        self
    }

    /// Sets the Pareto shape of the sociability distribution; smaller
    /// values mean heavier tails (more heterogeneity). Typical: 1.5–3.
    ///
    /// # Panics
    ///
    /// Panics if `shape <= 1.0` (the mean would diverge).
    pub fn heterogeneity(mut self, shape: f64) -> Self {
        assert!(shape > 1.0, "Pareto shape must exceed 1, got {shape}");
        self.pareto_shape = shape;
        self
    }

    /// Sets the number of equal-sized communities nodes are assigned to
    /// round-robin. Pairs within a community contact `community_boost`
    /// times more often.
    ///
    /// # Panics
    ///
    /// Panics if `communities == 0`.
    pub fn communities(mut self, communities: usize) -> Self {
        assert!(communities > 0, "need at least one community");
        self.communities = communities;
        self
    }

    /// Sets the intra-community contact-rate boost factor (default 4).
    ///
    /// # Panics
    ///
    /// Panics if `boost < 1.0`.
    pub fn community_boost(mut self, boost: f64) -> Self {
        assert!(boost >= 1.0, "community boost must be at least 1");
        self.community_boost = boost;
        self
    }

    /// Sets the fraction of node pairs that ever meet (default 0.4).
    /// Pairs are kept with probability proportional to their affinity,
    /// so sociable nodes keep more edges — the source of the skewed
    /// metric distribution of Fig. 4.
    ///
    /// # Panics
    ///
    /// Panics unless `density` is in `(0, 1]`.
    pub fn edge_density(mut self, density: f64) -> Self {
        assert!(
            density > 0.0 && density <= 1.0,
            "edge density must be in (0, 1], got {density}"
        );
        self.edge_density = density;
        self
    }

    /// Sets the mean number of contacts per co-location *session*
    /// (default 1 = pure Poisson contacts, the paper's §III-B model).
    ///
    /// Real Bluetooth/WiFi traces are bursty: two co-located devices are
    /// re-detected every scan interval, so one physical meeting shows up
    /// as a run of consecutive contact records. With `burstiness > 1`,
    /// pair meetings arrive as Poisson *sessions* whose contact-count is
    /// geometric with this mean, spaced one granularity apart. Total
    /// expected contacts still match the calibration target, but the
    /// independent-meeting rate drops by the burstiness factor —
    /// mirroring how raw contact counts overestimate meeting
    /// opportunities in real traces.
    ///
    /// # Panics
    ///
    /// Panics unless `mean_contacts_per_session >= 1.0`.
    pub fn burstiness(mut self, mean_contacts_per_session: f64) -> Self {
        assert!(
            mean_contacts_per_session >= 1.0 && mean_contacts_per_session.is_finite(),
            "burstiness must be a finite value ≥ 1, got {mean_contacts_per_session}"
        );
        self.burstiness = mean_contacts_per_session;
        self
    }

    /// Sets the per-pair inter-contact process (default
    /// [`ContactProcessKind::Poisson`], the paper's §III-B model). Every
    /// process is calibrated to the same mean session rate, so the
    /// expected contact count is invariant under this knob — only the
    /// gap distribution's shape changes.
    ///
    /// # Panics
    ///
    /// Panics if the process parameters are outside their documented
    /// domains (see [`ContactProcessKind::validate`]).
    pub fn contact_process(mut self, process: ContactProcessKind) -> Self {
        process.validate();
        self.process = process;
        self
    }

    /// Sets the RNG seed; the same builder with the same seed produces an
    /// identical trace.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scales duration *and* contact target by `factor`, preserving the
    /// contact density. Use small factors for fast tests and benches.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn scale(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale must be finite and positive, got {factor}"
        );
        self.scale = factor;
        self
    }

    /// Generates the trace, materialized in memory.
    ///
    /// This is the small-N reference path: it draws the exact same
    /// per-pair contact processes as [`SyntheticTraceBuilder::stream`]
    /// (both run off one shared internal plan), collects them, and
    /// lets [`ContactTrace::new`] sort. The two paths yield identical
    /// contact sequences for every configuration and seed; the streaming
    /// path just never holds more than `O(pairs)` state.
    pub fn build(&self) -> ContactTrace {
        let plan = self.plan();
        let mut contacts = Vec::new();
        for pair in &plan.pairs {
            let mut gen = PairContacts::new(pair, &plan);
            while let Some(c) = gen.next_raw() {
                contacts.push(c);
            }
        }
        ContactTrace::new(plan.nodes, contacts, plan.trace_duration)
    }

    /// Generates the trace as a time-ordered contact iterator without
    /// materializing it: memory stays `O(kept pairs)` (one lazy pair
    /// process plus one in-flight contact each) regardless of how many
    /// contacts the trace contains. City-scale runs feed this straight
    /// into the simulator.
    ///
    /// Yields exactly the contacts of [`SyntheticTraceBuilder::build`],
    /// in exactly `(start, a, b, end)` order.
    ///
    /// # Example
    ///
    /// ```
    /// use dtn_trace::synthetic::SyntheticTraceBuilder;
    ///
    /// let builder = SyntheticTraceBuilder::new(20).seed(3);
    /// let streamed: Vec<_> = builder.stream().collect();
    /// assert_eq!(streamed, builder.build().contacts());
    /// ```
    pub fn stream(&self) -> ContactStream {
        ContactStream::new(self.plan())
    }

    /// Computes everything both generation paths share: calibrated
    /// durations, the kept-pair set, and each pair's session rate and
    /// derived RNG seed. `O(kept pairs)` memory.
    fn plan(&self) -> TracePlan {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let duration = self.duration.mul_f64(self.scale);
        let target = (self.target_contacts as f64 * self.scale).round().max(1.0);
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
            span,
            granularity_secs: self.granularity.as_secs().max(1),
            burstiness: self.burstiness,
            process: self.process,
            pairs,
        }
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
struct TracePlan {
    nodes: usize,
    trace_duration: Duration,
    span: f64,
    granularity_secs: u64,
    burstiness: f64,
    process: ContactProcessKind,
    pairs: Vec<PlannedPair>,
}

/// One kept pair: endpoints, calibrated session rate, and the seed of
/// its private contact-process RNG.
#[derive(Debug, Clone, Copy)]
struct PlannedPair {
    a: NodeId,
    b: NodeId,
    session_rate: f64,
    rng_seed: u64,
}

/// Lazy generator of one pair's raw contact sequence — the pluggable
/// session process (`ContactProcess`) with geometric re-detection
/// runs, emitted one contact at a time. Both generation paths run this
/// exact state machine, so their per-pair sequences are identical by
/// construction.
struct PairContacts {
    a: NodeId,
    b: NodeId,
    rng: StdRng,
    sampler: PairSampler,
    burstiness: f64,
    granularity_secs: u64,
    duration_secs: u64,
    span: f64,
    /// Continuous session-process clock.
    t: f64,
    /// Start slot of the next contact in the current run.
    session_t: u64,
    /// Contacts left in the current run.
    run_left: u64,
    /// Whether a run is open (its end-of-run clock update still due).
    in_run: bool,
    done: bool,
}

impl PairContacts {
    fn new(pair: &PlannedPair, plan: &TracePlan) -> Self {
        PairContacts {
            a: pair.a,
            b: pair.b,
            rng: StdRng::seed_from_u64(pair.rng_seed),
            sampler: plan.process.sampler(pair.session_rate, pair.rng_seed),
            burstiness: plan.burstiness,
            granularity_secs: plan.granularity_secs,
            duration_secs: plan.trace_duration.as_secs(),
            span: plan.span,
            t: 0.0,
            session_t: 0,
            run_left: 0,
            in_run: false,
            done: false,
        }
    }

    /// The next raw contact in generation order (starts nondecreasing;
    /// `(start, end)` may be locally inverted across run boundaries when
    /// truncation ties two starts — [`PairStream`] restores full order).
    fn next_raw(&mut self) -> Option<Contact> {
        if self.done {
            return None;
        }
        let g = self.granularity_secs;
        loop {
            if self.run_left == 0 {
                if self.in_run {
                    // Resume the session process from the start of the
                    // run's last contact (a renewal restart; for the
                    // memoryless Poisson reference this is exactly the
                    // pre-trait continuation, and for single-contact
                    // sessions `t` is unchanged).
                    self.t = self.t.max(self.session_t.saturating_sub(g) as f64);
                    self.in_run = false;
                }
                self.t = self.sampler.next_session(self.t, &mut self.rng);
                if self.t >= self.span {
                    self.done = true;
                    return None;
                }
                self.run_left = if self.burstiness > 1.0 {
                    // Geometric with mean B: 1 + floor(ln u / ln(1 − 1/B))
                    let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                    1 + (u.ln() / (1.0 - 1.0 / self.burstiness).ln()) as u64
                } else {
                    1
                };
                self.session_t = self.t as u64;
                self.in_run = true;
            }
            if self.session_t >= self.duration_secs {
                // The rest of the run falls past the observation end.
                self.run_left = 0;
                continue;
            }
            self.run_left -= 1;
            let start = Time(self.session_t);
            let len = self.rng.gen_range(g.div_ceil(2)..=g + g / 2).max(1);
            let end = Time((self.session_t + len).min(self.duration_secs.max(self.session_t + 1)));
            // Next re-detection one granularity later.
            self.session_t += g;
            if end > start {
                return Some(Contact::new(self.a, self.b, start, end));
            }
        }
    }
}

/// Wraps a [`PairContacts`] to emit the pair's contacts in full
/// `(start, end)` order: raw contacts arrive with nondecreasing starts,
/// so buffering each group of equal starts and stable-sorting it by end
/// reproduces exactly what the materialized path's global stable sort
/// does within the pair.
struct PairStream {
    gen: PairContacts,
    /// Contacts sharing the current start, sorted by end.
    group: Vec<Contact>,
    group_pos: usize,
    /// First raw contact with a later start, pulled while grouping.
    lookahead: Option<Contact>,
}

impl PairStream {
    fn new(gen: PairContacts) -> Self {
        PairStream {
            gen,
            group: Vec::new(),
            group_pos: 0,
            lookahead: None,
        }
    }

    fn next_contact(&mut self) -> Option<Contact> {
        if self.group_pos < self.group.len() {
            let c = self.group[self.group_pos];
            self.group_pos += 1;
            return Some(c);
        }
        self.group.clear();
        self.group_pos = 0;
        let first = self.lookahead.take().or_else(|| self.gen.next_raw())?;
        let start = first.start;
        self.group.push(first);
        loop {
            match self.gen.next_raw() {
                Some(c) if c.start == start => self.group.push(c),
                other => {
                    self.lookahead = other;
                    break;
                }
            }
        }
        // Stable by end: ties keep generation order, matching the
        // materialized path's stable global sort.
        self.group.sort_by_key(|c| c.end);
        self.group_pos = 1;
        Some(self.group[0])
    }
}

/// Entry of the k-way merge: one pair's next contact, ordered by the
/// trace sort key `(start, a, b, end)`.
struct MergeEntry {
    contact: Contact,
    pair: usize,
}

impl MergeEntry {
    fn key(&self) -> (Time, NodeId, NodeId, Time) {
        (
            self.contact.start,
            self.contact.a,
            self.contact.b,
            self.contact.end,
        )
    }
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for MergeEntry {}
impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse for ascending emission.
        other.key().cmp(&self.key())
    }
}

/// A time-ordered stream of synthetic contacts, produced by
/// [`SyntheticTraceBuilder::stream`].
///
/// A k-way heap merge over one lazy per-pair contact process per kept
/// pair: memory is `O(kept pairs)` and independent of the contact
/// count, which is what lets 100k–1M-node traces feed a simulation
/// without ever existing in RAM. Yields exactly the contacts of
/// [`SyntheticTraceBuilder::build`] in `(start, a, b, end)` order.
pub struct ContactStream {
    nodes: usize,
    trace_duration: Duration,
    pairs: Vec<PairStream>,
    heap: std::collections::BinaryHeap<MergeEntry>,
}

impl ContactStream {
    fn new(plan: TracePlan) -> Self {
        let mut pairs: Vec<PairStream> = plan
            .pairs
            .iter()
            .map(|p| PairStream::new(PairContacts::new(p, &plan)))
            .collect();
        let mut heap = std::collections::BinaryHeap::with_capacity(pairs.len());
        for (idx, pair) in pairs.iter_mut().enumerate() {
            if let Some(contact) = pair.next_contact() {
                heap.push(MergeEntry { contact, pair: idx });
            }
        }
        ContactStream {
            nodes: plan.nodes,
            trace_duration: plan.trace_duration,
            pairs,
            heap,
        }
    }

    /// Number of nodes of the (virtual) trace.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Observation length of the (virtual) trace; every yielded contact
    /// ends at or before it.
    pub fn duration(&self) -> Duration {
        self.trace_duration
    }
}

impl Iterator for ContactStream {
    type Item = Contact;

    fn next(&mut self) -> Option<Contact> {
        let entry = self.heap.pop()?;
        if let Some(contact) = self.pairs[entry.pair].next_contact() {
            self.heap.push(MergeEntry {
                contact,
                pair: entry.pair,
            });
        }
        Some(entry.contact)
    }
}

/// A two-regime trace with a mid-run mobility shift: the first half is
/// one synthetic trace, the second half an independently seeded trace
/// with the node identities **reversed**, so the sociable hubs of the
/// warm-up regime go quiet exactly at the midpoint and new hubs take
/// over. Warm-up-frozen NCL selections are maximally stale on the
/// second half, which is what the online re-election experiments
/// measure.
///
/// `half_contacts` is the calibration target for *each* half and
/// `half` its duration; the returned trace spans `2 × half` with
/// [`ContactTrace::midpoint`] exactly at the regime boundary.
///
/// # Example
///
/// ```
/// use dtn_core::time::Duration;
/// use dtn_trace::synthetic::regime_shift_trace;
///
/// let trace = regime_shift_trace(20, 3_000, 7, Duration::days(1));
/// assert_eq!(trace.node_count(), 20);
/// assert_eq!(trace.midpoint(), dtn_core::time::Time(86_400));
/// ```
pub fn regime_shift_trace(
    nodes: usize,
    half_contacts: u64,
    seed: u64,
    half: Duration,
) -> ContactTrace {
    let build_half = |s: u64| {
        SyntheticTraceBuilder::new(nodes)
            .duration(half)
            .target_contacts(half_contacts)
            .activity_sigma(2.0)
            .edge_density(0.25)
            .seed(s)
            .build()
    };
    let first = build_half(seed);
    let second = build_half(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    let mut contacts = first.contacts().to_vec();
    let flip = |n: NodeId| NodeId((nodes - 1 - n.index()) as u32);
    let end = half + half;
    contacts.extend(second.contacts().iter().map(|c| {
        Contact::new(
            flip(c.a),
            flip(c.b),
            Time(c.start.as_secs() + half.as_secs()),
            Time(c.end.as_secs() + half.as_secs()),
        )
    }));
    // Drop the stragglers past 2×half so the combined duration — and
    // therefore the midpoint — stays exact.
    contacts.retain(|c| c.end.as_secs() <= end.as_secs());
    ContactTrace::new(nodes, contacts, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::graph::ContactGraph;
    use dtn_core::ncl::{all_metrics, metric_skew};

    #[test]
    fn regime_shift_trace_moves_the_hubs() {
        let half = Duration::days(1);
        let t = regime_shift_trace(20, 3_000, 9, half);
        assert_eq!(t.midpoint(), Time(half.as_secs()));
        let first = t.slice(Time::ZERO, t.midpoint());
        let second = t.slice(t.midpoint(), Time(t.duration().as_secs()));
        let hub = |tr: &ContactTrace| {
            tr.node_contact_counts()
                .iter()
                .enumerate()
                .max_by_key(|&(_, &c)| c)
                .map(|(i, _)| i)
                .unwrap()
        };
        assert_ne!(
            hub(&first),
            hub(&second),
            "the busiest node must change across the regime boundary"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = SyntheticTraceBuilder::new(10).seed(3).build();
        let b = SyntheticTraceBuilder::new(10).seed(3).build();
        assert_eq!(a, b);
        let c = SyntheticTraceBuilder::new(10).seed(4).build();
        assert_ne!(a, c);
    }

    #[test]
    fn contact_count_matches_target_within_tolerance() {
        let target = 10_000;
        let t = SyntheticTraceBuilder::new(40)
            .duration(Duration::days(3))
            .target_contacts(target)
            .seed(11)
            .build();
        let got = t.contact_count() as f64;
        assert!(
            (got - target as f64).abs() < 0.1 * target as f64,
            "got {got} contacts for target {target}"
        );
    }

    #[test]
    fn contacts_lie_within_duration() {
        let t = SyntheticTraceBuilder::new(15)
            .duration(Duration::hours(6))
            .seed(2)
            .build();
        for c in t.contacts() {
            assert!(c.start < c.end);
            assert!(c.end.as_secs() <= t.duration().as_secs());
        }
    }

    #[test]
    fn scale_shrinks_duration_and_contacts_proportionally() {
        let full = SyntheticTraceBuilder::new(30)
            .duration(Duration::days(4))
            .target_contacts(20_000)
            .seed(5)
            .build();
        let tenth = SyntheticTraceBuilder::new(30)
            .duration(Duration::days(4))
            .target_contacts(20_000)
            .scale(0.1)
            .seed(5)
            .build();
        assert_eq!(tenth.duration(), Duration::days(4).mul_f64(0.1));
        let ratio = tenth.contact_count() as f64 / full.contact_count() as f64;
        assert!((ratio - 0.1).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn preset_matches_table_one_statistics() {
        // Scaled down 20× to keep the test fast; density is preserved.
        let t = SyntheticTraceBuilder::from_preset(TracePreset::Infocom05)
            .scale(0.05)
            .seed(1)
            .build();
        assert_eq!(t.node_count(), 41);
        let expected = 22_459.0 * 0.05;
        let got = t.contact_count() as f64;
        assert!(
            (got - expected).abs() < 0.25 * expected,
            "got {got}, expected ≈{expected}"
        );
    }

    #[test]
    fn metric_distribution_is_skewed_like_fig4() {
        // The heterogeneity knob must produce a clearly skewed NCL-metric
        // distribution (the paper reports up-to-tenfold max/median).
        let t = SyntheticTraceBuilder::new(40)
            .duration(Duration::days(2))
            .target_contacts(4_000)
            .heterogeneity(1.5)
            .seed(9)
            .build();
        let table = t.rate_table(Time(t.duration().as_secs()));
        let g = ContactGraph::from_rate_table(&table, Time(t.duration().as_secs()));
        let skew = metric_skew(&all_metrics(&g, 3600.0));
        assert!(skew.max_over_median > 1.5, "skew {skew:?}");
    }

    #[test]
    fn communities_concentrate_contacts() {
        let base = SyntheticTraceBuilder::new(20)
            .duration(Duration::days(1))
            .target_contacts(4_000)
            .communities(4)
            .community_boost(8.0)
            .seed(13);
        let t = base.build();
        let (mut intra, mut inter) = (0u64, 0u64);
        for c in t.contacts() {
            if c.a.index() % 4 == c.b.index() % 4 {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        // 4 communities of 5 nodes: intra pairs = 4·C(5,2)=40 of 190
        // total. With an 8× boost, intra contacts must clearly dominate
        // their 21% pair share.
        let intra_share = intra as f64 / (intra + inter) as f64;
        assert!(intra_share > 0.5, "intra share {intra_share}");
    }

    #[test]
    fn burstiness_preserves_contact_count_but_clusters_meetings() {
        let base = SyntheticTraceBuilder::new(20)
            .duration(Duration::days(4))
            .target_contacts(12_000)
            .granularity(Duration::secs(120))
            .seed(31);
        let smooth = base.clone().build();
        let bursty = base.clone().burstiness(6.0).build();
        // Calibration holds for both.
        let (s, b) = (smooth.contact_count() as f64, bursty.contact_count() as f64);
        assert!((s - 12_000.0).abs() < 1_800.0, "smooth {s}");
        assert!((b - 12_000.0).abs() < 3_000.0, "bursty {b}");
        // Bursty contacts cluster: many consecutive same-pair gaps of
        // exactly one granularity.
        let count_small_gaps = |t: &ContactTrace| {
            let mut small = 0u32;
            let mut total = 0u32;
            for pair in crate::analysis::aggregate_intercontact_times(t) {
                total += 1;
                if pair.as_secs() <= 120 {
                    small += 1;
                }
            }
            small as f64 / total.max(1) as f64
        };
        assert!(
            count_small_gaps(&bursty) > 2.0 * count_small_gaps(&smooth),
            "bursty trace must have far more back-to-back contacts"
        );
    }

    #[test]
    fn calibration_is_invariant_under_the_process_choice() {
        // The acceptance bar for "figures stay comparable": every
        // process must land near the same contact target. Heavy-tailed
        // gap laws converge slowly, hence the per-process bands.
        let target = 12_000.0;
        for kind in ContactProcessKind::ALL {
            let t = SyntheticTraceBuilder::new(30)
                .duration(Duration::days(6))
                .target_contacts(12_000)
                .contact_process(kind)
                .seed(77)
                .build();
            let got = t.contact_count() as f64;
            let tol = match kind {
                ContactProcessKind::Poisson => 0.10,
                // One Pareto draw can swallow a pair's whole span.
                _ => 0.30,
            };
            assert!(
                (got - target).abs() < tol * target,
                "{}: got {got} contacts for target {target}",
                kind.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "duty fraction")]
    fn invalid_process_parameters_panic_at_the_builder() {
        let _ = SyntheticTraceBuilder::new(5).contact_process(ContactProcessKind::DutyCycled {
            period_secs: 3600.0,
            duty: 0.0,
        });
    }

    #[test]
    #[should_panic(expected = "burstiness")]
    fn sub_one_burstiness_panics() {
        let _ = SyntheticTraceBuilder::new(5).burstiness(0.5);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn one_node_population_panics() {
        let _ = SyntheticTraceBuilder::new(1);
    }

    #[test]
    #[should_panic(expected = "shape must exceed 1")]
    fn bad_shape_panics() {
        let _ = SyntheticTraceBuilder::new(5).heterogeneity(0.9);
    }

    #[test]
    fn stream_matches_build_across_configurations() {
        let builders = [
            SyntheticTraceBuilder::new(12).seed(7),
            SyntheticTraceBuilder::new(30)
                .seed(17)
                .communities(3)
                .community_boost(6.0),
            SyntheticTraceBuilder::new(25).seed(23).burstiness(4.0),
            SyntheticTraceBuilder::new(40).seed(5).scale(0.3),
            SyntheticTraceBuilder::from_preset(TracePreset::Infocom05).scale(0.05),
            SyntheticTraceBuilder::new(18)
                .seed(11)
                .contact_process(ContactProcessKind::PARETO),
            SyntheticTraceBuilder::new(18)
                .seed(13)
                .contact_process(ContactProcessKind::LOGNORMAL),
            SyntheticTraceBuilder::new(18)
                .seed(19)
                .contact_process(ContactProcessKind::BOUNDED_POWER_LAW),
            SyntheticTraceBuilder::new(18)
                .seed(29)
                .burstiness(3.0)
                .contact_process(ContactProcessKind::DUTY_CYCLED),
        ];
        for builder in builders {
            let built = builder.build();
            let stream = builder.stream();
            assert_eq!(stream.node_count(), built.node_count());
            assert_eq!(stream.duration(), built.duration());
            let streamed: Vec<Contact> = stream.collect();
            assert_eq!(streamed, built.contacts(), "stream != build");
        }
    }

    #[test]
    fn sampled_mode_streams_in_order_and_in_bounds() {
        // Above EXACT_PAIR_SWEEP_LIMIT the skip-sampled pair selection
        // kicks in; the stream must still be sorted by the trace key
        // and every contact must respect the node and time bounds.
        let builder = SyntheticTraceBuilder::new(3000)
            .duration(Duration::hours(6))
            .target_contacts(40_000)
            .edge_density(0.01)
            .communities(8)
            .seed(41);
        let stream = builder.stream();
        let duration = stream.duration();
        let mut count = 0usize;
        let mut prev: Option<Contact> = None;
        for c in stream {
            assert!(c.a.index() < 3000 && c.b.index() < 3000);
            assert!(c.a < c.b, "contacts are endpoint-normalized");
            assert!(c.end <= Time(duration.as_secs()));
            assert!(c.start < c.end);
            if let Some(p) = prev {
                assert!(
                    (p.start, p.a, p.b, p.end) <= (c.start, c.a, c.b, c.end),
                    "stream out of order: {p:?} before {c:?}"
                );
            }
            prev = Some(c);
            count += 1;
        }
        // Calibration is statistical; sampled pair selection keeps the
        // contact target within a loose band.
        assert!(
            (20_000..=80_000).contains(&count),
            "contact count {count} far from target"
        );
    }

    #[test]
    fn sampled_mode_concentrates_intra_community_contacts() {
        let builder = SyntheticTraceBuilder::new(2500)
            .duration(Duration::hours(6))
            .target_contacts(30_000)
            .edge_density(0.01)
            .communities(5)
            .community_boost(8.0)
            .seed(19);
        let mut intra = 0usize;
        let mut total = 0usize;
        for c in builder.stream() {
            if c.a.index() % 5 == c.b.index() % 5 {
                intra += 1;
            }
            total += 1;
        }
        // 5 communities: uniform mixing would put ~20% of contacts
        // intra-community; the boost must pull well past that.
        assert!(total > 1_000, "degenerate trace: {total} contacts");
        assert!(
            intra as f64 / total as f64 > 0.4,
            "intra share {:.3} too low",
            intra as f64 / total as f64
        );
    }

    #[test]
    fn empty_pair_plan_yields_empty_stream() {
        // With edge density driven to the floor and only two nodes the
        // kept-pair set can be empty; both paths must agree on that too.
        let builder = SyntheticTraceBuilder::new(2).edge_density(1e-9).seed(101);
        let built = builder.build();
        let streamed: Vec<Contact> = builder.stream().collect();
        assert_eq!(streamed, built.contacts());
    }
}
