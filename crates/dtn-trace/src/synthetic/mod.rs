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
//!
//! This file holds the builder and its two entry points; `plan.rs`
//! computes what both share (calibration, kept pairs, per-pair seeds) and
//! `stream.rs` turns a plan into contacts: one lazy generator per pair,
//! merged by time block, which `build` drains into one `Vec` and
//! [`ContactStream`] holds open.

use dtn_core::ids::NodeId;
use dtn_core::time::{Duration, Time};

use crate::process::ContactProcessKind;
use crate::trace::{Contact, ContactTrace};
use crate::TracePreset;

mod plan;
mod stream;
#[cfg(test)]
mod tests;

pub(crate) use plan::hash_uniform01;
pub use stream::ContactStream;

use plan::TracePlan;
use stream::BlockMerge;

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
    /// Draws the exact same per-pair contact processes as
    /// [`SyntheticTraceBuilder::stream`] through the same block merge
    /// (both run off one shared internal plan), drained into one `Vec`
    /// reserved at the calibrated contact count, already in trace order.
    /// The two paths yield identical contact sequences for every
    /// configuration and seed; the streaming path just never holds more
    /// than `O(pairs)` state.
    pub fn build(&self) -> ContactTrace {
        let plan = self.plan();
        let (nodes, duration) = (plan.nodes, plan.trace_duration);
        ContactTrace::from_sorted(nodes, self.merge_blocks(plan), duration)
    }

    /// `build`'s contacts in `(start, a, b, end)` order, in a `Vec`
    /// reserved at the calibrated count before the merge's first block.
    fn merge_blocks(&self, plan: TracePlan) -> Vec<Contact> {
        let expected = self.calibrated_contacts() as usize;
        let mut merge = BlockMerge::new(plan, expected);
        let mut contacts = Vec::with_capacity(expected);
        while merge.fill(&mut contacts) {}
        contacts
    }

    /// Generates the trace as a time-ordered contact iterator without
    /// materializing it: under 120 B per kept pair (one lazy pair process
    /// and its share of two block buffers; [`ContactStream::heap_bytes`])
    /// regardless of how many contacts the trace contains. City-scale
    /// runs feed this straight into the simulator.
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
        ContactStream::new(self.plan(), self.calibrated_contacts() as usize)
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
