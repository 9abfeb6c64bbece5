//! Online estimation of pairwise contact rates.
//!
//! The paper models the contacts of each node pair as a Poisson process
//! whose rate `λ_ij` "is calculated at real-time from the cumulative
//! contacts between nodes i and j in a time-average manner" (§III-B).
//! [`RateTable`] holds one such estimator per unordered pair of a fixed
//! node population.

use crate::ids::NodeId;
use crate::time::Time;

/// Cumulative time-averaged Poisson rate estimator for one node pair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct RateEstimator {
    observed_since: Time,
    contacts: u64,
    last_contact: Option<Time>,
    /// Exponentially weighted moving average of inter-contact gaps.
    ewma_gap_secs: Option<f64>,
    /// Number of positive inter-contact gaps folded into the moments.
    gap_count: u64,
    /// Running sum of positive inter-contact gaps, in seconds.
    gap_sum_secs: f64,
    /// Running sum of squared positive inter-contact gaps.
    gap_sq_sum_secs: f64,
}

/// Smoothing factor of the EWMA inter-contact estimator: the weight of
/// the newest gap.
const EWMA_ALPHA: f64 = 0.25;

impl RateEstimator {
    /// Creates an estimator observing from `since` with no contacts yet.
    fn new(since: Time) -> Self {
        RateEstimator {
            observed_since: since,
            contacts: 0,
            last_contact: None,
            ewma_gap_secs: None,
            gap_count: 0,
            gap_sum_secs: 0.0,
            gap_sq_sum_secs: 0.0,
        }
    }

    /// Records one contact between the pair.
    fn record_contact(&mut self, at: Time) {
        if let Some(prev) = self.last_contact {
            let gap = at.saturating_since(prev).as_secs_f64();
            if gap > 0.0 {
                self.ewma_gap_secs = Some(match self.ewma_gap_secs {
                    Some(ewma) => EWMA_ALPHA * gap + (1.0 - EWMA_ALPHA) * ewma,
                    None => gap,
                });
                self.gap_count += 1;
                self.gap_sum_secs += gap;
                self.gap_sq_sum_secs += gap * gap;
            }
        }
        self.last_contact = Some(self.last_contact.map_or(at, |t| t.max(at)));
        self.contacts += 1;
    }

    /// Number of contacts recorded so far.
    fn contact_count(&self) -> u64 {
        self.contacts
    }

    /// The cumulative time-averaged rate `contacts / elapsed`, or `None`
    /// if no contact has been observed yet (the pair's edge does not exist
    /// in the contact graph) or no time has elapsed.
    fn rate(&self, now: Time) -> Option<f64> {
        let elapsed = now.saturating_since(self.observed_since).as_secs_f64();
        if self.contacts == 0 || elapsed <= 0.0 {
            return None;
        }
        Some(self.contacts as f64 / elapsed)
    }

    /// A recency-weighted rate `1 / ewma(gap)` that tracks changes in
    /// the contact pattern faster than the paper's cumulative average.
    /// `None` until two gapped contacts have been observed.
    #[cfg(test)]
    fn recent_rate(&self) -> Option<f64> {
        self.ewma_gap_secs.map(|g| 1.0 / g)
    }

    /// A regime-tracking rate estimate: the EWMA inter-contact gap,
    /// damped by how long the pair has been silent —
    /// `1 / max(ewma_gap, now − last_contact)`.
    ///
    /// Unlike [`RateEstimator::rate`], which averages over the whole
    /// observation window and never forgets, and
    /// the plain EWMA rate `1 / ewma(gap)`, which freezes at the last
    /// observed gap when a pair stops meeting, this estimate decays as
    /// a pair goes quiet: a once-busy pair that has been silent for
    /// `Δt ≫ ewma_gap` is rated `1/Δt`. Used by online NCL re-election,
    /// where yesterday's hubs must lose their rank once they stop
    /// meeting anyone. `None` until the first contact.
    fn current_rate(&self, now: Time) -> Option<f64> {
        let last = self.last_contact?;
        let silence = now.saturating_since(last).as_secs_f64();
        let gap = match self.ewma_gap_secs {
            Some(g) => g,
            // Zero or one gap observed: fall back to the cumulative
            // mean inter-contact time.
            None => {
                let elapsed = now.saturating_since(self.observed_since).as_secs_f64();
                if elapsed <= 0.0 {
                    return None;
                }
                elapsed / self.contacts as f64
            }
        };
        Some(1.0 / gap.max(silence))
    }

    /// Squared coefficient of variation of the observed inter-contact
    /// gaps, `Var(gap) / E[gap]²` — a dispersion diagnostic for the
    /// paper's Poisson contact model (§III-B).
    ///
    /// An exponential (Poisson) pair scores ≈ 1; heavy-tailed
    /// inter-contact laws (Pareto, bounded power law) score well above
    /// 1; near-periodic schedules score near 0. NCL selection and the
    /// delay predictions that flow from `λ_ij` assume exponential gaps,
    /// so a `gap_cv2` far from 1 warns that those predictions are
    /// optimistic. `None` until three gapped contacts (two gaps) have
    /// been observed.
    fn gap_cv2(&self) -> Option<f64> {
        if self.gap_count < 2 {
            return None;
        }
        let n = self.gap_count as f64;
        let mean = self.gap_sum_secs / n;
        if mean <= 0.0 {
            return None;
        }
        let var = (self.gap_sq_sum_secs / n - mean * mean).max(0.0);
        Some(var / (mean * mean))
    }
}

/// Symmetric table of rate estimators for all `N·(N−1)/2` node pairs.
///
/// Contacts are symmetric (§III-B), so the table stores each unordered
/// pair once and `record` / `rate` accept the endpoints in either order.
///
/// # Example
///
/// ```
/// use dtn_core::ids::NodeId;
/// use dtn_core::rate::RateTable;
/// use dtn_core::time::Time;
///
/// let mut table = RateTable::new(3, Time::ZERO);
/// table.record(NodeId(0), NodeId(2), Time(10));
/// assert_eq!(
///     table.rate(NodeId(2), NodeId(0), Time(100)),
///     table.rate(NodeId(0), NodeId(2), Time(100)),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct RateTable {
    nodes: usize,
    cells: Cells,
    /// Bumped on every [`RateTable::record`]; lets consumers detect how
    /// much the table has changed without comparing cells.
    generation: u64,
}

/// Largest population stored as a dense packed triangle. Above this the
/// table switches to sparse adjacency storage: real contact traces are
/// sparse (each node meets a bounded peer set), so `O(N²)` cells —
/// 240 GB at 100 000 nodes — would be almost entirely never-met pairs.
const DENSE_NODE_LIMIT: usize = 2048;

/// Storage behind a [`RateTable`]. A pair absent from the sparse map is
/// semantically a fresh [`RateEstimator`] (no contacts yet), so the two
/// layouts are observationally identical.
#[derive(Debug, Clone)]
enum Cells {
    /// Packed upper triangle, one cell per unordered pair.
    Dense(Vec<RateEstimator>),
    /// Per-low-endpoint adjacency rows sorted by high endpoint, with
    /// estimators in a shared arena. Memory is `O(pairs that met)`.
    Sparse {
        /// `adj[lo]` = `(hi, arena index)` sorted by `hi`.
        adj: Vec<Vec<(u32, u32)>>,
        arena: Vec<RateEstimator>,
        /// Observation start for estimators created on first contact.
        since: Time,
    },
}

impl RateTable {
    /// Creates a table for `nodes` nodes, all pairs observed from `since`.
    ///
    /// Populations up to 2048 nodes (`DENSE_NODE_LIMIT`) use a dense packed
    /// triangle; larger ones use sparse adjacency storage with identical
    /// observable behavior.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(nodes: usize, since: Time) -> Self {
        Self::new_with_limit(nodes, since, DENSE_NODE_LIMIT)
    }

    /// [`RateTable::new`] with an explicit dense/sparse cutover, so tests
    /// can exercise the sparse layout at differential-testable sizes.
    fn new_with_limit(nodes: usize, since: Time, dense_limit: usize) -> Self {
        assert!(nodes > 0, "rate table needs at least one node");
        let cells = if nodes <= dense_limit {
            let pairs = nodes * (nodes.saturating_sub(1)) / 2;
            Cells::Dense(vec![RateEstimator::new(since); pairs])
        } else {
            Cells::Sparse {
                adj: vec![Vec::new(); nodes],
                arena: Vec::new(),
                since,
            }
        };
        RateTable {
            nodes,
            cells,
            generation: 0,
        }
    }

    /// Number of nodes covered by the table.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Records a contact between `a` and `b` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either node is out of range.
    #[inline]
    pub fn record(&mut self, a: NodeId, b: NodeId, at: Time) {
        let (lo, hi) = self.pair(a, b);
        match &mut self.cells {
            Cells::Dense(cells) => {
                cells[Self::dense_index(self.nodes, lo, hi)].record_contact(at);
            }
            Cells::Sparse { adj, arena, since } => {
                let row = &mut adj[lo];
                match row.binary_search_by_key(&(hi as u32), |&(h, _)| h) {
                    Ok(i) => arena[row[i].1 as usize].record_contact(at),
                    Err(i) => {
                        let mut est = RateEstimator::new(*since);
                        est.record_contact(at);
                        row.insert(i, (hi as u32, arena.len() as u32));
                        arena.push(est);
                    }
                }
            }
        }
        self.generation += 1;
    }

    /// Monotone version counter: the number of contacts recorded into
    /// this table since construction. Consumers caching anything derived
    /// from the table (e.g. the path oracle's contact-graph snapshot) can
    /// compare generations to decide when their copy has drifted too far,
    /// independent of simulated wall-clock time.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The estimated contact rate of the pair, if they have ever met.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either node is out of range.
    #[inline]
    pub fn rate(&self, a: NodeId, b: NodeId, now: Time) -> Option<f64> {
        self.estimator(a, b).and_then(|e| e.rate(now))
    }

    /// Cumulative number of contacts recorded for the pair.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either node is out of range.
    #[inline]
    pub fn contact_count(&self, a: NodeId, b: NodeId) -> u64 {
        self.estimator(a, b).map_or(0, RateEstimator::contact_count)
    }

    /// Contact-weighted mean, over all pairs with a defined dispersion,
    /// of the squared coefficient of variation of the pair's
    /// inter-contact gaps (`Var(gap) / E[gap]²`: ≈ 1 for a Poisson pair,
    /// well above 1 for heavy tails, near 0 for periodic schedules), or
    /// `None` if no pair has one.
    ///
    /// Weighting by gap count makes the aggregate answer "how
    /// Poisson-like is the traffic the estimator actually sees", rather
    /// than letting barely-observed pairs (whose two-gap CV² is mostly
    /// noise) dominate a flat average.
    pub fn mean_gap_cv2(&self) -> Option<f64> {
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for (_, _, e) in self.iter_estimators() {
            if let Some(cv2) = e.gap_cv2() {
                let w = e.gap_count as f64;
                weighted += cv2 * w;
                weight += w;
            }
        }
        if weight > 0.0 {
            Some(weighted / weight)
        } else {
            None
        }
    }

    /// Total contacts recorded across all pairs.
    pub fn total_contacts(&self) -> u64 {
        let cells: &[RateEstimator] = match &self.cells {
            Cells::Dense(cells) => cells,
            Cells::Sparse { arena, .. } => arena,
        };
        cells.iter().map(RateEstimator::contact_count).sum()
    }

    /// Iterates over all pairs that have met at least once, yielding
    /// `(a, b, rate)` with `a < b`.
    pub(crate) fn iter_rates(&self, now: Time) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.iter_estimators()
            .filter_map(move |(a, b, e)| e.rate(now).map(|r| (a, b, r)))
    }

    /// Like [`RateTable::iter_rates`], but yielding each pair's
    /// regime-tracking rate `1 / max(ewma_gap, now − last_contact)`: the
    /// EWMA inter-contact gap damped by how long the pair has been
    /// silent, so a once-busy pair that stopped meeting decays as
    /// `1/silence` instead of keeping its historical average.
    pub(crate) fn iter_current_rates(
        &self,
        now: Time,
    ) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.iter_estimators()
            .filter_map(move |(a, b, e)| e.current_rate(now).map(|r| (a, b, r)))
    }

    /// All touchable cells in `(lo asc, hi asc)` order. Dense yields
    /// every pair (including never-met ones); sparse yields only pairs
    /// that have met — the difference is unobservable through the
    /// `filter_map`-based public iterators because a never-met
    /// estimator's rates are all `None`.
    fn iter_estimators(&self) -> Box<dyn Iterator<Item = (NodeId, NodeId, &RateEstimator)> + '_> {
        match &self.cells {
            Cells::Dense(cells) => {
                let n = self.nodes as u32;
                Box::new((0..n).flat_map(move |a| {
                    (a + 1..n).map(move |b| {
                        let idx = Self::dense_index(self.nodes, a as usize, b as usize);
                        (NodeId(a), NodeId(b), &cells[idx])
                    })
                }))
            }
            Cells::Sparse { adj, arena, .. } => {
                Box::new(adj.iter().enumerate().flat_map(move |(lo, row)| {
                    row.iter().map(move |&(hi, idx)| {
                        (NodeId(lo as u32), NodeId(hi), &arena[idx as usize])
                    })
                }))
            }
        }
    }

    /// The pair's estimator; `None` when a sparse table has never seen
    /// the pair (semantically a fresh estimator).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either node is out of range.
    #[inline]
    fn estimator(&self, a: NodeId, b: NodeId) -> Option<&RateEstimator> {
        let (lo, hi) = self.pair(a, b);
        match &self.cells {
            Cells::Dense(cells) => Some(&cells[Self::dense_index(self.nodes, lo, hi)]),
            Cells::Sparse { adj, arena, .. } => {
                let row = &adj[lo];
                row.binary_search_by_key(&(hi as u32), |&(h, _)| h)
                    .ok()
                    .map(|i| &arena[row[i].1 as usize])
            }
        }
    }

    /// Validates a pair and returns its `(lo, hi)` indices.
    #[inline]
    fn pair(&self, a: NodeId, b: NodeId) -> (usize, usize) {
        assert_ne!(a, b, "a node does not contact itself");
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (lo, hi) = (lo.index(), hi.index());
        assert!(
            hi < self.nodes,
            "node n{hi} out of range for table of {} nodes",
            self.nodes
        );
        (lo, hi)
    }

    /// Row-major upper-triangle index of a validated `(lo, hi)` pair.
    #[inline]
    fn dense_index(nodes: usize, lo: usize, hi: usize) -> usize {
        // Offset of row `lo` in the packed upper triangle.
        lo * (2 * nodes - lo - 1) / 2 + (hi - lo - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_rate_is_count_over_elapsed() {
        let mut e = RateEstimator::new(Time(100));
        assert_eq!(e.rate(Time(200)), None);
        e.record_contact(Time(150));
        e.record_contact(Time(180));
        e.record_contact(Time(190));
        assert_eq!(e.rate(Time(400)), Some(0.01));
        assert_eq!(e.contact_count(), 3);
    }

    #[test]
    fn estimator_no_elapsed_time_is_none() {
        let mut e = RateEstimator::new(Time(100));
        e.record_contact(Time(100));
        assert_eq!(e.rate(Time(100)), None);
        assert_eq!(e.rate(Time(50)), None);
    }

    #[test]
    fn recent_rate_tracks_gap_changes() {
        let mut e = RateEstimator::new(Time::ZERO);
        // Contacts every 100 s.
        for i in 1..=10u64 {
            e.record_contact(Time(i * 100));
        }
        let steady = e.recent_rate().expect("enough gaps");
        assert!((steady - 0.01).abs() < 1e-6, "steady {steady}");
        // Pattern speeds up to every 10 s: the EWMA follows, the
        // cumulative average lags.
        for i in 1..=30u64 {
            e.record_contact(Time(1000 + i * 10));
        }
        let fast = e.recent_rate().expect("enough gaps");
        let cumulative = e.rate(Time(1300)).expect("has contacts");
        assert!(fast > 0.05, "ewma should approach 0.1, got {fast}");
        assert!(
            fast > cumulative,
            "ewma {fast} must outrun cumulative {cumulative}"
        );
        assert_eq!(e.last_contact, Some(Time(1300)));
    }

    #[test]
    fn simultaneous_contacts_count_but_skip_the_ewma() {
        // Two contacts at the same timestamp: both count toward the
        // cumulative rate, but a zero gap must not poison the EWMA
        // (1/0 would be an infinite recent rate).
        let mut e = RateEstimator::new(Time::ZERO);
        e.record_contact(Time(100));
        e.record_contact(Time(100));
        assert_eq!(e.contact_count(), 2);
        assert_eq!(e.rate(Time(200)), Some(0.01));
        assert_eq!(e.recent_rate(), None, "zero gap recorded into EWMA");
        assert_eq!(e.last_contact, Some(Time(100)));
        // The next gapped contact seeds the EWMA from its real gap.
        e.record_contact(Time(150));
        assert_eq!(e.recent_rate(), Some(1.0 / 50.0));
    }

    #[test]
    fn rate_at_observed_since_is_none() {
        // A zero observation window has no defined rate, even with
        // contacts on the books (contact exactly at `observed_since`).
        let mut e = RateEstimator::new(Time(500));
        e.record_contact(Time(500));
        assert_eq!(e.contact_count(), 1);
        assert_eq!(e.rate(Time(500)), None);
        assert_eq!(e.rate(Time(499)), None, "before the window starts");
        assert_eq!(e.rate(Time(501)), Some(1.0));
    }

    #[test]
    fn long_silence_divergence_cumulative_vs_ewma_vs_current() {
        // A pair that met every 100 s for a while, then went silent for
        // a long stretch. The three estimators must diverge exactly as
        // documented: the cumulative average decays slowly with the
        // window, the EWMA freezes at the last observed gap, and the
        // regime-tracking current rate decays as 1/silence.
        let mut e = RateEstimator::new(Time::ZERO);
        for i in 1..=10u64 {
            e.record_contact(Time(i * 100));
        }
        let now = Time(101_000); // silent for 100 000 s
        let cumulative = e.rate(now).expect("has contacts");
        let ewma = e.recent_rate().expect("has gaps");
        let current = e.current_rate(now).expect("has contacts");
        assert!((cumulative - 10.0 / 101_000.0).abs() < 1e-12);
        assert!((ewma - 0.01).abs() < 1e-9, "EWMA froze at the 100 s gap");
        assert!((current - 1.0 / 100_000.0).abs() < 1e-12);
        assert!(
            current < cumulative && cumulative < ewma,
            "expected current {current} < cumulative {cumulative} < ewma {ewma}"
        );
    }

    #[test]
    fn current_rate_matches_ewma_while_the_pair_stays_active() {
        let mut e = RateEstimator::new(Time::ZERO);
        for i in 1..=5u64 {
            e.record_contact(Time(i * 100));
        }
        // Queried right at the last contact: no silence yet, so the
        // current rate is exactly the EWMA rate.
        assert_eq!(e.current_rate(Time(500)), e.recent_rate());
        // One gapless contact only: falls back to the cumulative mean
        // inter-contact time.
        let mut single = RateEstimator::new(Time(40));
        assert_eq!(single.current_rate(Time(140)), None, "no contact yet");
        single.record_contact(Time(40));
        assert_eq!(single.current_rate(Time(40)), None, "zero window");
        assert_eq!(single.current_rate(Time(140)), Some(1.0 / 100.0));
    }

    #[test]
    fn recent_rate_needs_two_gapped_contacts() {
        let mut e = RateEstimator::new(Time::ZERO);
        assert_eq!(e.recent_rate(), None);
        e.record_contact(Time(50));
        assert_eq!(e.recent_rate(), None);
        e.record_contact(Time(150));
        assert!(e.recent_rate().is_some());
    }

    #[test]
    fn gap_cv2_separates_periodic_exponential_and_heavy_tails() {
        // Periodic: identical gaps, zero variance.
        let mut periodic = RateEstimator::new(Time::ZERO);
        for i in 1..=20u64 {
            periodic.record_contact(Time(i * 100));
        }
        let cv2 = periodic.gap_cv2().expect("19 gaps");
        assert!(cv2 < 1e-9, "periodic gaps must score ~0, got {cv2}");

        // Exponential: inverse-CDF samples on a uniform grid have the
        // exponential's unit squared coefficient of variation.
        let mut expo = RateEstimator::new(Time::ZERO);
        let mut t = 0.0f64;
        let n = 4000;
        for i in 0..n {
            let u = (i as f64 + 0.5) / n as f64;
            t += -u.ln() * 100.0;
            expo.record_contact(Time(t as u64));
        }
        let cv2 = expo.gap_cv2().expect("many gaps");
        assert!((cv2 - 1.0).abs() < 0.1, "exponential CV² ≈ 1, got {cv2}");

        // Heavy tail: Pareto(α = 1.5) gaps via the inverse CDF. Infinite
        // theoretical variance; any long sample run scores far above 1.
        let mut heavy = RateEstimator::new(Time::ZERO);
        let mut t = 0.0f64;
        for i in 0..n {
            let u = 1.0 - (i as f64 + 0.5) / n as f64;
            t += 30.0 * u.powf(-1.0 / 1.5);
            heavy.record_contact(Time(t as u64));
        }
        let cv2 = heavy.gap_cv2().expect("many gaps");
        assert!(cv2 > 2.0, "Pareto gaps must score well above 1, got {cv2}");
    }

    #[test]
    fn gap_cv2_needs_two_gaps() {
        let mut e = RateEstimator::new(Time::ZERO);
        e.record_contact(Time(100));
        assert_eq!(e.gap_cv2(), None, "no gap yet");
        e.record_contact(Time(200));
        assert_eq!(e.gap_cv2(), None, "one gap has no variance estimate");
        // A zero gap does not count toward the moments.
        e.record_contact(Time(200));
        assert_eq!(e.gap_cv2(), None);
        e.record_contact(Time(300));
        assert!(e.gap_cv2().is_some(), "two positive gaps suffice");
    }

    #[test]
    fn table_mean_gap_cv2_weights_by_gap_count() {
        let mut t = RateTable::new(3, Time::ZERO);
        // Pair (0,1): 10 periodic gaps, CV² = 0.
        for i in 1..=11u64 {
            t.record(NodeId(0), NodeId(1), Time(i * 50));
        }
        // Pair (1,2): 2 gaps of 100 and 300 s.
        // mean 200, var 10_000 ⇒ CV² = 0.25.
        t.record(NodeId(1), NodeId(2), Time(100));
        t.record(NodeId(1), NodeId(2), Time(200));
        t.record(NodeId(1), NodeId(2), Time(500));
        // Pair (0,2): never met — contributes nothing.
        let mean = t.mean_gap_cv2().expect("two pairs have dispersion");
        let expect = (0.0 * 10.0 + 0.25 * 2.0) / 12.0;
        assert!((mean - expect).abs() < 1e-9, "got {mean}, want {expect}");

        let empty = RateTable::new(2, Time::ZERO);
        assert_eq!(empty.mean_gap_cv2(), None);
    }

    #[test]
    fn table_is_symmetric() {
        let mut t = RateTable::new(4, Time::ZERO);
        t.record(NodeId(1), NodeId(3), Time(10));
        t.record(NodeId(3), NodeId(1), Time(20));
        assert_eq!(t.contact_count(NodeId(1), NodeId(3)), 2);
        assert_eq!(
            t.rate(NodeId(1), NodeId(3), Time(100)),
            t.rate(NodeId(3), NodeId(1), Time(100))
        );
        assert_eq!(t.rate(NodeId(1), NodeId(3), Time(100)), Some(0.02));
    }

    #[test]
    fn table_indexing_covers_all_pairs_uniquely() {
        let n = 7;
        let mut t = RateTable::new(n, Time::ZERO);
        // Touch every pair exactly once; totals must add up.
        for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                t.record(NodeId(a), NodeId(b), Time(1));
            }
        }
        assert_eq!(t.total_contacts() as usize, n * (n - 1) / 2);
        for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                assert_eq!(t.contact_count(NodeId(a), NodeId(b)), 1, "pair {a},{b}");
            }
        }
    }

    #[test]
    fn generation_counts_recorded_contacts() {
        let mut t = RateTable::new(3, Time::ZERO);
        assert_eq!(t.generation(), 0);
        t.record(NodeId(0), NodeId(1), Time(10));
        t.record(NodeId(1), NodeId(2), Time(20));
        assert_eq!(t.generation(), 2);
        // Recording the same pair again still advances the generation.
        t.record(NodeId(0), NodeId(1), Time(30));
        assert_eq!(t.generation(), 3);
    }

    #[test]
    fn iter_rates_skips_never_met_pairs() {
        let mut t = RateTable::new(3, Time::ZERO);
        t.record(NodeId(0), NodeId(1), Time(10));
        let rates: Vec<_> = t.iter_rates(Time(100)).collect();
        assert_eq!(rates.len(), 1);
        assert_eq!(rates[0].0, NodeId(0));
        assert_eq!(rates[0].1, NodeId(1));
    }

    #[test]
    fn sparse_storage_matches_dense_exactly() {
        // Force the sparse layout at a size where a dense twin is cheap
        // and drive both through an identical contact schedule.
        let n = 12;
        let mut dense = RateTable::new_with_limit(n, Time(5), n);
        let mut sparse = RateTable::new_with_limit(n, Time(5), 1);
        assert!(matches!(dense.cells, Cells::Dense(_)));
        assert!(matches!(sparse.cells, Cells::Sparse { .. }));
        // Deterministic pseudo-random schedule touching some pairs many
        // times, most never.
        let mut x = 0x9e37_79b9_u64;
        for step in 0..400u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (x >> 33) % n as u64;
            let b = (x >> 13) % n as u64;
            if a == b {
                continue;
            }
            let at = Time(10 + step * 37 % 5000);
            dense.record(NodeId(a as u32), NodeId(b as u32), at);
            sparse.record(NodeId(a as u32), NodeId(b as u32), at);
        }
        assert_eq!(dense.generation(), sparse.generation());
        assert_eq!(dense.total_contacts(), sparse.total_contacts());
        let now = Time(6000);
        for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                let (a, b) = (NodeId(a), NodeId(b));
                assert_eq!(dense.rate(a, b, now), sparse.rate(a, b, now));
                assert_eq!(dense.contact_count(a, b), sparse.contact_count(a, b));
            }
        }
        assert_eq!(dense.mean_gap_cv2(), sparse.mean_gap_cv2());
        let dr: Vec<_> = dense.iter_rates(now).collect();
        let sr: Vec<_> = sparse.iter_rates(now).collect();
        assert_eq!(dr, sr, "iter_rates order and content must match");
        let dc: Vec<_> = dense.iter_current_rates(now).collect();
        let sc: Vec<_> = sparse.iter_current_rates(now).collect();
        assert_eq!(dc, sc);
    }

    #[test]
    fn large_population_goes_sparse_and_stays_cheap() {
        let n = DENSE_NODE_LIMIT + 1;
        let mut t = RateTable::new(n, Time::ZERO);
        assert!(matches!(t.cells, Cells::Sparse { .. }));
        t.record(NodeId(0), NodeId(n as u32 - 1), Time(10));
        t.record(NodeId(n as u32 - 1), NodeId(0), Time(20));
        assert_eq!(t.contact_count(NodeId(0), NodeId(n as u32 - 1)), 2);
        assert_eq!(t.rate(NodeId(5), NodeId(6), Time(100)), None);
        assert_eq!(t.contact_count(NodeId(5), NodeId(6)), 0);
        assert_eq!(t.iter_rates(Time(100)).count(), 1);
        assert_eq!(t.total_contacts(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sparse_out_of_range_panics() {
        let t = RateTable::new_with_limit(3, Time::ZERO, 1);
        let _ = t.rate(NodeId(0), NodeId(5), Time(10));
    }

    #[test]
    #[should_panic(expected = "does not contact itself")]
    fn sparse_self_contact_panics() {
        let mut t = RateTable::new_with_limit(3, Time::ZERO, 1);
        t.record(NodeId(1), NodeId(1), Time(10));
    }

    #[test]
    #[should_panic(expected = "does not contact itself")]
    fn self_contact_panics() {
        let mut t = RateTable::new(3, Time::ZERO);
        t.record(NodeId(1), NodeId(1), Time(10));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let t = RateTable::new(3, Time::ZERO);
        let _ = t.rate(NodeId(0), NodeId(5), Time(10));
    }
}
