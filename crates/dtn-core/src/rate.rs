//! Online estimation of pairwise contact rates.
//!
//! The paper models the contacts of each node pair as a Poisson process
//! whose rate `λ_ij` "is calculated at real-time from the cumulative
//! contacts between nodes i and j in a time-average manner" (§III-B).
//! [`RateTable`] holds one such estimator per unordered pair that has
//! met: the contact graph has an edge only where a pair's cumulative
//! contact count is non-zero, so a pair's first contact creates its
//! estimator and a pair that never met holds nothing.

use crate::ids::NodeId;
use crate::time::Time;

/// Cumulative time-averaged Poisson rate estimator for one node pair
/// that has met. The observation start is the table's, shared by every
/// pair.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RateEstimator {
    contacts: u64,
    /// The latest contact recorded.
    last_contact: Time,
    /// Exponentially weighted moving average of inter-contact gaps.
    ewma_gap_secs: Option<f64>,
}

/// Smoothing factor of the EWMA inter-contact estimator: the weight of
/// the newest gap.
const EWMA_ALPHA: f64 = 0.25;

impl RateEstimator {
    /// The estimator of a pair whose first contact is at `at`.
    fn new(at: Time) -> Self {
        RateEstimator {
            contacts: 1,
            last_contact: at,
            ewma_gap_secs: None,
        }
    }

    /// Records one more contact between the pair.
    fn record_contact(&mut self, at: Time) {
        let gap = at.saturating_since(self.last_contact).as_secs_f64();
        if gap > 0.0 {
            self.ewma_gap_secs = Some(match self.ewma_gap_secs {
                Some(ewma) => EWMA_ALPHA * gap + (1.0 - EWMA_ALPHA) * ewma,
                None => gap,
            });
        }
        self.last_contact = self.last_contact.max(at);
        self.contacts += 1;
    }

    /// The cumulative time-averaged rate `contacts / elapsed` over the
    /// window from `since`, or `None` if no time has elapsed.
    fn rate(&self, since: Time, now: Time) -> Option<f64> {
        let elapsed = now.saturating_since(since).as_secs_f64();
        if elapsed <= 0.0 {
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
    /// meeting anyone.
    fn current_rate(&self, since: Time, now: Time) -> Option<f64> {
        let silence = now.saturating_since(self.last_contact).as_secs_f64();
        let gap = match self.ewma_gap_secs {
            Some(g) => g,
            // Zero or one gap observed: fall back to the cumulative
            // mean inter-contact time.
            None => {
                let elapsed = now.saturating_since(since).as_secs_f64();
                if elapsed <= 0.0 {
                    return None;
                }
                elapsed / self.contacts as f64
            }
        };
        Some(1.0 / gap.max(silence))
    }
}

/// Symmetric table of rate estimators for the node pairs that have met.
///
/// Contacts are symmetric (§III-B), so the table stores each unordered
/// pair once and `record` / `rate` accept the endpoints in either order.
/// Memory is `O(N + pairs met)`: a pair that never met reads as no rate
/// and zero contacts without holding anything.
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
    /// `rows[lo]`: the estimators of the pairs `(lo, hi)` that have met,
    /// sorted by `hi`.
    rows: Vec<Vec<(NodeId, RateEstimator)>>,
    /// Observation start of every pair.
    since: Time,
    /// Bumped on every [`RateTable::record`]; lets consumers detect how
    /// much the table has changed without comparing estimators.
    generation: u64,
}

impl RateTable {
    /// Creates a table for `nodes` nodes, all pairs observed from `since`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(nodes: usize, since: Time) -> Self {
        assert!(nodes > 0, "rate table needs at least one node");
        RateTable {
            rows: vec![Vec::new(); nodes],
            since,
            generation: 0,
        }
    }

    /// Number of nodes covered by the table.
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// Records a contact between `a` and `b` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either node is out of range.
    #[inline]
    pub fn record(&mut self, a: NodeId, b: NodeId, at: Time) {
        let (lo, hi) = self.pair(a, b);
        let row = &mut self.rows[lo.index()];
        match row.binary_search_by_key(&hi, |&(h, _)| h) {
            Ok(i) => row[i].1.record_contact(at),
            Err(i) => row.insert(i, (hi, RateEstimator::new(at))),
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
        self.estimator(a, b).and_then(|e| e.rate(self.since, now))
    }

    /// Cumulative number of contacts recorded for the pair.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either node is out of range.
    #[inline]
    pub fn contact_count(&self, a: NodeId, b: NodeId) -> u64 {
        self.estimator(a, b).map_or(0, |e| e.contacts)
    }

    /// Total contacts recorded across all pairs.
    pub fn total_contacts(&self) -> u64 {
        self.iter_estimators().map(|(_, _, e)| e.contacts).sum()
    }

    /// Iterates over all pairs that have met at least once, yielding
    /// `(a, b, rate)` with `a < b`.
    pub(crate) fn iter_rates(&self, now: Time) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.iter_estimators()
            .filter_map(move |(a, b, e)| e.rate(self.since, now).map(|r| (a, b, r)))
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
            .filter_map(move |(a, b, e)| e.current_rate(self.since, now).map(|r| (a, b, r)))
    }

    /// Every pair that has met, in `(lo asc, hi asc)` order.
    fn iter_estimators(&self) -> impl Iterator<Item = (NodeId, NodeId, &RateEstimator)> + '_ {
        (0..)
            .zip(&self.rows)
            .flat_map(|(lo, row)| row.iter().map(move |(hi, e)| (NodeId(lo), *hi, e)))
    }

    /// The pair's estimator; `None` when the pair has never met.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either node is out of range.
    #[inline]
    fn estimator(&self, a: NodeId, b: NodeId) -> Option<&RateEstimator> {
        let (lo, hi) = self.pair(a, b);
        let row = &self.rows[lo.index()];
        row.binary_search_by_key(&hi, |&(h, _)| h)
            .ok()
            .map(|i| &row[i].1)
    }

    /// Validates a pair and returns it as `(lo, hi)`.
    #[inline]
    fn pair(&self, a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        assert_ne!(a, b, "a node does not contact itself");
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        assert!(
            hi.index() < self.rows.len(),
            "node {hi} out of range for table of {} nodes",
            self.rows.len()
        );
        (lo, hi)
    }

    /// Estimators held: one per pair that has met.
    #[cfg(test)]
    fn estimator_count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The estimator of a pair that met at `times`, in order.
    fn met_at(times: impl IntoIterator<Item = u64>) -> RateEstimator {
        let mut times = times.into_iter().map(Time);
        let mut e = RateEstimator::new(times.next().expect("a first contact"));
        for at in times {
            e.record_contact(at);
        }
        e
    }

    #[test]
    fn estimator_rate_is_count_over_elapsed() {
        let e = met_at([150, 180, 190]);
        assert_eq!(e.rate(Time(100), Time(400)), Some(0.01));
        assert_eq!(e.contacts, 3);
        let never_met = RateTable::new(2, Time(100));
        assert_eq!(never_met.rate(NodeId(0), NodeId(1), Time(200)), None);
    }

    #[test]
    fn estimator_no_elapsed_time_is_none() {
        let e = met_at([100]);
        assert_eq!(e.rate(Time(100), Time(100)), None);
        assert_eq!(e.rate(Time(100), Time(50)), None);
    }

    #[test]
    fn recent_rate_tracks_gap_changes() {
        // Contacts every 100 s.
        let mut e = met_at((1..=10u64).map(|i| i * 100));
        let steady = e.recent_rate().expect("enough gaps");
        assert!((steady - 0.01).abs() < 1e-6, "steady {steady}");
        // Pattern speeds up to every 10 s: the EWMA follows, the
        // cumulative average lags.
        for i in 1..=30u64 {
            e.record_contact(Time(1000 + i * 10));
        }
        let fast = e.recent_rate().expect("enough gaps");
        let cumulative = e.rate(Time::ZERO, Time(1300)).expect("time elapsed");
        assert!(fast > 0.05, "ewma should approach 0.1, got {fast}");
        assert!(
            fast > cumulative,
            "ewma {fast} must outrun cumulative {cumulative}"
        );
        assert_eq!(e.last_contact, Time(1300));
    }

    #[test]
    fn simultaneous_contacts_count_but_skip_the_ewma() {
        // Two contacts at the same timestamp: both count toward the
        // cumulative rate, but a zero gap must not poison the EWMA
        // (1/0 would be an infinite recent rate).
        let mut e = met_at([100, 100]);
        assert_eq!(e.contacts, 2);
        assert_eq!(e.rate(Time::ZERO, Time(200)), Some(0.01));
        assert_eq!(e.recent_rate(), None, "zero gap recorded into EWMA");
        assert_eq!(e.last_contact, Time(100));
        // The next gapped contact seeds the EWMA from its real gap.
        e.record_contact(Time(150));
        assert_eq!(e.recent_rate(), Some(1.0 / 50.0));
    }

    #[test]
    fn rate_at_observed_since_is_none() {
        // A zero observation window has no defined rate, even with
        // contacts on the books (contact exactly at the table's start).
        let mut t = RateTable::new(2, Time(500));
        t.record(NodeId(0), NodeId(1), Time(500));
        assert_eq!(t.contact_count(NodeId(0), NodeId(1)), 1);
        assert_eq!(t.rate(NodeId(0), NodeId(1), Time(500)), None);
        assert_eq!(
            t.rate(NodeId(0), NodeId(1), Time(499)),
            None,
            "before the window starts"
        );
        assert_eq!(t.rate(NodeId(0), NodeId(1), Time(501)), Some(1.0));
    }

    #[test]
    fn long_silence_divergence_cumulative_vs_ewma_vs_current() {
        // A pair that met every 100 s for a while, then went silent for
        // a long stretch. The three estimators must diverge exactly as
        // documented: the cumulative average decays slowly with the
        // window, the EWMA freezes at the last observed gap, and the
        // regime-tracking current rate decays as 1/silence.
        let e = met_at((1..=10u64).map(|i| i * 100));
        let now = Time(101_000); // silent for 100 000 s
        let cumulative = e.rate(Time::ZERO, now).expect("time elapsed");
        let ewma = e.recent_rate().expect("has gaps");
        let current = e.current_rate(Time::ZERO, now).expect("has contacts");
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
        let e = met_at((1..=5u64).map(|i| i * 100));
        // Queried right at the last contact: no silence yet, so the
        // current rate is exactly the EWMA rate.
        assert_eq!(e.current_rate(Time::ZERO, Time(500)), e.recent_rate());
        // One gapless contact only: falls back to the cumulative mean
        // inter-contact time.
        let single = met_at([40]);
        assert_eq!(single.current_rate(Time(40), Time(40)), None, "zero window");
        assert_eq!(single.current_rate(Time(40), Time(140)), Some(1.0 / 100.0));
    }

    #[test]
    fn recent_rate_needs_two_gapped_contacts() {
        let mut e = met_at([50]);
        assert_eq!(e.recent_rate(), None);
        e.record_contact(Time(150));
        assert!(e.recent_rate().is_some());
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

    /// One pair's contact log folded into the estimator's state, in
    /// recording order and with the estimator's arithmetic.
    struct Folded {
        contacts: u64,
        last: Time,
        ewma: Option<f64>,
    }

    fn fold(log: &[Time]) -> Folded {
        // Positive gaps from each contact to the latest one before it.
        let mut last = log[0];
        let mut gaps = Vec::new();
        for &at in &log[1..] {
            let gap = at.saturating_since(last).as_secs_f64();
            if gap > 0.0 {
                gaps.push(gap);
            }
            last = last.max(at);
        }
        Folded {
            contacts: log.len() as u64,
            last,
            ewma: gaps
                .into_iter()
                .reduce(|ewma, gap| EWMA_ALPHA * gap + (1.0 - EWMA_ALPHA) * ewma),
        }
    }

    impl Folded {
        fn rate(&self, since: Time, now: Time) -> Option<f64> {
            let elapsed = now.saturating_since(since).as_secs_f64();
            (elapsed > 0.0).then(|| self.contacts as f64 / elapsed)
        }

        fn current_rate(&self, since: Time, now: Time) -> Option<f64> {
            let silence = now.saturating_since(self.last).as_secs_f64();
            let elapsed = now.saturating_since(since).as_secs_f64();
            let gap = match self.ewma {
                Some(g) => g,
                None if elapsed > 0.0 => elapsed / self.contacts as f64,
                None => return None,
            };
            Some(1.0 / gap.max(silence))
        }
    }

    #[test]
    fn table_matches_a_per_pair_contact_log() {
        // Seeded random schedules on 2–40 nodes — repeated pairs,
        // same-instant contacts, endpoints in either order, pairs that
        // never meet — with every observable held to a per-pair contact
        // log kept here, to the bit.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..=40usize);
            let since = Time(rng.gen_range(0..50u64));
            // A few pairs meet, most never do.
            let edges: Vec<(u32, u32)> = (0..rng.gen_range(1..=n))
                .map(|_| {
                    let a = rng.gen_range(0..n as u32);
                    let b = (a + rng.gen_range(1..n as u32)) % n as u32;
                    (a, b)
                })
                .collect();
            let mut table = RateTable::new(n, since);
            let mut log: BTreeMap<(u32, u32), Vec<Time>> = BTreeMap::new();
            let mut at = since.0;
            for step in 0..rng.gen_range(0..300u64) {
                // Same instant a third of the time.
                at += [0, 0, 1, 7, 60, 900][rng.gen_range(0..6usize)];
                let (a, b) = edges[rng.gen_range(0..edges.len())];
                let (a, b) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
                table.record(NodeId(a), NodeId(b), Time(at));
                log.entry((a.min(b), a.max(b))).or_default().push(Time(at));
                assert_eq!(table.generation(), step + 1);
            }
            let folded: Vec<((u32, u32), Folded)> = log
                .iter()
                .map(|(&pair, times)| (pair, fold(times)))
                .collect();
            let total: u64 = folded.iter().map(|(_, f)| f.contacts).sum();
            assert_eq!(table.total_contacts(), total, "seed {seed}");

            let bits = |r: Option<f64>| r.map(f64::to_bits);
            for now in [
                since,
                Time(since.0 + 1),
                Time(at / 2),
                Time(at),
                Time(at + 5000),
            ] {
                for a in 0..n as u32 {
                    for b in (0..n as u32).filter(|&b| b != a) {
                        let f = log.get(&(a.min(b), a.max(b))).map(|t| fold(t));
                        let (a, b) = (NodeId(a), NodeId(b));
                        assert_eq!(
                            table.contact_count(a, b),
                            f.as_ref().map_or(0, |f| f.contacts)
                        );
                        assert_eq!(
                            bits(table.rate(a, b, now)),
                            bits(f.and_then(|f| f.rate(since, now))),
                            "seed {seed}, {a}–{b} at {now:?}"
                        );
                    }
                }
                let want: Vec<_> = folded
                    .iter()
                    .filter_map(|&((a, b), ref f)| Some((a, b, f.rate(since, now)?.to_bits())))
                    .collect();
                let got: Vec<_> = table
                    .iter_rates(now)
                    .map(|(a, b, r)| (a.0, b.0, r.to_bits()))
                    .collect();
                assert_eq!(got, want, "seed {seed}: iter_rates at {now:?}");
                let want: Vec<_> = folded
                    .iter()
                    .filter_map(|&((a, b), ref f)| {
                        Some((a, b, f.current_rate(since, now)?.to_bits()))
                    })
                    .collect();
                let got: Vec<_> = table
                    .iter_current_rates(now)
                    .map(|(a, b, r)| (a.0, b.0, r.to_bits()))
                    .collect();
                assert_eq!(got, want, "seed {seed}: iter_current_rates at {now:?}");
            }
        }
    }

    #[test]
    fn only_pairs_that_met_hold_an_estimator() {
        // Counted, not timed: a table that allocated every pair (the
        // N²/2 triangle) would hold 1 999 000 here.
        let mut t = RateTable::new(2000, Time::ZERO);
        assert_eq!(t.estimator_count(), 0);
        t.record(NodeId(0), NodeId(1999), Time(10));
        t.record(NodeId(7), NodeId(3), Time(20));
        t.record(NodeId(1999), NodeId(1998), Time(30));
        assert_eq!(t.estimator_count(), 3);
        t.record(NodeId(1999), NodeId(0), Time(40));
        assert_eq!(t.estimator_count(), 3, "a pair meeting again adds none");
        assert_eq!(t.contact_count(NodeId(0), NodeId(1999)), 2);
        assert_eq!(t.contact_count(NodeId(5), NodeId(6)), 0);
        assert_eq!(t.rate(NodeId(5), NodeId(6), Time(100)), None);
        assert_eq!(t.iter_rates(Time(100)).count(), 3);
        assert_eq!(t.total_contacts(), 4);
    }

    #[test]
    fn a_met_pair_costs_at_most_32_bytes() {
        // The count, the last contact and the EWMA. A per-pair
        // observation start, an optional last contact, or gap moments
        // kept for a diagnostic (the regime harness computes its CV²
        // from the trace) push the estimator to 40 bytes or more.
        assert!(std::mem::size_of::<RateEstimator>() <= 32);
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
