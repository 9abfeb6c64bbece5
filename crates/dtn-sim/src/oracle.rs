//! Cached opportunistic-path computations over the live rate table.
//!
//! Schemes repeatedly need "the weight of my best path to node X" — for
//! relay selection toward central nodes (§V-A), for query multicast
//! (§V-B), and for the probabilistic response decision (§V-C). Running a
//! full label-setting search on every contact would dominate simulation
//! time, so [`PathOracle`] memoises per-source [`PathTable`]s, mirroring
//! the paper's observation that contact rates "remain relatively
//! constant" over long periods (§III-B).
//!
//! Three structural properties keep the oracle cheap and correct:
//!
//! - **Searches stop at the targets.** The paper's nodes keep their
//!   shortest opportunistic path *to the K central nodes* (§IV Eq. 3),
//!   and that is what nearly every read asks for. The scheme names those
//!   nodes with [`PathOracle::set_targets`]; the first read of an epoch
//!   from a source to a target runs the label-setting search only until
//!   the last target settles ([`shortest_paths_until_in`], the one loop
//!   of `dtn-core/src/path/search.rs`) and caches the *partial* table. Settled weights are final, so the answer is the
//!   exhaustive search's to the bit. A read the partial table cannot
//!   answer — a non-target destination, or [`PathOracle::table`] — runs
//!   the exhaustive search and replaces it.
//! - **One shared snapshot per epoch.** The [`ContactGraph`] is built
//!   from the rate table once per refresh epoch and shared by the path
//!   searches of *all* sources, instead of being rebuilt per source per
//!   refresh (an `O(N²)` scan each time). Per-source tables are
//!   recomputed lazily against the current snapshot.
//! - **Generation-versioned invalidation.** A snapshot goes stale either
//!   when the wall-clock refresh interval elapses *or* when the rate
//!   table's [`RateTable::generation`] counter has grown past a
//!   geometric threshold since the snapshot was taken. The second
//!   condition closes a staleness hole: with a refresh interval longer
//!   than the simulated time span, a wall-clock-only oracle would serve
//!   the weights of the very first contacts forever, no matter how much
//!   the observed network changed. The geometric rule (rebuild when the
//!   contact count has roughly doubled) bounds the number of rebuilds by
//!   `O(log contacts)` so per-contact `record` calls never cause
//!   per-contact rebuilds.
//!
//! In scale mode ([`PathOracle::with_bounded_reach`]) the per-source
//! cache holds hop-bounded [`LazyReach`]es instead of dense tables, and
//! the first property takes another form: **a bounded search weighs a
//! leaf of its bound only when a read asks for that leaf.** A relay
//! decision compares weights to the K centrals and, for a response, to
//! one requester, while an `h`-hop search in a sparse city settles
//! mostly nodes exactly `h` hops out — leaves that relax nothing and so
//! shape no other node's label. [`bounded_reach`] runs the search
//! inside the ball of radius `h − 1` and keeps the path stages of the
//! ball's rim (the [`LazyReach`] of `dtn-core/src/path/reach.rs`); a read of an inner node is a binary search, a read of a
//! leaf replays that one label from its rim neighbours over the epoch's
//! snapshot, and a read of anything else is 0. Every answer is the
//! eager [`bounded_shortest_paths`](dtn_core::path::bounded_shortest_paths)
//! answer to the bit (`tests/path_equivalence.rs`).

use dtn_core::graph::{ContactGraph, CsrGraph};
use dtn_core::ids::NodeId;
use dtn_core::path::{bounded_reach, shortest_paths_until_in, LazyReach, PathTable, ReachScratch};
use dtn_core::rate::RateTable;
use dtn_core::time::{Duration, Time};

/// Minimum generation growth that can invalidate a snapshot, so sparse
/// early traffic does not thrash the cache (rebuild when
/// `gen_now > gen_snapshot + max(gen_snapshot, GENERATION_SLACK)`).
const GENERATION_SLACK: u64 = 64;

/// The shared per-epoch graph: adjacency lists by default, CSR storage
/// in scale mode (tighter memory, no per-node allocations).
#[derive(Debug)]
enum SnapshotGraph {
    Adjacency(ContactGraph),
    Csr(CsrGraph),
}

/// The contact-graph snapshot shared by all sources within one epoch.
#[derive(Debug)]
struct Snapshot {
    built_at: Time,
    generation: u64,
    graph: SnapshotGraph,
}

/// Cumulative oracle work counters, for probes and diagnostics.
///
/// `table_hits` counts reads served from a cached per-source table or
/// reach; `table_recomputes` counts reads that had to run a path search
/// first — early exit, exhaustive or bounded, including the exhaustive
/// search that replaces a partial table which could not answer — so on
/// either branch the two sum to the reads that were not self-reads.
/// `nodes_settled` sums the nodes those searches settled: exact and
/// machine-independent, it is the counter that moves when a search does
/// more or less work for the same `table_recomputes`. A dense search
/// that stops at the targets settles the nodes heavier than the last
/// target; a bounded search settles the ball of radius `max_hops − 1`
/// around its source and nothing beyond it — the leaves of the bound
/// never enter the search (a rim node that relaxed every neighbour again
/// would read several times higher). `leaf_evaluations` counts what
/// those leaves cost instead: the CDF evaluations bounded reads made to
/// weigh the leaf they asked for, zero for a read of an inner node or of
/// a node the bound does not reach. `accumulators_built` sums the CDF
/// accumulators the searches built, one per settled node that relaxed
/// its edges: it moves on per-settle work that leaves the settled set
/// alone. `rebuilds` counts shared-snapshot constructions (equals
/// [`PathOracle::snapshot_epoch`]); `invalidations` counts explicit
/// [`PathOracle::invalidate`] calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Shared contact-graph snapshot (re)builds.
    pub rebuilds: u64,
    /// Explicit `invalidate()` calls.
    pub invalidations: u64,
    /// Per-source path-table recomputations.
    pub table_recomputes: u64,
    /// Per-source path-table cache hits.
    pub table_hits: u64,
    /// Nodes settled, summed over every path search.
    pub nodes_settled: u64,
    /// CDF accumulators built, summed over every path search.
    pub accumulators_built: u64,
    /// CDF evaluations made by bounded reads that weighed a leaf.
    pub leaf_evaluations: u64,
}

/// Memoised single-source opportunistic path tables over a shared,
/// generation-versioned contact-graph snapshot.
///
/// # Example
///
/// ```
/// use dtn_core::ids::NodeId;
/// use dtn_core::rate::RateTable;
/// use dtn_core::time::{Duration, Time};
/// use dtn_sim::oracle::PathOracle;
///
/// let mut rates = RateTable::new(3, Time::ZERO);
/// rates.record(NodeId(0), NodeId(1), Time(10));
/// rates.record(NodeId(1), NodeId(2), Time(20));
///
/// let mut oracle = PathOracle::new(3, 3600.0, Duration::hours(6));
/// let w = oracle.weight(&rates, Time(100), NodeId(0), NodeId(2));
/// assert!(w > 0.0);
/// // Self-weight is always 1.
/// assert_eq!(oracle.weight(&rates, Time(100), NodeId(1), NodeId(1)), 1.0);
/// ```
#[derive(Debug)]
pub struct PathOracle {
    horizon: f64,
    refresh: Duration,
    snapshot: Option<Snapshot>,
    /// Monotone snapshot counter; a cached table is valid only for the
    /// epoch it was computed in.
    epoch: u64,
    tables: Vec<Option<(u64, PathTable)>>,
    /// The destinations the scheme reads weights to (its central nodes):
    /// the stop set of the early-exit search. Empty = every search is
    /// exhaustive.
    targets: Vec<NodeId>,
    /// Scale mode (see [`PathOracle::with_bounded_reach`]): hop bound
    /// for [`PathOracle::weight`] searches. `None` (the default) keeps
    /// the exact dense path.
    max_hops: Option<usize>,
    /// Scale mode: direct-mapped cache of bounded reaches, indexed by
    /// `source % len` — bounded memory no matter how many distinct
    /// sources query within an epoch.
    sparse: Vec<Option<(NodeId, u64, LazyReach)>>,
    /// The one search workspace: dense and bounded searches both run
    /// through it.
    scratch: ReachScratch,
    stats: OracleStats,
}

impl PathOracle {
    /// Creates an oracle for `nodes` nodes evaluating path weights at
    /// `horizon` seconds and refreshing cached tables every `refresh`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `horizon` is not finite and positive.
    pub fn new(nodes: usize, horizon: f64, refresh: Duration) -> Self {
        assert!(nodes > 0, "oracle needs at least one node");
        assert!(
            horizon.is_finite() && horizon > 0.0,
            "horizon must be finite and positive, got {horizon}"
        );
        PathOracle {
            horizon,
            refresh,
            snapshot: None,
            epoch: 0,
            tables: (0..nodes).map(|_| None).collect(),
            targets: Vec::new(),
            max_hops: None,
            sparse: Vec::new(),
            scratch: ReachScratch::new(),
            stats: OracleStats::default(),
        }
    }

    /// Switches the oracle into scale mode: [`PathOracle::weight`] runs
    /// hop-bounded searches (`max_hops` relaxation levels) over the ball
    /// of radius `max_hops − 1` around the source, whose results live in
    /// a direct-mapped cache of `cache_slots` entries, and the shared
    /// snapshot is stored as CSR. Memory per epoch is
    /// `O(edges + cache_slots · reach)` instead of
    /// `O(edges + sources · nodes)` — the difference between a 100k-node
    /// population fitting in RAM or not — where a cached reach costs
    /// 20 B per inner node plus `24 · (max_hops − 1) + 5` B per rim node
    /// (an inner node settled one hop short of the bound): nothing per
    /// leaf, which is where a 3-hop search in a sparse city ends five
    /// times in six.
    ///
    /// Weights within `max_hops` hops are exact; destinations further
    /// away read as unreachable (weight 0). Opportunistic path weights
    /// decay multiplicatively per hop, so distant-tail truncation is the
    /// standard accuracy/size trade (§V-A keeps paths short anyway).
    /// [`PathOracle::table`] still serves exact dense tables when asked.
    ///
    /// # Panics
    ///
    /// Panics if `max_hops` or `cache_slots` is zero.
    pub fn with_bounded_reach(mut self, max_hops: usize, cache_slots: usize) -> Self {
        assert!(max_hops > 0, "a zero-hop search reaches nothing");
        assert!(cache_slots > 0, "the sparse cache needs at least one slot");
        self.max_hops = Some(max_hops);
        self.sparse = (0..cache_slots.min(self.tables.len()))
            .map(|_| None)
            .collect();
        self
    }

    /// Names the destinations [`weight`](Self::weight) is mostly asked
    /// about — the scheme's central nodes. A search started by a read
    /// *to* one of them stops once all of them have settled.
    ///
    /// Purely a work hint: every answer is bit-identical with or without
    /// it, so cached tables stay valid and nothing is invalidated. Node
    /// ids outside the population are ignored (they can never be a
    /// `dest` the oracle answers for), never a panic. Has no effect on
    /// the bounded-reach branch.
    pub fn set_targets(&mut self, targets: &[NodeId]) {
        let nodes = self.tables.len();
        self.targets.clear();
        self.targets
            .extend(targets.iter().filter(|t| t.index() < nodes));
    }

    /// The horizon `T` used for path weights.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// The current snapshot epoch: how many times the shared contact
    /// graph has been (re)built. 0 until the first query. Exposed for
    /// diagnostics and tests.
    pub fn snapshot_epoch(&self) -> u64 {
        self.epoch
    }

    /// Cumulative work counters (rebuilds, invalidations, per-source
    /// table recomputes vs cache hits). Cheap to read; never reset.
    pub fn stats(&self) -> OracleStats {
        self.stats
    }

    /// Rebuilds the shared snapshot if it is missing, wall-clock stale,
    /// or generation-stale with respect to `rates`.
    fn refresh_snapshot(&mut self, rates: &RateTable, now: Time) {
        let stale = match &self.snapshot {
            None => true,
            Some(s) => {
                now.saturating_since(s.built_at) >= self.refresh
                    || rates.generation()
                        > s.generation
                            .saturating_add(s.generation.max(GENERATION_SLACK))
            }
        };
        if stale {
            let graph = if self.max_hops.is_some() {
                SnapshotGraph::Csr(CsrGraph::from_rate_table(rates, now))
            } else {
                SnapshotGraph::Adjacency(ContactGraph::from_rate_table(rates, now))
            };
            self.snapshot = Some(Snapshot {
                built_at: now,
                generation: rates.generation(),
                graph,
            });
            self.epoch += 1;
            self.stats.rebuilds += 1;
        }
    }

    /// The cached table from `source` if it belongs to the current epoch
    /// and is final for `dest` (`None`: for every node); otherwise a
    /// fresh search against the shared snapshot replaces it.
    fn table_answering(
        &mut self,
        rates: &RateTable,
        now: Time,
        source: NodeId,
        dest: Option<NodeId>,
    ) -> &PathTable {
        self.refresh_snapshot(rates, now);
        let snapshot = self.snapshot.as_ref().expect("snapshot just refreshed");
        let slot = &mut self.tables[source.index()];
        let cached = match slot {
            Some((epoch, table)) if *epoch == self.epoch => Some(&*table),
            _ => None,
        };
        let answers = |table: &PathTable| match dest {
            Some(d) => table.settled_weight(d).is_some(),
            None => table.is_complete(),
        };
        if cached.is_some_and(answers) {
            self.stats.table_hits += 1;
        } else {
            // Stop early only on the first read of the epoch, and only
            // when it asks for a target. A current table that could not
            // answer is a partial one: the exhaustive search settles the
            // matter for the rest of the epoch.
            let stop: &[NodeId] = match dest {
                Some(d) if cached.is_none() && self.targets.contains(&d) => &self.targets,
                _ => &[],
            };
            let scratch = &mut self.scratch;
            let table = match &snapshot.graph {
                SnapshotGraph::Adjacency(g) => {
                    shortest_paths_until_in(g, source, self.horizon, stop, scratch)
                }
                SnapshotGraph::Csr(g) => {
                    shortest_paths_until_in(g, source, self.horizon, stop, scratch)
                }
            };
            self.stats.table_recomputes += 1;
            self.stats.nodes_settled += table.settled_count() as u64;
            self.stats.accumulators_built += scratch.accumulators_built() as u64;
            *slot = Some((self.epoch, table));
        }
        &slot.as_ref().expect("just computed").1
    }

    /// The complete path table from `source`, recomputed against the
    /// shared snapshot if the cached copy belongs to an older epoch or is
    /// a partial table left by an early-exit [`weight`](Self::weight)
    /// read.
    ///
    /// Always an exact, unbounded, exhaustive search — in scale mode this
    /// is the expensive dense escape hatch (an `O(nodes)` table per
    /// distinct source per epoch); hot paths should prefer
    /// [`PathOracle::weight`].
    pub fn table(&mut self, rates: &RateTable, now: Time, source: NodeId) -> &PathTable {
        self.table_answering(rates, now, source, None)
    }

    /// The best-path weight from `source` to `dest` (1 if equal,
    /// 0 if unreachable — including, in scale mode, destinations past
    /// the hop bound).
    ///
    /// With `dest` one of the [targets](Self::set_targets) and no table
    /// for `source` in the current epoch, the search stops once every
    /// target has settled; the weight is the exhaustive search's, bit
    /// for bit.
    pub fn weight(&mut self, rates: &RateTable, now: Time, source: NodeId, dest: NodeId) -> f64 {
        if source == dest {
            return 1.0;
        }
        let Some(hops) = self.max_hops else {
            return self
                .table_answering(rates, now, source, Some(dest))
                .weight_to(dest);
        };
        self.refresh_snapshot(rates, now);
        let snapshot = self.snapshot.as_ref().expect("snapshot just refreshed");
        let slot_index = source.index() % self.sparse.len();
        let slot = &mut self.sparse[slot_index];
        let valid = matches!(slot, Some((s, epoch, _)) if *s == source && *epoch == self.epoch);
        if valid {
            self.stats.table_hits += 1;
        } else {
            // A collision evicts the previous tenant (direct-mapped).
            self.stats.table_recomputes += 1;
            let reach = match &snapshot.graph {
                SnapshotGraph::Adjacency(g) => {
                    bounded_reach(g, source, self.horizon, hops, &mut self.scratch)
                }
                SnapshotGraph::Csr(g) => {
                    bounded_reach(g, source, self.horizon, hops, &mut self.scratch)
                }
            };
            self.stats.nodes_settled += reach.settled_count() as u64;
            self.stats.accumulators_built += self.scratch.accumulators_built() as u64;
            *slot = Some((source, self.epoch, reach));
        }
        // The reach belongs to this epoch, so the snapshot is the graph
        // it was searched on: a leaf's label is replayed over it.
        let reach = &slot.as_ref().expect("just computed").2;
        let (weight, evaluations) = match &snapshot.graph {
            SnapshotGraph::Adjacency(g) => reach.weight_to(g, dest),
            SnapshotGraph::Csr(g) => reach.weight_to(g, dest),
        };
        self.stats.leaf_evaluations += u64::from(evaluations);
        weight
    }

    /// THE greedy relay rule (§V-A): forward a message carried by `from`
    /// to `to` iff `to` has a strictly better path weight to `dest`. The
    /// destination always accepts; a carrier at the destination never
    /// forwards. Reads `to`'s weight, then `from`'s.
    pub fn forward(
        &mut self,
        rates: &RateTable,
        now: Time,
        from: NodeId,
        to: NodeId,
        dest: NodeId,
    ) -> bool {
        if to == dest {
            return true;
        }
        if from == dest {
            return false;
        }
        self.weight(rates, now, to, dest) > self.weight(rates, now, from, dest)
    }

    /// Drops the snapshot and every cached table (e.g. after a
    /// configuration change). The next query starts a new epoch.
    pub fn invalidate(&mut self) {
        self.snapshot = None;
        for slot in &mut self.tables {
            *slot = None;
        }
        for slot in &mut self.sparse {
            *slot = None;
        }
        self.stats.invalidations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates_line() -> RateTable {
        let mut r = RateTable::new(4, Time::ZERO);
        for t in 1..=5u64 {
            r.record(NodeId(0), NodeId(1), Time(t * 100));
            r.record(NodeId(1), NodeId(2), Time(t * 100));
            r.record(NodeId(2), NodeId(3), Time(t * 100));
        }
        r
    }

    #[test]
    fn weight_decreases_with_distance() {
        let rates = rates_line();
        let mut o = PathOracle::new(4, 3600.0, Duration::hours(1));
        let now = Time(1000);
        let w1 = o.weight(&rates, now, NodeId(0), NodeId(1));
        let w2 = o.weight(&rates, now, NodeId(0), NodeId(2));
        let w3 = o.weight(&rates, now, NodeId(0), NodeId(3));
        assert!(w1 > w2 && w2 > w3 && w3 > 0.0);
    }

    #[test]
    fn forward_is_the_greedy_relay_rule() {
        let rates = rates_line();
        let mut o = PathOracle::new(4, 1000.0, Duration::hours(1));
        let now = Time(600);
        let forward = |o: &mut PathOracle, from, to, dest| {
            o.forward(&rates, now, NodeId(from), NodeId(to), NodeId(dest))
        };
        // The destination always accepts, even from far away; a carrier
        // at the destination never forwards.
        assert!(forward(&mut o, 0, 2, 2));
        assert!(!forward(&mut o, 2, 0, 2));
        // 1 is closer to 2 than 0 is.
        assert!(forward(&mut o, 0, 1, 2));
        assert!(!forward(&mut o, 1, 0, 2));
    }

    #[test]
    fn cache_hit_reuses_table_until_refresh() {
        let mut rates = rates_line();
        let mut o = PathOracle::new(4, 3600.0, Duration::hours(1));
        let w_before = o.weight(&rates, Time(1000), NodeId(0), NodeId(1));
        // Add more contacts — too few to trip the generation threshold —
        // and stay inside the refresh window: the cached table must still
        // be served.
        for t in 6..=50u64 {
            rates.record(NodeId(0), NodeId(1), Time(t * 100));
        }
        let w_cached = o.weight(&rates, Time(1500), NodeId(0), NodeId(1));
        assert_eq!(w_before, w_cached);
        // After the refresh interval the new rates are picked up.
        let w_fresh = o.weight(&rates, Time(1000 + 3600), NodeId(0), NodeId(1));
        assert!(w_fresh > w_cached);
    }

    #[test]
    fn one_snapshot_serves_all_sources_within_an_epoch() {
        let rates = rates_line();
        let mut o = PathOracle::new(4, 3600.0, Duration::hours(1));
        for s in 0..4u32 {
            let _ = o.weight(&rates, Time(1000 + u64::from(s)), NodeId(s), NodeId(3));
        }
        // Four sources, one shared contact-graph build.
        assert_eq!(o.snapshot_epoch(), 1);
    }

    #[test]
    fn generation_growth_invalidates_despite_endless_refresh_interval() {
        // Regression: with a refresh interval longer than the whole
        // simulated period, a wall-clock-only oracle would serve the
        // weights of the first few contacts forever. Generation
        // versioning must pick up the drastically changed rate table.
        let mut rates = rates_line();
        let mut o = PathOracle::new(4, 3600.0, Duration::hours(10_000));
        let w_first = o.weight(&rates, Time(1000), NodeId(0), NodeId(1));
        // Roughly an order of magnitude more contacts: far past the
        // doubling threshold.
        for t in 6..=150u64 {
            rates.record(NodeId(0), NodeId(1), Time(t * 10));
        }
        let w_updated = o.weight(&rates, Time(1500), NodeId(0), NodeId(1));
        assert!(o.snapshot_epoch() >= 2, "snapshot was never rebuilt");
        assert!(
            w_updated > w_first,
            "stale weight {w_first} still served after massive rate change ({w_updated})"
        );
    }

    #[test]
    fn generation_slack_and_doubling_thresholds_are_exact() {
        // Pins the invalidation rule: a snapshot taken at generation g
        // survives until generation g + max(g, GENERATION_SLACK)
        // inclusive, and is rebuilt on the very next recorded contact.
        let mut rates = RateTable::new(2, Time::ZERO);
        // Wall-clock refresh effectively disabled; `now` held constant.
        let mut o = PathOracle::new(2, 3600.0, Duration::hours(10_000));
        let (a, b) = (NodeId(0), NodeId(1));
        rates.record(a, b, Time(1));
        let _ = o.weight(&rates, Time(10), a, b);
        assert_eq!(o.snapshot_epoch(), 1); // snapshot at generation 1

        // Slack regime (g = 1 < 64): stale only past generation 1 + 64.
        while rates.generation() < 65 {
            rates.record(a, b, Time(2));
        }
        let _ = o.weight(&rates, Time(10), a, b);
        assert_eq!(o.snapshot_epoch(), 1, "gen 65 = 1 + max(1, 64): cached");
        rates.record(a, b, Time(3));
        let _ = o.weight(&rates, Time(10), a, b);
        assert_eq!(o.snapshot_epoch(), 2, "gen 66 > 65: rebuilt");

        // Doubling regime (g = 66 > 64): stale only past 66 + 66.
        while rates.generation() < 132 {
            rates.record(a, b, Time(4));
        }
        let _ = o.weight(&rates, Time(10), a, b);
        assert_eq!(o.snapshot_epoch(), 2, "gen 132 = 66 + max(66, 64): cached");
        rates.record(a, b, Time(5));
        let _ = o.weight(&rates, Time(10), a, b);
        assert_eq!(o.snapshot_epoch(), 3, "gen 133 > 132: rebuilt");
    }

    #[test]
    fn generation_rebuilds_are_amortised() {
        // Querying after every single contact must not rebuild per
        // contact: the doubling rule keeps rebuild count logarithmic.
        let mut rates = RateTable::new(3, Time::ZERO);
        let mut o = PathOracle::new(3, 3600.0, Duration::hours(10_000));
        for t in 1..=2000u64 {
            rates.record(NodeId(0), NodeId(1), Time(t));
            let _ = o.weight(&rates, Time(t), NodeId(0), NodeId(1));
        }
        let epochs = o.snapshot_epoch();
        assert!(
            epochs <= 12,
            "expected O(log contacts) snapshot rebuilds, got {epochs}"
        );
    }

    #[test]
    fn invalidate_forces_recompute() {
        let mut rates = rates_line();
        let mut o = PathOracle::new(4, 3600.0, Duration::hours(1));
        let w0 = o.weight(&rates, Time(1000), NodeId(0), NodeId(1));
        for t in 6..=50u64 {
            rates.record(NodeId(0), NodeId(1), Time(t * 10));
        }
        o.invalidate();
        let w1 = o.weight(&rates, Time(1000), NodeId(0), NodeId(1));
        assert!(w1 > w0);
    }

    #[test]
    fn stats_count_rebuilds_hits_and_recomputes() {
        let rates = rates_line();
        let mut o = PathOracle::new(4, 3600.0, Duration::hours(1));
        assert_eq!(o.stats(), OracleStats::default());
        let _ = o.weight(&rates, Time(1000), NodeId(0), NodeId(3)); // recompute
        let _ = o.weight(&rates, Time(1001), NodeId(0), NodeId(2)); // hit
        let _ = o.weight(&rates, Time(1002), NodeId(1), NodeId(3)); // recompute
        let _ = o.weight(&rates, Time(1003), NodeId(1), NodeId(1)); // self: no table
        let s = o.stats();
        assert_eq!(s.rebuilds, 1);
        assert_eq!(s.table_recomputes, 2);
        assert_eq!(s.table_hits, 1);
        assert_eq!(s.invalidations, 0);
        assert_eq!(
            s.nodes_settled, 8,
            "two exhaustive searches of the 4-node line"
        );
        assert_eq!(
            s.accumulators_built, 8,
            "no hop bound, no target: every settled node relaxes"
        );
        o.invalidate();
        let _ = o.weight(&rates, Time(1004), NodeId(0), NodeId(3));
        let s = o.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.rebuilds, 2);
        assert_eq!(s.table_recomputes, 3);
    }

    /// Node 0 meets every other node often; the spokes never meet each
    /// other. Every spoke-to-spoke path runs through the hub.
    fn rates_star(nodes: u32) -> RateTable {
        let mut r = RateTable::new(nodes as usize, Time::ZERO);
        for t in 1..=5u64 {
            for spoke in 1..nodes {
                r.record(NodeId(0), NodeId(spoke), Time(t * 100 + u64::from(spoke)));
            }
        }
        r
    }

    /// One interleaving of every kind of read and every kind of
    /// invalidation, returning the bits of everything the oracle said.
    fn drive(o: &mut PathOracle, retarget: impl Fn(&mut PathOracle, &[NodeId])) -> Vec<u64> {
        const N: u32 = 12;
        let mut rates = rates_star(N);
        // A few spoke-to-spoke contacts so routes are not all via the hub.
        for (a, b) in [(3, 4), (4, 5), (7, 9), (2, 11)] {
            rates.record(NodeId(a), NodeId(b), Time(650));
        }
        let mut said = Vec::new();
        let mut sweep = |o: &mut PathOracle, rates: &RateTable, now: Time| {
            // Target reads from every source: early exit where allowed.
            for s in 0..N {
                for d in [0, 3] {
                    said.push(o.weight(rates, now, NodeId(s), NodeId(d)).to_bits());
                }
            }
            // Non-target reads: a partial table cannot answer these.
            for (s, d) in [(5, 7), (5, 0), (9, 10), (0, 4), (11, 2)] {
                said.push(o.weight(rates, now, NodeId(s), NodeId(d)).to_bits());
            }
            // Whole tables, over a partial one (6) and a complete one (5).
            for s in [6, 5] {
                let table = o.table(rates, now, NodeId(s));
                assert!(table.is_complete(), "table() handed out a partial table");
                said.extend((0..N).map(|d| table.weight_to(NodeId(d)).to_bits()));
            }
            // And target reads again, now against whatever is cached.
            for s in 0..N {
                said.push(o.weight(rates, now, NodeId(s), NodeId(3)).to_bits());
            }
        };
        retarget(o, &[NodeId(0), NodeId(3)]);
        sweep(o, &rates, Time(1000));
        // Wall-clock refresh.
        sweep(o, &rates, Time(1000 + 3600));
        assert_eq!(o.snapshot_epoch(), 2);
        // Generation-triggered rebuild inside the refresh window.
        for t in 0..400u64 {
            rates.record(NodeId(1), NodeId(2), Time(4700 + t));
        }
        sweep(o, &rates, Time(5200));
        assert_eq!(o.snapshot_epoch(), 3);
        // Re-election: invalidate, new targets (one of them bogus).
        o.invalidate();
        retarget(o, &[NodeId(3), NodeId(8), NodeId(N + 5)]);
        sweep(o, &rates, Time(5300));
        assert_eq!(o.snapshot_epoch(), 4);
        said
    }

    #[test]
    fn targets_change_work_never_answers() {
        let oracle = || PathOracle::new(12, 3600.0, Duration::hours(1));
        let mut plain = oracle();
        let mut targeted = oracle();
        let reference = drive(&mut plain, |_, _| {});
        let answers = drive(&mut targeted, |o, targets| o.set_targets(targets));
        assert_eq!(answers, reference, "a target set changed an answer");
        let (p, t) = (plain.stats(), targeted.stats());
        assert_eq!(p.rebuilds, t.rebuilds);
        assert_eq!(p.invalidations, t.invalidations);
        assert!(t.nodes_settled < p.nodes_settled, "{t:?} vs {p:?}");
    }

    #[test]
    fn targets_cut_the_nodes_settled_per_recompute() {
        // Spoke → hub with the hub as the only target: the spoke settles
        // itself, then the hub, and stops. Without targets every one of
        // the searches settles the whole star.
        const N: u32 = 40;
        let rates = rates_star(N);
        let run = |targets: &[NodeId]| {
            let mut o = PathOracle::new(N as usize, 3600.0, Duration::hours(1));
            o.set_targets(targets);
            for spoke in 1..N {
                assert!(o.weight(&rates, Time(1000), NodeId(spoke), NodeId(0)) > 0.0);
            }
            o.stats()
        };
        let (plain, targeted) = (run(&[]), run(&[NodeId(0)]));
        assert_eq!(plain.table_recomputes, u64::from(N - 1));
        assert_eq!(targeted.table_recomputes, plain.table_recomputes);
        assert_eq!(plain.nodes_settled, u64::from(N) * plain.table_recomputes);
        assert_eq!(targeted.nodes_settled, 2 * targeted.table_recomputes);
    }

    #[test]
    fn out_of_range_targets_are_ignored() {
        let rates = rates_line();
        let mut o = PathOracle::new(4, 3600.0, Duration::hours(1));
        o.set_targets(&[NodeId(4), NodeId(u32::MAX)]);
        // No usable target: the search is exhaustive, the answer exact.
        let w = o.weight(&rates, Time(1000), NodeId(0), NodeId(3));
        assert!(w > 0.0);
        assert_eq!(o.stats().nodes_settled, 4);
        // Mixed: the in-range one still stops the search.
        o.invalidate();
        o.set_targets(&[NodeId(9), NodeId(1)]);
        assert!(o.weight(&rates, Time(1000), NodeId(0), NodeId(1)) > 0.0);
        assert_eq!(o.stats().nodes_settled, 4 + 2);
    }

    #[test]
    fn self_weight_is_one_without_computation() {
        let rates = RateTable::new(2, Time::ZERO);
        let mut o = PathOracle::new(2, 100.0, Duration::hours(1));
        assert_eq!(o.weight(&rates, Time(0), NodeId(1), NodeId(1)), 1.0);
    }

    #[test]
    fn bounded_reach_matches_exact_weights_within_the_bound() {
        // The 4-node line has diameter 3: a 4-hop bound must reproduce
        // the dense oracle's weights bit for bit.
        let rates = rates_line();
        let mut exact = PathOracle::new(4, 3600.0, Duration::hours(1));
        let mut scaled = PathOracle::new(4, 3600.0, Duration::hours(1)).with_bounded_reach(4, 4);
        let now = Time(1000);
        for s in 0..4u32 {
            for d in 0..4u32 {
                assert_eq!(
                    exact.weight(&rates, now, NodeId(s), NodeId(d)),
                    scaled.weight(&rates, now, NodeId(s), NodeId(d)),
                    "weight {s}→{d} diverged under the hop bound"
                );
            }
        }
    }

    #[test]
    fn hop_bound_truncates_distant_weights_to_zero() {
        let rates = rates_line();
        let mut o = PathOracle::new(4, 3600.0, Duration::hours(1)).with_bounded_reach(1, 4);
        let now = Time(1000);
        // One hop: direct neighbor reachable, two hops away is not.
        assert!(o.weight(&rates, now, NodeId(0), NodeId(1)) > 0.0);
        assert_eq!(o.weight(&rates, now, NodeId(0), NodeId(2)), 0.0);
        // One search, and it settled n0 alone: under one hop the source
        // is its own rim and n1 a leaf, weighed by the read that asked
        // for it. n2 has no rim neighbour and cost nothing.
        let s = o.stats();
        assert_eq!(
            (s.table_recomputes, s.table_hits, s.nodes_settled),
            (1, 1, 1)
        );
        assert_eq!((s.accumulators_built, s.leaf_evaluations), (1, 1));
    }

    #[test]
    fn direct_mapped_cache_hits_and_collides_as_sized() {
        let rates = rates_line();
        // One slot: alternating sources evict each other every call.
        let mut o = PathOracle::new(4, 3600.0, Duration::hours(1)).with_bounded_reach(4, 1);
        let now = Time(1000);
        let _ = o.weight(&rates, now, NodeId(0), NodeId(3));
        let _ = o.weight(&rates, now, NodeId(0), NodeId(2)); // hit
        let _ = o.weight(&rates, now, NodeId(1), NodeId(3)); // evicts 0
        let _ = o.weight(&rates, now, NodeId(0), NodeId(1)); // evicts 1
        let s = o.stats();
        assert_eq!(s.table_recomputes, 3);
        assert_eq!(s.table_hits, 1);
        assert_eq!(s.rebuilds, 1, "collisions must not rebuild the snapshot");
    }

    #[test]
    fn scale_mode_still_serves_exact_dense_tables() {
        let rates = rates_line();
        let mut exact = PathOracle::new(4, 3600.0, Duration::hours(1));
        let mut scaled = PathOracle::new(4, 3600.0, Duration::hours(1)).with_bounded_reach(2, 2);
        let now = Time(1000);
        let te = exact.table(&rates, now, NodeId(0));
        let ts = scaled.table(&rates, now, NodeId(0));
        for d in 0..4u32 {
            assert_eq!(te.weight_to(NodeId(d)), ts.weight_to(NodeId(d)));
        }
    }

    #[test]
    fn invalidate_clears_the_sparse_cache() {
        let mut rates = rates_line();
        let mut o = PathOracle::new(4, 3600.0, Duration::hours(1)).with_bounded_reach(4, 4);
        let w0 = o.weight(&rates, Time(1000), NodeId(0), NodeId(1));
        for t in 6..=50u64 {
            rates.record(NodeId(0), NodeId(1), Time(t * 10));
        }
        o.invalidate();
        let w1 = o.weight(&rates, Time(1000), NodeId(0), NodeId(1));
        assert!(w1 > w0, "stale sparse reach served after invalidate");
    }
}
