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
//! Four structural properties keep the oracle cheap and correct:
//!
//! - **Searches stop at the targets.** The paper's nodes keep their
//!   shortest opportunistic path *to the K central nodes* (§IV Eq. 3),
//!   and that is what nearly every read asks for. The scheme names those
//!   nodes with [`PathOracle::set_targets`]; the first read of an epoch
//!   from a source to a target runs the label-setting search only until
//!   the last target settles (the one loop of
//!   `dtn-core/src/path/search.rs`) and caches the *partial* table.
//!   Settled weights are final, so the answer is the exhaustive search's
//!   to the bit. A read the partial table cannot answer — a non-target
//!   destination, or [`PathOracle::table`] — runs the exhaustive search
//!   and refills it.
//! - **One batch an epoch.** [`PathOracle::warm`] searches every node
//!   without a table of this epoch as one [`shortest_paths_batch`] over
//!   the machine's workers, each search stopped at the targets and
//!   refilling its source's table in place, so every later read of the
//!   epoch is a hit. A served decision warms before it reads.
//! - **One shared snapshot per epoch.** The [`CsrGraph`] is built from
//!   the rate table once per refresh epoch, in one counting pass, and
//!   shared by the path searches of *all* sources, instead of being
//!   rebuilt per source per refresh. Per-source tables are recomputed
//!   lazily against the current snapshot.
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
//! In scale mode ([`PathOracle::with_bounded_reach`]) a source's cached
//! entry is a hop-bounded [`LazyReach`], tagged with its epoch like a
//! dense table, and the first property takes another form: **a bounded
//! search weighs a leaf of its bound only when a read asks for it.** An
//! `h`-hop search in a sparse city settles mostly nodes exactly `h` hops
//! out — leaves that relax nothing and so shape no other node's label.
//! [`bounded_reach`] keeps the ball of radius `h − 1` and nothing else;
//! a read of an inner node is a binary search, a read of a leaf replays
//! that one label from its rim neighbours' paths, rebuilt over the
//! epoch's snapshot, and a read of anything else is 0. Every answer is
//! the eager [`bounded_shortest_paths`](dtn_core::path::bounded_shortest_paths)
//! answer to the bit (`tests/path_equivalence.rs`). The targets keep a
//! column there, and only there: a pair's later reads of a target in the
//! epoch load what its first read stored.
//!
//! Most bounded reads answer one question — is the met node's weight to
//! `d` above the carrier's? — and [`PathOracle::heavier`] answers it
//! searching one side when an upper bound on the other side settles it:
//! first the other node's first-hop [`weight_cap`], then, up to three
//! hops, a bound that knows where `d` is. A sum of independent delays is
//! at most `T` only if each delay is, so a path weighs no more than the
//! product of its stage CDFs; the best such product ([`product_cap`])
//! over a node's walks of at most three edges to `d` is one scan of the
//! node's row against `d`'s 2-hop ball, which the oracle builds once per
//! destination and epoch, for the destinations a comparison bounds.

use std::sync::LazyLock;

use dtn_core::graph::{CsrGraph, Topology};
use dtn_core::hypoexp::{product_cap, weight_cap};
use dtn_core::ids::{IdMap, NodeId};
use dtn_core::path::{bounded_reach, shortest_paths_batch, LazyReach, PathTable, ReachScratch};
use dtn_core::rate::RateTable;
use dtn_core::time::{Duration, Time};

/// Minimum generation growth that can invalidate a snapshot, so sparse
/// early traffic does not thrash the cache (rebuild when
/// `gen_now > gen_snapshot + max(gen_snapshot, GENERATION_SLACK)`).
const GENERATION_SLACK: u64 = 64;

/// A cell of the target column that no read of this epoch has answered.
const UNKNOWN: f64 = f64::NAN;

/// What [`PathOracle::table`] answers for a source past the population:
/// a complete table of no nodes, which reads weight 0 and no route for
/// every destination.
static NO_TABLE: LazyLock<PathTable> = LazyLock::new(PathTable::default);

/// The contact-graph snapshot shared by all sources within one epoch.
#[derive(Debug)]
struct Snapshot {
    built_at: Time,
    generation: u64,
    graph: CsrGraph,
}

/// Cumulative oracle work counters, for probes and diagnostics.
///
/// `table_hits` counts reads served from a cached per-source table (or
/// its column entry) or reach; `table_recomputes` counts reads that had
/// to run a path search first — early exit, exhaustive or bounded,
/// including the exhaustive search that refills a partial table which
/// could not answer — so on either branch the two sum to the reads that
/// were not self-reads (a read of a node past the population counts
/// nothing either: it is 0).
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
/// a node the bound does not reach, and zero for a read of a target the
/// column already answers. `accumulators_built` sums the CDF
/// accumulators the searches built, one per settled node that relaxed
/// its edges: it moves on per-settle work that leaves the settled set
/// alone; `reach_bytes` the heap the bounded reaches hold. `balls_built`
/// counts the destination balls [`PathOracle::heavier`] built to bound a
/// side it would otherwise search (one per destination and epoch, none
/// in dense mode or past three hops), `ball_bytes` the heap they hold,
/// summed like `reach_bytes`. `rebuilds` counts snapshot builds (equals
/// [`PathOracle::snapshot_epoch`]);
/// `invalidations` counts explicit [`PathOracle::invalidate`] calls.
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
    /// Heap bytes of every bounded reach built, summed; 0 in dense mode.
    pub reach_bytes: u64,
    /// Destination balls built to bound a comparison; 0 in dense mode.
    pub balls_built: u64,
    /// Heap bytes of every destination ball built, summed.
    pub ball_bytes: u64,
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
    /// Monotone snapshot counter (0 before the first snapshot); a cached
    /// table is valid only for the epoch it was computed in.
    epoch: u64,
    /// Per source: the epoch its table was last searched in, and the
    /// table, refilled in place by the next search from that source.
    tables: Vec<(u64, PathTable)>,
    /// The destinations the scheme reads weights to (its central nodes):
    /// the stop set of the early-exit search. Empty = every search is
    /// exhaustive.
    targets: Vec<NodeId>,
    /// Scale mode: `column[s · K + k]` is the weight from `s` to
    /// `targets[k]` this epoch, [`UNKNOWN`] until the pair's first
    /// bounded read stores it; never written from a (dense, so
    /// unbounded) table. Empty in dense mode.
    column: Vec<f64>,
    /// Scale mode (see [`PathOracle::with_bounded_reach`]): hop bound
    /// for [`PathOracle::weight`] searches. `None` (the default) keeps
    /// the exact dense path.
    max_hops: Option<usize>,
    /// Scale mode, per source: the epoch its bounded reach was searched
    /// in, and the reach. Empty in dense mode.
    reaches: Vec<(u64, LazyReach)>,
    /// Scale mode, per destination a comparison of this epoch bounded:
    /// its ball ([`destination_ball`]). Emptied when the snapshot is
    /// rebuilt.
    balls: IdMap<NodeId, Box<[(NodeId, f64)]>>,
    /// One search workspace per worker of a batch; the first is the
    /// calling thread's and the only one a serial or bounded search uses.
    scratches: Vec<ReachScratch>,
    /// The epoch [`PathOracle::warm`] last searched in.
    warmed: u64,
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
            tables: (0..nodes).map(|_| (0, PathTable::default())).collect(),
            targets: Vec::new(),
            column: Vec::new(),
            max_hops: None,
            reaches: Vec::new(),
            balls: IdMap::default(),
            scratches: Vec::new(),
            warmed: 0,
            stats: OracleStats::default(),
        }
    }

    /// Switches the oracle into scale mode: [`PathOracle::weight`] runs
    /// hop-bounded searches (`max_hops` relaxation levels) over the ball
    /// of radius `max_hops − 1` around the source, and keeps one reach
    /// per source for the epoch it was searched in. Memory per epoch is
    /// `O(edges + sources read · reach)` instead of
    /// `O(edges + sources · nodes)` — the difference between a 100k-node
    /// population fitting in RAM or not — where a cached reach costs
    /// 20 B per node of the ball ([`OracleStats::reach_bytes`]) and
    /// nothing per leaf, which is where a 3-hop search in a sparse city
    /// ends five times in six.
    ///
    /// Weights within `max_hops` hops are exact; destinations further
    /// away read as unreachable (weight 0). Opportunistic path weights
    /// decay multiplicatively per hop, so distant-tail truncation is the
    /// standard accuracy/size trade (§V-A keeps paths short anyway).
    /// [`PathOracle::table`] still serves exact dense tables when asked.
    ///
    /// [Targets](Self::set_targets) named before or after this call get
    /// their column (`N × K × 8` B); [`warm`](Self::warm) stays
    /// dense-only.
    ///
    /// # Panics
    ///
    /// Panics if `max_hops` is zero.
    pub fn with_bounded_reach(mut self, max_hops: usize) -> Self {
        assert!(max_hops > 0, "a zero-hop search reaches nothing");
        self.max_hops = Some(max_hops);
        self.reaches = vec![(0, LazyReach::default()); self.tables.len()];
        self.column = vec![UNKNOWN; self.tables.len() * self.targets.len()];
        self
    }

    /// Names the destinations [`weight`](Self::weight) is mostly asked
    /// about — the scheme's central nodes. A search started by a read
    /// *to* one of them stops once all of them have settled.
    ///
    /// Purely a work hint: every answer is bit-identical with or without
    /// it, so cached tables stay valid and nothing is invalidated (a new
    /// set only empties the column of weights to the old one). Node ids
    /// outside the population are ignored (they can never be a `dest`
    /// the oracle answers for), never a panic. On the bounded-reach
    /// branch the search is unchanged and only the column applies: the
    /// first read of a (source, target) pair in an epoch stores the
    /// weight the reach answered, and its later reads load it. Dense
    /// mode keeps no column.
    pub fn set_targets(&mut self, targets: &[NodeId]) {
        let nodes = self.tables.len();
        let in_range = targets.iter().filter(|t| t.index() < nodes);
        if self.targets.iter().eq(in_range.clone()) {
            return;
        }
        self.targets.clear();
        self.targets.extend(in_range);
        self.column.clear();
        if self.max_hops.is_some() {
            self.column.resize(nodes * self.targets.len(), UNKNOWN);
        }
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
            self.snapshot = Some(Snapshot {
                built_at: now,
                generation: rates.generation(),
                graph: CsrGraph::from_rate_table(rates, now),
            });
            self.epoch += 1;
            self.stats.rebuilds += 1;
            self.column.fill(UNKNOWN);
            self.balls.clear();
        }
    }

    /// The cached table from `source` if it belongs to the current epoch
    /// and is final for `dest` (`None`: for every node); otherwise a
    /// fresh search against the shared snapshot refills it.
    fn table_answering(
        &mut self,
        rates: &RateTable,
        now: Time,
        source: NodeId,
        dest: Option<NodeId>,
    ) -> &PathTable {
        self.refresh_snapshot(rates, now);
        let (epoch, table) = &self.tables[source.index()];
        let current = *epoch == self.epoch;
        let answers = current
            && match dest {
                Some(d) => table.settled_weight(d).is_some(),
                None => table.is_complete(),
            };
        if answers {
            self.stats.table_hits += 1;
        } else {
            // Stop early only on the first read of the epoch, and only
            // when it asks for a target. A current table that could not
            // answer is a partial one: the exhaustive search settles the
            // matter for the rest of the epoch.
            let stop = matches!(dest, Some(d) if !current && self.targets.contains(&d));
            let table = std::mem::take(&mut self.tables[source.index()].1);
            self.search(&mut [(source, stop, table)]);
        }
        &self.tables[source.index()].1
    }

    /// Runs one search per job `(source, stop at the targets, the
    /// source's table)` against the current snapshot — one batch over the
    /// workers ([`shortest_paths_batch`]), each search refilling its
    /// table in place — files every table back under this epoch and
    /// counts the work.
    fn search(&mut self, jobs: &mut [(NodeId, bool, PathTable)]) {
        let snapshot = self.snapshot.as_ref().expect("searched after a refresh");
        let (graph, horizon, targets) = (&snapshot.graph, self.horizon, &self.targets);
        let built = shortest_paths_batch(graph, horizon, targets, jobs, &mut self.scratches);
        self.stats.accumulators_built += built as u64;
        for (source, _, table) in jobs {
            self.stats.table_recomputes += 1;
            self.stats.nodes_settled += table.settled_count() as u64;
            self.tables[source.index()] = (self.epoch, std::mem::take(table));
        }
    }

    /// The complete path table from `source`, recomputed against the
    /// shared snapshot if the cached copy belongs to an older epoch or is
    /// a partial table left by an early-exit [`weight`](Self::weight)
    /// read.
    ///
    /// Always an exact, unbounded, exhaustive search — in scale mode this
    /// is the expensive dense escape hatch (an `O(nodes)` table per
    /// distinct source per epoch); hot paths should prefer
    /// [`PathOracle::weight`]. A `source` past the population reads a
    /// complete table of no nodes — weight 0 and no route to anything, as
    /// [`weight`](Self::weight) answers it — and counts no work.
    pub fn table(&mut self, rates: &RateTable, now: Time, source: NodeId) -> &PathTable {
        if source.index() >= self.tables.len() {
            return &NO_TABLE;
        }
        self.table_answering(rates, now, source, None)
    }

    /// The best-path weight from `source` to `dest` (1 if equal,
    /// 0 if unreachable — including, in scale mode, destinations past
    /// the hop bound, and in either mode a `source` or `dest` past the
    /// population, which counts no work).
    ///
    /// With `dest` one of the [targets](Self::set_targets) and no table
    /// for `source` in the current epoch, the search stops once every
    /// target has settled; the weight is the exhaustive search's, bit
    /// for bit.
    pub fn weight(&mut self, rates: &RateTable, now: Time, source: NodeId, dest: NodeId) -> f64 {
        if source == dest {
            return 1.0;
        }
        if source.index().max(dest.index()) >= self.tables.len() {
            return 0.0;
        }
        let Some(hops) = self.max_hops else {
            return self
                .table_answering(rates, now, source, Some(dest))
                .weight_to(dest);
        };
        self.refresh_snapshot(rates, now);
        let cell = self
            .targets
            .iter()
            .position(|&t| t == dest)
            .map(|k| source.index() * self.targets.len() + k);
        if let Some(w) = cell.map(|c| self.column[c]).filter(|w| !w.is_nan()) {
            self.stats.table_hits += 1;
            return w;
        }
        let snapshot = self.snapshot.as_ref().expect("snapshot just refreshed");
        let graph = &snapshot.graph;
        if self.scratches.is_empty() {
            // Bounded reads search, and weigh leaves, one source at a time.
            self.scratches.push(ReachScratch::new());
        }
        let (epoch, reach) = &mut self.reaches[source.index()];
        if *epoch == self.epoch {
            self.stats.table_hits += 1;
        } else {
            self.stats.table_recomputes += 1;
            let scratch = &mut self.scratches[0];
            *reach = bounded_reach(graph, source, self.horizon, hops, scratch);
            *epoch = self.epoch;
            self.stats.nodes_settled += reach.settled_count() as u64;
            self.stats.accumulators_built += scratch.accumulators_built() as u64;
            self.stats.reach_bytes += reach.heap_bytes() as u64;
        }
        // The reach belongs to this epoch, so the snapshot is the graph
        // it was searched on: a leaf's label is replayed over it.
        let (weight, evaluations) = reach.weight_to(graph, dest, &mut self.scratches[0]);
        self.stats.leaf_evaluations += u64::from(evaluations);
        if let Some(c) = cell {
            self.column[c] = weight;
        }
        weight
    }

    /// Searches every node without a table of this epoch as one batch
    /// over the machine's workers, each search stopped once the targets
    /// have settled (a source's first search of the epoch, as its first
    /// [`weight`](Self::weight) read would run it), so every read of the
    /// epoch is a hit. Once per epoch; a no-op in bounded mode or
    /// without targets.
    pub fn warm(&mut self, rates: &RateTable, now: Time) {
        if self.max_hops.is_some() || self.targets.is_empty() {
            return;
        }
        self.refresh_snapshot(rates, now);
        if self.warmed == self.epoch {
            return;
        }
        self.warmed = self.epoch;
        let epoch = self.epoch;
        let mut jobs = Vec::new();
        for (s, (searched, table)) in self.tables.iter_mut().enumerate() {
            if *searched != epoch {
                jobs.push((NodeId(s as u32), true, std::mem::take(table)));
            }
        }
        self.search(&mut jobs);
    }

    /// Whether `a`'s path weight to `dest` is strictly heavier than
    /// `b`'s: `weight(a, dest) > weight(b, dest)`, to the bit.
    ///
    /// Dense mode reads both weights. On the bounded-reach branch one
    /// side's weight often settles the comparison, against an upper
    /// bound on the other side's: the side already answered this epoch
    /// is read first (`b` if neither or both are), and the other side is
    /// searched only if that weight falls inside the other's bound —
    /// `true` when `w_a` exceeds `b`'s, `false` when `w_b` reaches `a`'s.
    /// The bound is first [`weight_cap`] of the node's fastest contact in
    /// the snapshot (no path out of a node weighs more than its first
    /// stage, and `dest` weighs 1 to itself); if that leaves the
    /// comparison open, then the best [`product_cap`] product over the
    /// node's walks of at most three edges to `dest` (a path weighs no
    /// more than the product of its stage CDFs), read from `dest`'s
    /// 2-hop ball, built once an epoch, through one scan of the node's
    /// row. Past three hops the cap is the clamp to 1, no ball is built,
    /// and both sides are read, as they are when a node is past the
    /// population.
    pub fn heavier(
        &mut self,
        rates: &RateTable,
        now: Time,
        a: NodeId,
        b: NodeId,
        dest: NodeId,
    ) -> bool {
        let capped = self.max_hops.is_some()
            && a.index().max(b.index()).max(dest.index()) < self.tables.len();
        if !capped {
            let wb = self.weight(rates, now, b, dest);
            return self.weight(rates, now, a, dest) > wb;
        }
        self.refresh_snapshot(rates, now);
        if self.answered(a, dest) && !self.answered(b, dest) {
            let wa = self.weight(rates, now, a, dest);
            wa > self.cap(b, dest)
                || wa > self.bound(b, dest)
                || wa > self.weight(rates, now, b, dest)
        } else {
            let wb = self.weight(rates, now, b, dest);
            wb < self.cap(a, dest)
                && (self.answered(a, dest) || wb < self.bound(a, dest))
                && self.weight(rates, now, a, dest) > wb
        }
    }

    /// Whether reading `source`'s weight to `dest` searches nothing this
    /// epoch: a self-read, or a source whose reach is current (a column
    /// cell is set only by reading a current reach).
    fn answered(&self, source: NodeId, dest: NodeId) -> bool {
        source == dest || self.reaches[source.index()].0 == self.epoch
    }

    /// No less than any weight a bounded read from `source` to `dest`
    /// can answer this epoch: 1 for a self-read, else [`weight_cap`] of
    /// the source's fastest rate in the snapshot.
    fn cap(&self, source: NodeId, dest: NodeId) -> f64 {
        if source == dest {
            return 1.0;
        }
        let snapshot = self.snapshot.as_ref().expect("capped after a refresh");
        let row = snapshot.graph.neighbors(source);
        let fastest = row.iter().map(|&(_, rate)| rate).fold(0.0, f64::max);
        weight_cap(fastest, self.horizon, self.max_hops)
    }

    /// No less than any weight a bounded read of at most three hops from
    /// `source` to `dest` can answer this epoch: 1 for a self-read, else
    /// the best [`product_cap`] over `source`'s contacts `y` with `y`'s
    /// entry in `dest`'s ball, which is built first if this epoch has
    /// none. Past three hops it bounds nothing, and builds nothing.
    fn bound(&mut self, source: NodeId, dest: NodeId) -> f64 {
        if self.max_hops.is_some_and(|h| h > 3) {
            return f64::INFINITY;
        }
        if source == dest {
            return 1.0;
        }
        let snapshot = self.snapshot.as_ref().expect("bounded after a refresh");
        let (graph, horizon, stats) = (&snapshot.graph, self.horizon, &mut self.stats);
        let ball = self.balls.entry(dest).or_insert_with(|| {
            let ball = destination_ball(graph, dest, horizon);
            stats.balls_built += 1;
            stats.ball_bytes += std::mem::size_of_val::<[_]>(&ball) as u64;
            ball
        });
        graph
            .neighbors(source)
            .iter()
            .filter_map(|&(y, rate)| {
                let i = ball.binary_search_by_key(&y, |&(node, _)| node).ok()?;
                Some(product_cap(rate, horizon, ball[i].1))
            })
            .fold(0.0, f64::max)
    }

    /// THE greedy relay rule (§V-A): forward a message carried by `from`
    /// to `to` iff `to` has a strictly better path weight to `dest`
    /// ([`heavier`](Self::heavier)). The destination always accepts; a
    /// carrier at the destination never forwards. A `to` past the
    /// population reads 0, so it accepts nothing but as the destination.
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
        self.heavier(rates, now, to, from, dest)
    }

    /// Drops the snapshot and every cached table (e.g. after a
    /// configuration change). The next query starts a new epoch, which
    /// no table or reach belongs to; their arrays stay, to be refilled.
    pub fn invalidate(&mut self) {
        self.snapshot = None;
        self.stats.invalidations += 1;
    }
}

/// `dest`'s 2-hop ball over `graph`: every node with a walk of at most
/// two edges to `dest`, sorted by id, with the best [`product_cap`]
/// product over those walks at `horizon` — the bound on the rest of a
/// three-stage path that enters the ball there. `dest` itself is at 1.
fn destination_ball(graph: &CsrGraph, dest: NodeId, horizon: f64) -> Box<[(NodeId, f64)]> {
    let stage = |&(y, rate): &(NodeId, f64), rest| (y, product_cap(rate, horizon, rest));
    let first: Vec<_> = graph
        .neighbors(dest)
        .iter()
        .map(|e| stage(e, 1.0))
        .collect();
    let second = first.iter().flat_map(|&(z, rest)| {
        let row = graph.neighbors(z).iter().filter(|&&(y, _)| y != dest);
        row.map(move |e| stage(e, rest))
    });
    // Per node, the best walk so far; every product is positive, so 0
    // marks a node not yet in the ball.
    let mut best = vec![0.0; graph.node_count()];
    let mut ball = vec![dest];
    best[dest.index()] = 1.0;
    for (y, walk) in first.iter().copied().chain(second) {
        let at = &mut best[y.index()];
        if *at == 0.0 {
            ball.push(y);
        }
        *at = walk.max(*at);
    }
    ball.sort_unstable();
    ball.iter().map(|&y| (y, best[y.index()])).collect()
}

#[cfg(test)]
mod tests;
