//! Data and query workload generation (§VI-A of the paper).
//!
//! **Data generation**: each node periodically (every `T_L`) checks
//! whether it has a live generated item; if not, it generates one with
//! probability `p_G = 0.2`. Lifetimes are uniform in
//! `[0.5·T_L, 1.5·T_L]` and sizes uniform in `[0.5·s_avg, 1.5·s_avg]`.
//!
//! **Query generation**: every `T_L/2`, each node decides for each live
//! data item `j` whether to request it, with Zipf probability `P_j`
//! (Eq. 8). Queries carry the finite time constraint `T_L/2`. Nodes do
//! not query their own data (they hold it already).

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use dtn_core::ids::{DataId, NodeId};
use dtn_core::time::{Duration, Time};
use dtn_sim::engine::WorkloadEvent;
use dtn_sim::message::DataItem;

use crate::zipf::Zipf;

/// Parameters of the §VI-A workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Probability `p_G` that an idle node generates data at a check.
    /// Default 0.2 (fixed in the paper's evaluation).
    pub generation_probability: f64,
    /// Mean data lifetime `T_L`; also the generation check period.
    pub mean_lifetime: Duration,
    /// Mean data size `s_avg` in bytes.
    pub mean_size: u64,
    /// Zipf exponent `s` of the query pattern. Default 1.
    pub zipf_exponent: f64,
    /// Query time constraint; defaults to `T_L / 2` when `None`.
    pub query_constraint: Option<Duration>,
    /// Workload window `[start, end)` — the paper uses the second half
    /// of the trace.
    pub window: (Time, Time),
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// A paper-default configuration over the given window: `p_G = 0.2`,
    /// `T_L` = 1 week, `s_avg` = 100 Mb, `s = 1`.
    pub fn new(window: (Time, Time)) -> Self {
        WorkloadConfig {
            generation_probability: 0.2,
            mean_lifetime: Duration::weeks(1),
            mean_size: dtn_sim::engine::megabits(100),
            zipf_exponent: 1.0,
            query_constraint: None,
            window,
            seed: 0,
        }
    }

    /// The effective query constraint (`T_L/2` unless overridden).
    fn effective_query_constraint(&self) -> Duration {
        self.query_constraint
            .unwrap_or_else(|| self.mean_lifetime.div_by(2))
    }
}

/// Why a [`WorkloadConfig`] cannot drive [`Workload::try_generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadError {
    /// The population is empty.
    NoNodes,
    /// The window `[start, end)` is empty.
    EmptyWindow,
    /// `p_G` is not a probability (outside `[0, 1]`, or NaN).
    GenerationProbability(f64),
    /// The mean lifetime `T_L` is zero.
    ZeroLifetime,
    /// The mean size `s_avg` is zero.
    ZeroSize,
    /// The Zipf exponent is negative or not finite.
    ZipfExponent(f64),
    /// The query period (the query constraint, `T_L/2` by default) is
    /// under one second, so the query loop would never advance.
    NoQueryPeriod,
    /// An item's expiry (up to `window.1 + 1.5·T_L`) or a query epoch
    /// (up to `window.1 + constraint`) does not fit in [`Time`].
    TimeOverflow,
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::NoNodes => write!(f, "workload needs at least one node"),
            WorkloadError::EmptyWindow => write!(f, "workload window must be non-empty"),
            WorkloadError::GenerationProbability(p) => {
                write!(f, "p_G must be a probability, got {p}")
            }
            WorkloadError::ZeroLifetime => write!(f, "mean lifetime must be positive"),
            WorkloadError::ZeroSize => write!(f, "mean size must be positive"),
            WorkloadError::ZipfExponent(s) => {
                write!(f, "Zipf exponent must be finite and non-negative, got {s}")
            }
            WorkloadError::NoQueryPeriod => write!(f, "query period must be at least one second"),
            WorkloadError::TimeOverflow => {
                write!(f, "item expiries or query epochs overflow the time range")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A generated workload: the event list plus summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    events: Vec<WorkloadEvent>,
    items: Vec<DataItem>,
    query_count: u64,
    window: (Time, Time),
}

impl Workload {
    /// Generates the workload for `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics where [`Workload::try_generate`] returns an error.
    pub fn generate(nodes: usize, config: &WorkloadConfig) -> Self {
        Workload::try_generate(nodes, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Generates the workload for `nodes` nodes, checking every field of
    /// `config` first.
    ///
    /// # Errors
    ///
    /// Returns the first [`WorkloadError`] that `nodes` and `config`
    /// raise, before drawing anything.
    pub fn try_generate(nodes: usize, config: &WorkloadConfig) -> Result<Self, WorkloadError> {
        let (start, end) = config.window;
        let constraint = config.effective_query_constraint();
        let t_l = config.mean_lifetime;
        let s = config.zipf_exponent;
        if nodes == 0 {
            return Err(WorkloadError::NoNodes);
        }
        if start >= end {
            return Err(WorkloadError::EmptyWindow);
        }
        if !(0.0..=1.0).contains(&config.generation_probability) {
            return Err(WorkloadError::GenerationProbability(
                config.generation_probability,
            ));
        }
        if t_l == Duration::ZERO {
            return Err(WorkloadError::ZeroLifetime);
        }
        if config.mean_size == 0 {
            return Err(WorkloadError::ZeroSize);
        }
        if !(s.is_finite() && s >= 0.0) {
            return Err(WorkloadError::ZipfExponent(s));
        }
        if constraint == Duration::ZERO {
            return Err(WorkloadError::NoQueryPeriod);
        }
        // A drawn lifetime is `T_L · u` for some `u < 1.5`, rounded, so
        // `T_L.mul_f64(1.5)` bounds it; every generation epoch is below
        // `end` and every item is created at one.
        let longest = t_l.mul_f64(1.5);
        if end.0.checked_add(longest.0).is_none() || end.0.checked_add(constraint.0).is_none() {
            return Err(WorkloadError::TimeOverflow);
        }

        let mut rng = StdRng::seed_from_u64(config.seed);

        // --- Data generation ------------------------------------------
        let mut items: Vec<DataItem> = Vec::new();
        // expiry of each node's current live item, if any
        let mut live_until: Vec<Option<Time>> = vec![None; nodes];
        let mut next_id = 0u64;
        let generates = bernoulli_threshold(config.generation_probability);
        let mut epoch = start;
        while epoch < end {
            for (node, lives) in live_until.iter_mut().enumerate() {
                let idle = lives.is_none_or(|t| t <= epoch);
                if idle && bernoulli(&mut rng, generates) {
                    let lifetime = t_l.mul_f64(rng.gen_range(0.5..1.5)).max(Duration(1));
                    let size = ((config.mean_size as f64 * rng.gen_range(0.5..1.5)) as u64).max(1);
                    let item =
                        DataItem::new(DataId(next_id), NodeId(node as u32), size, epoch, lifetime);
                    next_id += 1;
                    *lives = Some(item.expires_at());
                    items.push(item);
                }
            }
            epoch += t_l;
        }

        // --- Query generation ------------------------------------------
        // Each hit is `(requester, index into items)`, 8 B; `batches`
        // holds each epoch that drew a hit and where its hits end.
        let mut hits: Vec<(u32, u32)> = Vec::new();
        let mut batches: Vec<(Time, usize)> = Vec::new();
        // `items` is in creation order, and an item dead at one epoch is
        // dead at every later one: the items alive at an epoch lie in the
        // window `[lo, hi)` past the dead prefix and up to the first item
        // not yet created.
        let (mut lo, mut hi) = (0, 0);
        let mut alive: Vec<u32> = Vec::new();
        let mut threshold: Vec<u64> = Vec::new();
        let mut epoch = start + constraint; // first batch after data exists
        while epoch < end {
            let drawn = hits.len();
            while hi < items.len() && items[hi].created_at <= epoch {
                hi += 1;
            }
            while lo < hi && !items[lo].is_alive(epoch) {
                lo += 1;
            }
            // Items alive at this epoch, ranked by creation order
            // (rank 1 = oldest alive = most popular). An index fits in
            // `u32`: 2^32 items would be 160 GB of them.
            alive.clear();
            alive.extend(
                (lo..hi)
                    .filter(|&i| items[i].is_alive(epoch))
                    .map(|i| i as u32),
            );
            if !alive.is_empty() {
                let zipf = Zipf::new(alive.len(), config.zipf_exponent);
                threshold.clear();
                threshold.extend(
                    (1..=alive.len()).map(|rank| bernoulli_threshold(zipf.probability(rank))),
                );
                for node in 0..nodes {
                    for (&i, &t) in alive.iter().zip(&threshold) {
                        if items[i as usize].source.index() == node {
                            continue; // a source holds its own data
                        }
                        if bernoulli(&mut rng, t) {
                            hits.push((node as u32, i));
                        }
                    }
                }
            }
            if hits.len() > drawn {
                batches.push((epoch, hits.len()));
            }
            epoch += constraint;
        }

        // Both lists are in time order: write them out once, each
        // epoch's new items before its queries.
        let mut events = Vec::with_capacity(items.len() + hits.len());
        let mut data = items.iter().peekable();
        let mut from = 0;
        for &(at, to) in &batches {
            while let Some(&item) = data.next_if(|d| d.created_at <= at) {
                events.push(WorkloadEvent::GenerateData { item });
            }
            events.extend(
                hits[from..to]
                    .iter()
                    .map(|&(node, i)| WorkloadEvent::IssueQuery {
                        at,
                        requester: NodeId(node),
                        data: items[i as usize].id,
                        constraint,
                    }),
            );
            from = to;
        }
        events.extend(data.map(|&item| WorkloadEvent::GenerateData { item }));
        let query_count = hits.len() as u64;

        Ok(Workload {
            events,
            items,
            query_count,
            window: config.window,
        })
    }

    /// The time-ordered event list, ready for
    /// [`Simulator::add_workload`](dtn_sim::engine::Simulator::add_workload).
    pub fn events(&self) -> &[WorkloadEvent] {
        &self.events
    }

    /// Consumes the workload, returning the event list.
    pub fn into_events(self) -> Vec<WorkloadEvent> {
        self.events
    }

    /// All generated data items.
    pub fn items(&self) -> &[DataItem] {
        &self.items
    }

    /// Number of queries issued.
    pub fn query_count(&self) -> u64 {
        self.query_count
    }

    /// Time-averaged number of live data items over the window — the
    /// quantity plotted against `T_L` in Fig. 9(a).
    pub fn avg_live_items(&self) -> f64 {
        let (start, end) = self.window;
        let span = (end - start).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let alive_secs: f64 = self
            .items
            .iter()
            .map(|d| {
                let from = d.created_at.max(start);
                let to = d.expires_at().min(end);
                to.saturating_since(from).as_secs_f64()
            })
            .sum();
        alive_secs / span
    }
}

/// The integer form of `gen_bool(p)` for `p ∈ [0, 1]`: a draw passes
/// [`bernoulli`] when its top 53 bits are below `⌈p · 2^53⌉`. `gen_bool`
/// tests those bits, scaled by `2^-53`, against `p`; both sides are
/// exact, so this is the same predicate on the same one draw.
fn bernoulli_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// One Bernoulli trial against a [`bernoulli_threshold`].
fn bernoulli(rng: &mut StdRng, threshold: u64) -> bool {
    (rng.next_u64() >> 11) < threshold
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(t_l_hours: u64, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            mean_lifetime: Duration::hours(t_l_hours),
            mean_size: 1000,
            seed,
            ..WorkloadConfig::new((Time(0), Time(Duration::days(4).as_secs())))
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Workload::generate(10, &config(12, 3));
        let b = Workload::generate(10, &config(12, 3));
        assert_eq!(a, b);
        let c = Workload::generate(10, &config(12, 4));
        assert_ne!(a, c);
    }

    #[test]
    fn events_are_time_ordered() {
        let w = Workload::generate(10, &config(12, 1));
        for pair in w.events().windows(2) {
            assert!(pair[0].at() <= pair[1].at());
        }
    }

    #[test]
    fn items_respect_lifetime_and_size_ranges() {
        let cfg = config(24, 7);
        let w = Workload::generate(15, &cfg);
        assert!(!w.items().is_empty());
        let t_l = cfg.mean_lifetime.as_secs_f64();
        for d in w.items() {
            let life = (d.expires_at() - d.created_at).as_secs_f64();
            assert!(
                life >= 0.5 * t_l - 1.0 && life <= 1.5 * t_l + 1.0,
                "life {life}"
            );
            assert!(d.size >= 500 && d.size <= 1500, "size {}", d.size);
        }
    }

    #[test]
    fn at_most_one_live_item_per_node() {
        let w = Workload::generate(8, &config(12, 5));
        for node in 0..8u32 {
            let mut own: Vec<&DataItem> = w
                .items()
                .iter()
                .filter(|d| d.source == NodeId(node))
                .collect();
            own.sort_by_key(|d| d.created_at);
            for pair in own.windows(2) {
                assert!(
                    pair[1].created_at >= pair[0].expires_at(),
                    "node {node} had two live items"
                );
            }
        }
    }

    #[test]
    fn queries_reference_live_foreign_items() {
        let w = Workload::generate(10, &config(12, 2));
        assert!(w.query_count() > 0);
        for e in w.events() {
            if let WorkloadEvent::IssueQuery {
                at,
                requester,
                data,
                ..
            } = e
            {
                let item = w
                    .items()
                    .iter()
                    .find(|d| d.id == *data)
                    .expect("item exists");
                assert!(item.created_at <= *at && item.is_alive(*at));
                assert_ne!(item.source, *requester, "node queried its own data");
            }
        }
    }

    #[test]
    fn query_constraint_defaults_to_half_lifetime() {
        let cfg = config(12, 2);
        assert_eq!(cfg.effective_query_constraint(), Duration::hours(6));
        let w = Workload::generate(10, &cfg);
        for e in w.events() {
            if let WorkloadEvent::IssueQuery { constraint, .. } = e {
                assert_eq!(*constraint, Duration::hours(6));
            }
        }
    }

    #[test]
    fn steady_state_live_items_approach_pg_times_nodes() {
        // With the §VI-A process, a node is live a fraction ≈ p_G of the
        // time regardless of T_L, so the live count hovers near p_G·N —
        // while the *total* generated count scales with the number of
        // generation epochs (window / T_L). Fig. 9(a)'s "amount of data
        // controlled by T_L" is this total.
        let short = Workload::generate(20, &config(6, 9));
        let long = Workload::generate(20, &config(48, 9));
        for w in [&short, &long] {
            let live = w.avg_live_items();
            assert!(live > 1.0 && live < 10.0, "live {live} far from p_G·N = 4");
        }
        assert!(
            short.items().len() > 2 * long.items().len(),
            "shorter T_L must generate more items: {} vs {}",
            short.items().len(),
            long.items().len()
        );
    }

    #[test]
    fn zero_generation_probability_yields_empty_workload() {
        let mut cfg = config(12, 1);
        cfg.generation_probability = 0.0;
        let w = Workload::generate(10, &cfg);
        assert!(w.items().is_empty());
        assert_eq!(w.query_count(), 0);
        assert_eq!(w.avg_live_items(), 0.0);
    }

    /// FNV-1a over every field of every event, in list order.
    fn fingerprint(w: &Workload) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for e in w.events() {
            let fields = match *e {
                WorkloadEvent::GenerateData { item } => [
                    0,
                    item.id.0,
                    u64::from(item.source.0),
                    item.size,
                    item.created_at.0,
                    item.expires_at.0,
                ],
                WorkloadEvent::IssueQuery {
                    at,
                    requester,
                    data,
                    constraint,
                } => [1, at.0, u64::from(requester.0), data.0, constraint.0, 0],
            };
            fields.into_iter().for_each(&mut fold);
        }
        h
    }

    #[test]
    fn three_lifetimes_over_a_fig10_window_keep_their_event_lists() {
        // 97 nodes over the second half of a 49.2-day trace, the window
        // the Fig. 10 cells use, at the shortest, a middle and the
        // longest lifetime (4 303 items and 47 040 queries; 321 and
        // 3 318; 35 and 205), pinned to the bit through every change to
        // how the list is built.
        let window = (Time(2_125_440), Time(4_250_880));
        for (lifetime, want) in [
            (8_640, 0xfcb6_21c1_60a9_e6dd),
            (120_960, 0xeb6a_b142_6cfe_aaa4),
            (1_555_200, 0x67fa_fc5d_eb81_f071),
        ] {
            let cfg = WorkloadConfig {
                mean_lifetime: Duration(lifetime),
                seed: 42,
                ..WorkloadConfig::new(window)
            };
            let w = Workload::generate(97, &cfg);
            assert_eq!(fingerprint(&w), want, "T_L = {lifetime} s");
        }
    }

    #[test]
    fn the_event_list_is_written_at_its_length() {
        for t_l in [6, 12, 48] {
            let w = Workload::generate(20, &config(t_l, 3));
            assert!(w.query_count() > 0);
            assert_eq!(w.events.capacity(), w.events.len(), "T_L = {t_l} h");
        }
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn generate_panics_with_the_error() {
        let mut cfg = config(12, 1);
        cfg.window = (Time(100), Time(100));
        let _ = Workload::generate(10, &cfg);
    }

    #[test]
    fn an_empty_window_is_an_error() {
        let mut cfg = config(12, 1);
        cfg.window = (Time(100), Time(100));
        assert_eq!(
            Workload::try_generate(10, &cfg),
            Err(WorkloadError::EmptyWindow)
        );
        cfg.window = (Time(100), Time(50));
        assert_eq!(
            Workload::try_generate(10, &cfg),
            Err(WorkloadError::EmptyWindow)
        );
    }

    #[test]
    fn a_one_second_lifetime_has_no_query_period() {
        // T_L/2 rounds to 0 s: the query loop would never advance.
        let cfg = WorkloadConfig {
            mean_lifetime: Duration(1),
            ..WorkloadConfig::new((Time(0), Time(100)))
        };
        assert_eq!(
            Workload::try_generate(4, &cfg),
            Err(WorkloadError::NoQueryPeriod)
        );
    }

    #[test]
    fn a_zero_query_constraint_is_an_error() {
        let cfg = WorkloadConfig {
            query_constraint: Some(Duration::ZERO),
            ..config(12, 1)
        };
        assert_eq!(
            Workload::try_generate(4, &cfg),
            Err(WorkloadError::NoQueryPeriod)
        );
    }

    #[test]
    fn a_nan_or_negative_zipf_exponent_is_an_error() {
        // Either used to pass the up-front checks and panic inside
        // `Zipf::new` once an item was alive at a query epoch (p_G = 1),
        // or return a workload when none ever was (p_G = 0).
        for p_g in [1.0, 0.0] {
            for s in [f64::NAN, -0.5, f64::INFINITY] {
                let cfg = WorkloadConfig {
                    zipf_exponent: s,
                    generation_probability: p_g,
                    ..config(12, 1)
                };
                let err = Workload::try_generate(8, &cfg).expect_err("exponent rejected");
                assert!(
                    matches!(err, WorkloadError::ZipfExponent(got) if got.to_bits() == s.to_bits()),
                    "s = {s}, p_G = {p_g}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn a_lifetime_past_the_time_range_is_an_error() {
        // The item's expiry used to overflow: a debug panic in `Time`'s
        // add, and in release an item expiring before it was created.
        let cfg = WorkloadConfig {
            mean_lifetime: Duration(u64::MAX - 1000),
            generation_probability: 1.0,
            ..WorkloadConfig::new((Time(10), Time(100_000)))
        };
        assert_eq!(
            Workload::try_generate(3, &cfg),
            Err(WorkloadError::TimeOverflow)
        );
        // So does a query epoch past the range, whatever the lifetime.
        let cfg = WorkloadConfig {
            query_constraint: Some(Duration(u64::MAX - 50_000)),
            ..config(12, 1)
        };
        assert_eq!(
            Workload::try_generate(3, &cfg),
            Err(WorkloadError::TimeOverflow)
        );
        // The longest lifetime whose expiries fit still generates.
        let end = 100_000u64;
        let cfg = WorkloadConfig {
            mean_lifetime: Duration((u64::MAX - end) / 2),
            generation_probability: 1.0,
            query_constraint: Some(Duration::hours(1)),
            ..WorkloadConfig::new((Time(10), Time(end)))
        };
        let w = Workload::try_generate(3, &cfg).expect("expiries fit");
        assert_eq!(w.items().len(), 3);
        assert!(w.items().iter().all(|d| d.expires_at() > d.created_at));
    }

    #[test]
    fn every_other_field_is_checked_up_front() {
        assert_eq!(
            Workload::try_generate(0, &config(12, 1)),
            Err(WorkloadError::NoNodes)
        );
        for p in [-0.1, 1.5, f64::NAN] {
            let cfg = WorkloadConfig {
                generation_probability: p,
                ..config(12, 1)
            };
            let err = Workload::try_generate(4, &cfg).expect_err("p_G rejected");
            assert!(
                matches!(err, WorkloadError::GenerationProbability(got) if got.to_bits() == p.to_bits()),
                "p_G = {p}: {err:?}"
            );
        }
        let cfg = WorkloadConfig {
            mean_lifetime: Duration::ZERO,
            ..config(12, 1)
        };
        assert_eq!(
            Workload::try_generate(4, &cfg),
            Err(WorkloadError::ZeroLifetime)
        );
        let cfg = WorkloadConfig {
            mean_size: 0,
            ..config(12, 1)
        };
        let err = Workload::try_generate(4, &cfg).expect_err("size rejected");
        assert_eq!(err, WorkloadError::ZeroSize);
        assert!(err.to_string().contains("mean size"), "{err}");
    }

    #[test]
    fn an_integer_trial_is_gen_bool_on_the_same_draw() {
        let zipf = Zipf::new(19, 1.0);
        let ps = (1..=19).map(|rank| zipf.probability(rank)).chain([
            0.0,
            1.0,
            0.2,
            0.5,
            f64::MIN_POSITIVE,
            1.0 - f64::EPSILON,
        ]);
        for p in ps {
            let (mut by_float, mut by_int) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
            let t = bernoulli_threshold(p);
            for _ in 0..2_000 {
                assert_eq!(by_float.gen_bool(p), bernoulli(&mut by_int, t), "p = {p}");
            }
        }
    }
}
