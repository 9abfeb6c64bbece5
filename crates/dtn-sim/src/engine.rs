//! The discrete-event simulation engine.
//!
//! The engine replays a [`ContactTrace`] in time order, interleaved with
//! externally supplied workload events (data generation and queries,
//! produced by the `dtn-workload` crate). A pluggable [`Scheme`] receives
//! hooks for every event and implements the actual data-access protocol;
//! the engine provides the substrate the paper assumes:
//!
//! - online pairwise contact-rate estimation ("a node updates its contact
//!   rates with other nodes in real time", §VI-A),
//! - bandwidth-limited transmission within contact windows (2.1 Mb/s
//!   Bluetooth EDR by default),
//! - per-node buffer capacities uniformly distributed in a configured
//!   range,
//! - query bookkeeping (first in-time delivery wins; duplicates and late
//!   arrivals are counted separately),
//! - periodic cache-occupancy sampling for the caching-overhead metric.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dtn_core::ids::{NodeId, QueryId};
use dtn_core::rate::RateTable;
use dtn_core::time::{Duration, Time};
use dtn_trace::trace::{Contact, ContactTrace};

use crate::audit::{AuditLaw, AuditReport, AuditState, AuditViolation};
use crate::message::{DataItem, Query};
use crate::metrics::{CacheSample, Metrics};
use crate::probe::{Probe, ProbeEvent, ProbeSink};
use crate::profiler::{Phase, ProfileReport, Profiler};

/// Bytes per megabit, for converting the paper's "Mb" figures.
pub const MEGABIT_BYTES: u64 = 125_000;

/// Converts megabits to bytes (the paper quotes sizes in Mb).
///
/// # Example
///
/// ```
/// use dtn_sim::engine::megabits;
/// assert_eq!(megabits(100), 12_500_000);
/// ```
pub const fn megabits(mb: u64) -> u64 {
    mb * MEGABIT_BYTES
}

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Link capacity in bytes/second. Default: 2.1 Mb/s (Bluetooth EDR,
    /// §VI-A).
    pub bandwidth_bytes_per_sec: u64,
    /// Size of a query message in bytes (queries are tiny control
    /// messages). Default: 1 KiB.
    pub query_size_bytes: u64,
    /// Per-node buffer capacity is drawn uniformly from this inclusive
    /// range. Default: 200–600 Mb (§VI-A).
    pub buffer_range: (u64, u64),
    /// Interval between cache-occupancy samples. Default: 6 h.
    pub sample_interval: Duration,
    /// Probability that a contact is lost entirely (radio failure,
    /// interference): the nodes never learn it happened — no rate
    /// update, no scheme hook. Default 0.
    pub contact_loss_probability: f64,
    /// Interval between [`Scheme::on_epoch`] maintenance callbacks.
    /// `None` (the default) never fires the hook, making the epoch
    /// runtime a strict no-op.
    pub epoch_interval: Option<Duration>,
    /// Runs the invariant audit (see [`crate::audit`]) after every
    /// contact and epoch, accumulating an [`AuditReport`] readable via
    /// [`Simulator::audit_report`]. Default `false`: the engine carries
    /// a single `None` and audits cost one predicted branch per event.
    pub audit: bool,
    /// Collects a hierarchical wall-clock phase profile (see
    /// [`crate::profiler`]), readable via [`Simulator::profile_report`].
    /// Default `false`: the engine carries a single `None` and every
    /// span site costs one predicted branch — same zero-cost discipline
    /// as the probe sink and the audit slot.
    pub profile: bool,
    /// Emits a progress heartbeat to stderr every this many dispatched
    /// contacts (simulation progress, contacts/s, peak RSS, ETA) — for
    /// watching long city-scale runs. Default `None`: off, one
    /// predicted branch per contact.
    pub heartbeat_every_contacts: Option<u64>,
    /// RNG seed for buffer assignment and scheme randomness.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            bandwidth_bytes_per_sec: 262_500, // 2.1 Mb/s
            query_size_bytes: 1024,
            buffer_range: (megabits(200), megabits(600)),
            sample_interval: Duration::hours(6),
            contact_loss_probability: 0.0,
            epoch_interval: None,
            audit: false,
            profile: false,
            heartbeat_every_contacts: None,
            seed: 0,
        }
    }
}

/// One firing of the periodic maintenance channel (see
/// [`SimConfig::epoch_interval`] and [`Scheme::on_epoch`]).
///
/// The clock only advances at events, so a due epoch fires at the next
/// event rather than being back-dated; `at` is the actual firing time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epoch {
    /// Zero-based count of epochs fired so far in this run.
    pub index: u64,
    /// The simulation time at which the epoch fired.
    pub at: Time,
}

/// A workload event to inject into the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadEvent {
    /// `source` generates a new data item at `item.created_at`.
    GenerateData {
        /// The item to create (its `created_at` is the event time).
        item: DataItem,
    },
    /// `requester` asks for `data` with time constraint `constraint`.
    IssueQuery {
        /// When the query is issued.
        at: Time,
        /// The querying node.
        requester: NodeId,
        /// The requested item.
        data: dtn_core::ids::DataId,
        /// The query time constraint `T_q`.
        constraint: Duration,
    },
}

impl WorkloadEvent {
    /// The instant the event fires.
    pub fn at(&self) -> Time {
        match self {
            WorkloadEvent::GenerateData { item } => item.created_at,
            WorkloadEvent::IssueQuery { at, .. } => *at,
        }
    }
}

/// Global cache occupancy reported by a scheme when sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total cached copies across all nodes.
    pub copies: u64,
    /// Distinct live items cached anywhere.
    pub distinct: u64,
    /// Total cached bytes.
    pub bytes: u64,
}

/// Outcome of reporting a data delivery to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// First in-time delivery; the query is now satisfied.
    Accepted {
        /// Response delay experienced by the requester.
        delay: Duration,
    },
    /// The query was already satisfied; this copy is redundant.
    Duplicate,
    /// The query expired before this delivery.
    Late,
    /// The query id was never issued.
    Unknown,
}

/// A data-access scheme plugged into the engine.
///
/// All protocol state (per-node caches, relay queues, pending queries)
/// lives inside the scheme; the engine only supplies events and the
/// transmission/bookkeeping services on [`SimCtx`].
pub trait Scheme {
    /// A node has generated a new data item (it holds the item locally).
    fn on_data_generated(&mut self, ctx: &mut SimCtx<'_>, item: DataItem);

    /// A node has issued a query.
    fn on_query_issued(&mut self, ctx: &mut SimCtx<'_>, query: Query);

    /// Two nodes are in contact; `ctx.try_transmit` is available and
    /// draws from this contact's capacity.
    fn on_contact(&mut self, ctx: &mut SimCtx<'_>, contact: Contact);

    /// Periodic maintenance callback, fired every
    /// [`SimConfig::epoch_interval`] (never, by default). Epochs fire
    /// *between* events — there is no contact, so `ctx.try_transmit`
    /// must not be called here. Schemes use this for background work
    /// such as re-electing central nodes from the live rate table.
    fn on_epoch(&mut self, _ctx: &mut SimCtx<'_>, _epoch: Epoch) {}

    /// Reports current global cache occupancy for the overhead metric.
    fn cache_stats(&self, now: Time) -> CacheStats;

    /// Re-derives the scheme's canonical state and reports every broken
    /// conservation law into `report`. Called after every contact and
    /// epoch when [`SimConfig::audit`] is on; the default does nothing,
    /// so schemes without redundant state need no implementation. See
    /// [`crate::audit`] for the laws.
    fn audit(&self, _now: Time, _report: &mut AuditReport) {}
}

/// Internal record of an issued query.
#[derive(Debug, Clone, Copy)]
struct QueryRecord {
    issued_at: Time,
    expires_at: Time,
    satisfied_at: Option<Time>,
}

/// Engine state shared with schemes through [`SimCtx`].
struct Shared {
    now: Time,
    rate_table: RateTable,
    metrics: Metrics,
    rng: StdRng,
    buffer_capacities: Vec<u64>,
    queries: Vec<QueryRecord>, // indexed by QueryId
    query_size: u64,
    link_budget: Option<u64>, // bytes left in the current contact
    probe: ProbeSink,
    /// `Some` iff `SimConfig::audit` was set; boxed so the audit-off
    /// hot path carries one machine word.
    audit: Option<Box<AuditState>>,
    /// `Some` iff `SimConfig::profile` was set; same one-machine-word
    /// discipline as the audit slot.
    profiler: Option<Box<Profiler>>,
}

/// The services a [`Scheme`] can call while handling an event.
pub struct SimCtx<'a> {
    shared: &'a mut Shared,
}

impl SimCtx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.shared.now
    }

    /// The engine's deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.shared.rng
    }

    /// The live pairwise contact-rate table (updated on every contact).
    pub fn rate_table(&self) -> &RateTable {
        &self.shared.rate_table
    }

    /// Number of nodes in the simulated population.
    pub fn node_count(&self) -> usize {
        self.shared.buffer_capacities.len()
    }

    /// The caching-buffer capacity assigned to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn buffer_capacity(&self, node: NodeId) -> u64 {
        self.shared.buffer_capacities[node.index()]
    }

    /// The configured size of a query message in bytes.
    pub fn query_size(&self) -> u64 {
        self.shared.query_size
    }

    /// The probe sink: schemes emit [`ProbeEvent`]s through this. With
    /// no probe installed (the default) an emission is one predicted
    /// branch and the event is never constructed.
    pub fn probe(&mut self) -> &mut ProbeSink {
        &mut self.shared.probe
    }

    /// Whether a probe is installed — for gating instrumentation work
    /// that a lazy [`ProbeSink::emit`] closure cannot express.
    pub fn probe_enabled(&self) -> bool {
        self.shared.probe.is_enabled()
    }

    /// Opens a profiler span for `phase` (no-op unless
    /// [`SimConfig::profile`] is set). Schemes bracket their own
    /// heavyweight phases — knapsack solves, maintenance rebuilds —
    /// with this and [`SimCtx::profile_exit`]; calls must balance on
    /// every path, including early returns.
    #[inline]
    pub fn profile_enter(&mut self, phase: Phase) {
        if let Some(p) = &mut self.shared.profiler {
            p.enter(phase);
        }
    }

    /// Closes the innermost open profiler span (no-op when profiling is
    /// off).
    #[inline]
    pub fn profile_exit(&mut self) {
        if let Some(p) = &mut self.shared.profiler {
            p.exit();
        }
    }

    /// Attempts to transmit `bytes` over the current contact, consuming
    /// link capacity. Returns `false` (and counts a rejected transfer)
    /// if the contact's remaining capacity is insufficient.
    ///
    /// # Panics
    ///
    /// Panics if called outside a contact hook — transmission without a
    /// contact is impossible in a DTN and indicates a scheme bug.
    pub fn try_transmit(&mut self, bytes: u64) -> bool {
        let at = self.shared.now;
        let budget = self
            .shared
            .link_budget
            .as_mut()
            .expect("try_transmit is only valid inside on_contact");
        if *budget >= bytes {
            *budget -= bytes;
            self.shared.metrics.bytes_transmitted += bytes;
            self.shared
                .probe
                .emit(|| ProbeEvent::TransmitAccepted { at, bytes });
            true
        } else {
            self.shared.metrics.transfers_rejected += 1;
            self.shared
                .probe
                .emit(|| ProbeEvent::TransmitRejected { at, bytes });
            false
        }
    }

    /// Remaining transmission capacity of the current contact, if inside
    /// a contact hook.
    pub fn remaining_link_capacity(&self) -> Option<u64> {
        self.shared.link_budget
    }

    /// Reports that the requester of `query` received the data now.
    ///
    /// Only the first in-time delivery satisfies the query; duplicates
    /// and late arrivals are tallied separately (they are the "wasted
    /// bandwidth" §V-C talks about).
    pub fn mark_delivered(&mut self, query: QueryId) -> DeliveryOutcome {
        let now = self.shared.now;
        let outcome = 'classify: {
            let Some(rec) = self.shared.queries.get_mut(query.0 as usize) else {
                break 'classify DeliveryOutcome::Unknown;
            };
            if rec.satisfied_at.is_some() {
                self.shared.metrics.duplicate_deliveries += 1;
                break 'classify DeliveryOutcome::Duplicate;
            }
            if now >= rec.expires_at {
                self.shared.metrics.late_deliveries += 1;
                break 'classify DeliveryOutcome::Late;
            }
            rec.satisfied_at = Some(now);
            let delay = now - rec.issued_at;
            self.shared.metrics.queries_satisfied += 1;
            self.shared.metrics.total_delay_secs += delay.as_secs();
            DeliveryOutcome::Accepted { delay }
        };
        if let Some(audit) = &mut self.shared.audit {
            audit.deliveries_reported += 1;
            if outcome == DeliveryOutcome::Unknown {
                audit.unknown_deliveries += 1;
            }
        }
        self.shared.probe.emit(|| ProbeEvent::Delivery {
            at: now,
            query,
            outcome,
        });
        outcome
    }

    /// Whether `query` is still unsatisfied and unexpired.
    pub fn query_is_open(&self, query: QueryId) -> bool {
        self.shared
            .queries
            .get(query.0 as usize)
            .is_some_and(|r| r.satisfied_at.is_none() && self.shared.now < r.expires_at)
    }

    /// Counts `count` cache-replacement operations (Fig. 12(c) metric).
    pub fn note_replacements(&mut self, count: u64) {
        self.shared.metrics.replacement_ops += count;
    }

    /// Splits the context into a [`LinkAccess`] that exposes the rate
    /// table and the transmit budget *simultaneously* — needed by
    /// routing code that reads path weights while charging transfers.
    ///
    /// # Panics
    ///
    /// Panics if called outside a contact hook.
    pub fn link_access(&mut self) -> LinkAccess<'_> {
        assert!(
            self.shared.link_budget.is_some(),
            "link_access is only valid inside on_contact"
        );
        LinkAccess {
            rates: &self.shared.rate_table,
            budget: self
                .shared
                .link_budget
                .as_mut()
                .expect("checked just above"),
            metrics: &mut self.shared.metrics,
            now: self.shared.now,
            probe: &mut self.shared.probe,
        }
    }
}

/// Simultaneous access to the rate table and the contact's transmit
/// budget (split borrow of the engine state). Implements [`Link`].
pub struct LinkAccess<'a> {
    rates: &'a RateTable,
    budget: &'a mut u64,
    metrics: &'a mut Metrics,
    now: Time,
    probe: &'a mut ProbeSink,
}

/// A transmission medium: pairwise rates plus a budgeted transmit
/// operation. Implemented by [`LinkAccess`]; test code can provide
/// stubs.
pub trait Link {
    /// The live pairwise contact-rate table.
    fn rate_table(&self) -> &RateTable;

    /// Attempts to transmit `bytes`, consuming link capacity.
    fn try_transmit(&mut self, bytes: u64) -> bool;
}

impl Link for LinkAccess<'_> {
    fn rate_table(&self) -> &RateTable {
        self.rates
    }

    fn try_transmit(&mut self, bytes: u64) -> bool {
        let at = self.now;
        if *self.budget >= bytes {
            *self.budget -= bytes;
            self.metrics.bytes_transmitted += bytes;
            self.probe
                .emit(|| ProbeEvent::TransmitAccepted { at, bytes });
            true
        } else {
            self.metrics.transfers_rejected += 1;
            self.probe
                .emit(|| ProbeEvent::TransmitRejected { at, bytes });
            false
        }
    }
}

/// Where the simulator's contacts come from: a cursor over a
/// time-ordered contact sequence.
///
/// Implemented by [`TraceSource`] (a materialized [`ContactTrace`] —
/// the classic path) and [`StreamSource`] (any time-ordered contact
/// iterator, e.g. `SyntheticTraceBuilder::stream`, which is what lets
/// city-scale populations run without the trace ever existing in RAM).
pub trait ContactSource {
    /// Number of nodes in the population.
    fn node_count(&self) -> usize;

    /// The observation end: the simulation's natural stopping time.
    /// Every contact starts before or at it.
    fn end_time(&self) -> Time;

    /// The horizon if the source knows one, `None` for open-ended
    /// sources (e.g. a live [`StreamSource`] whose end is unknown).
    /// Progress reporting must not extrapolate an ETA from `None`.
    fn known_end(&self) -> Option<Time> {
        Some(self.end_time())
    }

    /// The next contact, without consuming it. Repeated calls return
    /// the same contact until [`ContactSource::advance`].
    fn peek(&mut self) -> Option<Contact>;

    /// Consumes the contact last returned by [`ContactSource::peek`].
    fn advance(&mut self);
}

/// A [`ContactSource`] replaying a borrowed, materialized
/// [`ContactTrace`].
#[derive(Debug)]
pub struct TraceSource<'t> {
    trace: &'t ContactTrace,
    next: usize,
}

impl<'t> TraceSource<'t> {
    /// Wraps a trace as a contact source (cursor at the beginning).
    pub fn new(trace: &'t ContactTrace) -> Self {
        TraceSource { trace, next: 0 }
    }
}

impl ContactSource for TraceSource<'_> {
    fn node_count(&self) -> usize {
        self.trace.node_count()
    }

    fn end_time(&self) -> Time {
        Time(self.trace.duration().as_secs())
    }

    fn peek(&mut self) -> Option<Contact> {
        self.trace.contacts().get(self.next).copied()
    }

    fn advance(&mut self) {
        self.next += 1;
    }
}

/// A [`ContactSource`] pulling from a time-ordered contact iterator —
/// memory stays whatever the iterator itself holds, regardless of how
/// many contacts flow through.
///
/// # Panics
///
/// Iteration panics if the iterator yields contacts with decreasing
/// start times: event-order violations would silently corrupt every
/// downstream metric, so they fail fast.
#[derive(Debug)]
pub struct StreamSource<I> {
    iter: I,
    nodes: usize,
    end: Time,
    open_ended: bool,
    pending: Option<Contact>,
    exhausted: bool,
    last_start: Time,
}

impl<I: Iterator<Item = Contact>> StreamSource<I> {
    /// Wraps a time-ordered contact iterator over `nodes` nodes
    /// observed for `duration`.
    pub fn new(iter: I, nodes: usize, duration: Duration) -> Self {
        StreamSource {
            iter,
            nodes,
            end: Time(duration.as_secs()),
            open_ended: false,
            pending: None,
            exhausted: false,
            last_start: Time::ZERO,
        }
    }

    /// Marks the stream as open-ended: `duration` remains the run
    /// bound for [`Simulator::run_to_end`], but it is *not* a known
    /// horizon — [`ContactSource::known_end`] answers `None`, so
    /// progress heartbeats report `eta=?` instead of extrapolating
    /// toward a bound the live stream may never reach.
    pub fn open_ended(mut self) -> Self {
        self.open_ended = true;
        self
    }
}

impl StreamSource<dtn_trace::synthetic::ContactStream> {
    /// Wraps a synthetic [`ContactStream`], taking the population size
    /// and observation length from the stream itself.
    ///
    /// [`ContactStream`]: dtn_trace::synthetic::ContactStream
    pub fn from_synthetic(stream: dtn_trace::synthetic::ContactStream) -> Self {
        let nodes = stream.node_count();
        let duration = stream.duration();
        StreamSource::new(stream, nodes, duration)
    }
}

impl<I: Iterator<Item = Contact>> ContactSource for StreamSource<I> {
    fn node_count(&self) -> usize {
        self.nodes
    }

    fn end_time(&self) -> Time {
        self.end
    }

    fn known_end(&self) -> Option<Time> {
        (!self.open_ended).then_some(self.end)
    }

    fn peek(&mut self) -> Option<Contact> {
        if self.pending.is_none() && !self.exhausted {
            self.pending = self.iter.next();
            match self.pending {
                Some(c) => {
                    assert!(
                        c.start >= self.last_start,
                        "contact stream must be time-ordered: {:?} after {:?}",
                        c.start,
                        self.last_start
                    );
                    self.last_start = c.start;
                }
                None => self.exhausted = true,
            }
        }
        self.pending
    }

    fn advance(&mut self) {
        self.pending = None;
    }
}

/// The discrete-event simulator.
///
/// Generic over its [`ContactSource`]: [`Simulator::new`] replays a
/// borrowed [`ContactTrace`], [`Simulator::from_source`] accepts any
/// source — notably a [`StreamSource`] feeding contacts straight from
/// a generator, which is how 100k–1M-node populations run in `O(pairs)`
/// memory.
///
/// # Example
///
/// A trivial scheme that never does anything still produces metrics:
///
/// ```
/// use dtn_sim::engine::{CacheStats, Scheme, SimConfig, SimCtx, Simulator};
/// use dtn_sim::message::{DataItem, Query};
/// use dtn_trace::synthetic::SyntheticTraceBuilder;
/// use dtn_trace::trace::Contact;
/// use dtn_core::time::Time;
///
/// struct Idle;
/// impl Scheme for Idle {
///     fn on_data_generated(&mut self, _: &mut SimCtx<'_>, _: DataItem) {}
///     fn on_query_issued(&mut self, _: &mut SimCtx<'_>, _: Query) {}
///     fn on_contact(&mut self, _: &mut SimCtx<'_>, _: Contact) {}
///     fn cache_stats(&self, _: Time) -> CacheStats { CacheStats::default() }
/// }
///
/// let trace = SyntheticTraceBuilder::new(10).seed(1).build();
/// let mut sim = Simulator::new(&trace, Idle, SimConfig::default());
/// sim.run_to_end();
/// assert_eq!(sim.metrics().queries_issued, 0);
/// ```
pub struct Simulator<S, C> {
    source: C,
    scheme: S,
    shared: Shared,
    workload: Vec<WorkloadEvent>,
    next_workload: usize,
    next_sample: Time,
    sample_interval: Duration,
    next_epoch: Time,
    epoch_interval: Option<Duration>,
    epoch_index: u64,
    bandwidth: u64,
    contact_loss: f64,
    heartbeat: Option<Heartbeat>,
}

/// Progress-heartbeat state (see
/// [`SimConfig::heartbeat_every_contacts`]). Wall-clock anchors are
/// taken lazily at the first dispatched contact so configure/warm-up
/// phases don't distort the rate or the ETA.
struct Heartbeat {
    every: u64,
    contacts: u64,
    started_wall: Option<std::time::Instant>,
    started_sim: Time,
    last_wall: std::time::Instant,
    last_contacts: u64,
}

/// Formats the heartbeat ETA field. `-` before any simulated progress
/// (nothing to extrapolate from — and the naive formula would divide
/// by zero), `?` when the source has no known horizon (an open-ended
/// [`StreamSource`] — extrapolating toward `end_time()` there invents
/// an ETA for a bound the stream may never reach), otherwise wall
/// clock scaled by the remaining fraction of simulated time.
fn heartbeat_eta(
    wall_secs: f64,
    started_sim: u64,
    sim_now: u64,
    known_end: Option<Time>,
) -> String {
    let progressed = sim_now.saturating_sub(started_sim);
    if progressed == 0 {
        return "-".to_string();
    }
    match known_end {
        None => "?".to_string(),
        Some(end) => {
            let remaining = end.0.saturating_sub(sim_now);
            format!("{:.0}s", wall_secs * remaining as f64 / progressed as f64)
        }
    }
}

/// Formats the heartbeat progress field: `t=<now>s/<end>s (<pct>%)`
/// with a known horizon, `t=<now>s/?` without one (a percentage of an
/// unknown total would be meaningless).
fn heartbeat_progress(sim_now: u64, known_end: Option<Time>) -> String {
    match known_end {
        None => format!("t={sim_now}s/?"),
        Some(end) => {
            let pct = if end.0 > 0 {
                sim_now as f64 / end.0 as f64 * 100.0
            } else {
                100.0
            };
            format!("t={sim_now}s/{}s ({pct:.1}%)", end.0)
        }
    }
}

impl<'t, S: Scheme> Simulator<S, TraceSource<'t>> {
    /// Creates a simulator over `trace` driving `scheme`.
    pub fn new(trace: &'t ContactTrace, scheme: S, config: SimConfig) -> Self {
        Simulator::from_source(TraceSource::new(trace), scheme, config)
    }
}

impl<S: Scheme, C: ContactSource> Simulator<S, C> {
    /// Creates a simulator over any [`ContactSource`] driving `scheme`.
    pub fn from_source(source: C, scheme: S, config: SimConfig) -> Self {
        assert!(
            config.bandwidth_bytes_per_sec > 0,
            "bandwidth must be positive"
        );
        assert!(
            config.buffer_range.0 <= config.buffer_range.1,
            "buffer range must be ordered"
        );
        assert!(
            (0.0..=1.0).contains(&config.contact_loss_probability),
            "contact loss must be a probability"
        );
        // A zero interval would never advance `next_sample`/`next_epoch`
        // past the clock: the catch-up loops would spin forever.
        assert!(
            config.sample_interval > Duration(0),
            "sample interval must be positive"
        );
        assert!(
            config.epoch_interval != Some(Duration(0)),
            "epoch interval must be positive"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let buffer_capacities = (0..source.node_count())
            .map(|_| rng.gen_range(config.buffer_range.0..=config.buffer_range.1))
            .collect();
        let nodes = source.node_count();
        Simulator {
            source,
            scheme,
            shared: Shared {
                now: Time::ZERO,
                rate_table: RateTable::new(nodes, Time::ZERO),
                metrics: Metrics::default(),
                rng,
                buffer_capacities,
                queries: Vec::new(),
                query_size: config.query_size_bytes,
                link_budget: None,
                probe: ProbeSink::Noop,
                audit: config.audit.then(|| Box::new(AuditState::default())),
                profiler: config.profile.then(|| Box::new(Profiler::new())),
            },
            workload: Vec::new(),
            next_workload: 0,
            next_sample: Time::ZERO + config.sample_interval,
            sample_interval: config.sample_interval,
            next_epoch: config.epoch_interval.map_or(Time::ZERO, |i| Time::ZERO + i),
            epoch_interval: config.epoch_interval,
            epoch_index: 0,
            bandwidth: config.bandwidth_bytes_per_sec,
            contact_loss: config.contact_loss_probability,
            heartbeat: config.heartbeat_every_contacts.map(|every| Heartbeat {
                every: every.max(1),
                contacts: 0,
                started_wall: None,
                started_sim: Time::ZERO,
                last_wall: std::time::Instant::now(),
                last_contacts: 0,
            }),
        }
    }

    /// The scheme under simulation.
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// The contact source driving the simulation (e.g. to read an
    /// [`OverlaySource`]'s dropped-contact counter after a run).
    ///
    /// [`OverlaySource`]: crate::overlay::OverlaySource
    pub fn source(&self) -> &C {
        &self.source
    }

    /// Mutable access to the scheme (for configuration between phases).
    pub fn scheme_mut(&mut self) -> &mut S {
        &mut self.scheme
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.shared.now
    }

    /// The live contact-rate table.
    pub fn rate_table(&self) -> &RateTable {
        &self.shared.rate_table
    }

    /// Split borrow of the engine's live state: the scheme (mutably, so
    /// it can be configured, or hand out a `DecisionPoint` over its own
    /// oracle) plus the live rate table, the current simulation time and
    /// the per-node buffer capacities — everything NCL election and
    /// online decisions read, with no copy and no caller-supplied clock.
    pub fn live_state(&mut self) -> (&mut S, &RateTable, Time, &[u64]) {
        (
            &mut self.scheme,
            &self.shared.rate_table,
            self.shared.now,
            &self.shared.buffer_capacities,
        )
    }

    /// The buffer capacity assigned to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn buffer_capacity(&self, node: NodeId) -> u64 {
        self.shared.buffer_capacities[node.index()]
    }

    /// Overrides the capacity drawn for `node`, for scenarios that need
    /// one specific node tight or roomy. Schemes size their buffers at
    /// configuration, so call this before configuring.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_buffer_capacity(&mut self, node: NodeId, bytes: u64) {
        self.shared.buffer_capacities[node.index()] = bytes;
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The accumulated invariant-audit report, `None` unless
    /// [`SimConfig::audit`] was set.
    pub fn audit_report(&self) -> Option<&AuditReport> {
        self.shared.audit.as_deref().map(|a| &a.report)
    }

    /// Snapshot of the hierarchical phase profile, `None` unless
    /// [`SimConfig::profile`] was set.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.shared.profiler.as_deref().map(Profiler::report)
    }

    #[inline]
    fn prof_enter(&mut self, phase: Phase) {
        if let Some(p) = &mut self.shared.profiler {
            p.enter(phase);
        }
    }

    #[inline]
    fn prof_exit(&mut self) {
        if let Some(p) = &mut self.shared.profiler {
            p.exit();
        }
    }

    /// Counts one dispatched contact toward the heartbeat and, when
    /// due, writes a progress line to stderr (keeping stdout free for
    /// JSONL): simulation progress, contact throughput since the last
    /// beat, peak RSS, and an ETA extrapolated from overall progress.
    fn heartbeat_tick(&mut self) {
        let known_end = self.source.known_end();
        let Some(hb) = &mut self.heartbeat else {
            return;
        };
        let now_wall = std::time::Instant::now();
        if hb.started_wall.is_none() {
            hb.started_wall = Some(now_wall);
            hb.started_sim = self.shared.now;
            hb.last_wall = now_wall;
        }
        let started = hb.started_wall.expect("initialised just above");
        hb.contacts += 1;
        if hb.contacts % hb.every != 0 {
            return;
        }
        let sim_now = self.shared.now.0;
        let rate = {
            let secs = now_wall.duration_since(hb.last_wall).as_secs_f64();
            let delta = hb.contacts - hb.last_contacts;
            if secs > 0.0 {
                delta as f64 / secs
            } else {
                0.0
            }
        };
        let wall = now_wall.duration_since(started).as_secs_f64();
        let eta = heartbeat_eta(wall, hb.started_sim.0, sim_now, known_end);
        let progress = heartbeat_progress(sim_now, known_end);
        eprintln!(
            "[heartbeat] {progress} contacts={} ({rate:.0}/s) rss={:.1}MB eta={eta}",
            hb.contacts,
            dtn_core::sys::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
        );
        hb.last_wall = now_wall;
        hb.last_contacts = hb.contacts;
    }

    /// Installs a probe; every layer's [`ProbeEvent`]s flow into it
    /// from now on. Replaces any previously installed probe.
    pub fn set_probe(&mut self, probe: Box<dyn Probe>) {
        self.shared.probe = ProbeSink::Enabled(probe);
    }

    /// Removes and returns the installed probe (engine reverts to the
    /// zero-cost noop sink). `None` if no probe was installed.
    pub fn take_probe(&mut self) -> Option<Box<dyn Probe>> {
        match std::mem::take(&mut self.shared.probe) {
            ProbeSink::Enabled(p) => Some(p),
            ProbeSink::Noop => None,
        }
    }

    /// Appends workload events. Events must not be in the past; they are
    /// sorted internally.
    ///
    /// # Panics
    ///
    /// Panics if any event is earlier than the current time.
    pub fn add_workload(&mut self, mut events: Vec<WorkloadEvent>) {
        for e in &events {
            assert!(
                e.at() >= self.shared.now,
                "workload event at {:?} is in the past (now {:?})",
                e.at(),
                self.shared.now
            );
        }
        if events.is_empty() {
            return;
        }
        // Stable sort: equal-time new events keep their submission order.
        events.sort_by_key(WorkloadEvent::at);
        let tail_start = self.next_workload;
        if self.workload.len() == tail_start {
            self.workload.append(&mut events);
            return;
        }
        // The unprocessed tail is already sorted (invariant of this
        // method), so merge instead of re-sorting the whole tail. Tail
        // events win ties, matching what a stable sort of
        // `tail ++ events` would produce.
        let mut merged = Vec::with_capacity(self.workload.len() - tail_start + events.len());
        {
            let tail = &self.workload[tail_start..];
            let (mut i, mut j) = (0, 0);
            while i < tail.len() && j < events.len() {
                if tail[i].at() <= events[j].at() {
                    merged.push(tail[i]);
                    i += 1;
                } else {
                    merged.push(events[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&tail[i..]);
            merged.extend_from_slice(&events[j..]);
        }
        self.workload.truncate(tail_start);
        self.workload.append(&mut merged);
    }

    /// Processes every event strictly before `until`, then advances the
    /// clock to `until`.
    pub fn run_until(&mut self, until: Time) {
        loop {
            let next_c = self.source.peek();
            let next_w = self.workload.get(self.next_workload).copied();
            // Workload events win ties so data generated at time t can be
            // pushed during a contact starting at the same instant.
            let (event_time, is_workload) = match (next_c.map(|c| c.start), next_w.map(|e| e.at()))
            {
                (None, None) => break,
                (Some(c), None) => (c, false),
                (None, Some(w)) => (w, true),
                (Some(c), Some(w)) => {
                    if w <= c {
                        (w, true)
                    } else {
                        (c, false)
                    }
                }
            };
            if event_time >= until {
                break;
            }
            self.shared.now = event_time;
            self.sample_if_due();
            self.fire_epoch_if_due();
            if is_workload {
                self.next_workload += 1;
                self.prof_enter(Phase::Workload);
                self.dispatch_workload(next_w.expect("is_workload implies a workload event"));
                self.prof_exit();
            } else {
                self.source.advance();
                self.prof_enter(Phase::ContactCommit);
                self.dispatch_contact(next_c.expect("!is_workload implies a contact"));
                self.prof_exit();
            }
        }
        self.shared.now = self.shared.now.max(until);
        self.sample_if_due();
        self.fire_epoch_if_due();
    }

    /// Processes every remaining event and returns the final metrics.
    pub fn run_to_end(&mut self) -> &Metrics {
        let end = Time(self.source.end_time().0 + 1);
        self.run_until(end);
        &self.shared.metrics
    }

    fn dispatch_workload(&mut self, event: WorkloadEvent) {
        match event {
            WorkloadEvent::GenerateData { item } => {
                self.shared.metrics.data_generated += 1;
                self.shared.probe.emit(|| ProbeEvent::DataInjected {
                    at: item.created_at,
                    data: item.id,
                    source: item.source,
                    size: item.size,
                });
                let mut ctx = SimCtx {
                    shared: &mut self.shared,
                };
                self.scheme.on_data_generated(&mut ctx, item);
            }
            WorkloadEvent::IssueQuery {
                at,
                requester,
                data,
                constraint,
            } => {
                let id = QueryId(self.shared.queries.len() as u64);
                self.shared.queries.push(QueryRecord {
                    issued_at: at,
                    expires_at: at + constraint,
                    satisfied_at: None,
                });
                self.shared.metrics.queries_issued += 1;
                self.shared.probe.emit(|| ProbeEvent::QueryInjected {
                    at,
                    query: id,
                    requester,
                    data,
                    expires_at: at + constraint,
                });
                let query = Query::new(id, requester, data, at, constraint);
                let mut ctx = SimCtx {
                    shared: &mut self.shared,
                };
                self.scheme.on_query_issued(&mut ctx, query);
            }
        }
    }

    fn dispatch_contact(&mut self, contact: Contact) {
        if self.heartbeat.is_some() {
            self.heartbeat_tick();
        }
        if let Some(audit) = &mut self.shared.audit {
            // Trace-monotonicity law: a malformed contact is reported
            // and quarantined before it can touch the RNG, the rate
            // table, or the scheme — one structured violation instead
            // of a cascade of secondary ones (or a panic downstream).
            let nodes = self.shared.buffer_capacities.len();
            if !crate::audit::check_contact_well_formed(&contact, nodes, audit) {
                return;
            }
        }
        if self.contact_loss > 0.0 && self.shared.rng.gen_bool(self.contact_loss) {
            // Fault injection: the radios never connected.
            self.shared.metrics.contacts_lost += 1;
            self.shared.probe.emit(|| ProbeEvent::ContactLost {
                at: contact.start,
                a: contact.a,
                b: contact.b,
            });
            return;
        }
        self.shared
            .rate_table
            .record(contact.a, contact.b, contact.start);
        // f64 keeps fractional seconds of the budget; whole-second
        // trace contacts get bit-identical budgets to the old integer
        // product (products here are far below 2^53).
        let budget =
            dtn_core::time::link_budget_bytes(contact.duration().as_secs_f64(), self.bandwidth);
        self.shared.link_budget = Some(budget);
        self.shared.probe.emit(|| ProbeEvent::ContactBegin {
            at: contact.start,
            a: contact.a,
            b: contact.b,
            budget,
        });
        let mut ctx = SimCtx {
            shared: &mut self.shared,
        };
        self.scheme.on_contact(&mut ctx, contact);
        let remaining = self.shared.link_budget.take().unwrap_or(0);
        if let Some(audit) = &mut self.shared.audit {
            if remaining > budget {
                audit.report.violate(AuditViolation {
                    law: AuditLaw::LinkBudget,
                    at: self.shared.now,
                    node: Some(contact.a),
                    item: None,
                    detail: format!(
                        "contact ({}, {}) ended with {remaining} budget bytes \
                         remaining of {budget}",
                        contact.a, contact.b
                    ),
                });
            }
        }
        self.shared.probe.emit(|| ProbeEvent::ContactEnd {
            at: contact.start,
            a: contact.a,
            b: contact.b,
            bytes_used: budget.saturating_sub(remaining),
        });
        if self.shared.audit.is_some() {
            self.run_audit();
        }
    }

    /// Takes one cache-occupancy sample if the sampling interval has
    /// elapsed. Samples are stamped with the *actual* measurement time
    /// (the clock only advances at events, so a due sample is taken at
    /// the next event rather than back-dated).
    fn sample_if_due(&mut self) {
        if self.shared.now < self.next_sample {
            return;
        }
        self.prof_enter(Phase::Sample);
        let stats = self.scheme.cache_stats(self.shared.now);
        self.shared.metrics.samples.push(CacheSample {
            at: self.shared.now,
            copies: stats.copies,
            distinct: stats.distinct,
            bytes: stats.bytes,
        });
        let at = self.shared.now;
        self.shared.probe.emit(|| ProbeEvent::CacheSampled {
            at,
            copies: stats.copies,
            bytes: stats.bytes,
        });
        while self.next_sample <= self.shared.now {
            self.next_sample += self.sample_interval;
        }
        self.prof_exit();
    }

    /// Fires the [`Scheme::on_epoch`] maintenance hook if the epoch
    /// interval has elapsed. Like sampling, a due epoch fires at the
    /// next event with the actual clock time; several missed intervals
    /// collapse into a single firing. Epochs fire outside contacts, so
    /// `link_budget` is `None` and transmission is impossible.
    fn fire_epoch_if_due(&mut self) {
        let Some(interval) = self.epoch_interval else {
            return;
        };
        if self.shared.now < self.next_epoch {
            return;
        }
        self.prof_enter(Phase::EpochMaintenance);
        let epoch = Epoch {
            index: self.epoch_index,
            at: self.shared.now,
        };
        self.epoch_index += 1;
        self.shared.probe.emit(|| ProbeEvent::EpochFired {
            at: epoch.at,
            index: epoch.index,
        });
        let mut ctx = SimCtx {
            shared: &mut self.shared,
        };
        self.scheme.on_epoch(&mut ctx, epoch);
        while self.next_epoch <= self.shared.now {
            self.next_epoch += interval;
        }
        if self.shared.audit.is_some() {
            self.run_audit();
        }
        self.prof_exit();
    }

    /// One audit sweep: engine-side query/delivery conservation, then
    /// the scheme's own [`Scheme::audit`]. Only called with the audit
    /// state present.
    fn run_audit(&mut self) {
        let Some(mut audit) = self.shared.audit.take() else {
            return;
        };
        self.prof_enter(Phase::AuditSweep);
        audit.report.begin_sweep();
        self.check_query_conservation(&mut audit);
        self.scheme.audit(self.shared.now, &mut audit.report);
        self.shared.audit = Some(audit);
        self.prof_exit();
    }

    /// [`AuditLaw::QueryConservation`] and
    /// [`AuditLaw::DeliveryAccounting`]: recompute query outcomes from
    /// the records and compare against the metric counters.
    fn check_query_conservation(&self, audit: &mut AuditState) {
        let now = self.shared.now;
        let m = &self.shared.metrics;
        let report = &mut audit.report;
        if m.queries_issued != self.shared.queries.len() as u64 {
            report.violate(AuditViolation {
                law: AuditLaw::QueryConservation,
                at: now,
                node: None,
                item: None,
                detail: format!(
                    "queries_issued {} != {} query records",
                    m.queries_issued,
                    self.shared.queries.len()
                ),
            });
        }
        let (mut satisfied, mut expired, mut in_flight, mut delay) = (0u64, 0u64, 0u64, 0u64);
        for rec in &self.shared.queries {
            match rec.satisfied_at {
                Some(at) => {
                    satisfied += 1;
                    delay += at.saturating_since(rec.issued_at).as_secs();
                }
                None if now >= rec.expires_at => expired += 1,
                None => in_flight += 1,
            }
        }
        if m.queries_satisfied != satisfied || satisfied + expired + in_flight != m.queries_issued {
            report.violate(AuditViolation {
                law: AuditLaw::QueryConservation,
                at: now,
                node: None,
                item: None,
                detail: format!(
                    "issued {} != satisfied {satisfied} + expired {expired} \
                     + in-flight {in_flight} (metrics satisfied {})",
                    m.queries_issued, m.queries_satisfied
                ),
            });
        }
        if m.total_delay_secs != delay {
            report.violate(AuditViolation {
                law: AuditLaw::QueryConservation,
                at: now,
                node: None,
                item: None,
                detail: format!(
                    "total_delay_secs {} != recomputed delay sum {delay}",
                    m.total_delay_secs
                ),
            });
        }
        let classified = m.queries_satisfied
            + m.duplicate_deliveries
            + m.late_deliveries
            + audit.unknown_deliveries;
        if classified != audit.deliveries_reported {
            report.violate(AuditViolation {
                law: AuditLaw::DeliveryAccounting,
                at: now,
                node: None,
                item: None,
                detail: format!(
                    "{} deliveries reported but {classified} classified \
                     (satisfied {} + duplicate {} + late {} + unknown {})",
                    audit.deliveries_reported,
                    m.queries_satisfied,
                    m.duplicate_deliveries,
                    m.late_deliveries,
                    audit.unknown_deliveries
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::ids::DataId;
    use dtn_trace::synthetic::SyntheticTraceBuilder;

    /// Test scheme: the data source keeps its item; on contact with the
    /// requester of an open query for an item it holds, it "delivers".
    #[derive(Default)]
    struct DirectDelivery {
        holdings: Vec<(NodeId, DataItem)>,
        open_queries: Vec<Query>,
        contacts_seen: u64,
        transmit_result: Vec<bool>,
    }

    impl Scheme for DirectDelivery {
        fn on_data_generated(&mut self, _ctx: &mut SimCtx<'_>, item: DataItem) {
            self.holdings.push((item.source, item));
        }
        fn on_query_issued(&mut self, _ctx: &mut SimCtx<'_>, query: Query) {
            self.open_queries.push(query);
        }
        fn on_contact(&mut self, ctx: &mut SimCtx<'_>, contact: Contact) {
            self.contacts_seen += 1;
            let mut delivered = Vec::new();
            for (i, q) in self.open_queries.iter().enumerate() {
                if !contact.involves(q.requester) {
                    continue;
                }
                let peer = contact.peer_of(q.requester);
                if let Some((_, item)) = self
                    .holdings
                    .iter()
                    .find(|(holder, item)| *holder == peer && item.id == q.data)
                {
                    let ok = ctx.try_transmit(item.size);
                    self.transmit_result.push(ok);
                    if ok {
                        ctx.mark_delivered(q.id);
                        delivered.push(i);
                    }
                }
            }
            for i in delivered.into_iter().rev() {
                self.open_queries.swap_remove(i);
            }
        }
        fn cache_stats(&self, _now: Time) -> CacheStats {
            CacheStats {
                copies: self.holdings.len() as u64,
                distinct: self.holdings.len() as u64,
                bytes: self.holdings.iter().map(|(_, d)| d.size).sum(),
            }
        }
    }

    fn two_node_trace() -> ContactTrace {
        ContactTrace::new(
            2,
            vec![
                Contact::new(NodeId(0), NodeId(1), Time(1000), Time(1100)),
                Contact::new(NodeId(0), NodeId(1), Time(5000), Time(5100)),
            ],
            Duration(10_000),
        )
    }

    fn gen_event(id: u64, source: u32, size: u64, at: u64, life: u64) -> WorkloadEvent {
        WorkloadEvent::GenerateData {
            item: DataItem::new(DataId(id), NodeId(source), size, Time(at), Duration(life)),
        }
    }

    fn query_event(at: u64, requester: u32, data: u64, constraint: u64) -> WorkloadEvent {
        WorkloadEvent::IssueQuery {
            at: Time(at),
            requester: NodeId(requester),
            data: DataId(data),
            constraint: Duration(constraint),
        }
    }

    #[test]
    fn query_satisfied_on_contact() {
        let trace = two_node_trace();
        let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
        sim.add_workload(vec![
            gen_event(1, 0, 1000, 100, 9000),
            query_event(200, 1, 1, 5000),
        ]);
        sim.run_to_end();
        let m = sim.metrics();
        assert_eq!(m.queries_issued, 1);
        assert_eq!(m.queries_satisfied, 1);
        // satisfied at the t=1000 contact, issued at 200 → delay 800
        assert_eq!(m.total_delay_secs, 800);
        assert_eq!(m.data_generated, 1);
        assert_eq!(m.bytes_transmitted, 1000);
    }

    #[test]
    fn expired_query_is_not_satisfied() {
        let trace = two_node_trace();
        let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
        sim.add_workload(vec![
            gen_event(1, 0, 1000, 100, 9000),
            query_event(200, 1, 1, 300), // expires at 500, first contact at 1000
        ]);
        sim.run_to_end();
        let m = sim.metrics();
        assert_eq!(m.queries_satisfied, 0);
        assert_eq!(m.late_deliveries, 1);
        assert!((m.success_ratio() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_fails_when_contact_too_short() {
        let trace = two_node_trace();
        // 100 s contact at default bandwidth carries 26.25 MB; ask for more.
        let huge = 100 * 262_500 + 1;
        let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
        sim.add_workload(vec![
            gen_event(1, 0, huge, 100, 9000),
            query_event(200, 1, 1, 8000),
        ]);
        sim.run_to_end();
        let m = sim.metrics();
        assert_eq!(m.queries_satisfied, 0);
        assert_eq!(m.transfers_rejected, 2); // both contacts too short
        assert_eq!(m.bytes_transmitted, 0);
    }

    #[test]
    fn duplicate_delivery_counted_once() {
        let trace = two_node_trace();
        let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
        sim.add_workload(vec![
            gen_event(1, 0, 10, 100, 9500),
            query_event(200, 1, 1, 9000),
            query_event(210, 1, 1, 9000),
        ]);
        sim.run_to_end();
        // Two distinct queries for the same data both get satisfied (they
        // are independent); satisfy count is 2, duplicates 0.
        assert_eq!(sim.metrics().queries_satisfied, 2);
        assert_eq!(sim.metrics().duplicate_deliveries, 0);
    }

    /// A scheme that never forgets: it re-delivers every known query on
    /// every contact, like a multi-copy response arriving over several
    /// paths.
    #[derive(Default)]
    struct RedundantDelivery {
        queries: Vec<QueryId>,
        outcomes: Vec<DeliveryOutcome>,
    }

    impl Scheme for RedundantDelivery {
        fn on_data_generated(&mut self, _ctx: &mut SimCtx<'_>, _item: DataItem) {}
        fn on_query_issued(&mut self, _ctx: &mut SimCtx<'_>, query: Query) {
            self.queries.push(query.id);
        }
        fn on_contact(&mut self, ctx: &mut SimCtx<'_>, _contact: Contact) {
            for &q in &self.queries {
                self.outcomes.push(ctx.mark_delivered(q));
            }
        }
        fn cache_stats(&self, _now: Time) -> CacheStats {
            CacheStats::default()
        }
    }

    #[test]
    fn redelivered_query_counts_as_duplicate() {
        // The same query delivered at both contacts: the t=1000 arrival
        // satisfies it, the t=5000 re-delivery is wasted bandwidth and
        // must land in `duplicate_deliveries`, not `queries_satisfied`.
        let trace = two_node_trace();
        let mut sim = Simulator::new(&trace, RedundantDelivery::default(), SimConfig::default());
        sim.add_workload(vec![query_event(200, 1, 1, 9000)]);
        sim.run_to_end();
        let m = sim.metrics();
        assert_eq!(m.queries_satisfied, 1);
        assert_eq!(m.duplicate_deliveries, 1);
        assert_eq!(m.late_deliveries, 0);
        assert_eq!(m.total_delay_secs, 800); // satisfied at the first contact
        assert_eq!(
            sim.scheme().outcomes,
            vec![
                DeliveryOutcome::Accepted {
                    delay: Duration(800)
                },
                DeliveryOutcome::Duplicate,
            ]
        );
    }

    #[test]
    fn duplicate_late_and_rejected_metrics_disagree_never() {
        // One trace, three failure modes, each counted exactly once in
        // its own bucket: a satisfied query with one duplicate re-send, a
        // query that expires before its only delivery (late), and an
        // oversized transfer (rejected). None of them leak into
        // `queries_satisfied`.
        let trace = two_node_trace();
        let mut sim = Simulator::new(&trace, RedundantDelivery::default(), SimConfig::default());
        sim.add_workload(vec![
            query_event(200, 1, 1, 9000), // satisfied at 1000, duplicate at 5000
            query_event(300, 0, 2, 400),  // expires at 700 < first contact
        ]);
        sim.run_to_end();
        let m = sim.metrics();
        assert_eq!(m.queries_issued, 2);
        assert_eq!(m.queries_satisfied, 1);
        assert_eq!(m.duplicate_deliveries, 1);
        // The expired query is "delivered" at both contacts, both late.
        assert_eq!(m.late_deliveries, 2);
        assert!((m.success_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rate_table_updates_during_run() {
        let trace = two_node_trace();
        let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
        sim.run_until(Time(2000));
        assert_eq!(sim.rate_table().contact_count(NodeId(0), NodeId(1)), 1);
        sim.run_to_end();
        assert_eq!(sim.rate_table().contact_count(NodeId(0), NodeId(1)), 2);
    }

    #[test]
    fn run_until_is_exclusive_and_advances_clock() {
        let trace = two_node_trace();
        let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
        sim.run_until(Time(1000));
        assert_eq!(sim.scheme().contacts_seen, 0, "t=1000 contact excluded");
        assert_eq!(sim.now(), Time(1000));
        sim.run_until(Time(1001));
        assert_eq!(sim.scheme().contacts_seen, 1);
        sim.run_to_end();
        assert_eq!(sim.scheme().contacts_seen, 2, "last contact dispatched");
    }

    #[test]
    fn workload_added_midway_is_processed() {
        let trace = two_node_trace();
        let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
        sim.run_until(Time(3000));
        sim.add_workload(vec![
            gen_event(1, 0, 10, 3100, 6000),
            query_event(3200, 1, 1, 6000),
        ]);
        sim.run_to_end();
        assert_eq!(sim.metrics().queries_satisfied, 1);
        // satisfied at t=5000 contact → delay 1800
        assert_eq!(sim.metrics().total_delay_secs, 1800);
    }

    #[test]
    fn interleaved_add_workload_preserves_tie_order() {
        let trace = two_node_trace();
        let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
        sim.add_workload(vec![
            gen_event(1, 0, 10, 300, 9000),
            gen_event(2, 0, 10, 500, 9000),
        ]);
        // Consume the t=300 event so the merge runs against a tail with a
        // processed prefix in front of it.
        sim.run_until(Time(400));
        // New same-time events must land *after* the already-queued t=500
        // event (tail wins ties), while an earlier new event slots in
        // front; a third call's t=500 event goes after both.
        sim.add_workload(vec![
            gen_event(3, 0, 10, 500, 9000),
            gen_event(4, 0, 10, 450, 9000),
        ]);
        sim.add_workload(vec![gen_event(5, 0, 10, 500, 9000)]);
        let ids: Vec<u64> = sim.workload[sim.next_workload..]
            .iter()
            .map(|e| match e {
                WorkloadEvent::GenerateData { item } => item.id.0,
                _ => unreachable!("only data events queued"),
            })
            .collect();
        assert_eq!(ids, vec![4, 2, 3, 5]);
        sim.run_to_end();
        assert_eq!(sim.metrics().data_generated, 5);
    }

    #[test]
    fn merged_workload_still_wins_ties_against_contacts() {
        // Data generated and queried at exactly the first contact's start
        // time (t=1000) must be processed before that contact, so the
        // delivery happens during the same-instant contact with zero delay.
        let trace = two_node_trace();
        let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
        sim.add_workload(vec![gen_event(1, 0, 10, 1000, 9000)]);
        sim.add_workload(vec![query_event(1000, 1, 1, 5000)]);
        sim.run_to_end();
        assert_eq!(sim.metrics().queries_satisfied, 1);
        assert_eq!(sim.metrics().total_delay_secs, 0);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn past_workload_panics() {
        let trace = two_node_trace();
        let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
        sim.run_until(Time(5000));
        sim.add_workload(vec![query_event(100, 0, 1, 50)]);
    }

    #[test]
    fn buffer_capacities_in_range_and_deterministic() {
        let trace = SyntheticTraceBuilder::new(20).seed(2).build();
        let cfg = SimConfig {
            buffer_range: (1000, 2000),
            seed: 9,
            ..SimConfig::default()
        };
        let sim1 = Simulator::new(&trace, DirectDelivery::default(), cfg.clone());
        let sim2 = Simulator::new(&trace, DirectDelivery::default(), cfg);
        for n in 0..20u32 {
            let c = sim1.buffer_capacity(NodeId(n));
            assert!((1000..=2000).contains(&c));
            assert_eq!(c, sim2.buffer_capacity(NodeId(n)));
        }
    }

    #[test]
    fn samples_taken_at_interval() {
        let trace = two_node_trace();
        let cfg = SimConfig {
            sample_interval: Duration(1000),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&trace, DirectDelivery::default(), cfg);
        sim.add_workload(vec![gen_event(1, 0, 10, 100, 9000)]);
        sim.run_to_end();
        let samples = &sim.metrics().samples;
        // Samples land on events: the t=1000 contact, the t=5000 contact
        // and the end-of-trace boundary.
        assert!(samples.len() >= 3, "got {} samples", samples.len());
        assert_eq!(samples[0].at, Time(1000));
        assert_eq!(samples[0].copies, 1);
        for w in samples.windows(2) {
            assert!(w[1].at > w[0].at, "sample times must advance");
        }
    }

    #[test]
    fn full_contact_loss_silences_the_network() {
        let trace = two_node_trace();
        let cfg = SimConfig {
            contact_loss_probability: 1.0,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&trace, DirectDelivery::default(), cfg);
        sim.add_workload(vec![
            gen_event(1, 0, 10, 100, 9000),
            query_event(200, 1, 1, 9000),
        ]);
        sim.run_to_end();
        let m = sim.metrics();
        assert_eq!(m.contacts_lost, 2);
        assert_eq!(m.queries_satisfied, 0);
        assert_eq!(m.bytes_transmitted, 0);
        assert_eq!(
            sim.rate_table().total_contacts(),
            0,
            "lost contacts are invisible"
        );
        assert_eq!(sim.scheme().contacts_seen, 0);
    }

    #[test]
    fn partial_contact_loss_drops_roughly_that_fraction() {
        // A denser synthetic trace: about half the contacts must vanish.
        let trace = SyntheticTraceBuilder::new(10)
            .duration(dtn_core::time::Duration::days(1))
            .target_contacts(2_000)
            .seed(3)
            .build();
        let cfg = SimConfig {
            contact_loss_probability: 0.5,
            seed: 7,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&trace, DirectDelivery::default(), cfg);
        sim.run_to_end();
        let lost = sim.metrics().contacts_lost as f64;
        let total = trace.contact_count() as f64;
        assert!((lost / total - 0.5).abs() < 0.06, "lost {lost} of {total}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_loss_probability_panics() {
        let trace = two_node_trace();
        let cfg = SimConfig {
            contact_loss_probability: 1.5,
            ..SimConfig::default()
        };
        let _ = Simulator::new(&trace, DirectDelivery::default(), cfg);
    }

    #[test]
    #[should_panic(expected = "sample interval must be positive")]
    fn zero_sample_interval_panics() {
        let trace = two_node_trace();
        let cfg = SimConfig {
            sample_interval: Duration(0),
            ..SimConfig::default()
        };
        let _ = Simulator::new(&trace, DirectDelivery::default(), cfg);
    }

    #[test]
    #[should_panic(expected = "epoch interval must be positive")]
    fn zero_epoch_interval_panics() {
        let trace = two_node_trace();
        let cfg = SimConfig {
            epoch_interval: Some(Duration(0)),
            ..SimConfig::default()
        };
        let _ = Simulator::new(&trace, DirectDelivery::default(), cfg);
    }

    #[test]
    fn link_access_shares_budget_with_try_transmit() {
        struct Splitter;
        impl Scheme for Splitter {
            fn on_data_generated(&mut self, _: &mut SimCtx<'_>, _: DataItem) {}
            fn on_query_issued(&mut self, _: &mut SimCtx<'_>, _: Query) {}
            fn on_contact(&mut self, ctx: &mut SimCtx<'_>, _: Contact) {
                let start = ctx.remaining_link_capacity().expect("in contact");
                // Spend half through the split-borrow interface…
                {
                    let mut link = ctx.link_access();
                    assert!(link.try_transmit(start / 2));
                    // …and read rates through the same handle.
                    let _ = link.rate_table().node_count();
                }
                // …and the rest through the plain interface.
                assert_eq!(ctx.remaining_link_capacity(), Some(start - start / 2));
                assert!(ctx.try_transmit(start - start / 2));
                assert!(!ctx.try_transmit(1), "budget must be exhausted");
            }
            fn cache_stats(&self, _: Time) -> CacheStats {
                CacheStats::default()
            }
        }
        let trace = two_node_trace();
        let mut sim = Simulator::new(&trace, Splitter, SimConfig::default());
        sim.run_to_end();
        assert!(sim.metrics().bytes_transmitted > 0);
        assert_eq!(sim.metrics().transfers_rejected, 2);
    }

    #[test]
    fn unknown_query_delivery_reports_unknown() {
        struct Bogus;
        impl Scheme for Bogus {
            fn on_data_generated(&mut self, _: &mut SimCtx<'_>, _: DataItem) {}
            fn on_query_issued(&mut self, _: &mut SimCtx<'_>, _: Query) {}
            fn on_contact(&mut self, ctx: &mut SimCtx<'_>, _: Contact) {
                assert_eq!(ctx.mark_delivered(QueryId(42)), DeliveryOutcome::Unknown);
            }
            fn cache_stats(&self, _: Time) -> CacheStats {
                CacheStats::default()
            }
        }
        let trace = two_node_trace();
        let cfg = SimConfig {
            audit: true,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&trace, Bogus, cfg);
        sim.run_to_end();
        // Unknown deliveries are classified, so delivery accounting
        // still balances and the audit stays clean.
        let report = sim.audit_report().expect("audit enabled");
        assert!(report.is_clean(), "{}", report.summary());
        assert!(report.sweeps() >= 2, "one sweep per surviving contact");
    }

    #[test]
    fn stream_source_replays_identically_to_trace_source() {
        // The same synthetic population driven once from the
        // materialized trace and once from the streaming generator:
        // every metric must agree bit for bit, because the engine sees
        // the exact same contact sequence.
        let builder = SyntheticTraceBuilder::new(12)
            .duration(Duration::days(1))
            .target_contacts(800)
            .seed(6);
        let trace = builder.build();
        let cfg = SimConfig {
            seed: 4,
            ..SimConfig::default()
        };
        let workload = vec![
            gen_event(1, 0, 1000, 100, 80_000),
            query_event(200, 1, 1, 50_000),
            query_event(900, 5, 1, 50_000),
        ];
        let mut by_trace = Simulator::new(&trace, DirectDelivery::default(), cfg.clone());
        by_trace.add_workload(workload.clone());
        by_trace.run_to_end();
        let mut by_stream = Simulator::from_source(
            StreamSource::from_synthetic(builder.stream()),
            DirectDelivery::default(),
            cfg,
        );
        by_stream.add_workload(workload);
        by_stream.run_to_end();
        assert_eq!(by_trace.metrics(), by_stream.metrics());
        assert_eq!(
            by_trace.rate_table().total_contacts(),
            by_stream.rate_table().total_contacts()
        );
        assert_eq!(
            by_trace.scheme().contacts_seen,
            by_stream.scheme().contacts_seen
        );
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_stream_panics() {
        let contacts = vec![
            Contact::new(NodeId(0), NodeId(1), Time(5000), Time(5100)),
            Contact::new(NodeId(0), NodeId(1), Time(1000), Time(1100)),
        ];
        let source = StreamSource::new(contacts.into_iter(), 2, Duration(10_000));
        let mut sim =
            Simulator::from_source(source, DirectDelivery::default(), SimConfig::default());
        sim.run_to_end();
    }

    #[test]
    fn audit_off_reports_nothing() {
        let trace = two_node_trace();
        let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
        sim.run_to_end();
        assert!(sim.audit_report().is_none());
    }

    #[test]
    fn audit_clean_on_mixed_outcomes() {
        // Satisfied + duplicate + late deliveries in one run: every
        // conservation law holds at each contact and epoch sweep.
        let trace = two_node_trace();
        let cfg = SimConfig {
            audit: true,
            epoch_interval: Some(Duration(2_000)),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&trace, RedundantDelivery::default(), cfg);
        sim.add_workload(vec![
            query_event(200, 1, 1, 9000), // satisfied at 1000, duplicate at 5000
            query_event(300, 0, 2, 400),  // expires at 700: late at both contacts
        ]);
        sim.run_to_end();
        let m = sim.metrics();
        assert_eq!(m.queries_satisfied, 1);
        assert_eq!(m.duplicate_deliveries, 1);
        assert_eq!(m.late_deliveries, 2);
        let report = sim.audit_report().expect("audit enabled");
        assert!(report.is_clean(), "{}", report.summary());
        assert!(
            report.sweeps() > 2,
            "epochs must sweep too, got {}",
            report.sweeps()
        );
    }

    #[test]
    fn audit_catches_metric_drift() {
        // A scheme whose audit hook reports its own violation proves the
        // plumbing end to end: the report surfaces through the engine.
        struct SelfAccusing;
        impl Scheme for SelfAccusing {
            fn on_data_generated(&mut self, _: &mut SimCtx<'_>, _: DataItem) {}
            fn on_query_issued(&mut self, _: &mut SimCtx<'_>, _: Query) {}
            fn on_contact(&mut self, _: &mut SimCtx<'_>, _: Contact) {}
            fn cache_stats(&self, _: Time) -> CacheStats {
                CacheStats::default()
            }
            fn audit(&self, now: Time, report: &mut AuditReport) {
                report.violate(AuditViolation {
                    law: AuditLaw::CopyConservation,
                    at: now,
                    node: Some(NodeId(0)),
                    item: None,
                    detail: "seeded".into(),
                });
            }
        }
        let trace = two_node_trace();
        let cfg = SimConfig {
            audit: true,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&trace, SelfAccusing, cfg);
        sim.run_to_end();
        let report = sim.audit_report().expect("audit enabled");
        assert!(!report.is_clean());
        assert_eq!(report.violations()[0].law, AuditLaw::CopyConservation);
    }

    #[test]
    fn heartbeat_eta_is_dash_before_any_progress() {
        // progressed == 0: nothing to extrapolate from, with or
        // without a known horizon — never a division by zero.
        assert_eq!(heartbeat_eta(12.0, 500, 500, Some(Time(10_000))), "-");
        assert_eq!(heartbeat_eta(12.0, 500, 500, None), "-");
        // started_sim ahead of sim_now (clock skew) saturates to zero.
        assert_eq!(heartbeat_eta(12.0, 800, 500, Some(Time(10_000))), "-");
    }

    #[test]
    fn heartbeat_eta_is_question_mark_for_unknown_horizon() {
        assert_eq!(heartbeat_eta(30.0, 0, 5_000, None), "?");
        assert_eq!(heartbeat_progress(5_000, None), "t=5000s/?");
    }

    #[test]
    fn heartbeat_eta_extrapolates_with_a_known_horizon() {
        // 10 wall seconds covered 2000 of 10000 sim seconds → 8000
        // remain → 40s of wall clock left.
        assert_eq!(heartbeat_eta(10.0, 0, 2_000, Some(Time(10_000))), "40s");
        assert_eq!(
            heartbeat_progress(2_000, Some(Time(10_000))),
            "t=2000s/10000s (20.0%)"
        );
        // Past the horizon: remaining saturates, ETA collapses to 0.
        assert_eq!(heartbeat_eta(10.0, 0, 12_000, Some(Time(10_000))), "0s");
        // Degenerate zero-length horizon reads as complete.
        assert_eq!(heartbeat_progress(0, Some(Time(0))), "t=0s/0s (100.0%)");
    }

    #[test]
    fn stream_source_open_ended_hides_the_horizon() {
        let contacts = vec![Contact::new(NodeId(0), NodeId(1), Time(10), Time(20))];
        let src = StreamSource::new(contacts.clone().into_iter(), 2, Duration(1_000));
        assert_eq!(src.known_end(), Some(Time(1_000)), "default: horizon known");
        let open = StreamSource::new(contacts.into_iter(), 2, Duration(1_000)).open_ended();
        assert_eq!(open.known_end(), None);
        assert_eq!(open.end_time(), Time(1_000), "run bound is unchanged");
        let trace = two_node_trace();
        let trace_src = TraceSource::new(&trace);
        assert_eq!(trace_src.known_end(), Some(trace_src.end_time()));
    }
}
