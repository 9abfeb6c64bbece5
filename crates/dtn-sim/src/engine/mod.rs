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

use dtn_core::error::CoreError;
use dtn_core::ids::{NodeId, QueryId};
use dtn_core::rate::RateTable;
use dtn_core::time::{Duration, Time};
use dtn_trace::trace::{Contact, ContactTrace};

use crate::audit::{AuditLaw, AuditReport, AuditState, AuditViolation};
use crate::message::Query;
use crate::metrics::{CacheSample, Metrics};
use crate::probe::{Probe, ProbeEvent, ProbeSink};
use crate::profiler::{Phase, ProfileReport, Profiler};

mod config;
mod ctx;
mod queue;
mod scheme;
mod source;
#[cfg(test)]
mod tests;

pub use config::{megabits, SimConfig};
pub use ctx::{Link, LinkAccess, SimCtx};
pub use scheme::{CacheStats, DeliveryOutcome, Epoch, Scheme, WorkloadEvent};
pub use source::{ContactSource, StreamSource, TraceSource};

use ctx::{QueryRecord, Shared};
use queue::WorkloadQueue;

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
    workload: WorkloadQueue,
    next_sample: Time,
    sample_interval: Duration,
    next_epoch: Time,
    epoch_interval: Option<Duration>,
    epoch_index: u64,
    bandwidth: u64,
    contact_loss: f64,
}

impl<'t, S: Scheme> Simulator<S, TraceSource<'t>> {
    /// Creates a simulator over `trace` driving `scheme`.
    pub fn new(trace: &'t ContactTrace, scheme: S, config: SimConfig) -> Self {
        Simulator::from_source(TraceSource::new(trace), scheme, config)
    }
}

impl<S: Scheme, C: ContactSource> Simulator<S, C> {
    /// Creates a simulator over any [`ContactSource`] driving `scheme`;
    /// panics on a `config` that [`SimConfig::validate`] refuses.
    pub fn from_source(source: C, scheme: S, config: SimConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
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
            workload: WorkloadQueue::default(),
            next_sample: Time::ZERO + config.sample_interval,
            sample_interval: config.sample_interval,
            next_epoch: config.epoch_interval.map_or(Time::ZERO, |i| Time::ZERO + i),
            epoch_interval: config.epoch_interval,
            epoch_index: 0,
            bandwidth: config.bandwidth_bytes_per_sec,
            contact_loss: config.contact_loss_probability,
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
    /// it can be configured, or lend its own oracle to a served decision)
    /// plus the live rate table, the current simulation time and
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
    /// sorted internally: the unprocessed tail wins ties, and equal-time
    /// new events keep their submission order.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] naming the first event earlier
    /// than the current time, or if more than `u32::MAX` events would be
    /// pending at once. Nothing is queued then.
    pub fn try_add_workload(&mut self, events: Vec<WorkloadEvent>) -> Result<(), CoreError> {
        let now = self.shared.now;
        let reason = match events.iter().position(|e| e.at() < now) {
            Some(i) => format!(
                "workload event {i} at {:?} is in the past (now {now:?})",
                events[i].at()
            ),
            None if self.workload.len() + events.len() > u32::MAX as usize => {
                "more than u32::MAX events would be pending".into()
            }
            None => {
                self.workload.push(events);
                return Ok(());
            }
        };
        Err(CoreError::InvalidParameter {
            name: "events",
            reason,
        })
    }

    /// [`try_add_workload`](Self::try_add_workload), panicking on its
    /// error.
    ///
    /// # Panics
    ///
    /// Panics where [`try_add_workload`](Self::try_add_workload) errs:
    /// an event earlier than the current time.
    pub fn add_workload(&mut self, events: Vec<WorkloadEvent>) {
        if let Err(e) = self.try_add_workload(events) {
            panic!("{e}");
        }
    }

    /// Processes every event strictly before `until`, then advances the
    /// clock to `until`.
    pub fn run_until(&mut self, until: Time) {
        loop {
            let next_c = self.source.peek();
            // Workload events win ties so data generated at time t can be
            // pushed during a contact starting at the same instant.
            let (event_time, is_workload) = match (next_c.map(|c| c.start), self.workload.peek_at())
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
                let event = self
                    .workload
                    .pop()
                    .expect("is_workload implies a workload event");
                self.prof_enter(Phase::Workload);
                self.dispatch_workload(event);
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
                let queries = &mut self.shared.queries;
                if queries.len() == queries.capacity() {
                    // Reserved once, at the first query, for every query
                    // queued: a record vector reserved at `add_workload`
                    // would hold its bytes from set-up on.
                    queries.reserve_exact(1 + self.workload.queries_pending());
                }
                let id = QueryId(queries.len() as u64);
                queries.push(QueryRecord::new(at, at + constraint));
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
            match rec.satisfied_at() {
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
