//! Zero-cost observability probes.
//!
//! A [`Probe`] receives structured [`ProbeEvent`]s from every layer of
//! the simulation — the engine (contacts, transmissions, workload
//! injection, epochs, deliveries), the caching schemes (push relays and
//! settles, query pulls, NCL broadcasts, probabilistic response
//! decisions, replacement evictions) and the path oracle (snapshot
//! rebuilds and invalidations) — through one shared event vocabulary.
//!
//! The engine stores a [`ProbeSink`]; every emission site goes through
//! [`ProbeSink::emit`], which takes a *closure* producing the event, so
//! with no probe installed (the default) the only cost per site is a single
//! predicted branch on the sink's enum tag — the event is never even
//! constructed.
//!
//! [`RecordingProbe`] is the one recorder: it counts every event kind,
//! assembles a per-query [`QueryTrace`] (issue → first-central-arrival
//! → broadcast fan-out → response → delivery, with per-hop timestamps),
//! can retain the raw event stream, and — when a [`Telemetry`] series is
//! installed — folds the same stream into fixed simulation-time
//! windows. It keeps nothing derived from those: a delay or hop
//! distribution is read off the traces (`bench::observe::distributions`).
//! Nothing here serialises: `bench::observe::write_jsonl` is the capture
//! emitter and walks events through [`ProbeEvent::fields`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dtn_core::ids::{DataId, NodeId, QueryId};
use dtn_core::time::Time;

use crate::engine::DeliveryOutcome;
use crate::telemetry::Telemetry;

/// One payload field of a [`ProbeEvent`], as [`ProbeEvent::fields`]
/// hands it to a capture emitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// Ids, timestamps, byte and event counts.
    Int(u64),
    /// A probability.
    Real(f64),
    /// A yes/no outcome.
    Flag(bool),
    /// How the engine classified a reported delivery.
    Outcome(DeliveryOutcome),
}

macro_rules! field_from {
    ($($ty:ty => |$v:ident| $conv:expr),* $(,)?) => {$(
        impl From<$ty> for FieldValue {
            fn from($v: $ty) -> Self {
                $conv
            }
        }
    )*};
}

field_from! {
    u64 => |v| FieldValue::Int(v),
    usize => |v| FieldValue::Int(v as u64),
    Time => |v| FieldValue::Int(v.0),
    NodeId => |v| FieldValue::Int(u64::from(v.0)),
    DataId => |v| FieldValue::Int(v.0),
    QueryId => |v| FieldValue::Int(v.0),
    f64 => |v| FieldValue::Real(v),
    bool => |v| FieldValue::Flag(v),
    DeliveryOutcome => |v| FieldValue::Outcome(v),
}

/// Declares the event vocabulary once: the enum, the kind-name table,
/// the counter index, `kind()`, `at()` and the payload walk are all
/// derived from this one list, so a new kind is a one-line addition here.
macro_rules! probe_events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $kind:literal { $($field:ident: $ty:ty),* $(,)? }
    )*) => {
        /// One structured observation, emitted by the engine, a scheme
        /// or the path oracle. `at` is always the simulation time of
        /// the emission.
        #[derive(Debug, Clone, PartialEq)]
        pub enum ProbeEvent {
            $(
                $(#[$doc])*
                $variant {
                    at: Time,
                    $($field: $ty,)*
                },
            )*
        }

        impl ProbeEvent {
            /// Every event kind, in the order of the counter table.
            pub const KINDS: [&'static str; [$($kind),*].len()] = [$($kind),*];

            /// Position of this event's kind in [`ProbeEvent::KINDS`].
            fn kind_index(&self) -> usize {
                enum Index {
                    $($variant,)*
                }
                match self {
                    $(ProbeEvent::$variant { .. } => Index::$variant as usize,)*
                }
            }

            /// Stable snake-case name of this event's kind.
            pub fn kind(&self) -> &'static str {
                Self::KINDS[self.kind_index()]
            }

            /// The event's timestamp.
            pub fn at(&self) -> Time {
                match self {
                    $(ProbeEvent::$variant { at, .. } => *at,)*
                }
            }

            /// Walks the payload (everything but `at`) in declaration
            /// order as `(field name, value)` pairs.
            pub fn fields(&self, visit: &mut dyn FnMut(&'static str, FieldValue)) {
                match self {
                    $(ProbeEvent::$variant { $($field,)* .. } => {
                        $(visit(stringify!($field), FieldValue::from(*$field));)*
                    })*
                }
            }
        }
    };
}

probe_events! {
    // -------- engine --------
    /// A contact opened; `budget` is its total transmission capacity.
    ContactBegin = "contact_begin" { a: NodeId, b: NodeId, budget: u64 }
    /// The contact's scheme hook returned; `bytes_used` of the budget
    /// were consumed.
    ContactEnd = "contact_end" { a: NodeId, b: NodeId, bytes_used: u64 }
    /// Fault injection dropped the contact before the nodes saw it.
    ContactLost = "contact_lost" { a: NodeId, b: NodeId }
    /// A workload data item entered the network at its source.
    DataInjected = "data_injected" { data: DataId, source: NodeId, size: u64 }
    /// A workload query was issued.
    QueryInjected = "query_injected" {
        query: QueryId,
        requester: NodeId,
        data: DataId,
        expires_at: Time,
    }
    /// The periodic maintenance epoch fired.
    EpochFired = "epoch_fired" { index: u64 }
    /// A transmission fit the remaining contact budget.
    TransmitAccepted = "transmit_accepted" { bytes: u64 }
    /// A transmission exceeded the remaining contact budget.
    TransmitRejected = "transmit_rejected" { bytes: u64 }
    /// A delivery was reported to the engine (any outcome).
    Delivery = "delivery" { query: QueryId, outcome: DeliveryOutcome }
    /// A periodic cache-occupancy sample was taken.
    CacheSampled = "cache_sampled" { copies: u64, bytes: u64 }

    // -------- schemes --------
    /// §V-A: a push copy moved one hop toward its central node.
    PushRelay = "push_relay" { data: DataId, from: NodeId, to: NodeId, ncl: usize }
    /// §V-A: a push copy settled (cached) at `node` for NCL `ncl`.
    PushSettled = "push_settled" { data: DataId, node: NodeId, ncl: usize }
    /// A query copy moved one hop (pull phase, or baseline forwarding).
    QueryRelay = "query_relay" { query: QueryId, from: NodeId, to: NodeId }
    /// §V-B: a query copy reached its central node.
    QueryAtCentral = "query_at_central" { query: QueryId, ncl: usize }
    /// §V-B: an NCL-internal broadcast reached one more member.
    BroadcastSpread = "broadcast_spread" { query: QueryId, node: NodeId }
    /// §V-C: a caching node drew its probabilistic response decision.
    ResponseDecision = "response_decision" {
        query: QueryId,
        node: NodeId,
        probability: f64,
        responded: bool,
    }
    /// A data response to `query` was created at `node`.
    ResponseSpawned = "response_spawned" { query: QueryId, node: NodeId }
    /// A response message moved one hop toward the requester.
    ResponseRelay = "response_relay" { query: QueryId, from: NodeId, to: NodeId }
    /// Cache replacement evicted `data` from `node`'s buffer.
    ReplacementEvicted = "replacement_evicted" { node: NodeId, data: DataId }
    /// Online re-election changed NCL slot `ncl` from `old` to `new`.
    CentralReelected = "central_reelected" { ncl: usize, old: NodeId, new: NodeId }

    // -------- oracle --------
    /// The path oracle rebuilt its contact-graph snapshot. The counters
    /// are cumulative [`OracleStats`](crate::oracle::OracleStats)
    /// values at the time of the rebuild.
    OracleRebuilt = "oracle_rebuilt" { epoch: u64, table_recomputes: u64, table_hits: u64 }
    /// The oracle's snapshot was explicitly invalidated (re-election).
    OracleInvalidated = "oracle_invalidated" {}
}

/// A recorder of [`ProbeEvent`]s.
///
/// Object-safe by design: the engine stores `Box<dyn Probe>` behind the
/// [`ProbeSink`] enum, because schemes are themselves boxed trait
/// objects and a generic probe parameter could not cross that boundary.
pub trait Probe {
    /// Receives one event. Called synchronously from the hot loop —
    /// implementations should be cheap and must not panic.
    fn record(&mut self, event: &ProbeEvent);
}

/// A shared handle: lets the caller keep reading a probe that the
/// simulator owns (install `Box::new(rc.clone())`, inspect via `rc`).
impl<P: Probe> Probe for Rc<RefCell<P>> {
    fn record(&mut self, event: &ProbeEvent) {
        self.borrow_mut().record(event);
    }
}

/// The engine's probe slot: either disabled (the default — emission
/// sites reduce to one predicted branch, the event is never built) or
/// an installed recorder.
#[derive(Default)]
pub enum ProbeSink {
    /// No probe installed; [`ProbeSink::emit`] does nothing.
    #[default]
    Noop,
    /// An installed recorder receiving every event.
    Enabled(Box<dyn Probe>),
}

impl ProbeSink {
    /// Emits an event. `build` runs only when a probe is installed, so
    /// disabled emission sites never construct the event.
    #[inline]
    pub fn emit(&mut self, build: impl FnOnce() -> ProbeEvent) {
        if let ProbeSink::Enabled(probe) = self {
            probe.record(&build());
        }
    }

    /// Whether a probe is installed. Schemes use this to gate
    /// instrumentation work that a lazy closure cannot express (e.g.
    /// polling oracle counters).
    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        matches!(self, ProbeSink::Enabled(_))
    }
}

/// Which forwarding phase a recorded hop belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopPhase {
    /// Query pull toward a central node (or baseline query forwarding).
    Pull,
    /// Response forwarding back to the requester.
    Response,
}

impl HopPhase {
    /// Stable lowercase name (`pull` / `response`).
    pub fn name(self) -> &'static str {
        match self {
            HopPhase::Pull => "pull",
            HopPhase::Response => "response",
        }
    }
}

/// One recorded message hop of a query's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopRecord {
    /// When the hop happened.
    pub at: Time,
    /// Pull- or response-phase hop.
    pub phase: HopPhase,
    /// The relinquishing carrier.
    pub from: NodeId,
    /// The receiving carrier.
    pub to: NodeId,
}

/// The assembled lifecycle of one query: issue → first central arrival
/// → broadcast fan-out → response → delivery, with per-hop timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// The query.
    pub query: QueryId,
    /// Who asked.
    pub requester: NodeId,
    /// What was asked for.
    pub data: DataId,
    /// When the query was issued.
    pub issued_at: Time,
    /// When the query's time constraint runs out.
    pub expires_at: Time,
    /// First arrival at any central node, if one was reached.
    pub first_central_at: Option<Time>,
    /// The NCL slot of that first central arrival.
    pub first_central_ncl: Option<usize>,
    /// How many NCL members the internal broadcast reached.
    pub broadcast_fanout: u64,
    /// When the first data response was spawned, if any.
    pub first_response_at: Option<Time>,
    /// The node that spawned that first response.
    pub responder: Option<NodeId>,
    /// When the first in-time delivery happened (`None` = unsatisfied).
    pub delivered_at: Option<Time>,
    /// Every recorded pull/response hop, in order.
    pub hops: Vec<HopRecord>,
}

/// A satisfied query's end-to-end delay split into the protocol's three
/// phases. The phases always sum *exactly* to the query's metric delay
/// (`delivered_at − issued_at`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DelayDecomposition {
    /// Issue → first central arrival (the §V-B pull phase). Queries
    /// answered without reaching a central (local hits, baselines)
    /// attribute their whole delay here.
    pub pull_secs: u64,
    /// First central arrival → response spawn (NCL-internal broadcast
    /// plus the §V-C decision).
    pub ncl_secs: u64,
    /// Response spawn → delivery (response forwarding, §V-B "any
    /// forwarding protocol").
    pub response_secs: u64,
}

impl DelayDecomposition {
    /// The total delay (always equals `delivered_at − issued_at`).
    pub fn total_secs(&self) -> u64 {
        self.pull_secs + self.ncl_secs + self.response_secs
    }
}

impl QueryTrace {
    fn new(
        query: QueryId,
        requester: NodeId,
        data: DataId,
        issued_at: Time,
        expires_at: Time,
    ) -> Self {
        QueryTrace {
            query,
            requester,
            data,
            issued_at,
            expires_at,
            first_central_at: None,
            first_central_ncl: None,
            broadcast_fanout: 0,
            first_response_at: None,
            responder: None,
            delivered_at: None,
            hops: Vec::new(),
        }
    }

    /// Whether the query was satisfied in time.
    pub fn delivered(&self) -> bool {
        self.delivered_at.is_some()
    }

    /// The three-phase delay decomposition, `None` while undelivered.
    ///
    /// Milestone timestamps are clamped into `[issued_at,
    /// delivered_at]` (a central arrival or broadcast answer can
    /// legitimately postdate the delivery that satisfied the query —
    /// duplicate in-flight copies keep moving), so the phases sum
    /// exactly to the delay the metrics recorded.
    pub fn decomposition(&self) -> Option<DelayDecomposition> {
        let delivered = self.delivered_at?.0;
        let issued = self.issued_at.0;
        // Without a central milestone (local hit, baseline scheme) the
        // whole pre-response time is pull-phase: fall back to the
        // response spawn, then to the delivery itself.
        let central = self
            .first_central_at
            .or(self.first_response_at)
            .map_or(delivered, |t| t.0.clamp(issued, delivered));
        let response = self
            .first_response_at
            .map_or(delivered, |t| t.0.clamp(central, delivered));
        Some(DelayDecomposition {
            pull_secs: central - issued,
            ncl_secs: response - central,
            response_secs: delivered - response,
        })
    }
}

/// The one recorder: per-kind counts and per-query lifecycle traces;
/// optionally the raw event stream and a windowed [`Telemetry`] series
/// folded from it.
#[derive(Debug)]
pub struct RecordingProbe {
    keep_events: bool,
    events: Vec<ProbeEvent>,
    /// Events seen per kind, indexed like [`ProbeEvent::KINDS`].
    counts: [u64; ProbeEvent::KINDS.len()],
    traces: BTreeMap<u64, QueryTrace>,
    oracle_rebuilds: u64,
    oracle_table_hits: u64,
    oracle_table_recomputes: u64,
    telemetry: Option<Telemetry>,
}

impl Default for RecordingProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordingProbe {
    /// A recorder that keeps the raw event stream and no window series.
    pub fn new() -> Self {
        RecordingProbe {
            keep_events: true,
            events: Vec::new(),
            counts: [0; ProbeEvent::KINDS.len()],
            traces: BTreeMap::new(),
            oracle_rebuilds: 0,
            oracle_table_hits: 0,
            oracle_table_recomputes: 0,
            telemetry: None,
        }
    }

    /// Disables raw-event retention (traces and counts only) —
    /// for long runs where the full stream would dominate memory.
    pub fn without_event_stream(mut self) -> Self {
        self.keep_events = false;
        self
    }

    /// Installs a window series: every event from now on is also folded
    /// into `telemetry`'s fixed simulation-time windows.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The installed window series, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// The retained raw event stream (empty with
    /// [`Self::without_event_stream`]).
    pub fn events(&self) -> &[ProbeEvent] {
        &self.events
    }

    /// Count of one kind (0 when never seen, and for a name that is not
    /// a kind).
    pub fn count(&self, kind: &str) -> u64 {
        ProbeEvent::KINDS
            .iter()
            .position(|&k| k == kind)
            .map_or(0, |i| self.counts[i])
    }

    /// All assembled query traces, in query-id order.
    pub fn traces(&self) -> impl Iterator<Item = &QueryTrace> {
        self.traces.values()
    }

    /// The trace of one query, if it was observed.
    pub fn trace(&self, query: QueryId) -> Option<&QueryTrace> {
        self.traces.get(&query.0)
    }

    /// Latest cumulative oracle counters seen on `oracle_rebuilt`
    /// events: `(rebuilds, table_recomputes, table_hits)`.
    pub fn oracle_counters(&self) -> (u64, u64, u64) {
        (
            self.oracle_rebuilds,
            self.oracle_table_recomputes,
            self.oracle_table_hits,
        )
    }

    /// Sums the delay decomposition over every delivered query. The
    /// total always equals the metrics' `total_delay_secs`.
    pub fn total_decomposition(&self) -> DelayDecomposition {
        let mut sum = DelayDecomposition::default();
        for t in self.traces.values() {
            if let Some(d) = t.decomposition() {
                sum.pull_secs += d.pull_secs;
                sum.ncl_secs += d.ncl_secs;
                sum.response_secs += d.response_secs;
            }
        }
        sum
    }
}

impl Probe for RecordingProbe {
    fn record(&mut self, event: &ProbeEvent) {
        self.counts[event.kind_index()] += 1;
        // The window fold turns the cumulative oracle counters into
        // per-window deltas against the values seen so far.
        let oracle_before = (self.oracle_table_recomputes, self.oracle_table_hits);
        match *event {
            ProbeEvent::QueryInjected {
                at,
                query,
                requester,
                data,
                expires_at,
            } => {
                self.traces.insert(
                    query.0,
                    QueryTrace::new(query, requester, data, at, expires_at),
                );
            }
            ProbeEvent::QueryAtCentral { at, query, ncl } => {
                if let Some(t) = self.traces.get_mut(&query.0) {
                    if t.first_central_at.is_none() {
                        t.first_central_at = Some(at);
                        t.first_central_ncl = Some(ncl);
                    }
                }
            }
            ProbeEvent::QueryRelay {
                at,
                query,
                from,
                to,
            } => {
                if let Some(t) = self.traces.get_mut(&query.0) {
                    t.hops.push(HopRecord {
                        at,
                        phase: HopPhase::Pull,
                        from,
                        to,
                    });
                }
            }
            ProbeEvent::BroadcastSpread { query, .. } => {
                if let Some(t) = self.traces.get_mut(&query.0) {
                    t.broadcast_fanout += 1;
                }
            }
            ProbeEvent::ResponseSpawned { at, query, node } => {
                if let Some(t) = self.traces.get_mut(&query.0) {
                    if t.first_response_at.is_none() {
                        t.first_response_at = Some(at);
                        t.responder = Some(node);
                    }
                }
            }
            ProbeEvent::ResponseRelay {
                at,
                query,
                from,
                to,
            } => {
                if let Some(t) = self.traces.get_mut(&query.0) {
                    t.hops.push(HopRecord {
                        at,
                        phase: HopPhase::Response,
                        from,
                        to,
                    });
                }
            }
            ProbeEvent::Delivery {
                at,
                query,
                outcome: DeliveryOutcome::Accepted { .. },
            } => {
                if let Some(t) = self.traces.get_mut(&query.0) {
                    if t.delivered_at.is_none() {
                        t.delivered_at = Some(at);
                    }
                }
            }
            ProbeEvent::OracleRebuilt {
                epoch,
                table_recomputes,
                table_hits,
                ..
            } => {
                self.oracle_rebuilds = self.oracle_rebuilds.max(epoch);
                self.oracle_table_recomputes = table_recomputes;
                self.oracle_table_hits = table_hits;
            }
            _ => {}
        }
        if let Some(telemetry) = &mut self.telemetry {
            telemetry.fold(event, &self.traces, oracle_before);
        }
        if self.keep_events {
            self.events.push(event.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::time::Duration;

    fn ev_query(q: u64, at: u64, expires: u64) -> ProbeEvent {
        ProbeEvent::QueryInjected {
            at: Time(at),
            query: QueryId(q),
            requester: NodeId(3),
            data: DataId(7),
            expires_at: Time(expires),
        }
    }

    fn delivered(q: u64, at: u64, delay: u64) -> ProbeEvent {
        ProbeEvent::Delivery {
            at: Time(at),
            query: QueryId(q),
            outcome: DeliveryOutcome::Accepted {
                delay: Duration(delay),
            },
        }
    }

    #[test]
    fn trace_assembles_full_lifecycle() {
        let mut p = RecordingProbe::new();
        p.record(&ev_query(0, 100, 10_000));
        p.record(&ProbeEvent::QueryRelay {
            at: Time(200),
            query: QueryId(0),
            from: NodeId(3),
            to: NodeId(1),
        });
        p.record(&ProbeEvent::QueryAtCentral {
            at: Time(300),
            query: QueryId(0),
            ncl: 2,
        });
        p.record(&ProbeEvent::BroadcastSpread {
            at: Time(350),
            query: QueryId(0),
            node: NodeId(4),
        });
        p.record(&ProbeEvent::ResponseSpawned {
            at: Time(400),
            query: QueryId(0),
            node: NodeId(4),
        });
        p.record(&ProbeEvent::ResponseRelay {
            at: Time(450),
            query: QueryId(0),
            from: NodeId(4),
            to: NodeId(3),
        });
        p.record(&delivered(0, 600, 500));
        let t = p.trace(QueryId(0)).expect("trace assembled");
        assert_eq!(t.first_central_at, Some(Time(300)));
        assert_eq!(t.first_central_ncl, Some(2));
        assert_eq!(t.broadcast_fanout, 1);
        assert_eq!(t.first_response_at, Some(Time(400)));
        assert_eq!(t.responder, Some(NodeId(4)));
        assert_eq!(t.delivered_at, Some(Time(600)));
        assert_eq!(t.hops.len(), 2);
        let d = t.decomposition().expect("delivered");
        assert_eq!(d.pull_secs, 200); // 100 → 300
        assert_eq!(d.ncl_secs, 100); // 300 → 400
        assert_eq!(d.response_secs, 200); // 400 → 600
        assert_eq!(d.total_secs(), 500);
        assert_eq!(p.count("query_injected"), 1);
        assert_eq!(p.count("delivery"), 1);
    }

    #[test]
    fn decomposition_clamps_late_milestones() {
        // A duplicate copy reaches a central *after* the local-hit
        // delivery: the pull phase must clamp to the delivery time so
        // the phases still sum to the recorded delay.
        let mut p = RecordingProbe::new();
        p.record(&ev_query(1, 100, 10_000));
        p.record(&delivered(1, 150, 50));
        p.record(&ProbeEvent::QueryAtCentral {
            at: Time(900),
            query: QueryId(1),
            ncl: 0,
        });
        let d = p.trace(QueryId(1)).unwrap().decomposition().unwrap();
        assert_eq!(d.pull_secs, 50);
        assert_eq!(d.ncl_secs, 0);
        assert_eq!(d.response_secs, 0);
        assert_eq!(d.total_secs(), 50);
    }

    #[test]
    fn local_hit_attributes_whole_delay_to_pull() {
        let mut p = RecordingProbe::new();
        p.record(&ev_query(2, 0, 1000));
        p.record(&delivered(2, 0, 0));
        let d = p.trace(QueryId(2)).unwrap().decomposition().unwrap();
        assert_eq!(d, DelayDecomposition::default());
        // Baseline-style delivery with no central milestone at all:
        p.record(&ev_query(3, 100, 9_000));
        p.record(&delivered(3, 800, 700));
        let d = p.trace(QueryId(3)).unwrap().decomposition().unwrap();
        assert_eq!(d.pull_secs, 700);
        assert_eq!(d.ncl_secs + d.response_secs, 0);
    }

    #[test]
    fn duplicate_delivery_does_not_retrace() {
        let mut p = RecordingProbe::new();
        p.record(&ev_query(4, 0, 10_000));
        p.record(&delivered(4, 500, 500));
        p.record(&ProbeEvent::Delivery {
            at: Time(900),
            query: QueryId(4),
            outcome: DeliveryOutcome::Duplicate,
        });
        assert_eq!(p.trace(QueryId(4)).unwrap().delivered_at, Some(Time(500)));
        assert_eq!(p.count("delivery"), 2);
    }

    #[test]
    fn total_decomposition_sums_delivered_traces() {
        let mut p = RecordingProbe::new();
        p.record(&ev_query(0, 0, 10_000));
        p.record(&ev_query(1, 0, 10_000));
        p.record(&ev_query(2, 0, 10_000)); // never delivered
        p.record(&delivered(0, 300, 300));
        p.record(&delivered(1, 700, 700));
        let total = p.total_decomposition();
        assert_eq!(total.total_secs(), 1000);
        assert_eq!(total.pull_secs, 1000); // no central milestones
    }

    #[test]
    fn noop_sink_never_builds_the_event() {
        let mut sink = ProbeSink::Noop;
        assert!(!sink.is_enabled());
        sink.emit(|| unreachable!("noop sink must not construct events"));
    }

    #[test]
    fn shared_handle_records_through_rc() {
        let rec = Rc::new(RefCell::new(RecordingProbe::new()));
        let mut sink = ProbeSink::Enabled(Box::new(Rc::clone(&rec)));
        assert!(sink.is_enabled());
        sink.emit(|| ev_query(9, 1, 2));
        drop(sink);
        let rec = Rc::try_unwrap(rec).expect("sole owner").into_inner();
        assert_eq!(rec.count("query_injected"), 1);
        assert!(rec.trace(QueryId(9)).is_some());
    }

    /// One event of every kind, in declaration order.
    #[rustfmt::skip]
    fn one_of_each_kind() -> Vec<ProbeEvent> {
        let (n, m, d, q, at) = (NodeId(1), NodeId(2), DataId(3), QueryId(4), Time(5));
        vec![
            ProbeEvent::ContactBegin { at, a: n, b: m, budget: 9 },
            ProbeEvent::ContactEnd { at, a: n, b: m, bytes_used: 9 },
            ProbeEvent::ContactLost { at, a: n, b: m },
            ProbeEvent::DataInjected { at, data: d, source: n, size: 9 },
            ev_query(4, 5, 50),
            ProbeEvent::EpochFired { at, index: 1 },
            ProbeEvent::TransmitAccepted { at, bytes: 9 },
            ProbeEvent::TransmitRejected { at, bytes: 9 },
            delivered(4, 6, 1),
            ProbeEvent::CacheSampled { at, copies: 1, bytes: 9 },
            ProbeEvent::PushRelay { at, data: d, from: n, to: m, ncl: 0 },
            ProbeEvent::PushSettled { at, data: d, node: m, ncl: 0 },
            ProbeEvent::QueryRelay { at, query: q, from: n, to: m },
            ProbeEvent::QueryAtCentral { at, query: q, ncl: 0 },
            ProbeEvent::BroadcastSpread { at, query: q, node: m },
            ProbeEvent::ResponseDecision { at, query: q, node: m, probability: 0.5, responded: true },
            ProbeEvent::ResponseSpawned { at, query: q, node: m },
            ProbeEvent::ResponseRelay { at, query: q, from: m, to: n },
            ProbeEvent::ReplacementEvicted { at, node: m, data: d },
            ProbeEvent::CentralReelected { at, ncl: 0, old: n, new: m },
            ProbeEvent::OracleRebuilt { at, epoch: 1, table_recomputes: 0, table_hits: 0 },
            ProbeEvent::OracleInvalidated { at },
        ]
    }

    #[test]
    fn count_reads_each_kind_by_its_name() {
        let one_of_each = one_of_each_kind();
        let kinds: Vec<_> = one_of_each.iter().map(ProbeEvent::kind).collect();
        assert_eq!(
            kinds,
            ProbeEvent::KINDS,
            "one event of every kind, in order"
        );
        let mut p = RecordingProbe::new();
        let mut want = std::collections::BTreeMap::new();
        // Every kind once, every third kind a second time.
        for (i, e) in one_of_each.iter().enumerate() {
            for _ in 0..1 + usize::from(i % 3 == 0) {
                p.record(e);
                *want.entry(e.kind()).or_insert(0u64) += 1;
            }
        }
        for kind in ProbeEvent::KINDS {
            assert_eq!(p.count(kind), want[kind], "{kind}");
        }
        assert_eq!(p.count("no_such_kind"), 0);
        assert_eq!(RecordingProbe::new().count("delivery"), 0);
    }

    #[test]
    fn vocabulary_tables_are_derived_from_one_declaration() {
        // The counter table and the capture schema key on these names.
        let unique: std::collections::BTreeSet<_> = ProbeEvent::KINDS.iter().collect();
        assert_eq!(unique.len(), ProbeEvent::KINDS.len());
        let sample = ev_query(4, 9, 11);
        assert_eq!(sample.kind(), "query_injected");
        assert_eq!(sample.at(), Time(9));
        let mut fields = Vec::new();
        sample.fields(&mut |name, value| fields.push((name, value)));
        assert_eq!(
            fields,
            vec![
                ("query", FieldValue::Int(4)),
                ("requester", FieldValue::Int(3)),
                ("data", FieldValue::Int(7)),
                ("expires_at", FieldValue::Int(11)),
            ]
        );
    }
}
