//! The [`Scheme`] plug-in trait and the event vocabulary it receives.

use dtn_core::ids::NodeId;
use dtn_core::time::{Duration, Time};
use dtn_trace::trace::Contact;

use crate::audit::AuditReport;
use crate::message::{DataItem, Query};

use super::SimCtx;

/// One firing of the periodic maintenance channel (see
/// [`SimConfig::epoch_interval`](super::SimConfig::epoch_interval) and [`Scheme::on_epoch`]).
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
    /// [`SimConfig::epoch_interval`](super::SimConfig::epoch_interval) (never, by default). Epochs fire
    /// *between* events — there is no contact, so `ctx.try_transmit`
    /// must not be called here. Schemes use this for background work
    /// such as re-electing central nodes from the live rate table.
    fn on_epoch(&mut self, _ctx: &mut SimCtx<'_>, _epoch: Epoch) {}

    /// Reports current global cache occupancy for the overhead metric.
    fn cache_stats(&self, now: Time) -> CacheStats;

    /// Re-derives the scheme's canonical state and reports every broken
    /// conservation law into `report`. Called after every contact and
    /// epoch when [`SimConfig::audit`](super::SimConfig::audit) is on; the default does nothing,
    /// so schemes without redundant state need no implementation. See
    /// [`crate::audit`] for the laws.
    fn audit(&self, _now: Time, _report: &mut AuditReport) {}
}
