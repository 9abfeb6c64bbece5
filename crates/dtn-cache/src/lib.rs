//! Cooperative caching schemes for Disruption Tolerant Networks.
//!
//! This crate implements the data-access schemes evaluated in the paper
//! (§VI):
//!
//! - [`intentional`] — the paper's contribution: intentional caching at
//!   Network Central Locations with push/pull data access, probabilistic
//!   response and utility-knapsack cache replacement;
//! - `baselines` — the four comparison schemes: **NoCache**,
//!   **RandomCache**, **CacheData** \[29\] and **BundleCache** \[23\],
//!   all built on incidental caching along forwarding paths (built
//!   through [`experiment::build_scheme`]);
//! - [`replacement`] — the cache-replacement policies of Fig. 12:
//!   FIFO, LRU, Greedy-Dual-Size, and the paper's utility knapsack;
//! - [`experiment`] — the end-to-end runner (warm-up → NCL selection →
//!   workload → metrics) used by every table/figure reproduction.
//!
//! # Example
//!
//! ```
//! use dtn_cache::experiment::{run_experiment, ExperimentConfig};
//! use dtn_cache::SchemeKind;
//! use dtn_core::time::Duration;
//! use dtn_trace::synthetic::SyntheticTraceBuilder;
//!
//! let trace = SyntheticTraceBuilder::new(16)
//!     .duration(Duration::days(2))
//!     .target_contacts(3_000)
//!     .seed(5)
//!     .build();
//! let config = ExperimentConfig {
//!     ncl_count: 2,
//!     mean_data_lifetime: Duration::hours(6),
//!     mean_data_size: 1 << 20,
//!     ..ExperimentConfig::default()
//! };
//! let report = run_experiment(&trace, SchemeKind::Intentional, &config, 1);
//! assert!(report.queries_issued > 0);
//! ```

mod baselines;
mod common;
pub mod experiment;
pub mod intentional;
mod pending;
pub mod reference;
pub mod replacement;
pub mod routing;

use dtn_core::ids::NodeId;
use dtn_core::ncl::SweepWork;
use dtn_core::rate::RateTable;
use dtn_core::time::{Duration, Time};
use dtn_sim::audit::AuditReport;
use dtn_sim::engine::{CacheStats, Epoch, Scheme, SimCtx};
use dtn_sim::message::{DataItem, Query};
use dtn_sim::oracle::OracleStats;
use dtn_trace::trace::Contact;

/// Which data-access scheme to run — the five lines of Fig. 10/11/13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// No caching; only the data source answers queries.
    NoCache,
    /// Every requester caches received data (LRU).
    RandomCache,
    /// Cooperative caching for wireless ad-hoc networks \[29\]: relays
    /// cache pass-by data by (locally observed) popularity.
    CacheData,
    /// DTN bundle caching \[23\]: relays cache pass-by data by a
    /// utility combining popularity and the relay's contact pattern.
    BundleCache,
    /// The paper's intentional caching at Network Central Locations.
    Intentional,
    /// Epidemic flooding of queries *and* responses with requester
    /// caching — not in the paper's comparison; a delivery upper bound
    /// that shows what unbounded replication buys (and costs).
    Flooding,
}

impl SchemeKind {
    /// The paper's five schemes, in the legend order of Fig. 10.
    pub const ALL: [SchemeKind; 5] = [
        SchemeKind::NoCache,
        SchemeKind::RandomCache,
        SchemeKind::CacheData,
        SchemeKind::BundleCache,
        SchemeKind::Intentional,
    ];

    /// The paper's five schemes plus the epidemic-flooding upper bound.
    pub const ALL_WITH_BOUNDS: [SchemeKind; 6] = [
        SchemeKind::NoCache,
        SchemeKind::RandomCache,
        SchemeKind::CacheData,
        SchemeKind::BundleCache,
        SchemeKind::Intentional,
        SchemeKind::Flooding,
    ];

    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::NoCache => "NoCache",
            SchemeKind::RandomCache => "RandomCache",
            SchemeKind::CacheData => "CacheData",
            SchemeKind::BundleCache => "BundleCache",
            SchemeKind::Intentional => "Intentional",
            SchemeKind::Flooding => "Flooding",
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How often a scheme's [`PathOracle`](dtn_sim::oracle::PathOracle)
/// refreshes its cached path tables: 12 h, unless the run overrides it
/// through [`NetworkSetup::path_refresh`].
pub(crate) const PATH_REFRESH: Duration = Duration(12 * 3600);

/// Network information handed to a scheme after the warm-up period
/// (§VI-A: "the first half of the trace is used as the warm-up period
/// for the accumulation of network information and subsequent NCL
/// selection").
#[derive(Debug, Clone)]
pub struct NetworkSetup<'a> {
    /// Pairwise contact rates accumulated during warm-up.
    pub rate_table: &'a RateTable,
    /// The current time (end of warm-up).
    pub now: Time,
    /// Per-node caching-buffer capacities in bytes.
    pub capacities: Vec<u64>,
    /// Time horizon `T` (seconds) for opportunistic path weights.
    pub horizon: f64,
    /// Overrides the scheme's default [`PathOracle`] refresh interval
    /// when set.
    ///
    /// [`PathOracle`]: dtn_sim::oracle::PathOracle
    pub path_refresh: Option<Duration>,
}

/// What a scheme's in-flight arena did, counted over its message slabs —
/// the same on every machine, like [`OracleStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PendingWork {
    /// Messages the contacts looked at: each message either endpoint
    /// carried, once per contact however many copies they held.
    pub examined: u64,
    /// Messages put in flight; a §V-B multicast to the `K` central nodes
    /// is one.
    pub inserted: u64,
}

impl std::ops::AddAssign for PendingWork {
    fn add_assign(&mut self, other: Self) {
        self.examined += other.examined;
        self.inserted += other.inserted;
    }
}

/// A [`Scheme`] that can be configured from warm-up network information.
pub trait CachingScheme: Scheme {
    /// Installs NCLs, buffers and path oracles from the warm-up state.
    fn configure(&mut self, setup: &NetworkSetup<'_>);

    /// The central nodes selected (empty for schemes without NCLs).
    fn central_nodes(&self) -> &[NodeId] {
        &[]
    }

    /// Queries that reached each central node (empty for schemes
    /// without NCLs) — a load-balance view.
    fn ncl_query_load(&self) -> &[u64] {
        &[]
    }

    /// Cumulative work counters of the scheme's path oracle — the
    /// baselines route through one too. `None` for a scheme that keeps
    /// none, and until [`configure`](Self::configure) has built it.
    fn oracle_stats(&self) -> Option<OracleStats> {
        None
    }

    /// Cumulative work of the scheme's NCL selections —
    /// [`configure`](Self::configure) and every re-election since:
    /// `None` for a scheme that selects no NCLs.
    fn ncl_work(&self) -> Option<SweepWork> {
        None
    }

    /// Cumulative work of the scheme's in-flight messages since
    /// [`configure`](Self::configure); zero until then.
    fn pending_work(&self) -> PendingWork {
        PendingWork::default()
    }
}

impl Scheme for Box<dyn CachingScheme> {
    fn on_data_generated(&mut self, ctx: &mut SimCtx<'_>, item: DataItem) {
        (**self).on_data_generated(ctx, item);
    }
    fn on_query_issued(&mut self, ctx: &mut SimCtx<'_>, query: Query) {
        (**self).on_query_issued(ctx, query);
    }
    fn on_contact(&mut self, ctx: &mut SimCtx<'_>, contact: Contact) {
        (**self).on_contact(ctx, contact);
    }
    fn on_epoch(&mut self, ctx: &mut SimCtx<'_>, epoch: Epoch) {
        (**self).on_epoch(ctx, epoch);
    }
    fn cache_stats(&self, now: Time) -> CacheStats {
        (**self).cache_stats(now)
    }
    fn audit(&self, now: Time, report: &mut AuditReport) {
        (**self).audit(now, report);
    }
}

impl CachingScheme for Box<dyn CachingScheme> {
    fn configure(&mut self, setup: &NetworkSetup<'_>) {
        (**self).configure(setup);
    }
    fn central_nodes(&self) -> &[NodeId] {
        (**self).central_nodes()
    }
    fn ncl_query_load(&self) -> &[u64] {
        (**self).ncl_query_load()
    }
    fn oracle_stats(&self) -> Option<OracleStats> {
        (**self).oracle_stats()
    }
    fn ncl_work(&self) -> Option<SweepWork> {
        (**self).ncl_work()
    }
    fn pending_work(&self) -> PendingWork {
        (**self).pending_work()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{CacheDataPolicy, IncidentalScheme};
    use crate::experiment::configure_from_live_state;
    use crate::intentional::{IntentionalConfig, IntentionalScheme};
    use dtn_core::ids::DataId;
    use dtn_sim::engine::{SimConfig, Simulator, WorkloadEvent};
    use dtn_sim::message::DataItem;
    use dtn_trace::synthetic::SyntheticTraceBuilder;

    /// `configure` → workload → `configure` again at `t2` must leave the
    /// scheme exactly as one `configure` at `t2` leaves a scheme that
    /// never ran: no item, popularity count, query history or message of
    /// the first run survives.
    fn reconfigured_equals_fresh<S: CachingScheme + std::fmt::Debug>(make: impl Fn() -> S) {
        let trace = SyntheticTraceBuilder::new(16)
            .duration(Duration::days(2))
            .target_contacts(6_000)
            .seed(23)
            .build();
        let (mid, t2) = (trace.midpoint(), trace.midpoint() + Duration::hours(8));
        let mut events = Vec::new();
        for i in 0..8u64 {
            let at = mid + Duration::minutes(i);
            events.push(WorkloadEvent::GenerateData {
                item: DataItem::new(DataId(i), NodeId(i as u32), 900, at, Duration::days(1)),
            });
            events.push(WorkloadEvent::IssueQuery {
                at: at + Duration::hours(1),
                requester: NodeId((i as u32 + 5) % 16),
                data: DataId(i),
                constraint: Duration::hours(12),
            });
        }
        let mut used = Simulator::new(&trace, make(), SimConfig::default());
        used.run_until(mid);
        configure_from_live_state(&mut used, 3600.0, None);
        used.add_workload(events);
        used.run_until(t2);
        assert!(used.metrics().bytes_transmitted > 0, "the first run ran");
        configure_from_live_state(&mut used, 3600.0, None);

        let mut fresh = Simulator::new(&trace, make(), SimConfig::default());
        fresh.run_until(t2);
        configure_from_live_state(&mut fresh, 3600.0, None);

        let (used, fresh) = (
            format!("{:#?}", used.scheme()),
            format!("{:#?}", fresh.scheme()),
        );
        for (line, (u, f)) in used.lines().zip(fresh.lines()).enumerate() {
            assert_eq!(u, f, "line {line} of the dump");
        }
        assert_eq!(used.lines().count(), fresh.lines().count());
    }

    #[test]
    fn reconfigure_is_a_fresh_start() {
        reconfigured_equals_fresh(|| IntentionalScheme::new(IntentionalConfig::default()));
        reconfigured_equals_fresh(|| IncidentalScheme::new(CacheDataPolicy::default()));
    }

    #[test]
    fn scheme_kind_names_are_distinct() {
        let names: std::collections::BTreeSet<_> = SchemeKind::ALL_WITH_BOUNDS
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(names.len(), 6);
        assert_eq!(SchemeKind::Intentional.to_string(), "Intentional");
    }
}
