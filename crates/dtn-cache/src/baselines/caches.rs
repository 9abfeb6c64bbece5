//! The caching side of an incidental scheme: every node's buffer, what
//! the policy gets to see, and who evicts what.

use dtn_core::ids::{DataId, IdMap, NodeId};
use dtn_core::time::Time;
use dtn_sim::audit::{check_buffers, AuditLaw, AuditReport, AuditViolation};
use dtn_sim::buffer::Buffer;
use dtn_sim::engine::SimCtx;
use dtn_sim::message::{DataItem, Query};
use dtn_sim::probe::ProbeEvent;

use crate::common::DataRegistry;
use crate::routing::RoutedMessage;
use crate::NetworkSetup;

use super::{IncidentalPolicy, PolicyCtx};

/// Buffers, data registry and local query history of one incidental
/// scheme — everything but the messages in flight.
#[derive(Debug)]
pub(super) struct Caches<P> {
    policy: P,
    pub(super) buffers: Vec<Buffer>,
    registry: DataRegistry,
    local_seen: IdMap<(NodeId, DataId), u32>,
    /// Cumulative contacts per node, to estimate contact patterns.
    pub(super) node_contacts: Vec<u64>,
    started_at: Time,
    /// No buffered item expires before this instant, so no buffer needs
    /// an expiry sweep until `now` reaches it.
    next_expiry: Time,
}

impl<P: IncidentalPolicy> Caches<P> {
    pub(super) fn new(policy: P) -> Self {
        Caches {
            policy,
            buffers: Vec::new(),
            registry: DataRegistry::default(),
            local_seen: IdMap::default(),
            node_contacts: Vec::new(),
            started_at: Time::ZERO,
            next_expiry: Time(u64::MAX),
        }
    }

    /// A fresh start over `setup`'s nodes: nothing of an earlier run —
    /// items, query history, contact counts — survives.
    pub(super) fn configure(&mut self, setup: &NetworkSetup<'_>) {
        *self = Caches {
            buffers: setup.capacities.iter().map(|&c| Buffer::new(c)).collect(),
            node_contacts: vec![0; setup.capacities.len()],
            started_at: setup.now,
            ..Caches::new(self.policy.clone())
        };
    }

    pub(super) fn policy(&self) -> &P {
        &self.policy
    }

    pub(super) fn item(&self, id: DataId) -> Option<&DataItem> {
        self.registry.get(id)
    }

    pub(super) fn holds(&self, node: NodeId, data: DataId) -> bool {
        self.buffers[node.index()].contains(data)
    }

    /// Counts one more query for `data` that `node` carried or issued.
    pub(super) fn note_seen(&mut self, node: NodeId, data: DataId) {
        *self.local_seen.entry((node, data)).or_insert(0) += 1;
    }

    pub(super) fn policy_ctx(&self, node: NodeId, now: Time) -> PolicyCtx<'_> {
        // No observation window yet → no rate estimate, matching
        // `RateEstimator::rate` (which returns `None` until time has
        // elapsed). The old `.max(1.0)` clamp instead reported the raw
        // contact count as a per-second rate at `now == started_at`,
        // inflating every node's contact pattern during warm-up.
        let elapsed = now.saturating_since(self.started_at).as_secs_f64();
        let contact_rate = if elapsed > 0.0 {
            self.node_contacts[node.index()] as f64 / elapsed
        } else {
            0.0
        };
        PolicyCtx {
            node,
            local_seen: &self.local_seen,
            contact_rate,
        }
    }

    /// The lowest-scoring item in `node`'s buffer, ties to the lowest id.
    fn eviction_candidate(&self, node: NodeId, now: Time) -> Option<(f64, DataId)> {
        let pctx = self.policy_ctx(node, now);
        self.buffers[node.index()]
            .iter()
            .map(|d| (self.policy.eviction_score(d, pctx), d.id))
            .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)))
    }

    fn evict(&mut self, ctx: &mut SimCtx<'_>, node: NodeId, victim: DataId) {
        self.buffers[node.index()].remove(victim);
        ctx.note_replacements(1);
        let at = ctx.now();
        ctx.probe().emit(|| ProbeEvent::ReplacementEvicted {
            at,
            node,
            data: victim,
        });
    }

    fn insert(&mut self, node: NodeId, item: DataItem) -> bool {
        let stored = self.buffers[node.index()].insert(item).is_ok();
        if stored {
            self.next_expiry = self.next_expiry.min(item.expires_at);
        }
        stored
    }

    /// Caches `item` at `node`, evicting lowest-score items if needed.
    pub(super) fn cache_at(&mut self, ctx: &mut SimCtx<'_>, node: NodeId, item: DataItem) -> bool {
        let now = ctx.now();
        if self.holds(node, item.id) {
            return true;
        }
        if item.size > self.buffers[node.index()].capacity() {
            return false;
        }
        while !self.buffers[node.index()].fits(item.size) {
            // Evict the lowest-scoring item, but never to make room for
            // something the policy scores even lower.
            let Some((score, victim)) = self.eviction_candidate(node, now) else {
                return false;
            };
            let new_score = self
                .policy
                .eviction_score(&item, self.policy_ctx(node, now));
            if new_score <= score {
                return false;
            }
            self.evict(ctx, node, victim);
        }
        self.insert(node, item)
    }

    /// A data copy just passed through relay `node`: caches it there if
    /// the policy says so (CacheData / BundleCache).
    pub(super) fn offer_passby(&mut self, ctx: &mut SimCtx<'_>, node: NodeId, item: DataItem) {
        let pctx = self.policy_ctx(node, ctx.now());
        if self.policy.cache_passby(&item, pctx) {
            self.cache_at(ctx, node, item);
        }
    }

    /// Registers a newly generated item and stores it at its source,
    /// which always tries to keep its own data, evicting its
    /// lowest-score cached items if necessary.
    pub(super) fn store_at_source(&mut self, ctx: &mut SimCtx<'_>, item: DataItem) {
        self.registry.register(item);
        let node = item.source;
        while !self.buffers[node.index()].fits(item.size) {
            let Some((_, victim)) = self.eviction_candidate(node, ctx.now()) else {
                break;
            };
            self.evict(ctx, node, victim);
        }
        self.insert(node, item);
    }

    /// Books a freshly issued query. Returns the message to route toward
    /// the data source, or `None` when there is nothing to route: the
    /// requester holds the data (delivered on the spot), the data is
    /// unknown, or the requester is its source.
    pub(super) fn admit(&mut self, ctx: &mut SimCtx<'_>, query: Query) -> Option<RoutedMessage> {
        self.registry.record_request(query.data, ctx.now());
        self.note_seen(query.requester, query.data);
        if self.holds(query.requester, query.data) {
            ctx.mark_delivered(query.id);
            return None;
        }
        let destination = self.registry.get(query.data)?.source;
        // Own expired data regenerated? Nothing to route.
        (destination != query.requester)
            .then(|| RoutedMessage::new(destination, ctx.query_size(), query.requester))
    }

    /// Answers `query` from `holder`'s copy (holder caches or sources
    /// the data). Returns the data copy to route back, or `None` when
    /// the holder is the requester (delivered on the spot).
    pub(super) fn answer(
        &self,
        ctx: &mut SimCtx<'_>,
        query: &Query,
        holder: NodeId,
    ) -> Option<RoutedMessage> {
        let at = ctx.now();
        let query_id = query.id;
        ctx.probe().emit(|| ProbeEvent::ResponseSpawned {
            at,
            query: query_id,
            node: holder,
        });
        if holder == query.requester {
            ctx.mark_delivered(query.id);
            return None;
        }
        let item = self.registry.get(query.data)?;
        Some(RoutedMessage::new(query.requester, item.size, holder))
    }

    /// Drops every buffered item that has expired by `now`. A no-op
    /// until `now` reaches the earliest expiry held anywhere; then every
    /// buffer is swept and the watermark moves to the earliest survivor.
    pub(super) fn drop_expired(&mut self, now: Time) {
        if now < self.next_expiry {
            return;
        }
        let mut next = Time(u64::MAX);
        for buf in &mut self.buffers {
            buf.drop_expired(now);
            next = buf.iter().map(|d| d.expires_at).fold(next, Time::min);
        }
        self.next_expiry = next;
    }

    /// Buffer byte-accounting, plus the expiry watermark's law: it is no
    /// later than the earliest expiry any buffer holds.
    pub(super) fn audit(&self, now: Time, report: &mut AuditReport) {
        check_buffers(&self.buffers, now, report);
        for (n, buf) in self.buffers.iter().enumerate() {
            for item in buf.iter().filter(|d| d.expires_at < self.next_expiry) {
                report.violate(AuditViolation {
                    law: AuditLaw::IndexConsistency,
                    at: now,
                    node: Some(NodeId(n as u32)),
                    item: Some(item.id),
                    detail: format!(
                        "item expires at {} before the sweep watermark {}",
                        item.expires_at, self.next_expiry
                    ),
                });
            }
        }
    }
}
