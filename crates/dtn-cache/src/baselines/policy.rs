//! The concrete caching rules of the four baseline schemes.

use dtn_sim::message::DataItem;

use super::{IncidentalPolicy, PolicyCtx};

/// **NoCache** (§VI): "caching is not used for data access, and each
/// query result is returned only by the data source."
///
/// Only the source's own items ever sit in a buffer; eviction order is
/// oldest-created first (effectively FIFO over the node's own data).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct NoCachePolicy;

impl IncidentalPolicy for NoCachePolicy {
    fn cache_at_requester(&self) -> bool {
        false
    }
    fn cache_passby(&self, _item: &DataItem, _ctx: PolicyCtx<'_>) -> bool {
        false
    }
    fn eviction_score(&self, item: &DataItem, _ctx: PolicyCtx<'_>) -> f64 {
        item.created_at.as_secs_f64()
    }
}

/// **RandomCache** (§VI): "every requester caches the received data to
/// facilitate data access in the future", with LRU replacement.
///
/// Recency is approximated by the item's creation time plus its locally
/// observed request count — requesters blindly keep what they fetched
/// most recently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RandomCachePolicy;

impl IncidentalPolicy for RandomCachePolicy {
    fn cache_at_requester(&self) -> bool {
        true
    }
    fn cache_passby(&self, _item: &DataItem, _ctx: PolicyCtx<'_>) -> bool {
        false
    }
    fn eviction_score(&self, item: &DataItem, _ctx: PolicyCtx<'_>) -> f64 {
        // LRU stand-in: newer items score higher (evicted later).
        item.created_at.as_secs_f64()
    }
}

/// **CacheData** \[29\]: relays on the forwarding path cache pass-by
/// data "according to their popularity" — but in a DTN a relay only
/// knows the queries it personally carried, which is exactly why the
/// paper finds it ineffective here (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheDataPolicy {
    /// A relay caches a pass-by item once it has locally seen at least
    /// this many queries for it.
    pub(crate) popularity_threshold: u32,
}

impl Default for CacheDataPolicy {
    fn default() -> Self {
        CacheDataPolicy {
            popularity_threshold: 2,
        }
    }
}

impl IncidentalPolicy for CacheDataPolicy {
    fn cache_at_requester(&self) -> bool {
        false
    }
    fn cache_passby(&self, item: &DataItem, ctx: PolicyCtx<'_>) -> bool {
        let seen = ctx
            .local_seen
            .get(&(ctx.node, item.id))
            .copied()
            .unwrap_or(0);
        seen >= self.popularity_threshold
    }
    fn eviction_score(&self, item: &DataItem, ctx: PolicyCtx<'_>) -> f64 {
        f64::from(
            ctx.local_seen
                .get(&(ctx.node, item.id))
                .copied()
                .unwrap_or(0),
        )
    }
}

/// **BundleCache** \[23\]: relays cache pass-by bundles "by considering
/// the node contact pattern in DTNs, so as to minimize the average data
/// access delay" — the caching utility weights locally observed
/// popularity by how well-connected the caching node itself is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BundleCachePolicy {
    /// Contact rate (contacts/sec) at which a node counts as fully
    /// connected; utilities saturate above it. Default: one contact per
    /// 10 minutes.
    pub(crate) reference_contact_rate: f64,
}

impl Default for BundleCachePolicy {
    fn default() -> Self {
        BundleCachePolicy {
            reference_contact_rate: 1.0 / 600.0,
        }
    }
}

impl BundleCachePolicy {
    fn utility(&self, item: &DataItem, ctx: PolicyCtx<'_>) -> f64 {
        let seen = f64::from(
            ctx.local_seen
                .get(&(ctx.node, item.id))
                .copied()
                .unwrap_or(0),
        );
        let connectivity = (ctx.contact_rate / self.reference_contact_rate).min(1.0);
        // +1 so that even unseen data has a connectivity-driven utility:
        // well-connected relays opportunistically keep pass-by bundles.
        (seen + 1.0) * connectivity
    }
}

impl IncidentalPolicy for BundleCachePolicy {
    fn cache_at_requester(&self) -> bool {
        false
    }
    fn cache_passby(&self, item: &DataItem, ctx: PolicyCtx<'_>) -> bool {
        self.utility(item, ctx) > 0.25
    }
    fn eviction_score(&self, item: &DataItem, ctx: PolicyCtx<'_>) -> f64 {
        self.utility(item, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::ids::{DataId, IdMap, NodeId};
    use dtn_core::time::{Duration, Time};

    fn item(id: u64) -> DataItem {
        DataItem::new(DataId(id), NodeId(0), 100, Time(50), Duration(1000))
    }

    fn pctx<'a>(
        node: u32,
        seen: &'a IdMap<(NodeId, DataId), u32>,
        contact_rate: f64,
    ) -> PolicyCtx<'a> {
        PolicyCtx {
            node: NodeId(node),
            local_seen: seen,
            contact_rate,
        }
    }

    #[test]
    fn no_cache_never_caches() {
        let seen = IdMap::default();
        let p = NoCachePolicy;
        assert!(!p.cache_at_requester());
        assert!(!p.cache_passby(&item(1), pctx(2, &seen, 0.01)));
    }

    #[test]
    fn random_cache_caches_at_requester_only() {
        let seen = IdMap::default();
        let p = RandomCachePolicy;
        assert!(p.cache_at_requester());
        assert!(!p.cache_passby(&item(1), pctx(2, &seen, 0.01)));
    }

    #[test]
    fn cache_data_needs_local_popularity() {
        let mut seen = IdMap::default();
        let p = CacheDataPolicy::default();
        assert!(!p.cache_passby(&item(1), pctx(2, &seen, 0.01)));
        seen.insert((NodeId(2), DataId(1)), 2);
        assert!(p.cache_passby(&item(1), pctx(2, &seen, 0.01)));
        // A different node's history does not help.
        assert!(!p.cache_passby(&item(1), pctx(3, &seen, 0.01)));
    }

    #[test]
    fn cache_data_evicts_least_locally_popular() {
        let mut seen = IdMap::default();
        seen.insert((NodeId(2), DataId(1)), 5);
        seen.insert((NodeId(2), DataId(2)), 1);
        let p = CacheDataPolicy::default();
        let s1 = p.eviction_score(&item(1), pctx(2, &seen, 0.01));
        let s2 = p.eviction_score(&item(2), pctx(2, &seen, 0.01));
        assert!(s1 > s2, "more popular data must score higher");
    }

    #[test]
    fn bundle_cache_prefers_connected_nodes() {
        let seen = IdMap::default();
        let p = BundleCachePolicy::default();
        let hub = p.eviction_score(&item(1), pctx(2, &seen, 1.0 / 60.0));
        let loner = p.eviction_score(&item(1), pctx(2, &seen, 1.0 / 86_400.0));
        assert!(hub > loner);
        // A hub caches pass-by data even without query history...
        assert!(p.cache_passby(&item(1), pctx(2, &seen, 1.0 / 60.0)));
        // ...a poorly connected node does not.
        assert!(!p.cache_passby(&item(1), pctx(2, &seen, 1.0 / 86_400.0)));
    }

    #[test]
    fn bundle_cache_utility_grows_with_popularity() {
        let mut seen = IdMap::default();
        let p = BundleCachePolicy::default();
        let before = p.eviction_score(&item(1), pctx(2, &seen, 1.0 / 60.0));
        seen.insert((NodeId(2), DataId(1)), 4);
        let after = p.eviction_score(&item(1), pctx(2, &seen, 1.0 / 60.0));
        assert!(after > before);
    }
}
