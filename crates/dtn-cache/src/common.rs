//! Shared building blocks for the caching schemes: the data registry and
//! cache occupancy.

use dtn_core::ids::{DataId, IdMap, IdSet};
use dtn_core::popularity::PopularityEstimator;
use dtn_core::time::Time;
use dtn_sim::buffer::Buffer;
use dtn_sim::engine::CacheStats;
use dtn_sim::message::DataItem;

/// Registry of all data items a scheme has seen, with global query
/// popularity estimators.
#[derive(Debug, Clone, Default)]
pub(crate) struct DataRegistry {
    items: IdMap<DataId, DataItem>,
    popularity: IdMap<DataId, PopularityEstimator>,
}

impl DataRegistry {
    /// Registers a newly generated item.
    pub(crate) fn register(&mut self, item: DataItem) {
        self.items.insert(item.id, item);
        self.popularity.entry(item.id).or_default();
    }

    /// Looks up an item by id.
    pub(crate) fn get(&self, id: DataId) -> Option<&DataItem> {
        self.items.get(&id)
    }

    /// Records a query for `id` at time `at` (drives Eq. 6).
    pub(crate) fn record_request(&mut self, id: DataId, at: Time) {
        self.popularity.entry(id).or_default().record_request(at);
    }

    /// The popularity `w_i` of `id` at `now` (0 for unknown items).
    pub(crate) fn popularity(&self, id: DataId, now: Time) -> f64 {
        match (self.items.get(&id), self.popularity.get(&id)) {
            (Some(item), Some(est)) => est.popularity(now, item.expires_at()),
            _ => 0.0,
        }
    }
}

/// Cache occupancy over a scheme's buffers: live copies, their bytes,
/// and how many distinct items they are.
pub(crate) fn cache_stats(buffers: &[Buffer], now: Time) -> CacheStats {
    let mut copies = 0u64;
    let mut bytes = 0u64;
    let mut distinct = IdSet::default();
    for buf in buffers {
        for item in buf.iter().filter(|d| d.is_alive(now)) {
            copies += 1;
            bytes += item.size;
            distinct.insert(item.id);
        }
    }
    CacheStats {
        copies,
        distinct: distinct.len() as u64,
        bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::ids::NodeId;
    use dtn_core::time::Duration;

    #[test]
    fn registry_tracks_items_and_popularity() {
        let mut reg = DataRegistry::default();
        let item = DataItem::new(DataId(5), NodeId(1), 10, Time(0), Duration(10_000));
        reg.register(item);
        assert_eq!(reg.get(DataId(5)).unwrap().source, NodeId(1));
        assert_eq!(reg.get(DataId(5)).unwrap().size, 10);
        assert_eq!(reg.popularity(DataId(5), Time(1)), 0.0, "no requests yet");
        reg.record_request(DataId(5), Time(100));
        reg.record_request(DataId(5), Time(200));
        assert!(reg.popularity(DataId(5), Time(300)) > 0.5);
    }

    #[test]
    fn unknown_item_has_zero_popularity() {
        let reg = DataRegistry::default();
        assert_eq!(reg.popularity(DataId(9), Time(0)), 0.0);
        assert!(reg.get(DataId(9)).is_none());
    }
}
