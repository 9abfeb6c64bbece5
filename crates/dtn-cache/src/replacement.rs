//! Cache-replacement policies — the four lines of Fig. 12.
//!
//! The intentional caching scheme can run with its native
//! **utility-knapsack** replacement (contact-time exchange solving
//! Eq. 7 via Algorithm 1) or with one of the traditional evict-on-insert
//! policies the paper compares against: **FIFO**, **LRU** and
//! **Greedy-Dual-Size** \[6\].
//!
//! This module implements the evict-on-insert side: a `NodeCacheMeta`
//! keeps each cached item's eviction key under its policy (insertion
//! time, last use or GDS credit) and `make_room` frees space in key
//! order.

use dtn_core::ids::{DataId, IdMap};
use dtn_core::time::Time;
use dtn_sim::buffer::Buffer;

/// The replacement policy driving a scheme's cache evictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementKind {
    /// Evict the item inserted earliest.
    Fifo,
    /// Evict the least-recently-used item.
    Lru,
    /// Greedy-Dual-Size: evict the item with the lowest credit
    /// `H = L + popularity / size`, inflating `L` on every eviction.
    GreedyDualSize,
    /// The paper's scheme: no evict-on-insert; caching nodes exchange
    /// data via the probabilistic knapsack whenever they meet (§V-D).
    UtilityKnapsack,
}

impl ReplacementKind {
    /// All four policies, in the legend order of Fig. 12.
    pub const ALL: [ReplacementKind; 4] = [
        ReplacementKind::Fifo,
        ReplacementKind::Lru,
        ReplacementKind::GreedyDualSize,
        ReplacementKind::UtilityKnapsack,
    ];

    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementKind::Fifo => "FIFO",
            ReplacementKind::Lru => "LRU",
            ReplacementKind::GreedyDualSize => "Greedy-Dual-Size",
            ReplacementKind::UtilityKnapsack => "Utility-Knapsack",
        }
    }
}

impl std::fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-node bookkeeping for one evict-on-insert policy: each item's
/// eviction key under that policy, and nothing under the knapsack.
#[derive(Debug, Clone)]
pub(crate) struct NodeCacheMeta {
    kind: ReplacementKind,
    /// FIFO: the insert time. LRU: the last use. GDS: the credit
    /// `L + popularity / size`. Empty under the knapsack, which never
    /// evicts on insert.
    keys: IdMap<DataId, f64>,
    /// GDS's `L`: the highest credit evicted so far.
    gds_floor: f64,
}

impl NodeCacheMeta {
    /// The bookkeeping of one node's cache under `kind`.
    pub(crate) fn new(kind: ReplacementKind) -> Self {
        NodeCacheMeta {
            kind,
            keys: IdMap::default(),
            gds_floor: 0.0,
        }
    }

    /// Records that `id` was inserted now with the given popularity and
    /// size (popularity/size feeds the GDS credit).
    pub(crate) fn on_insert(&mut self, id: DataId, now: Time, popularity: f64, size: u64) {
        match self.kind {
            ReplacementKind::Fifo | ReplacementKind::Lru => {
                self.keys.insert(id, now.as_secs_f64());
            }
            ReplacementKind::GreedyDualSize => self.set_credit(id, popularity, size),
            ReplacementKind::UtilityKnapsack => {}
        }
    }

    /// Records a use (query hit) of `id`, refreshing LRU recency and GDS
    /// credit.
    pub(crate) fn on_use(&mut self, id: DataId, now: Time, popularity: f64, size: u64) {
        match self.kind {
            ReplacementKind::Lru => {
                self.keys.insert(id, now.as_secs_f64());
            }
            ReplacementKind::GreedyDualSize => self.set_credit(id, popularity, size),
            ReplacementKind::Fifo | ReplacementKind::UtilityKnapsack => {}
        }
    }

    /// Forgets `id` after removal.
    pub(crate) fn on_remove(&mut self, id: DataId) {
        self.keys.remove(&id);
    }

    fn set_credit(&mut self, id: DataId, popularity: f64, size: u64) {
        self.keys
            .insert(id, self.gds_floor + popularity / size.max(1) as f64);
    }
}

/// Frees at least `needed` bytes in `buffer` by evicting items in the
/// policy's order (lowest key first). Returns the evicted ids; returns
/// an empty vector without evicting anything if the buffer could never
/// fit `needed` bytes even when empty.
///
/// Under a meta built for [`ReplacementKind::UtilityKnapsack`] this
/// function refuses to evict (the paper's scheme never evicts on
/// insert — forwarding stops instead, §V-A) and returns an empty vector
/// unless the item already fits.
pub(crate) fn make_room(buffer: &mut Buffer, meta: &mut NodeCacheMeta, needed: u64) -> Vec<DataId> {
    if buffer.fits(needed) || needed > buffer.capacity() {
        return Vec::new();
    }
    if meta.kind == ReplacementKind::UtilityKnapsack {
        return Vec::new();
    }
    // Sort candidates by ascending eviction key (FIFO/LRU: oldest time
    // first; GDS: lowest credit first).
    let mut candidates: Vec<(f64, DataId)> = buffer
        .iter()
        .map(|d| (meta.keys.get(&d.id).copied().unwrap_or(0.0), d.id))
        .collect();
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

    let mut evicted = Vec::new();
    for (key, id) in candidates {
        if buffer.fits(needed) {
            break;
        }
        buffer.remove(id);
        meta.on_remove(id);
        if meta.kind == ReplacementKind::GreedyDualSize {
            // Standard GDS aging: the evicted credit becomes the floor
            // added to future insertions.
            meta.gds_floor = meta.gds_floor.max(key);
        }
        evicted.push(id);
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::ids::NodeId;
    use dtn_core::time::Duration;
    use dtn_sim::message::DataItem;

    fn item(id: u64, size: u64) -> DataItem {
        DataItem::new(DataId(id), NodeId(0), size, Time(0), Duration(100_000))
    }

    /// Three 30-byte items inserted at t = 10, 20, 30 under `kind`.
    fn filled_buffer(kind: ReplacementKind) -> (Buffer, NodeCacheMeta) {
        let mut buf = Buffer::new(100);
        let mut meta = NodeCacheMeta::new(kind);
        for (i, t) in [(1u64, 10u64), (2, 20), (3, 30)] {
            buf.insert(item(i, 30)).unwrap();
            meta.on_insert(DataId(i), Time(t), 0.5, 30);
        }
        (buf, meta)
    }

    #[test]
    fn fifo_evicts_oldest_insertion() {
        let (mut buf, mut meta) = filled_buffer(ReplacementKind::Fifo);
        // Use item 1 recently — FIFO must ignore that.
        meta.on_use(DataId(1), Time(99), 0.5, 30);
        let evicted = make_room(&mut buf, &mut meta, 30);
        assert_eq!(evicted, vec![DataId(1)]);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (mut buf, mut meta) = filled_buffer(ReplacementKind::Lru);
        meta.on_use(DataId(1), Time(99), 0.5, 30);
        let evicted = make_room(&mut buf, &mut meta, 30);
        assert_eq!(evicted, vec![DataId(2)]);
    }

    #[test]
    fn gds_evicts_lowest_credit_and_ages() {
        let mut meta = NodeCacheMeta::new(ReplacementKind::GreedyDualSize);
        let mut buf = Buffer::new(100);
        buf.insert(item(1, 50)).unwrap();
        meta.on_insert(DataId(1), Time(0), 0.9, 50); // credit 0.018
        buf.insert(item(2, 10)).unwrap();
        meta.on_insert(DataId(2), Time(0), 0.5, 10); // credit 0.05
        let evicted = make_room(&mut buf, &mut meta, 60);
        assert_eq!(evicted, vec![DataId(1)], "lowest credit goes first");
        assert!(meta.gds_floor > 0.0, "floor inflates after eviction");
        // A new low-popularity insert now starts above the old credit.
        meta.on_insert(DataId(3), Time(5), 0.0, 10);
        assert!(meta.keys[&DataId(3)] >= meta.gds_floor);
    }

    #[test]
    fn a_lone_item_is_evicted_to_fit_a_larger_one() {
        let mut buf = Buffer::new(100);
        let mut meta = NodeCacheMeta::new(ReplacementKind::Lru);
        buf.insert(item(1, 80)).unwrap();
        meta.on_insert(DataId(1), Time(0), 0.1, 80);
        let evicted = make_room(&mut buf, &mut meta, 50);
        assert_eq!(evicted, vec![DataId(1)]);
        assert!(buf.fits(50));
    }

    #[test]
    fn evicts_multiple_items_when_needed() {
        let (mut buf, mut meta) = filled_buffer(ReplacementKind::Fifo);
        let evicted = make_room(&mut buf, &mut meta, 70);
        assert_eq!(evicted, vec![DataId(1), DataId(2)]);
        assert!(buf.fits(70));
    }

    #[test]
    fn noop_when_already_fits() {
        let (mut buf, mut meta) = filled_buffer(ReplacementKind::Lru);
        assert!(make_room(&mut buf, &mut meta, 10).is_empty());
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn refuses_impossible_requests() {
        let (mut buf, mut meta) = filled_buffer(ReplacementKind::Lru);
        // 200 bytes can never fit a 100-byte buffer: don't evict anything.
        assert!(make_room(&mut buf, &mut meta, 200).is_empty());
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn knapsack_kind_never_evicts_on_insert() {
        let (mut buf, mut meta) = filled_buffer(ReplacementKind::UtilityKnapsack);
        assert!(make_room(&mut buf, &mut meta, 30).is_empty());
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn a_knapsack_meta_stays_empty() {
        // The knapsack never evicts on insert, so its meta has no key to
        // keep through inserts, uses and removes.
        let (_, mut meta) = filled_buffer(ReplacementKind::UtilityKnapsack);
        assert!(meta.keys.is_empty());
        meta.on_use(DataId(2), Time(40), 0.9, 30);
        meta.on_insert(DataId(4), Time(50), 0.9, 30);
        assert!(meta.keys.is_empty());
        meta.on_remove(DataId(1));
        assert!(meta.keys.is_empty());
        assert_eq!(meta.gds_floor, 0.0);
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::BTreeSet<_> =
            ReplacementKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 4);
    }
}
