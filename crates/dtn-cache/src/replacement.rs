//! Cache-replacement policies — the four lines of Fig. 12.
//!
//! The intentional caching scheme can run with its native
//! **utility-knapsack** replacement (contact-time exchange solving
//! Eq. 7 via Algorithm 1) or with one of the traditional evict-on-insert
//! policies the paper compares against: **FIFO**, **LRU** and
//! **Greedy-Dual-Size** \[6\].
//!
//! This module implements the evict-on-insert side: a `NodeCacheMeta`
//! keeps per-item bookkeeping (insertion time, last use, GDS credit)
//! and `make_room` frees space according to the selected policy.

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

/// Per-node bookkeeping for the evict-on-insert policies.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeCacheMeta {
    inserted: IdMap<DataId, Time>,
    last_used: IdMap<DataId, Time>,
    gds_credit: IdMap<DataId, f64>,
    gds_floor: f64,
}

impl NodeCacheMeta {
    /// Records that `id` was inserted now with the given popularity and
    /// size (popularity/size feeds the GDS credit).
    pub(crate) fn on_insert(&mut self, id: DataId, now: Time, popularity: f64, size: u64) {
        self.inserted.insert(id, now);
        self.last_used.insert(id, now);
        self.gds_credit
            .insert(id, self.gds_floor + popularity / size.max(1) as f64);
    }

    /// Records a use (query hit) of `id`, refreshing LRU recency and GDS
    /// credit.
    pub(crate) fn on_use(&mut self, id: DataId, now: Time, popularity: f64, size: u64) {
        self.last_used.insert(id, now);
        self.gds_credit
            .insert(id, self.gds_floor + popularity / size.max(1) as f64);
    }

    /// Forgets `id` after removal.
    pub(crate) fn on_remove(&mut self, id: DataId) {
        self.inserted.remove(&id);
        self.last_used.remove(&id);
        self.gds_credit.remove(&id);
    }

    fn eviction_key(&self, kind: ReplacementKind, id: DataId) -> f64 {
        match kind {
            ReplacementKind::Fifo => self.inserted.get(&id).map_or(0.0, |t| t.as_secs_f64()),
            ReplacementKind::Lru => self.last_used.get(&id).map_or(0.0, |t| t.as_secs_f64()),
            ReplacementKind::GreedyDualSize => self.gds_credit.get(&id).copied().unwrap_or(0.0),
            ReplacementKind::UtilityKnapsack => 0.0,
        }
    }
}

/// Frees at least `needed` bytes in `buffer` by evicting items in the
/// policy's order (lowest key first). Returns the evicted ids; returns
/// an empty vector without evicting anything if the buffer could never
/// fit `needed` bytes even when empty.
///
/// For [`ReplacementKind::UtilityKnapsack`] this function refuses to
/// evict (the paper's scheme never evicts on insert — forwarding stops
/// instead, §V-A) and returns an empty vector unless the item already
/// fits.
pub(crate) fn make_room(
    kind: ReplacementKind,
    buffer: &mut Buffer,
    meta: &mut NodeCacheMeta,
    needed: u64,
) -> Vec<DataId> {
    if buffer.fits(needed) || needed > buffer.capacity() {
        return Vec::new();
    }
    if kind == ReplacementKind::UtilityKnapsack {
        return Vec::new();
    }
    // Sort candidates by ascending eviction key (FIFO/LRU: oldest time
    // first; GDS: lowest credit first).
    let mut candidates: Vec<(f64, DataId)> = buffer
        .iter()
        .map(|d| (meta.eviction_key(kind, d.id), d.id))
        .collect();
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

    let mut evicted = Vec::new();
    for (key, id) in candidates {
        if buffer.fits(needed) {
            break;
        }
        buffer.remove(id);
        meta.on_remove(id);
        if kind == ReplacementKind::GreedyDualSize {
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

    fn filled_buffer(meta: &mut NodeCacheMeta) -> Buffer {
        // Three 30-byte items inserted at t = 10, 20, 30.
        let mut buf = Buffer::new(100);
        for (i, t) in [(1u64, 10u64), (2, 20), (3, 30)] {
            buf.insert(item(i, 30)).unwrap();
            meta.on_insert(DataId(i), Time(t), 0.5, 30);
        }
        buf
    }

    #[test]
    fn fifo_evicts_oldest_insertion() {
        let mut meta = NodeCacheMeta::default();
        let mut buf = filled_buffer(&mut meta);
        // Use item 1 recently — FIFO must ignore that.
        meta.on_use(DataId(1), Time(99), 0.5, 30);
        let evicted = make_room(ReplacementKind::Fifo, &mut buf, &mut meta, 30);
        assert_eq!(evicted, vec![DataId(1)]);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut meta = NodeCacheMeta::default();
        let mut buf = filled_buffer(&mut meta);
        meta.on_use(DataId(1), Time(99), 0.5, 30);
        let evicted = make_room(ReplacementKind::Lru, &mut buf, &mut meta, 30);
        assert_eq!(evicted, vec![DataId(2)]);
    }

    #[test]
    fn gds_evicts_lowest_credit_and_ages() {
        let mut meta = NodeCacheMeta::default();
        let mut buf = Buffer::new(100);
        buf.insert(item(1, 50)).unwrap();
        meta.on_insert(DataId(1), Time(0), 0.9, 50); // credit 0.018
        buf.insert(item(2, 10)).unwrap();
        meta.on_insert(DataId(2), Time(0), 0.5, 10); // credit 0.05
        let evicted = make_room(ReplacementKind::GreedyDualSize, &mut buf, &mut meta, 60);
        assert_eq!(evicted, vec![DataId(1)], "lowest credit goes first");
        assert!(meta.gds_floor > 0.0, "floor inflates after eviction");
        // A new low-popularity insert now starts above the old credit.
        meta.on_insert(DataId(3), Time(5), 0.0, 10);
        assert!(meta.gds_credit[&DataId(3)] >= meta.gds_floor);
    }

    #[test]
    fn a_lone_item_is_evicted_to_fit_a_larger_one() {
        let mut buf = Buffer::new(100);
        let mut meta = NodeCacheMeta::default();
        buf.insert(item(1, 80)).unwrap();
        meta.on_insert(DataId(1), Time(0), 0.1, 80);
        let evicted = make_room(ReplacementKind::Lru, &mut buf, &mut meta, 50);
        assert_eq!(evicted, vec![DataId(1)]);
        assert!(buf.fits(50));
    }

    #[test]
    fn evicts_multiple_items_when_needed() {
        let mut meta = NodeCacheMeta::default();
        let mut buf = filled_buffer(&mut meta);
        let evicted = make_room(ReplacementKind::Fifo, &mut buf, &mut meta, 70);
        assert_eq!(evicted, vec![DataId(1), DataId(2)]);
        assert!(buf.fits(70));
    }

    #[test]
    fn noop_when_already_fits() {
        let mut meta = NodeCacheMeta::default();
        let mut buf = filled_buffer(&mut meta);
        assert!(make_room(ReplacementKind::Lru, &mut buf, &mut meta, 10).is_empty());
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn refuses_impossible_requests() {
        let mut meta = NodeCacheMeta::default();
        let mut buf = filled_buffer(&mut meta);
        // 200 bytes can never fit a 100-byte buffer: don't evict anything.
        assert!(make_room(ReplacementKind::Lru, &mut buf, &mut meta, 200).is_empty());
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn knapsack_kind_never_evicts_on_insert() {
        let mut meta = NodeCacheMeta::default();
        let mut buf = filled_buffer(&mut meta);
        assert!(make_room(ReplacementKind::UtilityKnapsack, &mut buf, &mut meta, 30).is_empty());
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::BTreeSet<_> =
            ReplacementKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 4);
    }
}
