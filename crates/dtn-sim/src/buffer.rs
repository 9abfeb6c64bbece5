//! Finite per-node caching buffers.
//!
//! "The basic prerequisite is that each node has only limited buffer for
//! caching" (§III-A). A [`Buffer`] tracks which [`DataItem`]s a node
//! holds and enforces the byte capacity; *what* to evict is the caching
//! scheme's decision (see the `dtn-cache` crate), so the buffer only
//! offers mechanical insert/remove plus expiry cleanup.
//!
//! Items live in a dense `Vec` of slots with a `DataId → slot` index on
//! the side: `contains`/`get` are a single hash lookup, iteration is a
//! cache-friendly slice walk in a deterministic order, and removal is a
//! `swap_remove` plus one index fix-up. A monotone [`generation`]
//! counter increments on every successful insert or remove so callers
//! (e.g. the cache-exchange skip in `dtn-cache`) can cheaply detect
//! "content unchanged since I last looked".
//!
//! [`generation`]: Buffer::generation

use dtn_core::ids::{DataId, IdMap};
use dtn_core::time::Time;

use crate::message::DataItem;

/// A byte-capacity-limited store of data items.
///
/// # Example
///
/// ```
/// use dtn_core::ids::{DataId, NodeId};
/// use dtn_core::time::{Duration, Time};
/// use dtn_sim::buffer::Buffer;
/// use dtn_sim::message::DataItem;
///
/// let mut buf = Buffer::new(100);
/// let item = DataItem::new(DataId(1), NodeId(0), 60, Time(0), Duration(100));
/// assert!(buf.insert(item).is_ok());
/// // A second 60-byte item does not fit.
/// let item2 = DataItem::new(DataId(2), NodeId(0), 60, Time(0), Duration(100));
/// assert!(buf.insert(item2).is_err());
/// assert_eq!(buf.free(), 40);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Buffer {
    capacity: u64,
    used: u64,
    /// Dense item storage; order is insertion order permuted by
    /// `swap_remove`s — deterministic for a deterministic op sequence.
    slots: Vec<DataItem>,
    /// `DataId → position in slots`.
    index: IdMap<DataId, usize>,
    /// Bumped on every successful insert and remove (not on duplicate
    /// inserts or missing removes).
    generation: u64,
}

/// Error returned when an item does not fit into a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsufficientSpace {
    /// Bytes the item needs.
    pub needed: u64,
    /// Bytes currently free.
    pub free: u64,
}

impl std::fmt::Display for InsufficientSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "insufficient buffer space: need {} bytes, {} free",
            self.needed, self.free
        )
    }
}

impl std::error::Error for InsufficientSpace {}

impl Buffer {
    /// Creates an empty buffer of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Buffer {
            capacity,
            used: 0,
            slots: Vec::new(),
            index: IdMap::default(),
            generation: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently occupied.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes currently free.
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the buffer holds no items.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Monotone counter of content changes: bumped by every successful
    /// [`insert`](Self::insert) and [`remove`](Self::remove) (duplicate
    /// inserts and removes of absent ids do not count). Two reads
    /// returning the same value guarantee the stored item set is
    /// unchanged in between.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the item would fit right now.
    pub fn fits(&self, size: u64) -> bool {
        size <= self.free()
    }

    /// Inserts an item.
    ///
    /// Re-inserting an id the buffer already holds is a no-op success
    /// (the node already has the copy).
    ///
    /// # Errors
    ///
    /// Returns [`InsufficientSpace`] if the item does not fit.
    pub fn insert(&mut self, item: DataItem) -> Result<(), InsufficientSpace> {
        if self.index.contains_key(&item.id) {
            return Ok(());
        }
        if !self.fits(item.size) {
            return Err(InsufficientSpace {
                needed: item.size,
                free: self.free(),
            });
        }
        self.used += item.size;
        self.index.insert(item.id, self.slots.len());
        self.slots.push(item);
        self.generation += 1;
        Ok(())
    }

    /// Removes and returns an item.
    pub fn remove(&mut self, id: DataId) -> Option<DataItem> {
        let pos = self.index.remove(&id)?;
        let item = self.slots.swap_remove(pos);
        if let Some(moved) = self.slots.get(pos) {
            self.index.insert(moved.id, pos);
        }
        self.used -= item.size;
        self.generation += 1;
        Some(item)
    }

    /// Whether the buffer holds `id`.
    pub fn contains(&self, id: DataId) -> bool {
        self.index.contains_key(&id)
    }

    /// The stored item with this id, if any.
    pub fn get(&self, id: DataId) -> Option<&DataItem> {
        self.index.get(&id).map(|&pos| &self.slots[pos])
    }

    /// Iterates over the stored items in slot order (deterministic for a
    /// deterministic operation sequence, unlike a hash map's).
    pub fn iter(&self) -> impl Iterator<Item = &DataItem> {
        self.slots.iter()
    }

    /// Drops every item that has expired by `now`; returns how many were
    /// dropped. In-place — no temporary allocation.
    pub fn drop_expired(&mut self, now: Time) -> usize {
        let mut dropped = 0;
        let mut pos = 0;
        while pos < self.slots.len() {
            if self.slots[pos].is_alive(now) {
                pos += 1;
                continue;
            }
            let item = self.slots.swap_remove(pos);
            self.index.remove(&item.id);
            if let Some(moved) = self.slots.get(pos) {
                self.index.insert(moved.id, pos);
            }
            self.used -= item.size;
            self.generation += 1;
            dropped += 1;
            // Re-examine `pos`: the swapped-in tail item is unchecked.
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::ids::NodeId;
    use dtn_core::time::Duration;

    fn item(id: u64, size: u64, expires: u64) -> DataItem {
        DataItem::new(DataId(id), NodeId(0), size, Time(0), Duration(expires))
    }

    #[test]
    fn insert_tracks_usage() {
        let mut b = Buffer::new(100);
        b.insert(item(1, 30, 10)).expect("fits");
        b.insert(item(2, 50, 10)).expect("fits");
        assert_eq!(b.used(), 80);
        assert_eq!(b.free(), 20);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn insert_rejects_when_full() {
        let mut b = Buffer::new(100);
        b.insert(item(1, 80, 10)).expect("fits");
        let err = b.insert(item(2, 30, 10)).unwrap_err();
        assert_eq!(
            err,
            InsufficientSpace {
                needed: 30,
                free: 20
            }
        );
        assert!(err.to_string().contains("30"));
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut b = Buffer::new(100);
        b.insert(item(1, 80, 10)).expect("fits");
        b.insert(item(1, 80, 10)).expect("duplicate is fine");
        assert_eq!(b.used(), 80);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn remove_frees_space() {
        let mut b = Buffer::new(100);
        b.insert(item(1, 80, 10)).expect("fits");
        let removed = b.remove(DataId(1)).expect("present");
        assert_eq!(removed.size, 80);
        assert_eq!(b.used(), 0);
        assert!(b.remove(DataId(1)).is_none());
    }

    #[test]
    fn remove_middle_keeps_lookups_consistent() {
        // swap_remove moves the tail item into the hole; the index must
        // follow it.
        let mut b = Buffer::new(100);
        b.insert(item(1, 10, 50)).expect("fits");
        b.insert(item(2, 10, 50)).expect("fits");
        b.insert(item(3, 10, 50)).expect("fits");
        b.remove(DataId(1)).expect("present");
        assert_eq!(b.get(DataId(3)).map(|d| d.id), Some(DataId(3)));
        assert_eq!(b.get(DataId(2)).map(|d| d.id), Some(DataId(2)));
        assert!(b.get(DataId(1)).is_none());
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn drop_expired_only_removes_dead_items() {
        let mut b = Buffer::new(100);
        b.insert(item(1, 10, 50)).expect("fits");
        b.insert(item(2, 10, 200)).expect("fits");
        assert_eq!(b.drop_expired(Time(100)), 1);
        assert!(!b.contains(DataId(1)));
        assert!(b.contains(DataId(2)));
        assert_eq!(b.used(), 10);
    }

    #[test]
    fn drop_expired_handles_adjacent_dead_items() {
        // Two dead items in a row exercises the "re-examine pos after
        // swap_remove" path.
        let mut b = Buffer::new(100);
        b.insert(item(1, 10, 50)).expect("fits");
        b.insert(item(2, 10, 300)).expect("fits");
        b.insert(item(3, 10, 60)).expect("fits");
        b.insert(item(4, 10, 70)).expect("fits");
        assert_eq!(b.drop_expired(Time(100)), 3);
        assert_eq!(b.len(), 1);
        assert!(b.contains(DataId(2)));
        assert_eq!(b.used(), 10);
    }

    #[test]
    fn generation_counts_content_changes_only() {
        let mut b = Buffer::new(100);
        assert_eq!(b.generation(), 0);
        b.insert(item(1, 10, 50)).expect("fits");
        assert_eq!(b.generation(), 1);
        b.insert(item(1, 10, 50)).expect("duplicate");
        assert_eq!(b.generation(), 1, "duplicate insert must not bump");
        assert!(b.remove(DataId(9)).is_none());
        assert_eq!(b.generation(), 1, "missing remove must not bump");
        b.remove(DataId(1)).expect("present");
        assert_eq!(b.generation(), 2);
        b.insert(item(2, 10, 50)).expect("fits");
        b.insert(item(3, 10, 1)).expect("fits");
        assert_eq!(b.generation(), 4);
        assert_eq!(b.drop_expired(Time(10)), 1);
        assert_eq!(b.generation(), 5);
    }

    #[test]
    fn get_and_iter() {
        let mut b = Buffer::new(100);
        b.insert(item(1, 10, 50)).expect("fits");
        assert_eq!(b.get(DataId(1)).map(|d| d.size), Some(10));
        assert_eq!(b.iter().count(), 1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Insert(u64, u64),
            Remove(u64),
            DropExpired(u64),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..20, 1u64..60).prop_map(|(id, size)| Op::Insert(id, size)),
                (0u64..20).prop_map(Op::Remove),
                (0u64..500).prop_map(Op::DropExpired),
            ]
        }

        proptest! {
            /// Accounting invariant: under arbitrary operation sequences
            /// the used-byte counter always equals the sum of stored item
            /// sizes, never exceeds capacity, and the side index agrees
            /// with the slot storage.
            #[test]
            fn usage_accounting_is_exact(
                ops in prop::collection::vec(op_strategy(), 0..60),
                capacity in 1u64..200,
            ) {
                let mut b = Buffer::new(capacity);
                for op in ops {
                    match op {
                        Op::Insert(id, size) => {
                            let _ = b.insert(DataItem::new(
                                DataId(id), NodeId(0), size, Time(0), Duration(100 + id),
                            ));
                        }
                        Op::Remove(id) => {
                            let _ = b.remove(DataId(id));
                        }
                        Op::DropExpired(now) => {
                            let _ = b.drop_expired(Time(now));
                        }
                    }
                    let actual: u64 = b.iter().map(|d| d.size).sum();
                    prop_assert_eq!(b.used(), actual);
                    prop_assert!(b.used() <= b.capacity());
                    prop_assert_eq!(b.free(), b.capacity() - b.used());
                    prop_assert_eq!(b.len(), b.iter().count());
                    // Index ↔ slots agreement.
                    for d in b.iter() {
                        prop_assert!(b.contains(d.id));
                        prop_assert_eq!(b.get(d.id).map(|x| x.size), Some(d.size));
                    }
                }
            }
        }
    }
}
