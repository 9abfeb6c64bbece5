//! Identifier newtypes for nodes, data items and queries.
//!
//! Plain integers are easy to mix up in a simulator that juggles node
//! indices, data identifiers and query identifiers at the same time; the
//! newtypes below make such confusion a compile error (C-NEWTYPE).
//!
//! Maps keyed by these ids sit on the simulator's per-contact path, and
//! the ids are handed out by the program itself, so [`IdMap`] / [`IdSet`]
//! hash them with one multiply and one rotate ([`IdHasher`]) instead of
//! std's keyed SipHash. The hasher is fixed: iteration order repeats
//! from run to run, which is why nothing may depend on it —
//! `dtn-cache::reference` keeps std's randomly seeded maps so the
//! scheme-equivalence differential still trips on such a dependence.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a mobile node (a device/user) in the network.
///
/// Nodes are dense indices `0..N`, which lets graph code use them directly
/// as `Vec` indices via [`NodeId::index`].
///
/// # Example
///
/// ```
/// use dtn_core::ids::NodeId;
/// let n = NodeId(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(n.to_string(), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node id as a `usize` suitable for indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Globally unique identifier of a data item.
///
/// The paper assumes "each node may generate data with a globally unique
/// identifier"; the simulator hands these out sequentially.
///
/// # Example
///
/// ```
/// use dtn_core::ids::DataId;
/// assert_eq!(DataId(7).to_string(), "d7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DataId(pub u64);

impl fmt::Display for DataId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl From<u64> for DataId {
    fn from(v: u64) -> Self {
        DataId(v)
    }
}

/// Globally unique identifier of a query.
///
/// # Example
///
/// ```
/// use dtn_core::ids::QueryId;
/// assert_eq!(QueryId(42).to_string(), "q42");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl From<u64> for QueryId {
    fn from(v: u64) -> Self {
        QueryId(v)
    }
}

/// Multiply-rotate hasher for keys made of id newtypes and small
/// integers (the `FxHash` recurrence): each written word is folded in as
/// `h = (rotl(h, 5) ^ word) · K`. Not collision-resistant against chosen
/// keys — use it only for ids this program assigns, never for keys read
/// from outside (a trace importer's raw node labels keep std's hasher).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }
}

/// A `HashMap` keyed by ids, hashed by [`IdHasher`]. Build one with
/// `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of ids, hashed by [`IdHasher`]. Build one with
/// `IdSet::default()`.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip_and_index() {
        let n: NodeId = 5u32.into();
        assert_eq!(n, NodeId(5));
        assert_eq!(n.index(), 5);
    }

    #[test]
    fn display_is_nonempty_and_distinct() {
        assert_eq!(NodeId(1).to_string(), "n1");
        assert_eq!(DataId(1).to_string(), "d1");
        assert_eq!(QueryId(1).to_string(), "q1");
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(DataId(1));
        set.insert(DataId(1));
        set.insert(DataId(2));
        assert_eq!(set.len(), 2);
        assert!(NodeId(1) < NodeId(2));
        assert!(QueryId(9) > QueryId(8));
    }

    #[test]
    fn id_maps_behave_like_maps_and_repeat_their_order() {
        let build = || {
            let mut m: IdMap<(NodeId, DataId), u32> = IdMap::default();
            for n in 0..50u32 {
                for d in 0..20u64 {
                    *m.entry((NodeId(n), DataId(d))).or_insert(0) += n + d as u32;
                }
            }
            m
        };
        let m = build();
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(NodeId(7), DataId(3))], 10);
        assert!(!m.contains_key(&(NodeId(50), DataId(0))));
        // No random seed: two maps built alike iterate alike.
        assert!(m.iter().eq(build().iter()));
        let s: IdSet<QueryId> = (0..100).map(QueryId).collect();
        assert_eq!(s.len(), 100);
        assert!(s.contains(&QueryId(99)) && !s.contains(&QueryId(100)));
    }

    #[test]
    fn id_hasher_spreads_dense_ids_over_both_ends_of_the_word() {
        // hashbrown takes the bucket from the low bits and the control
        // byte from the top seven: dense ids must differ in both.
        let hash = |v: u64| {
            let mut h = IdHasher::default();
            h.write_u64(v);
            h.finish()
        };
        let low: HashSet<u64> = (0..256).map(|v| hash(v) & 0xff).collect();
        let high: HashSet<u64> = (0..256).map(|v| hash(v) >> 57).collect();
        assert_eq!(low.len(), 256);
        assert!(high.len() > 100, "only {} control bytes", high.len());
        // Byte-slice writes fold the same words as the integer writes.
        let mut a = IdHasher::default();
        a.write(&7u64.to_le_bytes());
        assert_eq!(a.finish(), hash(7));
    }
}
