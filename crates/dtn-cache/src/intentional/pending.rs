//! The pending messages only this scheme has: pull copies and NCL
//! broadcasts, kept in [`PendingSlab`](crate::pending::PendingSlab)s
//! behind per-node index lists (responses are a
//! [`RoutedSlab`](crate::pending::RoutedSlab)).

use dtn_core::ids::{DataId, IdSet, NodeId};
use dtn_sim::message::Query;

/// A query copy traveling toward one central node.
#[derive(Debug, Clone, Copy)]
pub(super) struct PullCopy {
    pub(super) query: Query,
    pub(super) ncl: usize,
    pub(super) carrier: NodeId,
}

/// A query being broadcast among the caching nodes of one NCL.
#[derive(Debug, Clone)]
pub(super) struct BroadcastCopy {
    pub(super) query: Query,
    pub(super) ncl: usize,
    pub(super) holders: IdSet<NodeId>,
}

/// Tags distinguishing slab kinds in the shared expiry heap.
pub(super) const GC_PULL: u8 = 0;
pub(super) const GC_BCAST: u8 = 1;

/// Removes the `(data, k)` entry from a per-node copy index list.
pub(super) fn remove_copy_entry(list: &mut Vec<(DataId, u32)>, data: DataId, k: u32) {
    let pos = list
        .iter()
        .position(|&e| e == (data, k))
        .expect("copy index entry missing");
    list.swap_remove(pos);
}
