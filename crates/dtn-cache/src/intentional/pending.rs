//! The pending messages only this scheme has: pull copies and NCL
//! broadcasts. Like the responses they ride a
//! [`CarrierSlab`](crate::pending::CarrierSlab).

use dtn_core::ids::{IdSet, NodeId};
use dtn_sim::message::Query;

use crate::pending::Carried;

/// A query copy traveling toward one central node.
#[derive(Debug, Clone, Copy)]
pub(super) struct PullCopy {
    pub(super) query: Query,
    pub(super) ncl: usize,
    pub(super) carrier: NodeId,
}

impl Carried for PullCopy {
    fn query(&self) -> &Query {
        &self.query
    }
    fn carries(&self, node: NodeId) -> bool {
        self.carrier == node
    }
    fn carriers(&self) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(self.carrier)
    }
}

/// A query being broadcast among the caching nodes of one NCL.
#[derive(Debug, Clone)]
pub(super) struct BroadcastCopy {
    pub(super) query: Query,
    pub(super) ncl: usize,
    pub(super) holders: IdSet<NodeId>,
}

impl Carried for BroadcastCopy {
    fn query(&self) -> &Query {
        &self.query
    }
    fn carries(&self, node: NodeId) -> bool {
        self.holders.contains(&node)
    }
    fn carriers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.holders.iter().copied()
    }
}
