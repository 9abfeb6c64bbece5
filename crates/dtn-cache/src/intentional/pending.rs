//! The pending messages only this scheme has: query pulls and NCL
//! broadcasts. Like the responses they ride a
//! [`CarrierSlab`](crate::pending::CarrierSlab).

use dtn_core::ids::{IdSet, NodeId};
use dtn_sim::message::Query;

use crate::pending::Carried;

/// A query multicast toward the central nodes (§V-B): `copies[k]` is
/// the carrier of its copy bound for NCL `k`'s central node, `None` once
/// that copy has arrived or when the requester is that central node.
/// One record per query, whatever `K`, and stepped in NCL order — the
/// order the copies' consecutive insertions would give them.
#[derive(Debug, Clone)]
pub(super) struct PullRecord {
    pub(super) query: Query,
    pub(super) copies: Box<[Option<NodeId>]>,
}

impl Carried for PullRecord {
    fn query(&self) -> &Query {
        &self.query
    }
    fn carriers(&self) -> impl Iterator<Item = NodeId> + '_ {
        let copies = self.copies.iter().enumerate();
        copies.filter_map(|(k, &c)| c.filter(|_| !self.copies[..k].contains(&c)))
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
    fn carriers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.holders.iter().copied()
    }
}
