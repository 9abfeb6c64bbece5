//! The arena for in-flight protocol messages, shared by the intentional
//! scheme and the baselines.
//!
//! A contact involves two nodes, so nothing in flight is kept in a
//! vector that a contact would have to walk: messages live in a
//! [`CarrierSlab`] (reused slots, monotone sequence numbers) whose
//! per-node lists name the messages each node carries, and a contact
//! gathers only its two endpoints' entries and replays them in sequence
//! order — the order a walk over one insertion-ordered vector would have
//! visited them, so the `try_transmit` charge order is unchanged.
//! [`RoutedSlab`] is the arena of multi-copy [`RoutedMessage`]s, with the
//! one loop that advances them over a contact.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;

use dtn_core::ids::{NodeId, QueryId};
use dtn_core::time::Time;
use dtn_sim::audit::{AuditLaw, AuditReport, AuditViolation};
use dtn_sim::engine::SimCtx;
use dtn_sim::message::Query;
use dtn_sim::oracle::PathOracle;
use dtn_sim::probe::ProbeEvent;

use crate::routing::{ForwardingStrategy, RoutedMessage};

/// What a [`CarrierSlab`] knows of a message: the query it travels on
/// behalf of, and the nodes carrying a copy.
pub(crate) trait Carried {
    fn query(&self) -> &Query;
    fn carries(&self, node: NodeId) -> bool;
    fn carriers(&self) -> impl Iterator<Item = NodeId> + '_;
}

/// Removes one occurrence of `entry` from a per-node index list.
pub(crate) fn remove_entry<E: PartialEq>(list: &mut Vec<E>, entry: E) {
    let pos = list
        .iter()
        .position(|x| *x == entry)
        .expect("index entry missing");
    list.swap_remove(pos);
}

/// Messages in flight, indexed by carrier.
///
/// Slots are reused via a free list; each live message has a monotone
/// sequence number, so gathered entries replay in insertion order and a
/// stale `due` reference to a reused slot is detected. `at[n]` lists the
/// messages with a copy at node `n` — every carrier of a multi-copy
/// message lists it — and is kept in step by [`insert`](Self::insert),
/// [`update`](Self::update) and [`remove`](Self::remove), the only ways
/// a carrier set changes. A message leaves when its owner removes it
/// (delivered, answered), when a contact touches it after its query
/// closed ([`gather_open`](Self::gather_open)), or when the query's
/// expiry comes due ([`expire`](Self::expire)), whichever is first;
/// processing only ever sees open queries' messages, so which of the
/// three it was is unobservable.
#[derive(Debug)]
pub(crate) struct CarrierSlab<T> {
    entries: Vec<Option<(u64, T)>>,
    free: Vec<u32>,
    next_seq: u64,
    at: Vec<Vec<u32>>,
    /// `(query expiry, id, seq)`; a stale `seq` marks a reused slot.
    due: BinaryHeap<Reverse<(Time, u32, u64)>>,
    /// `now` of the latest [`expire`](Self::expire).
    expired_to: Time,
    batch: Vec<(u64, u32)>,
    /// Messages [`gather_open`](Self::gather_open) has looked at.
    #[cfg(test)]
    pub(crate) examined: u64,
}

impl<T: Carried> CarrierSlab<T> {
    /// An empty slab with carrier lists for `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        CarrierSlab {
            entries: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            at: vec![Vec::new(); nodes],
            due: BinaryHeap::new(),
            expired_to: Time::ZERO,
            batch: Vec::new(),
            #[cfg(test)]
            examined: 0,
        }
    }

    /// The live message `id`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub(crate) fn get(&self, id: u32) -> &T {
        let slot = self.entries[id as usize].as_ref();
        &slot.expect("message live").1
    }

    fn live(&self) -> impl Iterator<Item = (u32, &T)> {
        let slots = self.entries.iter().enumerate();
        slots.filter_map(|(i, e)| e.as_ref().map(|(_, m)| (i as u32, m)))
    }

    /// Puts `msg` in flight, due out at its query's expiry.
    pub(crate) fn insert(&mut self, msg: T) -> u32 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = self.free.pop().unwrap_or_else(|| {
            self.entries.push(None);
            (self.entries.len() - 1) as u32
        });
        for carrier in msg.carriers() {
            self.at[carrier.index()].push(id);
        }
        self.due.push(Reverse((msg.query().expires_at, id, seq)));
        self.entries[id as usize] = Some((seq, msg));
        id
    }

    /// Takes message `id` out of flight; `None` if the slot is free.
    pub(crate) fn remove(&mut self, id: u32) -> Option<T> {
        let (_, gone) = self.entries[id as usize].take()?;
        self.free.push(id);
        for carrier in gone.carriers() {
            remove_entry(&mut self.at[carrier.index()], id);
        }
        Some(gone)
    }

    /// Applies `change` to message `id` during a contact between `ends`,
    /// the only nodes whose carrying it may alter: their lists follow
    /// whatever copy moved in, moved out or was made.
    pub(crate) fn update<R>(
        &mut self,
        id: u32,
        ends: [NodeId; 2],
        change: impl FnOnce(&mut T) -> R,
    ) -> R {
        let slot = self.entries[id as usize].as_mut();
        let msg = &mut slot.expect("message live").1;
        let had = ends.map(|node| msg.carries(node));
        let out = change(msg);
        let distinct = if ends[0] == ends[1] { 1 } else { 2 };
        for (node, had) in ends.into_iter().zip(had).take(distinct) {
            match (had, msg.carries(node)) {
                (false, true) => self.at[node.index()].push(id),
                (true, false) => remove_entry(&mut self.at[node.index()], id),
                _ => {}
            }
        }
        out
    }

    /// Removes every message whose query has expired by `now`.
    pub(crate) fn expire(&mut self, now: Time) {
        self.expired_to = now;
        while let Some(&Reverse((t, id, seq))) = self.due.peek() {
            if t > now {
                break;
            }
            self.due.pop();
            if matches!(self.entries[id as usize], Some((s, _)) if s == seq) {
                self.remove(id);
            }
        }
    }

    /// Fills `open` with the messages carried by either contact endpoint
    /// whose query is still open, in insertion order, an entry listed
    /// under both appearing once; the closed ones are removed.
    pub(crate) fn gather_open(
        &mut self,
        ctx: &SimCtx<'_>,
        a: NodeId,
        b: NodeId,
        open: &mut Vec<u32>,
    ) {
        open.clear();
        let mut batch = mem::take(&mut self.batch);
        batch.clear();
        for node in &[a, b][..if a == b { 1 } else { 2 }] {
            for &id in &self.at[node.index()] {
                let (seq, _) = self.entries[id as usize].as_ref().expect("listed live");
                batch.push((*seq, id));
            }
        }
        batch.sort_unstable();
        batch.dedup();
        #[cfg(test)]
        {
            self.examined += batch.len() as u64;
        }
        for &(_, id) in &batch {
            if ctx.query_is_open(self.get(id).query().id) {
                open.push(id);
            } else {
                self.remove(id);
            }
        }
        self.batch = batch;
    }

    /// [`AuditLaw::IndexConsistency`] over the carrier lists: every live
    /// message is listed once under each of its carriers and nowhere
    /// else, and none has survived an [`expire`](Self::expire) past its
    /// query's expiry. `what` names the slab in the violation.
    pub(crate) fn audit(&self, what: &str, at: Time, report: &mut AuditReport) {
        let mut violate = |node: Option<NodeId>, detail: String| {
            report.violate(AuditViolation {
                law: AuditLaw::IndexConsistency,
                at,
                node,
                item: None,
                detail,
            });
        };
        let mut carriers = 0usize;
        for (id, m) in self.live() {
            for c in m.carriers() {
                carriers += 1;
                let listed = self.at[c.index()].iter().filter(|&&x| x == id).count();
                if listed != 1 {
                    violate(
                        Some(c),
                        format!("{what} {id} listed {listed} times under a carrier"),
                    );
                }
            }
            let query = m.query();
            if query.expires_at <= self.expired_to {
                violate(
                    None,
                    format!(
                        "{what} {id} of {} outlived the expiry sweep at {}",
                        query.id, self.expired_to
                    ),
                );
            }
        }
        let listed: usize = self.at.iter().map(Vec::len).sum();
        if listed != carriers {
            violate(
                None,
                format!("{what} lists hold {listed} entries for {carriers} carried copies"),
            );
        }
    }
}

/// A routed message traveling on behalf of `query`: the query itself on
/// its way to a data holder, or a data copy on its way back.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    pub(crate) query: Query,
    pub(crate) msg: RoutedMessage,
}

impl Carried for InFlight {
    fn query(&self) -> &Query {
        &self.query
    }
    fn carries(&self, node: NodeId) -> bool {
        self.msg.carries(node)
    }
    fn carriers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.msg.carriers()
    }
}

/// Routed messages in flight — the baselines' queries, both schemes'
/// responses.
pub(crate) type RoutedSlab = CarrierSlab<InFlight>;

/// What one [`RoutedSlab::advance`] pass lends from the scheme's
/// per-contact scratch: the open messages, each one's outcome (id, end
/// of its hops, delivered), and every relay hop in order.
#[derive(Debug, Default)]
pub(crate) struct AdvanceScratch {
    open: Vec<u32>,
    moved: Vec<(u32, usize, bool)>,
    hops: Vec<(NodeId, NodeId)>,
}

impl RoutedSlab {
    /// Advances every open message carried by `a` or `b` over their
    /// contact ([`RoutedMessage::advance`]) under one link borrow, the
    /// carrier lists following every copy that moved or was made; then
    /// relays each hop to an installed probe as `relay(now, query, from, to)`
    /// and hands `each` the message's id, the message, its hops in this
    /// contact, and whether it was delivered. Removing is up to the caller.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn advance(
        &mut self,
        ctx: &mut SimCtx<'_>,
        oracle: &mut PathOracle,
        strategy: ForwardingStrategy,
        (a, b): (NodeId, NodeId),
        sx: &mut AdvanceScratch,
        relay: impl Fn(Time, QueryId, NodeId, NodeId) -> ProbeEvent,
        mut each: impl FnMut(u32, &InFlight, &[(NodeId, NodeId)], bool),
    ) {
        let now = ctx.now();
        self.gather_open(ctx, a, b, &mut sx.open);
        sx.moved.clear();
        sx.hops.clear();
        {
            let mut link = ctx.link_access();
            for &id in &sx.open {
                let hops = &mut sx.hops;
                let delivered = self.update(id, [a, b], |m| {
                    let mut log = |from, to| hops.push((from, to));
                    m.msg
                        .advance(strategy, oracle, now, a, b, &mut link, &mut log)
                });
                sx.moved.push((id, sx.hops.len(), delivered));
            }
        }
        let mut start = 0;
        for &(id, end, delivered) in &sx.moved {
            let (m, hops) = (self.get(id), &sx.hops[start..end]);
            for &(from, to) in hops {
                ctx.probe().emit(|| relay(now, m.query.id, from, to));
            }
            each(id, m, hops, delivered);
            start = end;
        }
    }
}

#[cfg(test)]
impl<T: Carried> CarrierSlab<T> {
    pub(crate) fn len(&self) -> usize {
        self.live().count()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.live().map(|(_, m)| m)
    }

    pub(crate) fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.live().map(|(id, _)| id)
    }

    /// The carrier list of `node`, for seeding corruption in audit tests.
    pub(crate) fn list_mut(&mut self, node: NodeId) -> &mut Vec<u32> {
        &mut self.at[node.index()]
    }

    /// Inserts so far (sequence numbers are never reused).
    pub(crate) fn inserted(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::ids::DataId;
    use dtn_core::time::Duration;

    /// A message that is wherever the test says it is.
    #[derive(Debug, Clone, PartialEq)]
    struct Held(Query, Vec<NodeId>);

    impl Carried for Held {
        fn query(&self) -> &Query {
            &self.0
        }
        fn carries(&self, node: NodeId) -> bool {
            self.1.contains(&node)
        }
        fn carriers(&self) -> impl Iterator<Item = NodeId> + '_ {
            self.1.iter().copied()
        }
    }

    fn held(at: &[u32]) -> Held {
        let query = Query::new(QueryId(0), NodeId(9), DataId(0), Time(10), Duration(100));
        Held(query, at.iter().copied().map(NodeId).collect())
    }

    /// The carrier lists as sorted `(node, id)` pairs, after an audit.
    fn listed(slab: &CarrierSlab<Held>) -> Vec<(u32, u32)> {
        let mut report = AuditReport::default();
        slab.audit("held", Time(10), &mut report);
        assert!(report.is_clean(), "{}", report.summary());
        let lists = slab.at.iter().enumerate();
        let mut pairs: Vec<_> = lists
            .flat_map(|(n, l)| l.iter().map(move |&id| (n as u32, id)))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn update_keeps_the_two_ends_lists_in_step() {
        let ends = [NodeId(1), NodeId(2)];
        let mut slab = CarrierSlab::new(4);
        let other = slab.insert(held(&[2, 3]));
        let id = slab.insert(held(&[1]));
        assert_eq!(listed(&slab), [(1, id), (2, other), (3, other)]);

        // No change: nothing moves, and the closure's value comes back.
        assert_eq!(slab.update(id, ends, |m| m.1.len()), 1);
        assert_eq!(listed(&slab), [(1, id), (2, other), (3, other)]);
        // Move 1 → 2.
        slab.update(id, ends, |m| m.1 = vec![NodeId(2)]);
        assert_eq!(listed(&slab), [(2, other), (2, id), (3, other)]);
        // Add a copy at 1.
        slab.update(id, ends, |m| m.1.push(NodeId(1)));
        assert_eq!(listed(&slab), [(1, id), (2, other), (2, id), (3, other)]);
        // Drop the copy at 2.
        slab.update(id, ends, |m| m.1.retain(|&n| n != NodeId(2)));
        assert_eq!(listed(&slab), [(1, id), (2, other), (3, other)]);
        // A node meeting itself is one end, listed and unlisted once.
        slab.update(id, [NodeId(0); 2], |m| m.1.push(NodeId(0)));
        assert_eq!(listed(&slab), [(0, id), (1, id), (2, other), (3, other)]);
        slab.update(id, [NodeId(0); 2], |m| m.1.retain(|&n| n != NodeId(0)));
        assert_eq!(listed(&slab), [(1, id), (2, other), (3, other)]);

        assert_eq!(slab.remove(id), Some(held(&[1])));
        assert_eq!(slab.remove(id), None, "a free slot is left alone");
        assert_eq!(listed(&slab), [(2, other), (3, other)]);
        slab.expire(Time(110));
        assert_eq!((slab.len(), listed(&slab)), (0, vec![]));
    }
}
