//! The arena for in-flight protocol messages, shared by the intentional
//! scheme and the baselines.
//!
//! A contact involves two nodes, so nothing in flight is kept in a
//! vector that a contact would have to walk: messages live in a
//! [`CarrierSlab`] (reused slots, monotone sequence numbers) whose
//! per-node lists, sorted by sequence, name the messages each node
//! carries; a contact merges its two endpoints' lists — the order a walk
//! over one insertion-ordered vector would have visited them, so the
//! `try_transmit` charge order is unchanged.
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
use crate::PendingWork;

/// What a [`CarrierSlab`] knows of a message: the query it travels on
/// behalf of, and the nodes carrying a copy (each named once).
pub(crate) trait Carried {
    fn query(&self) -> &Query;
    fn carriers(&self) -> impl Iterator<Item = NodeId> + '_;
    fn carries(&self, node: NodeId) -> bool {
        self.carriers().any(|c| c == node)
    }
}

/// A carrier-list entry holds the slot in its low 28 bits and the
/// sequence number (2^36 inserts) above them, so entries order as inserts.
const SLOT_BITS: u32 = 28;

fn entry(seq: u64, id: u32) -> u64 {
    seq << SLOT_BITS | u64::from(id)
}

fn slot(e: u64) -> u32 {
    (e & ((1 << SLOT_BITS) - 1)) as u32
}

fn unlist(list: &mut Vec<u64>, e: u64) {
    list.remove(list.binary_search(&e).expect("index entry missing"));
}

/// Messages in flight, indexed by carrier.
///
/// Slots are reused via a free list; each live message has a monotone
/// sequence number, so a stale `due` reference to a reused slot is
/// detected. `at[n]` lists the messages with a copy at node `n` — every
/// carrier of a multi-copy message lists it — as ascending entries, and
/// is kept in step by [`insert`](Self::insert), [`update`](Self::update)
/// and [`remove`](Self::remove), the only ways a carrier set changes. A
/// message leaves when its owner removes it (delivered, answered), when
/// a contact touches it after its query closed
/// ([`gather_open`](Self::gather_open)), or when the query's expiry comes
/// due ([`expire`](Self::expire)), whichever is first; processing only
/// ever sees open queries' messages, so which of the three it was is
/// unobservable.
#[derive(Debug)]
pub(crate) struct CarrierSlab<T> {
    entries: Vec<Option<(u64, T)>>,
    free: Vec<u32>,
    next_seq: u64,
    at: Vec<Vec<u64>>,
    /// `(query expiry, id, seq)`; a stale `seq` marks a reused slot.
    due: BinaryHeap<Reverse<(Time, u32, u64)>>,
    /// `now` of the latest [`expire`](Self::expire).
    expired_to: Time,
    batch: Vec<u64>,
    /// Messages [`gather_open`](Self::gather_open) has looked at.
    examined: u64,
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

    /// Every live message as `(id, its carrier-list entry, message)`.
    fn live(&self) -> impl Iterator<Item = (u32, u64, &T)> {
        let slots = self.entries.iter().enumerate();
        slots.filter_map(|(i, e)| e.as_ref().map(|(s, m)| (i as u32, entry(*s, i as u32), m)))
    }

    /// Puts `msg` in flight, due out at its query's expiry.
    pub(crate) fn insert(&mut self, msg: T) -> u32 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = self.free.pop().unwrap_or_else(|| {
            self.entries.push(None);
            (self.entries.len() - 1) as u32
        });
        let e = entry(seq, id);
        assert!(slot(e) == id && e >> SLOT_BITS == seq, "slab overflow");
        // The newest entry is the largest: pushing keeps every list sorted.
        for carrier in msg.carriers() {
            self.at[carrier.index()].push(e);
        }
        self.due.push(Reverse((msg.query().expires_at, id, seq)));
        self.entries[id as usize] = Some((seq, msg));
        id
    }

    /// Takes message `id` out of flight; `None` if the slot is free.
    pub(crate) fn remove(&mut self, id: u32) -> Option<T> {
        let (seq, gone) = self.entries[id as usize].take()?;
        self.free.push(id);
        for carrier in gone.carriers() {
            unlist(&mut self.at[carrier.index()], entry(seq, id));
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
        let (seq, msg) = self.entries[id as usize].as_mut().expect("message live");
        let (e, had) = (entry(*seq, id), ends.map(|node| msg.carries(node)));
        let out = change(msg);
        let distinct = if ends[0] == ends[1] { 1 } else { 2 };
        for (node, had) in ends.into_iter().zip(had).take(distinct) {
            let list = &mut self.at[node.index()];
            match (had, msg.carries(node)) {
                (false, true) => list.insert(list.binary_search(&e).unwrap_err(), e),
                (true, false) => unlist(list, e),
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
    /// whose query is still open, in insertion order; the closed ones are
    /// removed.
    pub(crate) fn gather_open(
        &mut self,
        ctx: &SimCtx<'_>,
        a: NodeId,
        b: NodeId,
        open: &mut Vec<u32>,
    ) {
        open.clear();
        let mut batch = mem::take(&mut self.batch);
        self.merge(a, b, &mut batch);
        self.examined += batch.len() as u64;
        for &e in &batch {
            let id = slot(e);
            if ctx.query_is_open(self.get(id).query().id) {
                open.push(id);
            } else {
                self.remove(id);
            }
        }
        self.batch = batch;
    }

    /// Sets `out` to the entries of `a`'s and `b`'s lists in sequence
    /// order, an entry listed under both (or `a == b`) once: both lists
    /// are sorted, so this is one merge.
    fn merge(&self, a: NodeId, b: NodeId, out: &mut Vec<u64>) {
        out.clear();
        let (x, y) = (&self.at[a.index()], &self.at[b.index()]);
        let (mut i, mut j) = (0, 0);
        while i < x.len() && j < y.len() {
            out.push(x[i].min(y[j]));
            (i, j) = (i + usize::from(x[i] <= y[j]), j + usize::from(y[j] <= x[i]));
        }
        out.extend_from_slice(&x[i..]);
        out.extend_from_slice(&y[j..]);
    }

    /// What the slab did: messages gathered, and messages put in flight
    /// (sequence numbers are never reused).
    pub(crate) fn work(&self) -> PendingWork {
        PendingWork {
            examined: self.examined,
            inserted: self.next_seq,
        }
    }

    /// [`AuditLaw::IndexConsistency`] over the carrier lists: each is in
    /// sequence order, every live message is listed once under each of its
    /// carriers and nowhere else, and none has survived an
    /// [`expire`](Self::expire) past its query's expiry. `what` names the
    /// slab in the violation.
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
        for (n, list) in self.at.iter().enumerate() {
            if list.windows(2).any(|w| w[0] >= w[1]) {
                let node = Some(NodeId(n as u32));
                violate(node, format!("{what} list out of sequence order"));
            }
        }
        let mut carriers = 0usize;
        for (id, e, m) in self.live() {
            for c in m.carriers() {
                carriers += 1;
                let listed = self.at[c.index()].iter().filter(|&&x| x == e).count();
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
        self.live().map(|(_, _, m)| m)
    }

    pub(crate) fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.live().map(|(id, _, _)| id)
    }

    /// The carrier-list entry of live message `id`.
    pub(crate) fn entry_of(&self, id: u32) -> u64 {
        let (seq, _) = self.entries[id as usize].as_ref().expect("message live");
        entry(*seq, id)
    }

    /// The carrier list of `node`, for seeding corruption in audit tests.
    pub(crate) fn list_mut(&mut self, node: NodeId) -> &mut Vec<u64> {
        &mut self.at[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::ids::DataId;
    use dtn_core::time::Duration;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A message with a copy wherever the test says, two copies at one
    /// node allowed — a carrier is named once however many it holds.
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
            let copies = self.1.iter().enumerate();
            copies.filter_map(|(i, &n)| (!self.1[..i].contains(&n)).then_some(n))
        }
    }

    fn held_until(at: &[u32], expires: u64) -> Held {
        let life = Duration(expires - 10);
        let query = Query::new(QueryId(0), NodeId(9), DataId(0), Time(10), life);
        Held(query, at.iter().copied().map(NodeId).collect())
    }

    fn held(at: &[u32]) -> Held {
        held_until(at, 110)
    }

    /// The carrier lists as sorted `(node, id)` pairs, after an audit.
    fn listed(slab: &CarrierSlab<Held>) -> Vec<(u32, u32)> {
        assert_clean(slab, Time(10));
        let lists = slab.at.iter().enumerate();
        let mut pairs: Vec<_> = lists
            .flat_map(|(n, l)| l.iter().map(move |&e| (n as u32, slot(e))))
            .collect();
        pairs.sort();
        pairs
    }

    fn assert_clean(slab: &CarrierSlab<Held>, at: Time) {
        let mut report = AuditReport::default();
        slab.audit("held", at, &mut report);
        assert!(report.is_clean(), "{}", report.summary());
    }

    /// The gather as it was before the lists were kept sorted: read each
    /// listed slot's sequence number, sort, drop the entry listed twice.
    fn sorted_gather(slab: &CarrierSlab<Held>, a: NodeId, b: NodeId) -> Vec<u32> {
        let mut batch = Vec::new();
        for node in &[a, b][..if a == b { 1 } else { 2 }] {
            for &e in &slab.at[node.index()] {
                let (seq, _) = slab.entries[slot(e) as usize]
                    .as_ref()
                    .expect("listed live");
                batch.push((*seq, slot(e)));
            }
        }
        batch.sort();
        batch.dedup();
        batch.into_iter().map(|(_, id)| id).collect()
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
        // A second copy at a carrier is no second entry.
        slab.update(id, ends, |m| m.1.push(NodeId(1)));
        assert_eq!(listed(&slab), [(1, id), (2, other), (3, other)]);
        slab.update(id, ends, |m| m.1.truncate(1));
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

    #[test]
    fn a_merged_gather_is_the_sorted_gather_under_random_traffic() {
        const NODES: u32 = 5;
        let mut rng = StdRng::seed_from_u64(0x5EED_A2E4A);
        let mut slab = CarrierSlab::new(NODES as usize);
        let (mut now, mut gathered, mut twice_at_one) = (10u64, 0usize, 0usize);
        let mut merged = Vec::new();
        for _ in 0..4_000 {
            let live: Vec<u32> = slab.ids().collect();
            let pick = |rng: &mut StdRng| live[rng.gen_range(0..live.len())];
            let node = |rng: &mut StdRng| NodeId(rng.gen_range(0..NODES));
            match rng.gen_range(0..10u32) {
                0..=2 => {
                    let copies: Vec<u32> = (0..rng.gen_range(1..=3usize))
                        .map(|_| rng.gen_range(0..NODES))
                        .collect();
                    let expires = now + rng.gen_range(1..60u64);
                    slab.insert(held_until(&copies, expires));
                }
                3..=5 if !live.is_empty() => {
                    // Whatever the contact does, only its two ends change.
                    let (id, ends) = (pick(&mut rng), [node(&mut rng), node(&mut rng)]);
                    let (from, to) = if rng.gen_bool(0.5) {
                        (ends[0], ends[1])
                    } else {
                        (ends[1], ends[0])
                    };
                    let step = rng.gen_range(0..3u32);
                    slab.update(id, ends, |m| match step {
                        0 => {
                            m.1.iter_mut()
                                .filter(|n| **n == from)
                                .take(1)
                                .for_each(|n| *n = to)
                        }
                        1 => m.1.push(to),
                        _ => {
                            if let Some(i) = m.1.iter().position(|&n| n == from) {
                                m.1.remove(i);
                            }
                        }
                    });
                }
                6 if !live.is_empty() => {
                    slab.remove(pick(&mut rng));
                }
                7 => {
                    now += rng.gen_range(0..8u64);
                    slab.expire(Time(now));
                }
                _ => {
                    let (a, b) = (node(&mut rng), node(&mut rng));
                    slab.merge(a, b, &mut merged);
                    let ids: Vec<u32> = merged.iter().map(|&e| slot(e)).collect();
                    assert_eq!(ids, sorted_gather(&slab, a, b), "gather {a}-{b}");
                    gathered += ids.len();
                }
            }
            assert_clean(&slab, Time(now));
            twice_at_one += slab
                .iter()
                .filter(|m| m.carriers().count() < m.1.len())
                .count();
        }
        assert!(gathered > 1_000, "too few gathered: {gathered}");
        assert!(
            twice_at_one > 100,
            "two copies at one node too rare: {twice_at_one}"
        );
    }
}
