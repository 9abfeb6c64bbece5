//! Arenas for in-flight protocol messages, shared by the intentional
//! scheme and the baselines.
//!
//! A contact involves two nodes, so nothing in flight is kept in a
//! vector that a contact would have to walk: messages live in a
//! [`PendingSlab`] (reused slots, monotone sequence numbers), per-node
//! lists point into the slab, and a contact [`gather`]s only its two
//! endpoints' entries and replays them in sequence order — the order a
//! walk over one insertion-ordered vector would have visited them, so
//! the `try_transmit` charge order is unchanged. [`RoutedSlab`] is that
//! arrangement for multi-copy [`RoutedMessage`]s, with removal driven by
//! the queries' expiry instead of a sweep.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;

use dtn_core::ids::NodeId;
use dtn_core::time::Time;
use dtn_sim::audit::{AuditLaw, AuditReport, AuditViolation};
use dtn_sim::engine::{Link, SimCtx};
use dtn_sim::message::Query;
use dtn_sim::oracle::PathOracle;

use crate::routing::{ForwardingStrategy, RoutedMessage};

/// Slab of pending protocol messages. Slots are reused via a free list;
/// each live entry carries a monotone sequence number so (a) gathered
/// entries can be replayed in global insertion order and (b) stale heap
/// references to a reused slot can be detected.
#[derive(Debug)]
pub(crate) struct PendingSlab<T> {
    entries: Vec<Option<(u64, T)>>,
    free: Vec<u32>,
    next_seq: u64,
    len: usize,
}

impl<T> Default for PendingSlab<T> {
    fn default() -> Self {
        PendingSlab {
            entries: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            len: 0,
        }
    }
}

impl<T> PendingSlab<T> {
    pub(crate) fn insert(&mut self, value: T) -> (u32, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let id = match self.free.pop() {
            Some(id) => {
                self.entries[id as usize] = Some((seq, value));
                id
            }
            None => {
                self.entries.push(Some((seq, value)));
                (self.entries.len() - 1) as u32
            }
        };
        (id, seq)
    }

    pub(crate) fn get(&self, id: u32) -> Option<&T> {
        self.entries
            .get(id as usize)
            .and_then(|e| e.as_ref())
            .map(|(_, v)| v)
    }

    pub(crate) fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        self.entries
            .get_mut(id as usize)
            .and_then(|e| e.as_mut())
            .map(|(_, v)| v)
    }

    pub(crate) fn seq(&self, id: u32) -> Option<u64> {
        self.entries
            .get(id as usize)
            .and_then(|e| e.as_ref())
            .map(|&(seq, _)| seq)
    }

    pub(crate) fn remove(&mut self, id: u32) -> Option<T> {
        let slot = self.entries.get_mut(id as usize)?;
        let (_, value) = slot.take()?;
        self.free.push(id);
        self.len -= 1;
        Some(value)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|(_, v)| (i as u32, v)))
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.free.clear();
        self.next_seq = 0;
        self.len = 0;
    }
}

/// Removes one occurrence of `id` from a per-node index list.
pub(crate) fn remove_u32(list: &mut Vec<u32>, id: u32) {
    let pos = list
        .iter()
        .position(|&x| x == id)
        .expect("pending index entry missing");
    list.swap_remove(pos);
}

/// Fills `batch` with the `(seq, id)` of every slab entry listed under
/// either contact endpoint in `at`, in sequence order, an entry listed
/// under both appearing once.
pub(crate) fn gather<T>(
    slab: &PendingSlab<T>,
    at: &[Vec<u32>],
    a: NodeId,
    b: NodeId,
    batch: &mut Vec<(u64, u32)>,
) {
    batch.clear();
    let ends = [a, b];
    for node in &ends[..if a == b { 1 } else { 2 }] {
        batch.extend(
            at[node.index()]
                .iter()
                .map(|&id| (slab.seq(id).expect("indexed entry live"), id)),
        );
    }
    batch.sort_unstable();
    batch.dedup();
}

/// A routed message traveling on behalf of `query`: the query itself on
/// its way to a data holder, or a data copy on its way back.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    pub(crate) query: Query,
    pub(crate) msg: RoutedMessage,
}

/// Routed messages in flight, indexed by carrier.
///
/// `at[n]` lists the messages with a copy at node `n` — every carrier of
/// a multi-copy `Epidemic` / `SprayAndWait` message lists it — and is
/// kept in step by [`insert`](Self::insert), [`advance`](Self::advance)
/// and [`remove`](Self::remove), the only ways a carrier set changes.
/// A message leaves when its owner removes it (delivered, answered),
/// when a contact touches it after its query closed
/// ([`gather_open`](Self::gather_open)), or when the query's expiry
/// comes due ([`expire`](Self::expire)), whichever is first; processing
/// always checks `query_is_open` first, so which of the three it was is
/// unobservable.
#[derive(Debug, Default)]
pub(crate) struct RoutedSlab {
    slab: PendingSlab<InFlight>,
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

impl RoutedSlab {
    /// Empties the slab and sizes the carrier lists for `nodes` nodes.
    pub(crate) fn reset(&mut self, nodes: usize) {
        *self = RoutedSlab::default();
        self.at = vec![Vec::new(); nodes];
    }

    /// The live message `id`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub(crate) fn get(&self, id: u32) -> &InFlight {
        self.slab.get(id).expect("routed message live")
    }

    /// Puts `msg` in flight for `query`, due out at the query's expiry.
    pub(crate) fn insert(&mut self, query: Query, msg: RoutedMessage) {
        let (id, seq) = self.slab.insert(InFlight { query, msg });
        let placed = self.slab.get(id).expect("just inserted");
        for carrier in placed.msg.carriers() {
            self.at[carrier.index()].push(id);
        }
        self.due.push(Reverse((query.expires_at, id, seq)));
    }

    /// Takes message `id` out of flight (a free slot is left alone).
    pub(crate) fn remove(&mut self, id: u32) {
        let Some(gone) = self.slab.remove(id) else {
            return;
        };
        for carrier in gone.msg.carriers() {
            remove_u32(&mut self.at[carrier.index()], id);
        }
    }

    /// Removes every message whose query has expired by `now`.
    pub(crate) fn expire(&mut self, now: Time) {
        self.expired_to = now;
        while let Some(&Reverse((t, id, seq))) = self.due.peek() {
            if t > now {
                break;
            }
            self.due.pop();
            if self.slab.seq(id) == Some(seq) {
                self.remove(id);
            }
        }
    }

    /// Fills `open` with the messages carried by either contact endpoint
    /// whose query is still open, in insertion order; the closed ones
    /// among them are removed.
    pub(crate) fn gather_open(
        &mut self,
        ctx: &SimCtx<'_>,
        a: NodeId,
        b: NodeId,
        open: &mut Vec<u32>,
    ) {
        open.clear();
        let mut batch = mem::take(&mut self.batch);
        gather(&self.slab, &self.at, a, b, &mut batch);
        #[cfg(test)]
        {
            self.examined += batch.len() as u64;
        }
        for &(_, id) in &batch {
            if ctx.query_is_open(self.get(id).query.id) {
                open.push(id);
            } else {
                self.remove(id);
            }
        }
        self.batch = batch;
    }

    /// Advances message `id` over the contact between `a` and `b`
    /// ([`RoutedMessage::advance`]), the carrier lists following every
    /// copy that moved or was made. Returns whether it was delivered.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn advance(
        &mut self,
        id: u32,
        strategy: ForwardingStrategy,
        oracle: &mut PathOracle,
        now: Time,
        a: NodeId,
        b: NodeId,
        link: &mut impl Link,
        transfers: &mut dyn FnMut(NodeId, NodeId),
    ) -> bool {
        let msg = &mut self.slab.get_mut(id).expect("routed message live").msg;
        let had = [msg.carries(a), msg.carries(b)];
        let delivered = msg.advance(strategy, oracle, now, a, b, link, transfers);
        let ends = [a, b];
        for (&node, had) in ends.iter().zip(had).take(if a == b { 1 } else { 2 }) {
            match (had, msg.carries(node)) {
                (false, true) => self.at[node.index()].push(id),
                (true, false) => remove_u32(&mut self.at[node.index()], id),
                _ => {}
            }
        }
        delivered
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
        for (id, m) in self.slab.iter() {
            for c in m.msg.carriers() {
                carriers += 1;
                let listed = self.at[c.index()].iter().filter(|&&x| x == id).count();
                if listed != 1 {
                    violate(
                        Some(c),
                        format!("{what} {id} listed {listed} times under a carrier"),
                    );
                }
            }
            if m.query.expires_at <= self.expired_to {
                violate(
                    None,
                    format!(
                        "{what} {id} of {} outlived the expiry sweep at {}",
                        m.query.id, self.expired_to
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

#[cfg(test)]
impl RoutedSlab {
    pub(crate) fn len(&self) -> usize {
        self.slab.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &InFlight> {
        self.slab.iter().map(|(_, m)| m)
    }

    pub(crate) fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.slab.iter().map(|(id, _)| id)
    }

    /// The carrier list of `node`, for seeding corruption in audit tests.
    pub(crate) fn list_mut(&mut self, node: NodeId) -> &mut Vec<u32> {
        &mut self.at[node.index()]
    }

    /// Inserts so far (sequence numbers are never reused).
    pub(crate) fn inserted(&self) -> u64 {
        self.slab.next_seq
    }
}
