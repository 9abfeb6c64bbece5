//! §V-A: intentional data push toward the central nodes, plus the
//! epoch-time cache migration that re-enters demoted copies into the
//! push pipeline after an NCL re-election.

use dtn_core::ids::NodeId;

use crate::replacement::ReplacementKind;

use super::state::{CopyState, Live, Scratch};
use dtn_sim::engine::SimCtx;
use dtn_sim::probe::ProbeEvent;

impl Live {
    /// §V-A: advance the push copies carried by either contact endpoint.
    ///
    /// Gathers the two endpoints' carried copies from `carried_at` and
    /// replays them in ascending `(data, k)` order — exactly the order
    /// the reference implementation's full copy-table scan visits the
    /// same entries. States are re-read at visit time because an
    /// eviction earlier in the batch can drop a later entry.
    pub(super) fn advance_pushes(
        &mut self,
        ctx: &mut SimCtx<'_>,
        sx: &mut Scratch,
        a: NodeId,
        b: NodeId,
    ) {
        let now = ctx.now();
        let batch = &mut sx.copies;
        batch.clear();
        batch.extend_from_slice(&self.carried_at[a.index()]);
        if b != a {
            batch.extend_from_slice(&self.carried_at[b.index()]);
        }
        batch.sort_unstable();
        for &(data, k32) in batch.iter() {
            let k = k32 as usize;
            let Some(&item) = self.registry.get(data) else {
                continue;
            };
            if !item.is_alive(now) {
                continue;
            }
            let (from, to) = match self.copies.get(&data).map(|s| s[k]) {
                Some(CopyState::Carried(h)) if h == a => (a, b),
                Some(CopyState::Carried(h)) if h == b => (b, a),
                _ => continue,
            };
            let central = self.centrals[k];
            if !self
                .oracle
                .forward(ctx.rate_table(), now, from, to, central)
            {
                continue;
            }
            // The next selected relay: forward if it can hold the
            // item, otherwise settle at the current relay (§V-A).
            let already_there = self.buffers[to.index()].contains(data);
            let moves = if already_there {
                true
            } else if !self.buffers[to.index()].fits(item.size)
                && self.cfg.replacement == ReplacementKind::UtilityKnapsack
            {
                false // next relay's buffer is full: cache here
            } else if !ctx.try_transmit(item.size) {
                continue; // contact too short; retry later
            } else {
                // `false`: a traditional policy could not make room either.
                self.insert_physical(ctx, to, item)
            };
            let (node, state) = if moves {
                (to, CopyState::transit(to, central))
            } else {
                (from, CopyState::Settled(from))
            };
            self.set_copy(data, k, state);
            if moves {
                ctx.probe().emit(|| ProbeEvent::PushRelay {
                    at: now,
                    data,
                    from,
                    to,
                    ncl: k,
                });
                self.drop_physical_if_unreferenced(from, data);
            }
            // A copy that was carried in settles; one that found the
            // bytes already there just re-tags them.
            if !already_there && state == CopyState::Settled(node) {
                ctx.probe().emit(|| ProbeEvent::PushSettled {
                    at: now,
                    data,
                    node,
                    ncl: k,
                });
            }
        }
    }

    /// Re-enters NCL `k`'s settled copies into the §V-A push pipeline
    /// after its central node moved in a re-election.
    ///
    /// No data moves here — an epoch fires between contacts, so there is
    /// no link to transmit over. Each live settled copy merely flips
    /// back to `Carried` at its current holder (or re-settles in place
    /// when the holder *is* the new central node); subsequent contacts
    /// push it toward the new central node per the §V-A relay rule.
    /// Returns `(copies flipped, payload bytes)` for the re-election
    /// counters.
    pub(super) fn migrate_ncl(&mut self, now: dtn_core::time::Time, k: usize) -> (u64, u64) {
        let new_central = self.centrals[k];
        let settled = self.settled_at.iter().flatten();
        let mut batch: Vec<_> = settled
            .filter(|&&(_, kk)| kk as usize == k)
            .copied()
            .collect();
        batch.sort_unstable();
        let mut copies = 0u64;
        let mut bytes = 0u64;
        for &(data, _) in &batch {
            let Some(&item) = self.registry.get(data) else {
                continue;
            };
            if !item.is_alive(now) {
                continue;
            }
            let Some(CopyState::Settled(holder)) = self.copies.get(&data).map(|s| s[k]) else {
                continue;
            };
            if holder == new_central {
                continue; // already where it belongs
            }
            self.set_copy(data, k, CopyState::Carried(holder));
            copies += 1;
            bytes += item.size;
        }
        (copies, bytes)
    }
}
