//! §V-B: query pull toward the central nodes and the broadcast among an
//! NCL's caching nodes once a query reaches its central node.

use std::cmp::Reverse;
use std::mem;

use dtn_core::ids::{IdSet, NodeId};
use dtn_sim::engine::SimCtx;
use dtn_sim::message::Query;
use dtn_sim::probe::ProbeEvent;

use crate::common::better_relay;
use crate::pending::{gather, remove_u32};

use super::pending::{BroadcastCopy, GC_BCAST};
use super::state::IntentionalScheme;

impl IntentionalScheme {
    /// §V-B: advance query copies toward their central nodes.
    pub(super) fn advance_pulls(&mut self, ctx: &mut SimCtx<'_>, a: NodeId, b: NodeId) {
        let now = ctx.now();
        let query_size = ctx.query_size();
        let mut batch = mem::take(&mut self.sx_batch);
        gather(&self.pulls, &self.pull_at, a, b, &mut batch);
        let mut arrived = mem::take(&mut self.sx_arrived);
        arrived.clear();
        for &(_, id) in &batch {
            let Some(&pull) = self.pulls.get(id) else {
                continue;
            };
            if !ctx.query_is_open(pull.query.id) {
                self.remove_pull(id);
                continue;
            }
            let (from, to) = if pull.carrier == a { (a, b) } else { (b, a) };
            let central = self.centrals[pull.ncl];
            let oracle = self.oracle.as_mut().expect("configured");
            if !better_relay(oracle, ctx.rate_table(), now, from, to, central) {
                continue;
            }
            if !ctx.try_transmit(query_size) {
                continue;
            }
            self.pulls.get_mut(id).expect("live").carrier = to;
            remove_u32(&mut self.pull_at[from.index()], id);
            self.pull_at[to.index()].push(id);
            ctx.probe().emit(|| ProbeEvent::QueryRelay {
                at: now,
                query: pull.query.id,
                from,
                to,
            });
            if to == central {
                arrived.push(id);
            }
        }
        // Handle arrivals (immediate reply or NCL broadcast) in the
        // order they advanced, dropping the delivered pull copies.
        for &id in &arrived {
            let pull = self.remove_pull(id).expect("arrived pull live");
            self.handle_query_at_central(ctx, pull.query, pull.ncl);
        }
        arrived.clear();
        self.sx_arrived = arrived;
        batch.clear();
        self.sx_batch = batch;
    }

    /// A query reached central node `centrals[ncl]` (§V-B, Fig. 6).
    pub(super) fn handle_query_at_central(
        &mut self,
        ctx: &mut SimCtx<'_>,
        query: Query,
        ncl: usize,
    ) {
        if let Some(slot) = self.ncl_query_load.get_mut(ncl) {
            *slot += 1;
        }
        let at = ctx.now();
        ctx.probe().emit(|| ProbeEvent::QueryAtCentral {
            at,
            query: query.id,
            ncl,
        });
        let central = self.centrals[ncl];
        if self.buffers[central.index()].contains(query.data) {
            // "a central node immediately replies to the requester with
            // the data if it is cached locally"
            let pop = self.registry.popularity(query.data, ctx.now());
            self.meta[central.index()].on_use(
                query.data,
                ctx.now(),
                pop,
                self.registry.get(query.data).map_or(1, |d| d.size),
            );
            self.spawn_response(ctx, query, central);
        } else {
            // Otherwise broadcast among the NCL's caching nodes.
            let mut holders = IdSet::default();
            holders.insert(central);
            let (id, seq) = self.broadcasts.insert(BroadcastCopy {
                query,
                ncl,
                holders,
            });
            self.bcast_at[central.index()].push(id);
            self.pending_gc
                .push(Reverse((query.expires_at, GC_BCAST, id, seq)));
        }
    }

    /// §V-B: spread broadcast queries among NCL members; §V-C: members
    /// caching the data decide probabilistically whether to respond.
    pub(super) fn advance_broadcasts(&mut self, ctx: &mut SimCtx<'_>, a: NodeId, b: NodeId) {
        let query_size = ctx.query_size();
        let mut batch = mem::take(&mut self.sx_batch);
        gather(&self.broadcasts, &self.bcast_at, a, b, &mut batch);
        let mut spreads = mem::take(&mut self.sx_spreads);
        spreads.clear();
        for &(_, id) in &batch {
            let Some(open) = self
                .broadcasts
                .get(id)
                .map(|bc| ctx.query_is_open(bc.query.id))
            else {
                continue;
            };
            if !open {
                self.remove_broadcast(id);
                continue;
            }
            let bc = self.broadcasts.get(id).expect("live");
            for (from, to) in [(a, b), (b, a)] {
                if bc.holders.contains(&from)
                    && !bc.holders.contains(&to)
                    && (self.is_member(to, bc.ncl) || to == self.centrals[bc.ncl])
                {
                    spreads.push((id, to));
                }
            }
        }
        let mut decisions = mem::take(&mut self.sx_decisions);
        decisions.clear();
        for &(id, to) in &spreads {
            if !ctx.try_transmit(query_size) {
                continue;
            }
            let bc = self.broadcasts.get_mut(id).expect("live");
            bc.holders.insert(to);
            let query = bc.query;
            self.bcast_at[to.index()].push(id);
            if self.buffers[to.index()].contains(query.data) {
                decisions.push((query, to));
            }
            let at = ctx.now();
            ctx.probe().emit(|| ProbeEvent::BroadcastSpread {
                at,
                query: query.id,
                node: to,
            });
        }
        for &(query, node) in &decisions {
            self.maybe_respond(ctx, query, node);
        }
        decisions.clear();
        self.sx_decisions = decisions;
        spreads.clear();
        self.sx_spreads = spreads;
        batch.clear();
        self.sx_batch = batch;
    }
}
