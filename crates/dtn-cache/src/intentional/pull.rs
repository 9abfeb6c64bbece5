//! §V-B: query pull toward the central nodes and the broadcast among an
//! NCL's caching nodes once a query reaches its central node.

use dtn_core::ids::{IdSet, NodeId};
use dtn_sim::engine::SimCtx;
use dtn_sim::message::Query;
use dtn_sim::probe::ProbeEvent;

use super::pending::BroadcastCopy;
use super::state::{Live, Scratch};

impl Live {
    /// §V-B: advance query copies toward their central nodes.
    pub(super) fn advance_pulls(
        &mut self,
        ctx: &mut SimCtx<'_>,
        sx: &mut Scratch,
        a: NodeId,
        b: NodeId,
    ) {
        let now = ctx.now();
        let query_size = ctx.query_size();
        self.pulls.gather_open(ctx, a, b, &mut sx.open);
        sx.arrived.clear();
        for &id in &sx.open {
            let pull = *self.pulls.get(id);
            let (from, to) = if pull.carrier == a { (a, b) } else { (b, a) };
            let central = self.centrals[pull.ncl];
            if !self
                .oracle
                .forward(ctx.rate_table(), now, from, to, central)
            {
                continue;
            }
            if !ctx.try_transmit(query_size) {
                continue;
            }
            self.pulls.update(id, [a, b], |p| p.carrier = to);
            ctx.probe().emit(|| ProbeEvent::QueryRelay {
                at: now,
                query: pull.query.id,
                from,
                to,
            });
            if to == central {
                sx.arrived.push(id);
            }
        }
        // Handle arrivals (immediate reply or NCL broadcast) in the
        // order they advanced, dropping the delivered pull copies.
        for &id in &sx.arrived {
            let pull = self.pulls.remove(id).expect("arrived pull live");
            self.handle_query_at_central(ctx, pull.query, pull.ncl);
        }
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
            self.broadcasts.insert(BroadcastCopy {
                query,
                ncl,
                holders: IdSet::from_iter([central]),
            });
        }
    }

    /// §V-B: spread broadcast queries among NCL members; §V-C: members
    /// caching the data decide probabilistically whether to respond.
    pub(super) fn advance_broadcasts(
        &mut self,
        ctx: &mut SimCtx<'_>,
        sx: &mut Scratch,
        a: NodeId,
        b: NodeId,
    ) {
        let query_size = ctx.query_size();
        self.broadcasts.gather_open(ctx, a, b, &mut sx.open);
        sx.spreads.clear();
        for &id in &sx.open {
            let bc = self.broadcasts.get(id);
            for (from, to) in [(a, b), (b, a)] {
                if bc.holders.contains(&from)
                    && !bc.holders.contains(&to)
                    && (self.is_member(to, bc.ncl) || to == self.centrals[bc.ncl])
                {
                    sx.spreads.push((id, to));
                }
            }
        }
        sx.decisions.clear();
        for &(id, to) in &sx.spreads {
            if !ctx.try_transmit(query_size) {
                continue;
            }
            let query = self.broadcasts.update(id, [a, b], |bc| {
                bc.holders.insert(to);
                bc.query
            });
            if self.buffers[to.index()].contains(query.data) {
                sx.decisions.push((query, to));
            }
            let at = ctx.now();
            ctx.probe().emit(|| ProbeEvent::BroadcastSpread {
                at,
                query: query.id,
                node: to,
            });
        }
        for &(query, node) in &sx.decisions {
            self.maybe_respond(ctx, query, node);
        }
    }
}
