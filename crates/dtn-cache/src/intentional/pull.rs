//! §V-B: query pull toward the central nodes and the broadcast among an
//! NCL's caching nodes once a query reaches its central node.

use dtn_core::ids::{IdSet, NodeId};
use dtn_sim::engine::SimCtx;
use dtn_sim::message::Query;
use dtn_sim::probe::ProbeEvent;

use super::pending::BroadcastCopy;
use super::state::{Live, Scratch};

impl Live {
    /// §V-B: advance query copies toward their central nodes, each
    /// gathered record's copies in NCL order; a copy that reaches its
    /// central node leaves the record, and a record with none left leaves
    /// the slab.
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
            for (ncl, &central) in self.centrals.iter().enumerate() {
                let pull = self.pulls.get(id);
                let query = pull.query;
                let (from, to) = match pull.copies[ncl] {
                    Some(c) if c == a => (a, b),
                    Some(c) if c == b => (b, a),
                    _ => continue,
                };
                let rates = ctx.rate_table();
                if !self.oracle.forward(rates, now, from, to, central)
                    || !ctx.try_transmit(query_size)
                {
                    continue;
                }
                let done = self.pulls.update(id, [a, b], |p| {
                    p.copies[ncl] = Some(to).filter(|&to| to != central);
                    p.copies.iter().all(Option::is_none)
                });
                ctx.probe().emit(|| ProbeEvent::QueryRelay {
                    at: now,
                    query: query.id,
                    from,
                    to,
                });
                if to == central {
                    sx.arrived.push((query, ncl));
                }
                if done {
                    self.pulls.remove(id);
                    break;
                }
            }
        }
        // Handle arrivals (immediate reply or NCL broadcast) in the
        // order they advanced.
        for &(query, ncl) in &sx.arrived {
            self.handle_query_at_central(ctx, query, ncl);
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
