//! §V-C: the probabilistic response decision, and the forwarding of
//! cached data copies back to requesters (§V-B's return direction).

use std::cmp::Reverse;
use std::collections::hash_map::Entry;

use rand::Rng;

use dtn_core::ids::{IdSet, NodeId};
use dtn_core::sigmoid::ResponseFunction;
use dtn_core::time::Duration;
use dtn_sim::engine::SimCtx;
use dtn_sim::message::Query;
use dtn_sim::probe::ProbeEvent;

use crate::pending::InFlight;
use crate::routing::{ForwardingStrategy, RoutedMessage};

use super::state::{Live, Scratch};
use super::ResponseStrategy;

impl Live {
    /// §V-C: one response decision per (query, caching node).
    pub(super) fn maybe_respond(&mut self, ctx: &mut SimCtx<'_>, query: Query, node: NodeId) {
        match self.responded.entry(query.id) {
            Entry::Occupied(mut o) => {
                if !o.get_mut().insert(node) {
                    return; // already decided
                }
            }
            Entry::Vacant(v) => {
                v.insert(IdSet::from_iter([node]));
                self.responded_gc
                    .push(Reverse((query.expires_at, query.id)));
            }
        }
        let remaining = query.remaining(ctx.now());
        if remaining == Duration::ZERO {
            return;
        }
        let probability = match self.cfg.response {
            ResponseStrategy::Sigmoid { p_min, p_max } => {
                match ResponseFunction::new(p_min, p_max, query.constraint()) {
                    Ok(f) => f.probability(remaining),
                    Err(_) => p_max.clamp(0.0, 1.0),
                }
            }
            ResponseStrategy::PathAware => {
                let table = self.oracle.table(ctx.rate_table(), ctx.now(), node);
                table
                    .path_to(query.requester)
                    .map_or(0.0, |p| p.weight(remaining.as_secs_f64()))
            }
        };
        let pop = self.registry.popularity(query.data, ctx.now());
        let size = self.registry.get(query.data).map_or(1, |d| d.size);
        let responded = ctx.rng().gen_bool(probability.clamp(0.0, 1.0));
        let at = ctx.now();
        ctx.probe().emit(|| ProbeEvent::ResponseDecision {
            at,
            query: query.id,
            node,
            probability,
            responded,
        });
        if responded {
            self.meta[node.index()].on_use(query.data, ctx.now(), pop, size);
            self.spawn_response(ctx, query, node);
        }
    }

    pub(super) fn spawn_response(&mut self, ctx: &mut SimCtx<'_>, query: Query, from: NodeId) {
        let at = ctx.now();
        ctx.probe().emit(|| ProbeEvent::ResponseSpawned {
            at,
            query: query.id,
            node: from,
        });
        if from == query.requester {
            ctx.mark_delivered(query.id);
            return;
        }
        let Some(&item) = self.registry.get(query.data) else {
            return;
        };
        let mut msg = RoutedMessage::new(query.requester, item.size, from);
        if let ForwardingStrategy::SprayAndWait { initial_copies } = self.cfg.response_routing {
            msg = msg.with_copy_budget(initial_copies);
        }
        self.responses.insert(InFlight { query, msg });
    }

    /// Return cached data copies to their requesters using the
    /// configured forwarding strategy (§V-B).
    pub(super) fn advance_responses(
        &mut self,
        ctx: &mut SimCtx<'_>,
        sx: &mut Scratch,
        a: NodeId,
        b: NodeId,
    ) {
        let delivered = &mut sx.delivered;
        delivered.clear();
        self.responses.advance(
            ctx,
            &mut self.oracle,
            self.cfg.response_routing,
            (a, b),
            &mut sx.advance,
            |at, query, from, to| ProbeEvent::ResponseRelay {
                at,
                query,
                from,
                to,
            },
            |id, m, _, arrived| {
                if arrived {
                    delivered.push((id, m.query.id));
                }
            },
        );
        for &(id, query) in delivered.iter() {
            ctx.mark_delivered(query);
            self.responses.remove(id);
        }
    }
}
