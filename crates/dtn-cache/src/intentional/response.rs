//! §V-C: the probabilistic response decision, and the forwarding of
//! cached data copies back to requesters (§V-B's return direction).

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::HashSet;
use std::mem;

use rand::Rng;

use dtn_core::ids::NodeId;
use dtn_core::sigmoid::ResponseFunction;
use dtn_core::time::Duration;
use dtn_sim::engine::SimCtx;
use dtn_sim::message::Query;
use dtn_sim::probe::ProbeEvent;

use crate::routing::{ForwardingStrategy, RoutedMessage};

use super::pending::{remove_u32, ResponseInFlight, GC_RESP};
use super::state::IntentionalScheme;
use super::ResponseStrategy;

impl IntentionalScheme {
    /// §V-C: one response decision per (query, caching node).
    pub(super) fn maybe_respond(&mut self, ctx: &mut SimCtx<'_>, query: Query, node: NodeId) {
        match self.responded.entry(query.id) {
            Entry::Occupied(mut o) => {
                if !o.get_mut().insert(node) {
                    return; // already decided
                }
            }
            Entry::Vacant(v) => {
                v.insert(HashSet::from([node]));
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
                let oracle = self.oracle.as_mut().expect("configured");
                let table = oracle.table(ctx.rate_table(), ctx.now(), node);
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
        let (id, seq) = self.responses.insert(ResponseInFlight { query, msg });
        self.resp_at[from.index()].push(id);
        self.pending_gc
            .push(Reverse((query.expires_at, GC_RESP, id, seq)));
    }

    /// Return cached data copies to their requesters using the
    /// configured forwarding strategy (§V-B).
    pub(super) fn advance_responses(&mut self, ctx: &mut SimCtx<'_>, a: NodeId, b: NodeId) {
        let now = ctx.now();
        let mut batch = mem::take(&mut self.sx_batch);
        batch.clear();
        batch.extend(
            self.resp_at[a.index()]
                .iter()
                .map(|&id| (self.responses.seq(id).expect("indexed response live"), id)),
        );
        if b != a {
            batch.extend(
                self.resp_at[b.index()]
                    .iter()
                    .map(|&id| (self.responses.seq(id).expect("indexed response live"), id)),
            );
        }
        batch.sort_unstable();
        batch.dedup(); // multi-copy responses may be carried by both ends
        let mut process = mem::take(&mut self.sx_process);
        process.clear();
        for &(_, id) in &batch {
            let Some(resp) = self.responses.get(id) else {
                continue;
            };
            if ctx.query_is_open(resp.query.id) {
                process.push(id);
            } else {
                self.remove_response(id);
            }
        }
        let strategy = self.cfg.response_routing;
        let mut delivered = mem::take(&mut self.sx_delivered);
        delivered.clear();
        // With a probe installed, use the transfer-logging routed path
        // (same state transitions and link charges as the fast path) and
        // replay the hops after the link borrow ends.
        let probing = ctx.probe_enabled();
        let mut relay_hops: Vec<(dtn_core::ids::QueryId, NodeId, NodeId)> = Vec::new();
        {
            let oracle = self.oracle.as_mut().expect("configured");
            let mut link = ctx.link_access();
            for &id in &process {
                let resp = self.responses.get_mut(id).expect("live");
                let had_a = resp.msg.carries(a);
                let had_b = resp.msg.carries(b);
                let done = if probing {
                    let out = resp.msg.on_contact(strategy, oracle, now, a, b, &mut link);
                    let query = resp.query.id;
                    relay_hops.extend(out.transfers.iter().map(|&(f, t)| (query, f, t)));
                    out.delivered
                } else {
                    resp.msg
                        .on_contact_fast(strategy, oracle, now, a, b, &mut link)
                };
                let has_a = resp.msg.carries(a);
                let has_b = resp.msg.carries(b);
                let query = resp.query.id;
                if had_a != has_a {
                    if has_a {
                        self.resp_at[a.index()].push(id);
                    } else {
                        remove_u32(&mut self.resp_at[a.index()], id);
                    }
                }
                if b != a && had_b != has_b {
                    if has_b {
                        self.resp_at[b.index()].push(id);
                    } else {
                        remove_u32(&mut self.resp_at[b.index()], id);
                    }
                }
                if done {
                    delivered.push((id, query));
                }
            }
        }
        for &(query, from, to) in &relay_hops {
            ctx.probe().emit(|| ProbeEvent::ResponseRelay {
                at: now,
                query,
                from,
                to,
            });
        }
        for &(id, query) in &delivered {
            ctx.mark_delivered(query);
            self.remove_response(id);
        }
        delivered.clear();
        self.sx_delivered = delivered;
        process.clear();
        self.sx_process = process;
        batch.clear();
        self.sx_batch = batch;
    }
}
