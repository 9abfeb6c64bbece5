//! DTN forwarding strategies for returning data to requesters.
//!
//! §V-B of the paper: "The data can be sent to the requester by any
//! existing data forwarding protocol in DTNs." This module provides the
//! classic options as a pluggable [`ForwardingStrategy`]:
//!
//! - [`Direct`](ForwardingStrategy::Direct) — the holder waits until it
//!   meets the destination itself (Direct Delivery),
//! - [`Greedy`](ForwardingStrategy::Greedy) — single-copy delegation
//!   forwarding along rising opportunistic-path weight (what the paper's
//!   own push/pull uses, §V-A),
//! - [`SprayAndWait`](ForwardingStrategy::SprayAndWait) — binary
//!   Spray-and-Wait: `L` logical copies split in half at each spray
//!   contact, then direct delivery,
//! - [`Epidemic`](ForwardingStrategy::Epidemic) — replicate to every
//!   encountered node (delivery-optimal, bandwidth-hungry).
//!
//! `RoutedMessage` tracks the copies of one message and advances them
//! on contacts, charging every replication/move to the simulator's link
//! budget through a caller-supplied `transmit` closure.

use dtn_core::ids::NodeId;
use dtn_core::time::Time;
use dtn_sim::engine::Link;
use dtn_sim::oracle::PathOracle;

/// How a message travels toward its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardingStrategy {
    /// Hold until meeting the destination.
    Direct,
    /// Single copy, forwarded to relays with strictly better
    /// opportunistic-path weight to the destination.
    Greedy,
    /// Binary Spray-and-Wait with the given initial copy budget.
    SprayAndWait {
        /// Total logical copies `L` (≥ 1).
        initial_copies: u32,
    },
    /// Unbounded replication to every encountered node.
    Epidemic,
}

impl Default for ForwardingStrategy {
    /// Greedy delegation — the relay rule the paper itself uses for the
    /// push and pull phases.
    fn default() -> Self {
        ForwardingStrategy::Greedy
    }
}

/// One physical copy of a routed message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RoutedCopy {
    carrier: NodeId,
    /// Remaining logical copies (Spray-and-Wait tokens); 1 elsewhere.
    tokens: u32,
}

/// A message with one destination and a set of carried copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RoutedMessage {
    destination: NodeId,
    size: u64,
    copies: Vec<RoutedCopy>,
    delivered: bool,
}

impl RoutedMessage {
    /// Creates a message at `origin` heading for `destination`.
    ///
    /// # Panics
    ///
    /// Panics if `origin == destination` (nothing to route) or
    /// `size == 0`.
    pub(crate) fn new(destination: NodeId, size: u64, origin: NodeId) -> Self {
        assert_ne!(origin, destination, "message already at its destination");
        assert!(size > 0, "messages have positive size");
        RoutedMessage {
            destination,
            size,
            copies: vec![RoutedCopy {
                carrier: origin,
                tokens: 1,
            }],
            delivered: false,
        }
    }

    /// Sets the Spray-and-Wait token budget on the initial copy.
    pub(crate) fn with_copy_budget(mut self, tokens: u32) -> Self {
        for c in &mut self.copies {
            c.tokens = tokens.max(1);
        }
        self
    }

    /// The destination node.
    pub(crate) fn destination(&self) -> NodeId {
        self.destination
    }

    /// Whether the destination has received the message.
    pub(crate) fn is_delivered(&self) -> bool {
        self.delivered
    }

    /// Nodes currently carrying a copy.
    pub(crate) fn carriers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.copies.iter().map(|c| c.carrier)
    }

    fn carried_by(&self, node: NodeId) -> Option<usize> {
        self.copies.iter().position(|c| c.carrier == node)
    }

    /// Advances the message over a contact between `a` and `b`;
    /// `transfers` observes each relay hop `(from, to)`, the hop into the
    /// destination included.
    ///
    /// Every attempted hop is charged to `link` (wire it to
    /// [`SimCtx::link_access`](dtn_sim::engine::SimCtx::link_access)).
    ///
    /// Returns whether the destination received the message during this
    /// contact; once delivered, later contacts are no-ops.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn advance(
        &mut self,
        strategy: ForwardingStrategy,
        oracle: &mut PathOracle,
        now: Time,
        a: NodeId,
        b: NodeId,
        link: &mut impl Link,
        transfers: &mut dyn FnMut(NodeId, NodeId),
    ) -> bool {
        if self.delivered {
            return false;
        }
        for (from, to) in [(a, b), (b, a)] {
            let Some(idx) = self.carried_by(from) else {
                continue;
            };
            // Delivery dominates every strategy.
            if to == self.destination {
                if link.try_transmit(self.size) {
                    self.delivered = true;
                    transfers(from, to);
                    return true;
                }
                return false;
            }
            match strategy {
                ForwardingStrategy::Direct => {}
                ForwardingStrategy::Greedy => {
                    if self.carried_by(to).is_none()
                        && oracle.forward(link.rate_table(), now, from, to, self.destination)
                        && link.try_transmit(self.size)
                    {
                        self.copies[idx].carrier = to;
                        transfers(from, to);
                    }
                }
                ForwardingStrategy::SprayAndWait { .. } => {
                    let tokens = self.copies[idx].tokens;
                    if tokens > 1 && self.carried_by(to).is_none() && link.try_transmit(self.size) {
                        let given = tokens / 2;
                        self.copies[idx].tokens = tokens - given;
                        self.copies.push(RoutedCopy {
                            carrier: to,
                            tokens: given,
                        });
                        transfers(from, to);
                    }
                }
                ForwardingStrategy::Epidemic => {
                    if self.carried_by(to).is_none() && link.try_transmit(self.size) {
                        self.copies.push(RoutedCopy {
                            carrier: to,
                            tokens: 1,
                        });
                        transfers(from, to);
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ContactOutcome;
    use dtn_core::rate::RateTable;
    use dtn_core::time::Duration;

    /// Test link: programmable success plus a rate table.
    struct Wire {
        rates: RateTable,
        up: bool,
    }

    impl Link for Wire {
        fn rate_table(&self) -> &RateTable {
            &self.rates
        }
        fn try_transmit(&mut self, _bytes: u64) -> bool {
            self.up
        }
    }

    fn rates_line() -> RateTable {
        // 0 — 1 — 2 — 3 with frequent contacts
        let mut r = RateTable::new(4, Time::ZERO);
        for t in 1..=5u64 {
            r.record(NodeId(0), NodeId(1), Time(t * 100));
            r.record(NodeId(1), NodeId(2), Time(t * 100));
            r.record(NodeId(2), NodeId(3), Time(t * 100));
        }
        r
    }

    fn oracle() -> PathOracle {
        PathOracle::new(4, 3600.0, Duration::hours(1))
    }

    fn wire() -> Wire {
        Wire {
            rates: rates_line(),
            up: true,
        }
    }

    #[test]
    fn direct_only_delivers_to_destination() {
        let mut w = wire();
        let mut o = oracle();
        let mut m = RoutedMessage::new(NodeId(3), 100, NodeId(0));
        // Meeting a great relay does nothing under Direct.
        let out = m.on_contact(
            ForwardingStrategy::Direct,
            &mut o,
            Time(600),
            NodeId(0),
            NodeId(2),
            &mut w,
        );
        assert!(!out.delivered && out.transfers.is_empty());
        assert_eq!(m.carriers().count(), 1);
        // Meeting the destination delivers.
        let out = m.on_contact(
            ForwardingStrategy::Direct,
            &mut o,
            Time(700),
            NodeId(3),
            NodeId(0),
            &mut w,
        );
        assert!(out.delivered);
        assert!(m.is_delivered());
    }

    #[test]
    fn greedy_moves_single_copy_toward_destination() {
        let mut w = wire();
        let mut o = oracle();
        let mut m = RoutedMessage::new(NodeId(3), 100, NodeId(0));
        let out = m.on_contact(
            ForwardingStrategy::Greedy,
            &mut o,
            Time(600),
            NodeId(0),
            NodeId(1),
            &mut w,
        );
        assert_eq!(out.transfers, vec![(NodeId(0), NodeId(1))]);
        assert_eq!(m.carriers().count(), 1, "greedy keeps a single copy");
        assert_eq!(m.carriers().next(), Some(NodeId(1)));
        // Backwards move is refused.
        let out = m.on_contact(
            ForwardingStrategy::Greedy,
            &mut o,
            Time(700),
            NodeId(1),
            NodeId(0),
            &mut w,
        );
        assert!(out.transfers.is_empty());
    }

    #[test]
    fn spray_splits_tokens_binary() {
        let mut w = wire();
        let mut o = oracle();
        let mut m = RoutedMessage::new(NodeId(3), 100, NodeId(0)).with_copy_budget(4);
        let strat = ForwardingStrategy::SprayAndWait { initial_copies: 4 };
        let _ = m.on_contact(strat, &mut o, Time(600), NodeId(0), NodeId(1), &mut w);
        assert_eq!(m.carriers().count(), 2);
        // 4 tokens split 2/2; the new copy can spray once more…
        let _ = m.on_contact(strat, &mut o, Time(700), NodeId(1), NodeId(2), &mut w);
        assert_eq!(m.carriers().count(), 3);
        // …but single-token copies wait for the destination.
        let out = m.on_contact(strat, &mut o, Time(800), NodeId(2), NodeId(0), &mut w);
        assert!(out.transfers.is_empty(), "wait phase must not spray");
    }

    #[test]
    fn epidemic_replicates_everywhere() {
        let mut w = wire();
        let mut o = oracle();
        let mut m = RoutedMessage::new(NodeId(3), 100, NodeId(0));
        let _ = m.on_contact(
            ForwardingStrategy::Epidemic,
            &mut o,
            Time(600),
            NodeId(0),
            NodeId(1),
            &mut w,
        );
        let _ = m.on_contact(
            ForwardingStrategy::Epidemic,
            &mut o,
            Time(700),
            NodeId(1),
            NodeId(2),
            &mut w,
        );
        assert_eq!(m.carriers().count(), 3);
        // No duplicate copies at the same node.
        let _ = m.on_contact(
            ForwardingStrategy::Epidemic,
            &mut o,
            Time(800),
            NodeId(0),
            NodeId(1),
            &mut w,
        );
        assert_eq!(m.carriers().count(), 3);
    }

    #[test]
    fn failed_transmit_blocks_everything() {
        let mut w = wire();
        w.up = false;
        let mut o = oracle();
        let mut m = RoutedMessage::new(NodeId(3), 100, NodeId(0));
        let out = m.on_contact(
            ForwardingStrategy::Epidemic,
            &mut o,
            Time(600),
            NodeId(0),
            NodeId(3),
            &mut w,
        );
        assert!(!out.delivered);
        assert!(!m.is_delivered());
        assert_eq!(m.carriers().count(), 1);
    }

    #[test]
    fn delivered_message_ignores_later_contacts() {
        let mut w = wire();
        let mut o = oracle();
        let mut m = RoutedMessage::new(NodeId(3), 100, NodeId(0));
        let _ = m.on_contact(
            ForwardingStrategy::Greedy,
            &mut o,
            Time(600),
            NodeId(0),
            NodeId(3),
            &mut w,
        );
        assert!(m.is_delivered());
        let out = m.on_contact(
            ForwardingStrategy::Epidemic,
            &mut o,
            Time(700),
            NodeId(3),
            NodeId(1),
            &mut w,
        );
        assert_eq!(out, ContactOutcome::default());
    }

    #[test]
    #[should_panic(expected = "already at its destination")]
    fn message_to_self_panics() {
        let _ = RoutedMessage::new(NodeId(1), 10, NodeId(1));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn strategy_strategy() -> impl Strategy<Value = ForwardingStrategy> {
            prop_oneof![
                Just(ForwardingStrategy::Direct),
                Just(ForwardingStrategy::Greedy),
                (2u32..16).prop_map(|l| ForwardingStrategy::SprayAndWait { initial_copies: l }),
                Just(ForwardingStrategy::Epidemic),
            ]
        }

        proptest! {
            /// Under arbitrary contact sequences: carriers stay unique,
            /// spray never exceeds its token budget, delivery is sticky,
            /// and total spray tokens are conserved until delivery.
            #[test]
            fn copies_respect_invariants(
                strategy in strategy_strategy(),
                contacts in prop::collection::vec((0u32..6, 0u32..6), 1..40),
                origin in 0u32..5,
            ) {
                let mut w = wire();
                // Extend the rate table to 6 nodes for this test.
                w.rates = {
                    let mut r = RateTable::new(6, Time::ZERO);
                    for t in 1..=5u64 {
                        r.record(NodeId(0), NodeId(1), Time(t * 100));
                        r.record(NodeId(1), NodeId(2), Time(t * 100));
                        r.record(NodeId(2), NodeId(3), Time(t * 100));
                        r.record(NodeId(3), NodeId(4), Time(t * 100));
                        r.record(NodeId(4), NodeId(5), Time(t * 100));
                    }
                    r
                };
                let mut o = PathOracle::new(6, 3600.0, Duration::hours(1));
                let dest = NodeId(5);
                let origin = NodeId(origin);
                prop_assume!(origin != dest);
                let budget = match strategy {
                    ForwardingStrategy::SprayAndWait { initial_copies } => initial_copies,
                    _ => 1,
                };
                let mut m = RoutedMessage::new(dest, 10, origin).with_copy_budget(budget);
                let mut was_delivered = false;
                for (i, (a, b)) in contacts.into_iter().enumerate() {
                    if a == b {
                        continue;
                    }
                    let out = m.on_contact(
                        strategy,
                        &mut o,
                        Time(1000 + i as u64),
                        NodeId(a),
                        NodeId(b),
                        &mut w,
                    );
                    // Carriers are unique.
                    let mut carriers: Vec<NodeId> = m.carriers().collect();
                    carriers.sort();
                    let len = carriers.len();
                    carriers.dedup();
                    prop_assert_eq!(carriers.len(), len, "duplicate carriers");
                    // Spray copy count bounded by the budget.
                    if let ForwardingStrategy::SprayAndWait { initial_copies } = strategy {
                        prop_assert!(m.carriers().count() <= initial_copies as usize);
                    }
                    if matches!(strategy, ForwardingStrategy::Direct | ForwardingStrategy::Greedy) {
                        prop_assert_eq!(m.carriers().count(), 1);
                    }
                    // Delivery is sticky: once delivered, stays delivered
                    // and nothing further happens.
                    if was_delivered {
                        prop_assert_eq!(out, ContactOutcome::default());
                    }
                    was_delivered |= m.is_delivered();
                }
            }
        }
    }
}
