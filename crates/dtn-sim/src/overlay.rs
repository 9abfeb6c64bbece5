//! Hostile-regime overlays: composable perturbations of a contact
//! source and its workload.
//!
//! The paper evaluates caching under *stationary* contact processes;
//! this module injects the regimes that break that assumption —
//! flash-crowd query storms, coordinated NCL blackouts, network
//! partitions, buffer famine — between well-defined time boundaries.
//! An overlay only *drops or adds* events: it never reorders the
//! contact stream and never draws from any RNG, so scheme randomness
//! and every RNG-derived quantity stay bit-identical to the unperturbed
//! run outside the overlay window (and inside it, modulo the contacts
//! that no longer happen).
//!
//! [`OverlaySource`] stacks any number of [`RegimeOverlay`]s over any
//! [`ContactSource`]; [`RegimeOverlay::workload_events`] produces the
//! deterministic workload half (query storms, filler data) to merge via
//! [`Simulator::add_workload`].
//!
//! [`Simulator::add_workload`]: crate::engine::Simulator::add_workload

use dtn_core::ids::{DataId, NodeId};
use dtn_core::time::{Duration, Time};
use dtn_trace::trace::Contact;

use crate::engine::{ContactSource, WorkloadEvent};
use crate::message::DataItem;

/// The perturbation a [`RegimeOverlay`] applies inside its window.
#[derive(Debug, Clone, PartialEq)]
pub enum OverlayKind {
    /// A query storm on one item: `requests` extra queries for `item`,
    /// spread evenly over the window across a deterministic rotation of
    /// requesters. Contacts are untouched; the regime stresses the
    /// query path and the popularity estimator.
    FlashCrowd {
        /// The item everyone suddenly wants.
        item: DataId,
        /// Number of extra queries injected over the window.
        requests: u32,
        /// Time constraint `T_q` of each injected query.
        constraint: Duration,
    },
    /// A coordinated outage of specific nodes (e.g. the elected NCLs):
    /// every contact touching one of `nodes` inside the window is
    /// dropped — the blacked-out nodes neither receive nor forward.
    NclBlackout {
        /// The nodes taken offline for the window.
        nodes: Vec<NodeId>,
    },
    /// A clean network split: contacts between the low side
    /// (`id < cut`) and the high side (`id >= cut`) are dropped inside
    /// the window; intra-side contacts survive. The heal at the window
    /// end restores cross-partition mixing.
    Partition {
        /// First node id of the high side.
        cut: u32,
    },
    /// Buffer famine: `items` filler data items of `size` bytes are
    /// generated at the window start by a deterministic rotation of
    /// sources, shrinking the cache room every node can offer for real
    /// traffic until the fillers expire at the window end.
    BufferFamine {
        /// Number of filler items injected.
        items: u32,
        /// Size of each filler item in bytes.
        size: u64,
    },
}

impl OverlayKind {
    /// Stable kebab-case name for reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            OverlayKind::FlashCrowd { .. } => "flash-crowd",
            OverlayKind::NclBlackout { .. } => "ncl-blackout",
            OverlayKind::Partition { .. } => "partition",
            OverlayKind::BufferFamine { .. } => "buffer-famine",
        }
    }
}

/// Deterministic requester/source rotation: co-prime stride over the
/// population so consecutive injected events land on different nodes
/// without any RNG draw.
fn rotate(i: u32, nodes: usize) -> NodeId {
    NodeId((u64::from(i) * 7919 % nodes as u64) as u32)
}

/// One hostile regime active between two instants.
///
/// # Example
///
/// ```
/// use dtn_core::ids::NodeId;
/// use dtn_core::time::Time;
/// use dtn_sim::overlay::{OverlayKind, RegimeOverlay};
/// use dtn_trace::trace::Contact;
///
/// let blackout = RegimeOverlay::new(
///     Time(1000),
///     Time(2000),
///     OverlayKind::NclBlackout { nodes: vec![NodeId(3)] },
/// )
/// .expect("a non-empty window over one node");
/// let hit = Contact::new(NodeId(3), NodeId(5), Time(1500), Time(1560));
/// let spared = Contact::new(NodeId(4), NodeId(5), Time(1500), Time(1560));
/// assert!(blackout.drops(&hit));
/// assert!(!blackout.drops(&spared));
/// // Outside the window the blacked-out node is fine.
/// let after = Contact::new(NodeId(3), NodeId(5), Time(2000), Time(2060));
/// assert!(!blackout.drops(&after));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RegimeOverlay {
    /// Start of the hostile window (inclusive).
    pub start: Time,
    /// End of the hostile window (exclusive) — the heal instant.
    pub end: Time,
    /// What the regime does inside the window.
    pub kind: OverlayKind,
}

/// Why [`RegimeOverlay::new`] refused an overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlayError {
    /// The window `[start, end)` is empty.
    EmptyWindow,
    /// A blackout names no node.
    NoBlackoutNodes,
    /// A flash crowd issues no request.
    NoRequests,
    /// A famine injects no item, or items of zero size.
    EmptyFamine,
}

impl std::fmt::Display for OverlayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OverlayError::EmptyWindow => "overlay window must be non-empty",
            OverlayError::NoBlackoutNodes => "blackout needs at least one node",
            OverlayError::NoRequests => "flash crowd needs at least one request",
            OverlayError::EmptyFamine => "famine needs items of nonzero size",
        })
    }
}

impl std::error::Error for OverlayError {}

impl RegimeOverlay {
    /// Creates an overlay active on `[start, end)`, refusing an empty
    /// window and a degenerate kind (no blackout nodes, zero flash-crowd
    /// requests, zero famine items or a zero item size).
    pub fn new(start: Time, end: Time, kind: OverlayKind) -> Result<Self, OverlayError> {
        let refused = match &kind {
            _ if end <= start => OverlayError::EmptyWindow,
            OverlayKind::FlashCrowd { requests: 0, .. } => OverlayError::NoRequests,
            OverlayKind::NclBlackout { nodes } if nodes.is_empty() => OverlayError::NoBlackoutNodes,
            OverlayKind::BufferFamine { items, size } if *items == 0 || *size == 0 => {
                OverlayError::EmptyFamine
            }
            _ => return Ok(RegimeOverlay { start, end, kind }),
        };
        Err(refused)
    }

    /// Whether the overlay window covers `at` (start inclusive, end
    /// exclusive: the heal instant itself is already healthy).
    fn active_at(&self, at: Time) -> bool {
        self.start <= at && at < self.end
    }

    /// Whether this overlay suppresses `contact`. Classification keys
    /// on the contact's *start*: a contact beginning inside the window
    /// is hostile territory even if it would outlive the heal.
    pub fn drops(&self, contact: &Contact) -> bool {
        if !self.active_at(contact.start) {
            return false;
        }
        match &self.kind {
            OverlayKind::FlashCrowd { .. } | OverlayKind::BufferFamine { .. } => false,
            OverlayKind::NclBlackout { nodes } => {
                nodes.contains(&contact.a) || nodes.contains(&contact.b)
            }
            OverlayKind::Partition { cut } => (contact.a.0 < *cut) != (contact.b.0 < *cut),
        }
    }

    /// The workload half of the regime, fully deterministic (no RNG):
    /// flash-crowd queries spread evenly and in order over the window
    /// (query `i` at `start + span · i / requests`), famine filler
    /// items generated at the window start with lifetimes ending at the
    /// heal. Contact-only overlays return no events.
    ///
    /// `nodes` is the population size; `first_spare_item` must be a
    /// [`DataId`] range start unused by the real workload so famine
    /// fillers never collide with genuine items.
    pub fn workload_events(&self, nodes: usize, first_spare_item: u64) -> Vec<WorkloadEvent> {
        assert!(nodes > 0, "population must be non-empty");
        match &self.kind {
            OverlayKind::NclBlackout { .. } | OverlayKind::Partition { .. } => Vec::new(),
            OverlayKind::FlashCrowd {
                item,
                requests,
                constraint,
            } => {
                let span = u128::from(self.end.saturating_since(self.start).as_secs());
                (0..*requests)
                    .map(|i| WorkloadEvent::IssueQuery {
                        // `span · i` can overflow a u64; the quotient,
                        // below `span`, cannot.
                        at: self.start
                            + Duration((span * u128::from(i) / u128::from(*requests)) as u64),
                        requester: rotate(i, nodes),
                        data: *item,
                        constraint: *constraint,
                    })
                    .collect()
            }
            OverlayKind::BufferFamine { items, size } => {
                let lifetime = self.end.saturating_since(self.start);
                (0..*items)
                    .map(|i| WorkloadEvent::GenerateData {
                        item: DataItem::new(
                            DataId(first_spare_item + u64::from(i)),
                            rotate(i, nodes),
                            *size,
                            self.start,
                            lifetime,
                        ),
                    })
                    .collect()
            }
        }
    }
}

/// A [`ContactSource`] filtering another source through a stack of
/// [`RegimeOverlay`]s.
///
/// Overlays are drop-only, so the inner source's time order is
/// preserved by construction — the trace-monotonicity audit law holds
/// over the composed stream whenever it holds over the inner one.
#[derive(Debug)]
pub struct OverlaySource<C> {
    inner: C,
    overlays: Vec<RegimeOverlay>,
    dropped: u64,
}

impl<C: ContactSource> OverlaySource<C> {
    /// Stacks `overlays` over `inner`. An empty stack is a transparent
    /// pass-through.
    pub fn new(inner: C, overlays: Vec<RegimeOverlay>) -> Self {
        OverlaySource {
            inner,
            overlays,
            dropped: 0,
        }
    }

    /// Contacts suppressed by the stack so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The overlay stack.
    pub fn overlays(&self) -> &[RegimeOverlay] {
        &self.overlays
    }
}

impl<C: ContactSource> ContactSource for OverlaySource<C> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn end_time(&self) -> Time {
        self.inner.end_time()
    }

    fn peek(&mut self) -> Option<Contact> {
        loop {
            let contact = self.inner.peek()?;
            if self.overlays.iter().any(|o| o.drops(&contact)) {
                self.inner.advance();
                self.dropped += 1;
            } else {
                return Some(contact);
            }
        }
    }

    fn advance(&mut self) {
        self.inner.advance();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StreamSource;

    fn contact(a: u32, b: u32, start: u64) -> Contact {
        Contact::new(NodeId(a), NodeId(b), Time(start), Time(start + 60))
    }

    fn source(contacts: Vec<Contact>) -> StreamSource<std::vec::IntoIter<Contact>> {
        StreamSource::new(contacts.into_iter(), 10, Duration(10_000))
    }

    fn drain<C: ContactSource>(src: &mut C) -> Vec<Contact> {
        let mut out = Vec::new();
        while let Some(c) = src.peek() {
            out.push(c);
            src.advance();
        }
        out
    }

    #[test]
    fn blackout_drops_exactly_the_window_contacts_of_its_nodes() {
        let contacts = vec![
            contact(3, 4, 500),  // before the window: kept
            contact(3, 4, 1200), // node 3 inside: dropped
            contact(5, 6, 1300), // untouched nodes inside: kept
            contact(2, 3, 1900), // node 3 inside: dropped
            contact(3, 4, 2000), // heal instant: kept
        ];
        let overlay = RegimeOverlay::new(
            Time(1000),
            Time(2000),
            OverlayKind::NclBlackout {
                nodes: vec![NodeId(3)],
            },
        )
        .unwrap();
        let mut src = OverlaySource::new(source(contacts), vec![overlay]);
        let kept = drain(&mut src);
        assert_eq!(
            kept.iter().map(|c| c.start.as_secs()).collect::<Vec<_>>(),
            vec![500, 1300, 2000]
        );
        assert_eq!(src.dropped(), 2);
    }

    #[test]
    fn partition_drops_only_cross_cut_contacts() {
        let contacts = vec![
            contact(1, 2, 1100), // low side: kept
            contact(7, 8, 1200), // high side: kept
            contact(2, 7, 1300), // cross: dropped
            contact(4, 5, 1400), // straddles the cut boundary: dropped
        ];
        let overlay =
            RegimeOverlay::new(Time(1000), Time(2000), OverlayKind::Partition { cut: 5 }).unwrap();
        let mut src = OverlaySource::new(source(contacts), vec![overlay]);
        let kept = drain(&mut src);
        assert_eq!(kept.len(), 2);
        assert_eq!(src.dropped(), 2);
    }

    #[test]
    fn workload_overlays_leave_contacts_alone() {
        let contacts = vec![contact(1, 2, 1100), contact(3, 4, 1500)];
        let flash = RegimeOverlay::new(
            Time(1000),
            Time(2000),
            OverlayKind::FlashCrowd {
                item: DataId(9),
                requests: 4,
                constraint: Duration::hours(1),
            },
        )
        .unwrap();
        let famine = RegimeOverlay::new(
            Time(1000),
            Time(2000),
            OverlayKind::BufferFamine {
                items: 3,
                size: 1_000_000,
            },
        )
        .unwrap();
        let mut src = OverlaySource::new(source(contacts.clone()), vec![flash, famine]);
        assert_eq!(drain(&mut src), contacts);
        assert_eq!(src.dropped(), 0);
    }

    #[test]
    fn flash_crowd_workload_is_deterministic_and_windowed() {
        let overlay = RegimeOverlay::new(
            Time(1000),
            Time(2000),
            OverlayKind::FlashCrowd {
                item: DataId(9),
                requests: 5,
                constraint: Duration::hours(1),
            },
        )
        .unwrap();
        let events = overlay.workload_events(10, 100);
        assert_eq!(events, overlay.workload_events(10, 100), "deterministic");
        assert_eq!(events.len(), 5);
        let mut requesters = std::collections::BTreeSet::new();
        for e in &events {
            let WorkloadEvent::IssueQuery {
                at,
                requester,
                data,
                ..
            } = e
            else {
                panic!("flash crowd only issues queries");
            };
            assert!(overlay.active_at(*at), "query at {at:?} outside window");
            assert_eq!(*data, DataId(9));
            requesters.insert(*requester);
        }
        assert!(requesters.len() > 1, "storm must come from several nodes");
    }

    #[test]
    fn famine_fillers_use_spare_ids_and_expire_at_the_heal() {
        let overlay = RegimeOverlay::new(
            Time(1000),
            Time(4000),
            OverlayKind::BufferFamine {
                items: 3,
                size: 500,
            },
        )
        .unwrap();
        let events = overlay.workload_events(10, 777);
        assert_eq!(events.len(), 3);
        for (i, e) in events.iter().enumerate() {
            let WorkloadEvent::GenerateData { item } = e else {
                panic!("famine only generates data");
            };
            assert_eq!(item.id, DataId(777 + i as u64));
            assert_eq!(item.created_at, Time(1000));
            assert_eq!(item.size, 500);
            assert_eq!(item.expires_at(), Time(4000), "fillers die at the heal");
        }
        // Contact-only overlays inject nothing.
        let blackout = RegimeOverlay::new(
            Time(0),
            Time(10),
            OverlayKind::NclBlackout {
                nodes: vec![NodeId(0)],
            },
        )
        .unwrap();
        assert!(blackout.workload_events(10, 0).is_empty());
    }

    #[test]
    fn stacked_overlays_compose_and_preserve_order() {
        let contacts = vec![
            contact(1, 2, 100),
            contact(1, 7, 1100), // cross-partition: dropped
            contact(2, 3, 1200), // blackout node 3: dropped
            contact(1, 2, 1300), // survives both
            contact(6, 7, 1400), // high side intra: survives
        ];
        let overlays = vec![
            RegimeOverlay::new(Time(1000), Time(2000), OverlayKind::Partition { cut: 5 }).unwrap(),
            RegimeOverlay::new(
                Time(1000),
                Time(2000),
                OverlayKind::NclBlackout {
                    nodes: vec![NodeId(3)],
                },
            )
            .unwrap(),
        ];
        let mut src = OverlaySource::new(source(contacts), overlays);
        let kept = drain(&mut src);
        assert_eq!(
            kept.iter().map(|c| c.start.as_secs()).collect::<Vec<_>>(),
            vec![100, 1300, 1400]
        );
        assert!(kept.windows(2).all(|w| w[0].start <= w[1].start));
        assert_eq!(src.dropped(), 2);
    }

    #[test]
    fn degenerate_overlays_are_refused() {
        let new = |start, end, kind| RegimeOverlay::new(Time(start), Time(end), kind);
        let cut = OverlayKind::Partition { cut: 1 };
        assert_eq!(new(100, 100, cut.clone()), Err(OverlayError::EmptyWindow));
        assert_eq!(new(100, 50, cut.clone()), Err(OverlayError::EmptyWindow));
        assert!(new(100, 101, cut).is_ok());
        assert_eq!(
            new(0, 100, OverlayKind::NclBlackout { nodes: vec![] }),
            Err(OverlayError::NoBlackoutNodes)
        );
        let storm = |requests| OverlayKind::FlashCrowd {
            item: DataId(0),
            requests,
            constraint: Duration(1),
        };
        assert_eq!(new(0, 100, storm(0)), Err(OverlayError::NoRequests));
        assert!(new(0, 100, storm(1)).is_ok());
        let famine = |items, size| OverlayKind::BufferFamine { items, size };
        assert_eq!(new(0, 100, famine(0, 10)), Err(OverlayError::EmptyFamine));
        assert_eq!(new(0, 100, famine(3, 0)), Err(OverlayError::EmptyFamine));
        assert!(new(0, 100, famine(3, 10)).is_ok());
        // The window is checked first, and every refusal explains itself.
        let err = new(7, 7, storm(0)).unwrap_err();
        assert_eq!(err, OverlayError::EmptyWindow);
        assert_eq!(err.to_string(), "overlay window must be non-empty");
    }

    #[test]
    fn a_long_flash_crowd_window_issues_its_queries_in_order() {
        // span · i overflowed u64 here: debug builds panicked, release
        // builds placed the fourth query before the third.
        let overlay = RegimeOverlay::new(
            Time(0),
            Time(u64::MAX / 2),
            OverlayKind::FlashCrowd {
                item: DataId(1),
                requests: 4,
                constraint: Duration(1),
            },
        )
        .unwrap();
        let times: Vec<Time> = overlay
            .workload_events(10, 0)
            .iter()
            .map(WorkloadEvent::at)
            .collect();
        assert_eq!(times.len(), 4);
        assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");
        assert!(times.iter().all(|&at| overlay.active_at(at)), "{times:?}");
        assert_eq!(times[3].0 as u128, u128::from(u64::MAX / 2) * 3 / 4);
    }

    #[test]
    fn a_hand_built_reversed_window_issues_its_queries_at_the_start() {
        // The fields are public, so `new`'s window check can be skipped.
        let overlay = RegimeOverlay {
            start: Time(500),
            end: Time(100),
            kind: OverlayKind::FlashCrowd {
                item: DataId(1),
                requests: 3,
                constraint: Duration(1),
            },
        };
        let times: Vec<Time> = overlay
            .workload_events(10, 0)
            .iter()
            .map(WorkloadEvent::at)
            .collect();
        assert_eq!(times, vec![Time(500); 3]);
    }

    #[test]
    fn overlay_names_are_stable() {
        assert_eq!(
            OverlayKind::FlashCrowd {
                item: DataId(0),
                requests: 1,
                constraint: Duration(1)
            }
            .name(),
            "flash-crowd"
        );
        assert_eq!(
            OverlayKind::NclBlackout {
                nodes: vec![NodeId(0)]
            }
            .name(),
            "ncl-blackout"
        );
        assert_eq!(OverlayKind::Partition { cut: 1 }.name(), "partition");
        assert_eq!(
            OverlayKind::BufferFamine { items: 1, size: 1 }.name(),
            "buffer-famine"
        );
    }
}
