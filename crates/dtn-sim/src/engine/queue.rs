//! The engine's queue of pending workload events, in the two compact
//! arrays [`Simulator::add_workload`](super::Simulator::add_workload)
//! fills and `run_until` drains.

use dtn_core::ids::{DataId, NodeId};
use dtn_core::time::{Duration, Time};

use crate::message::DataItem;

use super::WorkloadEvent;

/// A queued `IssueQuery` and how many queued items come before it: 32 B,
/// where a [`WorkloadEvent`] takes 48.
#[derive(Debug, Clone, Copy)]
pub(super) struct QueuedQuery {
    at: Time,
    data: DataId,
    constraint: Duration,
    requester: NodeId,
    items_before: u32,
}

/// Pending workload events in dispatch order, split into the queries and
/// the data items; a query's `items_before` says where the two
/// interleave. Both arrays keep their consumed prefix until the next
/// [`push`](Self::push) rebuilds them.
#[derive(Debug, Clone, Default)]
pub(super) struct WorkloadQueue {
    pub(super) queries: Vec<QueuedQuery>,
    next_query: usize,
    pub(super) items: Vec<DataItem>,
    next_item: usize,
}

impl WorkloadQueue {
    /// Queues `events` behind the pending ones: a stable sort by time of
    /// `pending ++ events` (no sort when already in order), so the
    /// pending events win ties and equal-time new events keep their
    /// submission order. The caller holds the pending count to
    /// `u32::MAX`.
    pub(super) fn push(&mut self, events: Vec<WorkloadEvent>) {
        let mut all: Vec<WorkloadEvent> = std::iter::from_fn(|| self.pop()).collect();
        if all.is_empty() {
            all = events;
        } else {
            all.extend(events);
        }
        if !all.is_sorted_by_key(WorkloadEvent::at) {
            all.sort_by_key(WorkloadEvent::at);
        }
        let queries = all
            .iter()
            .filter(|e| matches!(e, WorkloadEvent::IssueQuery { .. }))
            .count();
        *self = WorkloadQueue::default();
        self.queries.reserve_exact(queries);
        self.items.reserve_exact(all.len() - queries);
        for event in all {
            match event {
                WorkloadEvent::IssueQuery {
                    at,
                    requester,
                    data,
                    constraint,
                } => self.queries.push(QueuedQuery {
                    at,
                    data,
                    constraint,
                    requester,
                    items_before: u32::try_from(self.items.len())
                        .expect("the caller holds the pending count to u32::MAX"),
                }),
                WorkloadEvent::GenerateData { item } => self.items.push(item),
            }
        }
    }

    /// Whether the next event is the head query (`Some(true)`) or the
    /// head item (`Some(false)`); `None` when nothing is pending.
    fn query_next(&self) -> Option<bool> {
        match self.queries.get(self.next_query) {
            Some(q) => Some(q.items_before as usize == self.next_item),
            None => (self.next_item < self.items.len()).then_some(false),
        }
    }

    /// The instant the next event fires.
    pub(super) fn peek_at(&self) -> Option<Time> {
        Some(match self.query_next()? {
            true => self.queries[self.next_query].at,
            false => self.items[self.next_item].created_at,
        })
    }

    /// Removes the next event and returns it as submitted.
    pub(super) fn pop(&mut self) -> Option<WorkloadEvent> {
        Some(if self.query_next()? {
            let q = self.queries[self.next_query];
            self.next_query += 1;
            WorkloadEvent::IssueQuery {
                at: q.at,
                requester: q.requester,
                data: q.data,
                constraint: q.constraint,
            }
        } else {
            self.next_item += 1;
            WorkloadEvent::GenerateData {
                item: self.items[self.next_item - 1],
            }
        })
    }

    /// Queries still pending.
    pub(super) fn queries_pending(&self) -> usize {
        self.queries.len() - self.next_query
    }

    /// Events still pending.
    pub(super) fn len(&self) -> usize {
        self.queries_pending() + self.items.len() - self.next_item
    }
}
