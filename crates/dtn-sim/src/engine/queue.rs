//! The engine's queue of pending workload events, in the compact arrays
//! [`Simulator::add_workload`](super::Simulator::add_workload) fills and
//! `run_until` drains.

use dtn_core::ids::{DataId, NodeId};
use dtn_core::time::{Duration, Time};

use crate::message::DataItem;

use super::WorkloadEvent;

/// Consecutive queued queries that share their instant, their
/// constraint and the queued items before them: 24 B for the whole run.
/// §VI-A issues queries in batches (each node draws once per live item
/// every `T_L/2`), so one run holds a batch.
#[derive(Debug, Clone, Copy)]
pub(super) struct Run {
    at: Time,
    constraint: Duration,
    items_before: u32,
    /// One past the run's last query, as an index into the query arrays.
    end: u32,
}

/// Pending workload events in dispatch order, split into the data items
/// and the queries; a query keeps its requester and data id (12 B), and
/// its run says where it interleaves with the items. Every array keeps
/// its consumed prefix until the next [`push`](Self::push) rebuilds them.
#[derive(Debug, Clone, Default)]
pub(super) struct WorkloadQueue {
    pub(super) runs: Vec<Run>,
    next_run: usize,
    pub(super) requesters: Vec<NodeId>,
    pub(super) data: Vec<DataId>,
    next_query: usize,
    pub(super) items: Vec<DataItem>,
    next_item: usize,
}

/// The run key of a query that `items_before` queued items precede.
fn run_key(event: &WorkloadEvent, items_before: usize) -> Option<(Time, Duration, usize)> {
    match *event {
        WorkloadEvent::IssueQuery { at, constraint, .. } => Some((at, constraint, items_before)),
        WorkloadEvent::GenerateData { .. } => None,
    }
}

impl WorkloadQueue {
    /// Queues `events` behind the pending ones: a stable sort by time of
    /// `pending ++ events` (no sort when already in order), so the
    /// pending events win ties and equal-time new events keep their
    /// submission order. Every array is allocated at its final size.
    /// The caller holds the pending count to `u32::MAX`.
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
        // One counting pass: a query opens a run unless the query before
        // it has its key.
        let (mut queries, mut runs, mut items) = (0, 0, 0);
        let mut open = None;
        for event in &all {
            match run_key(event, items) {
                Some(key) => {
                    queries += 1;
                    if open != Some(key) {
                        runs += 1;
                        open = Some(key);
                    }
                }
                None => items += 1,
            }
        }
        *self = WorkloadQueue::default();
        self.runs.reserve_exact(runs);
        self.requesters.reserve_exact(queries);
        self.data.reserve_exact(queries);
        self.items.reserve_exact(items);
        let index =
            |n: usize| u32::try_from(n).expect("the caller holds the pending count to u32::MAX");
        for event in all {
            match event {
                WorkloadEvent::IssueQuery {
                    at,
                    requester,
                    data,
                    constraint,
                } => {
                    let items_before = index(self.items.len());
                    self.requesters.push(requester);
                    self.data.push(data);
                    let end = index(self.requesters.len());
                    // The last run ends at the query before this one.
                    match self.runs.last_mut() {
                        Some(run)
                            if (run.at, run.constraint, run.items_before)
                                == (at, constraint, items_before) =>
                        {
                            run.end = end;
                        }
                        _ => self.runs.push(Run {
                            at,
                            constraint,
                            items_before,
                            end,
                        }),
                    }
                }
                WorkloadEvent::GenerateData { item } => self.items.push(item),
            }
        }
    }

    /// Whether the next event is the head query (`Some(true)`) or the
    /// head item (`Some(false)`); `None` when nothing is pending.
    fn query_next(&self) -> Option<bool> {
        match self.runs.get(self.next_run) {
            Some(run) => Some(run.items_before as usize == self.next_item),
            None => (self.next_item < self.items.len()).then_some(false),
        }
    }

    /// The instant the next event fires.
    pub(super) fn peek_at(&self) -> Option<Time> {
        Some(match self.query_next()? {
            true => self.runs[self.next_run].at,
            false => self.items[self.next_item].created_at,
        })
    }

    /// Removes the next event and returns it as submitted.
    pub(super) fn pop(&mut self) -> Option<WorkloadEvent> {
        Some(if self.query_next()? {
            let run = self.runs[self.next_run];
            let i = self.next_query;
            self.next_query += 1;
            if self.next_query == run.end as usize {
                self.next_run += 1;
            }
            WorkloadEvent::IssueQuery {
                at: run.at,
                requester: self.requesters[i],
                data: self.data[i],
                constraint: run.constraint,
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
        self.requesters.len() - self.next_query
    }

    /// Events still pending.
    pub(super) fn len(&self) -> usize {
        self.queries_pending() + self.items.len() - self.next_item
    }
}
