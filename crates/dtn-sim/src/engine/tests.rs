//! Event-loop and audit-glue tests, plus the fixtures the sibling
//! modules' tests share.

use super::*;
use crate::message::DataItem;
use dtn_core::ids::DataId;
use dtn_trace::synthetic::SyntheticTraceBuilder;

/// Test scheme: the data source keeps its item; on contact with the
/// requester of an open query for an item it holds, it "delivers".
#[derive(Default)]
pub(super) struct DirectDelivery {
    holdings: Vec<(NodeId, DataItem)>,
    open_queries: Vec<Query>,
    pub(super) contacts_seen: u64,
    transmit_result: Vec<bool>,
}

impl Scheme for DirectDelivery {
    fn on_data_generated(&mut self, _ctx: &mut SimCtx<'_>, item: DataItem) {
        self.holdings.push((item.source, item));
    }
    fn on_query_issued(&mut self, _ctx: &mut SimCtx<'_>, query: Query) {
        self.open_queries.push(query);
    }
    fn on_contact(&mut self, ctx: &mut SimCtx<'_>, contact: Contact) {
        self.contacts_seen += 1;
        let mut delivered = Vec::new();
        for (i, q) in self.open_queries.iter().enumerate() {
            if !contact.involves(q.requester) {
                continue;
            }
            let peer = contact.peer_of(q.requester);
            if let Some((_, item)) = self
                .holdings
                .iter()
                .find(|(holder, item)| *holder == peer && item.id == q.data)
            {
                let ok = ctx.try_transmit(item.size);
                self.transmit_result.push(ok);
                if ok {
                    ctx.mark_delivered(q.id);
                    delivered.push(i);
                }
            }
        }
        for i in delivered.into_iter().rev() {
            self.open_queries.swap_remove(i);
        }
    }
    fn cache_stats(&self, _now: Time) -> CacheStats {
        CacheStats {
            copies: self.holdings.len() as u64,
            distinct: self.holdings.len() as u64,
            bytes: self.holdings.iter().map(|(_, d)| d.size).sum(),
        }
    }
}

pub(super) fn two_node_trace() -> ContactTrace {
    ContactTrace::new(
        2,
        vec![
            Contact::new(NodeId(0), NodeId(1), Time(1000), Time(1100)),
            Contact::new(NodeId(0), NodeId(1), Time(5000), Time(5100)),
        ],
        Duration(10_000),
    )
}

pub(super) fn gen_event(id: u64, source: u32, size: u64, at: u64, life: u64) -> WorkloadEvent {
    WorkloadEvent::GenerateData {
        item: DataItem::new(DataId(id), NodeId(source), size, Time(at), Duration(life)),
    }
}

pub(super) fn query_event(at: u64, requester: u32, data: u64, constraint: u64) -> WorkloadEvent {
    WorkloadEvent::IssueQuery {
        at: Time(at),
        requester: NodeId(requester),
        data: DataId(data),
        constraint: Duration(constraint),
    }
}

/// A scheme that never forgets: it re-delivers every known query on
/// every contact, like a multi-copy response arriving over several
/// paths.
#[derive(Default)]
pub(super) struct RedundantDelivery {
    queries: Vec<QueryId>,
    pub(super) outcomes: Vec<DeliveryOutcome>,
}

impl Scheme for RedundantDelivery {
    fn on_data_generated(&mut self, _ctx: &mut SimCtx<'_>, _item: DataItem) {}
    fn on_query_issued(&mut self, _ctx: &mut SimCtx<'_>, query: Query) {
        self.queries.push(query.id);
    }
    fn on_contact(&mut self, ctx: &mut SimCtx<'_>, _contact: Contact) {
        for &q in &self.queries {
            self.outcomes.push(ctx.mark_delivered(q));
        }
    }
    fn cache_stats(&self, _now: Time) -> CacheStats {
        CacheStats::default()
    }
}

#[test]
fn query_satisfied_on_contact() {
    let trace = two_node_trace();
    let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
    sim.add_workload(vec![
        gen_event(1, 0, 1000, 100, 9000),
        query_event(200, 1, 1, 5000),
    ]);
    sim.run_to_end();
    let m = sim.metrics();
    assert_eq!(m.queries_issued, 1);
    assert_eq!(m.queries_satisfied, 1);
    // satisfied at the t=1000 contact, issued at 200 → delay 800
    assert_eq!(m.total_delay_secs, 800);
    assert_eq!(m.data_generated, 1);
    assert_eq!(m.bytes_transmitted, 1000);
}

#[test]
fn expired_query_is_not_satisfied() {
    let trace = two_node_trace();
    let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
    sim.add_workload(vec![
        gen_event(1, 0, 1000, 100, 9000),
        query_event(200, 1, 1, 300), // expires at 500, first contact at 1000
    ]);
    sim.run_to_end();
    let m = sim.metrics();
    assert_eq!(m.queries_satisfied, 0);
    assert_eq!(m.late_deliveries, 1);
    assert!((m.success_ratio() - 0.0).abs() < 1e-12);
}

#[test]
fn duplicate_delivery_counted_once() {
    let trace = two_node_trace();
    let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
    sim.add_workload(vec![
        gen_event(1, 0, 10, 100, 9500),
        query_event(200, 1, 1, 9000),
        query_event(210, 1, 1, 9000),
    ]);
    sim.run_to_end();
    // Two distinct queries for the same data both get satisfied (they
    // are independent); satisfy count is 2, duplicates 0.
    assert_eq!(sim.metrics().queries_satisfied, 2);
    assert_eq!(sim.metrics().duplicate_deliveries, 0);
}

#[test]
fn rate_table_updates_during_run() {
    let trace = two_node_trace();
    let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
    sim.run_until(Time(2000));
    assert_eq!(sim.rate_table().contact_count(NodeId(0), NodeId(1)), 1);
    sim.run_to_end();
    assert_eq!(sim.rate_table().contact_count(NodeId(0), NodeId(1)), 2);
}

#[test]
fn run_until_is_exclusive_and_advances_clock() {
    let trace = two_node_trace();
    let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
    sim.run_until(Time(1000));
    assert_eq!(sim.scheme().contacts_seen, 0, "t=1000 contact excluded");
    assert_eq!(sim.now(), Time(1000));
    sim.run_until(Time(1001));
    assert_eq!(sim.scheme().contacts_seen, 1);
    sim.run_to_end();
    assert_eq!(sim.scheme().contacts_seen, 2, "last contact dispatched");
}

#[test]
fn workload_added_midway_is_processed() {
    let trace = two_node_trace();
    let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
    sim.run_until(Time(3000));
    sim.add_workload(vec![
        gen_event(1, 0, 10, 3100, 6000),
        query_event(3200, 1, 1, 6000),
    ]);
    sim.run_to_end();
    assert_eq!(sim.metrics().queries_satisfied, 1);
    // satisfied at t=5000 contact → delay 1800
    assert_eq!(sim.metrics().total_delay_secs, 1800);
}

#[test]
fn interleaved_add_workload_preserves_tie_order() {
    let trace = two_node_trace();
    let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
    sim.add_workload(vec![
        gen_event(1, 0, 10, 300, 9000),
        gen_event(2, 0, 10, 500, 9000),
    ]);
    // Consume the t=300 event so the merge runs against a tail with a
    // processed prefix in front of it.
    sim.run_until(Time(400));
    // New same-time events must land *after* the already-queued t=500
    // event (tail wins ties), while an earlier new event slots in
    // front; a third call's t=500 event goes after both.
    sim.add_workload(vec![
        gen_event(3, 0, 10, 500, 9000),
        gen_event(4, 0, 10, 450, 9000),
    ]);
    sim.add_workload(vec![gen_event(5, 0, 10, 500, 9000)]);
    let ids: Vec<u64> = pending(&sim)
        .iter()
        .map(|e| match e {
            WorkloadEvent::GenerateData { item } => item.id.0,
            _ => unreachable!("only data events queued"),
        })
        .collect();
    assert_eq!(ids, vec![4, 2, 3, 5]);
    sim.run_to_end();
    assert_eq!(sim.metrics().data_generated, 5);
}

/// The events `sim` has yet to dispatch, in dispatch order.
fn pending<S, C>(sim: &Simulator<S, C>) -> Vec<WorkloadEvent> {
    let mut queue = sim.workload.clone();
    std::iter::from_fn(|| queue.pop()).collect()
}

/// `d<id>` for a data event, `q<data>` for a query.
fn label(event: &WorkloadEvent) -> String {
    match event {
        WorkloadEvent::GenerateData { item } => format!("d{}", item.id.0),
        WorkloadEvent::IssueQuery { data, .. } => format!("q{}", data.0),
    }
}

#[test]
fn queries_and_items_interleave_as_one_stable_sort() {
    // Three calls, data and query events at equal times, a consumed
    // prefix before the second: the arrays merge into the order a
    // stable time sort of `tail ++ events` gives after each call.
    let calls = [
        vec![
            gen_event(1, 0, 10, 300, 9000),
            query_event(500, 1, 10, 9000),
            gen_event(2, 0, 10, 500, 9000),
            query_event(300, 1, 11, 9000),
        ],
        vec![
            gen_event(3, 0, 10, 500, 9000),
            query_event(450, 1, 12, 9000),
            query_event(500, 0, 13, 9000),
        ],
        vec![
            query_event(500, 1, 14, 9000),
            gen_event(4, 0, 10, 450, 9000),
            gen_event(5, 0, 10, 500, 9000),
        ],
    ];
    let trace = two_node_trace();
    let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
    let mut model: Vec<WorkloadEvent> = Vec::new();
    for (i, events) in calls.into_iter().enumerate() {
        model.extend(events.iter().copied());
        model.sort_by_key(WorkloadEvent::at);
        sim.add_workload(events);
        assert_eq!(pending(&sim), model, "after call {i}");
        if i == 0 {
            assert_eq!(
                pending(&sim).iter().map(label).collect::<Vec<_>>(),
                ["d1", "q11", "q10", "d2"]
            );
            sim.run_until(Time(400));
            model.drain(..2);
            assert_eq!(pending(&sim), model, "after the consumed prefix");
        }
    }
    assert_eq!(
        pending(&sim).iter().map(label).collect::<Vec<_>>(),
        ["q12", "d4", "q10", "d2", "d3", "q13", "q14", "d5"]
    );
    sim.run_to_end();
    assert_eq!(sim.metrics().data_generated, 5);
    assert_eq!(sim.metrics().queries_issued, 5);
    assert!(pending(&sim).is_empty());

    // Runs: queries at one instant split by an item between them, by a
    // second constraint, and by a call that lands while a run is half
    // consumed.
    let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
    let first = vec![
        query_event(600, 1, 20, 900),
        query_event(600, 0, 21, 900),
        gen_event(6, 0, 10, 600, 9000),
        query_event(600, 1, 22, 900),
        query_event(600, 1, 23, 700),
        query_event(600, 0, 24, 900),
        query_event(700, 1, 25, 900),
        query_event(700, 0, 26, 900),
        query_event(700, 1, 27, 900),
        query_event(700, 0, 28, 900),
    ];
    let mut model = first.clone();
    sim.add_workload(first);
    assert_eq!(pending(&sim), model);
    let runs = |sim: &Simulator<_, _>| sim.workload.runs.len();
    // [q20 q21] d6 [q22] [q23] [q24] [q25 .. q28]: the item and the
    // 700-s constraint each split the 600-s batch.
    assert_eq!(runs(&sim), 5);
    sim.run_until(Time(650));
    model.drain(..6);
    for _ in 0..2 {
        sim.workload.pop().expect("the 700-s run is pending");
    }
    model.drain(..2);
    assert_eq!(pending(&sim), model, "half the run consumed");
    let second = vec![
        query_event(700, 1, 29, 900),
        gen_event(7, 0, 10, 700, 9000),
        query_event(680, 0, 30, 900),
    ];
    model.extend(second.iter().copied());
    model.sort_by_key(WorkloadEvent::at);
    sim.add_workload(second);
    assert_eq!(pending(&sim), model, "after a call mid-run");
    assert_eq!(
        pending(&sim).iter().map(label).collect::<Vec<_>>(),
        ["q30", "q27", "q28", "q29", "d7"]
    );
    // [q30] [q27 q28 q29] d7: the run's tail and the new equal-time
    // query are one run again.
    assert_eq!(runs(&sim), 2);
    sim.run_to_end();
    assert_eq!(sim.metrics().queries_issued, 9);
    assert!(pending(&sim).is_empty());
}

#[test]
fn a_queued_query_costs_12_bytes_and_its_batch_24() {
    use super::ctx::QueryRecord;
    use super::queue::Run;
    use std::mem::size_of;
    assert_eq!(size_of::<WorkloadEvent>(), 48);
    assert_eq!(size_of::<Run>(), 24);
    assert_eq!(size_of::<NodeId>() + size_of::<DataId>(), 12);
    assert_eq!(size_of::<DataItem>(), 40);
    assert_eq!(size_of::<QueryRecord>(), 24);
    let queue_bytes = |sim: &Simulator<_, _>| {
        let queue = &sim.workload;
        queue.runs.capacity() * size_of::<Run>()
            + queue.requesters.capacity() * size_of::<NodeId>()
            + queue.data.capacity() * size_of::<DataId>()
            + queue.items.capacity() * size_of::<DataItem>()
    };
    // paper_fig10's T_L = 12 h cell (8 640 s at trace scale 0.2, seed
    // 42) queues 47 040 queries and 4 303 items: 2 464 464 B as
    // `WorkloadEvent`s, 1 677 400 B as 32-B query records. Its queries
    // come in 491 batches, one every T_L/2 = 4 320 s from 4 320 s into
    // the window on; items are created every T_L from the window's
    // start, before that instant's batch.
    let (start, batches, queries, items) = (2_125_440, 491, 47_040u64, 4_303u64);
    let share = |total: u64, i: u64, of: u64| total * (i + 1) / of - total * i / of;
    let mut events = Vec::new();
    let (mut query, mut item) = (0, 0);
    for instant in 0..=batches {
        let at = start + 4_320 * instant;
        if instant % 2 == 0 {
            for _ in 0..share(items, instant / 2, batches / 2 + 1) {
                events.push(gen_event(item, (item % 97) as u32, 10, at, 8_640));
                item += 1;
            }
        }
        if instant > 0 {
            for _ in 0..share(queries, instant - 1, batches) {
                events.push(query_event(at, (query % 97) as u32, query % 4_303, 4_320));
                query += 1;
            }
        }
    }
    assert_eq!((query, item), (queries, items));
    let trace = two_node_trace();
    let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
    sim.add_workload(events);
    assert!(sim.workload.runs.len() <= batches as usize);
    let bytes = queue_bytes(&sim);
    assert_eq!(
        bytes,
        sim.workload.runs.len() * 24 + queries as usize * 12 + items as usize * 40
    );
    assert!(bytes <= 748_384, "{bytes} B of queue");
    assert_eq!(sim.shared.queries.capacity(), 0, "no record before a query");

    // The worst case, no two queries in one run: 36 B a query.
    // `city_5k` queues 128 queries at distinct instants.
    let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
    sim.add_workload((0..128).map(|i| query_event(100 + i, 1, 0, 600)).collect());
    assert_eq!(queue_bytes(&sim), 128 * 36);
}

#[test]
fn query_records_are_reserved_once_for_every_query_issued() {
    // Two calls, the second after the first call's queries were
    // dispatched; the audit's query-conservation law holds at every
    // sweep, and the records end at exactly one slot per query.
    let trace = two_node_trace();
    let cfg = SimConfig {
        audit: true,
        epoch_interval: Some(Duration(700)),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&trace, RedundantDelivery::default(), cfg);
    sim.add_workload((0..5).map(|i| query_event(100 + i, 1, i, 9000)).collect());
    sim.run_until(Time(200));
    assert_eq!(sim.shared.queries.capacity(), 5);
    sim.add_workload((0..3).map(|i| query_event(3000 + i, 0, i, 400)).collect());
    sim.run_to_end();
    let m = sim.metrics();
    assert_eq!(m.queries_issued, 8);
    assert_eq!(sim.shared.queries.capacity(), 8);
    assert_eq!(m.queries_satisfied, 5, "the second call's expire first");
    let report = sim.audit_report().expect("audit enabled");
    assert!(report.is_clean(), "{}", report.summary());
    assert!(report.sweeps() > 2);
}

#[test]
fn a_past_event_is_a_typed_error_and_queues_nothing() {
    let trace = two_node_trace();
    let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
    sim.run_until(Time(5000));
    let err = sim
        .try_add_workload(vec![
            query_event(6000, 0, 1, 50),
            gen_event(1, 0, 10, 4000, 50),
            query_event(100, 0, 1, 50),
        ])
        .unwrap_err();
    let CoreError::InvalidParameter { name, reason } = &err;
    assert_eq!(*name, "events");
    assert!(reason.contains("event 1 at Time(4000)"), "{reason}");
    assert!(pending(&sim).is_empty());
    sim.try_add_workload(vec![query_event(5000, 0, 1, 50)])
        .expect("now is not the past");
    assert_eq!(pending(&sim).len(), 1);
}

#[test]
fn merged_workload_still_wins_ties_against_contacts() {
    // Data generated and queried at exactly the first contact's start
    // time (t=1000) must be processed before that contact, so the
    // delivery happens during the same-instant contact with zero delay.
    let trace = two_node_trace();
    let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
    sim.add_workload(vec![gen_event(1, 0, 10, 1000, 9000)]);
    sim.add_workload(vec![query_event(1000, 1, 1, 5000)]);
    sim.run_to_end();
    assert_eq!(sim.metrics().queries_satisfied, 1);
    assert_eq!(sim.metrics().total_delay_secs, 0);
}

#[test]
#[should_panic(expected = "in the past")]
fn past_workload_panics() {
    let trace = two_node_trace();
    let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
    sim.run_until(Time(5000));
    sim.add_workload(vec![query_event(100, 0, 1, 50)]);
}

#[test]
fn samples_taken_at_interval() {
    let trace = two_node_trace();
    let cfg = SimConfig {
        sample_interval: Duration(1000),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&trace, DirectDelivery::default(), cfg);
    sim.add_workload(vec![gen_event(1, 0, 10, 100, 9000)]);
    sim.run_to_end();
    let samples = &sim.metrics().samples;
    // Samples land on events: the t=1000 contact, the t=5000 contact
    // and the end-of-trace boundary.
    assert!(samples.len() >= 3, "got {} samples", samples.len());
    assert_eq!(samples[0].at, Time(1000));
    assert_eq!(samples[0].copies, 1);
    for w in samples.windows(2) {
        assert!(w[1].at > w[0].at, "sample times must advance");
    }
}

#[test]
fn full_contact_loss_silences_the_network() {
    let trace = two_node_trace();
    let cfg = SimConfig {
        contact_loss_probability: 1.0,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&trace, DirectDelivery::default(), cfg);
    sim.add_workload(vec![
        gen_event(1, 0, 10, 100, 9000),
        query_event(200, 1, 1, 9000),
    ]);
    sim.run_to_end();
    let m = sim.metrics();
    assert_eq!(m.contacts_lost, 2);
    assert_eq!(m.queries_satisfied, 0);
    assert_eq!(m.bytes_transmitted, 0);
    assert_eq!(
        sim.rate_table().total_contacts(),
        0,
        "lost contacts are invisible"
    );
    assert_eq!(sim.scheme().contacts_seen, 0);
}

#[test]
fn partial_contact_loss_drops_roughly_that_fraction() {
    // A denser synthetic trace: about half the contacts must vanish.
    let trace = SyntheticTraceBuilder::new(10)
        .duration(dtn_core::time::Duration::days(1))
        .target_contacts(2_000)
        .seed(3)
        .build();
    let cfg = SimConfig {
        contact_loss_probability: 0.5,
        seed: 7,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&trace, DirectDelivery::default(), cfg);
    sim.run_to_end();
    let lost = sim.metrics().contacts_lost as f64;
    let total = trace.contact_count() as f64;
    assert!((lost / total - 0.5).abs() < 0.06, "lost {lost} of {total}");
}

#[test]
fn audit_off_reports_nothing() {
    let trace = two_node_trace();
    let mut sim = Simulator::new(&trace, DirectDelivery::default(), SimConfig::default());
    sim.run_to_end();
    assert!(sim.audit_report().is_none());
}

#[test]
fn audit_clean_on_mixed_outcomes() {
    // Satisfied + duplicate + late deliveries in one run: every
    // conservation law holds at each contact and epoch sweep.
    let trace = two_node_trace();
    let cfg = SimConfig {
        audit: true,
        epoch_interval: Some(Duration(2_000)),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&trace, RedundantDelivery::default(), cfg);
    sim.add_workload(vec![
        query_event(200, 1, 1, 9000), // satisfied at 1000, duplicate at 5000
        query_event(300, 0, 2, 400),  // expires at 700: late at both contacts
    ]);
    sim.run_to_end();
    let m = sim.metrics();
    assert_eq!(m.queries_satisfied, 1);
    assert_eq!(m.duplicate_deliveries, 1);
    assert_eq!(m.late_deliveries, 2);
    let report = sim.audit_report().expect("audit enabled");
    assert!(report.is_clean(), "{}", report.summary());
    assert!(
        report.sweeps() > 2,
        "epochs must sweep too, got {}",
        report.sweeps()
    );
}

#[test]
fn audit_catches_metric_drift() {
    // A scheme whose audit hook reports its own violation proves the
    // plumbing end to end: the report surfaces through the engine.
    struct SelfAccusing;
    impl Scheme for SelfAccusing {
        fn on_data_generated(&mut self, _: &mut SimCtx<'_>, _: DataItem) {}
        fn on_query_issued(&mut self, _: &mut SimCtx<'_>, _: Query) {}
        fn on_contact(&mut self, _: &mut SimCtx<'_>, _: Contact) {}
        fn cache_stats(&self, _: Time) -> CacheStats {
            CacheStats::default()
        }
        fn audit(&self, now: Time, report: &mut AuditReport) {
            report.violate(AuditViolation {
                law: AuditLaw::CopyConservation,
                at: now,
                node: Some(NodeId(0)),
                item: None,
                detail: "seeded".into(),
            });
        }
    }
    let trace = two_node_trace();
    let cfg = SimConfig {
        audit: true,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&trace, SelfAccusing, cfg);
    sim.run_to_end();
    let report = sim.audit_report().expect("audit enabled");
    assert!(!report.is_clean());
    assert_eq!(report.violations()[0].law, AuditLaw::CopyConservation);
}
