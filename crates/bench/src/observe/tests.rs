use super::*;
use dtn_core::ids::{DataId, QueryId};
use dtn_core::time::Time;

/// `ev!(Kind @ t, field: value, ..)` — one sample event per line.
macro_rules! ev {
    ($kind:ident @ $at:expr $(, $field:ident: $value:expr)*) => {
        ProbeEvent::$kind { at: Time($at), $($field: $value),* }
    };
}

/// One sample of each of the 22 event kinds (all four delivery
/// outcomes), telling one query's whole lifecycle.
#[rustfmt::skip]
fn one_of_each_kind() -> Vec<ProbeEvent> {
    let (q, n, m, d) = (QueryId(7), NodeId(3), NodeId(4), DataId(9));
    let accepted = DeliveryOutcome::Accepted { delay: Duration(450) };
    vec![
        ev!(ContactBegin @ 100, a: n, b: m, budget: 5000),
        ev!(DataInjected @ 101, data: d, source: n, size: 800),
        ev!(QueryInjected @ 110, query: q, requester: m, data: d, expires_at: Time(900)),
        ev!(TransmitAccepted @ 111, bytes: 800),
        ev!(TransmitRejected @ 112, bytes: 9000),
        ev!(PushRelay @ 113, data: d, from: n, to: m, ncl: 1),
        ev!(PushSettled @ 114, data: d, node: m, ncl: 1),
        ev!(QueryRelay @ 120, query: q, from: m, to: n),
        ev!(QueryAtCentral @ 130, query: q, ncl: 1),
        ev!(BroadcastSpread @ 140, query: q, node: n),
        ev!(ResponseDecision @ 150, query: q, node: n, probability: 0.8125, responded: true),
        ev!(ResponseSpawned @ 150, query: q, node: n),
        ev!(ResponseRelay @ 300, query: q, from: n, to: m),
        ev!(ContactEnd @ 310, a: n, b: m, bytes_used: 1600),
        ev!(ContactLost @ 320, a: n, b: m),
        ev!(EpochFired @ 400, index: 2),
        ev!(CentralReelected @ 400, ncl: 0, old: n, new: m),
        ev!(OracleInvalidated @ 400),
        ev!(OracleRebuilt @ 410, epoch: 3, table_recomputes: 40, table_hits: 100),
        ev!(ReplacementEvicted @ 420, node: m, data: d),
        ev!(CacheSampled @ 500, copies: 2, bytes: 1600),
        ev!(Delivery @ 560, query: q, outcome: accepted),
        ev!(Delivery @ 570, query: q, outcome: DeliveryOutcome::Duplicate),
        ev!(Delivery @ 580, query: QueryId(8), outcome: DeliveryOutcome::Late),
        ev!(Delivery @ 590, query: QueryId(99), outcome: DeliveryOutcome::Unknown),
    ]
}

/// A hand-fed capture: the samples above through a recorder with a
/// two-lane window series and an overlay, a two-row profile.
fn sample_run(figure: &str, overlay: &str) -> ObserveRun {
    use dtn_sim::probe::Probe;
    let mut telemetry = Telemetry::spanning(Time(100), Duration(500), 2, 2);
    telemetry.mark_overlay(overlay, Time(300), Time(450));
    let mut probe = RecordingProbe::new().with_telemetry(telemetry);
    for event in one_of_each_kind() {
        probe.record(&event);
    }
    let row = |phase, depth, calls, total_ns, self_ns| ProfileEntry {
        phase,
        depth,
        calls,
        total_ns,
        self_ns,
    };
    ObserveRun {
        figure: figure.to_string(),
        scheme: SchemeKind::Intentional,
        seed: 7,
        metrics: Metrics {
            queries_issued: 1,
            queries_satisfied: 1,
            total_delay_secs: 450,
            duplicate_deliveries: 1,
            late_deliveries: 1,
            data_generated: 1,
            bytes_transmitted: 800,
            transfers_rejected: 1,
            contacts_lost: 1,
            ..Metrics::default()
        },
        probe,
        profile: Some(ProfileReport {
            entries: vec![
                row("contact_commit", 0, 3, 900, 600),
                row("knapsack_solve", 1, 2, 300, 300),
            ],
        }),
        central_nodes: vec![NodeId(3), NodeId(4)],
        ncl_query_load: vec![0, 1],
        oracle: Some(OracleStats {
            rebuilds: 1,
            table_hits: 9,
            table_recomputes: 2,
            nodes_settled: 7,
            accumulators_built: 4,
            leaf_evaluations: 3,
            reach_bytes: 60,
            balls_built: 1,
            ball_bytes: 32,
            ..OracleStats::default()
        }),
        stream_bytes: Some(1_200),
    }
}

fn emitted(run: &ObserveRun) -> String {
    let mut buf = Vec::new();
    write_jsonl(run, &mut buf).expect("in-memory write");
    String::from_utf8(buf).expect("utf8")
}

/// What the `dtn-observe/2` emitters (`ProbeEvent::to_json`,
/// `QueryTrace::to_json`, `Telemetry::to_jsonl`,
/// `ProfileReport::to_jsonl`, the header/footer `format!`s) wrote
/// for [`sample_run`], with the tag bumped and the header's
/// `telemetry_schema` and footer-duplicated totals dropped.
const SAMPLE_CAPTURE: &str = r#"{"type":"run","schema":"dtn-observe/3","figure":"fig10","scheme":"Intentional","seed":7,"window_secs":250,"origin":100,"pull_secs":20,"ncl_secs":20,"response_secs":410}
{"type":"event","kind":"contact_begin","at":100,"a":3,"b":4,"budget":5000}
{"type":"event","kind":"data_injected","at":101,"data":9,"source":3,"size":800}
{"type":"event","kind":"query_injected","at":110,"query":7,"requester":4,"data":9,"expires_at":900}
{"type":"event","kind":"transmit_accepted","at":111,"bytes":800}
{"type":"event","kind":"transmit_rejected","at":112,"bytes":9000}
{"type":"event","kind":"push_relay","at":113,"data":9,"from":3,"to":4,"ncl":1}
{"type":"event","kind":"push_settled","at":114,"data":9,"node":4,"ncl":1}
{"type":"event","kind":"query_relay","at":120,"query":7,"from":4,"to":3}
{"type":"event","kind":"query_at_central","at":130,"query":7,"ncl":1}
{"type":"event","kind":"broadcast_spread","at":140,"query":7,"node":3}
{"type":"event","kind":"response_decision","at":150,"query":7,"node":3,"probability":0.812500,"responded":true}
{"type":"event","kind":"response_spawned","at":150,"query":7,"node":3}
{"type":"event","kind":"response_relay","at":300,"query":7,"from":3,"to":4}
{"type":"event","kind":"contact_end","at":310,"a":3,"b":4,"bytes_used":1600}
{"type":"event","kind":"contact_lost","at":320,"a":3,"b":4}
{"type":"event","kind":"epoch_fired","at":400,"index":2}
{"type":"event","kind":"central_reelected","at":400,"ncl":0,"old":3,"new":4}
{"type":"event","kind":"oracle_invalidated","at":400}
{"type":"event","kind":"oracle_rebuilt","at":410,"epoch":3,"table_recomputes":40,"table_hits":100}
{"type":"event","kind":"replacement_evicted","at":420,"node":4,"data":9}
{"type":"event","kind":"cache_sampled","at":500,"copies":2,"bytes":1600}
{"type":"event","kind":"delivery","at":560,"query":7,"outcome":"accepted","delay_secs":450}
{"type":"event","kind":"delivery","at":570,"query":7,"outcome":"duplicate"}
{"type":"event","kind":"delivery","at":580,"query":8,"outcome":"late"}
{"type":"event","kind":"delivery","at":590,"query":99,"outcome":"unknown"}
{"type":"trace","query":7,"requester":4,"data":9,"issued_at":110,"expires_at":900,"first_central_at":130,"first_central_ncl":1,"broadcast_fanout":1,"first_response_at":150,"responder":3,"delivered_at":560,"pull_secs":20,"ncl_secs":20,"response_secs":410,"hops":[{"at":120,"phase":"pull","from":4,"to":3},{"at":300,"phase":"response","from":3,"to":4}]}
{"type":"window","index":0,"start":100,"end":350,"contacts":1,"contacts_lost":1,"data_injected":1,"queries_issued":1,"deliveries":0,"duplicate_deliveries":0,"late_deliveries":0,"unknown_deliveries":0,"delay_sum_secs":0,"bytes_transmitted":800,"transfers_rejected":1,"replacements":0,"epochs":0,"reelections":0,"oracle_invalidations":0,"oracle_rebuilds":0,"oracle_recomputes":0,"oracle_hits":0,"ncl_load":[0,1],"ncl_hits":[0,0],"ncl_overflow":0,"overlays":["ncl-blackout"]}
{"type":"window","index":1,"start":350,"end":600,"contacts":0,"contacts_lost":0,"data_injected":0,"queries_issued":0,"deliveries":1,"duplicate_deliveries":1,"late_deliveries":1,"unknown_deliveries":1,"delay_sum_secs":450,"bytes_transmitted":0,"transfers_rejected":0,"replacements":1,"epochs":1,"reelections":1,"oracle_invalidations":1,"oracle_rebuilds":1,"oracle_recomputes":40,"oracle_hits":100,"cache_copies":2,"cache_bytes":1600,"ncl_load":[0,0],"ncl_hits":[0,1],"ncl_overflow":0,"overlays":["ncl-blackout"]}
{"type":"phase","phase":"contact_commit","depth":0,"calls":3,"total_ns":900,"self_ns":600}
{"type":"phase","phase":"knapsack_solve","depth":1,"calls":2,"total_ns":300,"self_ns":300}
{"type":"footer","schema":"dtn-observe/3","queries_issued":1,"queries_satisfied":1,"total_delay_secs":450,"duplicate_deliveries":1,"late_deliveries":1,"data_generated":1,"bytes_transmitted":800,"transfers_rejected":1,"contacts_lost":1,"windows":2,"oracle_rebuilds":1,"oracle_table_hits":9,"oracle_table_recomputes":2,"oracle_nodes_settled":7,"oracle_accumulators_built":4,"oracle_leaf_evaluations":3,"oracle_reach_bytes":60,"oracle_balls_built":1,"oracle_ball_bytes":32,"stream_bytes":1200}
"#;

#[test]
fn every_line_type_round_trips_and_keeps_its_fields() {
    let text = emitted(&sample_run("fig10", "ncl-blackout"));
    // Field for field, value for value, what the per-type emitters
    // wrote — for all 22 kinds, a trace with hops, windows with NCL
    // lanes and overlays, phase rows, header and footer.
    for (got, want) in text.lines().zip(SAMPLE_CAPTURE.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(text.lines().count(), SAMPLE_CAPTURE.lines().count());
    // The expected text names the 22 kinds this schema was frozen
    // with (a later kind adds a line type's worth of text, not a
    // change to these).
    let kinds: std::collections::BTreeSet<&str> =
        one_of_each_kind().iter().map(ProbeEvent::kind).collect();
    assert_eq!(kinds.len(), 22);
    assert!(kinds.iter().all(|kind| ProbeEvent::KINDS.contains(kind)));
    // The round-trip law: parse(emit(x)) re-emits byte-identically.
    for line in text.lines() {
        let parsed = JsonValue::parse(line).expect("emitted line parses");
        assert_eq!(parsed.compact(), line);
    }
}

#[test]
fn distributions_stop_at_the_delivery_and_start_at_the_origin() {
    use dtn_sim::metrics::CacheSample;
    use dtn_sim::probe::Probe;
    let mut run = sample_run("fig10", "ncl-blackout");
    // A duplicate copy keeps moving after the delivery at t=560.
    run.probe
        .record(&ev!(QueryRelay @ 600, query: QueryId(7), from: NodeId(3), to: NodeId(4)));
    // The capture's origin is t=100: the warm-up sample is not its.
    let sample = |at, bytes| CacheSample {
        at: Time(at),
        copies: 1,
        distinct: 1,
        bytes,
    };
    run.metrics.samples = vec![sample(50, 9), sample(100, 1_600), sample(500, 800)];
    let d = distributions(&run);
    assert_eq!(d.delay_secs, [450]);
    assert_eq!(d.hops, [2]);
    assert_eq!(d.occupancy_bytes, [800, 1_600]);
    let report = render_report(&run);
    assert!(
        report.contains("delay: n=1 mean=450.0s p50=450s p90=450s p99=450s max=450s"),
        "{report}"
    );
    assert!(report.contains("cache occupancy: n=2 mean=1200.0B p50=800B p90=1600B"));
}

#[test]
fn hostile_names_are_escaped_not_interpolated() {
    // A quote or backslash in a figure name or overlay kind used to
    // be pasted raw into the line, leaving the capture unparseable.
    let (figure, overlay) = ("fig\"10\\", "ncl \"black\\out\"\n");
    let text = emitted(&sample_run(figure, overlay));
    let mut overlays_seen = 0;
    for line in text.lines() {
        let v = JsonValue::parse(line).expect("every line still parses");
        assert_eq!(v.compact(), line);
        if v.get("type").and_then(JsonValue::as_str) == Some("run") {
            assert_eq!(v.get("figure").and_then(JsonValue::as_str), Some(figure));
        }
        if let Some(JsonValue::Arr(kinds)) = v.get("overlays") {
            assert_eq!(kinds, &[JsonValue::from(overlay)]);
            overlays_seen += 1;
        }
    }
    assert_eq!(overlays_seen, 2);
}

#[test]
fn observed_run_covers_every_satisfied_query() {
    let run = observe_any("fig10", 0.02, 7).expect("known target");
    assert!(run.metrics.queries_issued > 0, "workload generated queries");
    // Every issued query has an assembled trace; every satisfied one
    // carries a delivery timestamp.
    assert_eq!(
        run.probe.traces().count() as u64,
        run.metrics.queries_issued
    );
    assert_eq!(
        run.probe.traces().filter(|t| t.delivered()).count() as u64,
        run.metrics.queries_satisfied
    );
    // The per-phase decomposition sums exactly to the metric delay.
    assert_eq!(
        run.probe.total_decomposition().total_secs(),
        run.metrics.total_delay_secs
    );
    // The derived delay distribution has one value per satisfied
    // query and sums to the metric delay.
    let delays = distributions(&run).delay_secs;
    assert_eq!(delays.len() as u64, run.metrics.queries_satisfied);
    assert_eq!(delays.iter().sum::<u64>(), run.metrics.total_delay_secs);
    // The window series conserves the same totals window by window
    // (the full matrix lives in tests/telemetry_conservation).
    let totals = run.telemetry().totals();
    assert_eq!(totals[Counter::QueriesIssued], run.metrics.queries_issued);
    assert_eq!(totals[Counter::Deliveries], run.metrics.queries_satisfied);
    assert_eq!(totals[Counter::DelaySumSecs], run.metrics.total_delay_secs);
    assert_eq!(
        totals[Counter::BytesTransmitted],
        run.metrics.bytes_transmitted
    );
    // The profiler ran and charged the contact loop.
    let profile = run.profile.as_ref().expect("observe profiles its runs");
    assert!(profile.entries.iter().any(|e| e.phase == "contact_commit"));
    assert!(profile.total_ns() > 0);
}

#[test]
fn real_capture_round_trips_in_file_order() {
    let run = observe_any("fig10", 0.02, 7).expect("known target");
    let text = emitted(&run);
    // The round-trip law holds on a real run too, and the line types
    // come in file order: header, events, traces, windows, phases,
    // footer.
    let mut types = Vec::new();
    for line in text.lines() {
        let v = JsonValue::parse(line).expect("emitted line parses");
        assert_eq!(v.compact(), line);
        let ty = v.get("type").and_then(JsonValue::as_str).expect("typed");
        if types.last() != Some(&ty.to_string()) {
            types.push(ty.to_string());
        }
    }
    assert_eq!(
        types,
        ["run", "event", "trace", "window", "phase", "footer"]
    );
    let last = JsonValue::parse(text.lines().last().expect("footer")).expect("parses");
    assert_eq!(
        last.get("queries_satisfied").and_then(JsonValue::as_u64),
        Some(run.metrics.queries_satisfied)
    );
}

#[test]
fn timeline_renders_windows_and_profile() {
    let run = observe_any("fig10", 0.02, 7).expect("known target");
    let timeline = render_timeline(&run);
    assert!(timeline.contains("timeline fig10"));
    assert!(timeline.contains("t_start"), "{timeline}");
    assert!(timeline.contains("phase profile"), "{timeline}");
    assert!(timeline.contains("contact_commit"), "{timeline}");
}

#[test]
fn observe_any_rejects_unknown_targets() {
    let err = observe_any("fig99", 0.02, 1).unwrap_err();
    assert!(err.contains("regimes") && err.contains("scale"), "{err}");
    assert!(SWEEPS.iter().all(|name| err.contains(name)), "{err}");
}

#[test]
fn report_renders_decomposition_and_ncl_table() {
    let run = observe_any("fig10", 0.02, 7).expect("known target");
    let report = render_report(&run);
    assert!(report.contains("delay decomposition"));
    assert!(report.contains("exact match"), "{report}");
    assert!(report.contains("NCL query arrivals"));
    assert!(report.contains("probe counters"));
    assert!(!report.contains("MISMATCH"), "{report}");
}

#[test]
fn churn_run_observes_reelections() {
    let run = observe_any("churn", 0.05, 3).expect("known target");
    // Epochs fire on the churn setup; re-elections and oracle
    // invalidations surface through the probe vocabulary.
    assert!(run.probe.count("epoch_fired") > 0, "no epochs observed");
}

/// The post-mortem's path-oracle line as the capture's footer reads it.
fn footer_oracle_line(run: &ObserveRun) -> String {
    let text = emitted(run);
    let footer = JsonValue::parse(text.lines().last().expect("footer")).expect("parses");
    let key = |k: &str| footer.get(k).and_then(JsonValue::as_u64).expect(k);
    format!(
        "snapshots rebuilt: {}; path tables: {} recomputed, {} reused",
        key("oracle_rebuilds"),
        key("oracle_table_recomputes"),
        key("oracle_table_hits")
    )
}

#[test]
fn the_oracle_section_reads_the_footers_counters() {
    // The sample's last `oracle_rebuilt` event says 40 recomputed and
    // 100 reused; the run's final counters, which the footer carries,
    // say 2 and 9.
    let sample = sample_run("fig10", "ncl-blackout");
    let line = footer_oracle_line(&sample);
    assert_eq!(
        line,
        "snapshots rebuilt: 1; path tables: 2 recomputed, 9 reused"
    );
    assert!(render_report(&sample).contains(&line));
    let run = observe_any("churn", 0.05, 3).expect("known target");
    let report = render_report(&run);
    assert!(report.contains(&footer_oracle_line(&run)), "{report}");
}
