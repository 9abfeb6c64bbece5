//! The decision-service workload, `serve_churn`: `Place` / `Route`
//! requests answered while the oracle snapshot keeps being rebuilt under
//! them.
//!
//! It is open-loop. One back-to-back pass measures the wall time of
//! each whole `decide()` call (stream ingest + answer); latency at an
//! offered rate is then computed in virtual time from those service times
//! (`stats::replay_open_loop`), so every request is timed from when it
//! was due and the generator is never late.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Instant;

use dtn_cache::intentional::{IntentionalConfig, IntentionalScheme};
use dtn_core::ids::{DataId, NodeId};
use dtn_core::ncl::SelectionStrategy;
use dtn_core::rate::RateTable;
use dtn_core::time::{Duration, Time};
use dtn_serve::{DecisionService, Request, ServeConfig};
use dtn_sim::engine::{SimConfig, Simulator};
use dtn_sim::probe::RecordingProbe;
use dtn_trace::synthetic::SyntheticTraceBuilder;
use dtn_trace::trace::Contact;

use crate::json::Json;
use crate::kernels::{self, KernelInputs};
use crate::report::Report;
use crate::span::SpanLog;
use crate::stats::{median, minimum, percentile, rate_at_budget, replay_open_loop, unitwise_sum};
use crate::{Options, REFERENCE_SEED, TRACE_SEED};

const NODES: usize = 200;
const TRACE_DURATION: Duration = Duration(2 * 86_400);
const TARGET_CONTACTS: u64 = 150_000;
const NCL_COUNT: usize = 5;
/// Path-weight horizon `T`: 6 h.
const HORIZON_S: f64 = 6.0 * 3600.0;
/// Per-decision latency budget.
pub const BUDGET_NS: u64 = 1_000_000;
/// Reference offered rate for the latency percentiles, decisions/s.
pub const OFFERED_PER_S: f64 = 2_000.0;
/// Decisions per timed step: throughput is summed from each step's best
/// time across passes (`stats::unitwise_sum`). The finer the step, the
/// likelier that some pass ran it undisturbed.
const STEP_DECISIONS: usize = 10;
/// Decisions of the reference replica: one short pass at a fixed seed,
/// so its checksum is the same on every run of every seed and can be held
/// against the committed baseline.
const REPLICA_DECISIONS: u64 = 2_000;

/// Oracle refresh period: every rebuild orphans all cached per-source
/// tables and the next `Place` recomputes them inline.
const PATH_REFRESH: Duration = Duration(30 * 60);
/// Seconds per decision (set-up spread over them) on the box the sizes
/// were calibrated on, between its calm and its busy minutes: plans 20
/// passes for a 30 s run ([`Options::wants_pass`]).
const NOMINAL_DECISION_S: f64 = 75e-6;

/// Request `i` of the stream: alternating `Place` / `Route` over a
/// multiplicative-hash node walk that starts at a seed-dependent node.
fn request_at(i: u64, seed: u64) -> Request {
    let node =
        |x: u64| NodeId((x.wrapping_add(seed).wrapping_mul(2_654_435_761) % NODES as u64) as u32);
    if i.is_multiple_of(2) {
        Request::Place {
            data: DataId(i / 2),
            source: node(i),
        }
    } else {
        Request::Route {
            requester: node(i),
            data: DataId(i / 2),
        }
    }
}

/// Inputs captured at the midpoint of a traced pass, for the kernels.
struct Captured {
    rates: RateTable,
    capacities: Vec<u64>,
    warm_contacts: Vec<Contact>,
    now: Time,
}

/// One serving pass over a freshly built service.
struct Pass {
    setup_s: f64,
    /// Wall time of each whole `decide()` call (ingest + answer), ns.
    service_ns: Vec<u64>,
    /// Traced only: the ingest and answer parts of each decision, ns.
    ingest_ns: Vec<u64>,
    answer_ns: Vec<u64>,
    errors: u64,
    checksum: u64,
    epochs: u64,
    contacts_ingested: u64,
    probe: Option<RecordingProbe>,
    captured: Option<Captured>,
}

fn pass(seed: u64, decisions: u64, traced: bool, log: &mut SpanLog) -> Pass {
    let setup_started = Instant::now();
    log.enter("setup");
    let trace = log.span("dtn-trace.synthetic.build", || {
        SyntheticTraceBuilder::new(NODES)
            .duration(TRACE_DURATION)
            .target_contacts(TARGET_CONTACTS)
            .edge_density(12.0 / (NODES - 1) as f64)
            .seed(TRACE_SEED)
            .build()
    });
    let scheme = IntentionalScheme::new(IntentionalConfig {
        ncl_count: NCL_COUNT,
        ..IntentionalConfig::default()
    });
    let sim = Simulator::new(
        &trace,
        scheme,
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    );
    let mut svc = DecisionService::new(
        sim,
        ServeConfig {
            latency_budget_ns: BUDGET_NS,
            ..ServeConfig::default()
        },
    );
    let probe = traced.then(|| {
        let handle = Rc::new(RefCell::new(RecordingProbe::new().without_event_stream()));
        svc.sim_mut().set_probe(Box::new(Rc::clone(&handle)));
        handle
    });
    let mid = trace.midpoint();
    log.span("dtn-sim.engine.warmup", || svc.sim_mut().run_until(mid));
    log.span("dtn-cache.configure", || {
        svc.configure_at(mid, HORIZON_S, Some(PATH_REFRESH));
    });
    let captured = traced.then(|| Captured {
        rates: svc.sim().rate_table().clone(),
        capacities: (0..NODES as u32)
            .map(|n| svc.sim().buffer_capacity(NodeId(n)))
            .collect(),
        warm_contacts: trace.contacts_between(Time::ZERO, mid).to_vec(),
        now: mid,
    });
    let mut errors = 0u64;
    log.exit();
    let setup_s = setup_started.elapsed().as_secs_f64();

    let end = trace.duration().as_secs();
    let span = end - mid.0;
    let contacts_before = svc.sim().rate_table().total_contacts();
    let mut service_ns = Vec::with_capacity(decisions as usize);
    let (mut ingest_ns, mut answer_ns) = (Vec::new(), Vec::new());
    let mut epochs = BTreeSet::new();
    log.enter("timed");
    for i in 0..decisions {
        let at = Time(mid.0 + span * i / decisions);
        let request = request_at(i, seed);
        let started = Instant::now();
        let answered = if traced {
            // `decide` ingests the stream itself; doing it first leaves
            // `decide` only the answer, so the two are timed apart.
            svc.sim_mut().run_until(at);
            let ingested = Instant::now();
            let answered = svc.decide(at, request);
            let ended = Instant::now();
            log.record("dtn-serve.ingest", started, ingested);
            log.record("dtn-serve.answer", ingested, ended);
            ingest_ns.push((ingested - started).as_nanos() as u64);
            answer_ns.push((ended - ingested).as_nanos() as u64);
            service_ns.push((ended - started).as_nanos() as u64);
            answered
        } else {
            let answered = svc.decide(at, request);
            service_ns.push(started.elapsed().as_nanos() as u64);
            answered
        };
        match answered {
            Ok(decision) => {
                epochs.insert(decision.oracle_epoch);
            }
            Err(_) => errors += 1,
        }
    }
    log.exit();
    let probe = probe.map(|handle| {
        drop(svc.sim_mut().take_probe());
        Rc::try_unwrap(handle)
            .expect("engine returned its probe handle")
            .into_inner()
    });
    Pass {
        setup_s,
        service_ns,
        ingest_ns,
        answer_ns,
        errors,
        checksum: svc.stats().checksum,
        epochs: epochs.len() as u64,
        contacts_ingested: svc.sim().rate_table().total_contacts() - contacts_before,
        probe,
        captured,
    }
}

fn sorted(values: &[u64]) -> Vec<u64> {
    let mut v = values.to_vec();
    v.sort_unstable();
    v
}

/// `q`-quantile in µs under the ten-samples-beyond rule; 0 when the
/// sample cannot support it.
fn quantile_us(sorted: &[u64], q: f64) -> f64 {
    percentile(sorted, q).map_or(0.0, |ns| ns as f64 / 1e3)
}

/// The open-loop latency family of one pass.
fn latency_values(service_ns: &[u64]) -> BTreeMap<&'static str, f64> {
    let run = replay_open_loop(service_ns, OFFERED_PER_S);
    let mut v = BTreeMap::new();
    v.insert(
        "dtn-serve.decide_p50_us",
        quantile_us(&run.latencies_ns, 0.5),
    );
    v.insert(
        "dtn-serve.decide_p99_us",
        quantile_us(&run.latencies_ns, 0.99),
    );
    v.insert(
        "dtn-serve.decide_p999_us",
        quantile_us(&run.latencies_ns, 0.999),
    );
    v.insert(
        "dtn-serve.rate_at_budget_per_s",
        rate_at_budget(service_ns, BUDGET_NS),
    );
    v.insert("dtn-serve.budget_miss_ratio", run.miss_ratio(BUDGET_NS));
    v
}

fn check_outputs(report: &mut Report, reference: &Pass, pass: &Pass, index: usize) {
    report.attempted += pass.service_ns.len() as u64;
    for _ in 0..pass.errors {
        report.fail(format!("pass {index}: decide() returned Err"));
    }
    if pass.checksum != reference.checksum {
        report.fail(format!(
            "pass {index}: checksum {:016x} differs from pass 0's {:016x}",
            pass.checksum, reference.checksum
        ));
    }
}

fn note_outputs(report: &mut Report, pass: &Pass) {
    report.note("op", Json::Str("decision answered".to_string()));
    report.note(
        "decisions_per_pass",
        Json::Num(pass.service_ns.len() as f64),
    );
    report.note(
        "contacts_ingested_per_pass",
        Json::Num(pass.contacts_ingested as f64),
    );
    report.note("oracle_epochs_seen", Json::Num(pass.epochs as f64));
    report.note("fingerprint", Json::Str(format!("{:016x}", pass.checksum)));
    report.note("offered_per_s", Json::Num(OFFERED_PER_S));
    report.note("budget_us", Json::Num(BUDGET_NS as f64 / 1e3));
    report.note(
        "generator_lag_s",
        Json::Str("0 by construction: arrivals are replayed in virtual time".to_string()),
    );
}

/// The untraced run: end-to-end metrics, plus the latency family as
/// ungated context.
pub fn run(name: &'static str, opts: &Options, decisions: u64) -> Report {
    let mut report = Report::new(name, opts.seed, false);
    let log = &mut SpanLog::new(false);
    // Only the first pass is kept whole (as the reference); of the others
    // only timings and latency summaries survive, so memory does not grow
    // with the number of passes.
    let mut reference: Option<Pass> = None;
    let (mut setup_s, mut step_s, mut timed_s, mut latency) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while opts.wants_pass(
        timed_s.len(),
        started.elapsed().as_secs_f64(),
        NOMINAL_DECISION_S * decisions as f64,
    ) {
        let pass = pass(opts.seed, decisions, false, log);
        check_outputs(
            &mut report,
            reference.as_ref().unwrap_or(&pass),
            &pass,
            timed_s.len(),
        );
        setup_s.push(pass.setup_s);
        step_s.push(
            pass.service_ns
                .chunks(STEP_DECISIONS)
                .map(|step| step.iter().sum::<u64>() as f64 / 1e9)
                .collect::<Vec<f64>>(),
        );
        timed_s.push(pass.service_ns.iter().sum::<u64>() as f64 / 1e9);
        latency.push(latency_values(&pass.service_ns));
        reference.get_or_insert(pass);
    }
    let reference = reference.expect("at least one pass");
    let replica = pass(REFERENCE_SEED, REPLICA_DECISIONS, false, log);
    check_outputs(&mut report, &replica, &replica, timed_s.len());
    report.note(
        "replica_fingerprint",
        Json::Str(format!("{:016x}", replica.checksum)),
    );

    report.set_value("setup_s", minimum(&setup_s), setup_s);
    report.set_value(
        "ops_per_s",
        decisions as f64 / unitwise_sum(&step_s, minimum),
        timed_s.iter().map(|t| decisions as f64 / t).collect(),
    );
    report.note(
        "ops_per_s_from_step_medians",
        Json::Num(decisions as f64 / unitwise_sum(&step_s, median)),
    );
    report.set(
        "peak_rss_bytes",
        vec![dtn_core::sys::peak_rss_bytes() as f64],
    );
    report.note("passes", Json::Num(latency.len() as f64));
    note_outputs(&mut report, &reference);
    for key in latency[0].keys() {
        let values: Vec<f64> = latency.iter().map(|v| v[key]).collect();
        report.note(key, Json::Num(median(&values)));
    }
    report.check_against_baselines(opts.smoke);
    report
}

/// The per-layer values of one traced pass (no kernels).
fn layer_values(pass: &Pass, log: &SpanLog, run: u32) -> BTreeMap<&'static str, f64> {
    let span_s = |name: &str| log.total_s(name, run);
    let mut v = latency_values(&pass.service_ns);
    v.insert(
        "dtn-trace.synthetic.build_s",
        span_s("dtn-trace.synthetic.build"),
    );
    v.insert("dtn-sim.engine.warmup_s", span_s("dtn-sim.engine.warmup"));
    v.insert("dtn-cache.configure_s", span_s("dtn-cache.configure"));

    let ingest_s = pass.ingest_ns.iter().sum::<u64>() as f64 / 1e9;
    let answer_s = pass.answer_ns.iter().sum::<u64>() as f64 / 1e9;
    v.insert("dtn-serve.ingest_s", ingest_s);
    v.insert(
        "dtn-serve.ingest_ns_per_contact",
        ingest_s * 1e9 / pass.contacts_ingested.max(1) as f64,
    );
    v.insert("dtn-serve.answer_s", answer_s);
    let answers = sorted(&pass.answer_ns);
    v.insert("dtn-serve.answer_p50_us", quantile_us(&answers, 0.5));
    v.insert("dtn-serve.answer_p99_us", quantile_us(&answers, 0.99));
    v.insert("dtn-serve.answer_p999_us", quantile_us(&answers, 0.999));
    // Requests alternate Place / Route; the median of each kind is the
    // warm cost (cold answers are far rarer than half).
    let by_kind = |parity: usize| -> f64 {
        let of_kind: Vec<u64> = pass
            .answer_ns
            .iter()
            .copied()
            .skip(parity)
            .step_by(2)
            .collect();
        quantile_us(&sorted(&of_kind), 0.5)
    };
    v.insert("dtn-sim.decision.place_us", by_kind(0));
    v.insert("dtn-sim.decision.route_us", by_kind(1));

    let cold: Vec<usize> = (0..pass.service_ns.len())
        .filter(|&i| pass.service_ns[i] > BUDGET_NS)
        .collect();
    v.insert("dtn-serve.cold_decisions", cold.len() as f64);
    v.insert(
        "dtn-serve.cold_share",
        cold.iter().map(|&i| pass.answer_ns[i]).sum::<u64>() as f64 / 1e9 / answer_s,
    );
    v.insert(
        "dtn-serve.epoch_changes",
        pass.epochs.saturating_sub(1) as f64,
    );

    let oracle = pass
        .probe
        .as_ref()
        .map_or((0, 0, 0), RecordingProbe::oracle_counters);
    v.extend(kernels::oracle_values(oracle));
    v
}

/// The traced run: per-layer metrics, each traced pass paired with an
/// untraced one so the cost of tracing itself is reported.
pub fn run_traced(name: &'static str, opts: &Options, decisions: u64, log: &mut SpanLog) -> Report {
    let mut report = Report::new(name, opts.seed, true);
    let mut overhead = Vec::new();
    let mut values: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while values.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        let plain = pass(opts.seed, decisions, false, &mut SpanLog::new(false));
        let run = values.len() as u32;
        log.set_run(run);
        let traced = pass(opts.seed, decisions, true, log);
        let wall = |p: &Pass| p.service_ns.iter().sum::<u64>() as f64 / 1e9;
        overhead.push(wall(&traced) / wall(&plain) - 1.0);
        check_outputs(&mut report, &plain, &traced, values.len());
        values.push(layer_values(&traced, log, run));
        last = Some(traced);
    }
    report.set("trace_overhead_ratio", overhead);
    for key in values[0].keys() {
        report.set(key, values.iter().map(|v| v[key]).collect());
    }

    let pass = last.expect("at least one traced pass");
    let captured = pass
        .captured
        .as_ref()
        .expect("traced passes capture inputs");
    let costs = kernels::measure(&KernelInputs {
        rates: &captured.rates,
        now: captured.now,
        horizon: HORIZON_S,
        ncl_count: NCL_COUNT,
        selection: SelectionStrategy::PathMetric,
        bounded_hops: None,
        warm_contacts: &captured.warm_contacts,
        item_sizes: &[],
        capacities: &captured.capacities,
        seed: opts.seed,
    });
    let last_values = values.last().expect("at least one traced pass");
    costs.record(
        &mut report,
        false,
        last_values["dtn-sim.oracle.table_recomputes"],
        last_values["dtn-sim.oracle.rebuilds"],
    );
    report.note("traced_passes", Json::Num(values.len() as f64));
    report.note("spans_dropped", Json::Num(log.dropped() as f64));
    note_outputs(&mut report, &pass);
    report
}
