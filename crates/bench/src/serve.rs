//! Open-loop serving benchmark: sustained decisions/sec and tail
//! latency for the online decision service (`dtn-serve`).
//!
//! The harness replays a synthetic contact trace through a
//! [`DecisionService`] and measures each `decide()` call — stream
//! ingestion plus answer computation — with a monotonic clock. The
//! latency distribution under load is then derived **open-loop**: for
//! each offered rate λ the measured per-decision service times are
//! replayed against a virtual wall-clock cursor
//! (`start_i = max(wall, arrival_i)`, `wall = start_i + service_i`,
//! `latency_i = wall − arrival_i`), so a slow decision delays every
//! queued arrival behind it and the reported percentiles are free of
//! coordinated omission. The saturation sweep runs the same recorded
//! service times at increasing λ until the achieved rate stops
//! following the offered rate.
//!
//! Decisions themselves are wall-clock independent (same trace + same
//! request sequence ⇒ bit-identical answers), so `BENCH_serve.json`
//! carries the determinism contract as `_exact`/`_checksum` keys next
//! to the informational latency numbers — `experiments compare` gates
//! the former exactly and never gates the latter (their key names
//! deliberately avoid the perf-direction suffixes; CI machines are not
//! this machine).

use std::time::Instant;

use dtn_cache::intentional::{IntentionalConfig, IntentionalScheme};
use dtn_cache::CachingScheme;
use dtn_core::ids::{DataId, NodeId};
use dtn_core::time::{Duration, Time};
use dtn_serve::{Answer, DecisionService, Request, ServeConfig};
use dtn_sim::engine::{SimConfig, Simulator};
use dtn_trace::synthetic::SyntheticTraceBuilder;
use dtn_trace::ContactTrace;

use crate::json::JsonValue;

/// All knobs of one serving benchmark run.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Population size of the synthetic trace.
    pub nodes: usize,
    /// Calibration target for the trace's total contact count.
    pub target_contacts: u64,
    /// Trace duration; the first half is warm-up, decisions are served
    /// over the second half.
    pub duration: Duration,
    /// Decisions to serve (alternating `Place` / `Route`).
    pub decisions: u64,
    /// Offered arrival rates (decisions/sec of wall clock) for the
    /// open-loop saturation sweep.
    pub offered_rates: Vec<f64>,
    /// Trace and engine seed.
    pub seed: u64,
    /// NCLs to elect.
    pub ncl_count: usize,
    /// Per-decision latency budget, nanoseconds.
    pub latency_budget_ns: u64,
}

impl ServeBenchConfig {
    /// The CI-sized run: finishes in seconds, and its deterministic
    /// keys are the ones committed in `BENCH_serve.json` — a fresh
    /// smoke run must reproduce them bit-identically.
    pub fn smoke() -> Self {
        ServeBenchConfig {
            nodes: 60,
            target_contacts: 30_000,
            duration: Duration::days(2),
            decisions: 2_000,
            offered_rates: vec![2e3, 2e4, 2e5],
            seed: 42,
            ncl_count: 3,
            latency_budget_ns: 1_000_000,
        }
    }

    /// The committed-numbers run: larger population and decision count,
    /// plus a deeper saturation sweep.
    pub fn full() -> Self {
        ServeBenchConfig {
            nodes: 200,
            target_contacts: 150_000,
            duration: Duration::days(2),
            decisions: 20_000,
            offered_rates: vec![2e3, 2e4, 2e5, 1e6],
            seed: 42,
            ncl_count: 5,
            latency_budget_ns: 1_000_000,
        }
    }
}

/// One offered-rate point of the saturation sweep.
#[derive(Debug, Clone)]
pub struct RatePoint {
    /// Offered arrival rate, decisions/sec.
    pub offered: f64,
    /// Achieved completion rate, decisions/sec.
    pub achieved: f64,
    /// Open-loop latency percentiles (queueing included), nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile latency, ns.
    pub p99_ns: u64,
    /// 99.9th percentile latency, ns.
    pub p999_ns: u64,
    /// Worst latency, ns.
    pub max_ns: u64,
    /// Arrivals whose open-loop latency exceeded the budget.
    pub budget_violations: u64,
}

/// The full benchmark result.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Which config produced it: `"smoke"` or `"full"`.
    pub label: String,
    /// Population size.
    pub nodes: usize,
    /// Contacts in the generated trace.
    pub contacts: usize,
    /// Central nodes elected at configure time.
    pub central_nodes: usize,
    /// Decisions served.
    pub decisions: u64,
    /// `Place` decisions among them.
    pub place_decisions: u64,
    /// Decisions whose answer carried at least one next hop.
    pub routed_decisions: u64,
    /// FNV-1a checksum over the decision stream (request + answer).
    pub decision_checksum: u64,
    /// Per-decision latency budget, ns.
    pub latency_budget_ns: u64,
    /// Exact service-time percentiles (no queueing), nanoseconds.
    pub service_p50_ns: u64,
    /// 99th percentile service time, ns.
    pub service_p99_ns: u64,
    /// 99.9th percentile service time, ns.
    pub service_p999_ns: u64,
    /// Worst service time, ns.
    pub service_max_ns: u64,
    /// Back-to-back capacity: decisions / total service time.
    pub sustained_per_sec: f64,
    /// The saturation sweep.
    pub points: Vec<RatePoint>,
}

/// The deterministic request sequence: alternating `Place`/`Route`
/// with a multiplicative-hash node walk, so every run over the same
/// `(nodes, decisions)` pair asks the identical questions.
pub fn request_at(i: u64, nodes: usize) -> Request {
    let node = |x: u64| NodeId((x.wrapping_mul(2_654_435_761) % nodes as u64) as u32);
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

/// Builds the benchmark trace for `cfg`.
pub fn serve_trace(cfg: &ServeBenchConfig) -> ContactTrace {
    let density = (12.0 / (cfg.nodes.max(2) - 1) as f64).min(0.4);
    SyntheticTraceBuilder::new(cfg.nodes)
        .duration(cfg.duration)
        .target_contacts(cfg.target_contacts)
        .edge_density(density)
        .seed(cfg.seed)
        .build()
}

/// Builds a configured service over `trace` (warm-up over the first
/// half, NCL election at the midpoint) ready to serve decisions.
pub fn serve_service<'t>(
    cfg: &ServeBenchConfig,
    trace: &'t ContactTrace,
) -> DecisionService<dtn_sim::engine::TraceSource<'t>> {
    let scheme = IntentionalScheme::new(IntentionalConfig {
        ncl_count: cfg.ncl_count,
        ..IntentionalConfig::default()
    });
    let sim = Simulator::new(
        trace,
        scheme,
        SimConfig {
            seed: cfg.seed,
            ..SimConfig::default()
        },
    );
    let mut svc = DecisionService::new(
        sim,
        ServeConfig {
            latency_budget_ns: cfg.latency_budget_ns,
            ..ServeConfig::default()
        },
    );
    svc.configure_at(trace.midpoint(), 3600.0 * 6.0, None);
    svc
}

fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Replays measured service times at offered rate λ through the
/// virtual wall-clock cursor. Pure arithmetic — no sleeping — so a
/// full saturation sweep costs microseconds.
pub fn replay_open_loop(service_ns: &[u64], offered: f64, budget_ns: u64) -> RatePoint {
    let gap = 1e9 / offered;
    let mut wall = 0.0f64;
    let mut latencies: Vec<u64> = Vec::with_capacity(service_ns.len());
    let mut violations = 0u64;
    for (i, &s) in service_ns.iter().enumerate() {
        let arrival = i as f64 * gap;
        let start = wall.max(arrival);
        wall = start + s as f64;
        let lat = (wall - arrival) as u64;
        if lat > budget_ns {
            violations += 1;
        }
        latencies.push(lat);
    }
    latencies.sort_unstable();
    let achieved = if wall > 0.0 {
        service_ns.len() as f64 * 1e9 / wall
    } else {
        0.0
    };
    RatePoint {
        offered,
        achieved,
        p50_ns: exact_quantile(&latencies, 0.5),
        p99_ns: exact_quantile(&latencies, 0.99),
        p999_ns: exact_quantile(&latencies, 0.999),
        max_ns: latencies.last().copied().unwrap_or(0),
        budget_violations: violations,
    }
}

/// Runs the benchmark: one serving pass measuring per-decision wall
/// time, then the open-loop saturation sweep over the recorded service
/// times.
pub fn run_serve_bench(label: &str, cfg: &ServeBenchConfig) -> ServeBenchReport {
    let trace = serve_trace(cfg);
    let mut svc = serve_service(cfg, &trace);
    let mid = trace.midpoint();
    let end = Time(trace.duration().as_secs());
    let span = end.0.saturating_sub(mid.0).max(1);

    let mut service_ns: Vec<u64> = Vec::with_capacity(cfg.decisions as usize);
    let mut place_decisions = 0u64;
    let mut routed = 0u64;
    for i in 0..cfg.decisions {
        let at = Time(mid.0 + span * i / cfg.decisions.max(1));
        let req = request_at(i, cfg.nodes);
        let started = Instant::now();
        let d = svc.decide(at, req).expect("service configured");
        service_ns.push(started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        let has_hop = match &d.answer {
            Answer::Place(p) => {
                place_decisions += 1;
                p.plan.iter().any(|plan| plan.next_hop.is_some())
            }
            Answer::Route(r) => r.as_ref().is_some_and(|r| r.next_hop.is_some()),
        };
        if has_hop {
            routed += 1;
        }
    }

    let stats = svc.stats();
    let total_service: u64 = service_ns.iter().sum();
    let sustained = if total_service > 0 {
        cfg.decisions as f64 * 1e9 / total_service as f64
    } else {
        0.0
    };
    let points = cfg
        .offered_rates
        .iter()
        .map(|&rate| replay_open_loop(&service_ns, rate, cfg.latency_budget_ns))
        .collect();
    let mut sorted = service_ns;
    sorted.sort_unstable();
    ServeBenchReport {
        label: label.to_string(),
        nodes: cfg.nodes,
        contacts: trace.contact_count(),
        central_nodes: svc.sim().scheme().central_nodes().len(),
        decisions: stats.decisions,
        place_decisions,
        routed_decisions: routed,
        decision_checksum: stats.checksum,
        latency_budget_ns: cfg.latency_budget_ns,
        service_p50_ns: exact_quantile(&sorted, 0.5),
        service_p99_ns: exact_quantile(&sorted, 0.99),
        service_p999_ns: exact_quantile(&sorted, 0.999),
        service_max_ns: sorted.last().copied().unwrap_or(0),
        sustained_per_sec: sustained,
        points,
    }
}

impl ServeBenchReport {
    /// Renders the report as one member of `BENCH_serve.json`'s
    /// `results` object. With `exact = true` the deterministic facts
    /// use `_exact`/`_checksum` key suffixes (gated bit-exactly by
    /// `experiments compare`) — only the smoke section carries them,
    /// because a CI smoke run must reproduce every exact key it finds
    /// in the committed baseline. The wall-clock numbers use `_usec` /
    /// `per_wall_second` names that no compare direction matches, so
    /// CI never gates this machine's timings against another's.
    pub fn to_json(&self, exact: bool) -> JsonValue {
        let e = if exact { "_exact" } else { "" };
        let checksum_key = if exact {
            "decision_checksum"
        } else {
            "decision_stream_hash"
        };
        let usec = |ns: u64| JsonValue::fixed(ns as f64 / 1_000.0, 1);
        let points = self.points.iter().map(|p| {
            JsonValue::object()
                .with("offered_per_wall_second", JsonValue::fixed(p.offered, 0))
                .with("achieved_per_wall_second", JsonValue::fixed(p.achieved, 0))
                .with("p50_usec", usec(p.p50_ns))
                .with("p99_usec", usec(p.p99_ns))
                .with("p999_usec", usec(p.p999_ns))
                .with("max_usec", usec(p.max_ns))
                .with("budget_violations", p.budget_violations)
        });
        JsonValue::object()
            .with(&format!("nodes{e}"), self.nodes)
            .with(&format!("contacts{e}"), self.contacts)
            .with(&format!("central_nodes{e}"), self.central_nodes)
            .with(&format!("decisions{e}"), self.decisions)
            .with(&format!("place_decisions{e}"), self.place_decisions)
            .with(&format!("routed_decisions{e}"), self.routed_decisions)
            .with(checksum_key, self.decision_checksum)
            .with(
                "latency_budget_usec",
                JsonValue::fixed(self.latency_budget_ns as f64 / 1_000.0, 0),
            )
            .with("service_p50_usec", usec(self.service_p50_ns))
            .with("service_p99_usec", usec(self.service_p99_ns))
            .with("service_p999_usec", usec(self.service_p999_ns))
            .with("service_max_usec", usec(self.service_max_ns))
            .with(
                "sustained_per_wall_second",
                JsonValue::fixed(self.sustained_per_sec, 0),
            )
            .with("points", points.collect::<JsonValue>())
    }
}

/// Serve-vs-engine differential on a shared trace. Returns the list of
/// discrepancies (empty = pass):
///
/// 1. **Outcome purity** — interleaving serve decisions into a full
///    engine run must leave the engine's metrics and central set
///    bit-identical to an undisturbed run (decision reads are pure).
/// 2. **Reproducibility** — two serving passes over the same stream
///    must produce the same decision checksum.
/// 3. **Kernel equivalence** — every recorded `Place` next hop must
///    equal an independent recomputation through the public
///    `better_relay` kernel on a fresh oracle over the same rates.
pub fn run_serve_differential(cfg: &ServeBenchConfig) -> Vec<String> {
    let mut problems = Vec::new();
    let trace = serve_trace(cfg);
    let decisions = cfg.decisions.min(200);
    let mid = trace.midpoint();
    let end = Time(trace.duration().as_secs());
    let span = end.0.saturating_sub(mid.0).max(1);

    // Baseline: the engine runs the trace with no serving interleaved.
    let mut baseline = serve_service(cfg, &trace);
    baseline.sim_mut().run_until(end);
    let base_metrics = baseline.sim().metrics().clone();
    let base_centrals = baseline.sim().scheme().central_nodes().to_vec();

    // Serve-interleaved run over the same trace.
    let run = || {
        let mut svc = serve_service(cfg, &trace).with_decision_log();
        for i in 0..decisions {
            let at = Time(mid.0 + span * i / decisions.max(1));
            svc.decide(at, request_at(i, cfg.nodes))
                .expect("service configured");
        }
        svc.sim_mut().run_until(end);
        svc
    };
    let first = run();
    if first.sim().scheme().central_nodes() != base_centrals.as_slice() {
        problems.push("central set diverged under serving".to_string());
    }
    let m = first.sim().metrics();
    if m.queries_issued != base_metrics.queries_issued
        || m.queries_satisfied != base_metrics.queries_satisfied
        || m.bytes_transmitted != base_metrics.bytes_transmitted
    {
        problems.push(format!(
            "engine outcome diverged under serving: \
             issued {} vs {}, satisfied {} vs {}, bytes {} vs {}",
            m.queries_issued,
            base_metrics.queries_issued,
            m.queries_satisfied,
            base_metrics.queries_satisfied,
            m.bytes_transmitted,
            base_metrics.bytes_transmitted,
        ));
    }

    let second = run();
    if first.stats().checksum != second.stats().checksum {
        problems.push(format!(
            "decision stream not reproducible: checksum {} vs {}",
            first.stats().checksum,
            second.stats().checksum,
        ));
    }

    // Kernel equivalence on a sample of recorded Place decisions.
    let rates = first.sim().rate_table();
    let nodes = cfg.nodes;
    for d in first.decisions().iter().take(40) {
        let dtn_serve::Request::Place { source, .. } = d.request else {
            continue;
        };
        let Answer::Place(p) = &d.answer else {
            continue;
        };
        for plan in &p.plan {
            let mut fresh =
                dtn_sim::oracle::PathOracle::new(nodes, 3600.0 * 6.0, Duration::hours(1));
            let mut best: Option<(NodeId, f64)> = None;
            for n in (0..nodes as u32).map(NodeId) {
                if n == source
                    || !dtn_cache::common::better_relay(
                        &mut fresh,
                        rates,
                        d.at,
                        source,
                        n,
                        plan.central,
                    )
                {
                    continue;
                }
                let w = if n == plan.central {
                    f64::INFINITY
                } else {
                    fresh.weight(rates, d.at, n, plan.central)
                };
                if best.is_none_or(|(_, bw)| w > bw) {
                    best = Some((n, w));
                }
            }
            let expect = best.map(|(n, _)| n);
            if plan.next_hop != expect {
                problems.push(format!(
                    "decision {} toward central {} chose {:?}, kernel recomputation says {:?}",
                    d.seq, plan.central.0, plan.next_hop, expect,
                ));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeBenchConfig {
        ServeBenchConfig {
            nodes: 20,
            target_contacts: 4_000,
            duration: Duration::days(1),
            decisions: 60,
            offered_rates: vec![1e4, 1e6],
            seed: 7,
            ncl_count: 3,
            latency_budget_ns: 1_000_000,
        }
    }

    #[test]
    fn bench_report_is_reproducible_and_renders_json() {
        let cfg = tiny();
        let a = run_serve_bench("smoke", &cfg);
        let b = run_serve_bench("smoke", &cfg);
        assert_eq!(a.decisions, cfg.decisions);
        assert_eq!(a.decision_checksum, b.decision_checksum);
        assert_eq!(a.contacts, b.contacts);
        assert_eq!(a.place_decisions, 30);
        assert!(a.sustained_per_sec > 0.0);
        assert_eq!(a.points.len(), 2);
        let doc = JsonValue::parse(&a.to_json(true).pretty()).expect("valid JSON");
        assert_eq!(
            doc.get("decisions_exact").and_then(JsonValue::as_u64),
            Some(cfg.decisions)
        );
        assert_eq!(
            doc.get("decision_checksum").and_then(JsonValue::as_u64),
            Some(a.decision_checksum),
            "the digest survives the document on all 64 bits"
        );
        // The non-exact rendering (the `full` section) must not carry
        // exactness-gated keys, or a CI smoke run would regress on them.
        let loose = a.to_json(false).compact();
        assert!(!loose.contains("_exact") && !loose.contains("decision_checksum"));
        assert!(loose.contains("decision_stream_hash"));
    }

    #[test]
    fn open_loop_replay_accounts_for_queueing() {
        // Constant 1 ms service at 10k/s offered (100 µs gaps): the
        // queue grows without bound, so late arrivals see much larger
        // latency than the pure service time.
        let service = vec![1_000_000u64; 100];
        let p = replay_open_loop(&service, 10_000.0, 1_000_000);
        assert!(
            p.p99_ns > 10 * 1_000_000,
            "p99 {} includes queueing",
            p.p99_ns
        );
        assert!(p.achieved < 10_000.0 / 5.0, "saturated throughput");
        assert!(p.budget_violations > 50);
        // At 100/s offered (10 ms gaps) the queue never forms: latency
        // equals the service time exactly.
        let p = replay_open_loop(&service, 100.0, 1_000_000);
        assert_eq!(p.p99_ns, 1_000_000);
        assert_eq!(p.max_ns, 1_000_000);
        assert_eq!(p.budget_violations, 0);
        assert!((p.achieved - 100.0).abs() < 2.0);
    }

    #[test]
    fn differential_is_clean_on_a_shared_trace() {
        let problems = run_serve_differential(&tiny());
        assert!(problems.is_empty(), "{problems:?}");
    }
}
