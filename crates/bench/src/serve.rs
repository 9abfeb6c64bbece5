//! Determinism contract and serve-vs-engine differential for the
//! online decision service (`dtn-serve`).
//!
//! The harness replays a synthetic contact trace through a
//! [`DecisionService`] and asks it a fixed request sequence. Decisions
//! are wall-clock independent (same trace + same request sequence ⇒
//! bit-identical answers), so `BENCH_serve.json` carries the run's
//! deterministic facts as `_exact`/`_checksum` keys and
//! `experiments compare` gates them exactly: a fresh run on any machine
//! must reproduce every one. What serving *costs* — per-decision
//! latency under open-loop load, sustained rate, budget misses — is the
//! `serve_churn` workload of `benchmark/`, not this module.

use dtn_cache::intentional::{IntentionalConfig, IntentionalScheme};
use dtn_cache::CachingScheme;
use dtn_core::ids::{DataId, NodeId};
use dtn_core::time::{Duration, Time};
use dtn_serve::{Answer, DecisionService, Request, ServeConfig};
use dtn_sim::engine::{SimConfig, Simulator};
use dtn_trace::synthetic::SyntheticTraceBuilder;
use dtn_trace::trace::ContactTrace;

use crate::json::JsonValue;

/// All knobs of one serving run.
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
    /// Trace and engine seed.
    pub seed: u64,
    /// NCLs to elect.
    pub ncl_count: usize,
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
            seed: 42,
            ncl_count: 3,
        }
    }
}

/// The deterministic facts of one serving run.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
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
    /// Path searches the oracle ran over the whole pass.
    pub oracle_table_recomputes: u64,
    /// Nodes those searches settled: the work counter that rises if the
    /// early exit at the central nodes is lost, on any machine.
    pub oracle_nodes_settled: u64,
    /// Reads the oracle answered from a cached table: the counter that
    /// rises if a relay choice reads its candidates' weights again.
    pub oracle_table_hits: u64,
}

/// The deterministic request sequence: alternating `Place`/`Route`
/// with a multiplicative-hash node walk, so every run over the same
/// `(nodes, decisions)` pair asks the identical questions.
fn request_at(i: u64, nodes: usize) -> Request {
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
fn serve_trace(cfg: &ServeBenchConfig) -> ContactTrace {
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
fn serve_service<'t>(
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
    let mut svc = DecisionService::new(sim, ServeConfig::default());
    svc.configure_at(trace.midpoint(), 3600.0 * 6.0, None);
    svc
}

/// Runs one serving pass over `cfg`'s trace and request sequence and
/// returns its deterministic facts.
pub fn run_serve_bench(cfg: &ServeBenchConfig) -> ServeBenchReport {
    let trace = serve_trace(cfg);
    let mut svc = serve_service(cfg, &trace);
    let mid = trace.midpoint();
    let end = Time(trace.duration().as_secs());
    let span = end.0.saturating_sub(mid.0).max(1);

    let mut place_decisions = 0u64;
    let mut routed = 0u64;
    for i in 0..cfg.decisions {
        let at = Time(mid.0 + span * i / cfg.decisions.max(1));
        let d = svc
            .decide(at, request_at(i, cfg.nodes))
            .expect("service configured");
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
    let oracle = svc
        .sim()
        .scheme()
        .oracle_stats()
        .expect("service configured");
    ServeBenchReport {
        nodes: cfg.nodes,
        contacts: trace.contact_count(),
        central_nodes: svc.sim().scheme().central_nodes().len(),
        decisions: stats.decisions,
        place_decisions,
        routed_decisions: routed,
        decision_checksum: stats.checksum,
        oracle_table_recomputes: oracle.table_recomputes,
        oracle_nodes_settled: oracle.nodes_settled,
        oracle_table_hits: oracle.table_hits,
    }
}

impl ServeBenchReport {
    /// Renders the report as the `results.smoke` object of
    /// `BENCH_serve.json`. Every key carries the `_exact` suffix (or is
    /// the `decision_checksum`), which `experiments compare` gates
    /// bit-exactly.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .with("nodes_exact", self.nodes)
            .with("contacts_exact", self.contacts)
            .with("central_nodes_exact", self.central_nodes)
            .with("decisions_exact", self.decisions)
            .with("place_decisions_exact", self.place_decisions)
            .with("routed_decisions_exact", self.routed_decisions)
            .with("decision_checksum", self.decision_checksum)
            .with(
                "oracle_table_recomputes_exact",
                self.oracle_table_recomputes,
            )
            .with("oracle_nodes_settled_exact", self.oracle_nodes_settled)
            .with("oracle_table_hits_exact", self.oracle_table_hits)
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
///    equal an independent recomputation through the §V-A rule,
///    `PathOracle::forward`, on a fresh oracle over the same rates.
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
                if n == source || !fresh.forward(rates, d.at, source, n, plan.central) {
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
            seed: 7,
            ncl_count: 3,
        }
    }

    #[test]
    fn bench_report_is_reproducible_and_renders_json() {
        let cfg = tiny();
        let a = run_serve_bench(&cfg);
        let b = run_serve_bench(&cfg);
        assert_eq!(a.decisions, cfg.decisions);
        assert_eq!(a.decision_checksum, b.decision_checksum);
        assert_eq!(a.contacts, b.contacts);
        assert_eq!(a.oracle_nodes_settled, b.oracle_nodes_settled);
        // Early exit: fewer nodes settled than searches × population.
        assert!(a.oracle_table_recomputes > 0);
        assert!(a.oracle_nodes_settled < a.oracle_table_recomputes * cfg.nodes as u64);
        assert_eq!(a.place_decisions, 30);
        let doc = JsonValue::parse(&a.to_json().pretty()).expect("valid JSON");
        assert_eq!(
            doc.get("decisions_exact").and_then(JsonValue::as_u64),
            Some(cfg.decisions)
        );
        assert_eq!(
            doc.get("decision_checksum").and_then(JsonValue::as_u64),
            Some(a.decision_checksum),
            "the digest survives the document on all 64 bits"
        );
    }

    #[test]
    fn differential_is_clean_on_a_shared_trace() {
        let problems = run_serve_differential(&tiny());
        assert!(problems.is_empty(), "{problems:?}");
    }
}
