//! Hierarchical wall-clock phase profiler.
//!
//! The engine (and, through [`SimCtx`], the schemes) brackets its
//! phases with [`Profiler::enter`]/[`Profiler::exit`] spans. Spans
//! nest: entering a phase while another is open creates (or reuses) a
//! child node, so the aggregate is a tree keyed by *call path*, not
//! just phase name — `audit_sweep` under `contact_commit` and
//! `audit_sweep` under `epoch_maintenance` are separate rows. Each node
//! accumulates call count and total wall time; self time (total minus
//! children) is derived at report time.
//!
//! Zero-cost discipline matches [`ProbeSink`]: the engine carries
//! `Option<Box<Profiler>>` — one machine word, one predicted branch per
//! span site when disabled.
//!
//! [`SimCtx`]: crate::engine::SimCtx
//! [`ProbeSink`]: crate::probe::ProbeSink

use std::time::Instant;

/// The engine and scheme phases the profiler knows. Fixed enum — span
/// sites never format strings on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Dispatching one contact (runs spend almost everything here).
    ContactCommit,
    /// Workload injection (data generation and query issue hooks).
    Workload,
    /// The periodic [`Scheme::on_epoch`] maintenance callback.
    ///
    /// [`Scheme::on_epoch`]: crate::engine::Scheme::on_epoch
    EpochMaintenance,
    /// Maintenance-driven contact-graph refresh, central re-selection
    /// and oracle invalidation (nested under epoch maintenance).
    OracleRebuild,
    /// Knapsack cache-replacement solves (Algorithm 1 / DP).
    KnapsackSolve,
    /// One invariant-audit sweep.
    AuditSweep,
    /// Periodic cache-occupancy sampling.
    Sample,
}

impl Phase {
    /// Stable snake-case name, used by reports and the capture's phase
    /// rows.
    pub fn name(self) -> &'static str {
        match self {
            Phase::ContactCommit => "contact_commit",
            Phase::Workload => "workload",
            Phase::EpochMaintenance => "epoch_maintenance",
            Phase::OracleRebuild => "oracle_rebuild",
            Phase::KnapsackSolve => "knapsack_solve",
            Phase::AuditSweep => "audit_sweep",
            Phase::Sample => "sample",
        }
    }
}

/// One aggregated node of the span tree.
#[derive(Debug, Clone)]
struct Node {
    phase: Phase,
    children: Vec<usize>,
    calls: u64,
    total: std::time::Duration,
}

/// The span aggregator. See the module docs for the discipline.
#[derive(Debug, Default)]
pub struct Profiler {
    nodes: Vec<Node>,
    roots: Vec<usize>,
    /// Open spans: (node index, start instant).
    stack: Vec<(usize, Instant)>,
}

impl Profiler {
    /// An empty profiler with no open spans.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Opens a span for `phase` nested under the currently open span
    /// (or as a root). Must be balanced by [`Profiler::exit`].
    pub fn enter(&mut self, phase: Phase) {
        let parent = self.stack.last().map(|&(i, _)| i);
        let idx = self.find_or_create(parent, phase);
        self.stack.push((idx, Instant::now()));
    }

    /// Closes the innermost open span, charging its elapsed wall time.
    ///
    /// # Panics
    ///
    /// Panics if no span is open — an unbalanced span site is a bug.
    pub fn exit(&mut self) {
        let (idx, started) = self.stack.pop().expect("profiler span underflow");
        let node = &mut self.nodes[idx];
        node.calls += 1;
        node.total += started.elapsed();
    }

    fn find_or_create(&mut self, parent: Option<usize>, phase: Phase) -> usize {
        let existing = match parent {
            Some(p) => self.nodes[p]
                .children
                .iter()
                .copied()
                .find(|&i| self.nodes[i].phase == phase),
            None => self
                .roots
                .iter()
                .copied()
                .find(|&i| self.nodes[i].phase == phase),
        };
        if let Some(i) = existing {
            return i;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            phase,
            children: Vec::new(),
            calls: 0,
            total: std::time::Duration::ZERO,
        });
        match parent {
            Some(p) => self.nodes[p].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    /// Snapshots the aggregated tree. Open spans are not included.
    pub fn report(&self) -> ProfileReport {
        let mut entries = Vec::with_capacity(self.nodes.len());
        for &root in &self.roots {
            self.walk(root, 0, &mut entries);
        }
        ProfileReport { entries }
    }

    fn walk(&self, idx: usize, depth: usize, out: &mut Vec<ProfileEntry>) {
        let node = &self.nodes[idx];
        let children_total: std::time::Duration =
            node.children.iter().map(|&c| self.nodes[c].total).sum();
        out.push(ProfileEntry {
            phase: node.phase.name(),
            depth,
            calls: node.calls,
            total_ns: node.total.as_nanos() as u64,
            self_ns: node.total.saturating_sub(children_total).as_nanos() as u64,
        });
        for &c in &node.children {
            self.walk(c, depth + 1, out);
        }
    }
}

/// One row of the aggregated report, preorder (parents before
/// children), with `depth` giving the nesting level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Phase name ([`Phase::name`]).
    pub phase: &'static str,
    /// Nesting depth in the span tree (0 = root).
    pub depth: usize,
    /// Completed spans aggregated into this node.
    pub calls: u64,
    /// Total wall time, including children.
    pub total_ns: u64,
    /// Total minus the children's totals.
    pub self_ns: u64,
}

/// The preorder span-tree snapshot of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Rows, parents before children.
    pub entries: Vec<ProfileEntry>,
}

impl ProfileReport {
    /// Sum of root totals — the profiled share of the run.
    pub fn total_ns(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.depth == 0)
            .map(|e| e.total_ns)
            .sum()
    }

    /// Renders the tree as an indented self/total/calls table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("-- phase profile --\n");
        let _ = writeln!(
            out,
            "{:<40} {:>10} {:>12} {:>12} {:>7}",
            "phase", "calls", "total ms", "self ms", "self %"
        );
        let grand = self.total_ns().max(1) as f64;
        for e in &self.entries {
            let label = format!("{}{}", "  ".repeat(e.depth), e.phase);
            let _ = writeln!(
                out,
                "{:<40} {:>10} {:>12.3} {:>12.3} {:>6.1}%",
                label,
                e.calls,
                e.total_ns as f64 / 1e6,
                e.self_ns as f64 / 1e6,
                e.self_ns as f64 / grand * 100.0
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_aggregate_by_call_path() {
        let mut p = Profiler::new();
        for _ in 0..3 {
            p.enter(Phase::ContactCommit);
            p.enter(Phase::KnapsackSolve);
            p.exit();
            p.enter(Phase::AuditSweep);
            p.exit();
            p.exit();
        }
        p.enter(Phase::EpochMaintenance);
        p.enter(Phase::AuditSweep);
        p.exit();
        p.exit();

        let report = p.report();
        let find = |phase: &str, depth: usize| {
            report
                .entries
                .iter()
                .find(|e| e.phase == phase && e.depth == depth)
                .unwrap_or_else(|| panic!("missing {phase} at depth {depth}"))
        };
        assert_eq!(find("contact_commit", 0).calls, 3);
        assert_eq!(find("knapsack_solve", 1).calls, 3);
        // audit_sweep appears twice: once under each parent path.
        assert_eq!(find("epoch_maintenance", 0).calls, 1);
        let audits: Vec<_> = report
            .entries
            .iter()
            .filter(|e| e.phase == "audit_sweep")
            .collect();
        assert_eq!(audits.len(), 2);
        assert_eq!(audits.iter().map(|e| e.calls).sum::<u64>(), 4);
    }

    #[test]
    fn self_time_is_total_minus_children() {
        let mut p = Profiler::new();
        p.enter(Phase::ContactCommit);
        p.enter(Phase::KnapsackSolve);
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.exit();
        p.exit();
        let report = p.report();
        let parent = &report.entries[0];
        let child = &report.entries[1];
        assert_eq!(parent.phase, "contact_commit");
        assert_eq!(child.phase, "knapsack_solve");
        assert!(parent.total_ns >= child.total_ns);
        assert_eq!(parent.self_ns, parent.total_ns - child.total_ns);
        assert_eq!(child.self_ns, child.total_ns);
        assert_eq!(report.total_ns(), parent.total_ns);
    }

    #[test]
    fn render_covers_every_row() {
        let mut p = Profiler::new();
        p.enter(Phase::Workload);
        p.exit();
        p.enter(Phase::Sample);
        p.exit();
        let report = p.report();
        let table = report.render();
        assert!(table.contains("workload"));
        assert!(table.contains("sample"));
        assert_eq!(report.entries.len(), 2);
    }

    #[test]
    #[should_panic(expected = "span underflow")]
    fn unbalanced_exit_panics() {
        Profiler::new().exit();
    }
}
