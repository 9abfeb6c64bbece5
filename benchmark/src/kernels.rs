//! Unit costs: each kernel timed alone, through its public function, on
//! inputs captured from the running workload at the midpoint (the live
//! rate table, the graph snapshot built from it, real path rate vectors,
//! real item sizes and buffer capacities).
//!
//! These are *not* shares of the end-to-end time — they are the price of
//! one call, which the per-layer counters multiply.

use std::hint::black_box;
use std::time::{Duration as Wall, Instant};

use crate::json::Json;
use crate::report::Report;
use dtn_core::graph::{ContactGraph, CsrGraph, Topology};
use dtn_core::hypoexp::Accumulator;
use dtn_core::ids::NodeId;
use dtn_core::knapsack::{CacheItem, KnapsackSolver};
use dtn_core::ncl::{select_by_strategy, SelectionStrategy};
use dtn_core::path::{bounded_shortest_paths, shortest_paths, ReachScratch};
use dtn_core::rate::RateTable;
use dtn_core::time::Time;
use dtn_trace::trace::Contact;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Wall-clock allowance per kernel; keeps the traced run inside the
/// driver's time cap at city scale.
const BOX: Wall = Wall::from_millis(300);
/// Most path-search sources sampled.
const MAX_SOURCES: usize = 2_000;
/// Hop bound used for the bounded search where the workload sets none.
const DEFAULT_HOPS: usize = 3;

/// What the kernels run on.
pub struct KernelInputs<'a> {
    /// The engine's live rate table at the midpoint.
    pub rates: &'a RateTable,
    /// The midpoint.
    pub now: Time,
    /// Path-weight horizon `T`, seconds.
    pub horizon: f64,
    /// NCLs to select.
    pub ncl_count: usize,
    /// The selection strategy the workload configures with.
    pub selection: SelectionStrategy,
    /// `Some(h)` when the workload runs the oracle in bounded-reach mode
    /// (CSR snapshot); `None` for the dense exact oracle.
    pub bounded_hops: Option<usize>,
    /// The contacts of the warm-up half, in stream order.
    pub warm_contacts: &'a [Contact],
    /// Sizes of the workload's data items (empty: no caching workload).
    pub item_sizes: &'a [u64],
    /// Per-node buffer capacities.
    pub capacities: &'a [u64],
    /// Seed for the knapsack instance sampler.
    pub seed: u64,
}

/// Mean cost of one call of each kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCosts {
    /// `RateTable::record`, ns per contact.
    pub record_ns: f64,
    /// Graph snapshot from the rate table, ms per build.
    pub snapshot_build_ms: f64,
    /// `shortest_paths`, µs per source.
    pub search_us: f64,
    /// `bounded_shortest_paths`, µs per source.
    pub bounded_search_us: f64,
    /// `Accumulator::extended_cdf`, ns per evaluation.
    pub extended_cdf_ns: f64,
    /// `KnapsackSolver::solve_in`, µs per solve (0 without items).
    pub knapsack_solve_us: f64,
    /// NCL selection on the midpoint graph, s per selection.
    pub ncl_select_s: f64,
}

impl KernelCosts {
    /// Records every unit cost in `report`, and with them the oracle's
    /// estimated busy time: `recomputes` per-source searches (the bounded
    /// one when `bounded`) plus `rebuilds` snapshot builds, each at its
    /// unit cost. Returns that estimate, in seconds.
    pub fn record(
        &self,
        report: &mut Report,
        bounded: bool,
        recomputes: f64,
        rebuilds: f64,
    ) -> f64 {
        for (name, value) in [
            ("dtn-core.rate.record_ns", self.record_ns),
            ("dtn-core.graph.snapshot_build_ms", self.snapshot_build_ms),
            ("dtn-core.path.search_us", self.search_us),
            ("dtn-core.path.bounded_search_us", self.bounded_search_us),
            ("dtn-core.hypoexp.extended_cdf_ns", self.extended_cdf_ns),
            ("dtn-core.knapsack.solve_us", self.knapsack_solve_us),
            ("dtn-core.ncl.select_s", self.ncl_select_s),
        ] {
            report.set(name, vec![value]);
        }
        let search_us = if bounded {
            self.bounded_search_us
        } else {
            self.search_us
        };
        let oracle_s = recomputes * search_us / 1e6 + rebuilds * self.snapshot_build_ms / 1e3;
        report.set("dtn-sim.oracle.est_busy_s", vec![oracle_s]);
        report.note(
            "oracle_counters_note",
            Json::Str(
                "cumulative at the last oracle_rebuilt probe event, which the scheme relays on \
                 the first contact after a rebuild; later recomputes and hits are invisible \
                 from outside"
                    .to_string(),
            ),
        );
        oracle_s
    }
}

/// The oracle's probe counters `(rebuilds, recomputes, hits)` as
/// per-layer values.
pub fn oracle_values(counters: (u64, u64, u64)) -> [(&'static str, f64); 4] {
    let (rebuilds, recomputes, hits) = counters;
    [
        ("dtn-sim.oracle.rebuilds", rebuilds as f64),
        ("dtn-sim.oracle.table_recomputes", recomputes as f64),
        ("dtn-sim.oracle.table_hits", hits as f64),
        (
            "dtn-sim.oracle.hit_ratio",
            hits as f64 / (recomputes + hits).max(1) as f64,
        ),
    ]
}

/// Calls `f` until [`BOX`] has elapsed (at least once); mean seconds per call.
pub fn mean_secs(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u32;
    loop {
        f();
        calls += 1;
        if started.elapsed() >= BOX {
            return started.elapsed().as_secs_f64() / f64::from(calls);
        }
    }
}

/// Calls `f` on sources spread evenly over the population until all
/// sampled sources are done or [`BOX`] has elapsed; mean µs per source.
fn per_source_us(nodes: usize, mut f: impl FnMut(NodeId)) -> f64 {
    let stride = nodes.div_ceil(MAX_SOURCES).max(1);
    let started = Instant::now();
    let mut done = 0u32;
    for source in (0..nodes).step_by(stride) {
        f(NodeId(source as u32));
        done += 1;
        if started.elapsed() >= BOX {
            break;
        }
    }
    started.elapsed().as_secs_f64() * 1e6 / f64::from(done.max(1))
}

fn on_graph<G: Topology + Sync>(graph: &G, input: &KernelInputs<'_>, costs: &mut KernelCosts) {
    let nodes = graph.node_count();
    costs.search_us = per_source_us(nodes, |s| {
        black_box(shortest_paths(graph, s, input.horizon));
    });
    let hops = input.bounded_hops.unwrap_or(DEFAULT_HOPS);
    let mut scratch = ReachScratch::new();
    costs.bounded_search_us = per_source_us(nodes, |s| {
        black_box(bounded_shortest_paths(
            graph,
            s,
            input.horizon,
            hops,
            &mut scratch,
        ));
    });

    // Real multi-hop rate vectors: every evaluation extends the first
    // k−1 hops by the last one, as the path search does per relaxation.
    let mut paths: Vec<(Accumulator, f64)> = Vec::new();
    let stride = nodes.div_ceil(8).max(1);
    for source in (0..nodes).step_by(stride) {
        let table = shortest_paths(graph, NodeId(source as u32), input.horizon);
        for dest in (0..nodes as u32).map(NodeId) {
            let Some(path) = table.path_to(dest) else {
                continue;
            };
            if let Some((&last, head)) = path.rates().split_last().filter(|(_, h)| !h.is_empty()) {
                let mut acc = Accumulator::new();
                head.iter().for_each(|&r| acc.push(r));
                paths.push((acc, last));
            }
            if paths.len() >= 2_000 {
                break;
            }
        }
    }
    if !paths.is_empty() {
        costs.extended_cdf_ns = mean_secs(|| {
            for (acc, last) in &paths {
                black_box(acc.extended_cdf(*last, input.horizon));
            }
        }) * 1e9
            / paths.len() as f64;
    }

    costs.ncl_select_s = mean_secs(|| {
        black_box(select_by_strategy(
            graph,
            input.ncl_count,
            input.horizon,
            input.selection,
        ));
    });
}

/// Times every kernel on `input`.
pub fn measure(input: &KernelInputs<'_>) -> KernelCosts {
    let mut costs = KernelCosts::default();
    let nodes = input.rates.node_count();

    if !input.warm_contacts.is_empty() {
        costs.record_ns = mean_secs(|| {
            let mut table = RateTable::new(nodes, Time::ZERO);
            for c in input.warm_contacts {
                table.record(c.a, c.b, c.start);
            }
            black_box(table.total_contacts());
        }) * 1e9
            / input.warm_contacts.len() as f64;
    }

    // The oracle snapshots into a CSR graph in bounded-reach mode and
    // into an adjacency graph otherwise; build and search the same one.
    if input.bounded_hops.is_some() {
        costs.snapshot_build_ms = mean_secs(|| {
            black_box(CsrGraph::from_rate_table(input.rates, input.now));
        }) * 1e3;
        on_graph(
            &CsrGraph::from_rate_table(input.rates, input.now),
            input,
            &mut costs,
        );
    } else {
        costs.snapshot_build_ms = mean_secs(|| {
            black_box(ContactGraph::from_rate_table(input.rates, input.now));
        }) * 1e3;
        on_graph(
            &ContactGraph::from_rate_table(input.rates, input.now),
            input,
            &mut costs,
        );
    }

    if !input.item_sizes.is_empty() {
        // A cache exchange pools the items of two nodes and solves for
        // one buffer: a handful to a few dozen candidates per solve.
        let mut rng = StdRng::seed_from_u64(input.seed ^ 0x4B4E_4150);
        let instances: Vec<(Vec<CacheItem>, u64)> = (0..256)
            .map(|_| {
                let count = rng.gen_range(4..=24usize);
                let items = (0..count)
                    .map(|_| CacheItem {
                        size: input.item_sizes[rng.gen_range(0..input.item_sizes.len())],
                        utility: rng.gen_range(0.0..1.0),
                    })
                    .collect();
                (
                    items,
                    input.capacities[rng.gen_range(0..input.capacities.len())],
                )
            })
            .collect();
        let quantum = dtn_cache::intentional::IntentionalConfig::default().knapsack_quantum;
        let mut solver = KnapsackSolver::new(quantum);
        costs.knapsack_solve_us = mean_secs(|| {
            for (items, capacity) in &instances {
                black_box(solver.solve_in(items, *capacity).total_size);
            }
        }) * 1e6
            / instances.len() as f64;
    }
    costs
}
