//! Multi-seed experiment execution with deterministic parallel fan-out.
//!
//! "Each simulation is repeated multiple times with randomly generated
//! data and queries for statistical convergence" (§VI). A figure is a
//! sweep: a list of parameter points, each repeated over several seeds.
//! [`averaged_sweep`] flattens the whole (point × seed) grid into one
//! job list and fans it out over [`dtn_core::par::map_slice`], which is
//! order-preserving — so the per-point aggregation below consumes seed
//! results in exactly the order a serial loop would produce, and every
//! figure's numbers are independent of thread scheduling.

use dtn_cache::experiment::{run_experiment, ExperimentConfig, ExperimentReport};
use dtn_cache::SchemeKind;
use dtn_core::par::map_slice;
use dtn_trace::trace::ContactTrace;

/// One parameter point of a figure sweep: a scheme and configuration to
/// repeat over seeds on a (shared) trace.
#[derive(Debug, Clone)]
pub struct SweepPoint<'a> {
    /// The contact trace to simulate on.
    pub trace: &'a ContactTrace,
    /// Which scheme runs.
    pub scheme: SchemeKind,
    /// The experiment configuration of this point.
    pub config: ExperimentConfig,
}

/// Seed-averaged metrics for one experiment point.
#[derive(Debug, Clone, PartialEq)]
pub struct AveragedReport {
    /// The scheme that ran.
    pub scheme: SchemeKind,
    /// Mean successful ratio across seeds.
    pub success_ratio: f64,
    /// Mean data access delay (hours) across seeds.
    pub avg_delay_hours: f64,
    /// Mean caching overhead (copies per item) across seeds.
    pub avg_copies_per_item: f64,
    /// Mean replacement operations per item across seeds.
    pub avg_replacements_per_item: f64,
    /// Mean queries issued per seed.
    pub queries_issued: f64,
    /// Mean bytes transmitted per satisfied query.
    pub bytes_per_satisfied_query: f64,
    /// Number of seeds averaged.
    pub seeds: u32,
    /// The same metrics of each seed alone, in seed order — what a
    /// verdict pairs across schemes. Empty in each of these.
    pub per_seed: Vec<AveragedReport>,
}

/// The mean of `runs` (`seeds` of them) and, beside it, each run alone.
fn aggregate(point: &SweepPoint<'_>, runs: &[ExperimentReport], seeds: u32) -> AveragedReport {
    let mut report = averaged(point, runs, seeds);
    report.per_seed = runs
        .iter()
        .map(|run| averaged(point, std::slice::from_ref(run), 1))
        .collect();
    report
}

fn averaged(point: &SweepPoint<'_>, runs: &[ExperimentReport], seeds: u32) -> AveragedReport {
    let mean = |f: fn(&ExperimentReport) -> f64| runs.iter().map(f).sum::<f64>() / f64::from(seeds);
    AveragedReport {
        scheme: point.scheme,
        success_ratio: mean(|r| r.success_ratio),
        avg_delay_hours: mean(|r| r.avg_delay_hours),
        avg_copies_per_item: mean(|r| r.avg_copies_per_item),
        avg_replacements_per_item: mean(|r| r.avg_replacements_per_item),
        queries_issued: mean(|r| r.queries_issued as f64),
        bytes_per_satisfied_query: mean(|r| r.bytes_per_satisfied_query),
        seeds,
        per_seed: Vec::new(),
    }
}

/// Runs every sweep point over `seeds` repetitions, fanning the whole
/// (point × seed) grid out in parallel, and returns per-point averaged
/// reports. Results are in input-point order and identical to a serial
/// nested loop (seed `s` of a point runs with RNG seed `s + 1`, and
/// averages are summed in seed order).
///
/// # Panics
///
/// Panics if `seeds == 0` or a worker panics.
pub fn averaged_sweep(points: &[SweepPoint<'_>], seeds: u32) -> Vec<AveragedReport> {
    assert!(seeds > 0, "need at least one seed");
    let jobs: Vec<(usize, u64)> = (0..points.len())
        .flat_map(|p| (0..seeds).map(move |s| (p, u64::from(s) + 1)))
        .collect();
    let runs = map_slice(&jobs, |&(p, seed)| {
        let point = &points[p];
        run_experiment(point.trace, point.scheme, &point.config, seed)
    });
    runs.chunks(seeds as usize)
        .zip(points)
        .map(|(chunk, point)| aggregate(point, chunk, seeds))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::time::Duration;
    use dtn_trace::synthetic::SyntheticTraceBuilder;

    fn small_trace() -> ContactTrace {
        SyntheticTraceBuilder::new(12)
            .duration(Duration::days(1))
            .target_contacts(2_000)
            .seed(3)
            .build()
    }

    fn small_config() -> ExperimentConfig {
        ExperimentConfig {
            ncl_count: 2,
            mean_data_lifetime: Duration::hours(6),
            mean_data_size: 1 << 20,
            buffer_range: (8 << 20, 16 << 20),
            ..ExperimentConfig::default()
        }
    }

    fn point(trace: &ContactTrace, scheme: SchemeKind) -> SweepPoint<'_> {
        SweepPoint {
            trace,
            scheme,
            config: small_config(),
        }
    }

    #[test]
    fn averages_over_seeds() {
        let trace = small_trace();
        let avg = averaged_sweep(&[point(&trace, SchemeKind::Intentional)], 2).remove(0);
        assert_eq!(avg.seeds, 2);
        // The mean is the mean of the seeds it keeps.
        let seeds: Vec<f64> = avg.per_seed.iter().map(|r| r.success_ratio).collect();
        assert_eq!(seeds.len(), 2);
        assert_eq!(avg.success_ratio, (seeds[0] + seeds[1]) / 2.0);
        assert!((0.0..=1.0).contains(&avg.success_ratio));
        assert!(avg.queries_issued > 0.0);
    }

    #[test]
    fn sweep_matches_individual_runs() {
        // The fanned-out grid must aggregate exactly like one sweep per
        // point, in input order.
        let trace = small_trace();
        let points = [SchemeKind::NoCache, SchemeKind::Intentional].map(|k| point(&trace, k));
        let swept = averaged_sweep(&points, 2);
        assert_eq!(swept.len(), 2);
        for (point, report) in points.iter().zip(&swept) {
            let single = averaged_sweep(std::slice::from_ref(point), 2);
            assert_eq!(&single[0], report, "{} diverged", point.scheme);
        }
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn zero_seeds_panics() {
        let trace = SyntheticTraceBuilder::new(4).seed(1).build();
        let _ = averaged_sweep(&[point(&trace, SchemeKind::NoCache)], 0);
    }
}
