//! Order statistics and the virtual open-loop replay.
//!
//! Everything here is pure arithmetic over recorded wall-clock samples,
//! so it is unit-tested against hand-computed queues.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice — every caller records at least one pass.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile of `values` (linear interpolation between
/// order statistics); `None` for an empty sample.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = (v.len() - 1) as f64 * q;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (!v.is_empty()).then(|| (at(0.25), at(0.75)))
}

/// Smallest of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn minimum(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Robust duration of a pass made of fixed units of work, from several
/// passes over the same units: each unit counts with `pick` of its own
/// times across passes, and the picks are summed. Interference from
/// outside the process only ever adds time, and on this box it comes and
/// goes within a pass, so picking per unit recovers what picking among
/// whole-pass totals cannot.
///
/// # Panics
///
/// Panics when there is no pass or the passes disagree on the unit count.
pub fn unitwise_sum(passes: &[Vec<f64>], pick: fn(&[f64]) -> f64) -> f64 {
    let units = passes.first().expect("at least one pass").len();
    assert!(
        passes.iter().all(|p| p.len() == units),
        "passes time the same units"
    );
    (0..units)
        .map(|u| pick(&passes.iter().map(|p| p[u]).collect::<Vec<_>>()))
        .sum()
}

/// Samples strictly beyond the `q`-quantile's rank in a sorted sample of
/// `n` (nearest-rank on `n - 1`, the convention used everywhere here).
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, q)
}

fn rank(n: usize, q: f64) -> usize {
    ((n - 1) as f64 * q).round() as usize
}

/// The `q`-quantile of an ascending-sorted sample, or `None` when fewer
/// than ten samples lie beyond it — a percentile with nine or fewer
/// samples above it is one outlier away from a different number, so it
/// is not reported at all.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if samples_beyond(sorted.len(), q) < 10 {
        return None;
    }
    Some(sorted[rank(sorted.len(), q)])
}

/// Outcome of replaying recorded service times at one offered rate.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    /// Per-request latency (completion − due time), ascending.
    pub latencies_ns: Vec<u64>,
    /// Requests completed per second of virtual wall clock.
    pub achieved_per_s: f64,
}

impl OpenLoop {
    /// Share of requests whose latency exceeded `budget_ns`.
    pub fn miss_ratio(&self, budget_ns: u64) -> f64 {
        let misses =
            self.latencies_ns.len() - self.latencies_ns.partition_point(|&l| l <= budget_ns);
        misses as f64 / self.latencies_ns.len().max(1) as f64
    }
}

/// Replays `service_ns` open-loop at `offered_per_s`: request `i` is due
/// at `i / offered`, starts at `max(wall, due)` and its latency runs from
/// when it was *due*, so a stall is charged to every request queued
/// behind it. The generator is virtual, hence never late (lag 0).
pub fn replay_open_loop(service_ns: &[u64], offered_per_s: f64) -> OpenLoop {
    let mut run = replay_unsorted(service_ns, offered_per_s);
    run.latencies_ns.sort_unstable();
    run
}

/// The replay itself, latencies left in arrival order.
fn replay_unsorted(service_ns: &[u64], offered_per_s: f64) -> OpenLoop {
    let gap = 1e9 / offered_per_s;
    let mut wall = 0.0f64;
    let mut latencies_ns = Vec::with_capacity(service_ns.len());
    for (i, &s) in service_ns.iter().enumerate() {
        let due = i as f64 * gap;
        wall = wall.max(due) + s as f64;
        latencies_ns.push((wall - due) as u64);
    }
    let achieved_per_s = if wall > 0.0 {
        service_ns.len() as f64 * 1e9 / wall
    } else {
        0.0
    };
    OpenLoop {
        latencies_ns,
        achieved_per_s,
    }
}

/// Whether `offered_per_s` is sustainable: p99 latency within the budget
/// and no growing backlog (achieved ≥ 99% of offered).
fn meets_budget(service_ns: &[u64], offered_per_s: f64, budget_ns: u64) -> bool {
    let mut run = replay_unsorted(service_ns, offered_per_s);
    // The bisection calls this a dozen times per pass: select, don't sort.
    let at = rank(run.latencies_ns.len(), 0.99);
    let p99 = *run.latencies_ns.select_nth_unstable(at).1;
    p99 <= budget_ns && run.achieved_per_s >= 0.99 * offered_per_s
}

/// Highest offered rate (1% resolution, bisection in log space) that
/// [`meets_budget`]; 0 when even one request per second does not.
pub fn rate_at_budget(service_ns: &[u64], budget_ns: u64) -> f64 {
    let mut lo = 1.0f64;
    if service_ns.is_empty() || !meets_budget(service_ns, lo, budget_ns) {
        return 0.0;
    }
    // No rate above one request per fastest service time can be
    // sustained, so that is a safe upper end.
    let fastest = service_ns.iter().copied().min().unwrap_or(1).max(1);
    let mut hi = (2e9 / fastest as f64).max(2.0);
    if meets_budget(service_ns, hi, budget_ns) {
        return hi;
    }
    while hi / lo > 1.01 {
        let mid = (lo * hi).sqrt();
        if meets_budget(service_ns, mid, budget_ns) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[5.0]), Some((5.0, 5.0)));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), Some((2.0, 4.0)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some((1.75, 3.25)));
    }

    #[test]
    fn unitwise_sum_ignores_a_slowdown_that_hits_part_of_a_pass() {
        // Three passes over three units; pass 1 stalls on unit 0, pass 2
        // on unit 2. Every pass total is inflated or exact (6, 15, 13),
        // but each unit's median is its true time.
        let passes = vec![
            vec![1.0, 2.0, 3.0],
            vec![10.0, 2.0, 3.0],
            vec![1.0, 2.0, 10.0],
        ];
        assert_eq!(unitwise_sum(&passes, median), 6.0);
        assert_eq!(unitwise_sum(&passes[..1], median), 6.0);
        // Two of three passes stall on unit 0: the median carries it,
        // the minimum does not.
        let passes = vec![vec![10.0, 2.0], vec![10.0, 2.0], vec![1.0, 2.0]];
        assert_eq!(unitwise_sum(&passes, median), 12.0);
        assert_eq!(unitwise_sum(&passes, minimum), 3.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sorted: Vec<u64> = (0..1000).collect();
        // rank(0.99) = 989 → exactly 10 samples beyond.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(percentile(&sorted, 0.99), Some(989));
        // rank(0.999) = 998 → one sample beyond: not reported.
        assert_eq!(samples_beyond(1000, 0.999), 1);
        assert_eq!(percentile(&sorted, 0.999), None);
        // One sample short of the rule.
        let short: Vec<u64> = (0..950).collect();
        assert_eq!(samples_beyond(950, 0.99), 9);
        assert_eq!(percentile(&short, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
        // The median of 21 samples has exactly 10 beyond.
        let small: Vec<u64> = (0..21).collect();
        assert_eq!(percentile(&small, 0.5), Some(10));
    }

    #[test]
    fn open_loop_replay_matches_a_hand_computed_queue() {
        // 1000/s offered → due at 0, 1, 2, 3, 4 ms. Service times in ms:
        // 0.5, 3.5 (a stall longer than the gap), 0.5, 0.5, 0.5.
        //   r0: start 0.0 end 0.5            latency 0.5
        //   r1: start 1.0 end 4.5            latency 3.5
        //   r2: due 2.0 start 4.5 end 5.0    latency 3.0  (queued)
        //   r3: due 3.0 start 5.0 end 5.5    latency 2.5  (queued)
        //   r4: due 4.0 start 5.5 end 6.0    latency 2.0  (queued)
        let service = [500_000, 3_500_000, 500_000, 500_000, 500_000];
        let run = replay_open_loop(&service, 1000.0);
        assert_eq!(
            run.latencies_ns,
            vec![500_000, 2_000_000, 2_500_000, 3_000_000, 3_500_000]
        );
        // 5 requests completed by t = 6 ms.
        assert!((run.achieved_per_s - 5.0 / 0.006).abs() < 1e-6);
        // Budget 1 ms: four of five missed, although only one was slow.
        assert!((run.miss_ratio(1_000_000) - 0.8).abs() < 1e-12);
        // At 100/s (10 ms gaps) the stall never queues anything.
        let calm = replay_open_loop(&service, 100.0);
        assert_eq!(calm.latencies_ns[4], 3_500_000);
        assert!((calm.miss_ratio(1_000_000) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn rate_at_budget_finds_the_capacity_of_a_constant_server() {
        // Constant 100 µs service: capacity is 10 000/s, and below it the
        // latency is the service time, well inside a 1 ms budget.
        let service = vec![100_000u64; 5_000];
        let rate = rate_at_budget(&service, 1_000_000);
        assert!((9_800.0..=10_000.0).contains(&rate), "rate {rate}");
        // A budget below the service time can never be met.
        assert_eq!(rate_at_budget(&service, 50_000), 0.0);
    }

    #[test]
    fn rate_at_budget_is_set_by_stalls_not_by_the_mean() {
        // 2% of requests stall for 20 ms; the rest take 10 µs. Mean
        // capacity is ~2 400/s, but every request queued behind a stall
        // misses the 1 ms budget, so p99 only holds while a stall
        // delays (almost) nobody else: 20 ms × rate ≲ 1 → tens per s.
        let service: Vec<u64> = (0..10_000)
            .map(|i| if i % 50 == 0 { 20_000_000 } else { 10_000 })
            .collect();
        assert_eq!(
            rate_at_budget(&service, 1_000_000),
            0.0,
            "2% > 1%: p99 is a stall"
        );
        let service: Vec<u64> = (0..10_000)
            .map(|i| if i % 500 == 0 { 20_000_000 } else { 10_000 })
            .collect();
        let rate = rate_at_budget(&service, 1_000_000);
        // 0.2% stall; p99 tolerates 0.8% queued: 4 queued per stall,
        // i.e. (20 ms − 1 ms) × rate ≈ 4 → ≈ 210/s.
        assert!((150.0..=300.0).contains(&rate), "rate {rate}");
    }
}
