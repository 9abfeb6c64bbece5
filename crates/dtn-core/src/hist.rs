//! Fixed-bucket histograms for hot-loop instrumentation.
//!
//! A [`Histogram`] allocates its bucket array once at construction;
//! [`Histogram::record`] is a constant-time array increment with no heap
//! traffic, so it is safe to call from the simulation hot loop. Values
//! are unsigned integers (seconds, hops, bytes); alongside the buckets
//! the histogram keeps the *exact* `count` and `sum`, so
//! [`Histogram::mean`] is exact regardless of bucket resolution — the
//! buckets only quantise the *shape*, never the aggregate.

/// A fixed-bucket histogram over `u64` values.
///
/// Buckets are uniform: bucket `i` covers `[i·width, (i+1)·width)`, and
/// the final bucket additionally absorbs every value at or beyond the
/// nominal range (an explicit overflow bucket).
///
/// # Example
///
/// ```
/// use dtn_core::hist::Histogram;
/// let mut h = Histogram::new(10, 4); // buckets [0,10) [10,20) [20,30) [30,∞)
/// h.record(3);
/// h.record(12);
/// h.record(1_000); // overflow → last bucket
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.sum(), 1_015);
/// assert_eq!(h.counts(), &[1, 1, 0, 1]);
/// assert_eq!(h.mean(), Some(1_015.0 / 3.0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    width: u64,
    counts: Box<[u64]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` uniform buckets of `width`
    /// each (the last bucket also collects overflow).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `buckets == 0`.
    pub fn new(width: u64, buckets: usize) -> Self {
        assert!(width > 0, "bucket width must be positive");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            width,
            counts: vec![0; buckets].into_boxed_slice(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one value. Constant time, no allocation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let last = self.counts.len() - 1;
        let idx = ((value / self.width) as usize).min(last);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of the recorded values, `None` when empty.
    ///
    /// Computed from the exact running `sum`/`count`, not from bucket
    /// midpoints — bucket resolution does not affect this value.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Per-bucket counts; the last entry includes overflow.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The inclusive lower bound of bucket `i`.
    fn bucket_start(&self, i: usize) -> u64 {
        self.width * i as u64
    }

    /// Renders a compact one-line-per-bucket ASCII view (empty tail
    /// buckets are skipped), for human-readable run reports.
    pub fn render(&self, label: &str, unit: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{label}: n={} mean={:.1}{unit} max={}{unit}",
            self.count,
            self.mean().unwrap_or(0.0),
            self.max,
        );
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let last_used = self.counts.iter().rposition(|&c| c > 0);
        let Some(last_used) = last_used else {
            return out;
        };
        for i in 0..=last_used {
            let c = self.counts[i];
            let bar = "#".repeat(((c * 40).div_ceil(peak)) as usize);
            let _ = writeln!(
                out,
                "  [{:>8}{unit}, {:>8}{unit}) {:>8} {bar}",
                self.bucket_start(i),
                if i == self.counts.len() - 1 {
                    "inf".to_string()
                } else {
                    self.bucket_start(i + 1).to_string()
                },
                c,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_buckets() {
        let mut h = Histogram::new(100, 5);
        for v in [0, 99, 100, 250, 499, 500, 10_000] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 1, 1, 0, 3]); // 499→[400,500); 500 & 10k overflow
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 99 + 100 + 250 + 499 + 500 + 10_000);
        assert_eq!(h.max(), 10_000);
    }

    #[test]
    fn mean_is_exact_not_bucketed() {
        // One absurdly coarse bucket: the mean must still be exact.
        let mut h = Histogram::new(1_000_000, 1);
        h.record(7);
        h.record(8);
        assert_eq!(h.mean(), Some(7.5));
        assert_eq!(Histogram::new(1, 1).mean(), None);
    }

    #[test]
    fn render_skips_empty_tail() {
        let mut h = Histogram::new(10, 100);
        h.record(5);
        h.record(15);
        let s = h.render("delay", "s");
        assert!(s.contains("n=2"));
        assert!(s.contains("[       0s,       10s)"));
        assert!(!s.contains("990"), "empty tail buckets must be skipped");
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_panics() {
        let _ = Histogram::new(0, 4);
    }
}
