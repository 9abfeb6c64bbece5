//! The Zipf query-popularity distribution (Eq. 8 of the paper).
//!
//! "We assume that the query pattern follows a Zipf distribution, which
//! has been proved to appropriately describe the query pattern of web
//! data access" (§VI-A):
//!
//! ```text
//! P_j = (1/j^s) / Σ_{i=1..M} (1/i^s)
//! ```

use rand::Rng;

/// A Zipf distribution over ranks `1..=M` with exponent `s`.
///
/// # Example
///
/// ```
/// use dtn_workload::Zipf;
///
/// let z = Zipf::new(100, 1.0);
/// // Rank 1 is the most popular...
/// assert!(z.probability(1) > z.probability(2));
/// // ...and the probabilities sum to one.
/// let total: f64 = (1..=100).map(|j| z.probability(j)).sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    exponent: f64,
    /// cdf[j-1] = P(rank ≤ j)
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates the distribution over `m` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `s` is negative or not finite.
    pub fn new(m: usize, s: f64) -> Self {
        assert!(m > 0, "Zipf needs at least one rank");
        assert!(
            s.is_finite() && s >= 0.0,
            "exponent must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(m);
        let mut acc = 0.0;
        for j in 1..=m {
            acc += (j as f64).powf(-s);
            cdf.push(acc);
        }
        let norm = acc;
        for v in &mut cdf {
            *v /= norm;
        }
        Zipf { exponent: s, cdf }
    }

    /// Number of ranks `M`.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution has no ranks (never true by
    /// construction; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// The probability `P_j` of rank `j ∈ 1..=M`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is 0 or exceeds `M`.
    pub fn probability(&self, j: usize) -> f64 {
        assert!(
            j >= 1 && j <= self.cdf.len(),
            "rank {j} out of 1..={}",
            self.cdf.len()
        );
        if j == 1 {
            self.cdf[0]
        } else {
            self.cdf[j - 1] - self.cdf[j - 2]
        }
    }

    /// Samples a rank in `1..=M`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probabilities_sum_to_one() {
        for s in [0.0, 0.5, 1.0, 1.5] {
            let z = Zipf::new(50, s);
            let total: f64 = (1..=50).map(|j| z.probability(j)).sum();
            assert!((total - 1.0).abs() < 1e-9, "s={s}: total {total}");
        }
    }

    #[test]
    fn probabilities_are_monotone_decreasing() {
        let z = Zipf::new(30, 1.0);
        for j in 1..30 {
            assert!(z.probability(j) >= z.probability(j + 1));
        }
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for j in 1..=10 {
            assert!((z.probability(j) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn higher_exponent_concentrates_mass_on_rank_one() {
        let flat = Zipf::new(100, 0.5);
        let steep = Zipf::new(100, 1.5);
        assert!(steep.probability(1) > flat.probability(1));
        assert!(steep.probability(100) < flat.probability(100));
    }

    #[test]
    fn matches_paper_fig9b_shape() {
        // Fig. 9(b): with s = 1 and M large, P_1 is a bit under 0.2 for
        // M=100; check the closed form directly.
        let z = Zipf::new(100, 1.0);
        let h100: f64 = (1..=100).map(|i| 1.0 / i as f64).sum();
        assert!((z.probability(1) - 1.0 / h100).abs() < 1e-12);
    }

    #[test]
    fn sampling_tracks_probabilities() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        for j in 1..=10 {
            let freq = f64::from(counts[j - 1]) / f64::from(n);
            assert!(
                (freq - z.probability(j)).abs() < 0.01,
                "rank {j}: {freq} vs {}",
                z.probability(j)
            );
        }
    }

    #[test]
    fn len_and_exponent_accessors() {
        let z = Zipf::new(7, 0.8);
        assert_eq!(z.len(), 7);
        assert!(!z.is_empty());
        assert_eq!(z.exponent(), 0.8);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_zipf_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of 1..=")]
    fn rank_zero_panics() {
        let z = Zipf::new(5, 1.0);
        let _ = z.probability(0);
    }
}
