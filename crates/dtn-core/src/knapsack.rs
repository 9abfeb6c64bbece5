//! Cache-replacement knapsack (Eq. 7) and probabilistic data selection
//! (Algorithm 1 of the paper).
//!
//! When two caching nodes meet, their cached items are pooled into a
//! selection set and the node nearer the central node solves a 0/1
//! knapsack: maximise total utility subject to its buffer size. The paper
//! solves it with dynamic programming in pseudo-polynomial time
//! `O(n·S_A)`; since buffers are hundreds of megabytes, this module
//! quantises sizes to a configurable `quantum` (rounding item sizes *up*,
//! so a returned selection always really fits).
//!
//! Algorithm 1 then makes the selection probabilistic: each DP-selected
//! item is only actually cached with probability equal to its utility, and
//! the knapsack is re-solved over the leftovers until the buffer is full
//! or nothing fits. This deliberately lets unpopular data survive with
//! non-negligible probability, protecting cumulative data accessibility
//! (§V-D-3).

use rand::Rng;

/// One candidate item for the cache-replacement knapsack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheItem {
    /// Item size in bytes (must be positive).
    pub size: u64,
    /// Item utility `u_i ∈ [0, 1]` — its popularity probability (Eq. 6).
    pub utility: f64,
}

/// Result of a deterministic knapsack solve.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Selection {
    /// Indices (into the input slice) of the selected items, ascending.
    pub indices: Vec<usize>,
    /// Sum of the selected utilities.
    pub total_utility: f64,
    /// Sum of the selected (true, unquantised) sizes.
    pub total_size: u64,
}

/// 0/1 knapsack solver with size quantisation.
///
/// The solver owns reusable scratch buffers (DP table, decision bits,
/// Algorithm-1 pools), so a long-lived solver performs no per-call heap
/// allocation once the buffers have grown to the working-set size: both
/// entry points return borrowed results.
///
/// # Example
///
/// ```
/// use dtn_core::knapsack::{CacheItem, KnapsackSolver};
///
/// let mut solver = KnapsackSolver::new(1);
/// let items = [
///     CacheItem { size: 4, utility: 0.9 },
///     CacheItem { size: 3, utility: 0.6 },
///     CacheItem { size: 3, utility: 0.5 },
/// ];
/// // capacity 6: the two small items (1.1) beat the big one (0.9)
/// let sel = solver.solve_in(&items, 6);
/// assert_eq!(sel.indices, vec![1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct KnapsackSolver {
    quantum: u64,
    // Reusable scratch: grown on demand, never shrunk, so steady-state
    // calls allocate nothing.
    weights: Vec<usize>,
    dp: Vec<f64>,
    take: Vec<bool>,
    out: Selection,
    sel_pool: Vec<usize>,
    sel_pool_items: Vec<CacheItem>,
    sel_candidates: Vec<usize>,
    sel_taken: Vec<usize>,
    sel_out: Vec<usize>,
}

impl Default for KnapsackSolver {
    /// A solver with a 1 MB quantum, suitable for the paper's
    /// 20–200 MB items in 200–600 MB buffers.
    fn default() -> Self {
        KnapsackSolver::new(1 << 20)
    }
}

/// Upper bound on fruitless Algorithm-1 rounds before giving up, so that
/// pools of near-zero-utility items cannot spin forever.
const MAX_STALLED_ROUNDS: u32 = 8;

fn validate_items(items: &[CacheItem]) {
    for it in items {
        assert!(it.size > 0, "items must have positive size");
        assert!(
            it.utility.is_finite() && it.utility >= 0.0,
            "utility must be finite and non-negative, got {}",
            it.utility
        );
    }
}

impl KnapsackSolver {
    /// Creates a solver that quantises sizes to multiples of `quantum`
    /// bytes (item sizes round up, capacity rounds down — selections are
    /// always feasible at byte granularity).
    ///
    /// # Panics
    ///
    /// Panics if `quantum == 0`.
    pub fn new(quantum: u64) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        KnapsackSolver {
            quantum,
            weights: Vec::new(),
            dp: Vec::new(),
            take: Vec::new(),
            out: Selection::default(),
            sel_pool: Vec::new(),
            sel_pool_items: Vec::new(),
            sel_candidates: Vec::new(),
            sel_taken: Vec::new(),
            sel_out: Vec::new(),
        }
    }

    /// The configured quantum in bytes.
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// Solves the 0/1 knapsack exactly (at quantum granularity) by
    /// dynamic programming — maximise `Σ u_i` subject to
    /// `Σ s_i ≤ capacity` — into the solver's internal scratch, and
    /// returns a borrow of the result: zero heap allocation once the
    /// scratch has grown to the working-set size.
    ///
    /// When every positive-utility item individually fits and their total
    /// quantised weight fits the capacity, the DP is skipped entirely: the
    /// optimum is exactly the positive-utility items in index order, which
    /// is also what the DP reconstruction produces (zero-utility items can
    /// never satisfy the strict `with > dp[w]` improvement test, and the
    /// additions run in the same ascending-index order, so even the f64
    /// `total_utility` is bit-identical to the DP path's).
    ///
    /// # Panics
    ///
    /// Panics if an item has zero size or a utility that is negative or
    /// not finite.
    pub fn solve_in(&mut self, items: &[CacheItem], capacity: u64) -> &Selection {
        validate_items(items);
        self.out.indices.clear();
        self.out.total_utility = 0.0;
        self.out.total_size = 0;
        let cap_units = (capacity / self.quantum) as usize;
        if cap_units == 0 || items.is_empty() {
            return &self.out;
        }
        self.weights.clear();
        self.weights.extend(
            items
                .iter()
                .map(|it| (it.size.div_ceil(self.quantum)) as usize),
        );

        // Fast path: everything worth taking fits at once.
        let mut total_w = 0usize;
        let mut individually_fit = true;
        for (&w_i, it) in self.weights.iter().zip(items) {
            if it.utility > 0.0 {
                if w_i > cap_units {
                    individually_fit = false;
                    break;
                }
                total_w = total_w.saturating_add(w_i);
            }
        }
        if individually_fit && total_w <= cap_units {
            for (i, it) in items.iter().enumerate() {
                if it.utility > 0.0 {
                    self.out.indices.push(i);
                    self.out.total_utility += it.utility;
                    self.out.total_size += it.size;
                }
            }
            return &self.out;
        }

        self.solve_dp(items, cap_units);
        &self.out
    }

    /// Full DP over `self.weights` (already filled for `items`) into
    /// `self.out` (already cleared).
    fn solve_dp(&mut self, items: &[CacheItem], cap_units: usize) {
        // dp[w] = best utility using a prefix of items within weight w;
        // `take[i][w]` records the decision for reconstruction.
        self.dp.clear();
        self.dp.resize(cap_units + 1, 0.0);
        self.take.clear();
        self.take.resize(items.len() * (cap_units + 1), false);
        for (i, (&w_i, it)) in self.weights.iter().zip(items).enumerate() {
            if w_i > cap_units {
                continue;
            }
            let row = i * (cap_units + 1);
            // The classic in-place row update walks w downward so every
            // read of dp[w - w_i] sees the previous row — but a reverse,
            // branchy loop defeats autovectorization. Equivalent flat
            // form: process blocks of width w_i from the top. Within a
            // block all reads land strictly below it (an index read this
            // row is only written in a later, lower block), so the body
            // is a forward, branchless select over disjoint src/dst
            // slices. Each cell's float op order is unchanged, and the
            // pre-zeroed take row makes `take[k] = better` identical to
            // the conditional write.
            let utility = it.utility;
            let mut hi = cap_units + 1;
            while hi > w_i {
                let lo = hi.saturating_sub(w_i).max(w_i);
                let (src, dst) = self.dp.split_at_mut(lo);
                let take_row = &mut self.take[row + lo..row + hi];
                let src = &src[lo - w_i..];
                for (k, (slot, taken)) in dst[..hi - lo].iter_mut().zip(take_row).enumerate() {
                    let with = src[k] + utility;
                    let cur = *slot;
                    let better = with > cur;
                    *slot = if better { with } else { cur };
                    *taken = better;
                }
                hi = lo;
            }
        }

        let mut w = cap_units;
        for i in (0..items.len()).rev() {
            if self.take[i * (cap_units + 1) + w] {
                self.out.indices.push(i);
                w -= self.weights[i];
            }
        }
        self.out.indices.reverse();
        self.out.total_utility = self.out.indices.iter().map(|&i| items[i].utility).sum();
        self.out.total_size = self.out.indices.iter().map(|&i| items[i].size).sum();
        debug_assert!(
            self.out.indices.windows(2).all(|w| w[0] < w[1]),
            "DP reconstruction must yield strictly ascending indices"
        );
        debug_assert!(
            self.out
                .indices
                .iter()
                .map(|&i| self.weights[i])
                .sum::<usize>()
                <= cap_units,
            "DP selection exceeds the quantised capacity"
        );
    }

    /// Algorithm 1: probabilistic data selection, into internal scratch.
    ///
    /// Repeatedly solves the knapsack over the not-yet-selected items and
    /// walks the DP-selected candidates in decreasing utility order; each
    /// is actually cached with probability `u_i` (a Bernoulli experiment).
    /// Iteration continues — items that failed their coin flip get fresh
    /// chances — until the remaining capacity fits no remaining item, the
    /// pool empties, or a fixed number of consecutive rounds select
    /// nothing (guards against all-zero-utility pools).
    ///
    /// Returns the indices of the items to cache, in selection order. The
    /// RNG draw sequence is identical to the historical allocating
    /// implementation: one `gen_bool` per visited candidate, in the same
    /// visit order.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid items as [`solve_in`](Self::solve_in).
    pub fn probabilistic_select_in<R: Rng + ?Sized>(
        &mut self,
        items: &[CacheItem],
        capacity: u64,
        rng: &mut R,
    ) -> &[usize] {
        // Move the scratch vectors out so `self.solve_in` can be called
        // while they are live; moved back before returning.
        let mut selected = std::mem::take(&mut self.sel_out);
        let mut pool = std::mem::take(&mut self.sel_pool);
        let mut pool_items = std::mem::take(&mut self.sel_pool_items);
        let mut candidates = std::mem::take(&mut self.sel_candidates);
        let mut taken = std::mem::take(&mut self.sel_taken);
        selected.clear();
        let mut remaining_cap = capacity;
        // Pool of candidate indices still up for selection.
        pool.clear();
        pool.extend(0..items.len());
        let mut stalled = 0;

        loop {
            pool.retain(|&i| items[i].size <= remaining_cap);
            if pool.is_empty() || stalled >= MAX_STALLED_ROUNDS {
                break;
            }
            pool_items.clear();
            pool_items.extend(pool.iter().map(|&i| items[i]));
            let dp = self.solve_in(&pool_items, remaining_cap);
            if dp.indices.is_empty() {
                break;
            }
            // Visit DP-selected candidates by decreasing utility (the
            // paper's argmax loop over S').
            candidates.clear();
            candidates.extend_from_slice(&dp.indices);
            candidates.sort_by(|&a, &b| {
                pool_items[b]
                    .utility
                    .total_cmp(&pool_items[a].utility)
                    .then(a.cmp(&b))
            });
            let mut progressed = false;
            taken.clear();
            for &c in &candidates {
                let item = pool_items[c];
                if item.size <= remaining_cap && rng.gen_bool(item.utility.clamp(0.0, 1.0)) {
                    selected.push(pool[c]);
                    remaining_cap -= item.size;
                    taken.push(c);
                    progressed = true;
                }
            }
            // Remove the taken items from the pool (descending positions
            // so indices stay valid).
            taken.sort_unstable_by(|a, b| b.cmp(a));
            for &c in &taken {
                pool.swap_remove(c);
            }
            stalled = if progressed { 0 } else { stalled + 1 };
        }

        debug_assert!(
            selected.iter().map(|&i| items[i].size).sum::<u64>() <= capacity,
            "probabilistic selection exceeds the byte capacity"
        );
        self.sel_pool = pool;
        self.sel_pool_items = pool_items;
        self.sel_candidates = candidates;
        self.sel_taken = taken;
        self.sel_out = selected;
        &self.sel_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn items(specs: &[(u64, f64)]) -> Vec<CacheItem> {
        specs
            .iter()
            .map(|&(size, utility)| CacheItem { size, utility })
            .collect()
    }

    /// Exhaustive optimum for small instances.
    fn brute_force(items: &[CacheItem], capacity: u64) -> f64 {
        let mut best = 0.0f64;
        for mask in 0..(1u32 << items.len()) {
            let (mut size, mut value) = (0u64, 0.0f64);
            for (i, it) in items.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    size += it.size;
                    value += it.utility;
                }
            }
            if size <= capacity && value > best {
                best = value;
            }
        }
        best
    }

    /// Runs the full DP, bypassing the everything-fits fast path.
    fn solve_forced_dp(s: &mut KnapsackSolver, it: &[CacheItem], capacity: u64) -> Selection {
        validate_items(it);
        s.out.indices.clear();
        s.out.total_utility = 0.0;
        s.out.total_size = 0;
        let cap_units = (capacity / s.quantum) as usize;
        if cap_units == 0 || it.is_empty() {
            return s.out.clone();
        }
        s.weights.clear();
        s.weights
            .extend(it.iter().map(|x| (x.size.div_ceil(s.quantum)) as usize));
        s.solve_dp(it, cap_units);
        s.out.clone()
    }

    #[test]
    fn empty_inputs() {
        let mut s = KnapsackSolver::new(1);
        assert_eq!(s.solve_in(&[], 10), &Selection::default());
        let it = items(&[(5, 0.5)]);
        assert_eq!(s.solve_in(&it, 0), &Selection::default());
    }

    #[test]
    fn single_item_fits_or_not() {
        let mut s = KnapsackSolver::new(1);
        let it = items(&[(5, 0.5)]);
        assert_eq!(s.solve_in(&it, 5).indices, vec![0]);
        assert!(s.solve_in(&it, 4).indices.is_empty());
    }

    #[test]
    fn classic_instance_is_optimal() {
        let mut s = KnapsackSolver::new(1);
        let it = items(&[(4, 0.9), (3, 0.6), (3, 0.5), (2, 0.1)]);
        let sel = s.solve_in(&it, 6);
        assert_eq!(sel.indices, vec![1, 2]);
        assert!((sel.total_utility - 1.1).abs() < 1e-12);
        assert_eq!(sel.total_size, 6);
    }

    #[test]
    fn quantised_selection_still_fits_in_bytes() {
        // Sizes round UP under quantisation, so this 1000-quantum solver
        // must treat a 1500-byte item as 2 units and never overpack.
        let mut s = KnapsackSolver::new(1000);
        let it = items(&[(1500, 0.9), (1500, 0.8), (1500, 0.7)]);
        let sel = s.solve_in(&it, 4000);
        assert!(sel.total_size <= 4000);
        assert_eq!(sel.indices.len(), 2);
    }

    #[test]
    fn matches_brute_force_small_instances() {
        let mut s = KnapsackSolver::new(1);
        let it = items(&[(3, 0.2), (5, 0.9), (2, 0.3), (4, 0.55), (1, 0.05)]);
        for cap in 0..=15 {
            let dp = s.solve_in(&it, cap).total_utility;
            let bf = brute_force(&it, cap);
            assert!((dp - bf).abs() < 1e-9, "cap {cap}: {dp} vs {bf}");
        }
    }

    #[test]
    fn fast_path_matches_forced_dp() {
        // The everything-fits fast path must return exactly what the DP
        // would — same indices, bit-identical floats — including with
        // zero-utility items in the mix (the DP's strict improvement test
        // never takes them).
        let mut s = KnapsackSolver::new(1);
        let cases: &[Vec<CacheItem>] = &[
            items(&[(3, 0.2), (5, 0.0), (2, 0.3), (4, 0.55), (1, 0.05)]),
            items(&[(2, 0.0), (3, 0.0)]),
            items(&[(1, 1.0), (1, 0.5), (1, 0.25)]),
            items(&[(7, 0.9)]),
        ];
        for it in cases {
            let total: u64 = it.iter().map(|x| x.size).sum();
            for cap in 0..=total + 2 {
                let fast = s.solve_in(it, cap);
                let full = solve_forced_dp(&mut KnapsackSolver::new(1), it, cap);
                assert_eq!(fast, &full, "cap {cap} items {it:?}");
            }
        }
    }

    #[test]
    fn blocked_dp_covers_every_seam() {
        // The row update runs in blocks of the item's weight, high to
        // low. Sweep weights against capacities around block multiples
        // (ragged first block, single-cell blocks, weight == capacity)
        // and check the optimum against brute force at every seam.
        for w_i in [1u64, 2, 3, 5, 7, 11] {
            for cap in w_i.saturating_sub(1)..=3 * w_i + 2 {
                let it = items(&[
                    (w_i, 0.7),
                    (w_i, 0.6),
                    (1, 0.05),
                    (w_i + 1, 0.9),
                    (2 * w_i, 1.1),
                ]);
                let mut s = KnapsackSolver::new(1);
                let dp = solve_forced_dp(&mut s, &it, cap).total_utility;
                let bf = brute_force(&it, cap);
                assert!((dp - bf).abs() < 1e-9, "w_i {w_i} cap {cap}: {dp} vs {bf}");
            }
        }
    }

    #[test]
    fn solve_in_reuses_scratch_across_calls() {
        // Back-to-back solves with different shapes must not leak state.
        let mut s = KnapsackSolver::new(1);
        let big = items(&[(4, 0.9), (3, 0.6), (3, 0.5), (2, 0.1)]);
        let small = items(&[(5, 0.5)]);
        assert_eq!(s.solve_in(&big, 6).indices, vec![1, 2]);
        assert_eq!(s.solve_in(&small, 5).indices, vec![0]);
        assert_eq!(s.solve_in(&big, 6).indices, vec![1, 2]);
        assert!(s.solve_in(&small, 4).indices.is_empty());
    }

    #[test]
    fn probabilistic_select_respects_capacity() {
        let mut s = KnapsackSolver::new(1);
        let it = items(&[(4, 0.9), (3, 0.8), (3, 0.7), (2, 0.95)]);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let sel = s.probabilistic_select_in(&it, 6, &mut rng);
            let total: u64 = sel.iter().map(|&i| it[i].size).sum();
            assert!(total <= 6, "selection {sel:?} overflows");
            // no duplicates
            let mut sorted = sel.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), sel.len());
        }
    }

    #[test]
    fn certain_utility_items_are_always_taken() {
        let mut s = KnapsackSolver::new(1);
        let it = items(&[(2, 1.0), (2, 1.0)]);
        let mut rng = StdRng::seed_from_u64(1);
        let sel = s.probabilistic_select_in(&it, 4, &mut rng);
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn zero_utility_pool_terminates_empty() {
        let mut s = KnapsackSolver::new(1);
        let it = items(&[(2, 0.0), (3, 0.0)]);
        let mut rng = StdRng::seed_from_u64(1);
        let sel = s.probabilistic_select_in(&it, 10, &mut rng);
        assert!(sel.is_empty());
    }

    #[test]
    fn low_utility_items_sometimes_survive() {
        // The whole point of Algorithm 1: a 0.2-utility item must be
        // cached in a non-negligible fraction of runs.
        let mut s = KnapsackSolver::new(1);
        let it = items(&[(2, 0.2)]);
        let mut rng = StdRng::seed_from_u64(99);
        let mut hits = 0;
        for _ in 0..500 {
            if !s.probabilistic_select_in(&it, 2, &mut rng).is_empty() {
                hits += 1;
            }
        }
        // With ≤8 stalled rounds the per-run selection probability is
        // 1-(0.8)^k for k ∈ [1,8] retries; just require "clearly nonzero
        // and clearly not certain".
        assert!(hits > 50 && hits < 500, "hits={hits}");
    }

    #[test]
    fn probabilistic_select_draws_match_across_scratch_reuse() {
        // The same seed must produce the same selection whether the
        // solver is fresh or has warm scratch from unrelated calls.
        let it = items(&[(4, 0.9), (3, 0.8), (3, 0.7), (2, 0.95), (6, 0.4)]);
        let mut fresh = KnapsackSolver::new(1);
        let mut rng_a = StdRng::seed_from_u64(123);
        let fresh_sel = fresh.probabilistic_select_in(&it, 9, &mut rng_a);

        let mut warm = KnapsackSolver::new(1);
        let _ = warm.solve_in(&items(&[(1, 0.5), (2, 0.25)]), 3);
        let mut throwaway = StdRng::seed_from_u64(77);
        let _ = warm.probabilistic_select_in(&it, 5, &mut throwaway);
        let mut rng_b = StdRng::seed_from_u64(123);
        let warm_sel = warm.probabilistic_select_in(&it, 9, &mut rng_b);
        assert_eq!(fresh_sel, warm_sel);
    }

    #[test]
    #[should_panic(expected = "positive size")]
    fn zero_size_item_panics() {
        let mut s = KnapsackSolver::new(1);
        let _ = s.solve_in(&items(&[(0, 0.5)]), 10);
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn zero_quantum_panics() {
        let _ = KnapsackSolver::new(0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn dp_matches_brute_force(
                specs in prop::collection::vec((1u64..20, 0.0f64..1.0), 1..10),
                cap in 0u64..60,
            ) {
                let it = items(&specs);
                let mut s = KnapsackSolver::new(1);
                let dp = s.solve_in(&it, cap);
                let bf = brute_force(&it, cap);
                prop_assert!((dp.total_utility - bf).abs() < 1e-9,
                    "{} vs {}", dp.total_utility, bf);
                prop_assert!(dp.total_size <= cap);
            }

            #[test]
            fn fast_path_indices_match_forced_dp(
                specs in prop::collection::vec((1u64..20, 0.0f64..1.0), 1..10),
                cap in 0u64..200,
            ) {
                let it = items(&specs);
                let mut s = KnapsackSolver::new(1);
                let fast = s.solve_in(&it, cap);
                let full = solve_forced_dp(&mut KnapsackSolver::new(1), &it, cap);
                prop_assert_eq!(fast, &full);
            }

            #[test]
            fn probabilistic_never_overpacks(
                specs in prop::collection::vec((1u64..50, 0.0f64..1.0), 1..12),
                cap in 0u64..120,
                seed in any::<u64>(),
            ) {
                let it = items(&specs);
                let mut s = KnapsackSolver::new(1);
                let mut rng = StdRng::seed_from_u64(seed);
                let sel = s.probabilistic_select_in(&it, cap, &mut rng);
                let total: u64 = sel.iter().map(|&i| it[i].size).sum();
                prop_assert!(total <= cap);
                let mut sorted = sel.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), sel.len(), "duplicate selections");
            }
        }
    }
}
