//! Minimal deterministic data parallelism on scoped std threads.
//!
//! Two workloads here are embarrassingly parallel — the NCL selection
//! metric (one single-source path search per node) and the oracle's
//! batch of missing per-source tables (`path::shortest_paths_batch`) —
//! but this build environment cannot pull in `rayon`. This module
//! provides the primitive both run on: a parallel, **order-preserving**
//! map over the items of an exact-size iterator, with a piece of
//! per-worker state (`map_on`; [`map_slice`] is the stateless case over
//! a slice).
//!
//! Items are handed out one at a time from a shared iterator, so a few
//! items that cost a hundred times the rest (the members of one giant
//! community in an NCL sweep) do not pin one worker while the others
//! idle. Every result is returned with its index and put back in its
//! slot, so the returned vector is always in input order no matter how
//! the worker threads interleave — callers observe exactly what the
//! serial `iter().map().collect()` would produce, which keeps
//! tie-breaking and downstream sorting deterministic.
//!
//! The worker count is the machine's `available_parallelism`, read once
//! per process (each read goes to the cgroup files, 16–25 µs), capped at
//! the item count so no worker is spawned without an item to take. One
//! call is one scope of spawned threads; the calling thread is one of
//! the workers.

use std::num::NonZeroUsize;
use std::sync::{Mutex, OnceLock};

/// The machine's available parallelism, at least 1, as the process first
/// read it.
pub(crate) fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Maps `f` over `items` in parallel, preserving input order.
///
/// Equivalent to `items.iter().map(f).collect()` — including the order of
/// the results: `map_on` with as many workers as the machine has
/// hardware threads and no state. `f` must be pure with respect to
/// ordering: it is called exactly once per item, but calls for different
/// items run concurrently.
///
/// # Example
///
/// ```
/// use dtn_core::par::map_slice;
///
/// let squares = map_slice(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn map_slice<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_on(items, &mut vec![(); workers()], |(), item| f(item))
}

/// Maps `f` over `items` in parallel, preserving input order, on one
/// worker per state of `states` (the calling thread is the first),
/// capped at the item count — a 3-item slice never runs on more than 3.
/// Every call a worker makes gets that worker's state: a search
/// workspace, say, expensive to build and reusable, which a caller that
/// maps batch after batch keeps and pays for once.
///
/// `items` is any exact-size iterator whose iterator can cross threads:
/// a slice's `iter()` hands out shared references, a `iter_mut()` hands
/// each item out mutably to exactly one worker.
///
/// `f` is called exactly once per item; which worker (and so which
/// state) serves an item is not determined, so the result must not
/// depend on what earlier calls left in the state. Runs as a serial loop
/// over the first state when there is one item or one state.
///
/// # Panics
///
/// Panics if there are items and no state to map them with.
pub(crate) fn map_on<I, S, R, F>(items: I, states: &mut [S], f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    S: Send,
    R: Send,
    F: Fn(&mut S, I::Item) -> R + Sync,
{
    let items = items.into_iter();
    let len = items.len();
    let workers = states.len().min(len);
    if workers <= 1 {
        return match states.first_mut() {
            Some(state) => items.map(|item| f(state, item)).collect(),
            None => {
                assert!(len == 0, "no state to map {len} items with");
                Vec::new()
            }
        };
    }

    // The hand-out is the only shared state; it is locked to take the
    // next item, never while `f` runs.
    let next = Mutex::new(items.enumerate());
    let work = |state: &mut S| {
        let mut done: Vec<(usize, R)> = Vec::new();
        loop {
            let handed = next
                .lock()
                .expect("no worker panics while taking an item")
                .next();
            let Some((i, item)) = handed else {
                return done;
            };
            done.push((i, f(state, item)));
        }
    };
    let mut out: Vec<Option<R>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    std::thread::scope(|scope| {
        let (mine, theirs) = states[..workers]
            .split_first_mut()
            .expect("two workers or more");
        let spawned: Vec<_> = theirs
            .iter_mut()
            .map(|state| scope.spawn(|| work(state)))
            .collect();
        let mut done = work(mine);
        for handle in spawned {
            // A worker's panic surfaces as itself, message intact.
            done.extend(
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        for (i, result) in done {
            out[i] = Some(result);
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every index is handed out exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let mapped = map_slice(&items, |&x| x * 3);
        let serial: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        assert_eq!(mapped, serial);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_slice(&empty, |&x| x).is_empty());
        assert_eq!(map_slice(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn calls_f_once_per_item() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let items: Vec<u32> = (0..257).collect();
        let _ = map_slice(&items, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn worker_count_caps_at_item_count() {
        // A tiny slice must never run on more workers than it has items:
        // the states past the item count are left as they were.
        for (len, states) in [(0usize, 4usize), (1, 4), (3, 8), (7, 2), (1000, 5)] {
            let items: Vec<usize> = (0..len).collect();
            let mut calls = vec![0usize; states];
            let mapped = map_on(&items, &mut calls, |mine, &x| {
                *mine += 1;
                x + 1
            });
            assert_eq!(mapped, (1..=len).collect::<Vec<_>>());
            assert_eq!(calls.iter().sum::<usize>(), len, "`f` runs once per item");
            assert!(
                calls[len.min(states)..].iter().all(|&c| c == 0),
                "{calls:?}"
            );
        }
        // Lengths around worker-count multiples.
        for n in [2usize, 3, 5, 17, 31, 64, 65] {
            let items: Vec<usize> = (0..n).collect();
            assert_eq!(map_slice(&items, |&x| x + 1), (1..=n).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "no state")]
    fn items_without_a_state_panic() {
        let _ = map_on(&[1u8], &mut [] as &mut [()], |(), &x| x);
    }

    #[test]
    fn map_on_preserves_order_on_any_worker_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        for workers in [1, 2, 5] {
            let mapped = map_on(&items, &mut vec![(); workers], |(), &x| x * 3);
            assert_eq!(mapped, serial, "{workers} workers");
        }
    }

    #[test]
    fn map_on_calls_f_once_per_item_with_its_workers_own_state() {
        let items: Vec<u32> = (0..257).collect();
        for workers in [1, 2, 5] {
            // Each state counts its own worker's calls; each call reports
            // the count it brought its state to.
            let mut calls = vec![0usize; workers];
            let nth = map_on(&items, &mut calls, |mine, _| {
                *mine += 1;
                *mine
            });
            assert_eq!(calls.iter().sum::<usize>(), items.len());
            // A state that made m calls reported 1..=m, once each.
            let mut reported = vec![0usize; items.len() + 1];
            for &c in &nth {
                reported[c] += 1;
            }
            for (c, &times) in reported.iter().enumerate().skip(1) {
                let reached = calls.iter().filter(|&&m| m >= c).count();
                assert_eq!(times, reached, "{workers} workers, count {c}");
            }
        }
    }

    #[test]
    fn map_on_hands_each_item_out_mutably_once() {
        for workers in [1, 2, 5] {
            let mut items: Vec<u64> = (0..300).collect();
            let old = map_on(items.iter_mut(), &mut vec![(); workers], |(), x| {
                let was = *x;
                *x = was * 2 + 1;
                was
            });
            assert_eq!(old, (0..300).collect::<Vec<_>>(), "{workers} workers");
            assert!(items
                .iter()
                .enumerate()
                .all(|(i, &x)| x == 2 * i as u64 + 1));
        }
    }

    #[test]
    fn skewed_item_costs_are_shared_out() {
        // The first eight items cost a thousand times the rest — the
        // giant community of an NCL sweep, whose members are contiguous.
        // With one item handed out at a time every worker takes some of
        // them; contiguous halves would give them all to worker 0. The
        // barrier holds each worker's first item until both have one.
        use std::sync::Barrier;
        let items: Vec<u32> = (0..64).collect();
        let started = Barrier::new(2);
        let mut states = [(0usize, true), (1, true)];
        let served_by = map_on(&items, &mut states, |(me, first), &x| {
            if std::mem::take(first) {
                started.wait();
            }
            let spins = if x < 8 { 200_000u64 } else { 200 };
            std::hint::black_box((0..spins).fold(0u64, |a, b| a ^ b.wrapping_mul(x.into())));
            *me
        });
        assert!(served_by[..8].contains(&0) && served_by[..8].contains(&1));
    }
}
