//! Minimal deterministic data parallelism on scoped std threads.
//!
//! The NCL selection metric runs one single-source path search per node
//! — an embarrassingly parallel workload — but this build environment
//! cannot pull in `rayon`. This module provides the one primitive the
//! crate needs: a parallel, **order-preserving** map over a slice.
//!
//! Results are written into per-index slots carved out of one output
//! buffer with `chunks_mut`, so the returned vector is always in input
//! order no matter how the worker threads interleave — callers observe
//! exactly what the serial `iter().map().collect()` would produce, which
//! keeps tie-breaking and downstream sorting deterministic.
//!
//! The worker count is the machine's `available_parallelism`, capped at
//! the item count so no worker ever receives an empty chunk.

use std::num::NonZeroUsize;

/// Worker count for `len` items: available parallelism, capped at the
/// item count (a 3-item slice never spawns more than 3 workers — no
/// empty chunks) and at least 1.
fn worker_count(len: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(len)
        .max(1)
}

/// Maps `f` over `items` in parallel, preserving input order.
///
/// Equivalent to `items.iter().map(f).collect()` — including the order of
/// the results — but splits the slice into contiguous chunks processed by
/// scoped worker threads. Falls back to the serial map when the slice is
/// small or only one hardware thread is available. `f` must be pure with
/// respect to ordering: it is called exactly once per item, but calls
/// from different chunks run concurrently.
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
    let n = items.len();
    let workers = worker_count(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        for (in_chunk, out_chunk) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let f = &f;
            scope.spawn(move || {
                for (slot, item) in out_chunk.iter_mut().zip(in_chunk) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every chunk fills all its slots"))
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
        // A tiny slice must never spawn more workers than items —
        // otherwise `chunks_mut` would carve empty chunks.
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        for len in [2usize, 3, 7, 1000] {
            assert!((1..=len).contains(&worker_count(len)));
        }
        // Lengths around worker-count multiples exercise the last,
        // shorter chunk.
        for n in [2usize, 3, 5, 17, 31, 64, 65] {
            let items: Vec<usize> = (0..n).collect();
            assert_eq!(map_slice(&items, |&x| x + 1), (1..=n).collect::<Vec<_>>());
        }
    }
}
