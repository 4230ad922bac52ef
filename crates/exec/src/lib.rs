//! # exec — the workspace's parallel execution layer
//!
//! A small work-stealing scheduler built on `std::thread::scope` and one
//! atomic counter per job. Workers *steal chunks from a shared remaining
//! range*: each claim takes a guided-self-scheduling slice (proportional to
//! what is left, decaying toward `min_grain`), so early chunks are large
//! (low contention) and late chunks are small (no straggler holds the tail).
//! This is what the pruned query walk needs — vertical jumping makes
//! per-pair cost wildly non-uniform, and static chunking strands whole
//! cores behind whichever chunk happens to contain the expensive pairs.
//!
//! Design rules every API here follows:
//!
//! * **No locks anywhere.** Workers own their local state; results are
//!   handed back through the scoped-join, never through a mutex.
//! * **Determinism is the caller's to keep, and easy to keep:** items are
//!   processed exactly once, per-chunk results carry their item ranges,
//!   and the ordered collectors ([`par_map_chunks`], [`par_collect_chunks`])
//!   reassemble output in item order regardless of which worker ran what.
//! * **`threads == 1` never spawns.** The single-threaded path runs inline
//!   so sequential benchmarks measure the algorithm, not the scheduler.
//!
//! Four entry points cover the workspace's needs: [`run_partitioned`]
//! (per-worker fold states), [`par_map_chunks`] (one result per stolen
//! chunk, in item order — the query walks), [`par_collect_chunks`]
//! (ordered map-collect, the sketch builders), and [`par_chunks_mut`]
//! (static disjoint splits of a mutable slice, uniform-cost updates).
//!
//! ```
//! // Ordered map-collect: output is in item order no matter which worker
//! // ran which chunk.
//! let squares = exec::par_collect_chunks(100, 4, 1, |range| {
//!     range.map(|i| i * i).collect::<Vec<_>>()
//! });
//! assert_eq!(squares[7], 49);
//!
//! // Per-worker fold states, merged by the caller after the join.
//! let counts = exec::run_partitioned(
//!     1000,
//!     4,
//!     8,
//!     |_worker| 0usize,
//!     |acc, range| *acc += range.len(),
//! );
//! assert_eq!(counts.iter().sum::<usize>(), 1000);
//! ```
//!
//! This crate parallelises *across* items; the sibling `kernel` crate
//! vectorises *within* one item's arithmetic. The two compose: both are
//! deterministic by construction, so SIMD-parallel code keeps bit-exact
//! reproducibility.

pub mod hardware;

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of hardware threads (≥ 1), for "use all cores" defaults.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Steal the next chunk from the shared remaining range `[counter, n)`.
///
/// Guided self-scheduling: the slice is `remaining / (threads * 4)`,
/// floored at `min_grain` — large chunks early (amortising the atomic),
/// small chunks late (balancing the tail).
fn steal(
    counter: &AtomicUsize,
    n: usize,
    threads: usize,
    min_grain: usize,
) -> Option<Range<usize>> {
    let min_grain = min_grain.max(1);
    loop {
        let cur = counter.load(Ordering::Relaxed);
        if cur >= n {
            return None;
        }
        let remaining = n - cur;
        let grain = (remaining / (threads * 4)).max(min_grain).min(remaining);
        match counter.compare_exchange_weak(cur, cur + grain, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return Some(cur..cur + grain),
            Err(_) => continue,
        }
    }
}

/// Run `body` over every index chunk of `0..n_items` on `threads` workers,
/// each folding into its own state built by `init(worker_id)`. Returns the
/// per-worker states (in worker order — callers must not depend on which
/// worker processed which items; use the ranges passed to `body` instead).
///
/// The scheduler under every other entry point: workers steal index
/// chunks and fold them into thread-local state, merged lock-free by the
/// caller after the join.
pub fn run_partitioned<S, I, F>(
    n_items: usize,
    threads: usize,
    min_grain: usize,
    init: I,
    body: F,
) -> Vec<S>
where
    S: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, Range<usize>) + Sync,
{
    let threads = effective_threads(threads, n_items);
    // Telemetry handles are fetched once per job, not per chunk — the
    // per-chunk cost is one clock read and three relaxed atomic adds.
    let chunk_hist = obs::stages::exec_chunk_hist();
    let steals = obs::stages::exec_steal_counter();
    if threads <= 1 {
        let mut state = init(0);
        if n_items > 0 {
            let t0 = std::time::Instant::now();
            body(&mut state, 0..n_items);
            chunk_hist.observe(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
        }
        return vec![state];
    }
    let counter = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let counter = &counter;
                let init = &init;
                let body = &body;
                let chunk_hist = &chunk_hist;
                let steals = &steals;
                scope.spawn(move || {
                    let mut state = init(worker);
                    loop {
                        steals.inc();
                        let Some(range) = steal(counter, n_items, threads, min_grain) else {
                            break;
                        };
                        let t0 = std::time::Instant::now();
                        body(&mut state, range);
                        chunk_hist.observe(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
                    }
                    state
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("exec worker panicked"))
            .collect()
    })
}

/// Map every stolen chunk of `0..n_items` to one `R` and return the
/// results in item order — one `R` per chunk, sorted by the chunk's first
/// item, no matter which worker ran which chunk.
///
/// This is the ordered fold behind every query walk: each chunk keeps its
/// own output buffer, so joining the buffers in this order reproduces the
/// sequential item order exactly, and nothing downstream needs to sort.
pub fn par_map_chunks<R, F>(n_items: usize, threads: usize, min_grain: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let per_worker = run_partitioned(
        n_items,
        threads,
        min_grain,
        |_| Vec::new(),
        |acc: &mut Vec<(usize, R)>, range| acc.push((range.start, f(range))),
    );
    join_chunks(per_worker.into_iter().flatten())
}

/// Puts per-chunk results keyed by their chunk's first item back into item
/// order. Keys are unique (chunks are disjoint), so the order is total and
/// independent of the order the pieces arrive in.
pub fn join_chunks<R>(pieces: impl IntoIterator<Item = (usize, R)>) -> Vec<R> {
    let mut pieces: Vec<(usize, R)> = pieces.into_iter().collect();
    pieces.sort_unstable_by_key(|(start, _)| *start);
    pieces.into_iter().map(|(_, r)| r).collect()
}

/// Map every index chunk of `0..n_items` to a `Vec<R>` (one `R` per item,
/// in item order within the chunk) and reassemble the full `Vec<R>` in item
/// order. Work distribution is stolen chunks, output order is
/// deterministic — the parallel replacement for `(0..n).map(f).collect()`.
pub fn par_collect_chunks<R, F>(n_items: usize, threads: usize, min_grain: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> Vec<R> + Sync,
{
    let threads = effective_threads(threads, n_items);
    if threads <= 1 {
        if n_items == 0 {
            return Vec::new();
        }
        let out = f(0..n_items);
        debug_assert_eq!(out.len(), n_items);
        return out;
    }
    let mut out = Vec::with_capacity(n_items);
    for piece in par_map_chunks(n_items, threads, min_grain, f) {
        out.extend(piece);
    }
    debug_assert_eq!(out.len(), n_items);
    out
}

/// Run `body` once per worker over disjoint mutable sub-slices of `data`,
/// split as evenly as possible. `body` receives the sub-slice's offset into
/// `data` and the sub-slice itself.
///
/// This is *static* partitioning — correct tool only for uniform per-item
/// cost (e.g. extending every pair sketch by the same Δ columns); use
/// [`run_partitioned`] when cost varies per item.
pub fn par_chunks_mut<T, F>(data: &mut [T], threads: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let threads = effective_threads(threads, data.len());
    if threads <= 1 {
        if !data.is_empty() {
            body(0, data);
        }
        return;
    }
    let chunk = data.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let body = &body;
        for (k, piece) in data.chunks_mut(chunk).enumerate() {
            scope.spawn(move || body(k * chunk, piece));
        }
    });
}

/// Clamp a requested thread count to something useful for `n_items`.
fn effective_threads(threads: usize, n_items: usize) -> usize {
    threads.max(1).min(n_items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_item_processed_exactly_once() {
        for threads in [1, 2, 4, 8] {
            for n in [0usize, 1, 7, 100, 1000] {
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                run_partitioned(
                    n,
                    threads,
                    1,
                    |_| (),
                    |_, range| {
                        for i in range {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        }
                    },
                );
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads} n={n}"
                );
            }
        }
    }

    #[test]
    fn collect_preserves_item_order() {
        for threads in [1, 2, 3, 8] {
            let out = par_collect_chunks(257, threads, 4, |range| {
                range.map(|i| i * i).collect::<Vec<_>>()
            });
            assert_eq!(out.len(), 257);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * i, "threads={threads}");
            }
        }
    }

    #[test]
    fn map_chunks_returns_chunks_in_item_order() {
        for threads in [1, 2, 3, 8] {
            let chunks = par_map_chunks(257, threads, 4, |range| range);
            assert_eq!(
                chunks.first().map(|r| r.start),
                Some(0),
                "threads={threads}"
            );
            assert_eq!(chunks.last().map(|r| r.end), Some(257), "threads={threads}");
            for pair in chunks.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "threads={threads}");
            }
        }
        assert!(par_map_chunks(0, 4, 1, |range| range).is_empty());
    }

    #[test]
    fn join_chunks_ignores_arrival_order() {
        let pieces = [(4, 'c'), (0, 'a'), (9, 'd'), (2, 'b')];
        assert_eq!(join_chunks(pieces), vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn chunks_mut_covers_disjointly() {
        for threads in [1, 2, 5, 16] {
            let mut data = vec![0u64; 103];
            par_chunks_mut(&mut data, threads, |offset, piece| {
                for (k, v) in piece.iter_mut().enumerate() {
                    *v = (offset + k) as u64 + 1;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i as u64 + 1, "threads={threads}");
            }
        }
    }

    #[test]
    fn guided_chunks_shrink_toward_tail() {
        let counter = AtomicUsize::new(0);
        let mut sizes = Vec::new();
        while let Some(r) = steal(&counter, 1000, 4, 1) {
            sizes.push(r.len());
        }
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        // First chunk must be much larger than the last.
        assert!(sizes.first().unwrap() > sizes.last().unwrap());
        assert_eq!(*sizes.last().unwrap(), 1);
    }

    #[test]
    fn worker_states_are_isolated() {
        let states = run_partitioned(
            100,
            4,
            1,
            |w| (w, 0usize),
            |(_, count), range| *count += range.len(),
        );
        let total: usize = states.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
