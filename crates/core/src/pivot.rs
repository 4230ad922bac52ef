//! Horizontal (triangle-inequality) pruning support.
//!
//! A pivot series `z` is correlated against *every* series once per window
//! (O(N·γ) sketch combines — linear, not quadratic). For any pair `(x, y)`
//! the PSD-ness of correlation matrices then confines `c_xy` to
//! `c_xz·c_yz ± √((1−c_xz²)(1−c_yz²))`; pairs whose upper bound stays below
//! `β` never need an exact evaluation. Unlike the Eq. 2 jump this bound is
//! unconditional: a cell it settles never holds an edge. Under
//! [`crate::BoundMode::Exhaustive`] horizontal pruning is therefore
//! lossless. Under [`crate::BoundMode::PaperJump`] it is not neutral: a
//! settled cell jumps from the interval's upper end instead of the exact
//! value, so pivots steer the approximate jump path and can change which
//! edge windows it lands on.
//!
//! The table has one builder, [`PivotSet::append_windows`]: it grows the
//! table by the windows not covered yet, one `(pivot, series)` cell per
//! stolen task, reading correlations from already-built sketches. A batch
//! preparation fills every window once; a streaming session grows the
//! table per append without ever rebuilding it — the per-drain cost stays
//! O(n_pivots · N · Δwindows).

use crate::config::PivotStrategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sketch::output::EdgeRule;
use sketch::{combine, triangular, BasicWindowLayout, PairSketch, SketchStore, SlidingQuery};
use std::borrow::Cow;
use tsdata::{TimeSeriesMatrix, TsError};

/// Pivot indices plus their per-window correlations to every series.
#[derive(Debug, Clone)]
pub struct PivotSet {
    /// The pivot series indices.
    pub pivots: Vec<usize>,
    n_series: usize,
    n_windows: usize,
    /// `corr[p][w·N + s]` = corr(pivot p, series s) in window w, stored
    /// window-major so new windows append at the end; `NaN` marks
    /// undefined (zero-variance) windows, which never prune.
    corr: Vec<Vec<f64>>,
}

/// Picks pivot indices for a strategy.
pub fn select_pivots(
    strategy: &PivotStrategy,
    n_pivots: usize,
    n_series: usize,
) -> Result<Vec<usize>, TsError> {
    if n_series == 0 {
        return Err(TsError::Empty);
    }
    let k = n_pivots.min(n_series);
    let mut pivots = match strategy {
        PivotStrategy::Evenly => (0..k).map(|p| p * n_series / k).collect::<Vec<_>>(),
        PivotStrategy::Random { seed } => {
            // Seeded partial Fisher–Yates: O(n_series) worst case, unlike
            // rejection sampling which degrades as k → n_series.
            let mut rng = StdRng::seed_from_u64(*seed);
            let mut idx: Vec<usize> = (0..n_series).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n_series);
                idx.swap(i, j);
            }
            idx.truncate(k);
            idx
        }
        PivotStrategy::Explicit(list) => {
            for &p in list {
                if p >= n_series {
                    return Err(TsError::OutOfRange {
                        requested: p,
                        available: n_series,
                    });
                }
            }
            list.clone()
        }
    };
    pivots.sort_unstable();
    pivots.dedup();
    if pivots.is_empty() {
        return Err(TsError::InvalidParameter("no pivots selected".into()));
    }
    Ok(pivots)
}

impl PivotSet {
    /// An empty table (zero windows) — the starting point for sessions
    /// that grow it via [`PivotSet::append_windows`].
    pub fn empty(pivots: Vec<usize>, n_series: usize) -> Self {
        let n_pivots = pivots.len();
        Self {
            pivots,
            n_series,
            n_windows: 0,
            corr: vec![Vec::new(); n_pivots],
        }
    }

    /// Builds pivot-to-all correlations for every window of `query`, with
    /// `threads` workers stealing `(pivot, series)` cells.
    ///
    /// When the caller has already materialised all pair sketches (the
    /// Precomputed storage mode), pass them as `pairs` (in
    /// [`triangular::rank`] order) and the build skips the per-cell O(L)
    /// sketch construction; otherwise each cell builds its own transient
    /// sketch. Cost: `O(n_pivots · N · (L + γ) / threads)`.
    pub fn build(
        x: &TimeSeriesMatrix,
        store: &SketchStore,
        layout: &BasicWindowLayout,
        query: &SlidingQuery,
        pivots: Vec<usize>,
        pairs: Option<&[PairSketch]>,
        threads: usize,
    ) -> Result<Self, TsError> {
        let _timer = obs::stages::span(obs::stages::Stage::PivotBuild);
        let n = x.n_series();
        // The table keys window `w` to basic windows
        // `[w·step_bw, w·step_bw + ns)` of the layout.
        let aligned = BasicWindowLayout::for_query(query, layout.width)?;
        if aligned.origin != layout.origin || aligned.count > layout.count || layout.end() > x.len()
        {
            return Err(TsError::InvalidParameter(
                "the layout must cover the query's windows from its origin".into(),
            ));
        }
        let (ns, step_bw) = (query.window / layout.width, query.step / layout.width);
        let mut set = Self::empty(pivots, n);
        let sketch_of = |z: usize, s: usize| match pairs {
            Some(all) => Cow::Borrowed(&all[triangular::rank(z.min(s), z.max(s), n)]),
            None => Cow::Owned(PairSketch::build(layout, x.row(z), x.row(s)).expect("rows cover")),
        };
        set.append_windows(store, query.n_windows(), ns, step_bw, threads, sketch_of);
        Ok(set)
    }

    /// Extends the table to cover `total_windows` windows, computing only
    /// the new windows' pivot-to-all correlations. Window `w` spans basic
    /// windows `[w·step_bw, w·step_bw + ns)` of `store`'s layout;
    /// `sketch_of(z, s)` supplies the pair sketch of pivot `z` and series
    /// `s` (borrowed from resident state, or built for the call).
    ///
    /// Cells are independent, so `threads` workers steal them; each cell's
    /// column lands at a fixed index, so the table is bit-identical for
    /// every thread count and for every split of the windows into appends.
    /// Per append it costs O(n_pivots · N · Δwindows) sketch combines and
    /// never rescans history.
    pub fn append_windows<'s>(
        &mut self,
        store: &SketchStore,
        total_windows: usize,
        ns: usize,
        step_bw: usize,
        threads: usize,
        sketch_of: impl Fn(usize, usize) -> Cow<'s, PairSketch> + Sync,
    ) {
        let (n, from) = (self.n_series, self.n_windows);
        if total_windows <= from {
            return;
        }
        let pivots = &self.pivots;
        let cells: Vec<Vec<f64>> =
            exec::par_collect_chunks(pivots.len() * n, threads, 1, |range| {
                range
                    .map(|cell| {
                        let (z, s) = (pivots[cell / n], cell % n);
                        if s == z {
                            // corr(z, z) = 1 in every window.
                            return vec![1.0; total_windows - from];
                        }
                        let sketch = sketch_of(z, s);
                        (from..total_windows)
                            .map(|w| {
                                let b0 = w * step_bw;
                                combine::window_correlation(store, &sketch, z, s, b0, b0 + ns)
                                    .unwrap_or(f64::NAN)
                            })
                            .collect()
                    })
                    .collect()
            });
        for row in &mut self.corr {
            // One window at a time, so the capacity a session reports as
            // resident memory grows the same way for any append split.
            for _ in from..total_windows {
                row.reserve(n);
                row.resize(row.len() + n, f64::NAN);
            }
        }
        for (cell, col) in cells.into_iter().enumerate() {
            let (p, s) = (cell / n, cell % n);
            for (k, v) in col.into_iter().enumerate() {
                self.corr[p][(from + k) * n + s] = v;
            }
        }
        self.n_windows = total_windows;
    }

    /// Number of windows covered.
    pub fn n_windows(&self) -> usize {
        self.n_windows
    }

    /// Resident bytes of the correlation table.
    pub fn memory_bytes(&self) -> usize {
        let cells: usize = self.corr.iter().map(Vec::capacity).sum();
        cells * std::mem::size_of::<f64>()
    }

    /// Tightest triangle interval `[lo, hi]` on `c_ij` at window `w`
    /// across all pivots; `(−1, 1)` (no information) when every pivot is
    /// undefined there or the pair involves a pivot-degenerate window.
    ///
    /// The per-pivot `(c_iz, c_jz)` pairs are gathered into stack buffers
    /// and intersected by [`kernel::triangle_interval`] four lanes at a
    /// time; chunked intersection is exact (min/max is associative), so
    /// the result is bit-identical for any chunk boundary and any kernel
    /// backend.
    pub fn interval(&self, i: usize, j: usize, w: usize) -> (f64, f64) {
        /// Gather-buffer capacity; pivot counts above this just flush in
        /// batches.
        const GATHER: usize = 32;
        debug_assert!(i < self.n_series && j < self.n_series && w < self.n_windows);
        let base = w * self.n_series;
        let mut c_iz = [0.0f64; GATHER];
        let mut c_jz = [0.0f64; GATHER];
        let mut fill = 0usize;
        let mut best_lo = -1.0f64;
        let mut best_hi = 1.0f64;
        let flush = |iz: &[f64], jz: &[f64], best_lo: &mut f64, best_hi: &mut f64| {
            let (lo, hi) = kernel::triangle_interval(iz, jz);
            if lo > *best_lo {
                *best_lo = lo;
            }
            if hi < *best_hi {
                *best_hi = hi;
            }
        };
        for (p, row) in self.corr.iter().enumerate() {
            // Using the pivot as one endpoint would be circular; the value
            // is exact in that case, and the walker evaluates it exactly
            // anyway, so skip. NaN marks zero-variance windows, which
            // carry no information.
            if self.pivots[p] == i || self.pivots[p] == j {
                continue;
            }
            let iz = row[base + i];
            let jz = row[base + j];
            if iz.is_nan() || jz.is_nan() {
                continue;
            }
            c_iz[fill] = iz;
            c_jz[fill] = jz;
            fill += 1;
            if fill == GATHER {
                flush(&c_iz, &c_jz, &mut best_lo, &mut best_hi);
                fill = 0;
            }
        }
        if fill > 0 {
            flush(&c_iz[..fill], &c_jz[..fill], &mut best_lo, &mut best_hi);
        }
        (best_lo, best_hi)
    }

    /// Tightest triangle upper bound (see [`PivotSet::interval`]).
    pub fn upper_bound(&self, i: usize, j: usize, w: usize) -> f64 {
        self.interval(i, j, w).1
    }

    /// Pair-level prefilter: true when the triangle upper bound is below
    /// `beta` in **every** window — the pair can be skipped wholesale.
    pub fn pair_always_below(&self, i: usize, j: usize, beta: f64) -> bool {
        (0..self.n_windows).all(|w| self.upper_bound(i, j, w) < beta)
    }

    /// Rule-aware pair-level prefilter over windows `[w0, w1)`: true when
    /// none of those windows can produce an edge under `rule` at `beta` —
    /// the walk over that window range can be skipped wholesale.
    pub fn pair_never_edges_in(
        &self,
        i: usize,
        j: usize,
        beta: f64,
        rule: EdgeRule,
        w0: usize,
        w1: usize,
    ) -> bool {
        debug_assert!(w1 <= self.n_windows);
        (w0..w1).all(|w| {
            let (lo, hi) = self.interval(i, j, w);
            match rule {
                EdgeRule::Positive => hi < beta,
                EdgeRule::Absolute => hi < beta && lo > -beta,
            }
        })
    }

    /// Rule-aware pair-level prefilter over **every** window.
    pub fn pair_never_edges(&self, i: usize, j: usize, beta: f64, rule: EdgeRule) -> bool {
        self.pair_never_edges_in(i, j, beta, rule, 0, self.n_windows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdata::generators;

    fn setup(
        n: usize,
    ) -> (
        TimeSeriesMatrix,
        SketchStore,
        BasicWindowLayout,
        SlidingQuery,
    ) {
        let x = generators::clustered_matrix(n, 240, 2, 0.5, 3).unwrap();
        let query = SlidingQuery {
            start: 0,
            end: 240,
            window: 60,
            step: 20,
            threshold: 0.8,
        };
        let layout = BasicWindowLayout::for_query(&query, 20).unwrap();
        let store = SketchStore::build(&x, layout).unwrap();
        (x, store, layout, query)
    }

    fn build(
        x: &TimeSeriesMatrix,
        store: &SketchStore,
        layout: &BasicWindowLayout,
        query: &SlidingQuery,
        pivots: Vec<usize>,
    ) -> PivotSet {
        PivotSet::build(x, store, layout, query, pivots, None, 1).unwrap()
    }

    #[test]
    fn select_evenly_and_random() {
        let p = select_pivots(&PivotStrategy::Evenly, 3, 12).unwrap();
        assert_eq!(p, vec![0, 4, 8]);
        let p = select_pivots(&PivotStrategy::Random { seed: 5 }, 3, 12).unwrap();
        assert_eq!(p.len(), 3);
        assert!(p.iter().all(|&i| i < 12));
        // Deterministic per seed.
        assert_eq!(
            p,
            select_pivots(&PivotStrategy::Random { seed: 5 }, 3, 12).unwrap()
        );
        // More pivots than series degrades gracefully.
        let p = select_pivots(&PivotStrategy::Evenly, 10, 4).unwrap();
        assert_eq!(p, vec![0, 1, 2, 3]);
    }

    #[test]
    fn select_random_handles_k_near_n() {
        // The old rejection sampler degenerated here; Fisher–Yates must
        // return all indices, distinct, in O(n).
        for n in [1usize, 2, 7, 50] {
            let p = select_pivots(&PivotStrategy::Random { seed: 42 }, n, n).unwrap();
            assert_eq!(p.len(), n, "n={n}");
            assert_eq!(p, (0..n).collect::<Vec<_>>(), "sorted+deduped, n={n}");
            // k = n − 1 is the classic worst case for rejection sampling.
            if n > 1 {
                let p = select_pivots(&PivotStrategy::Random { seed: 42 }, n - 1, n).unwrap();
                assert_eq!(p.len(), n - 1);
                assert!(p.windows(2).all(|w| w[0] < w[1]), "distinct, n={n}");
            }
        }
    }

    #[test]
    fn select_explicit_validates() {
        let p = select_pivots(&PivotStrategy::Explicit(vec![3, 1, 3]), 2, 5).unwrap();
        assert_eq!(p, vec![1, 3]); // sorted, deduped
        assert!(select_pivots(&PivotStrategy::Explicit(vec![9]), 1, 5).is_err());
    }

    #[test]
    fn pivot_correlations_are_exact() {
        let (x, store, layout, query) = setup(6);
        let pv = build(&x, &store, &layout, &query, vec![0]);
        // Check against direct computation for a few (series, window) cells.
        for s in 1..6 {
            for w in 0..query.n_windows() {
                let (ws, we) = query.window_range(w);
                let direct = tsdata::stats::pearson(&x.row(0)[ws..we], &x.row(s)[ws..we]).unwrap();
                let stored = pv.corr[0][w * pv.n_series + s];
                assert!((direct - stored).abs() < 1e-9, "s={s} w={w}");
            }
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_and_reuses_pairs() {
        let (x, store, layout, query) = setup(9);
        let seq = build(&x, &store, &layout, &query, vec![0, 4]);
        for threads in [2, 8] {
            let par =
                PivotSet::build(&x, &store, &layout, &query, vec![0, 4], None, threads).unwrap();
            for (a, b) in seq.corr.iter().zip(&par.corr) {
                assert_eq!(
                    a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "threads={threads}"
                );
            }
        }
        // Building from precomputed pair sketches gives the same table.
        let pairs = sketch::pair::build_all(&layout, &x, 1).unwrap();
        let reused =
            PivotSet::build(&x, &store, &layout, &query, vec![0, 4], Some(&pairs), 2).unwrap();
        for (a, b) in seq.corr.iter().zip(&reused.corr) {
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn append_windows_matches_batch_build() {
        // Growing the table window-by-window from sketches must reproduce
        // the batch build exactly.
        let (x, store, layout, query) = setup(8);
        let batch = build(&x, &store, &layout, &query, vec![0, 4]);
        let pairs = sketch::pair::build_all(&layout, &x, 1).unwrap();
        let ns = layout.windows_per_query(query.window);
        let step_bw = query.step / layout.width;

        let mut grown = PivotSet::empty(vec![0, 4], 8);
        // Two uneven growth steps.
        for total in [2, query.n_windows()] {
            grown.append_windows(&store, total, ns, step_bw, 2, |z, s| {
                Cow::Borrowed(&pairs[triangular::rank(z.min(s), z.max(s), 8)])
            });
        }
        assert_eq!(grown.n_windows(), batch.n_windows());
        for (a, b) in grown.corr.iter().zip(&batch.corr) {
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
        // Idempotent when nothing new completes.
        let before = grown.corr.clone();
        grown.append_windows(&store, query.n_windows(), ns, step_bw, 2, |_, _| {
            unreachable!("no window is new")
        });
        assert_eq!(before, grown.corr);
    }

    #[test]
    fn upper_bound_is_sound_everywhere() {
        let (x, store, layout, query) = setup(8);
        let pv = build(&x, &store, &layout, &query, vec![0, 4]);
        for i in 0..8 {
            for j in (i + 1)..8 {
                for w in 0..query.n_windows() {
                    let (ws, we) = query.window_range(w);
                    let truth =
                        tsdata::stats::pearson(&x.row(i)[ws..we], &x.row(j)[ws..we]).unwrap();
                    let ub = pv.upper_bound(i, j, w);
                    assert!(
                        truth <= ub + 1e-9,
                        "pair ({i},{j}) window {w}: {truth} > {ub}"
                    );
                }
            }
        }
    }

    #[test]
    fn pair_prefilter_agrees_with_bounds() {
        let (x, store, layout, query) = setup(8);
        let pv = build(&x, &store, &layout, &query, vec![0, 4]);
        for i in 0..8 {
            for j in (i + 1)..8 {
                let all_below = pv.pair_always_below(i, j, 0.8);
                let manual = (0..query.n_windows()).all(|w| pv.upper_bound(i, j, w) < 0.8);
                assert_eq!(all_below, manual);
                // The ranged prefilter over the full range agrees with the
                // unranged one.
                assert_eq!(
                    pv.pair_never_edges(i, j, 0.8, EdgeRule::Positive),
                    pv.pair_never_edges_in(i, j, 0.8, EdgeRule::Positive, 0, pv.n_windows())
                );
            }
        }
    }

    #[test]
    fn pruning_actually_fires_on_clustered_data() {
        // Cross-cluster pairs should be prunable with in-cluster pivots.
        let (x, store, layout, query) = setup(10);
        let pv = build(&x, &store, &layout, &query, vec![0, 1]);
        let pruned = (0..10)
            .flat_map(|i| ((i + 1)..10).map(move |j| (i, j)))
            .filter(|&(i, j)| pv.pair_always_below(i, j, 0.95))
            .count();
        assert!(pruned > 0, "expected at least one wholesale-prunable pair");
    }
}
