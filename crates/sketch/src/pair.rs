//! Per-pair cross-product sketches.
//!
//! For a pair `(x, y)` the only quantity Eq. 1 needs beyond the per-series
//! stats is the per-basic-window cross sum `Σ x·y` (equivalently the
//! basic-window correlation `c_j` once combined with the per-series
//! moments). Stored as a prefix over basic windows, any aligned window's
//! cross sum is O(1).

use crate::plan::BasicWindowLayout;
use crate::store::SketchStore;
use crate::triangular;
use tsdata::{TimeSeriesMatrix, TsError};

/// Cross-product sketch for one ordered pair of series.
#[derive(Debug, Clone, PartialEq)]
pub struct PairSketch {
    /// Prefix sums of per-basic-window `Σ x·y` (length `count + 1`).
    cross_prefix: Vec<f64>,
}

impl PairSketch {
    /// Builds the sketch from the two raw rows in O(L).
    pub fn build(layout: &BasicWindowLayout, x: &[f64], y: &[f64]) -> Result<Self, TsError> {
        if x.len() != y.len() {
            return Err(TsError::DimensionMismatch {
                expected: x.len(),
                found: y.len(),
            });
        }
        if layout.end() > x.len() {
            return Err(TsError::OutOfRange {
                requested: layout.end(),
                available: x.len(),
            });
        }
        Ok(Self::build_unchecked(layout, x, y))
    }

    /// [`PairSketch::build`] without the validation — for batch builders
    /// that have already validated the matrix once.
    ///
    /// Each basic window's `Σ x·y` is one [`kernel::dot`] call (SIMD where
    /// the host supports it, the canonical striped scalar order
    /// otherwise — bit-identical either way), and the prefix chain is a
    /// sequential add per window, so appended sketches can continue it
    /// exactly.
    fn build_unchecked(layout: &BasicWindowLayout, x: &[f64], y: &[f64]) -> Self {
        let mut cross_prefix = Vec::with_capacity(layout.count + 1);
        cross_prefix.push(0.0);
        let mut acc = 0.0;
        for b in 0..layout.count {
            let (t0, t1) = layout.time_range(b);
            acc += kernel::dot(&x[t0..t1], &y[t0..t1]); // lint:allow(float-reduction-outside-kernel) -- prefix-sum build: partials are stored; append resumes from the stored tail bit-identically
            cross_prefix.push(acc);
        }
        Self { cross_prefix }
    }

    /// Number of basic windows covered.
    pub fn count(&self) -> usize {
        self.cross_prefix.len() - 1
    }

    /// Resident bytes of the sketch (the prefix chain's backing store) —
    /// the unit a serving tier's per-session memory accounting sums over.
    pub fn memory_bytes(&self) -> usize {
        self.cross_prefix.capacity() * std::mem::size_of::<f64>()
    }

    /// Extends the sketch to cover `layout` (the *grown* layout after a
    /// [`SketchStore::append`]) by reading only the new columns. Returns
    /// the number of basic windows added.
    pub fn append(
        &mut self,
        layout: &BasicWindowLayout,
        x: &[f64],
        y: &[f64],
    ) -> Result<usize, TsError> {
        self.append_tail(layout, x, y, 0)
    }

    /// [`PairSketch::append`] from *tail* slices: `x_tail`/`y_tail` hold
    /// only the columns from global index `tail_start` onward, so callers
    /// that evict absorbed raw history can still extend the sketch. Every
    /// new basic window of `layout` must lie within the tail
    /// (`tail_start ≤` the first new window's start column).
    pub fn append_tail(
        &mut self,
        layout: &BasicWindowLayout,
        x_tail: &[f64],
        y_tail: &[f64],
        tail_start: usize,
    ) -> Result<usize, TsError> {
        if x_tail.len() != y_tail.len() {
            return Err(TsError::DimensionMismatch {
                expected: x_tail.len(),
                found: y_tail.len(),
            });
        }
        if layout.end() > tail_start + x_tail.len() {
            return Err(TsError::OutOfRange {
                requested: layout.end(),
                available: tail_start + x_tail.len(),
            });
        }
        let old_count = self.count();
        if layout.count < old_count {
            return Err(TsError::InvalidParameter(
                "grown layout has fewer basic windows than the sketch".into(),
            ));
        }
        if old_count < layout.count {
            let (first_new, _) = layout.time_range(old_count);
            if tail_start > first_new {
                return Err(TsError::OutOfRange {
                    requested: first_new,
                    available: tail_start,
                });
            }
        }
        // Same per-window kernel reduction as `build_unchecked`, so an
        // appended sketch stays bit-identical to a fresh build.
        let mut acc = *self.cross_prefix.last().unwrap();
        for b in old_count..layout.count {
            let (t0, t1) = layout.time_range(b);
            // lint:allow(float-reduction-outside-kernel) -- prefix-sum build: partials are stored; append resumes from the stored tail bit-identically
            acc += kernel::dot(
                &x_tail[t0 - tail_start..t1 - tail_start],
                &y_tail[t0 - tail_start..t1 - tail_start],
            );
            self.cross_prefix.push(acc);
        }
        Ok(layout.count - old_count)
    }

    /// `Σ x·y` over basic windows `[b0, b1)` — O(1).
    #[inline]
    pub fn cross_sum(&self, b0: usize, b1: usize) -> f64 {
        debug_assert!(b0 < b1 && b1 < self.cross_prefix.len());
        self.cross_prefix[b1] - self.cross_prefix[b0]
    }

    /// The basic-window correlation `c_b` of the pair (the `c_j` of Eq. 1
    /// and the `c_i` of the Eq. 2 bound), given the owning store and the
    /// two series indices. `None` when either window is constant.
    pub fn basic_correlation(
        &self,
        store: &SketchStore,
        i: usize,
        j: usize,
        b: usize,
    ) -> Option<f64> {
        let sx = store.basic_stats(i, b);
        let sy = store.basic_stats(j, b);
        let n = sx.n;
        let cov = self.cross_sum(b, b + 1) / n - sx.mean() * sy.mean();
        let denom = sx.std_dev() * sy.std_dev();
        if denom <= 0.0 {
            return None;
        }
        Some((cov / denom).clamp(-1.0, 1.0))
    }
}

/// Builds the pair sketch of **every** `i < j` pair of `x`, in
/// [`triangular::rank`] order, using cache-blocked tiles and `threads`
/// workers.
///
/// The naive enumeration streams a fresh `y` row from memory for every
/// pair — O(N²·L) bytes of traffic. Tiling the pair grid into row-blocks
/// sized to stay L2-resident means each block of rows is read once per
/// tile instead of once per pair, turning the build memory-bound →
/// cache-bound. Tiles are independent, so workers steal them from the
/// shared tile list; results are scattered back by pair rank, making the
/// output identical for any thread count and any tile size.
pub fn build_all(
    layout: &BasicWindowLayout,
    x: &TimeSeriesMatrix,
    threads: usize,
) -> Result<Vec<PairSketch>, TsError> {
    let n = x.n_series();
    if layout.end() > x.len() {
        return Err(TsError::OutOfRange {
            requested: layout.end(),
            available: x.len(),
        });
    }
    let n_pairs = triangular::count(n);
    if n_pairs == 0 {
        return Ok(Vec::new());
    }

    // Row-block size: two blocks of rows (the tile's i-side and j-side)
    // should fit in ~half of a typical 512 KiB L2 together.
    let row_bytes = x.len() * std::mem::size_of::<f64>();
    let block = (128 * 1024 / row_bytes.max(1)).clamp(2, 64);
    let n_blocks = n.div_ceil(block);
    let block_range = |b: usize| (b * block)..((b + 1) * block).min(n);

    // Upper triangle of tiles, diagonal included.
    let tiles: Vec<(usize, usize)> = (0..n_blocks)
        .flat_map(|bi| (bi..n_blocks).map(move |bj| (bi, bj)))
        .collect();

    let per_tile: Vec<Vec<(usize, PairSketch)>> =
        exec::par_collect_chunks(tiles.len(), threads, 1, |range| {
            range
                .map(|t| {
                    let (bi, bj) = tiles[t];
                    let mut out = Vec::new();
                    for i in block_range(bi) {
                        let row_i = x.row(i);
                        for j in block_range(bj) {
                            if j > i {
                                out.push((
                                    triangular::rank(i, j, n),
                                    PairSketch::build_unchecked(layout, row_i, x.row(j)),
                                ));
                            }
                        }
                    }
                    out
                })
                .collect()
        });

    let mut slots: Vec<Option<PairSketch>> = (0..n_pairs).map(|_| None).collect();
    for tile in per_tile {
        for (rank, sketch) in tile {
            debug_assert!(slots[rank].is_none(), "tile overlap at rank {rank}");
            slots[rank] = Some(sketch);
        }
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("tiling covers every pair"))
        .collect())
}

/// Builds the pair sketches of a **contiguous rank interval**
/// `[ranks.start, ranks.end)` of the triangle, in rank order — the shard
/// variant of [`build_all`] used by distributed workers so a worker never
/// touches out-of-shard pairs.
///
/// Each sketch is produced by the same per-pair kernel reduction as
/// [`PairSketch::build`] (which [`build_all`] also uses per entry), so the
/// returned slice is bit-identical to the corresponding sub-slice of a
/// [`build_all`] result for any thread count. The full triangle is handed
/// to [`build_all`]'s cache-blocked tiling.
pub fn build_range(
    layout: &BasicWindowLayout,
    x: &TimeSeriesMatrix,
    ranks: std::ops::Range<usize>,
    threads: usize,
) -> Result<Vec<PairSketch>, TsError> {
    let n = x.n_series();
    if layout.end() > x.len() {
        return Err(TsError::OutOfRange {
            requested: layout.end(),
            available: x.len(),
        });
    }
    let n_pairs = triangular::count(n);
    if ranks.start > ranks.end || ranks.end > n_pairs {
        return Err(TsError::OutOfRange {
            requested: ranks.end,
            available: n_pairs,
        });
    }
    if ranks == (0..n_pairs) {
        return build_all(layout, x, threads);
    }
    Ok(exec::par_collect_chunks(ranks.len(), threads, 8, |chunk| {
        chunk
            .map(|k| {
                let (i, j) = triangular::unrank(ranks.start + k, n);
                PairSketch::build_unchecked(layout, x.row(i), x.row(j))
            })
            .collect()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdata::stats;

    fn rows() -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..30)
            .map(|t| (t as f64 * 0.9).sin() + 0.05 * t as f64)
            .collect();
        let y: Vec<f64> = (0..30)
            .map(|t| (t as f64 * 0.9).cos() - 0.02 * t as f64)
            .collect();
        (x, y)
    }

    #[test]
    fn cross_sums_match_direct() {
        let (x, y) = rows();
        let layout = BasicWindowLayout::cover(0, 30, 5).unwrap();
        let p = PairSketch::build(&layout, &x, &y).unwrap();
        assert_eq!(p.count(), 6);
        for b0 in 0..6 {
            for b1 in (b0 + 1)..=6 {
                let direct: f64 = (layout.origin + b0 * 5..layout.origin + b1 * 5)
                    .map(|t| x[t] * y[t])
                    .sum();
                assert!((p.cross_sum(b0, b1) - direct).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn basic_correlation_matches_pearson() {
        let (x, y) = rows();
        let layout = BasicWindowLayout::cover(0, 30, 6).unwrap();
        let m = TimeSeriesMatrix::from_rows(vec![x.clone(), y.clone()]).unwrap();
        let store = SketchStore::build(&m, layout).unwrap();
        let p = PairSketch::build(&layout, &x, &y).unwrap();
        for b in 0..layout.count {
            let (t0, t1) = layout.time_range(b);
            let expected = stats::pearson(&x[t0..t1], &y[t0..t1]).unwrap();
            let got = p.basic_correlation(&store, 0, 1, b).unwrap();
            assert!((got - expected).abs() < 1e-9, "bw {b}: {got} vs {expected}");
        }
    }

    #[test]
    fn constant_window_correlation_is_none() {
        let x = vec![1.0; 12];
        let y: Vec<f64> = (0..12).map(|t| t as f64).collect();
        let layout = BasicWindowLayout::cover(0, 12, 4).unwrap();
        let m = TimeSeriesMatrix::from_rows(vec![x.clone(), y.clone()]).unwrap();
        let store = SketchStore::build(&m, layout).unwrap();
        let p = PairSketch::build(&layout, &x, &y).unwrap();
        assert!(p.basic_correlation(&store, 0, 1, 0).is_none());
    }

    #[test]
    fn append_matches_fresh_build() {
        let (x, y) = rows();
        let small = BasicWindowLayout::cover(0, 15, 5).unwrap();
        let mut p = PairSketch::build(&small, &x[..15], &y[..15]).unwrap();
        let grown = BasicWindowLayout::cover(0, 30, 5).unwrap();
        assert_eq!(p.append(&grown, &x, &y).unwrap(), 3);
        let fresh = PairSketch::build(&grown, &x, &y).unwrap();
        assert_eq!(p, fresh);
        // Idempotent when nothing new is complete.
        assert_eq!(p.append(&grown, &x, &y).unwrap(), 0);
    }

    #[test]
    fn append_tail_matches_full_append() {
        // Extending from only the new columns (evicted history) must be
        // bit-identical to extending from the full rows.
        let (x, y) = rows();
        let small = BasicWindowLayout::cover(0, 15, 5).unwrap();
        let mut p = PairSketch::build(&small, &x[..15], &y[..15]).unwrap();
        let grown = BasicWindowLayout::cover(0, 30, 5).unwrap();
        assert_eq!(p.append_tail(&grown, &x[15..], &y[15..], 15).unwrap(), 3);
        let fresh = PairSketch::build(&grown, &x, &y).unwrap();
        assert_eq!(p, fresh);
        // A tail starting after the first new window leaves a gap.
        let mut q = PairSketch::build(&small, &x[..15], &y[..15]).unwrap();
        assert!(q.append_tail(&grown, &x[20..], &y[20..], 20).is_err());
    }

    #[test]
    fn append_validates() {
        let (x, y) = rows();
        let small = BasicWindowLayout::cover(0, 15, 5).unwrap();
        let mut p = PairSketch::build(&small, &x[..15], &y[..15]).unwrap();
        let grown = BasicWindowLayout::cover(0, 30, 5).unwrap();
        assert!(p.append(&grown, &x[..20], &y).is_err()); // length mismatch
        assert!(p.append(&grown, &x[..20], &y[..20]).is_err()); // too short
        let shrunk = BasicWindowLayout::cover(0, 10, 5).unwrap();
        assert!(p.append(&shrunk, &x, &y).is_err());
    }

    #[test]
    fn build_all_matches_per_pair_builds_at_any_thread_count() {
        // Rows long enough (2560 cols → ~20 KiB/row → 6-row blocks) that
        // the grid splits into several tiles; verify against per-pair
        // builds.
        let rows: Vec<Vec<f64>> = (0..9)
            .map(|s| {
                (0..2560)
                    .map(|t| ((t + 3 * s) as f64 * 0.37).sin() + 0.01 * (s as f64))
                    .collect()
            })
            .collect();
        let x = TimeSeriesMatrix::from_rows(rows).unwrap();
        let layout = BasicWindowLayout::cover(0, 2560, 64).unwrap();
        let mut expected = Vec::new();
        for i in 0..9 {
            for j in (i + 1)..9 {
                expected.push(PairSketch::build(&layout, x.row(i), x.row(j)).unwrap());
            }
        }
        for threads in [1, 2, 8] {
            let got = build_all(&layout, &x, threads).unwrap();
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn build_range_matches_build_all_subslice() {
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|s| {
                (0..120)
                    .map(|t| ((t + 5 * s) as f64 * 0.23).sin() + 0.02 * (s as f64))
                    .collect()
            })
            .collect();
        let x = TimeSeriesMatrix::from_rows(rows).unwrap();
        let layout = BasicWindowLayout::cover(0, 120, 10).unwrap();
        let all = build_all(&layout, &x, 1).unwrap();
        let n_pairs = all.len();
        for (start, end) in [
            (0usize, n_pairs),
            (0, 7),
            (7, 8),
            (5, 21),
            (n_pairs, n_pairs),
        ] {
            for threads in [1, 4] {
                let got = build_range(&layout, &x, start..end, threads).unwrap();
                assert_eq!(
                    got,
                    all[start..end],
                    "range {start}..{end} threads={threads}"
                );
            }
        }
        // Out-of-triangle ranges are rejected.
        assert!(build_range(&layout, &x, 0..n_pairs + 1, 1).is_err());
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 5..4;
        assert!(build_range(&layout, &x, reversed, 1).is_err());
    }

    #[test]
    fn build_all_validates_layout() {
        let x = TimeSeriesMatrix::from_rows(vec![vec![0.0; 10], vec![1.0; 10]]).unwrap();
        let layout = BasicWindowLayout::cover(0, 20, 5).unwrap();
        assert!(build_all(&layout, &x, 2).is_err());
    }

    #[test]
    fn build_validates_inputs() {
        let layout = BasicWindowLayout::cover(0, 30, 5).unwrap();
        let x = vec![0.0; 30];
        let y = vec![0.0; 29];
        assert!(PairSketch::build(&layout, &x, &y).is_err());
        let short = vec![0.0; 20];
        assert!(PairSketch::build(&layout, &short, &short).is_err());
    }
}
