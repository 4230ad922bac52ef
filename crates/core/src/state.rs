//! The one engine core: the sketch state of a pair-rank interval and the
//! one pruned walk over it.
//!
//! Every entry point is a [`PairState`] plus a walk. A one-shot query
//! ([`crate::Dangoron::prepare_shard`] + [`crate::Dangoron::run_range`])
//! builds the state over `[query.start, query.end)` and walks it once. A
//! streaming session ([`crate::StreamingDangoron`]) builds it over its
//! opening history, [`PairState::extend`]s it per append and walks only
//! the new window suffix. A shared query walks the session's state with
//! another geometry. Validation, the sketch builds, the Eq. 2 cost
//! prefixes, the pivot table and the per-pair walk therefore exist once.

use crate::bounds::PairCosts;
use crate::config::{BoundMode, DangoronConfig};
use crate::engine::QueryResult;
use crate::pivot::{select_pivots, PivotSet};
use crate::stats::PruningStats;
use crate::walker::{extend_pair_costs, pair_costs, walk_pair, WalkGeometry};
use sketch::output::{Edge, EdgeRule};
use sketch::{
    pair, triangular, BasicWindowLayout, PairSketch, SketchStore, SlidingQuery, ThresholdedMatrix,
};
use std::borrow::Cow;
use std::ops::Range;
use tsdata::{TimeSeriesMatrix, TsError};

/// Minimum pair-chunk a worker steals at once. Small, because vertical
/// jumping makes per-pair cost wildly non-uniform — a large floor would
/// recreate the static-chunk straggler problem the scheduler exists to
/// avoid; going all the way to 1 pays one atomic per pair on cheap
/// workloads.
const WALK_GRAIN: usize = 8;

/// A window-tagged edge. Each stolen chunk of pair ranks collects its own
/// buffer of these; [`PairState::walk`] assembles them into matrices.
pub(crate) type TaggedEdge = (u32, Edge);

/// Tags edge `(i, j) = value` with its (local) window.
#[inline]
pub(crate) fn tagged(window: usize, i: usize, j: usize, value: f64) -> TaggedEdge {
    (
        window as u32,
        Edge {
            i: i as u32,
            j: j as u32,
            value,
        },
    )
}

/// What a [`PairState`] is built for.
pub(crate) enum Purpose<'a> {
    /// A one-shot query, never extended: its pivot build is timed as
    /// [`obs::stages::Stage::PivotBuild`] and its pivot-pair sketches are
    /// dropped after it. Holds the raw matrix under
    /// [`crate::PairStorage::OnDemand`].
    OneShot(Option<&'a TimeSeriesMatrix>),
    /// A streaming session: every sketch stays resident for `extend`.
    Session,
}

/// Where the walk finds a pair's cross-product sketch.
enum Pairs<'a> {
    /// The interval's sketches, indexed by `rank − ranks.start`.
    Resident(Vec<PairSketch>),
    /// [`crate::PairStorage::OnDemand`]: each visited pair's sketch is
    /// built from these raw rows inside the walk, so memory stays
    /// O(N·n_b) instead of O(N²·n_b).
    OnDemand(&'a TimeSeriesMatrix),
}

/// The sketch state of one contiguous pair-rank interval: the per-series
/// store, the interval's pair sketches, their Eq. 2 cost prefixes, the
/// pivot table and the pivot-pair sketches the interval does not hold,
/// plus the raw columns the sketches have not absorbed yet. The engine
/// and the session read the `pub(crate)` fields; only this module writes.
pub(crate) struct PairState<'a> {
    pub(crate) store: SketchStore,
    pub(crate) ranks: Range<usize>,
    pairs: Pairs<'a>,
    /// Per-pair Eq. 2 departure-cost prefixes (sketch state, like the
    /// pair sketches); `Some` iff the bound jumps and the sketches are
    /// resident.
    costs: Option<Vec<PairCosts>>,
    /// Sketches of `(pivot, series)` pairs the interval does not hold,
    /// sorted by rank, so the pivot table can grow without the full
    /// triangle. Kept by sessions, which extend the table per append.
    pivot_pairs: Vec<(usize, PairSketch)>,
    pivots: Option<PivotSet>,
    /// The geometry the pivot table is keyed by.
    pub(crate) window: usize,
    pub(crate) step: usize,
    /// Raw columns not yet absorbed into the sketches, from the store's
    /// layout end on. `None` ⇔ nothing retained, and the length stays
    /// below one basic window.
    tail: Option<TimeSeriesMatrix>,
}

/// The one window/step/threshold/edge-rule validator: windows and steps
/// align to basic windows, `β ∈ [−1, 1]`, and `|c| ≥ β` needs `β ≥ 0`.
pub(crate) fn check_geometry(
    config: &DangoronConfig,
    window: usize,
    step: usize,
    threshold: f64,
) -> Result<(), TsError> {
    let b = config.basic_window;
    for (name, v) in [("window", window), ("step", step)] {
        if v == 0 || !v.is_multiple_of(b) {
            return Err(TsError::InvalidParameter(format!(
                "{name} {v} must be a positive multiple of basic window {b}"
            )));
        }
    }
    if !(-1.0..=1.0).contains(&threshold) {
        return Err(TsError::InvalidParameter(format!(
            "threshold must be in [-1, 1], got {threshold}"
        )));
    }
    if config.edge_rule == EdgeRule::Absolute && threshold < 0.0 {
        return Err(TsError::InvalidParameter(format!(
            "absolute edge rule needs a non-negative threshold, got {threshold}"
        )));
    }
    Ok(())
}

/// Refuses the first NaN or infinite sample in columns `cols` of `x`;
/// `first_col` is the caller's index of `x`'s column 0.
fn check_finite(x: &TimeSeriesMatrix, cols: Range<usize>, first_col: usize) -> Result<(), TsError> {
    for (series, row) in x.rows().enumerate() {
        if let Some(k) = row[cols.clone()].iter().position(|v| !v.is_finite()) {
            let column = first_col + cols.start + k;
            return Err(TsError::NonFinite { series, column });
        }
    }
    Ok(())
}

impl<'a> PairState<'a> {
    /// Builds the state of pair ranks `ranks` over columns
    /// `[query.start, query.end)` of `x`, with the pivot table keyed by
    /// `query`'s window and step, after validating the geometry and
    /// refusing non-finite samples.
    pub(crate) fn build(
        x: &TimeSeriesMatrix,
        query: &SlidingQuery,
        ranks: Range<usize>,
        config: &DangoronConfig,
        purpose: Purpose<'a>,
    ) -> Result<Self, TsError> {
        check_geometry(config, query.window, query.step, query.threshold)?;
        let n = x.n_series();
        let n_pairs = triangular::count(n);
        if ranks.start > ranks.end || ranks.end > n_pairs {
            return Err(TsError::InvalidParameter(format!(
                "pair range {}..{} outside the {} pair ranks",
                ranks.start, ranks.end, n_pairs
            )));
        }
        check_finite(x, query.start..query.end, 0)?;
        let layout = BasicWindowLayout::cover(query.start, query.end, config.basic_window)?;
        let threads = config.threads;
        let store = SketchStore::build_with_threads(x, layout, threads)?;

        let one_shot = matches!(purpose, Purpose::OneShot(_));
        let pairs = match purpose {
            Purpose::OneShot(Some(raw)) => Pairs::OnDemand(raw),
            // Cache-blocked tiles for the full triangle, rank chunks for a
            // shard; workers steal either.
            _ => Pairs::Resident(pair::build_range(&layout, x, ranks.clone(), threads)?),
        };
        let costs = match (&pairs, config.bound) {
            (Pairs::Resident(v), BoundMode::PaperJump { .. }) => {
                Some(exec::par_collect_chunks(v.len(), threads, 16, |range| {
                    range
                        .map(|k| {
                            let (i, j) = triangular::unrank(ranks.start + k, n);
                            pair_costs(&store, &v[k], i, j, config.edge_rule)
                        })
                        .collect()
                }))
            }
            _ => None,
        };

        let _timer = (one_shot && config.horizontal.is_some())
            .then(|| obs::stages::span(obs::stages::Stage::PivotBuild));
        let pivots = (config.horizontal.as_ref())
            .map(|h| select_pivots(&h.strategy, h.n_pivots, n).map(|p| PivotSet::empty(p, n)))
            .transpose()?;
        // The pivot pairs the resident sketches do not cover.
        let resident = matches!(pairs, Pairs::Resident(_));
        let mut pivot_ranks = Vec::new();
        for &z in pivots.iter().flat_map(|pv| &pv.pivots) {
            for s in (0..n).filter(|&s| s != z) {
                let p = triangular::rank(z.min(s), z.max(s), n);
                if !(resident && ranks.contains(&p)) {
                    pivot_ranks.push(p);
                }
            }
        }
        pivot_ranks.sort_unstable();
        pivot_ranks.dedup();
        let pivot_pairs = exec::par_collect_chunks(pivot_ranks.len(), threads, 8, |range| {
            range
                .map(|k| {
                    let (i, j) = triangular::unrank(pivot_ranks[k], n);
                    let sketch = PairSketch::build(&layout, x.row(i), x.row(j))
                        .expect("the layout lies inside the rows");
                    (pivot_ranks[k], sketch)
                })
                .collect()
        });

        // A session keeps the raw columns the sketches have not absorbed.
        let covered = layout.end();
        let tail = (!one_shot && covered < query.end)
            .then(|| x.slice_columns(covered, query.end))
            .transpose()?;
        let mut state = Self {
            store,
            ranks,
            pairs,
            costs,
            pivot_pairs,
            pivots,
            window: query.window,
            step: query.step,
            tail,
        };
        state.grow_pivots(threads);
        if one_shot {
            state.pivot_pairs = Vec::new();
        }
        Ok(state)
    }

    /// Ingests new columns (indices from [`PairState::ingested`] on):
    /// refuses non-finite samples before touching any state, then extends
    /// the store, the resident and pivot-pair sketches, the cost prefixes
    /// and the pivot table from the new columns only — history is never
    /// rescanned — and evicts the raw columns the sketches absorbed.
    pub(crate) fn extend(
        &mut self,
        new_cols: &TimeSeriesMatrix,
        threads: usize,
    ) -> Result<(), TsError> {
        let n = self.store.n_series();
        if new_cols.n_series() != n {
            return Err(TsError::DimensionMismatch {
                expected: n,
                found: new_cols.n_series(),
            });
        }
        check_finite(new_cols, 0..new_cols.len(), self.ingested())?;
        let tail_start = self.store.layout().end();
        let merged = match self.tail.take() {
            Some(mut t) => {
                t.append_columns(new_cols)?;
                t
            }
            None => new_cols.clone(),
        };
        self.store.append_tail(&merged, tail_start)?;
        let layout = *self.store.layout();
        // Every sketch ingests the same Δ columns — uniform cost — so
        // static per-worker slices are the right schedule here. The
        // preconditions of `PairSketch::append_tail` hold by construction
        // once `store.append_tail` succeeded: all rows share the grown
        // length and the layout only ever grows.
        let append = |rank: usize, sketch: &mut PairSketch| {
            let (i, j) = triangular::unrank(rank, n);
            sketch
                .append_tail(&layout, merged.row(i), merged.row(j), tail_start)
                .expect("sketch and store layouts kept in lockstep");
        };
        let base = self.ranks.start;
        if let Pairs::Resident(pairs) = &mut self.pairs {
            exec::par_chunks_mut(pairs, threads, |offset, piece| {
                for (k, pair) in piece.iter_mut().enumerate() {
                    append(base + offset + k, pair);
                }
            });
            // An extended prefix is bit-identical to a fresh build, so
            // drains keep matching the batch engine.
            if let Some(costs) = &mut self.costs {
                let (store, pairs) = (&self.store, &*pairs);
                exec::par_chunks_mut(costs, threads, |offset, piece| {
                    for (k, c) in piece.iter_mut().enumerate() {
                        let (i, j) = triangular::unrank(base + offset + k, n);
                        extend_pair_costs(c, store, &pairs[offset + k], i, j);
                    }
                });
            }
        }
        exec::par_chunks_mut(&mut self.pivot_pairs, threads, |_, piece| {
            for (rank, sketch) in piece.iter_mut() {
                append(*rank, sketch);
            }
        });
        self.grow_pivots(threads);
        // Drop the raw columns the sketch prefixes absorbed; column
        // indices stay stable because the layout keeps its origin.
        let covered = self.store.layout().end();
        self.tail = match covered - tail_start {
            0 => Some(merged),
            absorbed if covered < tail_start + merged.len() => {
                Some(merged.slice_columns(absorbed, merged.len())?)
            }
            _ => None,
        };
        Ok(())
    }

    /// Grows the pivot table to every window the sketches cover, reading
    /// correlations from the resident and pivot-pair sketches.
    fn grow_pivots(&mut self, threads: usize) {
        let geo = self.geometry(self.window, self.step, 0);
        let n = self.store.n_series();
        let (store, ranks, pairs, pivot_pairs) =
            (&self.store, &self.ranks, &self.pairs, &self.pivot_pairs);
        let Some(pv) = &mut self.pivots else { return };
        let sketch_of = |z: usize, s: usize| {
            let rank = triangular::rank(z.min(s), z.max(s), n);
            Cow::Borrowed(match pairs {
                Pairs::Resident(all) if ranks.contains(&rank) => &all[rank - ranks.start],
                _ => {
                    let k = pivot_pairs
                        .binary_search_by_key(&rank, |(r, _)| *r)
                        .expect("every pivot pair outside the interval is materialised");
                    &pivot_pairs[k].1
                }
            })
        };
        pv.append_windows(
            store,
            geo.n_windows,
            geo.ns,
            geo.step_bw,
            threads,
            sketch_of,
        );
    }

    /// The walk geometry of `(window, step)` windows from `first_window`
    /// to the last one the sketches cover.
    pub(crate) fn geometry(&self, window: usize, step: usize, first_window: usize) -> WalkGeometry {
        let layout = self.store.layout();
        let covered = layout.count * layout.width;
        let total = covered.checked_sub(window).map_or(0, |d| d / step + 1);
        let step_bw = step / layout.width;
        WalkGeometry {
            n_windows: total.saturating_sub(first_window),
            ns: window / layout.width,
            step_bw,
            offset_bw: first_window * step_bw,
        }
    }

    /// Walks pair ranks `ranks` over `geo` at `threshold` and assembles
    /// one matrix per window of `geo`. The pivot table is keyed by the
    /// state's own geometry, so it prunes exactly when `geo` has that
    /// window and step.
    ///
    /// Every stolen chunk of ranks appends to its own edge buffer and
    /// counters; [`exec::par_map_chunks`] returns them in rank order, so
    /// each window's joined stream is already sorted by `(i, j)`:
    /// [`ThresholdedMatrix::assemble_windows`] scatters it without a sort,
    /// and the result is the same for every thread count.
    ///
    /// The one wholesale prefilter: a pair whose sketch is not resident is
    /// skipped before its sketch is built when the pivot table rules out
    /// an edge in every window of `geo`. Resident pairs are walked, since
    /// the per-window triangle test settles the same windows at no more
    /// cost.
    pub(crate) fn walk(
        &self,
        config: &DangoronConfig,
        geo: WalkGeometry,
        threshold: f64,
        ranks: Range<usize>,
    ) -> QueryResult {
        debug_assert!(ranks.start >= self.ranks.start && ranks.end <= self.ranks.end);
        let n = self.store.n_series();
        let rule = config.edge_rule;
        let b = self.store.layout().width;
        let own_geometry = geo.ns * b == self.window && geo.step_bw * b == self.step;
        let pivots = self.pivots.as_ref().filter(|_| own_geometry);
        let (w0, w1) = (geo.global_window(0), geo.global_window(geo.n_windows));
        let never_edges =
            |i, j| pivots.is_some_and(|pv| pv.pair_never_edges_in(i, j, threshold, rule, w0, w1));
        let chunks = exec::par_map_chunks(ranks.len(), config.threads, WALK_GRAIN, |range| {
            let mut buf = Vec::new();
            let mut stats = PruningStats::default();
            for rank in (ranks.start + range.start)..(ranks.start + range.end) {
                let (i, j) = triangular::unrank(rank, n);
                let k = rank - self.ranks.start;
                let pair = match &self.pairs {
                    Pairs::Resident(all) => Cow::Borrowed(&all[k]),
                    Pairs::OnDemand(x) => {
                        if never_edges(i, j) {
                            stats.n_pairs += 1;
                            stats.total_cells += geo.n_windows as u64;
                            stats.pairs_skipped_entirely += 1;
                            continue;
                        }
                        let built = PairSketch::build(self.store.layout(), x.row(i), x.row(j));
                        Cow::Owned(built.expect("pair geometry validated in build"))
                    }
                };
                // Resident costs when the state holds them; transient
                // otherwise (OnDemand storage pays them inside the query).
                let dep = match (&self.costs, config.bound) {
                    (_, BoundMode::Exhaustive) => None,
                    (Some(all), _) => Some(Cow::Borrowed(&all[k])),
                    (None, _) => Some(Cow::Owned(pair_costs(&self.store, &pair, i, j, rule))),
                };
                walk_pair(
                    &self.store,
                    &pair,
                    i,
                    j,
                    geo,
                    threshold,
                    rule,
                    config.bound,
                    dep.as_deref(),
                    pivots,
                    &mut stats,
                    |w, v| buf.push(tagged(w, i, j, v)),
                );
            }
            (buf, stats)
        });
        let mut stats = PruningStats::default();
        let mut bufs = Vec::with_capacity(chunks.len());
        for (buf, s) in chunks {
            stats.merge(&s);
            bufs.push(buf);
        }
        let matrices =
            ThresholdedMatrix::assemble_windows(n, threshold, rule, geo.n_windows, &bufs);
        QueryResult { matrices, stats }
    }

    /// Raw columns retained: less than one basic window.
    pub(crate) fn tail_len(&self) -> usize {
        self.tail.as_ref().map_or(0, |t| t.len())
    }

    /// Columns ingested so far (the index one past the last).
    pub(crate) fn ingested(&self) -> usize {
        self.store.layout().end() + self.tail_len()
    }

    /// Bytes of the store and the resident pair sketches.
    pub(crate) fn sketch_bytes(&self) -> usize {
        let pairs = match &self.pairs {
            Pairs::Resident(v) => v.iter().map(PairSketch::memory_bytes).sum(),
            Pairs::OnDemand(_) => 0,
        };
        self.store.memory_bytes() + pairs
    }

    /// Bytes of all resident state: sketches, pivot-pair sketches, cost
    /// prefixes, the pivot table and the unabsorbed raw tail.
    pub(crate) fn memory_bytes(&self) -> usize {
        let pivot_pairs: usize = self
            .pivot_pairs
            .iter()
            .map(|(_, p)| p.memory_bytes() + std::mem::size_of::<usize>())
            .sum();
        let costs: usize = self
            .costs
            .iter()
            .flatten()
            .map(PairCosts::memory_bytes)
            .sum();
        let pivots = self.pivots.as_ref().map_or(0, PivotSet::memory_bytes);
        let tail = self
            .tail
            .as_ref()
            .map_or(0, |t| t.n_series() * t.len() * std::mem::size_of::<f64>());
        self.sketch_bytes() + pivot_pairs + costs + pivots + tail
    }
}
