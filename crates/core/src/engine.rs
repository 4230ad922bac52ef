//! The Dangoron engine: preparation (sketch building) and the pruned
//! sliding query.
//!
//! Following the paper's evaluation methodology, the two phases are split:
//! [`Dangoron::prepare`] builds the engine core's `PairState` over the
//! query range — the basic-window sketch store and, in
//! [`PairStorage::Precomputed`] mode, all pair sketches and their Eq. 2
//! cost prefixes (the TSUBASA storage model), plus the pivot table — while
//! [`Dangoron::run`] measures *pure query time*: one walk of that state
//! over `(pair, window)` cells with vertical jumping and horizontal
//! pruning. A streaming session and a shared query walk the same state
//! type with the same walk (`crate::state`).

use crate::config::{DangoronConfig, PairStorage};
use crate::state::{PairState, Purpose};
use crate::stats::PruningStats;
use crate::walker::WalkGeometry;
use sketch::{triangular, BasicWindowLayout, SlidingQuery, ThresholdedMatrix};
use std::ops::Range;
use tsdata::{TimeSeriesMatrix, TsError};

/// The Dangoron framework, configured once and reusable across datasets.
#[derive(Debug, Clone)]
pub struct Dangoron {
    config: DangoronConfig,
}

/// Everything precomputed before the timed query: the sketch state of the
/// prepared pair-rank interval.
pub struct Prepared<'a> {
    /// The validated query.
    pub query: SlidingQuery,
    /// Basic-window layout covering the query range.
    pub layout: BasicWindowLayout,
    state: PairState<'a>,
}

/// The result of a sliding query: one thresholded matrix per window plus
/// pruning counters.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// `C_0 … C_γ`, finalized (sorted, lookup-ready).
    pub matrices: Vec<ThresholdedMatrix>,
    /// Work/skip accounting.
    pub stats: PruningStats,
}

impl QueryResult {
    /// Total edges across all windows.
    pub fn total_edges(&self) -> usize {
        self.matrices.iter().map(|m| m.n_edges()).sum()
    }
}

impl Dangoron {
    /// Creates an engine after validating the configuration.
    pub fn new(config: DangoronConfig) -> Result<Self, TsError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The engine configuration.
    pub fn config(&self) -> &DangoronConfig {
        &self.config
    }

    /// Builds all query-independent state (offline phase).
    pub fn prepare<'a>(
        &self,
        x: &'a TimeSeriesMatrix,
        query: SlidingQuery,
    ) -> Result<Prepared<'a>, TsError> {
        let n_pairs = triangular::count(x.n_series());
        self.prepare_shard(x, query, 0..n_pairs)
    }

    /// [`Dangoron::prepare`] restricted to a contiguous pair-rank shard
    /// `[pair_range.start, pair_range.end)` of the [`triangular`] rank
    /// space — the distributed tier's worker entry point.
    ///
    /// In [`PairStorage::Precomputed`] mode only the shard's pair sketches
    /// and departure costs are built, so a worker's prepare cost and memory
    /// scale with its shard, not with the full `N·(N−1)/2` triangle. The
    /// per-series [`sketch::SketchStore`] and the pivot table (when horizontal
    /// pruning is on) are whole-matrix state and are built in full — they
    /// are O(N), not O(N²), and every shard needs them. The pivot pairs a
    /// shard does not hold are sketched for the table build and dropped
    /// after it; every cell is computed by the same kernels, so results
    /// never depend on the shard layout.
    pub fn prepare_shard<'a>(
        &self,
        x: &'a TimeSeriesMatrix,
        query: SlidingQuery,
        pair_range: Range<usize>,
    ) -> Result<Prepared<'a>, TsError> {
        let _timer = obs::stages::span(obs::stages::Stage::Prepare);
        query.validate(x.len())?;
        let purpose = Purpose::OneShot((self.config.storage == PairStorage::OnDemand).then_some(x));
        let state = PairState::build(x, &query, pair_range, &self.config, purpose)?;
        Ok(Prepared {
            query,
            layout: *state.store.layout(),
            state,
        })
    }

    /// Runs the pruned sliding query — the paper's "pure query time".
    ///
    /// Pairs are handed to workers by a work-stealing chunk scheduler
    /// (pruning makes per-pair cost wildly non-uniform, so static chunks
    /// strand cores); every stolen chunk appends to its own
    /// `(window, Edge)` buffer — no mutex anywhere on the query path. The
    /// buffers are joined in pair-rank order and scattered into the
    /// per-window matrices in one linear pass, which also makes the result
    /// identical for every thread count.
    ///
    /// ```
    /// use dangoron::{Dangoron, DangoronConfig};
    /// use sketch::SlidingQuery;
    /// use tsdata::generators;
    ///
    /// let x = generators::clustered_matrix(6, 120, 2, 0.5, 3).unwrap();
    /// let query = SlidingQuery { start: 0, end: 120, window: 40, step: 20, threshold: 0.7 };
    /// let engine = Dangoron::new(DangoronConfig {
    ///     basic_window: 20,
    ///     ..Default::default()
    /// }).unwrap();
    /// // Prepare once (offline sketch build), run many times (pure query).
    /// let prep = engine.prepare(&x, query).unwrap();
    /// let first = engine.run(&prep);
    /// let again = engine.run(&prep);
    /// assert_eq!(first.matrices.len(), query.n_windows());
    /// assert_eq!(first.total_edges(), again.total_edges());
    /// ```
    pub fn run(&self, prep: &Prepared<'_>) -> QueryResult {
        self.run_range(prep, prep.pair_range())
    }

    /// [`Dangoron::run`] restricted to the pair ranks
    /// `[ranks.start, ranks.end)` — the distributed tier's worker query.
    ///
    /// `ranks` must lie inside the interval the preparation covers
    /// ([`Prepared::pair_range`]). Concatenating the edge buffers of a
    /// partition of the triangle reproduces the unsharded [`Dangoron::run`]
    /// output bit-for-bit (the per-pair walk is independent, and rank order
    /// is `(i, j)` order, so the shards' edges join into the same per-window
    /// lists), and the per-shard [`PruningStats`] sum to the unsharded
    /// counters.
    ///
    /// # Panics
    /// Panics when `ranks` is not contained in the prepared interval.
    pub fn run_range(&self, prep: &Prepared<'_>, ranks: Range<usize>) -> QueryResult {
        let prepared = prep.pair_range();
        assert!(
            ranks.start >= prepared.start && ranks.end <= prepared.end,
            "pair ranks {}..{} outside the prepared interval {}..{}",
            ranks.start,
            ranks.end,
            prepared.start,
            prepared.end,
        );
        let _timer = obs::stages::span(obs::stages::Stage::Walk);
        prep.state
            .walk(&self.config, prep.geometry(), prep.query.threshold, ranks)
    }

    /// Convenience: `prepare` + `run`.
    pub fn execute(
        &self,
        x: &TimeSeriesMatrix,
        query: SlidingQuery,
    ) -> Result<QueryResult, TsError> {
        let prep = self.prepare(x, query)?;
        Ok(self.run(&prep))
    }
}

impl Prepared<'_> {
    /// Approximate bytes held by the prepared state (sketch store + pair
    /// sketches) — the memory axis of the storage-mode trade-off.
    pub fn memory_bytes(&self) -> usize {
        self.state.sketch_bytes()
    }

    /// The walk geometry (exposed for the experiment harness).
    pub fn geometry(&self) -> WalkGeometry {
        self.state.geometry(self.query.window, self.query.step, 0)
    }

    /// The contiguous pair-rank interval this preparation covers — the
    /// full triangle for [`Dangoron::prepare`], the shard for
    /// [`Dangoron::prepare_shard`].
    pub fn pair_range(&self) -> Range<usize> {
        self.state.ranks.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BoundMode, HorizontalConfig, PivotStrategy};
    use crate::state::{tagged, TaggedEdge};
    use sketch::output::EdgeRule;
    use tsdata::{generators, stats as tstats};

    fn workload(n: usize, len: usize) -> TimeSeriesMatrix {
        generators::clustered_matrix(n, len, 3, 0.8, 42).unwrap()
    }

    fn query(len: usize, beta: f64) -> SlidingQuery {
        SlidingQuery {
            start: 0,
            end: len,
            window: 60,
            step: 20,
            threshold: beta,
        }
    }

    fn naive_matrices(x: &TimeSeriesMatrix, q: &SlidingQuery) -> Vec<ThresholdedMatrix> {
        (0..q.n_windows())
            .map(|w| {
                let (ws, we) = q.window_range(w);
                let mut m = ThresholdedMatrix::new(x.n_series(), q.threshold);
                for i in 0..x.n_series() {
                    for j in (i + 1)..x.n_series() {
                        if let Ok(r) = tstats::pearson(&x.row(i)[ws..we], &x.row(j)[ws..we]) {
                            m.push(i, j, r);
                        }
                    }
                }
                m.finalize();
                m
            })
            .collect()
    }

    fn assert_same(a: &[ThresholdedMatrix], b: &[ThresholdedMatrix]) {
        assert_eq!(a.len(), b.len());
        for (w, (ma, mb)) in a.iter().zip(b).enumerate() {
            assert_eq!(ma.n_edges(), mb.n_edges(), "window {w}");
            for (ea, eb) in ma.edges().iter().zip(mb.edges()) {
                assert_eq!((ea.i, ea.j), (eb.i, eb.j), "window {w}");
                assert!((ea.value - eb.value).abs() < 1e-9, "window {w}");
            }
        }
    }

    #[test]
    fn exhaustive_matches_naive() {
        let x = workload(10, 300);
        let q = query(300, 0.7);
        let engine = Dangoron::new(DangoronConfig {
            basic_window: 20,
            bound: BoundMode::Exhaustive,
            ..Default::default()
        })
        .unwrap();
        let got = engine.execute(&x, q).unwrap();
        assert_same(&got.matrices, &naive_matrices(&x, &q));
        // Exhaustive = every cell evaluated.
        let cells = (10 * 9 / 2) as u64 * q.n_windows() as u64;
        assert_eq!(got.stats.evaluated, cells);
        assert_eq!(got.stats.skip_fraction(), 0.0);
    }

    #[test]
    fn triangle_pruning_preserves_exactness() {
        let x = workload(12, 300);
        let q = query(300, 0.8);
        let plain = Dangoron::new(DangoronConfig {
            basic_window: 20,
            bound: BoundMode::Exhaustive,
            ..Default::default()
        })
        .unwrap();
        let pruned = Dangoron::new(DangoronConfig {
            basic_window: 20,
            bound: BoundMode::Exhaustive,
            horizontal: Some(HorizontalConfig {
                n_pivots: 3,
                strategy: PivotStrategy::Evenly,
            }),
            ..Default::default()
        })
        .unwrap();
        let a = plain.execute(&x, q).unwrap();
        let b = pruned.execute(&x, q).unwrap();
        assert_same(&a.matrices, &b.matrices);
        assert!(
            b.stats.pruned_by_triangle > 0,
            "triangle pruning never fired: {:?}",
            b.stats
        );
    }

    #[test]
    fn paper_jump_has_perfect_precision_and_high_recall() {
        // Noise 0.45 puts in-cluster correlation ≈ 0.83, straddling β.
        let x = generators::clustered_matrix(12, 600, 3, 0.45, 42).unwrap();
        let q = SlidingQuery {
            start: 0,
            end: 600,
            window: 120,
            step: 20,
            threshold: 0.75,
        };
        let exact = Dangoron::new(DangoronConfig {
            basic_window: 20,
            bound: BoundMode::Exhaustive,
            ..Default::default()
        })
        .unwrap()
        .execute(&x, q)
        .unwrap();
        let jumped = Dangoron::new(DangoronConfig {
            basic_window: 20,
            bound: BoundMode::PaperJump { slack: 0.0 },
            ..Default::default()
        })
        .unwrap()
        .execute(&x, q)
        .unwrap();

        let truth: std::collections::HashSet<(usize, usize, usize)> = exact
            .matrices
            .iter()
            .enumerate()
            .flat_map(|(w, m)| m.edge_pairs().map(move |(i, j)| (w, i, j)))
            .collect();
        let found: std::collections::HashSet<(usize, usize, usize)> = jumped
            .matrices
            .iter()
            .enumerate()
            .flat_map(|(w, m)| m.edge_pairs().map(move |(i, j)| (w, i, j)))
            .collect();
        // Precision 1.0: emissions only happen after exact evaluation.
        assert!(found.is_subset(&truth), "jump mode emitted a false edge");
        assert!(!truth.is_empty(), "workload produced no true edges");
        // Recall must be high on clustered (slow-drift) data.
        let recall = found.len() as f64 / truth.len() as f64;
        assert!(recall >= 0.9, "recall = {recall}");
        // And it must actually have skipped something.
        assert!(jumped.stats.skipped_by_jump > 0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let x = workload(14, 300);
        let q = query(300, 0.6);
        let mk = |threads| {
            Dangoron::new(DangoronConfig {
                basic_window: 20,
                threads,
                ..Default::default()
            })
            .unwrap()
            .execute(&x, q)
            .unwrap()
        };
        let seq = mk(1);
        let par = mk(4);
        assert_same(&seq.matrices, &par.matrices);
        assert_eq!(seq.stats.evaluated, par.stats.evaluated);
        assert_eq!(seq.stats.skipped_by_jump, par.stats.skipped_by_jump);
        assert_eq!(seq.stats.edges, par.stats.edges);
    }

    #[test]
    fn ondemand_matches_precomputed() {
        let x = workload(10, 300);
        let q = query(300, 0.7);
        let pre = Dangoron::new(DangoronConfig {
            basic_window: 20,
            storage: PairStorage::Precomputed,
            ..Default::default()
        })
        .unwrap()
        .execute(&x, q)
        .unwrap();
        let od = Dangoron::new(DangoronConfig {
            basic_window: 20,
            storage: PairStorage::OnDemand,
            ..Default::default()
        })
        .unwrap()
        .execute(&x, q)
        .unwrap();
        assert_same(&pre.matrices, &od.matrices);
    }

    #[test]
    fn ondemand_prefilter_skips_pairs_without_losing_edges() {
        let x = workload(12, 300);
        let q = query(300, 0.9);
        let filtered = Dangoron::new(DangoronConfig {
            basic_window: 20,
            bound: BoundMode::Exhaustive,
            storage: PairStorage::OnDemand,
            horizontal: Some(HorizontalConfig {
                n_pivots: 3,
                strategy: PivotStrategy::Evenly,
            }),
            ..Default::default()
        })
        .unwrap()
        .execute(&x, q)
        .unwrap();
        let exact = Dangoron::new(DangoronConfig {
            basic_window: 20,
            bound: BoundMode::Exhaustive,
            ..Default::default()
        })
        .unwrap()
        .execute(&x, q)
        .unwrap();
        assert_same(&exact.matrices, &filtered.matrices);
        assert!(
            filtered.stats.pairs_skipped_entirely > 0,
            "prefilter never fired: {:?}",
            filtered.stats
        );
    }

    #[test]
    fn stats_accounting_is_consistent() {
        let x = workload(10, 300);
        let q = query(300, 0.8);
        let r = Dangoron::new(DangoronConfig {
            basic_window: 20,
            ..Default::default()
        })
        .unwrap()
        .execute(&x, q)
        .unwrap();
        let s = &r.stats;
        assert_eq!(s.n_pairs, 45);
        assert_eq!(s.total_cells, 45 * q.n_windows() as u64);
        assert_eq!(
            s.evaluated + s.skipped_by_jump + s.pruned_by_triangle,
            s.total_cells
        );
        assert_eq!(
            s.edges,
            r.matrices.iter().map(|m| m.n_edges() as u64).sum::<u64>()
        );
    }

    #[test]
    fn prepare_rejects_misaligned_query() {
        let x = workload(4, 300);
        let engine = Dangoron::new(DangoronConfig {
            basic_window: 7, // does not divide window 60 / step 20
            ..Default::default()
        })
        .unwrap();
        assert!(engine.prepare(&x, query(300, 0.5)).is_err());
        // And an out-of-range query.
        let mut q = query(300, 0.5);
        q.end = 400;
        let engine = Dangoron::new(DangoronConfig {
            basic_window: 20,
            ..Default::default()
        })
        .unwrap();
        assert!(engine.prepare(&x, q).is_err());
    }

    #[test]
    fn memory_accounting_reflects_storage_mode() {
        let x = workload(8, 300);
        let q = query(300, 0.5);
        let pre = Dangoron::new(DangoronConfig {
            basic_window: 20,
            storage: PairStorage::Precomputed,
            ..Default::default()
        })
        .unwrap();
        let od = Dangoron::new(DangoronConfig {
            basic_window: 20,
            storage: PairStorage::OnDemand,
            ..Default::default()
        })
        .unwrap();
        let p1 = pre.prepare(&x, q).unwrap();
        let p2 = od.prepare(&x, q).unwrap();
        assert!(p1.memory_bytes() > p2.memory_bytes());
    }

    #[test]
    fn absolute_rule_finds_anticorrelation_edges() {
        // Two anti-correlated clusters: driver and its negation plus noise.
        let driver = generators::white_noise(300, 4);
        let mut rows = Vec::new();
        let mut rng_idx = 0u64;
        for sign in [1.0, 1.0, -1.0, -1.0] {
            rng_idx += 1;
            let noise = generators::white_noise(300, 100 + rng_idx);
            rows.push(
                driver
                    .iter()
                    .zip(&noise)
                    .map(|(&d, &n)| sign * d + 0.2 * n)
                    .collect::<Vec<f64>>(),
            );
        }
        let x = TimeSeriesMatrix::from_rows(rows).unwrap();
        let q = query(300, 0.9);

        for storage in [PairStorage::Precomputed, PairStorage::OnDemand] {
            for bound in [BoundMode::Exhaustive, BoundMode::PaperJump { slack: 0.0 }] {
                let engine = Dangoron::new(DangoronConfig {
                    basic_window: 20,
                    bound,
                    storage,
                    edge_rule: EdgeRule::Absolute,
                    ..Default::default()
                })
                .unwrap();
                let got = engine.execute(&x, q).unwrap();
                let truth = baselines_like_naive_abs(&x, &q);
                // Exhaustive must match exactly; jump must be a subset.
                if bound == BoundMode::Exhaustive {
                    assert_same(&got.matrices, &truth);
                } else {
                    for (g, t) in got.matrices.iter().zip(&truth) {
                        for e in g.edges() {
                            assert!(
                                t.contains(e.i as usize, e.j as usize),
                                "spurious absolute edge"
                            );
                        }
                    }
                }
                // Anticorrelated cross-cluster pairs must be present.
                assert!(
                    got.matrices.iter().any(|m| m.contains(0, 2)),
                    "missing anticorrelation edge ({storage:?}, {bound:?})"
                );
                let sample = got
                    .matrices
                    .iter()
                    .find(|m| m.contains(0, 2))
                    .unwrap()
                    .get(0, 2);
                assert!(sample < -0.9, "edge value should be negative: {sample}");
            }
        }
    }

    fn baselines_like_naive_abs(x: &TimeSeriesMatrix, q: &SlidingQuery) -> Vec<ThresholdedMatrix> {
        (0..q.n_windows())
            .map(|w| {
                let (ws, we) = q.window_range(w);
                let mut m =
                    ThresholdedMatrix::with_rule(x.n_series(), q.threshold, EdgeRule::Absolute);
                for i in 0..x.n_series() {
                    for j in (i + 1)..x.n_series() {
                        if let Ok(r) = tstats::pearson(&x.row(i)[ws..we], &x.row(j)[ws..we]) {
                            m.push(i, j, r);
                        }
                    }
                }
                m.finalize();
                m
            })
            .collect()
    }

    #[test]
    fn absolute_rule_rejects_negative_threshold() {
        let x = workload(4, 300);
        let mut q = query(300, 0.5);
        q.threshold = -0.5;
        let engine = Dangoron::new(DangoronConfig {
            basic_window: 20,
            edge_rule: EdgeRule::Absolute,
            ..Default::default()
        })
        .unwrap();
        assert!(engine.prepare(&x, q).is_err());
    }

    #[test]
    fn non_finite_samples_are_refused_with_their_position() {
        let clean = workload(6, 300);
        let q = query(300, 0.7);
        let engine = Dangoron::new(DangoronConfig {
            basic_window: 20,
            ..Default::default()
        })
        .unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut x = clean.clone();
            x.set(2, 50, bad);
            let want = TsError::NonFinite {
                series: 2,
                column: 50,
            };
            assert_eq!(engine.execute(&x, q).err(), Some(want.clone()), "{bad}");
            assert_eq!(engine.prepare_shard(&x, q, 3..9).err(), Some(want), "{bad}");
        }
        // Samples outside the query range are never read, so they are not
        // refused.
        let mut x = clean.clone();
        x.set(1, 299, f64::NAN);
        let mut inside = q;
        inside.end = 280;
        let got = engine.execute(&x, inside).unwrap();
        let want = engine.execute(&clean, inside).unwrap();
        assert_eq!(got.stats, want.stats);
        assert_eq!(got.total_edges(), want.total_edges());
    }

    #[test]
    fn sharded_runs_partition_the_full_result() {
        // Any contiguous partition of the rank space, each shard prepared
        // AND run independently (the worker path), must reproduce the
        // unsharded result bit-for-bit once concatenated, and the shard
        // stats must sum to the unsharded counters.
        let x = workload(12, 300);
        let q = query(300, 0.7);
        let n_pairs = 12 * 11 / 2;
        for (storage, horizontal) in [
            (PairStorage::Precomputed, None),
            (
                PairStorage::OnDemand,
                Some(HorizontalConfig {
                    n_pivots: 3,
                    strategy: PivotStrategy::Evenly,
                }),
            ),
        ] {
            let engine = Dangoron::new(DangoronConfig {
                basic_window: 20,
                storage,
                horizontal: horizontal.clone(),
                ..Default::default()
            })
            .unwrap();
            let full_prep = engine.prepare(&x, q).unwrap();
            assert_eq!(full_prep.pair_range(), 0..n_pairs);
            let full = engine.run(&full_prep);

            for cuts in [
                vec![0, n_pairs],
                vec![0, 17, n_pairs],
                vec![0, 1, 2, 40, n_pairs],
            ] {
                let mut flat = Vec::new();
                let mut stats = PruningStats::default();
                for w in cuts.windows(2) {
                    let prep = engine.prepare_shard(&x, q, w[0]..w[1]).unwrap();
                    let part = engine.run_range(&prep, w[0]..w[1]);
                    stats.merge(&part.stats);
                    for (win, m) in part.matrices.iter().enumerate() {
                        flat.extend(m.edges().iter().map(|&e| (win as u32, e)));
                    }
                }
                let merged = ThresholdedMatrix::assemble_windows(
                    12,
                    q.threshold,
                    engine.config().edge_rule,
                    q.n_windows(),
                    &[flat],
                );
                assert_eq!(merged.len(), full.matrices.len());
                for (a, b) in merged.iter().zip(&full.matrices) {
                    assert_eq!(a.n_edges(), b.n_edges());
                    for (ea, eb) in a.edges().iter().zip(b.edges()) {
                        assert_eq!((ea.i, ea.j), (eb.i, eb.j));
                        assert_eq!(ea.value.to_bits(), eb.value.to_bits());
                    }
                }
                assert_eq!(stats, full.stats, "cuts {cuts:?} ({storage:?})");
            }
        }
    }

    #[test]
    fn run_range_within_one_preparation_matches_shards() {
        // Splitting one full preparation with run_range must agree with
        // the separately-prepared shards (engine-side invariance).
        let x = workload(10, 300);
        let q = query(300, 0.6);
        let engine = Dangoron::new(DangoronConfig {
            basic_window: 20,
            ..Default::default()
        })
        .unwrap();
        let prep = engine.prepare(&x, q).unwrap();
        let n_pairs = 45;
        let a = engine.run_range(&prep, 0..20);
        let b = engine.run_range(&prep, 20..n_pairs);
        let shard_a = engine.run_range(&engine.prepare_shard(&x, q, 0..20).unwrap(), 0..20);
        assert_eq!(a.stats, shard_a.stats);
        assert_eq!(
            a.total_edges() + b.total_edges(),
            engine.run(&prep).total_edges()
        );
    }

    #[test]
    fn prepare_shard_rejects_out_of_triangle_ranges() {
        let x = workload(6, 300);
        let q = query(300, 0.5);
        let engine = Dangoron::new(DangoronConfig {
            basic_window: 20,
            ..Default::default()
        })
        .unwrap();
        assert!(engine.prepare_shard(&x, q, 0..16).is_err()); // 15 pairs
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 9..3;
        assert!(engine.prepare_shard(&x, q, reversed).is_err());
        assert!(engine.prepare_shard(&x, q, 3..9).is_ok());
    }

    #[test]
    #[should_panic(expected = "outside the prepared interval")]
    fn run_range_outside_prepared_shard_panics() {
        let x = workload(6, 300);
        let q = query(300, 0.5);
        let engine = Dangoron::new(DangoronConfig {
            basic_window: 20,
            ..Default::default()
        })
        .unwrap();
        let prep = engine.prepare_shard(&x, q, 3..9).unwrap();
        let _ = engine.run_range(&prep, 0..9);
    }

    #[test]
    fn pair_rank_is_dense_and_ordered() {
        let n = 7;
        let mut seen = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                seen.push(triangular::rank(i, j, n));
            }
        }
        let expected: Vec<usize> = (0..n * (n - 1) / 2).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn assemble_windows_joins_chunk_buffers_in_rank_order() {
        // A 6-series triangle over 5 windows. Every pair emits in ascending
        // window order, as `walk_pair` does, into windows 0 and 2 only, so
        // window 1 and the trailing windows 3 and 4 stay empty.
        let (n, n_windows) = (6, 5);
        let n_pairs = triangular::count(n);
        let emitted = |rank: usize| -> Vec<TaggedEdge> {
            let (i, j) = triangular::unrank(rank, n);
            [0, 2]
                .into_iter()
                .filter(|w| !(rank + w).is_multiple_of(3))
                .map(|w| tagged(w, i, j, 0.5 + rank as f64 / 64.0 + w as f64 / 1024.0))
                .collect()
        };
        let mut want: Vec<ThresholdedMatrix> = (0..n_windows)
            .map(|_| ThresholdedMatrix::new(n, 0.5))
            .collect();
        for rank in (0..n_pairs).rev() {
            for (w, e) in emitted(rank) {
                want[w as usize].push(e.i as usize, e.j as usize, e.value);
            }
        }
        want.iter_mut().for_each(ThresholdedMatrix::finalize);

        // Uneven stolen chunks, handed over as two workers interleave them
        // and in fully reversed order; the join must restore rank order.
        let cuts = [0, 4, 5, 9, 14, n_pairs];
        let chunk = |k: usize| {
            let buf: Vec<TaggedEdge> = (cuts[k]..cuts[k + 1]).flat_map(emitted).collect();
            (cuts[k], buf)
        };
        let n_chunks = cuts.len() - 1;
        let interleaved = (0..n_chunks).step_by(2).chain((1..n_chunks).step_by(2));
        let reversed = (0..n_chunks).rev();
        for arrival in [
            interleaved.map(chunk).collect::<Vec<_>>(),
            reversed.map(chunk).collect(),
        ] {
            let bufs = exec::join_chunks(arrival);
            let got =
                ThresholdedMatrix::assemble_windows(n, 0.5, EdgeRule::Positive, n_windows, &bufs);
            assert_eq!(got.len(), n_windows);
            for (w, (g, t)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.n_edges(), t.n_edges(), "window {w}");
                for (eg, et) in g.edges().iter().zip(t.edges()) {
                    assert_eq!((eg.i, eg.j), (et.i, et.j), "window {w}");
                    assert_eq!(eg.value.to_bits(), et.value.to_bits(), "window {w}");
                }
            }
            assert!(got[0].n_edges() > 0 && got[2].n_edges() > 0);
            assert!([1, 3, 4].iter().all(|&w| got[w].n_edges() == 0));
        }
    }
}
