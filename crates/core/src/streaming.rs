//! Real-time operation: a session that ingests new columns and emits the
//! newly completed windows' networks.
//!
//! The problem statement's first challenge is "efficiency of network
//! construction **and updates**". [`StreamingDangoron`] is the engine
//! core's `PairState` kept alive: opening a session builds the state
//! over the initial history, exactly as a batch preparation builds it over
//! a query range, except that every pair sketch stays resident (the
//! streaming state *is* the precomputed sketch set). Each
//! [`StreamingDangoron::append`] extends that state from the new columns
//! only — store and pair prefixes, the Eq. 2 departure-cost prefixes in
//! jump mode, and the pivot table under horizontal pruning; history is
//! never rescanned — and answers with the thresholded matrices of every
//! window that became complete.
//!
//! A drain is the batch walk over the new window suffix: the same
//! [`crate::walker::walk_pair`], vertical jumping (Eq. 2) and triangle
//! pruning, shifted into the global window frame by
//! [`crate::walker::WalkGeometry::offset_bw`]. [`StreamingDangoron::query_shared`]
//! is that walk with another geometry over the whole history. No parallel
//! streaming implementation exists. Raw history is evicted as soon as it
//! is absorbed into the sketch prefixes, so a long-lived session holds
//! O(N²·n_b) sketch state plus less than one basic window of raw columns —
//! not the full stream.

use crate::config::DangoronConfig;
use crate::engine::QueryResult;
use crate::state::{check_geometry, PairState, Purpose};
use crate::stats::PruningStats;
use sketch::{triangular, SlidingQuery, ThresholdedMatrix};
use std::ops::Range;
use tsdata::{TimeSeriesMatrix, TsError};

/// A long-lived streaming session.
///
/// Restrictions relative to the batch engine: pair sketches are always
/// materialised (the streaming state *is* the precomputed sketch set).
/// Horizontal pruning is supported — the pivot table is grown
/// incrementally alongside the sketches.
///
/// ```
/// use dangoron::{DangoronConfig, StreamingDangoron};
/// use tsdata::generators;
///
/// let full = generators::clustered_matrix(6, 200, 2, 0.5, 9).unwrap();
/// let mut session = StreamingDangoron::new(
///     full.slice_columns(0, 80).unwrap(), // initial history
///     60,                                 // window
///     20,                                 // step
///     0.7,                                // threshold β
///     DangoronConfig { basic_window: 20, ..Default::default() },
/// ).unwrap();
/// let mut windows = session.drain_completed().unwrap();
/// windows.extend(session.append(&full.slice_columns(80, 200).unwrap()).unwrap());
/// // Every window the equivalent batch query would emit has streamed out,
/// // and its history buffer stayed below one basic window of raw columns.
/// assert_eq!(windows.len(), session.batch_query().n_windows());
/// assert!(session.history_len() < 20);
/// ```
pub struct StreamingDangoron {
    config: DangoronConfig,
    threshold: f64,
    /// The session's sketch state over every column ingested so far.
    state: PairState<'static>,
    /// Cumulative pruning counters across all drains.
    stats: PruningStats,
    /// Counters of the most recent non-empty drain.
    last_drain_stats: PruningStats,
    emitted_windows: usize,
}

/// One newly completed window: its global index and its network.
#[derive(Debug, Clone)]
pub struct CompletedWindow {
    /// Global window index (consistent with the equivalent batch query).
    pub index: usize,
    /// The thresholded correlation matrix.
    pub matrix: ThresholdedMatrix,
}

impl StreamingDangoron {
    /// Opens a session over the initial history.
    ///
    /// `window`, `step` and `config.basic_window` must satisfy the usual
    /// alignment rules; the initial history may be shorter than one window
    /// (windows start flowing once enough data arrives).
    pub fn new(
        initial: TimeSeriesMatrix,
        window: usize,
        step: usize,
        threshold: f64,
        config: DangoronConfig,
    ) -> Result<Self, TsError> {
        let n_pairs = triangular::count(initial.n_series());
        Self::new_sharded(initial, window, step, threshold, config, 0..n_pairs)
    }

    /// [`StreamingDangoron::new`] restricted to a contiguous pair-rank
    /// shard of the [`triangular`] rank space — the distributed tier's
    /// streaming worker. The session materialises (and incrementally
    /// maintains) only the shard's pair sketches plus, when horizontal
    /// pruning is on, the out-of-shard pivot pairs; drains walk the shard
    /// only. Concatenating the drained edges of a partition of the
    /// triangle is bit-identical to an unsharded session's drains, and the
    /// per-shard stats sum to the unsharded counters.
    pub fn new_sharded(
        initial: TimeSeriesMatrix,
        window: usize,
        step: usize,
        threshold: f64,
        config: DangoronConfig,
        pair_range: Range<usize>,
    ) -> Result<Self, TsError> {
        config.validate()?;
        let history = SlidingQuery {
            start: 0,
            end: initial.len(),
            window,
            step,
            threshold,
        };
        let state = PairState::build(&initial, &history, pair_range, &config, Purpose::Session)?;
        Ok(Self {
            config,
            threshold,
            state,
            stats: PruningStats::default(),
            last_drain_stats: PruningStats::default(),
            emitted_windows: 0,
        })
    }

    /// The contiguous pair-rank interval this session walks.
    pub fn pair_range(&self) -> Range<usize> {
        self.state.ranks.clone()
    }

    /// Number of windows fully contained in the current history.
    pub fn available_windows(&self) -> usize {
        (self.state.geometry(self.state.window, self.state.step, 0)).n_windows
    }

    /// Raw columns currently buffered — only the (partial basic window)
    /// tail the sketches have not absorbed yet, so this stays below
    /// `basic_window` no matter how much data has streamed through.
    pub fn history_len(&self) -> usize {
        self.state.tail_len()
    }

    /// Total columns ingested since the session opened (the length of the
    /// equivalent batch history, including any evicted raw columns).
    pub fn ingested_cols(&self) -> usize {
        self.state.ingested()
    }

    /// Windows already emitted.
    pub fn emitted_windows(&self) -> usize {
        self.emitted_windows
    }

    /// Cumulative pruning counters across every drain so far.
    pub fn stats(&self) -> &PruningStats {
        &self.stats
    }

    /// Pruning counters of the most recent drain that walked new windows.
    pub fn last_drain_stats(&self) -> &PruningStats {
        &self.last_drain_stats
    }

    /// Ingests new columns and returns every window that became complete,
    /// in order. Sketches and the pivot table are extended incrementally
    /// (only the new columns are read); the walk runs only over the new
    /// windows. Columns holding a NaN or infinite sample are refused
    /// whole, before any state changes.
    pub fn append(&mut self, new_cols: &TimeSeriesMatrix) -> Result<Vec<CompletedWindow>, TsError> {
        self.state.extend(new_cols, self.config.threads)?;
        self.drain_completed()
    }

    /// Emits any already-complete windows that have not been emitted yet
    /// (useful right after opening a session over a long history).
    pub fn drain_completed(&mut self) -> Result<Vec<CompletedWindow>, TsError> {
        let total = self.available_windows();
        if total <= self.emitted_windows {
            return Ok(Vec::new());
        }
        let _timer = obs::stages::span(obs::stages::Stage::Drain);
        let first_new = self.emitted_windows;
        // The batch walk over the new suffix only: a geometry whose local
        // window 0 sits at global window `first_new`.
        let state = &self.state;
        let geo = state.geometry(state.window, state.step, first_new);
        let result = state.walk(&self.config, geo, self.threshold, state.ranks.clone());
        // Keep both the per-drain view and the session-cumulative one.
        self.stats.merge(&result.stats);
        self.last_drain_stats = result.stats;
        let out = result
            .matrices
            .into_iter()
            .enumerate()
            .map(|(k, matrix)| CompletedWindow {
                index: first_new + k,
                matrix,
            })
            .collect();
        self.emitted_windows = total;
        Ok(out)
    }

    /// The equivalent batch query over the whole current history — for
    /// verification and for re-running with different parameters.
    pub fn batch_query(&self) -> SlidingQuery {
        SlidingQuery {
            start: 0,
            end: self.state.store.layout().end(),
            window: self.state.window,
            step: self.state.step,
            threshold: self.threshold,
        }
    }

    /// The window length this session drains with.
    pub fn window(&self) -> usize {
        self.state.window
    }

    /// The step this session drains with.
    pub fn step(&self) -> usize {
        self.state.step
    }

    /// The threshold `β` this session drains with.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of series in the session's matrix.
    pub fn n_series(&self) -> usize {
        self.state.store.n_series()
    }

    /// The engine configuration the session was opened with.
    pub fn config(&self) -> &DangoronConfig {
        &self.config
    }

    /// Bytes of resident state: sketch prefixes, pair sketches, Eq. 2
    /// cost prefixes, the pivot table, and the unabsorbed raw tail. This
    /// is what a serving tier accounts against its memory budget — it is
    /// the part of the session that grows with the stream.
    pub fn memory_bytes(&self) -> usize {
        self.state.memory_bytes()
    }

    /// Answers an **ad-hoc** `(window, step, threshold)` query from the
    /// resident sketch state — the serving tier's shared-prepare path.
    ///
    /// Sketch prefixes are query-independent, so a resident session can
    /// answer any aligned query without touching the raw history or
    /// re-paying the prepare phase: this walks the full current history
    /// with the same pruned walk the batch engine uses, and the result is
    /// bit-identical to a fresh [`crate::Dangoron`] run over the
    /// equivalent prefix — with the session's own config when
    /// `(window, step)` is the session's geometry, and with that config
    /// minus `horizontal` otherwise (see the pivot bullet below). Under
    /// [`crate::BoundMode::Exhaustive`] the two configs agree bit for bit,
    /// since the triangle bound only settles cells that hold no edge;
    /// under [`crate::BoundMode::PaperJump`] pivots steer the jump path
    /// and can change the edge set.
    ///
    /// What is reused from the resident state:
    ///
    /// * the [`sketch::SketchStore`] and every pair sketch — always;
    /// * the Eq. 2 departure-cost prefixes — always in jump mode (they
    ///   depend only on the sketches and the edge rule, not the query
    ///   geometry);
    /// * the pivot table — only when `(window, step)` equal the session's
    ///   own geometry (its intervals are keyed by the session's window
    ///   frame); other geometries simply walk without horizontal pruning.
    ///
    /// `window` and `step` must be multiples of the session's basic
    /// window; sharded sessions (a partial pair range) cannot answer
    /// shared queries — open the session unsharded.
    pub fn query_shared(
        &self,
        window: usize,
        step: usize,
        threshold: f64,
    ) -> Result<QueryResult, TsError> {
        check_geometry(&self.config, window, step, threshold)?;
        let ranks = self.state.ranks.clone();
        if ranks != (0..triangular::count(self.n_series())) {
            return Err(TsError::InvalidParameter(format!(
                "shared queries need the full pair triangle; this session holds ranks {}..{}",
                ranks.start, ranks.end
            )));
        }
        let geo = self.state.geometry(window, step, 0);
        Ok(self.state.walk(&self.config, geo, threshold, ranks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BoundMode, HorizontalConfig, PivotStrategy};
    use crate::engine::Dangoron;
    use tsdata::generators;

    fn config(bound: BoundMode) -> DangoronConfig {
        DangoronConfig {
            basic_window: 10,
            bound,
            ..Default::default()
        }
    }

    fn config_with_pivots(bound: BoundMode, n_pivots: usize) -> DangoronConfig {
        DangoronConfig {
            horizontal: Some(HorizontalConfig {
                n_pivots,
                strategy: PivotStrategy::Evenly,
            }),
            ..config(bound)
        }
    }

    fn assert_same_windows(streamed: &[CompletedWindow], batch: &[ThresholdedMatrix]) {
        for cw in streamed {
            let b = &batch[cw.index];
            assert_eq!(cw.matrix.n_edges(), b.n_edges(), "window {}", cw.index);
            for (ea, eb) in cw.matrix.edges().iter().zip(b.edges()) {
                assert_eq!((ea.i, ea.j), (eb.i, eb.j));
                assert_eq!(
                    ea.value.to_bits(),
                    eb.value.to_bits(),
                    "window {} edge ({}, {})",
                    cw.index,
                    ea.i,
                    ea.j
                );
            }
        }
    }

    #[test]
    fn streaming_matches_batch_exhaustive() {
        let full = generators::clustered_matrix(8, 400, 2, 0.5, 3).unwrap();
        let initial = full.slice_columns(0, 150).unwrap();
        let mut session =
            StreamingDangoron::new(initial, 80, 20, 0.7, config(BoundMode::Exhaustive)).unwrap();

        let mut collected = session.drain_completed().unwrap();
        // Stream the rest in uneven chunks.
        for (a, b) in [(150usize, 175usize), (175, 280), (280, 297), (297, 400)] {
            let chunk = full.slice_columns(a, b).unwrap();
            collected.extend(session.append(&chunk).unwrap());
        }
        // Indices must be contiguous from 0.
        let idxs: Vec<usize> = collected.iter().map(|c| c.index).collect();
        let expected: Vec<usize> = (0..idxs.len()).collect();
        assert_eq!(idxs, expected);

        // And equal to the batch engine over the full history.
        let engine = Dangoron::new(config(BoundMode::Exhaustive)).unwrap();
        let batch = engine.execute(&full, session.batch_query()).unwrap();
        assert_eq!(collected.len(), batch.matrices.len());
        assert_same_windows(&collected, &batch.matrices);
    }

    #[test]
    fn streaming_with_pivots_matches_batch_exhaustive() {
        // Under Exhaustive, horizontal pruning never changes an edge: with
        // pivots enabled the streamed windows must still be bit-identical
        // to the exhaustive batch truth, while the triangle counter
        // actually fires.
        let full = generators::clustered_matrix(10, 400, 2, 0.4, 11).unwrap();
        let initial = full.slice_columns(0, 150).unwrap();
        let mut session = StreamingDangoron::new(
            initial,
            80,
            20,
            0.9,
            config_with_pivots(BoundMode::Exhaustive, 2),
        )
        .unwrap();
        let mut collected = session.drain_completed().unwrap();
        for (a, b) in [(150usize, 163usize), (163, 240), (240, 400)] {
            let chunk = full.slice_columns(a, b).unwrap();
            collected.extend(session.append(&chunk).unwrap());
        }
        let engine = Dangoron::new(config(BoundMode::Exhaustive)).unwrap();
        let batch = engine.execute(&full, session.batch_query()).unwrap();
        assert_eq!(collected.len(), batch.matrices.len());
        assert_same_windows(&collected, &batch.matrices);
        let s = session.stats();
        assert!(
            s.pruned_by_triangle > 0 || s.pairs_skipped_entirely > 0,
            "horizontal pruning never fired on clustered data: {s:?}"
        );
    }

    #[test]
    fn streaming_stats_accumulate_across_drains() {
        let full = generators::clustered_matrix(8, 400, 2, 0.5, 3).unwrap();
        let initial = full.slice_columns(0, 150).unwrap();
        let mut session =
            StreamingDangoron::new(initial, 80, 20, 0.7, config(BoundMode::Exhaustive)).unwrap();
        let mut collected = session.drain_completed().unwrap();
        let after_open = session.stats().clone();
        assert!(after_open.n_pairs > 0, "first drain recorded nothing");
        for (a, b) in [(150usize, 250usize), (250, 400)] {
            let chunk = full.slice_columns(a, b).unwrap();
            collected.extend(session.append(&chunk).unwrap());
        }
        let s = session.stats();
        let n_pairs = 8 * 7 / 2;
        let total_windows = session.available_windows();
        // Cumulative accounting: every (pair, new-window) cell of every
        // drain is recorded exactly once.
        assert_eq!(s.total_cells, (n_pairs * total_windows) as u64);
        assert_eq!(s.evaluated, s.total_cells, "exhaustive without pivots");
        assert_eq!(
            s.edges,
            collected
                .iter()
                .map(|c| c.matrix.n_edges() as u64)
                .sum::<u64>()
        );
        // The last-drain view is a component of the cumulative one.
        assert!(session.last_drain_stats().total_cells <= s.total_cells);
        assert!(session.last_drain_stats().total_cells > 0);
    }

    #[test]
    fn raw_history_is_evicted() {
        // Raw columns must be dropped once absorbed into the sketches:
        // the buffered history stays below one basic window while the
        // ingested total keeps growing — and the emitted networks still
        // match the batch engine over the full history.
        let full = generators::clustered_matrix(6, 600, 2, 0.5, 5).unwrap();
        let initial = full.slice_columns(0, 100).unwrap();
        let mut session =
            StreamingDangoron::new(initial, 80, 20, 0.7, config(BoundMode::Exhaustive)).unwrap();
        assert!(session.history_len() < 10, "open did not evict");
        let mut collected = session.drain_completed().unwrap();
        let mut t = 100;
        for chunk_len in [7usize, 23, 40, 104, 13, 96, 200, 17] {
            let chunk = full.slice_columns(t, t + chunk_len).unwrap();
            collected.extend(session.append(&chunk).unwrap());
            t += chunk_len;
            assert!(
                session.history_len() < 10,
                "retained {} raw columns after ingesting {}",
                session.history_len(),
                session.ingested_cols()
            );
            assert_eq!(session.ingested_cols(), t);
        }
        assert_eq!(t, 600);
        let engine = Dangoron::new(config(BoundMode::Exhaustive)).unwrap();
        let batch = engine.execute(&full, session.batch_query()).unwrap();
        assert_eq!(collected.len(), batch.matrices.len());
        assert_same_windows(&collected, &batch.matrices);
    }

    #[test]
    fn streaming_jump_mode_emits_subset_of_truth() {
        let full = generators::clustered_matrix(6, 400, 2, 0.5, 9).unwrap();
        let initial = full.slice_columns(0, 100).unwrap();
        let mut session = StreamingDangoron::new(
            initial,
            80,
            20,
            0.85,
            config(BoundMode::PaperJump { slack: 0.0 }),
        )
        .unwrap();
        let mut collected = session.drain_completed().unwrap();
        let chunk = full.slice_columns(100, 400).unwrap();
        collected.extend(session.append(&chunk).unwrap());

        let engine = Dangoron::new(config(BoundMode::Exhaustive)).unwrap();
        let truth = engine.execute(&full, session.batch_query()).unwrap();
        for cw in &collected {
            for e in cw.matrix.edges() {
                assert!(
                    truth.matrices[cw.index].contains(e.i as usize, e.j as usize),
                    "spurious streamed edge at window {}",
                    cw.index
                );
            }
        }
    }

    #[test]
    fn sharded_sessions_partition_the_unsharded_drains() {
        // Replay the same chunked stream through k sharded sessions; the
        // concatenated drains must be bit-identical to the unsharded
        // session's and the shard stats must sum to its counters — with
        // horizontal pruning on, exercising the out-of-shard pivot pairs.
        let full = generators::clustered_matrix(9, 400, 2, 0.45, 13).unwrap();
        let n_pairs = 9 * 8 / 2;
        let chunks = [(150usize, 190usize), (190, 300), (300, 400)];
        let cfg = config_with_pivots(BoundMode::Exhaustive, 2);

        let replay = |range: std::ops::Range<usize>| {
            let initial = full.slice_columns(0, 150).unwrap();
            let mut s =
                StreamingDangoron::new_sharded(initial, 80, 20, 0.85, cfg.clone(), range).unwrap();
            let mut out = s.drain_completed().unwrap();
            for (a, b) in chunks {
                out.extend(s.append(&full.slice_columns(a, b).unwrap()).unwrap());
            }
            let stats = s.stats().clone();
            (out, stats)
        };

        let (whole, whole_stats) = replay(0..n_pairs);
        for cuts in [vec![0, 11, n_pairs], vec![0, 1, 12, 13, n_pairs]] {
            let mut flat: Vec<(u32, sketch::output::Edge)> = Vec::new();
            let mut stats = PruningStats::default();
            let mut n_windows = 0;
            for w in cuts.windows(2) {
                let (part, part_stats) = replay(w[0]..w[1]);
                stats.merge(&part_stats);
                n_windows = part.len();
                for cw in part {
                    flat.extend(cw.matrix.edges().iter().map(|&e| (cw.index as u32, e)));
                }
            }
            assert_eq!(n_windows, whole.len(), "cuts {cuts:?}");
            let merged =
                ThresholdedMatrix::assemble_windows(9, 0.85, cfg.edge_rule, whole.len(), &[flat]);
            for (m, cw) in merged.iter().zip(&whole) {
                assert_eq!(m.n_edges(), cw.matrix.n_edges(), "window {}", cw.index);
                for (ea, eb) in m.edges().iter().zip(cw.matrix.edges()) {
                    assert_eq!((ea.i, ea.j), (eb.i, eb.j));
                    assert_eq!(ea.value.to_bits(), eb.value.to_bits());
                }
            }
            assert_eq!(stats, whole_stats, "cuts {cuts:?}");
        }
        // Out-of-triangle shard ranges are rejected.
        let initial = full.slice_columns(0, 150).unwrap();
        assert!(
            StreamingDangoron::new_sharded(initial, 80, 20, 0.85, cfg, 0..n_pairs + 1).is_err()
        );
    }

    #[test]
    fn no_emission_before_first_full_window() {
        let full = generators::clustered_matrix(4, 200, 2, 0.5, 5).unwrap();
        let initial = full.slice_columns(0, 30).unwrap();
        let mut session =
            StreamingDangoron::new(initial, 80, 20, 0.7, config(BoundMode::Exhaustive)).unwrap();
        assert_eq!(session.available_windows(), 0);
        assert!(session.drain_completed().unwrap().is_empty());
        // 30 + 40 = 70 < 80: still nothing.
        let out = session
            .append(&full.slice_columns(30, 70).unwrap())
            .unwrap();
        assert!(out.is_empty());
        // Crossing 80 emits window 0.
        let out = session
            .append(&full.slice_columns(70, 100).unwrap())
            .unwrap();
        assert_eq!(out[0].index, 0);
        assert_eq!(session.emitted_windows(), out.len());
    }

    #[test]
    fn partial_basic_windows_wait() {
        // Appending 7 columns (less than a basic window) completes nothing
        // new but must not corrupt state.
        let full = generators::clustered_matrix(4, 300, 2, 0.5, 7).unwrap();
        let initial = full.slice_columns(0, 100).unwrap();
        let mut session =
            StreamingDangoron::new(initial, 80, 20, 0.7, config(BoundMode::Exhaustive)).unwrap();
        let before = session.drain_completed().unwrap().len();
        let out = session
            .append(&full.slice_columns(100, 107).unwrap())
            .unwrap();
        assert!(out.is_empty());
        // Completing the basic window continues cleanly.
        let out = session
            .append(&full.slice_columns(107, 140).unwrap())
            .unwrap();
        assert!(!out.is_empty());
        assert_eq!(out[0].index, before);
    }

    fn assert_bitwise(a: &[ThresholdedMatrix], b: &[ThresholdedMatrix]) {
        assert_eq!(a.len(), b.len());
        for (w, (ma, mb)) in a.iter().zip(b).enumerate() {
            assert_eq!(ma.n_edges(), mb.n_edges(), "window {w}");
            for (ea, eb) in ma.edges().iter().zip(mb.edges()) {
                assert_eq!((ea.i, ea.j), (eb.i, eb.j), "window {w}");
                assert_eq!(ea.value.to_bits(), eb.value.to_bits(), "window {w}");
            }
        }
    }

    #[test]
    fn shared_queries_match_fresh_batch_runs() {
        // The serving tier's contract: any aligned (window, step, β) query
        // answered from the resident sketches is bit-identical to a fresh
        // one-shot engine run over the same prefix — including geometries
        // and thresholds the session was never opened with.
        let full = generators::clustered_matrix(8, 400, 2, 0.5, 3).unwrap();
        let initial = full.slice_columns(0, 150).unwrap();
        let cfg = config_with_pivots(BoundMode::Exhaustive, 2);
        let mut session = StreamingDangoron::new(initial, 80, 20, 0.7, cfg.clone()).unwrap();
        session.drain_completed().unwrap();
        for (a, b) in [(150usize, 290usize), (290, 400)] {
            session.append(&full.slice_columns(a, b).unwrap()).unwrap();
            let covered = session.batch_query().end;
            let prefix = full.slice_columns(0, covered).unwrap();
            for (w, s, t) in [(80, 20, 0.7), (60, 20, 0.9), (100, 40, 0.5), (40, 40, 0.8)] {
                let shared = session.query_shared(w, s, t).unwrap();
                let engine = Dangoron::new(cfg.clone()).unwrap();
                let query = SlidingQuery {
                    start: 0,
                    end: covered,
                    window: w,
                    step: s,
                    threshold: t,
                };
                let truth = engine.execute(&prefix, query).unwrap();
                assert_bitwise(&shared.matrices, &truth.matrices);
            }
        }
    }

    #[test]
    fn shared_queries_match_in_jump_mode() {
        // Jump mode is approximate vs the exhaustive truth, but the shared
        // query reuses the resident Eq. 2 cost prefixes — which extend
        // bit-identically to a fresh build — so it must equal a fresh
        // jump-mode engine run exactly.
        let full = generators::clustered_matrix(7, 300, 2, 0.5, 9).unwrap();
        let cfg = config(BoundMode::PaperJump { slack: 0.0 });
        let mut session = StreamingDangoron::new(
            full.slice_columns(0, 120).unwrap(),
            80,
            20,
            0.85,
            cfg.clone(),
        )
        .unwrap();
        session.drain_completed().unwrap();
        session
            .append(&full.slice_columns(120, 300).unwrap())
            .unwrap();
        let covered = session.batch_query().end;
        let prefix = full.slice_columns(0, covered).unwrap();
        for (w, s, t) in [(80, 20, 0.85), (60, 60, 0.7)] {
            let shared = session.query_shared(w, s, t).unwrap();
            let engine = Dangoron::new(cfg.clone()).unwrap();
            let query = SlidingQuery {
                start: 0,
                end: covered,
                window: w,
                step: s,
                threshold: t,
            };
            let truth = engine.execute(&prefix, query).unwrap();
            assert_bitwise(&shared.matrices, &truth.matrices);
        }
    }

    #[test]
    fn exhaustive_pivots_change_no_edge_in_batch_or_shared_queries() {
        // The triangle bound only settles cells holding no edge, so under
        // Exhaustive pivots on ≡ pivots off, bit for bit — for one-shot
        // runs and for shared queries (including the session geometry,
        // where the resident pivot table is used).
        let full = generators::clustered_matrix(10, 400, 2, 0.4, 11).unwrap();
        let with = config_with_pivots(BoundMode::Exhaustive, 2);
        let without = config(BoundMode::Exhaustive);
        let mut session = StreamingDangoron::new(
            full.slice_columns(0, 150).unwrap(),
            80,
            20,
            0.9,
            with.clone(),
        )
        .unwrap();
        session.drain_completed().unwrap();
        session
            .append(&full.slice_columns(150, 400).unwrap())
            .unwrap();
        let mut pruned = 0;
        for (w, s, t) in [(80, 20, 0.9), (80, 20, 0.7), (60, 20, 0.85), (100, 40, 0.5)] {
            let query = SlidingQuery {
                start: 0,
                end: 400,
                window: w,
                step: s,
                threshold: t,
            };
            let on = Dangoron::new(with.clone())
                .unwrap()
                .execute(&full, query)
                .unwrap();
            let off = Dangoron::new(without.clone())
                .unwrap()
                .execute(&full, query)
                .unwrap();
            assert_bitwise(&on.matrices, &off.matrices);
            pruned += on.stats.pruned_by_triangle + on.stats.pairs_skipped_entirely;
            let shared = session.query_shared(w, s, t).unwrap();
            assert_bitwise(&shared.matrices, &off.matrices);
        }
        assert!(pruned > 0, "horizontal pruning never fired");
    }

    #[test]
    fn jump_mode_shared_queries_use_pivots_only_on_the_session_geometry() {
        // Under PaperJump pivots steer the jump path, so a shared query
        // equals a one-shot run with the session's config on the
        // session's own geometry, and with `horizontal: None` elsewhere.
        let full = generators::clustered_matrix(10, 400, 2, 0.4, 11).unwrap();
        let jump = BoundMode::PaperJump { slack: 0.0 };
        let with = config_with_pivots(jump, 2);
        let without = config(jump);
        let mut session = StreamingDangoron::new(
            full.slice_columns(0, 150).unwrap(),
            80,
            20,
            0.9,
            with.clone(),
        )
        .unwrap();
        session.drain_completed().unwrap();
        session
            .append(&full.slice_columns(150, 400).unwrap())
            .unwrap();
        for (w, s, t, cfg) in [
            (80, 20, 0.9, &with),
            (80, 20, 0.7, &with),
            (60, 20, 0.85, &without),
            (100, 40, 0.5, &without),
        ] {
            let query = SlidingQuery {
                start: 0,
                end: 400,
                window: w,
                step: s,
                threshold: t,
            };
            let truth = Dangoron::new(cfg.clone())
                .unwrap()
                .execute(&full, query)
                .unwrap();
            let shared = session.query_shared(w, s, t).unwrap();
            assert_bitwise(&shared.matrices, &truth.matrices);
        }
    }

    #[test]
    fn shared_query_validation_and_memory_accounting() {
        let full = generators::clustered_matrix(6, 200, 2, 0.5, 5).unwrap();
        let mut session = StreamingDangoron::new(
            full.slice_columns(0, 100).unwrap(),
            80,
            20,
            0.7,
            config(BoundMode::Exhaustive),
        )
        .unwrap();
        // Misaligned or out-of-range parameters are structured errors.
        assert!(session.query_shared(75, 20, 0.5).is_err());
        assert!(session.query_shared(80, 15, 0.5).is_err());
        assert!(session.query_shared(80, 0, 0.5).is_err());
        assert!(session.query_shared(80, 20, 1.5).is_err());
        // A query longer than the history yields zero windows, not an error.
        assert!(session
            .query_shared(200, 20, 0.5)
            .unwrap()
            .matrices
            .is_empty());
        // Memory accounting grows with the stream.
        let before = session.memory_bytes();
        assert!(before > 0);
        session
            .append(&full.slice_columns(100, 200).unwrap())
            .unwrap();
        assert!(session.memory_bytes() > before);
        // Sharded sessions cannot answer shared queries.
        let sharded = StreamingDangoron::new_sharded(
            full.slice_columns(0, 100).unwrap(),
            80,
            20,
            0.7,
            config(BoundMode::Exhaustive),
            0..5,
        )
        .unwrap();
        assert!(sharded.query_shared(80, 20, 0.7).is_err());
    }

    #[test]
    fn construction_validation() {
        let x = generators::clustered_matrix(4, 100, 2, 0.5, 1).unwrap();
        // Misaligned window.
        assert!(
            StreamingDangoron::new(x.clone(), 75, 20, 0.5, config(BoundMode::Exhaustive)).is_err()
        );
        // Misaligned step.
        assert!(
            StreamingDangoron::new(x.clone(), 80, 15, 0.5, config(BoundMode::Exhaustive)).is_err()
        );
        // Horizontal pruning is supported in sessions.
        let c = config_with_pivots(BoundMode::Exhaustive, 1);
        assert!(StreamingDangoron::new(x.clone(), 80, 20, 0.5, c).is_ok());
        // Mismatched series count on append is rejected.
        let mut session =
            StreamingDangoron::new(x.clone(), 80, 20, 0.5, config(BoundMode::Exhaustive)).unwrap();
        let other = generators::clustered_matrix(3, 40, 1, 0.5, 1).unwrap();
        assert!(session.append(&other).is_err());
        // Too little initial data.
        let tiny = x.slice_columns(0, 5).unwrap();
        assert!(StreamingDangoron::new(tiny, 80, 20, 0.5, config(BoundMode::Exhaustive)).is_err());
        // `|c| ≥ β` with a negative β would make every cell an edge.
        let absolute = DangoronConfig {
            edge_rule: sketch::output::EdgeRule::Absolute,
            ..config(BoundMode::Exhaustive)
        };
        assert!(StreamingDangoron::new(x.clone(), 80, 20, -0.5, absolute).is_err());
    }

    #[test]
    fn non_finite_samples_are_refused_at_open_and_append() {
        let full = generators::clustered_matrix(8, 400, 2, 0.5, 3).unwrap();
        let cfg = config_with_pivots(BoundMode::Exhaustive, 2);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // At open, in the absorbed history and in the raw tail alike.
            for col in [40, 147] {
                let mut initial = full.slice_columns(0, 150).unwrap();
                initial.set(3, col, bad);
                let err = StreamingDangoron::new(initial, 80, 20, 0.7, cfg.clone()).err();
                assert_eq!(
                    err,
                    Some(TsError::NonFinite {
                        series: 3,
                        column: col
                    }),
                    "{bad} at open"
                );
            }

            // At append: refused whole, columns numbered in the session's
            // frame, and the session carries on as if it never came.
            let mut session = StreamingDangoron::new(
                full.slice_columns(0, 150).unwrap(),
                80,
                20,
                0.7,
                cfg.clone(),
            )
            .unwrap();
            let mut collected = session.drain_completed().unwrap();
            collected.extend(
                session
                    .append(&full.slice_columns(150, 213).unwrap())
                    .unwrap(),
            );
            let (before, history) = (session.memory_bytes(), session.history_len());
            let mut poisoned = full.slice_columns(213, 300).unwrap();
            poisoned.set(5, 60, bad);
            assert_eq!(
                session.append(&poisoned).err(),
                Some(TsError::NonFinite {
                    series: 5,
                    column: 273
                }),
                "{bad} at append"
            );
            assert_eq!(session.ingested_cols(), 213);
            assert_eq!(session.history_len(), history);
            assert_eq!(session.memory_bytes(), before);
            collected.extend(
                session
                    .append(&full.slice_columns(213, 400).unwrap())
                    .unwrap(),
            );
            let batch = Dangoron::new(cfg.clone())
                .unwrap()
                .execute(&full, session.batch_query())
                .unwrap();
            assert_eq!(collected.len(), batch.matrices.len());
            assert_same_windows(&collected, &batch.matrices);
        }
    }
}
