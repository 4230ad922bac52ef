//! The per-pair window walker — Figure 2's state machine.
//!
//! For one pair the walker visits windows left to right. At each visited
//! window it obtains a correlation estimate (triangle bound if pruning
//! fires, exact sketch combine otherwise). Above-threshold windows emit an
//! edge and advance by one (the network needs the exact value, so no
//! skipping there). Below-threshold windows attempt an Eq. 2 jump: binary
//! search for the largest `k` whose bound stays below `β`, skip those `k`
//! windows (Fig. 2's green blocks), land on the next (red block) and
//! re-evaluate exactly.

use crate::bounds::{max_jump, max_jump_absolute, DepartureCost, PairCosts};
use crate::config::BoundMode;
use crate::pivot::PivotSet;
use crate::stats::PruningStats;
use sketch::output::EdgeRule;
use sketch::{combine, PairSketch, SketchStore};

/// Window-to-basic-window geometry shared by every pair of a query.
///
/// `offset_bw` shifts the whole walk into a global basic-window frame:
/// batch queries walk from the layout origin (`offset_bw = 0`), while a
/// streaming drain walks only the suffix of newly completed windows
/// (`offset_bw = first_new_window · step_bw`). One walker serves both.
#[derive(Debug, Clone, Copy)]
pub struct WalkGeometry {
    /// Number of sliding windows to walk (`γ + 1`, or the suffix length).
    pub n_windows: usize,
    /// Basic windows per query window (`n_s`).
    pub ns: usize,
    /// Basic windows departed per slide (`η / B`).
    pub step_bw: usize,
    /// Basic-window index of local window 0 — a multiple of `step_bw`.
    pub offset_bw: usize,
}

impl WalkGeometry {
    /// First basic-window index of (local) window `w`.
    #[inline]
    pub fn first_bw(&self, w: usize) -> usize {
        self.offset_bw + w * self.step_bw
    }

    /// Basic-window range `[b0, b1)` of (local) window `w`.
    #[inline]
    pub fn bw_range(&self, w: usize) -> (usize, usize) {
        let b0 = self.first_bw(w);
        (b0, b0 + self.ns)
    }

    /// Global window index of local window `w` — the index pivot tables
    /// and emitted matrices are keyed by.
    #[inline]
    pub fn global_window(&self, w: usize) -> usize {
        debug_assert!(self.offset_bw.is_multiple_of(self.step_bw));
        self.offset_bw / self.step_bw + w
    }
}

/// Builds the Eq. 2 departure-cost prefixes of a pair over the whole
/// layout: always the upper-bound prefix, plus the lower-bound prefix when
/// the edge rule needs it.
pub fn pair_costs(
    store: &SketchStore,
    pair: &PairSketch,
    i: usize,
    j: usize,
    rule: EdgeRule,
) -> PairCosts {
    let cs = || (0..store.layout().count).map(|b| pair.basic_correlation(store, i, j, b));
    PairCosts {
        upper: DepartureCost::from_correlations(cs()),
        lower: (rule == EdgeRule::Absolute).then(|| DepartureCost::from_correlations_lower(cs())),
    }
}

/// Extends stored [`PairCosts`] to cover the store's current basic-window
/// count, reading only the new windows' correlations — the streaming
/// maintenance path (bit-identical to a fresh [`pair_costs`] build).
pub fn extend_pair_costs(
    costs: &mut PairCosts,
    store: &SketchStore,
    pair: &PairSketch,
    i: usize,
    j: usize,
) {
    let from = costs.upper.n_basic();
    let cs = || (from..store.layout().count).map(|b| pair.basic_correlation(store, i, j, b));
    costs.upper.extend_from_correlations(cs());
    if let Some(lower) = &mut costs.lower {
        lower.extend_from_correlations_lower(cs());
    }
}

/// Walks all windows of one pair, calling `emit(window, value)` for every
/// window whose correlation passes `rule` at `beta`. Counters are recorded
/// into `stats`.
#[allow(clippy::too_many_arguments)]
pub fn walk_pair(
    store: &SketchStore,
    pair: &PairSketch,
    i: usize,
    j: usize,
    geo: WalkGeometry,
    beta: f64,
    rule: EdgeRule,
    mode: BoundMode,
    dep: Option<&PairCosts>,
    pivots: Option<&PivotSet>,
    stats: &mut PruningStats,
    mut emit: impl FnMut(usize, f64),
) {
    stats.n_pairs += 1;
    stats.total_cells += geo.n_windows as u64;

    let mut w = 0usize;
    while w < geo.n_windows {
        // Horizontal pruning: a sound interval excluding every edge value
        // settles the window without an exact combine.
        let mut bracket: Option<(f64, f64)> = None; // (lo, hi) on c_ij
        if let Some(pv) = pivots {
            let (lo, hi) = pv.interval(i, j, geo.global_window(w));
            let settled = match rule {
                EdgeRule::Positive => hi < beta,
                EdgeRule::Absolute => hi < beta && lo > -beta,
            };
            if settled {
                stats.pruned_by_triangle += 1;
                bracket = Some((lo, hi));
            }
        }
        if bracket.is_none() {
            let (b0, b1) = geo.bw_range(w);
            stats.evaluated += 1;
            match combine::window_correlation(store, pair, i, j, b0, b1) {
                Ok(c) => {
                    if rule.keeps(c, beta) {
                        stats.edges += 1;
                        emit(w, c);
                        w += 1;
                        continue;
                    }
                    bracket = Some((c, c));
                }
                Err(_) => {
                    // Zero-variance window: correlation undefined, no edge,
                    // and no jump (the Eq. 2 model does not apply).
                    w += 1;
                    continue;
                }
            }
        }
        let (corr_lo, corr_hi) = bracket.unwrap();

        // Below threshold (exactly, or via a sound bracket): jump.
        match mode {
            BoundMode::Exhaustive => w += 1,
            BoundMode::PaperJump { slack } => {
                let dep = dep.expect("PaperJump mode requires departure costs");
                let k_max = geo.n_windows - 1 - w;
                let k = match rule {
                    EdgeRule::Positive => max_jump(
                        corr_hi,
                        beta,
                        slack,
                        geo.ns,
                        geo.step_bw,
                        geo.first_bw(w),
                        k_max,
                        &dep.upper,
                    ),
                    EdgeRule::Absolute => max_jump_absolute(
                        corr_hi,
                        corr_lo,
                        beta,
                        slack,
                        geo.ns,
                        geo.step_bw,
                        geo.first_bw(w),
                        k_max,
                        &dep.upper,
                        dep.lower
                            .as_ref()
                            .expect("absolute rule requires the lower-bound cost"),
                    ),
                };
                if k == 0 {
                    w += 1;
                } else {
                    stats.record_jump(k);
                    w += k + 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch::{BasicWindowLayout, SlidingQuery};
    use tsdata::{generators, stats as tstats, TimeSeriesMatrix};

    struct Fixture {
        x: TimeSeriesMatrix,
        store: SketchStore,
        pair: PairSketch,
        query: SlidingQuery,
        geo: WalkGeometry,
    }

    fn fixture(rho: f64, beta: f64) -> Fixture {
        let (a, b) = generators::correlated_pair(400, rho, 21);
        let x = TimeSeriesMatrix::from_rows(vec![a, b]).unwrap();
        let query = SlidingQuery {
            start: 0,
            end: 400,
            window: 80,
            step: 20,
            threshold: beta,
        };
        let layout = BasicWindowLayout::for_query(&query, 20).unwrap();
        let store = SketchStore::build(&x, layout).unwrap();
        let pair = PairSketch::build(&layout, x.row(0), x.row(1)).unwrap();
        let geo = WalkGeometry {
            n_windows: query.n_windows(),
            ns: layout.windows_per_query(query.window),
            step_bw: query.step / layout.width,
            offset_bw: 0,
        };
        Fixture {
            x,
            store,
            pair,
            query,
            geo,
        }
    }

    fn naive_edges(f: &Fixture) -> Vec<(usize, f64)> {
        (0..f.query.n_windows())
            .filter_map(|w| {
                let (ws, we) = f.query.window_range(w);
                let r = tstats::pearson(&f.x.row(0)[ws..we], &f.x.row(1)[ws..we]).ok()?;
                (r >= f.query.threshold).then_some((w, r))
            })
            .collect()
    }

    #[test]
    fn exhaustive_walk_matches_naive_exactly() {
        for &(rho, beta) in &[(0.9, 0.8), (0.3, 0.5), (0.0, 0.9), (0.95, 0.2)] {
            let f = fixture(rho, beta);
            let mut got = Vec::new();
            let mut stats = PruningStats::default();
            walk_pair(
                &f.store,
                &f.pair,
                0,
                1,
                f.geo,
                beta,
                EdgeRule::Positive,
                BoundMode::Exhaustive,
                None,
                None,
                &mut stats,
                |w, v| got.push((w, v)),
            );
            let expected = naive_edges(&f);
            assert_eq!(got.len(), expected.len(), "rho={rho} beta={beta}");
            for ((gw, gv), (ew, ev)) in got.iter().zip(&expected) {
                assert_eq!(gw, ew);
                assert!((gv - ev).abs() < 1e-9);
            }
            assert_eq!(stats.evaluated, f.geo.n_windows as u64);
            assert_eq!(stats.skipped_by_jump, 0);
        }
    }

    #[test]
    fn jump_mode_emits_subset_with_exact_values() {
        let f = fixture(0.4, 0.85);
        let dep = pair_costs(&f.store, &f.pair, 0, 1, EdgeRule::Positive);
        let mut got = Vec::new();
        let mut stats = PruningStats::default();
        walk_pair(
            &f.store,
            &f.pair,
            0,
            1,
            f.geo,
            0.85,
            EdgeRule::Positive,
            BoundMode::PaperJump { slack: 0.0 },
            Some(&dep),
            None,
            &mut stats,
            |w, v| got.push((w, v)),
        );
        let expected = naive_edges(&f);
        // Every emission must be a true edge with the exact value.
        for (w, v) in &got {
            let found = expected.iter().find(|(ew, _)| ew == w);
            assert!(found.is_some(), "spurious edge at window {w}");
            assert!((found.unwrap().1 - v).abs() < 1e-9);
        }
        // Work accounting must be consistent.
        assert_eq!(
            stats.evaluated + stats.skipped_by_jump,
            f.geo.n_windows as u64
        );
    }

    #[test]
    fn jump_mode_skips_on_uncorrelated_pair() {
        let f = fixture(0.0, 0.9);
        let dep = pair_costs(&f.store, &f.pair, 0, 1, EdgeRule::Positive);
        let mut stats = PruningStats::default();
        walk_pair(
            &f.store,
            &f.pair,
            0,
            1,
            f.geo,
            0.9,
            EdgeRule::Positive,
            BoundMode::PaperJump { slack: 0.0 },
            Some(&dep),
            None,
            &mut stats,
            |_, _| {},
        );
        assert!(
            stats.skipped_by_jump > 0,
            "uncorrelated pair at high β should produce jumps: {stats:?}"
        );
        assert!(stats.jumps > 0);
        assert!(stats.mean_jump_length() >= 1.0);
    }

    #[test]
    fn perfectly_correlated_pair_emits_everywhere() {
        let f = fixture(0.999, 0.9);
        let dep = pair_costs(&f.store, &f.pair, 0, 1, EdgeRule::Positive);
        let mut got = Vec::new();
        let mut stats = PruningStats::default();
        walk_pair(
            &f.store,
            &f.pair,
            0,
            1,
            f.geo,
            0.9,
            EdgeRule::Positive,
            BoundMode::PaperJump { slack: 0.0 },
            Some(&dep),
            None,
            &mut stats,
            |w, v| got.push((w, v)),
        );
        assert_eq!(got.len(), f.geo.n_windows);
        assert_eq!(stats.edges, f.geo.n_windows as u64);
        assert_eq!(stats.skipped_by_jump, 0);
    }

    #[test]
    fn zero_variance_pair_is_silent() {
        let flat = vec![5.0; 400];
        let (a, _) = generators::correlated_pair(400, 0.5, 3);
        let x = TimeSeriesMatrix::from_rows(vec![flat, a]).unwrap();
        let query = SlidingQuery {
            start: 0,
            end: 400,
            window: 80,
            step: 40,
            threshold: 0.5,
        };
        let layout = BasicWindowLayout::for_query(&query, 40).unwrap();
        let store = SketchStore::build(&x, layout).unwrap();
        let pair = PairSketch::build(&layout, x.row(0), x.row(1)).unwrap();
        let geo = WalkGeometry {
            n_windows: query.n_windows(),
            ns: 2,
            step_bw: 1,
            offset_bw: 0,
        };
        let dep = pair_costs(&store, &pair, 0, 1, EdgeRule::Positive);
        let mut stats = PruningStats::default();
        let mut emitted = 0;
        walk_pair(
            &store,
            &pair,
            0,
            1,
            geo,
            0.5,
            EdgeRule::Positive,
            BoundMode::PaperJump { slack: 0.0 },
            Some(&dep),
            None,
            &mut stats,
            |_, _| emitted += 1,
        );
        assert_eq!(emitted, 0);
        assert_eq!(stats.edges, 0);
    }

    #[test]
    fn offset_walk_equals_suffix_of_full_walk() {
        // The streaming drain walks only new windows via `offset_bw`; its
        // emissions must be exactly the full walk's, shifted. (Exhaustive
        // mode: jump state does not carry across the suffix boundary.)
        let f = fixture(0.85, 0.8);
        let mut full = Vec::new();
        let mut stats = PruningStats::default();
        walk_pair(
            &f.store,
            &f.pair,
            0,
            1,
            f.geo,
            0.8,
            EdgeRule::Positive,
            BoundMode::Exhaustive,
            None,
            None,
            &mut stats,
            |w, v| full.push((w, v)),
        );
        for skip in [1usize, 3, 7] {
            let geo = WalkGeometry {
                n_windows: f.geo.n_windows - skip,
                offset_bw: skip * f.geo.step_bw,
                ..f.geo
            };
            assert_eq!(geo.global_window(0), skip);
            let mut got = Vec::new();
            let mut stats = PruningStats::default();
            walk_pair(
                &f.store,
                &f.pair,
                0,
                1,
                geo,
                0.8,
                EdgeRule::Positive,
                BoundMode::Exhaustive,
                None,
                None,
                &mut stats,
                |w, v| got.push((w + skip, v)),
            );
            let expected: Vec<(usize, f64)> =
                full.iter().filter(|(w, _)| *w >= skip).cloned().collect();
            assert_eq!(got, expected, "skip={skip}");
        }
    }

    #[test]
    fn larger_slack_never_skips_more() {
        let f = fixture(0.5, 0.8);
        let dep = pair_costs(&f.store, &f.pair, 0, 1, EdgeRule::Positive);
        let mut skipped = Vec::new();
        for &slack in &[0.0, 0.1, 0.3] {
            let mut stats = PruningStats::default();
            walk_pair(
                &f.store,
                &f.pair,
                0,
                1,
                f.geo,
                0.8,
                EdgeRule::Positive,
                BoundMode::PaperJump { slack },
                Some(&dep),
                None,
                &mut stats,
                |_, _| {},
            );
            skipped.push(stats.skipped_by_jump);
        }
        assert!(skipped[0] >= skipped[1]);
        assert!(skipped[1] >= skipped[2]);
    }
}
