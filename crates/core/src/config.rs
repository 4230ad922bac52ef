//! Engine configuration.

use serde::{Deserialize, Serialize};
use sketch::output::EdgeRule;
use tsdata::TsError;

/// How windows are skipped across time (vertical pruning).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BoundMode {
    /// The paper's Eq. 2 jumping: sound under the paper's
    /// sample-distribution assumption, ≥90 % accuracy in practice, fastest.
    /// `slack` is added to the threshold margin: larger slack ⇒ more
    /// conservative jumps ⇒ higher recall, less skipping (`0.0` is the
    /// literal Eq. 2).
    PaperJump {
        /// Extra margin subtracted from the bound before comparing to `β`.
        slack: f64,
    },
    /// No jumping: every window of every pair is evaluated exactly via the
    /// O(1) sketch combine. Exact results; the ablation baseline for the
    /// jump machinery.
    Exhaustive,
}

impl Default for BoundMode {
    fn default() -> Self {
        BoundMode::PaperJump { slack: 0.0 }
    }
}

/// Whether per-pair cross-product sketches are materialised up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PairStorage {
    /// Build all `N·(N−1)/2` pair sketches during `prepare` (the TSUBASA
    /// storage model): O(N²·n_b) memory, O(1) query-time evaluation.
    /// "Pure query time" in the paper's sense excludes this build.
    #[default]
    Precomputed,
    /// Build each pair's sketch lazily inside the query (O(L) per visited
    /// pair): constant memory, the mode that scales to large `N`, and the
    /// mode where horizontal pruning pays (a pruned pair never touches the
    /// raw series).
    OnDemand,
}

/// Pivot selection for horizontal (triangle-inequality) pruning.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PivotStrategy {
    /// Evenly spaced series indices — the default; cheap and diverse.
    Evenly,
    /// Pseudorandom choice from the given seed.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Caller-provided pivot indices.
    Explicit(Vec<usize>),
}

/// Horizontal-pruning configuration.
///
/// Applies to both the batch engine (pivot table built in parallel during
/// `prepare`) and streaming sessions (pivot table grown incrementally per
/// append). The triangle bound is sound: a cell it settles never holds an
/// edge. Under [`BoundMode::Exhaustive`] enabling it therefore never
/// changes results — only how many cells are evaluated exactly. Under
/// [`BoundMode::PaperJump`] it can: a settled cell jumps from the
/// interval's upper end instead of the exact value, so the approximate
/// Eq. 2 jump takes a different path and may land on (or skip) different
/// edge windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HorizontalConfig {
    /// Number of pivot series.
    pub n_pivots: usize,
    /// How pivots are picked.
    pub strategy: PivotStrategy,
}

impl Default for HorizontalConfig {
    fn default() -> Self {
        Self {
            n_pivots: 2,
            strategy: PivotStrategy::Evenly,
        }
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DangoronConfig {
    /// Basic-window width `B`; must divide the query's `window` and `step`.
    pub basic_window: usize,
    /// Vertical pruning mode.
    pub bound: BoundMode,
    /// Pair-sketch storage model.
    pub storage: PairStorage,
    /// Horizontal pruning; `None` disables it.
    pub horizontal: Option<HorizontalConfig>,
    /// Worker threads (1 = sequential).
    pub threads: usize,
    /// Which correlations become edges: the paper's `c ≥ β`
    /// ([`EdgeRule::Positive`], default) or the teleconnection variant
    /// `|c| ≥ β` ([`EdgeRule::Absolute`]).
    #[serde(default)]
    pub edge_rule: EdgeRule,
}

impl Default for DangoronConfig {
    fn default() -> Self {
        Self {
            basic_window: 24,
            bound: BoundMode::default(),
            storage: PairStorage::default(),
            horizontal: None,
            threads: 1,
            edge_rule: EdgeRule::Positive,
        }
    }
}

impl DangoronConfig {
    /// Validates parameter sanity (query-dependent checks happen in
    /// `prepare`).
    pub fn validate(&self) -> Result<(), TsError> {
        if self.basic_window < 2 {
            return Err(TsError::InvalidParameter(format!(
                "basic_window must be at least 2, got {}",
                self.basic_window
            )));
        }
        if self.threads == 0 {
            return Err(TsError::InvalidParameter("threads must be positive".into()));
        }
        if let BoundMode::PaperJump { slack } = self.bound {
            if !(0.0..=2.0).contains(&slack) || !slack.is_finite() {
                return Err(TsError::InvalidParameter(format!(
                    "slack must be in [0, 2], got {slack}"
                )));
            }
        }
        if let Some(h) = &self.horizontal {
            if h.n_pivots == 0 {
                return Err(TsError::InvalidParameter(
                    "horizontal pruning needs at least one pivot".into(),
                ));
            }
            if let PivotStrategy::Explicit(p) = &h.strategy {
                if p.is_empty() {
                    return Err(TsError::InvalidParameter(
                        "explicit pivot list is empty".into(),
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(DangoronConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_degenerate_parameters() {
        let c = DangoronConfig {
            basic_window: 1,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = DangoronConfig {
            threads: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let mut c = DangoronConfig {
            bound: BoundMode::PaperJump { slack: -0.1 },
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c.bound = BoundMode::PaperJump { slack: f64::NAN };
        assert!(c.validate().is_err());

        let c = DangoronConfig {
            horizontal: Some(HorizontalConfig {
                n_pivots: 0,
                strategy: PivotStrategy::Evenly,
            }),
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = DangoronConfig {
            horizontal: Some(HorizontalConfig {
                n_pivots: 1,
                strategy: PivotStrategy::Explicit(vec![]),
            }),
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn exhaustive_mode_is_valid() {
        let c = DangoronConfig {
            bound: BoundMode::Exhaustive,
            ..Default::default()
        };
        assert!(c.validate().is_ok());
    }
}
