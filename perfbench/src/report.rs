//! Sample summaries and the one-line JSON result the benchmark prints.

use sketch::output::Edge;
use sketch::ThresholdedMatrix;
use std::time::Instant;

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Sum of `xs` through the workspace's reduction kernel.
pub fn total(xs: &[f64]) -> f64 {
    kernel::sum(xs)
}

/// Every edge of `a` is present in `b` with the same bit pattern.
/// Both windows' edge lists are sorted by `(i, j)`.
pub fn edges_subset_bitwise(a: &[Edge], b: &[Edge]) -> bool {
    let mut k = 0;
    for e in a {
        while k < b.len() && (b[k].i, b[k].j) < (e.i, e.j) {
            k += 1;
        }
        match b.get(k) {
            Some(f) if (f.i, f.j) == (e.i, e.j) && f.value.to_bits() == e.value.to_bits() => {}
            _ => return false,
        }
    }
    true
}

/// Total edges across a window list.
pub fn n_edges(ms: &[ThresholdedMatrix]) -> usize {
    ms.iter().map(|m| m.n_edges()).sum()
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (timed operations plus gate checks).
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// Human-readable notes printed before the JSON line.
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("gate miss: {what}"));
        }
    }

    /// Counts one attempted operation and its outcome; errors are noted.
    pub fn count<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.notes.push(format!("{what} failed: {e}"));
                None
            }
        }
    }

    /// Share of attempted operations that succeeded and answered right.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn subset_is_bitwise() {
        let e = |i, j, v| Edge { i, j, value: v };
        let b = [e(0, 1, 0.5), e(0, 2, 0.7), e(1, 2, 0.9)];
        assert!(edges_subset_bitwise(&[e(0, 2, 0.7)], &b));
        assert!(!edges_subset_bitwise(&[e(0, 2, 0.7000000001)], &b));
        assert!(!edges_subset_bitwise(&[e(0, 3, 0.7)], &b));
    }
}
