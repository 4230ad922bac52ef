//! What the workloads share: the engine configuration, input generation,
//! and the layer-by-layer replay of `Dangoron::prepare`.

use crate::report::ms_since;
use dangoron::config::HorizontalConfig;
use dangoron::pivot::{select_pivots, PivotSet};
use dangoron::walker::pair_costs;
use dangoron::{BoundMode, DangoronConfig, PairStorage, PivotStrategy};
use eval::workloads::{self, Workload};
use sketch::output::EdgeRule;
use sketch::{pair, triangular, BasicWindowLayout, SketchStore, SlidingQuery};
use std::time::Instant;
use tsdata::TimeSeriesMatrix;

/// Threshold β of every workload's session/batch query.
pub const BETA: f64 = 0.9;
/// Basic-window width (one day of hourly samples).
pub const BASIC: usize = 24;

/// Input sizes. `full` is what the benchmark measures; `tiny` keeps the
/// same code paths at a size the smoke test can afford.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Series in `batch_climate` and `shard_batch`.
    pub batch_n: usize,
    /// Hours in `batch_climate` and `shard_batch`.
    pub batch_hours: usize,
    /// Series in the `serve_daily` session.
    pub serve_n: usize,
    /// Daily appends per `serve_daily` session cycle.
    pub serve_days: usize,
}

impl Scale {
    pub fn full() -> Self {
        Self {
            batch_n: 128,
            batch_hours: 8760,
            serve_n: 128,
            serve_days: 152,
        }
    }

    pub fn tiny() -> Self {
        Self {
            batch_n: 16,
            batch_hours: 24 * 60,
            serve_n: 8,
            serve_days: 12,
        }
    }
}

/// The benchmark's engine: the paper's jump bound with no slack,
/// precomputed pair sketches, two evenly spaced pivots, `c ≥ β` edges.
pub fn engine_config(threads: usize, bound: BoundMode) -> DangoronConfig {
    DangoronConfig {
        basic_window: BASIC,
        bound,
        storage: PairStorage::Precomputed,
        horizontal: Some(HorizontalConfig {
            n_pivots: 2,
            strategy: PivotStrategy::Evenly,
        }),
        threads,
        edge_rule: EdgeRule::Positive,
    }
}

/// The paper's jump bound as configured by the benchmark.
pub fn paper_jump() -> BoundMode {
    BoundMode::PaperJump { slack: 0.0 }
}

/// `eval`'s climate workload (30-day windows sliding one day).
pub fn climate(n: usize, hours: usize, seed: u64) -> Result<Workload, String> {
    workloads::climate(n, hours, BETA, seed).map_err(|e| format!("climate workload: {e}"))
}

/// Independent inputs per batch run. How much pruning fires depends on
/// the generated correlation structure, so one dataset per run would
/// make the figures follow the seed; the run's timings pool all of them.
pub const INSTANCES: usize = 8;

/// The seed of a run's `k`-th input: `seed` itself for `k = 0`.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(1_000_000_007))
}

/// The batch inputs of a run: instance 0 is `climate(seed)` itself, the
/// others use seeds derived from it. Also returns each instance's
/// generation time in seconds (the set-up samples).
pub fn batch_inputs(scale: &Scale, seed: u64) -> Result<(Vec<Workload>, Vec<f64>), String> {
    let mut inputs = Vec::with_capacity(INSTANCES);
    let mut secs = Vec::with_capacity(INSTANCES);
    for k in 0..INSTANCES as u64 {
        let t = Instant::now();
        inputs.push(climate(
            scale.batch_n,
            scale.batch_hours,
            sub_seed(seed, k),
        )?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((inputs, secs))
}

/// Runs `f` `reps` times and returns the last value with the wall
/// seconds of every repetition (set-up is timed this way so its median is
/// stable).
pub fn repeat_timed<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let v = f()?;
        secs.push(t.elapsed().as_secs_f64());
        // The previous value is dropped outside the timed region.
        last = Some(v);
    }
    last.map(|v| (v, secs))
        .ok_or_else(|| "no set-up repetition ran".to_string())
}

/// Wall milliseconds of each stage of `Dangoron::prepare` over the full
/// triangle, replayed stage by stage through the public functions the
/// engine calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrepareLayers {
    pub store_ms: f64,
    pub pair_ms: f64,
    pub cost_ms: f64,
    pub pivot_ms: f64,
}

/// Replays `Dangoron::prepare`'s stages (sketch store, pair sketches,
/// Eq. 2 cost prefixes, pivot table) with the same thread count and
/// grain, timing each.
pub fn prepare_layers(
    x: &TimeSeriesMatrix,
    query: &SlidingQuery,
    threads: usize,
) -> Result<PrepareLayers, String> {
    let err = |e: tsdata::TsError| e.to_string();
    let n = x.n_series();
    let layout = BasicWindowLayout::for_query(query, BASIC).map_err(err)?;

    let t = Instant::now();
    let store = SketchStore::build_with_threads(x, layout, threads).map_err(err)?;
    let store_ms = ms_since(t);

    let t = Instant::now();
    let pairs = pair::build_all(&layout, x, threads).map_err(err)?;
    let pair_ms = ms_since(t);

    let t = Instant::now();
    let costs = exec::par_collect_chunks(pairs.len(), threads, 16, |range| {
        range
            .map(|k| {
                let (i, j) = triangular::unrank(k, n);
                pair_costs(&store, &pairs[k], i, j, EdgeRule::Positive)
            })
            .collect::<Vec<_>>()
    });
    let cost_ms = ms_since(t);
    std::hint::black_box(&costs);

    let t = Instant::now();
    let chosen = select_pivots(&PivotStrategy::Evenly, 2, n).map_err(err)?;
    let pivots =
        PivotSet::build(x, &store, &layout, query, chosen, Some(&pairs), threads).map_err(err)?;
    let pivot_ms = ms_since(t);
    std::hint::black_box(&pivots);

    Ok(PrepareLayers {
        store_ms,
        pair_ms,
        cost_ms,
        pivot_ms,
    })
}

/// Cumulative executor telemetry from this process's `obs` registry:
/// `(steal attempts, chunks executed)`.
pub fn exec_counters() -> (u64, u64) {
    (
        obs::stages::exec_steal_counter().get(),
        obs::stages::exec_chunk_hist().count(),
    )
}

/// The pruning counters the traced runs report, `s` summed over `runs`
/// queries (counts are reported per query).
pub fn pruning_metrics(out: &mut crate::report::Outcome, s: &dangoron::PruningStats, runs: usize) {
    let per = |v: u64| v as f64 / runs.max(1) as f64;
    out.metric("core.evaluated", per(s.evaluated), "count");
    out.metric("core.skip_fraction", s.skip_fraction(), "ratio");
    out.metric("core.jumps", per(s.jumps), "count");
    out.metric(
        "core.pruned_by_triangle",
        per(s.pruned_by_triangle),
        "count",
    );
    let yield_ = if s.evaluated == 0 {
        0.0
    } else {
        s.edges as f64 / s.evaluated as f64
    };
    out.metric("core.edge_yield", yield_, "ratio");
}
