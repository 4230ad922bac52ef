//! `shard_batch`: the `batch_climate` data and query through the shard
//! coordinator — 4 shards over 2 spawned `dangoron-shard` processes on
//! stdio pipes, timed from the `dist::coord::run` call to the merged
//! result.

use crate::batch::THREADS;
use crate::common::{self, engine_config, paper_jump};
use crate::report::{median, ms_since, n_edges, quantile, Outcome};
use crate::Args;
use dangoron::{BoundMode, Dangoron, PruningStats};
use dist::coord::{self, CoordinatorConfig, DistResult};
use dist::merge::windows_bit_identical;
use dist::plan::ShardPlan;
use dist::proto::WorkerMode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const WORKERS: usize = 2;

/// Worker-side wall milliseconds of one coordinator run.
struct RunShape {
    coord_ms: f64,
    prepare_max_ms: f64,
    query_max_ms: f64,
    /// The busiest worker's prepare+query, estimated from the shard
    /// summaries (shards carry no worker identity): the larger of the
    /// longest shard and an even split of all shard work.
    critical_ms: f64,
    load_bytes: u64,
    assign_bytes: u64,
}

impl RunShape {
    fn of(r: &DistResult, coord_ms: f64) -> Self {
        let ms = |s: f64| s * 1e3;
        let work: Vec<f64> = r
            .shards
            .iter()
            .map(|s| ms(s.prepare_s + s.query_s))
            .collect();
        let longest = work.iter().copied().fold(0.0, f64::max);
        let even = crate::report::total(&work) / WORKERS as f64;
        Self {
            coord_ms,
            prepare_max_ms: r.shards.iter().map(|s| ms(s.prepare_s)).fold(0.0, f64::max),
            query_max_ms: r.shards.iter().map(|s| ms(s.query_s)).fold(0.0, f64::max),
            critical_ms: longest.max(even),
            load_bytes: r.coord.load_bytes,
            assign_bytes: r.coord.assign_bytes,
        }
    }
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let (scale, seed, seconds, trace) = (&args.scale, args.seed, args.seconds, args.trace);
    let worker = args
        .bin_dir
        .join(format!("dangoron-shard{}", std::env::consts::EXE_SUFFIX));
    if !worker.is_file() {
        return Err(format!("worker binary {} not found", worker.display()));
    }
    let (inputs, setup) = common::batch_inputs(scale, seed)?;
    let err = |e: tsdata::TsError| e.to_string();
    let engine_cfg = engine_config(1, paper_jump());
    let mut ccfg = CoordinatorConfig::new(worker, SHARDS);
    ccfg.n_workers = WORKERS;
    ccfg.worker_threads = 1;

    // Per input: the unsharded reference and the exact edge count for
    // recall. The shard plan's resident bytes (what the workers hold
    // between them) depend only on the input's shape.
    let exhaustive = Dangoron::new(engine_config(THREADS, BoundMode::Exhaustive)).map_err(err)?;
    let (mut found, mut exact_edges) = (0, 0);
    let mut insts = Vec::with_capacity(inputs.len());
    for w in inputs {
        let reference = coord::run_single_process(
            WorkerMode::Batch,
            &engine_config(THREADS, paper_jump()),
            &w.data,
            w.query,
        )
        .map_err(|e| e.to_string())?;
        found += n_edges(&reference.matrices);
        exact_edges += n_edges(&exhaustive.execute(&w.data, w.query).map_err(err)?.matrices);
        insts.push((w, reference));
    }
    let recall = found as f64 / exact_edges.max(1) as f64;
    let (x0, q0) = (&insts[0].0.data, insts[0].0.query);
    let sharded = Dangoron::new(engine_config(1, paper_jump())).map_err(err)?;
    let mut resident = 0usize;
    for s in ShardPlan::balanced(x0.n_series(), SHARDS).shards() {
        resident += sharded
            .prepare_shard(x0, q0, s.ranks.clone())
            .map_err(err)?
            .memory_bytes();
    }

    // One unmeasured run spawns the workers once, so the binary is paged
    // in before timing starts.
    let warm = coord::run(&ccfg, &engine_cfg, x0, q0);
    check(out, warm.as_ref().ok(), &insts[0].1);

    let mut shapes = Vec::new();
    let mut traced_ms = Vec::new();
    let mut stats = PruningStats::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while shapes.len() < insts.len() || Instant::now() < deadline {
        let k = shapes.len() % insts.len();
        let ((w, reference), first_pass) = (&insts[k], shapes.len() < insts.len());
        let t = Instant::now();
        let r = coord::run(&ccfg, &engine_cfg, &w.data, w.query);
        let coord_ms = ms_since(t);
        let r = out.count(r, "coordinator run");
        check(out, r.as_ref(), reference);
        if let Some(r) = &r {
            shapes.push(RunShape::of(r, coord_ms));
            if first_pass {
                stats.merge(&r.stats);
            }
        }
        if trace {
            // The traced run hands the coordinator a registry and reads it
            // back (the counters `CoordStats` snapshots).
            let registry = Arc::new(obs::Registry::new());
            let mut traced = ccfg.clone();
            traced.registry = Some(Arc::clone(&registry));
            let t = Instant::now();
            let r = coord::run(&traced, &engine_cfg, &w.data, w.query);
            std::hint::black_box(registry.snapshot());
            traced_ms.push(ms_since(t));
            let r = out.count(r, "traced coordinator run");
            check(out, r.as_ref(), reference);
        }
    }
    let col = |f: fn(&RunShape) -> f64| shapes.iter().map(f).collect::<Vec<f64>>();
    let coord_ms = col(|s| s.coord_ms);
    let query_ms = col(|s| s.query_max_ms);
    out.notes.push(format!(
        "shard_batch: {} coordinator runs, {SHARDS} shards on {WORKERS} workers, recall={recall:.4}",
        shapes.len()
    ));
    if !trace {
        out.metric("setup_s", median(&setup), "s");
        out.metric("op_p50_ms", median(&coord_ms), "ms");
        out.metric("op_p90_ms", quantile(&coord_ms, 0.9), "ms");
        out.metric("query_p50_ms", median(&query_ms), "ms");
        out.metric("query_p90_ms", quantile(&query_ms, 0.9), "ms");
        out.metric("recall", recall, "ratio");
        out.metric("resident_mb", resident as f64 / (1 << 20) as f64, "MiB");
        return Ok(());
    }

    // The engine layers of the same data in this process, as in
    // `batch_climate`, and the Load frame's codec.
    let engine = Dangoron::new(engine_config(THREADS, paper_jump())).map_err(err)?;
    let engine_1t = Dangoron::new(engine_config(1, paper_jump())).map_err(err)?;
    let (mut layers, mut walk, mut walk_1t, mut steals, mut chunks, mut codec) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    for (w, _) in &insts {
        let (x, query) = (&w.data, w.query);
        layers.push(common::prepare_layers(x, &query, THREADS)?);
        let prep = engine.prepare(x, query).map_err(err)?;
        let (s0, c0) = common::exec_counters();
        let t = Instant::now();
        std::hint::black_box(engine.run(&prep));
        walk.push(ms_since(t));
        let (s1, c1) = common::exec_counters();
        steals.push((s1 - s0) as f64);
        chunks.push((c1 - c0) as f64);
        let t = Instant::now();
        std::hint::black_box(engine_1t.run(&prep));
        walk_1t.push(ms_since(t));
        let t = Instant::now();
        let frame = dist::proto::encode_load(x);
        let back = dist::proto::decode(&frame);
        codec.push(ms_since(t));
        out.check(
            matches!(back, Ok(dist::proto::Message::Load(ref m)) if m == x),
            "Load frame does not round-trip",
        );
    }
    let pick =
        |f: fn(&common::PrepareLayers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    out.metric("sketch.store_build_ms", pick(|l| l.store_ms), "ms");
    out.metric("sketch.pair_build_ms", pick(|l| l.pair_ms), "ms");
    out.metric("core.cost_prefix_ms", pick(|l| l.cost_ms), "ms");
    out.metric("core.pivot_build_ms", pick(|l| l.pivot_ms), "ms");
    out.metric("core.walk_ms", median(&walk), "ms");
    out.metric("core.walk_1t_ms", median(&walk_1t), "ms");
    common::pruning_metrics(out, &stats, insts.len());
    out.metric("exec.steal_attempts", median(&steals), "count");
    out.metric("exec.chunks", median(&chunks), "count");
    out.metric(
        "dist.load_bytes",
        median(&col(|s| s.load_bytes as f64)),
        "bytes",
    );
    out.metric(
        "dist.assign_bytes",
        median(&col(|s| s.assign_bytes as f64)),
        "bytes",
    );
    let load_codec = median(&codec);
    out.metric("dist.load_codec_ms", load_codec, "ms");
    out.metric(
        "dist.worker_prepare_ms_max",
        median(&col(|s| s.prepare_max_ms)),
        "ms",
    );
    out.metric("dist.worker_query_ms_max", median(&query_ms), "ms");
    let overhead = median(&col(|s| s.coord_ms - s.critical_ms));
    out.metric("dist.coord_overhead_ms", overhead, "ms");
    out.metric("unattributed_ms", overhead - load_codec, "ms");
    out.metric(
        "trace_overhead_ms",
        median(&traced_ms) - median(&coord_ms),
        "ms",
    );
    Ok(())
}

/// Gate: the merged result is bit-identical to the single process's.
fn check(out: &mut Outcome, r: Option<&DistResult>, reference: &DistResult) {
    let ok = r.is_some_and(|r| windows_bit_identical(&r.matrices, &reference.matrices));
    out.check(
        ok,
        "merged result differs from the single-process reference",
    );
}
