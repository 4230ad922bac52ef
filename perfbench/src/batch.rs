//! `batch_climate`: the paper's one-shot — repeated `Dangoron::execute`
//! over several generated years of hourly climate data, plus
//! `Dangoron::run` alone on a retained preparation ("pure query time").

use crate::common::{self, engine_config, paper_jump};
use crate::report::{edges_subset_bitwise, median, ms_since, n_edges, quantile, Outcome};
use crate::Args;
use dangoron::{BoundMode, Dangoron, Prepared, PruningStats, QueryResult};
use dist::merge::windows_bit_identical;
use eval::workloads::Workload;
use sketch::output::{Edge, EdgeRule};
use sketch::{SlidingQuery, ThresholdedMatrix};
use std::time::{Duration, Instant};

/// Engine threads of the batch workloads.
pub const THREADS: usize = 2;
/// Tolerance between the sketch combine and a direct Pearson sum.
const NAIVE_TOL: f64 = 1e-9;

/// One input of the run with its reference answer.
struct Instance {
    w: Workload,
    reference: QueryResult,
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let (scale, seed, seconds, trace) = (&args.scale, args.seed, args.seconds, args.trace);
    let (inputs, setup) = common::batch_inputs(scale, seed)?;
    let err = |e: tsdata::TsError| e.to_string();
    let engine = Dangoron::new(engine_config(THREADS, paper_jump())).map_err(err)?;
    let engine_1t = Dangoron::new(engine_config(1, paper_jump())).map_err(err)?;
    let exhaustive = Dangoron::new(engine_config(THREADS, BoundMode::Exhaustive)).map_err(err)?;

    // Reference answers and gates, outside every timed region. The first
    // execute also warms caches and the allocator.
    let (mut found, mut exact_edges, mut stats) = (0, 0, PruningStats::default());
    let mut insts = Vec::with_capacity(inputs.len());
    for w in inputs {
        let (x, query) = (&w.data, w.query);
        let reference = engine.execute(x, query).map_err(err)?;
        let exact = exhaustive.execute(x, query).map_err(err)?;
        let subset = reference.matrices.len() == exact.matrices.len()
            && reference
                .matrices
                .iter()
                .zip(&exact.matrices)
                .all(|(a, b)| edges_subset_bitwise(a.edges(), b.edges()));
        out.check(
            subset,
            "PaperJump edge differs from its Exhaustive counterpart",
        );
        let n_w = query.n_windows();
        let mut sampled = vec![0, n_w / 2, n_w - 1];
        sampled.dedup();
        for wi in sampled {
            let ok = naive_agrees(x, &query, wi, &exact.matrices[wi])?;
            out.check(
                ok,
                &format!("Exhaustive disagrees with naive Pearson in window {wi}"),
            );
        }
        found += n_edges(&reference.matrices);
        exact_edges += n_edges(&exact.matrices);
        stats.merge(&reference.stats);
        insts.push(Instance { w, reference });
    }
    let recall = found as f64 / exact_edges.max(1) as f64;
    let first = &insts[0].w;
    out.notes.push(format!(
        "batch_climate: {} inputs of n={} hours={} windows={}, recall={recall:.4}",
        insts.len(),
        first.data.n_series(),
        first.data.len(),
        first.query.n_windows(),
    ));

    let mut op_ms = Vec::new();
    let mut query_ms = Vec::new();
    let mut resident = Vec::new();
    let mut layers = Vec::new();
    let mut walk_1t_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut steals = Vec::new();
    let mut chunks = Vec::new();
    let execute = |out: &mut Outcome, inst: &Instance| {
        let t = Instant::now();
        let r = out.count(engine.execute(&inst.w.data, inst.w.query), "execute");
        let ms = ms_since(t);
        let ok = r.is_some_and(|r| windows_bit_identical(&r.matrices, &inst.reference.matrices));
        out.check(ok, "execute answer differs from the reference");
        ms
    };
    let walk = |out: &mut Outcome, e: &Dangoron, prep: &Prepared, inst: &Instance| {
        let t = Instant::now();
        let q = e.run(prep);
        let ms = ms_since(t);
        out.check(
            windows_bit_identical(&q.matrices, &inst.reference.matrices),
            "query answer differs from the reference",
        );
        ms
    };
    let until = |share: f64| Instant::now() + Duration::from_secs_f64(seconds * share);
    if !trace {
        // Half the time executes, round-robin over the inputs; the other
        // half walks each input's preparation repeatedly. The halves
        // alternate in blocks, so both metrics span the whole run.
        const BLOCKS: usize = 4;
        for _ in 0..BLOCKS {
            let deadline = until(0.5 / BLOCKS as f64);
            while op_ms.len() < insts.len() || Instant::now() < deadline {
                op_ms.push(execute(out, &insts[op_ms.len() % insts.len()]));
            }
            for inst in &insts {
                let deadline = until(0.5 / (BLOCKS * insts.len()) as f64);
                let prep = engine.prepare(&inst.w.data, inst.w.query).map_err(err)?;
                resident.push(prep.memory_bytes() as f64 / (1 << 20) as f64);
                query_ms.push(walk(out, &engine, &prep, inst));
                while Instant::now() < deadline {
                    query_ms.push(walk(out, &engine, &prep, inst));
                }
            }
        }
    } else {
        // Each round: an untraced execute, the replay of each prepare
        // stage through its public function, then the walk at 2 threads
        // (with the executor's counters) and at 1 thread.
        let deadline = until(1.0);
        while op_ms.len() < insts.len() || Instant::now() < deadline {
            let inst = &insts[op_ms.len() % insts.len()];
            op_ms.push(execute(out, inst));
            let t = Instant::now();
            layers.push(common::prepare_layers(
                &inst.w.data,
                &inst.w.query,
                THREADS,
            )?);
            let replay_ms = ms_since(t);
            let prep = engine.prepare(&inst.w.data, inst.w.query).map_err(err)?;
            let (s0, c0) = common::exec_counters();
            let ms = walk(out, &engine, &prep, inst);
            let (s1, c1) = common::exec_counters();
            query_ms.push(ms);
            traced_ms.push(replay_ms + ms);
            steals.push((s1 - s0) as f64);
            chunks.push((c1 - c0) as f64);
            walk_1t_ms.push(walk(out, &engine_1t, &prep, inst));
        }
    }
    out.notes.push(format!(
        "batch_climate: {} executes, {} pure queries",
        op_ms.len(),
        query_ms.len()
    ));

    if !trace {
        out.metric("setup_s", median(&setup), "s");
        out.metric("op_p50_ms", median(&op_ms), "ms");
        out.metric("op_p90_ms", quantile(&op_ms, 0.9), "ms");
        out.metric("query_p50_ms", median(&query_ms), "ms");
        out.metric("query_p90_ms", quantile(&query_ms, 0.9), "ms");
        out.metric("recall", recall, "ratio");
        out.metric("resident_mb", median(&resident), "MiB");
        return Ok(());
    }
    let pick =
        |f: fn(&common::PrepareLayers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let (store, pairs, cost, pivot) = (
        pick(|l| l.store_ms),
        pick(|l| l.pair_ms),
        pick(|l| l.cost_ms),
        pick(|l| l.pivot_ms),
    );
    let walk = median(&query_ms);
    let op = median(&op_ms);
    out.metric("sketch.store_build_ms", store, "ms");
    out.metric("sketch.pair_build_ms", pairs, "ms");
    out.metric("core.cost_prefix_ms", cost, "ms");
    out.metric("core.pivot_build_ms", pivot, "ms");
    out.metric("core.walk_ms", walk, "ms");
    out.metric("core.walk_1t_ms", median(&walk_1t_ms), "ms");
    common::pruning_metrics(out, &stats, insts.len());
    out.metric("exec.steal_attempts", median(&steals), "count");
    out.metric("exec.chunks", median(&chunks), "count");
    out.metric(
        "unattributed_ms",
        op - (store + pairs + cost + pivot + walk),
        "ms",
    );
    out.metric("trace_overhead_ms", median(&traced_ms) - op, "ms");
    Ok(())
}

/// Exhaustive's window `wi` against a direct Pearson scan of the same
/// window: equal edge sets up to pairs within the tolerance of β, and
/// equal values within the tolerance.
fn naive_agrees(
    x: &tsdata::TimeSeriesMatrix,
    query: &SlidingQuery,
    wi: usize,
    exact: &ThresholdedMatrix,
) -> Result<bool, String> {
    let (start, end) = query.window_range(wi);
    let one = SlidingQuery {
        start,
        end,
        ..*query
    };
    let naive = baselines::naive::execute_with_rule(x, one, EdgeRule::Positive)
        .map_err(|e| e.to_string())?;
    let Some(naive) = naive.first() else {
        return Ok(false);
    };
    Ok(edges_agree(exact.edges(), naive.edges(), query.threshold))
}

/// Sorted edge lists agree within [`NAIVE_TOL`]; an edge present on one
/// side only must sit within the tolerance of the threshold.
fn edges_agree(a: &[Edge], b: &[Edge], beta: f64) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let ka = a.get(i).map(|e| (e.i, e.j));
        let kb = b.get(j).map(|e| (e.i, e.j));
        match (ka, kb) {
            (Some(p), Some(q)) if p == q => {
                if (a[i].value - b[j].value).abs() > NAIVE_TOL {
                    return false;
                }
                i += 1;
                j += 1;
            }
            (Some(p), q) if q.is_none_or(|q| p < q) => {
                if (a[i].value - beta).abs() > NAIVE_TOL {
                    return false;
                }
                i += 1;
            }
            _ => {
                if (b[j].value - beta).abs() > NAIVE_TOL {
                    return false;
                }
                j += 1;
            }
        }
    }
    true
}
