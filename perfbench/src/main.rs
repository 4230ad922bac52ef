//! The repository benchmark.
//!
//! ```text
//! perfbench --workload batch_climate|serve_daily|shard_batch
//!           [--seed N] [--seconds S] [--trace 0|1]
//!           [--scale full|tiny] [--bin-dir DIR]
//! ```
//!
//! Each run builds its inputs from the seed, measures for `--seconds`,
//! checks every answer, and prints one JSON line last:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, each layer timed from outside through its public
//! functions (or read from the daemon's `obs` registry). A layer a
//! workload never enters reports 0. `--bin-dir` holds the
//! `dangoron-serve` and `dangoron-shard` binaries (default: next to this
//! executable). The process exits 3 when a correctness gate missed and
//! 1 when the run could not complete.

mod batch;
mod common;
mod report;
mod served;
mod shard;

use report::{median, Outcome};
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics: every untraced run reports all of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("recall", "ratio"),
    ("resident_mb", "MiB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics: every traced run reports all of them.
const PER_LAYER: &[(&str, &str)] = &[
    ("host.nproc", "count"),
    ("host.par2_efficiency", "ratio"),
    ("sketch.store_build_ms", "ms"),
    ("sketch.pair_build_ms", "ms"),
    ("core.cost_prefix_ms", "ms"),
    ("core.pivot_build_ms", "ms"),
    ("core.walk_ms", "ms"),
    ("core.walk_1t_ms", "ms"),
    ("core.evaluated", "count"),
    ("core.skip_fraction", "ratio"),
    ("core.jumps", "count"),
    ("core.pruned_by_triangle", "count"),
    ("core.edge_yield", "ratio"),
    ("exec.steal_attempts", "count"),
    ("exec.chunks", "count"),
    ("serve.append_service_ms", "ms"),
    ("serve.query_service_ms", "ms"),
    ("serve.codec_ms", "ms"),
    ("serve.query_codec_ms", "ms"),
    ("serve.frame_bytes", "bytes"),
    ("serve.query_frame_bytes", "bytes"),
    ("serve.ping_rtt_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.query_wait_ms", "ms"),
    ("dist.load_bytes", "bytes"),
    ("dist.assign_bytes", "bytes"),
    ("dist.load_codec_ms", "ms"),
    ("dist.worker_prepare_ms_max", "ms"),
    ("dist.worker_query_ms_max", "ms"),
    ("dist.coord_overhead_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_ms", "ms"),
];

/// One run's command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: common::Scale,
    /// Where the `dangoron-serve` and `dangoron-shard` binaries are.
    pub bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 2020,
        seconds: 10.0,
        trace: false,
        scale: common::Scale::full(),
        bin_dir: std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(PathBuf::from))
            .unwrap_or_default(),
    };
    let mut k = 0;
    while k < argv.len() {
        let value = argv
            .get(k + 1)
            .ok_or_else(|| format!("{} requires a value", argv[k]))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {} {value}: {e}", argv[k]);
        match argv[k].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => common::Scale::full(),
                    "tiny" => common::Scale::tiny(),
                    _ => return Err(bad(&"expected full or tiny")),
                }
            }
            "--bin-dir" => args.bin_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
        k += 2;
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A spin loop with no memory traffic: the host's raw compute.
fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iters {
        x = (x.rotate_left(5) ^ i).wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    std::hint::black_box(x)
}

/// Two-thread efficiency of a trivially parallel loop: the time one
/// thread needs for one loop over the time two threads need for one loop
/// each (1.0 = the host really gives two cores).
fn par2_efficiency() -> f64 {
    let iters = 40_000_000;
    let mut eff = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        spin(iters);
        let one = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::thread::scope(|s| {
            let a = s.spawn(|| spin(iters));
            spin(iters);
            let _ = a.join();
        });
        eff.push(one / t.elapsed().as_secs_f64());
    }
    median(&eff)
}

fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let bypassed: &[&str] = match args.workload.as_str() {
        "batch_climate" => {
            batch::run(args, out)?;
            &["serve.", "dist."]
        }
        "serve_daily" => {
            served::run(args, out)?;
            &["dist."]
        }
        "shard_batch" => {
            shard::run(args, out)?;
            &["serve."]
        }
        other => {
            return Err(format!(
                "unknown workload {other:?} (batch_climate, serve_daily, shard_batch)"
            ))
        }
    };
    let catalog = if args.trace {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        out.metric("host.nproc", nproc as f64, "count");
        out.metric("host.par2_efficiency", par2_efficiency(), "ratio");
        out.notes.push(format!(
            "host: nproc={nproc} kernel backend={}",
            kernel::active_backend()
        ));
        PER_LAYER
    } else {
        let rate = out.success_rate();
        out.metric("success_rate", rate, "ratio");
        END_TO_END
    };
    // Layers the workload never enters report zero; any other gap is a
    // bug in this program.
    let mut ordered = Vec::with_capacity(catalog.len());
    for &(name, unit) in catalog {
        match out.metrics.iter().position(|m| m.name == name) {
            Some(k) if out.metrics[k].unit == unit => ordered.push(out.metrics.swap_remove(k)),
            Some(_) => return Err(format!("metric {name} reported in the wrong unit")),
            None if bypassed.iter().any(|p| name.starts_with(p)) => ordered.push(report::Metric {
                name,
                value: 0.0,
                unit,
            }),
            None => return Err(format!("workload did not report {name}")),
        }
    }
    if let Some(extra) = out.metrics.first() {
        return Err(format!("metric {} is not in the catalog", extra.name));
    }
    out.metrics = ordered;
    if out.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    if let Err(e) = run(&args, &mut out) {
        for n in &out.notes {
            eprintln!("{n}");
        }
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
    for n in &out.notes {
        println!("{n}");
    }
    for m in &out.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.to_json());
    if out.failed > 0 {
        std::process::exit(3);
    }
}
