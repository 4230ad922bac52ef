//! Runs every workload end to end at the tiny scale, untraced and traced,
//! and fails on a correctness-gate miss or on a printed metric that
//! `BENCHMARK.json` does not declare in the matching section.
//!
//! The daemon and worker binaries are built from the main workspace into
//! this test's target directory first.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["batch_climate", "serve_daily", "shard_batch"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

/// Builds `dangoron-serve` and `dangoron-shard` next to the test's own
/// build and returns their directory.
fn worker_bins() -> PathBuf {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("binary lives in <target>/<profile>/");
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(repo_root().join("Cargo.toml"))
        .args(["-p", "serve", "--bin", "dangoron-serve"])
        .args(["-p", "dist", "--bin", "dangoron-shard"])
        .env("CARGO_TARGET_DIR", target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building the workspace binaries failed");
    target.join("release")
}

/// Every `"name"` value inside the `section` array of BENCHMARK.json.
fn declared(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let end = body.find(']').expect("section array is closed");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1).map(str::to_string))
        .collect()
}

/// Metric names in the benchmark's JSON result line.
fn printed(line: &str) -> Vec<String> {
    let metrics = line
        .split_once("\"metrics\": {")
        .map(|(_, m)| m)
        .expect("result line has metrics");
    // Each chunk before a `{"value"` ends with that metric's quoted name.
    let chunks: Vec<&str> = metrics.split("{\"value\"").collect();
    chunks[..chunks.len() - 1]
        .iter()
        .filter_map(|chunk| chunk.rsplit('"').nth(1).map(str::to_string))
        .collect()
}

#[test]
fn every_workload_runs_clean_and_prints_declared_metrics() {
    let json =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let bins = worker_bins();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut want = declared(&json, section);
        want.sort();
        for workload in WORKLOADS {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--scale", "tiny", "--bin-dir"])
                .arg(&bins)
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.contains("\"correct\": true") && last.contains("\"failed\": 0,"),
                "{workload} --trace {trace}: gate miss:\n{stdout}"
            );
            let mut got = printed(last);
            for name in &got {
                assert!(
                    want.contains(name),
                    "{workload} printed {name}, which BENCHMARK.json does not declare in {section}"
                );
            }
            got.sort();
            assert_eq!(got, want, "{workload} --trace {trace} metric set");
        }
    }
}
