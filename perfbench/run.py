#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload batch_climate --seed 2020 --seconds 15 --trace 0

It builds the `dangoron-serve` and `dangoron-shard` binaries from the main
workspace and the `perfbench` package beside them (release profile, into
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs `perfbench` with
the given arguments. Build output goes to standard error; the last line of
standard output is the benchmark's JSON result. The exit code is the
benchmark's (non-zero when the build fails or a correctness gate misses).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target_dir):
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    steps = [
        cargo + ["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
                 "-p", "serve", "--bin", "dangoron-serve",
                 "-p", "dist", "--bin", "dangoron-shard"],
        cargo + ["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build(target_dir)
    bin_dir = os.path.join(target_dir, "release")
    exe = os.path.join(bin_dir, "perfbench")
    done = subprocess.run([exe, "--bin-dir", bin_dir] + sys.argv[1:], cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
