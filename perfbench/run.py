#!/usr/bin/env python3
"""Runs one serve-bench measurement from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark package (perfbench/Cargo.toml, which links the
repository's crates from source), writes the workload's binary container
from the seed, measures the workload over it, and prints the result as the
last line of standard output: one JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1). Build output and logs go
to standard error. Exits non-zero without printing a result when the build,
the input generation or the measurement fails.

Build output goes to $CARGO_TARGET_DIR (default: .bench_build), relative to
the checkout root; the container is written to a temporary directory inside
it and removed afterwards.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 150


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("serve-bench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "serve-bench")
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    data = tempfile.mkdtemp(prefix="serve-bench-", dir=target)
    try:
        container = os.path.join(data, "graph.cfb")
        gen = subprocess.run(
            [binary, "gen", *common, "--out", container],
            cwd=ROOT,
            stdout=sys.stderr,
            timeout=RUN_TIMEOUT_S,
        )
        if gen.returncode != 0:
            return 1
        run = subprocess.run(
            [binary, "run", *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--container", container],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
        lines = run.stdout.splitlines()
        if run.returncode != 0 or not lines:
            return 1
        print(lines[-1], flush=True)
        return 0
    finally:
        shutil.rmtree(data, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
