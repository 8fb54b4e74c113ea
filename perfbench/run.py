#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload hot_hits --seed 1 --seconds 10 --trace 0

The benchmark is built in release mode into $CARGO_TARGET_DIR (default
.bench_build). Build output goes to standard error; the benchmark's own
output, whose last line is the JSON result, goes to standard output. A
traced run (--trace 1) also writes its spans to
<target dir>/perfbench-trace-<workload>-<seed>.csv. A failed build exits
non-zero without printing a result.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def commit() -> str:
    """The checked-out commit, when the tree is a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=HERE,
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(HERE / "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = target / "release" / "lec-perfbench"
    trace_out = target / f"perfbench-trace-{args.workload}-{args.seed}.csv"
    run = subprocess.run(
        [
            str(exe),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--trace-out", str(trace_out),
            "--commit", commit(),
        ],
        env=env,
        check=False,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
