#!/usr/bin/env python3
"""Builds the planning-server benchmark from source and runs one workload.

    python3 planbench/run.py --workload cold|warm|churn --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/planbench (default .bench_build/planbench); the traced
run's Chrome trace and self-time table land in its out/ directory. The
last line of standard output is the result object; build output goes to
standard error. See README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    jobs = str(os.cpu_count() or 1)
    compile_ = ["cmake", "--build", build_dir, "--target", "planbench",
                "-j", jobs]
    for cmd in (configure, compile_):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("planbench: build step failed:", " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold", "warm", "churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "planbench")
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "planbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(build_dir, "out"),
           "--data", os.path.join(build_dir, "data")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("planbench: run exceeded", RUN_TIMEOUT_S, "seconds")
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
