#!/usr/bin/env python3
"""Build the layered benchmark from source and run one workload.

Run from the root of a checkout:

    python3 bench/suite/run.py --workload sim-fig6 --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ (release profile, dune cache off, so
nothing is written outside the checkout); the executable's standard
output is passed through, its last line being the JSON result.  Exits
non-zero without a result when the checkout cannot be built.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "bench", "suite", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"bench/suite/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("run from the root of a full checkout (no dune-project or lib/ here)")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = dune_command() + [
        "build", "--root", ".", "--profile", "release",
        "--build-dir", BUILD_DIR, "bench/suite/main.exe",
    ]
    try:
        subprocess.run(build, env=env, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--scenarios", "scenarios",
    ]
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
