#!/usr/bin/env python3
"""Builds csm_bench from this checkout and runs it.

    python3 bench/suite/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/suite/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The build goes to .bench_build/ (configured
and rebuilt incrementally on every call); build output goes to stderr so
the last stdout line stays csm_bench's JSON result. --all runs every
workload in BENCHMARK.json, one process each, and fails if any fails.
Any other flag (--trace-out FILE, --ops N, ...) is passed to csm_bench.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "csm_bench")
JOBS = str(min(os.cpu_count() or 1, 4))


def build():
    steps = [["cmake", "-S", os.path.join(ROOT, "bench", "suite"), "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "csm_bench", "-j", JOBS]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def run_one(workload, args, extra):
    scratch = os.path.join(BUILD, "scratch", workload)
    os.makedirs(scratch, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch", scratch]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    env = dict(os.environ, TMPDIR=scratch)
    return subprocess.run(command + extra, env=env).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload W and --all")
    if not build():
        print("csm_bench: build failed", file=sys.stderr)
        return 1
    if args.workload is not None:
        return run_one(args.workload, args, extra)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failures = [w for w in workloads if run_one(w, args, extra) != 0]
    if failures:
        print("csm_bench: failed: " + " ".join(failures), file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
