#!/usr/bin/env python3
"""ctest entry point for csm_bench (registered by CMakeLists.txt beside it).

    smoke_test.py CSM_BENCH BENCHMARK.json             # csm_bench_smoke
    smoke_test.py --negative CSM_BENCH BENCHMARK.json  # negative control

Smoke: every workload at CSM_BENCH_SCALE=0.01 with one op of each kind,
untraced and traced, must exit 0 with a correct result that names exactly
the end-to-end (untraced) or per-layer (traced) metrics of BENCHMARK.json,
each also printed as a "workload metric value unit n=count" line.

Negative control: with --inject-fault one output value of the first timed
op is perturbed; that op must count as failed and the run must exit 1.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile


def run(binary, scratch, workload, trace, *extra):
    env = dict(os.environ, CSM_BENCH_SCALE="0.01", TMPDIR=scratch)
    done = subprocess.run(
        [binary, "--workload", workload, "--ops", "1", "--trace", str(trace),
         "--scratch", scratch, *extra],
        env=env, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done, lines, result


def main():
    args = sys.argv[1:]
    negative = args[0] == "--negative"
    if negative:
        args = args[1:]
    binary, bench_json = args
    with open(bench_json) as f:
        bench = json.load(f)
    metrics = {0: [m["name"] for m in bench["end_to_end"]],
               1: [m["name"] for m in bench["per_layer"]]}
    scratch = tempfile.mkdtemp(prefix="csm_bench_smoke-", dir=os.getcwd())
    errors = []
    try:
        for workload in (w["name"] for w in bench["workloads"]):
            if negative:
                done, _, result = run(binary, scratch, workload, 0,
                                      "--inject-fault")
                if (done.returncode != 1 or result is None or
                        result["correct"] or result["failed"] < 1):
                    errors.append(f"{workload}: perturbed output not caught "
                                  f"(exit {done.returncode}, {result})")
                continue
            for trace in (0, 1):
                done, lines, result = run(binary, scratch, workload, trace)
                where = f"{workload} --trace {trace}"
                if done.returncode != 0 or result is None:
                    errors.append(f"{where}: exit {done.returncode}\n"
                                  f"{done.stderr}")
                    continue
                if not result["correct"] or result["failed"] != 0:
                    errors.append(f"{where}: not correct: {result}")
                if sorted(result["metrics"]) != sorted(metrics[trace]):
                    errors.append(f"{where}: metrics {sorted(result['metrics'])}"
                                  f" != {sorted(metrics[trace])}")
                printed = {line.split()[1] for line in lines[:-1]
                           if line.startswith(workload + " ")}
                missing = set(metrics[trace]) - printed
                if missing:
                    errors.append(f"{where}: lines missing {sorted(missing)}")
        if os.listdir(scratch):
            errors.append(f"files left in scratch: {os.listdir(scratch)}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
