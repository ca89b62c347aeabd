#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload named in BENCHMARK.json for a short time, untraced and
traced, and checks the result line: every metric BENCHMARK.json names is
printed with its unit and a finite value, the run reports correct, and no
operation failed (ok_frac is 1, i.e. fail_frac is 0).

Usage, from the root of a checkout:  python3 dopebench/smoke_test.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SECONDS = "2"


def check_run(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"attempted {result.get('attempted')} "
                        f"failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in expected):
        problems.append(f"metric names differ: {sorted(metrics)}")
    for spec in expected:
        got = metrics.get(spec["name"])
        if got is None:
            continue
        if got.get("unit") != spec["unit"]:
            problems.append(f"{spec['name']}: unit {got.get('unit')}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{spec['name']}: value {value}")
    if trace == 0 and metrics.get("ok_frac", {}).get("value") != 1:
        problems.append("ok_frac is not 1")
    return problems


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            problems = check_run(workload, trace, expected)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} --trace {trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
