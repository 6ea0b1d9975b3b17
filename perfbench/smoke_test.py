#!/usr/bin/env python3
"""Smoke slice of the repository benchmark.

Runs every workload at reduced size, one repeat per draw, untraced
(--trace 0) and traced (--trace 1), and asserts that each run passes its
output checks and prints every metric BENCHMARK.json names for that mode,
finite and with the listed unit. It also checks that perfbench/layers.json
documents exactly the workloads and metrics of BENCHMARK.json.

Run from the root of a checkout: python3 perfbench/smoke_test.py
Exits 0 when everything holds, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(os.path.join(ROOT, path)) as f:
        return json.load(f)


def check_metrics(where, metrics, expected, problems):
    if set(metrics) != set(expected):
        problems.append("%s: metrics %s, expected %s" % (
            where, sorted(metrics), sorted(expected)))
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            continue
        if not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append("%s: %s is not a finite number" % (where, name))
        if got.get("unit") != unit:
            problems.append("%s: %s has unit %r, expected %r" % (
                where, name, got.get("unit"), unit))


def main():
    bench = load("BENCHMARK.json")
    layers = load("perfbench/layers.json")
    problems = []

    workloads = [w["name"] for w in bench["workloads"]]
    modes = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if set(layers["workloads"]) != set(workloads):
        problems.append("layers.json workloads differ from BENCHMARK.json")
    if set(layers["end_to_end"]) != set(modes["0"]):
        problems.append("layers.json end_to_end differs from BENCHMARK.json")
    if set(layers["per_layer"]) != set(modes["1"]):
        problems.append("layers.json per_layer differs from BENCHMARK.json")

    for workload in workloads:
        for trace, expected in modes.items():
            where = "%s --trace %s" % (workload, trace)
            cmd = [sys.executable, os.path.join("perfbench", "run.py"),
                   "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", trace, "--smoke"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                problems.append("%s: exit %d\n%s" % (
                    where, done.returncode, done.stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if result.get("correct") is not True or result.get("failed") != 0 \
                    or result.get("attempted", 0) < 1:
                problems.append("%s: correct=%s attempted=%s failed=%s" % (
                    where, result.get("correct"), result.get("attempted"),
                    result.get("failed")))
            check_metrics(where, result.get("metrics", {}), expected,
                          problems)
            for name, got in report["workload_metrics"].items():
                if not math.isfinite(got["value"]):
                    problems.append("%s: report %s not finite" % (where, name))
            print("%-28s ok=%s metrics=%d" % (
                where, result.get("correct"), len(result.get("metrics", {}))))

    for p in problems:
        print("FAIL: " + p)
    print("smoke slice: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
