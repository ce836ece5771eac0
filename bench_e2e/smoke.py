#!/usr/bin/env python3
"""Toy-size smoke run of every benchmark workload.

    python3 bench_e2e/smoke.py

Run from the repository root. For each workload in BENCHMARK.json, runs
bench_e2e/run.py at toy scale (a few hundred tuples, three stream cycles)
untraced and traced, and checks that the run passes its correctness oracle
and digest check with no failed statement, and that it emits exactly the
metric names and units BENCHMARK.json declares (end_to_end untraced,
per_layer traced). Exits 1 on the first problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in spec["workloads"]:
        for trace in ("0", "1"):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload["name"], "--seed", "7",
                   "--seconds", "1", "--trace", trace, "--scale", "toy"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=900)
            label = "%s trace=%s" % (workload["name"], trace)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append("%s: exit %d" % (label, done.returncode))
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correct=%s failed=%d" % (
                    label, result["correct"], result["failed"]))
            elif got != expected[trace]:
                problems.append("%s: metrics %s, expected %s" % (
                    label, sorted(got.items()),
                    sorted(expected[trace].items())))
            else:
                print("%s: ok (%d statements)" % (label, result["attempted"]))
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
