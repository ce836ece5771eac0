#!/usr/bin/env python3
"""Builds the end-to-end HQL benchmark from source and runs one workload.

    python3 bench_e2e/run.py --workload churn --seed 1 --seconds 15 --trace 0

Run from the repository root. The engine (src/) and the benchmark runner
(bench_e2e/*.cc) are built with CMake into $CARGO_TARGET_DIR/bench_e2e
(default .bench_build/bench_e2e), an optimized RelWithDebInfo build, the
repository's default build type. Build output goes to stderr; the runner's
report and its closing JSON line go to stdout. Any other arguments
(--scale toy) are passed to the runner unchanged.

Exits non-zero without printing a result when the build fails, e.g. when
the engine sources are missing.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "bench_e2e")


def build(out_dir):
    if shutil.which("cmake") is None:
        print("bench_e2e: cmake not found", file=sys.stderr)
        return False
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") is not None:
        configure += ["-G", "Ninja"]
    # One build at a time per build directory.
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", out_dir, "-j", jobs,
                  "--target", "bench_e2e"]]
        # Configure once; later builds re-run it themselves when a
        # CMakeLists.txt changes.
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.insert(0, configure)
        for cmd in steps:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr)
            if done.returncode != 0:
                print("bench_e2e: build failed: " + " ".join(cmd),
                      file=sys.stderr)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    out_dir = build_dir()
    if not build(out_dir):
        return 1
    cmd = [os.path.join(out_dir, "bench_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace] + extra
    sys.stdout.flush()
    child = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("bench_e2e: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
