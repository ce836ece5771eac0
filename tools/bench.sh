#!/usr/bin/env bash
# Runs every bench_* binary in a build tree and collects the uniform JSON
# lines (one per benchmark run, emitted by bench_json_main.h) into a single
# summary file.
#
#   tools/bench.sh                       # build/release, out/bench_summary.jsonl
#   tools/bench.sh build/asan-ubsan      # another build tree
#   tools/bench.sh build/release out.jsonl --benchmark_min_time=0.05s
#
# Extra arguments after the summary path are passed to every binary.
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build/release}"
summary="${2:-${build_dir}/bench_summary.jsonl}"
shift $(( $# > 2 ? 2 : $# )) || true

if [ ! -d "${build_dir}/bench" ]; then
  echo "error: ${build_dir}/bench not found (build the '${build_dir##*/}' preset first)" >&2
  exit 1
fi

benches=( "${build_dir}"/bench/bench_* )
if [ ! -e "${benches[0]}" ]; then
  echo "error: no bench_* binaries under ${build_dir}/bench" >&2
  exit 1
fi

mkdir -p "$(dirname "${summary}")"
: > "${summary}"

tmp="$(mktemp)"
trap 'rm -f "${tmp}"' EXIT

for bin in "${benches[@]}"; do
  [ -x "${bin}" ] || continue
  echo "==== $(basename "${bin}") ===="
  # Color off: ANSI escapes from the console table would otherwise prefix
  # the JSON lines and break the extraction below.
  if ! "${bin}" --benchmark_color=false "$@" > "${tmp}" 2>&1; then
    cat "${tmp}"
    echo "error: $(basename "${bin}") failed" >&2
    exit 1
  fi
  cat "${tmp}"
  # Only the JSON lines land in the summary, so downstream tooling never
  # parses the human-readable table. A binary may contribute none (e.g.
  # when --benchmark_filter excludes all of its benchmarks).
  grep -o '{"bench".*}' "${tmp}" >> "${summary}" || true
done

echo "wrote $(wc -l < "${summary}") benchmark results to ${summary}"

baselines=( BENCH_*.json )

# The committed baselines embed the recording host's context. If this
# machine has a different core count, per-op times (especially the
# parallel suites) are not comparable — warn loudly so nobody reads the
# diff below as a regression. num_cpus is extracted with sed, not
# python3, so the warning fires on minimal hosts too.
if [ -e "${baselines[0]}" ]; then
  host_cores=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 0)
  for baseline in "${baselines[@]}"; do
    base_cores=$(sed -n 's/^[[:space:]]*"num_cpus":[[:space:]]*\([0-9]*\).*/\1/p' \
        "${baseline}" | head -n 1)
    [ -n "${base_cores}" ] || continue
    if [ "${host_cores}" != "0" ] && [ "${host_cores}" != "${base_cores}" ]; then
      echo "" >&2
      echo "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!" >&2
      echo "!! WARNING: ${baseline} was recorded on a ${base_cores}-core host," >&2
      echo "!! but this machine has ${host_cores} cores. The baseline diff" >&2
      echo "!! below is NOT comparable — re-record the baseline on this" >&2
      echo "!! hardware before treating any delta as a regression." >&2
      echo "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!" >&2
      echo "" >&2
    fi
  done
fi

# Diff this run against the committed BENCH_<name>.json baselines (native
# google-benchmark JSON, recorded with --benchmark_out). Matching is by
# benchmark name within the corresponding bench_<name> binary; baselines
# recorded on different hardware drift, so this is informational only and
# never fails the run.
if ! command -v python3 >/dev/null 2>&1; then
  echo "python3 not found; skipping baseline diff"
  exit 0
fi
if [ ! -e "${baselines[0]}" ]; then
  echo "no committed BENCH_*.json baselines; skipping baseline diff"
  exit 0
fi
python3 - "${summary}" "${baselines[@]}" <<'PYEOF'
import json, os, sys

summary_path, *baseline_paths = sys.argv[1:]

# name -> ns_per_op from this run's summary lines.
current = {}
with open(summary_path) as f:
    for line in f:
        try:
            run = json.loads(line)
        except json.JSONDecodeError:
            continue
        current[(run.get("bench"), run.get("name"))] = run.get("ns_per_op")

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
for path in baseline_paths:
    # BENCH_parallel.json holds runs of bench_parallel.
    bench = "bench_" + os.path.basename(path)[len("BENCH_"):-len(".json")]
    with open(path) as f:
        baseline = json.load(f)
    rows = []
    for run in baseline.get("benchmarks", []):
        if run.get("run_type", "iteration") == "aggregate":
            continue
        name = run["name"]
        now = current.get((bench, name))
        if now is None:
            continue
        base_ns = run["real_time"] * UNIT_NS.get(run.get("time_unit", "ns"), 1.0)
        delta = 100.0 * (now - base_ns) / base_ns if base_ns else 0.0
        rows.append((name, base_ns, now, delta))
    print(f"==== baseline diff: {path} ({bench}) ====")
    if not rows:
        print("  (no matching benchmarks in this run)")
        continue
    for name, base_ns, now, delta in rows:
        print(f"  {name:<40} {base_ns:>12.0f} ns -> {now:>12.0f} ns  "
              f"({delta:+.1f}%)")
PYEOF

# Perf gate for bench_incremental. Unlike the informational diff above
# this one FAILS the run: (a) any bench_incremental benchmark more than 25%
# slower than the committed BENCH_incremental.json baseline — enforced only
# when this host's core count matches the recording host's, since per-op
# times are not comparable across hardware — and, regardless of hardware,
# from rows measured in THIS run: (b) the mutate-then-get-graph loop
# (BM_MutateThenGetGraph/N, a graph rebuild per iteration) must grow at
# most 25x per decade of tuples, from 10^3 to 10^4 and from 10^4 to 10^5
# (a build proportional to the comparable pairs grows ~10x; the old
# pairwise build grew ~100x); (c) delta-checked guarded writes
# (BM_GuardedMutate/N/1) must be at least 20x faster than the full-check
# arm (/0) at 10^4 tuples, and (d) cost at most 3x as much at 10^4 tuples
# as at 10^3; (e) end to end through HQL, the RETRACT + ASSERT + COUNT loop
# (BM_HqlMutateCountLoop/N) must grow at most 25x from 10^3 to 10^4
# tuples. Each gate applies when its rows are present (a
# --benchmark_filter may select a subset).
if [ -e BENCH_incremental.json ]; then
  inc_cores=$(sed -n 's/^[[:space:]]*"num_cpus":[[:space:]]*\([0-9]*\).*/\1/p' \
      BENCH_incremental.json | head -n 1)
  gate_baseline=0
  if [ -n "${inc_cores}" ] && [ "${host_cores}" = "${inc_cores}" ]; then
    gate_baseline=1
  else
    echo "bench_incremental regression gate: skipped (baseline host has" \
         "${inc_cores:-unknown} cores, this host ${host_cores})"
  fi
  GATE_BASELINE="${gate_baseline}" python3 - "${summary}" \
      BENCH_incremental.json <<'PYEOF'
import json, os, sys

summary_path, baseline_path = sys.argv[1:]
gate_baseline = os.environ.get("GATE_BASELINE") == "1"

current = {}
with open(summary_path) as f:
    for line in f:
        try:
            run = json.loads(line)
        except json.JSONDecodeError:
            continue
        if run.get("bench") == "bench_incremental":
            current[run.get("name")] = run.get("ns_per_op")

failed = False

if gate_baseline:
    UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    with open(baseline_path) as f:
        baseline = json.load(f)
    print("==== bench_incremental regression gate (threshold +25%) ====")
    for run in baseline.get("benchmarks", []):
        if run.get("run_type", "iteration") == "aggregate":
            continue
        name = run["name"]
        now = current.get(name)
        if now is None:
            continue
        base_ns = run["real_time"] * UNIT_NS.get(run.get("time_unit", "ns"), 1.0)
        delta = 100.0 * (now - base_ns) / base_ns if base_ns else 0.0
        verdict = "FAIL" if delta > 25.0 else "ok"
        if delta > 25.0:
            failed = True
        print(f"  {name:<44} {base_ns:>12.0f} ns -> {now:>12.0f} ns  "
              f"({delta:+.1f}%) {verdict}")

def sized(prefix):
    """ns/op of the single-size rows `prefix`/N of this run, keyed by N."""
    out = {}
    for name, ns in current.items():
        parts = name.split("/")
        if parts[0] == prefix and len(parts) == 2 and ns:
            out[int(parts[1])] = ns
    return out

def growth_gate(prefix, lo, hi, limit):
    global failed
    rows = sized(prefix)
    if lo not in rows or hi not in rows:
        return
    growth = rows[hi] / rows[lo]
    print(f"==== {prefix} growth gate: {growth:.1f}x from {lo} to {hi} "
          f"tuples (maximum {limit:g}x) ====")
    if growth > limit:
        failed = True
        print(f"  FAIL: {prefix} grows more than {limit:g}x per decade")

# Graph rebuilds after a mutation, hardware-independent: per-decade growth.
growth_gate("BM_MutateThenGetGraph", 1000, 10000, 25.0)
growth_gate("BM_MutateThenGetGraph", 10000, 100000, 25.0)

# Delta ambiguity check, hardware-independent: against the full-check arm
# at 10^4, and its own growth from 10^3 to 10^4.
guarded = {}
for name, ns in current.items():
    if not name.startswith("BM_GuardedMutate/"):
        continue
    parts = name.split("/")
    if len(parts) != 3 or ns is None:
        continue
    guarded.setdefault(int(parts[1]), {})[parts[2]] = ns
arms = guarded.get(10000, {})
if "0" in arms and "1" in arms:
    speedup = arms["0"] / arms["1"]
    print(f"==== guarded-write delta gate: {speedup:.1f}x faster than the "
          f"full check at 10000 tuples (minimum 20x) ====")
    if speedup < 20.0:
        failed = True
        print("  FAIL: delta-checked writes are less than 20x faster")
if "1" in guarded.get(1000, {}) and "1" in arms:
    growth = arms["1"] / guarded[1000]["1"]
    print(f"==== guarded-write growth gate: {growth:.2f}x from 1000 to "
          f"10000 tuples (maximum 3x) ====")
    if growth > 3.0:
        failed = True
        print("  FAIL: delta-checked writes grow more than 3x with 10x tuples")

# The same loop end to end, through the executor.
growth_gate("BM_HqlMutateCountLoop", 1000, 10000, 25.0)

if failed:
    sys.exit(1)
PYEOF
fi
