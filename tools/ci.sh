#!/usr/bin/env bash
# Local CI: configure, build, and test the release, asan-ubsan, and tsan
# presets. The tsan lane is narrow by design: it builds and runs only the
# threading-sensitive suites (concurrency, plan property, parallel
# determinism) so the sweep stays fast while still exercising every lock,
# latch, and snapshot-publication path under ThreadSanitizer.
#
#   tools/ci.sh            # all three presets
#   tools/ci.sh release    # just one
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(release asan-ubsan tsan)
fi

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

tsan_targets=(hirel_concurrency_test hirel_plan_test
              hirel_parallel_determinism_test hirel_incremental_test)
tsan_filter='ConcurrencyTest|PlanProperty|ParallelDeterminismTest|Incremental'

for preset in "${presets[@]}"; do
  echo "==== ${preset}: configure ===="
  cmake --preset "${preset}"
  if [ "${preset}" = "tsan" ]; then
    echo "==== ${preset}: build (threaded suites) ===="
    cmake --build --preset "${preset}" -j "${jobs}" \
        --target "${tsan_targets[@]}"
    echo "==== ${preset}: test (threaded suites) ===="
    ctest --preset "${preset}" -R "${tsan_filter}"
    continue
  fi
  echo "==== ${preset}: build ===="
  cmake --build --preset "${preset}" -j "${jobs}"
  echo "==== ${preset}: test ===="
  ctest --preset "${preset}" -j "${jobs}"
  echo "==== ${preset}: figure reproductions ===="
  for repro in "build/${preset}"/bench/repro_*; do
    [ -x "${repro}" ] || continue
    echo "---- $(basename "${repro}")"
    "${repro}" > /dev/null || {
      echo "FAIL: $(basename "${repro}")" >&2
      exit 1
    }
  done

  echo "==== ${preset}: observability smoke ===="
  repl="build/${preset}/examples/hql_repl"
  trace_json="$(mktemp)"
  snap_file="$(mktemp -u)"
  diag_json="$(mktemp)"
  diag_dir="$(mktemp -d)"
  smoke="$(mktemp)"
  sed -e "s|__TRACE__|${trace_json}|" -e "s|__SNAP__|${snap_file}|" \
      -e "s|__DIAG__|${diag_json}|" -e "s|__DIAGDIR__|${diag_dir}|" \
      tools/obs_smoke.hql > "${smoke}"
  obs_out="$("${repl}" "${smoke}" < /dev/null)"
  rm -f "${smoke}" "${snap_file}"
  echo "${obs_out}" | grep -q '"event":"slow_query"' || {
    echo "FAIL: no slow-query event in SHOW LOG JSON" >&2
    exit 1
  }
  echo "${obs_out}" | grep -q '^# TYPE ' || {
    echo "FAIL: no '# TYPE' lines in SHOW METRICS PROMETHEUS" >&2
    exit 1
  }
  echo "${obs_out}" | grep -q '^# HELP ' || {
    echo "FAIL: no '# HELP' lines in SHOW METRICS PROMETHEUS" >&2
    exit 1
  }
  # The sampler's state is a set of telemetry.* rows of sys.metrics; its
  # series are rows of sys.telemetry.
  echo "${obs_out}" | grep -q '"name":"telemetry.interval_ms","kind":"gauge","value":5,' || {
    echo "FAIL: no telemetry state in SHOW METRICS JSON" >&2
    exit 1
  }
  echo "${obs_out}" | grep -q '"name":"query.statements","kind":"counter","last":[0-9]*,"min":' || {
    echo "FAIL: no sampled series in SHOW TELEMETRY JSON" >&2
    exit 1
  }
  echo "${obs_out}" | grep -q '{"site":"snapshot.save","wait_class":"io",' || {
    echo "FAIL: no snapshot.save wait site in SHOW WAITS JSON" >&2
    exit 1
  }
  # Alert lifecycle: hot_statements trips on the first manual tick, shows
  # up under `severity = ALL warn` (subsumption), degrades the health
  # verdict, and resolves after RESET METRICS + one more tick.
  echo "${obs_out}" | grep -q '{"alert":"hot_statements","severity":"warn","state":"firing",' || {
    echo "FAIL: hot_statements alert did not fire in SHOW ALERTS JSON" >&2
    exit 1
  }
  echo "${obs_out}" | grep -q '{"component":"overall","verdict":"degraded",' || {
    echo "FAIL: SHOW HEALTH JSON did not report degraded while firing" >&2
    exit 1
  }
  echo "${obs_out}" | grep -q '{"alert":"hot_statements","severity":"warn","state":"resolved","metric":"query.statements","op":">","threshold":3,"for_samples":1,"builtin":false,' || {
    echo "FAIL: hot_statements did not resolve after RESET METRICS" >&2
    exit 1
  }
  echo "${obs_out}" | grep -q 'hirel_wait_site_ns_bucket' || {
    echo "FAIL: no per-site wait histograms in SHOW METRICS PROMETHEUS" >&2
    exit 1
  }
  # Every JSON-producing statement emits a line starting with [ or {; each
  # must parse, as must the exported Chrome trace file. Validation uses the
  # in-tree hirel_check binary so this lane always runs — no host python3
  # required (and no silent skip when it is absent).
  check="build/${preset}/tools/hirel_check"
  json_lines=0
  while IFS= read -r json_line; do
    [ -n "${json_line}" ] || continue
    json_lines=$(( json_lines + 1 ))
    printf '%s\n' "${json_line}" | "${check}" json - > /dev/null || {
      echo "FAIL: invalid JSON output: ${json_line:0:80}..." >&2
      exit 1
    }
  done < <(echo "${obs_out}" | grep '^[[{]' || true)
  if [ "${json_lines}" -eq 0 ]; then
    echo "FAIL: observability smoke produced no JSON lines to validate" >&2
    exit 1
  fi
  "${check}" json "${trace_json}" > /dev/null || {
    echo "FAIL: exported trace is not valid JSON" >&2
    exit 1
  }
  "${check}" json "${diag_json}" > /dev/null || {
    echo "FAIL: exported diagnostics bundle is not valid JSON" >&2
    exit 1
  }
  grep -q '"cause":"statement"' "${diag_json}" || {
    echo "FAIL: diagnostics bundle is missing its cause" >&2
    exit 1
  }
  # The fire transition auto-captured exactly one bundle into the
  # diagnostics dir; it must parse and name the alert as its cause.
  captured=("${diag_dir}"/diag.hot_statements.*.json)
  if [ ${#captured[@]} -ne 1 ] || [ ! -f "${captured[0]}" ]; then
    echo "FAIL: expected exactly one auto-captured bundle, got: ${captured[*]}" >&2
    exit 1
  fi
  "${check}" json "${captured[0]}" > /dev/null || {
    echo "FAIL: auto-captured bundle is not valid JSON" >&2
    exit 1
  }
  grep -q '"cause":"alert:hot_statements"' "${captured[0]}" || {
    echo "FAIL: auto-captured bundle is missing its alert cause" >&2
    exit 1
  }
  echo "observability JSON validated (${json_lines} lines + trace + diagnostics bundles)"
  rm -f "${trace_json}" "${diag_json}"
  rm -rf "${diag_dir}"

  echo "==== ${preset}: workload generator smoke ===="
  gen="build/${preset}/tools/gen_workload"
  workload_a="$(mktemp)"
  workload_b="$(mktemp)"
  # --check executes the generated script in-process; the second run (same
  # seed, no --check) must be byte-identical.
  "${gen}" --tuples 120 --depth 3 --fanout 3 --ops 40 --seed 7 --check \
      > "${workload_a}"
  "${gen}" --tuples 120 --depth 3 --fanout 3 --ops 40 --seed 7 \
      > "${workload_b}"
  cmp -s "${workload_a}" "${workload_b}" || {
    echo "FAIL: gen_workload output is not deterministic for a fixed seed" >&2
    exit 1
  }
  rm -f "${workload_a}" "${workload_b}"
  # The default size draws more class DENYs than the small run above.
  "${gen}" --tuples 1000 --check > /dev/null

  if [ "${preset}" = "release" ]; then
    # Builds bench_e2e/ against this tree and checks every workload's
    # oracle at toy size, so an engine change that breaks the benchmark
    # fails here.
    echo "==== ${preset}: end-to-end benchmark smoke ===="
    python3 bench_e2e/smoke.py

    # The gates of tools/bench.sh: guarded writes (delta check against the
    # full check, and its growth from 10^3 to 10^4 tuples), and the growth
    # per decade of the mutate-then-rebuild loop, kernel and end to end.
    echo "==== ${preset}: guarded-write and mutate-then-query bench gates ===="
    gate_summary="$(mktemp)"
    tools/bench.sh "build/${preset}" "${gate_summary}" \
        '--benchmark_filter=BM_GuardedMutate|BM_HqlMutateCountLoop|BM_MutateThenGetGraph'
    rm -f "${gate_summary}"
  fi
done

echo "CI passed: ${presets[*]}"
