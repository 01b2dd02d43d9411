#!/usr/bin/env bash
# CI entry point. Stages:
#   invariant-lint     repo invariant linter (tools/lint_invariants.py)
#   tier1-build/ctest  RelWithDebInfo build + full test suite (includes the
#                      UDR_DEADLOCK_CHECK lock-order checker + its death test)
#   thread-safety      clang -Wthread-safety -Werror build of the whole tree
#                      (the annotated locking layer's compile-time gate)
#   clang-tidy         bugprone/concurrency/performance checks over src/
#   bench-smoke        Release (-O2) build, every benchmark 1 iteration, all
#                      self-checking tables must pass, bench JSONs must be
#                      emitted under build-release/; the obs-overhead bench
#                      must also emit a Perfetto trace that parses as JSON
#                      and covers the major data-path stages
#   perfbench-smoke    the repo benchmark (perfbench/run.py) on all three
#                      workloads untraced, and fe_reads traced too (its
#                      probes drive UdrNf::Process); any non-zero exit fails,
#                      and so does a modelled-output digest that differs from
#                      the one pinned in tools/perfbench_digests.txt, or an
#                      untraced rss_per_sub_b above its pin in
#                      tools/perfbench_rss.txt
#   asan-ubsan         Debug+ASan/UBSan ctest (-LE slow)
#   tsan               ThreadSanitizer over the concurrent surface: exec_test,
#                      obs_test, scenario_smoke, migration_test
#
# Usage: ./ci.sh [--skip-sanitizers] [--skip-clang]
#   --skip-clang       skip the two clang-only stages (gcc-only hosts). They
#                      are also auto-skipped, loudly, when clang/clang-tidy
#                      are not installed — every other gate still runs.
set -euo pipefail

cd "$(dirname "$0")"
JOBS="$(nproc 2>/dev/null || echo 4)"

SKIP_SANITIZERS=0
SKIP_CLANG=0
for arg in "$@"; do
  case "${arg}" in
    --skip-sanitizers) SKIP_SANITIZERS=1 ;;
    --skip-clang) SKIP_CLANG=1 ;;
    *) echo "unknown flag: ${arg}" >&2; exit 2 ;;
  esac
done

# ---- per-stage summary ------------------------------------------------------
# Every stage reports one line at exit so a failed run is attributable at a
# glance. A stage in state "RUN " at exit time is the one that failed.
STAGE_NAMES=()
STAGE_STATES=()
CURRENT_STAGE=""
begin_stage() {
  CURRENT_STAGE="$1"
  STAGE_NAMES+=("$1")
  STAGE_STATES+=("FAIL")  # Overwritten by pass_stage/skip_stage.
  echo ""
  echo "== ${1} =="
}
mark_stage() {  # $1 = state
  local i=$((${#STAGE_STATES[@]} - 1))
  STAGE_STATES[i]="$1"
}
pass_stage() { mark_stage "PASS"; }
skip_stage() { mark_stage "SKIP"; echo "-- skipped: $1"; }
print_summary() {
  echo ""
  echo "== ci.sh stage summary =="
  local i
  for i in "${!STAGE_NAMES[@]}"; do
    printf '  %-18s %s\n' "${STAGE_NAMES[i]}" "${STAGE_STATES[i]}"
  done
}
trap print_summary EXIT

# Every bench target the smoke stage requires to exist (the glob below runs
# whatever is built, but a bench silently falling out of the build is a CI
# failure — and tools/lint_invariants.py cross-checks this list against
# bench/bench_*.cc, so adding a bench without listing it here fails the lint).
REQUIRED_BENCHES=(
  bench_ablation
  bench_batch_pipeline
  bench_capacity
  bench_coalescer
  bench_fr_tradeoff
  bench_frash_summary
  bench_latency
  bench_location_stage
  bench_migration
  bench_multimaster
  bench_obs_overhead
  bench_partition_availability
  bench_pre_udc
  bench_ps_backlog
  bench_record_layout
  bench_replication_modes
  bench_scaleout
  bench_scenarios
  bench_selective_placement
  bench_sharded_scale
  bench_stale_reads
)

# ---- invariant-lint ---------------------------------------------------------
begin_stage "invariant-lint"
python3 tools/lint_invariants.py .
pass_stage

# ---- tier-1 -----------------------------------------------------------------
begin_stage "tier1-build"
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "${JOBS}"
pass_stage

begin_stage "tier1-ctest"
ctest --test-dir build --output-on-failure -j "${JOBS}"
pass_stage

# ---- clang gates ------------------------------------------------------------
CLANGXX="$(command -v clang++ || true)"
CLANG_TIDY="$(command -v clang-tidy || true)"

begin_stage "thread-safety"
if [[ "${SKIP_CLANG}" == 1 ]]; then
  skip_stage "--skip-clang"
elif [[ -z "${CLANGXX}" ]]; then
  skip_stage "clang++ not installed (install clang or pass --skip-clang to silence)"
else
  # Whole tree under clang with the thread-safety analysis promoted to
  # errors: any GUARDED_BY/REQUIRES/ACQUIRE violation fails the build.
  cmake -B build-clang-tsafe -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_COMPILER="${CLANGXX}" -DUDR_WTHREAD_SAFETY=ON
  cmake --build build-clang-tsafe -j "${JOBS}"
  pass_stage
fi

begin_stage "clang-tidy"
if [[ "${SKIP_CLANG}" == 1 ]]; then
  skip_stage "--skip-clang"
elif [[ -z "${CLANG_TIDY}" ]]; then
  skip_stage "clang-tidy not installed (install clang-tidy or pass --skip-clang to silence)"
else
  # Use the clang build's compile_commands.json when present (exact flags),
  # else the tier-1 build's (CMAKE_EXPORT_COMPILE_COMMANDS is always on).
  TIDY_BUILD="build-clang-tsafe"
  [[ -f "${TIDY_BUILD}/compile_commands.json" ]] || TIDY_BUILD="build"
  mapfile -t TIDY_SOURCES < <(find src -name '*.cc' | sort)
  "${CLANG_TIDY}" -p "${TIDY_BUILD}" --quiet "${TIDY_SOURCES[@]}"
  pass_stage
fi

# ---- bench smoke (Release) --------------------------------------------------
begin_stage "bench-build"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "${JOBS}"
pass_stage

begin_stage "bench-smoke"
for required in "${REQUIRED_BENCHES[@]}"; do
  if [[ ! -x "build-release/bench/${required}" ]]; then
    echo "SMOKE FAILED: required benchmark ${required} was not built"
    exit 1
  fi
done
# The self-checking benches emit machine-readable result files for the bench
# trajectory; point them into the build tree and verify they appear.
export UDR_BENCH_JSON_PATH="${PWD}/build-release/BENCH_migration.json"
export UDR_BENCH_RECORD_LAYOUT_JSON="${PWD}/build-release/BENCH_record_layout.json"
export UDR_BENCH_SHARDED_SCALE_JSON="${PWD}/build-release/BENCH_sharded_scale.json"
export UDR_BENCH_SCENARIOS_JSON="${PWD}/build-release/BENCH_scenarios.json"
export UDR_BENCH_OBS_OVERHEAD_JSON="${PWD}/build-release/BENCH_obs_overhead.json"
export UDR_OBS_TRACE_JSON="${PWD}/build-release/obs_trace.json"
rm -f "${UDR_BENCH_JSON_PATH}" "${UDR_BENCH_RECORD_LAYOUT_JSON}" \
      "${UDR_BENCH_SHARDED_SCALE_JSON}" "${UDR_BENCH_SCENARIOS_JSON}" \
      "${UDR_BENCH_OBS_OVERHEAD_JSON}" "${UDR_OBS_TRACE_JSON}"
bench_failed=0
for bench in build-release/bench/bench_*; do
  [[ -x "${bench}" ]] || continue
  echo "-- ${bench}"
  out="$("${bench}" --benchmark_min_time=0 2>&1)" || {
    echo "${out}"
    echo "SMOKE FAILED: ${bench} exited non-zero"
    bench_failed=1
    continue
  }
  # The tables are self-checking: any FAIL row is a regression even when the
  # binary exits 0.
  if grep -q " FAIL " <<< "${out}"; then
    echo "${out}" | grep -B2 -A2 " FAIL "
    echo "SMOKE FAILED: ${bench} printed a FAIL row"
    bench_failed=1
  fi
done
if [[ "${bench_failed}" != 0 ]]; then
  echo "== benchmark smoke: FAILED =="
  exit 1
fi
for json in "${UDR_BENCH_JSON_PATH}" "${UDR_BENCH_RECORD_LAYOUT_JSON}" \
            "${UDR_BENCH_SHARDED_SCALE_JSON}" "${UDR_BENCH_SCENARIOS_JSON}" \
            "${UDR_BENCH_OBS_OVERHEAD_JSON}"; do
  if [[ ! -s "${json}" ]]; then
    echo "SMOKE FAILED: benchmark did not emit ${json}"
    exit 1
  fi
done
# The exported trace must be loadable by Perfetto (valid Chrome trace JSON)
# and cover the major data-path stages end to end.
python3 - "${UDR_OBS_TRACE_JSON}" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "trace has no traceEvents"
names = {e.get("name") for e in events}
required = {"event", "route.batch", "resolve", "dispatch", "replica.write",
            "coalesce.park", "coalesce.flush", "migration.chunk"}
missing = required - names
assert not missing, f"trace is missing stages: {sorted(missing)}"
print(f"-- obs trace OK: {len(events)} events, "
      f"{len(names)} distinct span names")
PYEOF
echo "== benchmark smoke: all green (bench JSON files emitted) =="
pass_stage

# ---- perfbench smoke --------------------------------------------------------
# The repo benchmark must build and pass its own output checks: exit 0 only
# when every check passed (1 = a failed check, 2 = no result). Its modelled
# outputs are pinned: the digest= on each run's first stdout line must match
# that run's line in tools/perfbench_digests.txt. Host bytes are pinned too:
# each untraced run's rss_per_sub_b (a median over its repeats, stable to
# ~0.01% run to run) must not exceed its line in tools/perfbench_rss.txt.
begin_stage "perfbench-smoke"
PERFBENCH_DIGESTS=tools/perfbench_digests.txt
PERFBENCH_RSS=tools/perfbench_rss.txt
for run in "storm_mix 0" "sharded_rw 0" "fe_reads 0" "fe_reads 1"; do
  read -r workload trace <<< "${run}"
  out="$(python3 perfbench/run.py --workload "${workload}" --seed 1 \
           --seconds 3 --trace "${trace}")"
  echo "${out}"
  got="$(head -n 1 <<< "${out}" | sed -n 's/.* digest=\([0-9a-f]*\).*/\1/p')"
  want="$(awk -v w="${workload}" '$1 == w && $2 == 1 { print $3 }' \
            "${PERFBENCH_DIGESTS}")"
  if [[ -z "${got}" || "${got}" != "${want}" ]]; then
    echo "PERFBENCH FAILED: ${workload} seed 1 digest '${got}' does not" \
         "match '${want}' pinned in ${PERFBENCH_DIGESTS}"
    exit 1
  fi
  echo "-- ${workload} seed 1: digest ${got} matches ${PERFBENCH_DIGESTS}"
  [[ "${trace}" == 0 ]] || continue
  rss="$(tail -n 1 <<< "${out}" | python3 -c \
           'import json, sys; print(json.load(sys.stdin)["metrics"]["rss_per_sub_b"]["value"])')"
  pin="$(awk -v w="${workload}" '$1 == w && $2 == 1 { print $3 }' \
           "${PERFBENCH_RSS}")"
  if [[ -z "${pin}" ]] || ! python3 -c \
       'import sys; sys.exit(float(sys.argv[1]) > float(sys.argv[2]))' \
       "${rss}" "${pin}"; then
    echo "PERFBENCH FAILED: ${workload} seed 1 rss_per_sub_b ${rss} exceeds" \
         "the pin '${pin}' in ${PERFBENCH_RSS}"
    exit 1
  fi
  echo "-- ${workload} seed 1: rss_per_sub_b ${rss} <= ${pin}"
done
pass_stage

# ---- sanitizers -------------------------------------------------------------
begin_stage "asan-ubsan"
if [[ "${SKIP_SANITIZERS}" == 1 ]]; then
  skip_stage "--skip-sanitizers"
else
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DUDR_SANITIZE=ON
  cmake --build build-asan -j "${JOBS}"
  # Fast subset (-LE slow): covers the whole suite, in particular the batched
  # data path + coalescing window tests (batch_test, coalescer_test) whose
  # enqueue/demux paths move the most state around. The full standard
  # scenarios (LABELS slow) run in the un-instrumented tier-1 stage.
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure -j "${JOBS}" -LE slow
  pass_stage
fi

begin_stage "tsan"
if [[ "${SKIP_SANITIZERS}" == 1 ]]; then
  skip_stage "--skip-sanitizers"
else
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DUDR_TSAN=ON
  cmake --build build-tsan -j "${JOBS}"
  # The dynamic checker runs over every layer the thread-safety annotations
  # describe: the sharded execution mode (exec_test: SPSC handoff, lock-free
  # AttrPool reads, metrics merging), the per-shard tracer handoff/merge
  # (obs_test), plus the scenario/migration layers whose structures now
  # carry annotated guards.
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
      -R 'exec_test|obs_test|scenario_smoke|migration_test' -LE slow
  pass_stage
fi

echo ""
echo "== ci.sh: all green =="
