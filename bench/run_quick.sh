#!/usr/bin/env bash
# Quick bench smoke: runs the six hand-rolled microbenchmarks in --quick
# mode and leaves machine-readable results at the repo root
# (BENCH_hotpath.json from micro_sharded_pool, BENCH_contention.json from
# micro_contention, BENCH_policy_overhead.json from micro_policy_overhead,
# BENCH_faults.json from fault_sweep, BENCH_async_io.json from
# micro_async_io, BENCH_meta_policy.json from ablation_meta_policy).
# Each JSON is stamped with provenance (git SHA, CMake build type,
# sanitizer) so a result file can always be traced to the commit and build
# flavour that produced it. Every bench runs even if an earlier one fails;
# every file is checked to parse as JSON, and the script exits nonzero at
# the end if any bench failed or any file is invalid. CI
# runs this to catch bench regressions and malformed emitters; the
# full-length runs stay manual (--full).
#
# Usage: bench/run_quick.sh [--full] [--sanitizer <name>]
#                           [--build-type <type>]
#        BUILD=build-rel bench/run_quick.sh
#
# --full drops --quick (full-length op counts); --sanitizer records which
# sanitizer the binaries were built with (default none); --build-type
# overrides the CMAKE_BUILD_TYPE auto-detected from $BUILD/CMakeCache.txt.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD=${BUILD:-build}

QUICK=--quick
SANITIZER=none
BUILD_TYPE=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --full) QUICK="" ;;
    --sanitizer) SANITIZER="$2"; shift ;;
    --build-type) BUILD_TYPE="$2"; shift ;;
    *) echo "usage: $0 [--full] [--sanitizer <name>] [--build-type <type>]" >&2
       exit 2 ;;
  esac
  shift
done

GIT_SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [[ -z "$BUILD_TYPE" ]]; then
  BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
      "$BUILD/CMakeCache.txt" 2>/dev/null || true)
  BUILD_TYPE=${BUILD_TYPE:-unknown}
fi

for bin in micro_sharded_pool micro_contention micro_policy_overhead \
           fault_sweep micro_async_io ablation_meta_policy; do
  if [[ ! -x "$BUILD/bench/$bin" ]]; then
    echo "bench binaries not found under $BUILD/bench — build first:" >&2
    echo "  cmake -B $BUILD -S . && cmake --build $BUILD -j" >&2
    exit 1
  fi
done

PROVENANCE=(--git-sha "$GIT_SHA" --build-type "$BUILD_TYPE"
            --sanitizer "$SANITIZER")

# Run all six even when one fails (a shape check printing NO exits
# nonzero), so every bench still emits its JSON; report the failures and
# exit nonzero at the end.
failed=()
run_bench() {
  local bin=$1 json=$2
  # A bench that dies before writing must not pass on a stale file.
  rm -f "$json"
  if ! "$BUILD/bench/$bin" $QUICK --json "$json" "${PROVENANCE[@]}"; then
    echo "$bin: FAILED (exit nonzero)" >&2
    failed+=("$bin")
  fi
}
run_bench micro_sharded_pool BENCH_hotpath.json
run_bench micro_contention BENCH_contention.json
run_bench micro_policy_overhead BENCH_policy_overhead.json
run_bench fault_sweep BENCH_faults.json
run_bench micro_async_io BENCH_async_io.json
run_bench ablation_meta_policy BENCH_meta_policy.json

for f in BENCH_hotpath.json BENCH_contention.json \
         BENCH_policy_overhead.json BENCH_faults.json \
         BENCH_async_io.json BENCH_meta_policy.json; do
  if python3 -m json.tool "$f" > /dev/null; then
    echo "$f: valid JSON"
  else
    echo "$f: INVALID JSON" >&2
    failed+=("$f")
  fi
done

if [[ ${#failed[@]} -gt 0 ]]; then
  echo "bench smoke failed: ${failed[*]}" >&2
  exit 1
fi
