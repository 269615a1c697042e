#!/usr/bin/env sh
# One-command verification, in gate order:
#   1. invariant lint   — scripts/lint_invariants.py (mechanical repo rules)
#   2. bench artifact   — scripts/check_bench_artifact.py (the committed
#                         BENCH_udp_throughput.json, BENCH_loadgen.json,
#                         BENCH_mapmaker.json and AUDIT_memory_orders.json
#                         satisfy their schemas: closed-loop labeling,
#                         open-loop curve shape + SLO gate, rebuild-scale
#                         arms, memory-order audit verdicts)
#   3. tier-1           — configure + build + ctest (includes the fuzz
#                         corpus replays and the linter self-test)
#   4. mc               — scripts/mc_check.sh: exhaustive model check of
#                         the lock-free kernels + the memory-order
#                         minimality audit (AUDIT_memory_orders.json)
#   5. clang-tidy       — incremental, files changed vs origin/main
#                         (skips with a notice when clang-tidy is absent)
#   6. TSan             — concurrent DNS serve paths under ThreadSanitizer
#
# Each gate prints a named PASS/FAIL summary line; the first failure
# stops the run with that gate's status.
#
# Usage: scripts/check.sh [build-dir]   (default build; TSan uses
#                                        build-tsan via tsan_check.sh)
set -eu
BUILD="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

run_gate() {
  gate="$1"
  shift
  echo "check: [$gate] running"
  if "$@"; then
    echo "check: [$gate] PASS"
  else
    status=$?
    echo "check: [$gate] FAIL (status $status)" >&2
    exit "$status"
  fi
}

tier1() {
  cmake -B "$BUILD" -S . &&
    cmake --build "$BUILD" -j "$(nproc)" &&
    (cd "$BUILD" && ctest --output-on-failure -j "$(nproc)")
}

run_gate "invariant-lint" python3 scripts/lint_invariants.py
run_gate "bench-artifact" python3 scripts/check_bench_artifact.py
run_gate "tier-1" tier1
run_gate "mc" scripts/mc_check.sh "$BUILD"
run_gate "clang-tidy" scripts/tidy_check.sh --changed
run_gate "tsan" scripts/tsan_check.sh

echo "check: OK"
