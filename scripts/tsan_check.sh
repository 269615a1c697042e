#!/usr/bin/env sh
# ThreadSanitizer gate for the concurrent DNS paths: the sharded scoped
# cache, the multithreaded SO_REUSEPORT UDP server, and the resolver that
# sits on both. Builds a separate TSan tree and runs the relevant test
# binaries under it; any data race fails the script.
#
# Usage: scripts/tsan_check.sh [build-dir]   (default build-tsan)
set -eu
BUILD="${1:-build-tsan}"
# libstdc++-12 atomic<shared_ptr> internals trip TSan (relaxed spinlock
# unlock in _Sp_atomic::load); see scripts/tsan_suppressions.txt.
SUPP="suppressions=$(cd "$(dirname "$0")" && pwd)/tsan_suppressions.txt"

cmake -S . -B "$BUILD" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  >/dev/null
cmake --build "$BUILD" --target eum_tests udp_throughput -j "$(nproc)"

# abort_on_error makes any reported race a non-zero exit.
TSAN_OPTIONS="abort_on_error=1 halt_on_error=1 $SUPP" \
  "$BUILD/tests/eum_tests" \
  --gtest_filter='ScopedCache.*:UdpConcurrency.*:UdpBatch.*:UdpSendError.*:UdpServerLifecycle.*:UdpAnswerCache.*:AnswerCacheFixture.*:AnswerCacheDifferential.*:Mutation.CacheOnAnswersMutantsAsCacheOffDoes:DnsHandlerFixture.UnknownEcsBlockFallsBackToNsWithScope24:DecisionExplain.ExplainedScopeIsTheServedScope:SnapshotRepublishRace.*:UdpTruncation.*:UdpFixture.*:Resolver*.*:Fault*.*:StubClient*.*:EcsCacheInvariant.*:ScopesAndSeeds/*:Metrics*.*:QueryLog*.*:ResetContract.*:RolloutController.*:MapSnapshot.*:MappingSystem.RescoreWhileServing:MapMaker.*:ControlConcurrency.*:MappingUnits.*:DeltaRebuild.*:MapMakerLiveness.*:SimClock*.*:FlightRecorder*.*:QueryTracer*.*:Trace*.*:AdminServer*.*:UdpSocket.*:OpenLoopSchedule.*:TrafficModel.*:LdnsPopulation.*:StallFixture.*:RunOpenLoop.*:PoissonArrivals.*'

echo "tsan_check: building+running the UDP throughput bench under TSan"
# The bench exits 1 when its >=2x speedup gate fails — meaningless under
# TSan's serialization overhead, so only a race (SIGABRT, status >128)
# fails the script here. The perf gate runs uninstrumented in CI/figures.
status=0
# EUM_BENCH_OUT keeps the TSan-distorted numbers away from the committed
# repo-root BENCH_udp_throughput.json artifact.
TSAN_OPTIONS="abort_on_error=1 halt_on_error=1 $SUPP" \
  EUM_BENCH_OUT="$BUILD/BENCH_udp_throughput.tsan.json" \
  "$BUILD/bench/udp_throughput" >/dev/null || status=$?
if [ "$status" -gt 1 ]; then
  echo "tsan_check: udp_throughput failed under TSan (status $status)" >&2
  exit "$status"
fi

echo "tsan_check: OK (no data races reported)"
