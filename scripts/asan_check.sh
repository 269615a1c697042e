#!/usr/bin/env sh
# AddressSanitizer + UndefinedBehaviorSanitizer gate for the failure
# paths this repo leans on hardest: the fault-injection decorator, the
# retry/serve-stale resolver, the deadline-driven UDP transport,
# and the wire-corruption fuzz corpus (corrupted datagrams are decoded
# and re-encoded constantly under fault injection, so heap overreads and
# UB in the codec would bite exactly there). It also covers the
# allocation-free serve path — inline DNS names and ECS addresses, the
# offset-table name compression, scratch decode/handle/encode and the flat
# world indexes — where a length bug in a fixed array is an overflow, and
# the allocation gate that pins it — the cold-start map-making path,
# whose tiled best-k and unit-signature passes index raw mesh row offsets
# (Anycast, PingMesh, Scoring, LatencyModel, MappingUnits, DeltaRebuild and
# the ColdStartPin bit-identity pin), and the one mapping decision, which
# charges the shared load ledger and indexes the snapshot's cluster table
# (MapSnapshot, MappingPin, MappingFixture, LoadConservation, LbFixture,
# Rendezvous). Builds a separate ASan+UBSan tree and
# runs the relevant suites; any report fails the script.
#
# Usage: scripts/asan_check.sh [build-dir]   (default build-asan)
set -eu
BUILD="${1:-build-asan}"

cmake -S . -B "$BUILD" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
  >/dev/null
cmake --build "$BUILD" --target eum_tests eum_alloc_gate fault_sweep \
  replay_message replay_name replay_ecs replay_zone_file replay_prefix_trie \
  -j "$(nproc)"

ASAN_OPTIONS="abort_on_error=1 detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  "$BUILD/tests/eum_tests" \
  --gtest_filter='Anycast.*:PingMesh.*:Scoring.*:LatencyModel.*:ColdStartPin.*:Fault*.*:Resolver*.*:StubClient*.*:ScopedCache.*:UdpSocket.*:UdpFixture.*:UdpBatch.*:UdpSendError.*:UdpAnswerCache.*:AnswerCacheFixture.*:AnswerCacheDifferential.*:Mutation.*:EcsCorpus.*:FuzzRegression.*:ScopesAndSeeds/*:Seeds/*:MappingUnits.*:DeltaRebuild.*:MapMakerLiveness.*:SimClock*.*:OpenLoopSchedule.*:TrafficModel.*:LdnsPopulation.*:StallFixture.*:RunOpenLoop.*:PoissonArrivals.*:DnsName*.*:*NameRoundTrip.*:ClientSubnetOption.*:Message*.*:Authoritative.*:Zone.*:ZoneFile.*:DnsHandlerFixture.*:MappingSystem.*:MappingPin.*:MappingFixture.*:LoadConservation.*:LbFixture.*:Rendezvous.*:MapSnapshot.*:DecisionExplain.*:UdpTruncation.*:DualStackFixture.*:TwoTierFixture.*:WorldGen.*:WorldSoA.*:WorldIo.*:WirePinFixture.*:UdpServerLifecycle.*'

echo "asan_check: running the allocation gate under ASan+UBSan"
ASAN_OPTIONS="abort_on_error=1 detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  "$BUILD/tests/eum_alloc_gate"

echo "asan_check: replaying fuzz corpora + 2000 mutants/harness under ASan+UBSan"
for harness in message name ecs zone_file prefix_trie; do
  ASAN_OPTIONS="abort_on_error=1 detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    "$BUILD/fuzz/replay_$harness" --mutate 2000 --seed 1 \
    "fuzz/corpus/$harness" "fuzz/regressions/$harness" >/dev/null
done

echo "asan_check: running the fault-sweep bench under ASan+UBSan"
ASAN_OPTIONS="abort_on_error=1 detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
EUM_BENCH_OUT=/dev/null \
  "$BUILD/bench/fault_sweep" >/dev/null

echo "asan_check: OK (no ASan/UBSan reports)"
