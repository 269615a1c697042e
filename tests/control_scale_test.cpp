// Scale machinery of the map-making control plane: the ShardPool worker
// pool, the latency-vector MappingUnits partition, the delta-rebuild path
// (differentially pinned against full rebuilds), and the two liveness
// regression suites — the background thread that must notice a watched
// monitor, and the mid-build transition that must survive to the next
// tick. ShardedConcurrency runs under TSan via scripts/tsan_check.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cdn/liveness.h"
#include "cdn/map_snapshot.h"
#include "cdn/mapping.h"
#include "cdn/mapping_units.h"
#include "cdn/ping_mesh.h"
#include "cdn/scoring.h"
#include "control/map_maker.h"
#include "test_world.h"
#include "util/shard_pool.h"
#include "util/sim_clock.h"

namespace eum::control {
namespace {

using namespace std::chrono_literals;
using cdn::MappingUnits;
using cdn::MappingUnitsConfig;
using cdn::MapSnapshot;
using testing::test_latency;
using testing::tiny_world;

// ---------------------------------------------------------------------------
// ShardPool

TEST(ShardPool, EveryJobRunsExactlyOnce) {
  util::ShardPool pool{3};
  EXPECT_EQ(pool.worker_count(), 3U);
  constexpr std::size_t kJobs = 1000;
  std::vector<std::atomic<int>> runs(kJobs);
  pool.run(kJobs, [&](std::size_t job) { runs[job].fetch_add(1, std::memory_order_relaxed); });
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(runs[i].load(std::memory_order_relaxed), 1) << "job " << i;
  }
}

TEST(ShardPool, ZeroWorkersRunsOnTheCaller) {
  util::ShardPool pool{0};
  EXPECT_EQ(pool.worker_count(), 0U);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t ran = 0;
  pool.run(64, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;
  });
  EXPECT_EQ(ran, 64U);
}

TEST(ShardPool, ExceptionPropagatesAndPoolStaysUsable) {
  util::ShardPool pool{2};
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run(100,
                        [&](std::size_t job) {
                          ran.fetch_add(1, std::memory_order_relaxed);
                          if (job == 42) throw std::runtime_error{"shard failed"};
                        }),
               std::runtime_error);
  // The batch drains even past the failure, and the pool survives it.
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 100);
  std::atomic<int> again{0};
  pool.run(50, [&](std::size_t) { again.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(again.load(std::memory_order_relaxed), 50);
}

TEST(ShardPool, ReusableAcrossManyBatches) {
  util::ShardPool pool{2};
  std::atomic<std::size_t> total{0};
  for (int batch = 0; batch < 20; ++batch) {
    pool.run(10, [&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(std::memory_order_relaxed), 200U);
}

// ---------------------------------------------------------------------------
// MappingUnits

struct UnitsFixture {
  const topo::World& world = tiny_world();
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 40);
  cdn::PingMesh mesh = cdn::PingMesh::measure(world, network, test_latency());
};

TEST(MappingUnits, DeterministicAcrossRebuilds) {
  UnitsFixture fx;
  const auto a = MappingUnits::build(fx.mesh);
  const auto b = MappingUnits::build(fx.mesh);
  ASSERT_EQ(a->unit_count(), b->unit_count());
  EXPECT_EQ(a->fingerprint(), b->fingerprint());
  for (std::size_t t = 0; t < a->target_count(); ++t) {
    ASSERT_EQ(a->unit_of(static_cast<topo::PingTargetId>(t)),
              b->unit_of(static_cast<topo::PingTargetId>(t)));
  }
}

TEST(MappingUnits, PartitionCoversEveryTargetOnce) {
  UnitsFixture fx;
  const auto units = MappingUnits::build(fx.mesh);
  ASSERT_GE(units->unit_count(), 1U);
  ASSERT_EQ(units->target_count(), fx.mesh.target_count());
  std::vector<int> seen(units->target_count(), 0);
  for (std::size_t u = 0; u < units->unit_count(); ++u) {
    const auto unit = static_cast<MappingUnits::UnitId>(u);
    const auto members = units->members(unit);
    ASSERT_FALSE(members.empty());
    EXPECT_EQ(units->representative(unit), members.front());
    for (const topo::PingTargetId target : members) {
      EXPECT_EQ(units->unit_of(target), unit);
      ++seen[target];
    }
  }
  for (std::size_t t = 0; t < seen.size(); ++t) EXPECT_EQ(seen[t], 1) << "target " << t;
}

TEST(MappingUnits, ExactModeGroupsOnlyIdenticalColumns) {
  UnitsFixture fx;
  const auto units = MappingUnits::build(fx.mesh);  // epsilon 0
  for (std::size_t u = 0; u < units->unit_count(); ++u) {
    const auto unit = static_cast<MappingUnits::UnitId>(u);
    const topo::PingTargetId rep = units->representative(unit);
    for (const topo::PingTargetId member : units->members(unit)) {
      for (std::size_t d = 0; d < fx.mesh.deployment_count(); ++d) {
        ASSERT_EQ(fx.mesh.rtt_ms(d, member), fx.mesh.rtt_ms(d, rep))
            << "unit " << u << " member " << member;
        ASSERT_EQ(fx.mesh.loss_rate(d, member), fx.mesh.loss_rate(d, rep));
      }
    }
  }
}

TEST(MappingUnits, LargerEpsilonNeverSplitsFiner) {
  UnitsFixture fx;
  const auto exact = MappingUnits::build(fx.mesh);
  const auto coarse = MappingUnits::build(fx.mesh, MappingUnitsConfig{50.0F});
  EXPECT_LE(coarse->unit_count(), exact->unit_count());
  EXPECT_GE(coarse->unit_count(), 1U);
}

TEST(MappingUnits, RejectsBadEpsilon) {
  UnitsFixture fx;
  EXPECT_THROW(MappingUnits::build(fx.mesh, MappingUnitsConfig{-1.0F}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Delta rebuilds: incremental output is pinned to full-rebuild output
// across a liveness flap sequence (kill, partial server kill, revive,
// multi-kill). The map maker's every rebuild is a delta against the
// mapping system's current map; the full reference is a direct build of
// the same state with no previous generation.

struct DeltaFixture {
  const topo::World& world = tiny_world();
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 40);
  cdn::MappingSystem mapping{&world, &network, &test_latency(), cdn::MappingConfig{}};

  /// A from-scratch full build of the current liveness (not published).
  [[nodiscard]] std::shared_ptr<const MapSnapshot> full_build(util::ShardPool* pool = nullptr) {
    return MapSnapshot::build(mapping, mapping.version() + 1, util::SimTime{0}, {pool, {}});
  }
};

TEST(DeltaRebuild, IncrementalEqualsFullAcrossFlapSequence) {
  DeltaFixture fx;
  MapMakerConfig inc_config;
  inc_config.scoring_shards = 3;
  MapMaker incremental{&fx.mapping, nullptr, inc_config};

  const auto compare = [&](const char* step) {
    const auto inc_snapshot = incremental.rebuild_now(true);
    const auto full_snapshot = fx.full_build();
    EXPECT_TRUE(inc_snapshot->delta()) << step;
    ASSERT_TRUE(inc_snapshot->serving_equal(*full_snapshot)) << step;
    EXPECT_FALSE(full_snapshot->delta()) << step;
    for (topo::LdnsId ldns = 0; ldns < 15; ++ldns) {
      const std::optional<topo::BlockId> block =
          ldns % 2 == 0 ? std::optional<topo::BlockId>{ldns * 11} : std::nullopt;
      const auto a = inc_snapshot->map(ldns, block, "www.g.cdn.example");
      const auto b = full_snapshot->map(ldns, block, "www.g.cdn.example");
      ASSERT_EQ(a.has_value(), b.has_value()) << step;
      if (!a) continue;
      EXPECT_EQ(a->deployment, b->deployment) << step;
      EXPECT_EQ(a->servers, b->servers) << step;
    }
  };

  compare("fresh");

  // An unchanged rebuild re-scores nothing on the delta path.
  const auto idle = incremental.rebuild_now(true);
  EXPECT_TRUE(idle->delta());
  EXPECT_EQ(idle->units_rescored(), 0U);

  fx.network.set_cluster_alive(3, false);
  compare("kill cluster 3");
  const auto after_kill = incremental.current();
  EXPECT_TRUE(after_kill->delta());
  EXPECT_LE(after_kill->units_rescored(), after_kill->units().unit_count());

  fx.network.set_server_alive(5, 0, false);  // partial: cluster 5 stays up
  compare("kill one server of cluster 5");

  fx.network.set_cluster_alive(3, true);
  compare("revive cluster 3");

  fx.network.set_cluster_alive(7, false);
  fx.network.set_cluster_alive(11, false);
  compare("kill clusters 7 and 11 together");

  fx.network.set_cluster_alive(7, true);
  fx.network.set_cluster_alive(11, true);
  fx.network.set_server_alive(5, 0, true);
  compare("revive everything");
}

// A delta re-scores a touched unit from its shared ranking prefix (its best
// 2 * top_k deployments, dead or alive). Killing the unit's top_k + 1 best
// leaves fewer than top_k live in the prefix, so the unit must fall back to
// scanning its column — and still match a full rebuild exactly.
TEST(DeltaRebuild, PrefixExhaustionFallsBackToTheColumnScan) {
  DeltaFixture fx;
  const std::size_t top_k = fx.mapping.config().scoring_top_k;
  ASSERT_GT(fx.network.size(), 2 * top_k);
  MapMakerConfig inc_config;
  inc_config.scoring_shards = 3;
  MapMaker incremental{&fx.mapping, nullptr, inc_config};

  // Unit 0's live deployments in (score, id) order on its representative.
  const MappingUnits::UnitId unit = 0;
  const topo::PingTargetId rep = incremental.units().representative(unit);
  const auto live_ranking = [&] {
    std::vector<cdn::Candidate> column;
    for (const cdn::Deployment& deployment : fx.network.deployments()) {
      if (!deployment.alive) continue;
      column.push_back(cdn::Candidate{
          deployment.id, cdn::path_score(fx.mapping.config().traffic_class,
                                         fx.mapping.mesh().rtt_ms(deployment.id, rep),
                                         fx.mapping.mesh().loss_rate(deployment.id, rep))});
    }
    std::sort(column.begin(), column.end(), [](const cdn::Candidate& a, const cdn::Candidate& b) {
      return a.score_ms != b.score_ms ? a.score_ms < b.score_ms : a.deployment < b.deployment;
    });
    return column;
  };
  const std::vector<cdn::Candidate> best = live_ranking();
  for (std::size_t i = 0; i <= top_k; ++i) fx.network.set_cluster_alive(best[i].deployment, false);

  const auto inc_snapshot = incremental.rebuild_now(true);
  EXPECT_TRUE(inc_snapshot->delta());
  ASSERT_TRUE(inc_snapshot->serving_equal(*fx.full_build()));
  const std::vector<cdn::Candidate> survivors = live_ranking();
  ASSERT_GE(survivors.size(), top_k);
  const auto candidates = inc_snapshot->unit_candidates(unit);
  ASSERT_EQ(candidates.size(), top_k);
  for (std::size_t i = 0; i < top_k; ++i) EXPECT_EQ(candidates[i], survivors[i]) << "slot " << i;

  for (std::size_t i = 0; i <= top_k; ++i) fx.network.set_cluster_alive(best[i].deployment, true);
  EXPECT_TRUE(incremental.rebuild_now(true)->serving_equal(*fx.full_build()));
  EXPECT_EQ(incremental.current()->unit_candidates(unit)[0], best[0]);
}

/// Deployment d's score on a unit's representative column.
float score_on(const DeltaFixture& fx, cdn::DeploymentId d, MappingUnits::UnitId unit) {
  const topo::PingTargetId rep = fx.mapping.units().representative(unit);
  return cdn::path_score(fx.mapping.config().traffic_class, fx.mapping.mesh().rtt_ms(d, rep),
                         fx.mapping.mesh().loss_rate(d, rep));
}

// A flap re-scores at least every unit whose list it changes, and at most
// the units a scan of every unit's list selects: a unit holding the dead
// deployment, or one whose kth candidate the revived deployment scores at
// or before. Both counts are taken by brute force over every unit.
TEST(DeltaRebuild, FlapRescoresOnlyUnitsItCanChange) {
  DeltaFixture fx;
  MapMaker incremental{&fx.mapping};
  const std::size_t unit_count = fx.mapping.units().unit_count();
  const std::size_t top_k = fx.mapping.config().scoring_top_k;

  // The victim heads the most unit lists, so both of its flaps move some.
  std::vector<std::size_t> heads(fx.network.size(), 0);
  for (std::size_t u = 0; u < unit_count; ++u) {
    ++heads[incremental.current()->unit_candidates(static_cast<MappingUnits::UnitId>(u))[0]
                .deployment];
  }
  const auto victim =
      static_cast<cdn::DeploymentId>(std::max_element(heads.begin(), heads.end()) - heads.begin());

  for (const bool alive : {false, true}) {
    const auto before = incremental.current();
    fx.network.set_cluster_alive(victim, alive);
    const auto after = incremental.rebuild_now(true);
    ASSERT_TRUE(after->delta());
    ASSERT_TRUE(after->serving_equal(*fx.full_build()));
    std::size_t changed = 0;
    std::size_t scan_selects = 0;
    for (std::size_t u = 0; u < unit_count; ++u) {
      const auto unit = static_cast<MappingUnits::UnitId>(u);
      const auto was = before->unit_candidates(unit);
      const auto now = after->unit_candidates(unit);
      if (!std::equal(was.begin(), was.end(), now.begin(), now.end())) ++changed;
      bool selected = false;
      if (alive) {
        selected = score_on(fx, victim, unit) <= was[top_k - 1].score_ms;
      } else {
        for (std::size_t i = 0; i < top_k && std::isfinite(was[i].score_ms); ++i) {
          selected = selected || was[i].deployment == victim;
        }
      }
      if (selected) ++scan_selects;
    }
    EXPECT_GT(changed, 0U) << (alive ? "revive" : "kill");
    EXPECT_GE(after->units_rescored(), changed) << (alive ? "revive" : "kill");
    EXPECT_LE(after->units_rescored(), scan_selects) << (alive ? "revive" : "kill");
  }
}

// Two hundred seeded liveness steps, each killing or reviving one to three
// clusters and maybe a single server, every one rebuilt as a delta that
// must serve exactly as a full build. One step exhausts unit 0's prefix,
// so its list comes from the column scan; the next kills the deployment
// past that prefix which the scanned list holds — a flap the deployment
// index does not route to unit 0.
TEST(DeltaRebuild, SeededFlapSequenceEqualsFull) {
  DeltaFixture fx;
  const std::size_t top_k = fx.mapping.config().scoring_top_k;
  const std::size_t clusters = fx.network.size();
  ASSERT_GT(clusters, 2 * top_k);
  MapMakerConfig inc_config;
  inc_config.scoring_shards = 3;
  MapMaker incremental{&fx.mapping, nullptr, inc_config};

  // Unit 0's whole column, dead or alive, in (score, id) order.
  const MappingUnits::UnitId unit = 0;
  std::vector<cdn::DeploymentId> column(clusters);
  std::iota(column.begin(), column.end(), cdn::DeploymentId{0});
  std::stable_sort(column.begin(), column.end(), [&](cdn::DeploymentId a, cdn::DeploymentId b) {
    return score_on(fx, a, unit) < score_on(fx, b, unit);
  });

  std::mt19937 rng{22};
  const auto below = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  const auto is_alive = [&](cdn::DeploymentId d) { return fx.network.deployments()[d].alive; };
  constexpr int kExhaust = 80;
  for (int step = 0; step < 200; ++step) {
    if (step == kExhaust) {
      for (std::size_t i = 0; i <= top_k; ++i) fx.network.set_cluster_alive(column[i], false);
    } else if (step == kExhaust + 1) {
      const auto past = std::find_if(column.begin() + static_cast<std::ptrdiff_t>(2 * top_k),
                                     column.end(), is_alive);
      ASSERT_NE(past, column.end());
      const auto list = incremental.current()->unit_candidates(unit);
      ASSERT_TRUE(std::any_of(list.begin(), list.end(),
                              [&](const cdn::Candidate& c) { return c.deployment == *past; }));
      fx.network.set_cluster_alive(*past, false);
    } else {
      for (std::size_t flaps = 1 + below(3); flaps > 0; --flaps) {
        const auto d = static_cast<cdn::DeploymentId>(below(clusters));
        const auto dead = static_cast<std::size_t>(
            std::count_if(column.begin(), column.end(), [&](auto id) { return !is_alive(id); }));
        // Kills stop at a quarter of the network, so most units keep
        // taking their lists from their prefixes.
        if (!is_alive(d) || dead < clusters / 4) fx.network.set_cluster_alive(d, !is_alive(d));
      }
      if (below(2) == 0) {
        const auto d = static_cast<cdn::DeploymentId>(below(clusters));
        const std::size_t server = below(fx.network.deployments()[d].servers.size());
        fx.network.set_server_alive(d, server,
                                    !fx.network.deployments()[d].servers[server].alive);
      }
    }
    const auto inc_snapshot = incremental.rebuild_now(true);
    ASSERT_TRUE(inc_snapshot->delta()) << "step " << step;
    ASSERT_TRUE(inc_snapshot->serving_equal(*fx.full_build())) << "step " << step;
  }
}

// A full build shards its unit columns across the pool in stripes of whole
// tiles; the stripes must join into exactly the serial build, fresh and
// with dead clusters.
TEST(DeltaRebuild, ShardedFullBuildEqualsSerial) {
  DeltaFixture fx;
  util::ShardPool pool{3};
  // The full pass goes to the pool only from 256 units.
  ASSERT_GE(fx.mapping.units().unit_count(), 256U);
  EXPECT_TRUE(fx.full_build(&pool)->serving_equal(*fx.full_build()));

  fx.network.set_cluster_alive(3, false);
  fx.network.set_cluster_alive(17, false);
  EXPECT_TRUE(fx.full_build(&pool)->serving_equal(*fx.full_build()));
  fx.network.set_cluster_alive(3, true);
  fx.network.set_cluster_alive(17, true);
  EXPECT_TRUE(fx.full_build(&pool)->serving_equal(*fx.full_build()));
}

TEST(DeltaRebuild, SnapshotExposesTheUnitPartition) {
  DeltaFixture fx;
  MapMaker maker{&fx.mapping};
  const auto snapshot = maker.current();
  EXPECT_EQ(snapshot->units().fingerprint(), maker.units().fingerprint());
  EXPECT_EQ(snapshot->units_rescored(), maker.units().unit_count());
  EXPECT_FALSE(snapshot->delta());  // first build is always full
  // Unit candidates are live-only and (score, id)-ordered.
  for (std::size_t u = 0; u < maker.units().unit_count(); ++u) {
    const auto candidates =
        snapshot->unit_candidates(static_cast<MappingUnits::UnitId>(u));
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      if (!std::isfinite(candidates[i].score_ms)) break;
      const bool ordered =
          candidates[i - 1].score_ms < candidates[i].score_ms ||
          (candidates[i - 1].score_ms == candidates[i].score_ms &&
           candidates[i - 1].deployment < candidates[i].deployment);
      ASSERT_TRUE(ordered) << "unit " << u << " slot " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Liveness regressions (the two bugs of ISSUE 9)

struct LivenessFixture {
  const topo::World& world = tiny_world();
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 30);
  cdn::MappingSystem mapping{&world, &network, &test_latency(), cdn::MappingConfig{}};
};

// Headline bug: a MapMaker driven by start() (background-thread mode)
// never consulted its watched LivenessMonitor, so a cluster death was
// only routed around at the next periodic rebuild — here pushed out to
// ~forever. The fixed loop probes the monitor whenever its clock moves
// and force-publishes on a transition.
TEST(MapMakerLiveness, BackgroundThreadRemapsAfterClusterDeath) {
  LivenessFixture fx;
  util::SimClock clock;
  std::atomic<cdn::DeploymentId> victim{0};
  std::atomic<bool> victim_healthy{true};
  cdn::LivenessMonitor monitor{
      &fx.network, &clock, [&](cdn::DeploymentId id, std::size_t) {
        return id != victim.load(std::memory_order_acquire) ||
               victim_healthy.load(std::memory_order_acquire);
      }};

  MapMakerConfig config;
  config.rescore_interval_s = 1'000'000;  // periodic rebuilds out of the picture
  MapMaker maker{&fx.mapping, &clock, config};
  maker.watch(&monitor);

  const auto initial = maker.current()->map(0, std::nullopt, "www.g.cdn.example");
  ASSERT_TRUE(initial.has_value());
  victim.store(initial->deployment, std::memory_order_release);

  maker.start(1h);  // only the monitor can trigger a rebuild now
  const auto flipped_at = std::chrono::steady_clock::now();
  victim_healthy.store(false, std::memory_order_release);
  // Advance simulated time so the monitor's probes come due (probe
  // interval 2s x down threshold 3); the rebuild thread runs the probes.
  const auto deadline = flipped_at + 10s;
  while (maker.rebuilds_for(RebuildReason::liveness) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    clock.advance(2);
    std::this_thread::sleep_for(1ms);
  }
  const auto detected_at = std::chrono::steady_clock::now();
  maker.stop();

  ASSERT_GE(maker.rebuilds_for(RebuildReason::liveness), 1U)
      << "background thread never reacted to the liveness transition";
  // Bound the re-map latency: well under the 10s deadline even under
  // sanitizer overhead (every advance wakes the thread; probes were due
  // within a few advances).
  EXPECT_LT(detected_at - flipped_at, 5s);
  const auto snapshot = maker.current();
  const cdn::DeploymentId dead = victim.load(std::memory_order_acquire);
  EXPECT_TRUE(snapshot->clusters()[dead].servers.empty());
  const auto remapped = snapshot->map(0, std::nullopt, "www.g.cdn.example");
  ASSERT_TRUE(remapped.has_value());
  EXPECT_NE(remapped->deployment, dead);
}

// Event-driven wake: with down_threshold = 1 (as the serving benchmark
// runs it) and the periodic interval an hour away, a single clock advance
// after the oracle flips is the only thing that can wake the rebuild
// thread. It must produce exactly one liveness rebuild, and exactly one
// liveness -> publish latency sample.
TEST(MapMakerLiveness, OneClockAdvanceWakesTheRebuildThread) {
  LivenessFixture fx;
  util::SimClock clock;
  std::atomic<cdn::DeploymentId> victim{0};
  std::atomic<bool> victim_healthy{true};
  cdn::LivenessConfig liveness;
  liveness.down_threshold = 1;
  cdn::LivenessMonitor monitor{
      &fx.network, &clock,
      [&](cdn::DeploymentId id, std::size_t) {
        return id != victim.load(std::memory_order_acquire) ||
               victim_healthy.load(std::memory_order_acquire);
      },
      liveness};

  MapMakerConfig config;
  config.rescore_interval_s = 1'000'000;
  MapMaker maker{&fx.mapping, &clock, config};
  maker.watch(&monitor);
  const auto initial = maker.current()->map(0, std::nullopt, "www.g.cdn.example");
  ASSERT_TRUE(initial.has_value());
  victim.store(initial->deployment, std::memory_order_release);

  maker.start(1h);
  // Let the thread finish its start-up probe round first, so that only
  // the clock advance below can run the round that sees the failure.
  maker.request_rebuild();
  const auto wait_for = [&](RebuildReason reason) {
    const auto deadline = std::chrono::steady_clock::now() + 1s;
    while (maker.rebuilds_for(reason) == 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
  };
  wait_for(RebuildReason::requested);
  ASSERT_EQ(maker.rebuilds_for(RebuildReason::requested), 1U);
  victim_healthy.store(false, std::memory_order_release);
  clock.advance(liveness.probe_interval_s);
  wait_for(RebuildReason::liveness);
  maker.stop();

  EXPECT_EQ(maker.rebuilds_for(RebuildReason::liveness), 1U);
  EXPECT_EQ(maker.registry().histogram("eum_control_liveness_publish_latency_us").snapshot().count,
            1U);
  const auto remapped = maker.current()->map(0, std::nullopt, "www.g.cdn.example");
  ASSERT_TRUE(remapped.has_value());
  EXPECT_NE(remapped->deployment, initial->deployment);
}

// Second bug: rebuild_with_reason recorded the transition counter AFTER
// the build sampled liveness. A transition landing between scoring and
// publish was marked "seen" without ever being scored, so the next tick
// did not rebuild and the dead cluster kept serving until the periodic
// interval. The after_build_hook is the injection seam for exactly that
// window.
TEST(MapMakerLiveness, MidBuildTransitionSurvivesToTheNextTick) {
  LivenessFixture fx;
  util::SimClock clock;
  std::atomic<bool> cluster0_healthy{true};
  cdn::LivenessMonitor monitor{&fx.network, &clock,
                               [&](cdn::DeploymentId id, std::size_t) {
                                 return id != 0 ||
                                        cluster0_healthy.load(std::memory_order_acquire);
                               }};

  std::atomic<bool> armed{false};
  cdn::LivenessMonitor* monitor_ptr = &monitor;
  MapMakerConfig config;
  config.rescore_interval_s = 1'000'000;
  config.after_build_hook = [&] {
    if (!armed.exchange(false, std::memory_order_acq_rel)) return;
    // The build has read liveness; kill cluster 0 in the window before
    // the maker records what it has seen.
    cluster0_healthy.store(false, std::memory_order_release);
    for (int i = 0; i < 3; ++i) {
      clock.advance(2);
      (void)monitor_ptr->tick();
    }
  };
  MapMaker maker{&fx.mapping, &clock, config};
  maker.watch(&monitor);
  ASSERT_FALSE(maker.tick());

  armed.store(true, std::memory_order_release);
  const auto built = maker.rebuild_now(true);
  // The transition landed after scoring: this snapshot must still carry
  // the old liveness...
  EXPECT_FALSE(built->clusters()[0].servers.empty());
  ASSERT_GT(monitor.transitions(), 0U);
  // ...and the very next tick must treat it as unseen and republish.
  EXPECT_TRUE(maker.tick()) << "mid-build transition was lost";
  EXPECT_GE(maker.rebuilds_for(RebuildReason::liveness), 1U);
  EXPECT_TRUE(maker.current()->clusters()[0].servers.empty());
}

// ---------------------------------------------------------------------------
// TSan-gated: sharded scoring in the background thread racing
// request_rebuild(), oracle flips, and lock-free readers.

TEST(ShardedConcurrency, PoolScoringRacesRequestsAndReaders) {
  LivenessFixture fx;
  util::SimClock clock;
  std::atomic<bool> cluster0_healthy{true};
  cdn::LivenessMonitor monitor{&fx.network, &clock,
                               [&](cdn::DeploymentId id, std::size_t) {
                                 return id != 0 ||
                                        cluster0_healthy.load(std::memory_order_acquire);
                               }};
  MapMakerConfig config;
  config.rescore_interval_s = 1'000'000;
  config.scoring_shards = 4;
  config.publish_unchanged = true;
  MapMaker maker{&fx.mapping, &clock, config};
  maker.watch(&monitor);
  maker.start(2ms);

  std::atomic<bool> stop{false};
  std::thread flipper{[&] {
    bool healthy = true;
    while (!stop.load(std::memory_order_relaxed)) {
      healthy = !healthy;
      cluster0_healthy.store(healthy, std::memory_order_release);
      clock.advance(2);
      std::this_thread::sleep_for(1ms);
    }
  }};

  std::uint64_t served = 0;
  for (int i = 0; i < 200; ++i) {
    if (i % 10 == 0) maker.request_rebuild();
    const auto snapshot = maker.current();
    const auto ldns = static_cast<topo::LdnsId>(i % fx.world.ldnses.size());
    if (snapshot->map(ldns, std::nullopt, "www.g.cdn.example")) ++served;
    std::this_thread::sleep_for(500us);
  }
  stop.store(true, std::memory_order_relaxed);
  flipper.join();
  maker.stop();
  EXPECT_GT(served, 0U);
  EXPECT_GE(maker.version(), 2U);  // republishes really happened
}

}  // namespace
}  // namespace eum::control
