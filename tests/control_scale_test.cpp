// Scale machinery of the map-making control plane: the latency-vector
// MappingUnits partition, the once-ranked unit lists every generation
// shares (each served decision pinned to a brute-force reference, each
// republish to a from-scratch build), and
// the two liveness regression suites — the background thread that must
// notice a watched monitor, and the mid-build transition that must
// survive to the next tick. ControlConcurrency runs under TSan via
// scripts/tsan_check.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
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
// The shared ranking: Scoring ranks every unit's list once, dead or alive,
// and a rebuild only freezes liveness. Every served decision is pinned to
// a brute-force reference that knows nothing of the lists: the best
// cluster by (score, id) with a live server, on the query's own
// ping-target column.

constexpr std::string_view kDomain = "www.g.cdn.example";

struct RankingFixture {
  const topo::World& world = tiny_world();
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 40);
  cdn::MappingSystem mapping{&world, &network, &test_latency(), cdn::MappingConfig{}};

  [[nodiscard]] float score(cdn::DeploymentId d, topo::PingTargetId target) const {
    return cdn::path_score(mapping.config().traffic_class, mapping.mesh().rtt_ms(d, target),
                           mapping.mesh().loss_rate(d, target));
  }

  /// Does the cluster have a live server in the network right now?
  [[nodiscard]] bool live(cdn::DeploymentId d) const {
    const cdn::Deployment& deployment = network.deployments()[d];
    return deployment.alive &&
           std::any_of(deployment.servers.begin(), deployment.servers.end(),
                       [](const cdn::Server& server) { return server.alive; });
  }

  /// The best live cluster on a target's column, by (score, id).
  [[nodiscard]] std::optional<cdn::DeploymentId> best_live(topo::PingTargetId target) const {
    std::optional<cdn::DeploymentId> best;
    for (std::size_t d = 0; d < network.size(); ++d) {
      const auto id = static_cast<cdn::DeploymentId>(d);
      if (live(id) && (!best || score(id, target) < score(*best, target))) best = id;
    }
    return best;
  }

  /// The CANS reference: the first live entry of the LDNS's Scoring list,
  /// else the scan of its own ping target's column.
  [[nodiscard]] std::optional<cdn::DeploymentId> best_cans(const topo::Ldns& ldns) const {
    for (const cdn::Candidate& candidate : mapping.scoring().cluster_candidates(ldns.id)) {
      if (std::isfinite(candidate.score_ms) && live(candidate.deployment)) {
        return candidate.deployment;
      }
    }
    return best_live(ldns.ping_target);
  }
};

/// Does a served decision name `chosen` with the servers pick_servers
/// ranks and the mesh RTT from `chosen` to `target`?
::testing::AssertionResult serves(const MapSnapshot& snapshot,
                                  const std::optional<cdn::MapResult>& got,
                                  std::optional<cdn::DeploymentId> chosen,
                                  topo::PingTargetId target, const cdn::PingMesh& mesh) {
  if (got.has_value() != chosen.has_value()) {
    return ::testing::AssertionFailure()
           << (got ? "served cluster " + std::to_string(got->deployment) : "served nothing")
           << ", reference "
           << (chosen ? "cluster " + std::to_string(*chosen) : "nothing");
  }
  if (!got) return ::testing::AssertionSuccess();
  cdn::ServerList servers;
  snapshot.pick_servers(*chosen, kDomain, servers);
  if (got->deployment != *chosen || got->servers != servers ||
      got->expected_rtt_ms != mesh.rtt_ms(*chosen, target)) {
    return ::testing::AssertionFailure() << "served cluster " << got->deployment
                                         << ", reference cluster " << *chosen;
  }
  return ::testing::AssertionSuccess();
}

// Two hundred seeded liveness steps, each killing or reviving one to three
// clusters and maybe flipping a single server, each republished. One step
// kills every cluster of unit 0's list, so that unit serves from the
// column scan until a later step revives them. After every publish, each
// block's EU decision and each LDNS's NS and CANS decisions must equal
// the brute-force reference.
TEST(MapSnapshot, ServesTheBestLiveClusterAcrossSeededFlaps) {
  RankingFixture fx;
  const std::size_t top_k = fx.mapping.config().scoring_top_k;
  const std::size_t clusters = fx.network.size();
  ASSERT_GT(clusters, 2 * top_k);
  MapMaker maker{&fx.mapping};
  // Unit 0's list on the fresh map, where every cluster is alive.
  const auto fresh = maker.current()->unit_candidates(0);
  const std::vector<cdn::Candidate> listed(fresh.begin(), fresh.end());
  ASSERT_EQ(listed.size(), top_k);

  const auto check = [&](int step) {
    const auto snapshot = maker.current();
    const cdn::PingMesh& mesh = fx.mapping.mesh();
    for (const topo::ClientBlock& block : fx.world.blocks) {
      ASSERT_TRUE(serves(*snapshot, snapshot->map(0, block.id, kDomain),
                         fx.best_live(block.ping_target), block.ping_target, mesh))
          << "EU, step " << step << " block " << block.id;
    }
    for (const topo::Ldns& ldns : fx.world.ldnses) {
      ASSERT_TRUE(serves(*snapshot, snapshot->map(ldns.id, std::nullopt, kDomain),
                         fx.best_live(ldns.ping_target), ldns.ping_target, mesh))
          << "NS, step " << step << " ldns " << ldns.id;
      ASSERT_TRUE(serves(*snapshot, snapshot->map_cluster(ldns.id, kDomain), fx.best_cans(ldns),
                         ldns.ping_target, mesh))
          << "CANS, step " << step << " ldns " << ldns.id;
    }
  };

  check(-1);
  ASSERT_FALSE(HasFatalFailure());
  std::mt19937 rng{22};
  const auto below = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  const auto is_alive = [&](cdn::DeploymentId d) { return fx.network.deployments()[d].alive; };
  constexpr int kKillListed = 80;
  constexpr int kReviveListed = 120;
  for (int step = 0; step < 200; ++step) {
    if (step == kKillListed || step == kReviveListed) {
      for (const cdn::Candidate& candidate : listed) {
        fx.network.set_cluster_alive(candidate.deployment, step == kReviveListed);
      }
    } else {
      for (std::size_t flaps = 1 + below(3); flaps > 0; --flaps) {
        const auto d = static_cast<cdn::DeploymentId>(below(clusters));
        std::size_t dead = 0;
        for (std::size_t id = 0; id < clusters; ++id) {
          dead += is_alive(static_cast<cdn::DeploymentId>(id)) ? 0 : 1;
        }
        // Kills stop at a quarter of the network, so most units keep
        // finding a live cluster on their lists.
        if (!is_alive(d) || dead < clusters / 4) fx.network.set_cluster_alive(d, !is_alive(d));
      }
      if (below(2) == 0) {
        const auto d = static_cast<cdn::DeploymentId>(below(clusters));
        const std::size_t server = below(fx.network.deployments()[d].servers.size());
        fx.network.set_server_alive(d, server,
                                    !fx.network.deployments()[d].servers[server].alive);
      }
    }
    (void)maker.rebuild_now(true);
    check(step);
    ASSERT_FALSE(HasFatalFailure()) << "step " << step;
  }
}

// A republish borrows the one ranking: the same table, unchanged, in
// every generation, whatever liveness does.
TEST(MapSnapshot, RebuildSharesTheRanking) {
  RankingFixture fx;
  MapMaker maker{&fx.mapping};
  const auto fresh = maker.current();
  const std::size_t units = fresh->units().unit_count();
  const cdn::DeploymentId victim = fresh->unit_candidates(0)[0].deployment;

  fx.network.set_cluster_alive(victim, false);
  const auto after_kill = maker.rebuild_now(true);
  fx.network.set_cluster_alive(victim, true);
  const auto after_revive = maker.rebuild_now(true);
  ASSERT_EQ(after_revive->version(), fresh->version() + 2);

  for (const auto& generation : {after_kill, after_revive}) {
    for (std::size_t u = 0; u < units; ++u) {
      const auto unit = static_cast<MappingUnits::UnitId>(u);
      const auto was = fresh->unit_candidates(unit);
      const auto now = generation->unit_candidates(unit);
      ASSERT_EQ(now.data(), was.data()) << "unit " << u;
      ASSERT_EQ(now.size(), was.size()) << "unit " << u;
    }
  }
  // The dead cluster stayed on the list it heads; pick() skipped it.
  EXPECT_EQ(after_kill->unit_candidates(0)[0].deployment, victim);
  EXPECT_TRUE(after_kill->clusters()[victim].servers.empty());
}

// With every cluster of a unit's list dead, the unit scans its column on
// each query: map() serves the brute-force best live cluster, and explain
// lists the dead candidates, flags the scan and marks the served cluster.
TEST(MapSnapshot, UnitWithEveryListedClusterDeadScansItsColumn) {
  RankingFixture fx;
  MapMaker maker{&fx.mapping};
  const topo::ClientBlock& block = fx.world.blocks.front();
  const MappingUnits::UnitId unit = fx.mapping.units().unit_of(block.ping_target);
  const auto listed = maker.current()->unit_candidates(unit);
  for (const cdn::Candidate& candidate : listed) {
    fx.network.set_cluster_alive(candidate.deployment, false);
  }
  const auto snapshot = maker.rebuild_now(true);

  const std::optional<cdn::DeploymentId> best = fx.best_live(block.ping_target);
  ASSERT_TRUE(best.has_value());
  const auto served = snapshot->map(0, block.id, kDomain);
  ASSERT_TRUE(serves(*snapshot, served, best, block.ping_target, fx.mapping.mesh()));

  const MapSnapshot::MapExplanation explanation = snapshot->explain(0, block.id, kDomain);
  EXPECT_TRUE(explanation.fallback_scan);
  ASSERT_EQ(explanation.candidates.size(), listed.size() + 1);
  for (std::size_t i = 0; i < listed.size(); ++i) {
    EXPECT_EQ(explanation.candidates[i].deployment, listed[i].deployment) << "slot " << i;
    EXPECT_FALSE(explanation.candidates[i].alive) << "slot " << i;
    EXPECT_FALSE(explanation.candidates[i].chosen) << "slot " << i;
  }
  const MapSnapshot::ExplainCandidate& chosen = explanation.candidates.back();
  EXPECT_TRUE(chosen.chosen);
  EXPECT_EQ(chosen.deployment, served->deployment);
  ASSERT_TRUE(explanation.result.has_value());
  EXPECT_EQ(explanation.result->deployment, served->deployment);
}

// ---------------------------------------------------------------------------
// Republishes against from-scratch builds: a rebuild reuses the ranking
// made once at construction and only freezes liveness, so after any flap
// sequence it must serve exactly as a mapping system built afresh over
// the same liveness, with its own ping mesh, unit partition and Scoring.

/// A from-scratch mapping system over the fixture's current liveness.
/// Its published snapshot borrows it, so it outlives the comparison.
std::unique_ptr<cdn::MappingSystem> full_build(RankingFixture& fx) {
  return std::make_unique<cdn::MappingSystem>(&fx.world, &fx.network, &test_latency(),
                                              fx.mapping.config());
}

::testing::AssertionResult same_answer(const std::optional<cdn::MapResult>& republished,
                                       const std::optional<cdn::MapResult>& full) {
  if (republished.has_value() != full.has_value()) {
    return ::testing::AssertionFailure()
           << (republished ? "republish served, full build did not"
                           : "full build served, republish did not");
  }
  if (republished && (republished->deployment != full->deployment ||
                      republished->servers != full->servers ||
                      republished->expected_rtt_ms != full->expected_rtt_ms)) {
    return ::testing::AssertionFailure() << "republish served cluster " << republished->deployment
                                         << ", full build cluster " << full->deployment;
  }
  return ::testing::AssertionSuccess();
}

TEST(DeltaRebuild, IncrementalEqualsFullAcrossFlapSequence) {
  RankingFixture fx;
  MapMaker maker{&fx.mapping};

  const auto compare = [&](const char* step) {
    const auto republished = maker.rebuild_now(true);
    const auto full = full_build(fx);
    const auto reference = full->snapshot();
    // A separate table, so the equality below is not a pointer test.
    ASSERT_NE(&republished->scoring(), &reference->scoring()) << step;
    ASSERT_TRUE(republished->serving_equal(*reference)) << step;
    for (const topo::ClientBlock& block : fx.world.blocks) {
      ASSERT_TRUE(same_answer(republished->map(0, block.id, kDomain),
                              reference->map(0, block.id, kDomain)))
          << "EU, " << step << ", block " << block.id;
    }
    for (const topo::Ldns& ldns : fx.world.ldnses) {
      ASSERT_TRUE(same_answer(republished->map(ldns.id, std::nullopt, kDomain),
                              reference->map(ldns.id, std::nullopt, kDomain)))
          << "NS, " << step << ", ldns " << ldns.id;
      ASSERT_TRUE(same_answer(republished->map_cluster(ldns.id, kDomain),
                              reference->map_cluster(ldns.id, kDomain)))
          << "CANS, " << step << ", ldns " << ldns.id;
    }
  };

  compare("fresh");

  fx.network.set_cluster_alive(3, false);
  compare("kill cluster 3");

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

// The seeded generator of ServesTheBestLiveClusterAcrossSeededFlaps, each
// republish pinned to a from-scratch build. Step 80 kills every cluster of
// unit 0's list and one more, so that unit serves from its column scan,
// and the next step kills the best live cluster past twice the list.
TEST(DeltaRebuild, SeededFlapSequenceEqualsFull) {
  RankingFixture fx;
  const std::size_t top_k = fx.mapping.config().scoring_top_k;
  const std::size_t clusters = fx.network.size();
  ASSERT_GT(clusters, 2 * top_k);
  MapMaker maker{&fx.mapping};

  // Unit 0's whole column, dead or alive, in (score, id) order.
  const topo::PingTargetId rep = fx.mapping.units().representative(0);
  std::vector<cdn::DeploymentId> column(clusters);
  for (std::size_t d = 0; d < clusters; ++d) column[d] = static_cast<cdn::DeploymentId>(d);
  std::stable_sort(column.begin(), column.end(), [&](cdn::DeploymentId a, cdn::DeploymentId b) {
    return fx.score(a, rep) < fx.score(b, rep);
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
      fx.network.set_cluster_alive(*past, false);
    } else {
      for (std::size_t flaps = 1 + below(3); flaps > 0; --flaps) {
        const auto d = static_cast<cdn::DeploymentId>(below(clusters));
        const auto dead = static_cast<std::size_t>(
            std::count_if(column.begin(), column.end(), [&](auto id) { return !is_alive(id); }));
        // Kills stop at a quarter of the network, so most units keep
        // finding a live cluster on their lists.
        if (!is_alive(d) || dead < clusters / 4) fx.network.set_cluster_alive(d, !is_alive(d));
      }
      if (below(2) == 0) {
        const auto d = static_cast<cdn::DeploymentId>(below(clusters));
        const std::size_t server = below(fx.network.deployments()[d].servers.size());
        fx.network.set_server_alive(d, server,
                                    !fx.network.deployments()[d].servers[server].alive);
      }
    }
    const auto republished = maker.rebuild_now(true);
    const auto full = full_build(fx);
    ASSERT_TRUE(republished->serving_equal(*full->snapshot())) << "step " << step;
  }
}

TEST(MapSnapshot, SnapshotExposesTheUnitPartition) {
  RankingFixture fx;
  MapMaker maker{&fx.mapping};
  const auto snapshot = maker.current();
  EXPECT_EQ(snapshot->units().fingerprint(), maker.units().fingerprint());
  // Unit candidates are (score, id)-ordered.
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
// TSan-gated: background rebuilds racing request_rebuild(), oracle flips,
// and lock-free readers.

TEST(ControlConcurrency, BackgroundRebuildsRaceRequestsAndReaders) {
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
