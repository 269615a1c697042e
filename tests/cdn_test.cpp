#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cdn/map_snapshot.h"
#include "cdn/mapping.h"
#include "cdn/mapping_units.h"
#include "cdn/network.h"
#include "cdn/ping_mesh.h"
#include "cdn/scoring.h"
#include "test_world.h"
#include "util/hash.h"

namespace eum::cdn {
namespace {

using eum::testing::small_world;
using eum::testing::test_latency;
using eum::testing::tiny_world;

// ---------- CdnNetwork ----------

TEST(CdnNetwork, BuildAssignsDistinctServerBlocks) {
  const auto& world = tiny_world();
  const CdnNetwork network = CdnNetwork::build(world, 40, 6);
  EXPECT_EQ(network.size(), 40U);
  std::set<std::string> blocks;
  for (const Deployment& d : network.deployments()) {
    EXPECT_EQ(d.servers.size(), 6U);
    EXPECT_TRUE(blocks.insert(d.server_block.to_string()).second);
    for (const Server& s : d.servers) {
      EXPECT_TRUE(d.server_block.contains(net::IpAddr{s.address}));
    }
  }
}

TEST(CdnNetwork, DeploymentOfFindsOwner) {
  const auto& world = tiny_world();
  const CdnNetwork network = CdnNetwork::build(world, 10);
  const Deployment& d = network.deployments()[3];
  EXPECT_EQ(network.deployment_of(net::IpAddr{d.servers[0].address}), &d);
  EXPECT_EQ(network.deployment_of(*net::IpAddr::parse("8.8.8.8")), nullptr);
}

TEST(CdnNetwork, BuildRejectsBadArguments) {
  const auto& world = tiny_world();
  EXPECT_THROW(CdnNetwork::build(world, world.deployment_universe.size() + 1),
               std::invalid_argument);
  EXPECT_THROW(CdnNetwork::build(world, 5, 0), std::invalid_argument);
  EXPECT_THROW(CdnNetwork::build(world, 5, 300), std::invalid_argument);
}

TEST(CdnNetwork, LivenessControls) {
  const auto& world = tiny_world();
  CdnNetwork network = CdnNetwork::build(world, 5, 3);
  network.set_cluster_alive(2, false);
  EXPECT_FALSE(network.deployments()[2].alive);
  network.set_server_alive(3, 1, false);
  EXPECT_EQ(network.deployments()[3].alive_servers(), 2U);
  EXPECT_THROW(network.set_cluster_alive(99, false), std::out_of_range);
}

// ---------- PingMesh ----------

TEST(PingMesh, DimensionsMatch) {
  const auto& world = tiny_world();
  const CdnNetwork network = CdnNetwork::build(world, 12);
  const PingMesh mesh = PingMesh::measure(world, network, test_latency());
  EXPECT_EQ(mesh.deployment_count(), 12U);
  EXPECT_EQ(mesh.target_count(), world.ping_targets.size());
  for (std::size_t d = 0; d < mesh.deployment_count(); ++d) {
    EXPECT_EQ(mesh.row(d).size(), mesh.target_count());
    for (std::size_t t = 0; t < mesh.target_count(); ++t) {
      EXPECT_GT(mesh.rtt_ms(d, static_cast<topo::PingTargetId>(t)), 0.0F);
    }
  }
}

TEST(PingMesh, NetworkAndSiteMeasurementsAgree) {
  // Measuring through a CdnNetwork must equal measuring the raw sites
  // (salting is by universe site id).
  const auto& world = tiny_world();
  const CdnNetwork network = CdnNetwork::build(world, 8);
  const PingMesh via_network = PingMesh::measure(world, network, test_latency());
  const PingMesh via_sites = PingMesh::measure_sites(
      world, std::span(world.deployment_universe.data(), 8), test_latency());
  for (std::size_t d = 0; d < 8; ++d) {
    for (std::size_t t = 0; t < via_network.target_count(); ++t) {
      EXPECT_FLOAT_EQ(via_network.rtt_ms(d, static_cast<topo::PingTargetId>(t)),
                      via_sites.rtt_ms(d, static_cast<topo::PingTargetId>(t)));
    }
  }
}

// Every cell, through either entry point, is bit-equal to the latency
// model's own answer for the pair under the mesh's salt (the universe site
// id, so a row does not depend on its position in the measured set).
TEST(PingMesh, CellsMatchTheLatencyModel) {
  const auto& world = small_world();
  const topo::LatencyModel& latency = test_latency();
  const auto expect_cells = [&](const PingMesh& mesh, std::span<const topo::DeploymentSite> rows) {
    ASSERT_EQ(mesh.deployment_count(), rows.size());
    ASSERT_EQ(mesh.target_count(), world.ping_targets.size());
    std::size_t mismatches = 0;
    for (std::size_t d = 0; d < rows.size(); ++d) {
      for (std::size_t t = 0; t < mesh.target_count(); ++t) {
        const geo::GeoPoint& to = world.ping_targets[t].location;
        const std::uint64_t salt = util::hash_combine(util::mix64(0xdeb107 + rows[d].id),
                                                      static_cast<std::uint64_t>(t));
        const auto target = static_cast<topo::PingTargetId>(t);
        const float rtt = static_cast<float>(latency.expected_rtt_ms(rows[d].location, to, salt));
        const float loss =
            static_cast<float>(latency.expected_loss_rate(rows[d].location, to, salt));
        if (std::bit_cast<std::uint32_t>(mesh.rtt_ms(d, target)) !=
                std::bit_cast<std::uint32_t>(rtt) ||
            std::bit_cast<std::uint32_t>(mesh.loss_rate(d, target)) !=
                std::bit_cast<std::uint32_t>(loss)) {
          if (mismatches++ == 0) ADD_FAILURE() << "first mismatch: row " << d << " target " << t;
        }
      }
    }
    EXPECT_EQ(mismatches, 0U);
  };

  const CdnNetwork network = CdnNetwork::build(world, 40);
  std::vector<topo::DeploymentSite> network_rows;
  for (const Deployment& deployment : network.deployments()) {
    network_rows.push_back(topo::DeploymentSite{deployment.site_id, deployment.location});
  }
  expect_cells(PingMesh::measure(world, network, latency), network_rows);

  // Every seventh universe site: row index and site id differ.
  std::vector<topo::DeploymentSite> sites;
  for (std::size_t i = 3; i < world.deployment_universe.size(); i += 7) {
    sites.push_back(world.deployment_universe[i]);
  }
  expect_cells(PingMesh::measure_sites(world, sites, latency), sites);
}

// ---------- Scoring ----------

/// The first `k` of a column sorted in full by (score, id), padded with
/// {0, +inf} past the column's end.
std::vector<Candidate> sorted_top_k(std::vector<Candidate> column, std::size_t k) {
  std::sort(column.begin(), column.end(), [](const Candidate& a, const Candidate& b) {
    return a.score_ms != b.score_ms ? a.score_ms < b.score_ms : a.deployment < b.deployment;
  });
  column.resize(k, Candidate{0, std::numeric_limits<float>::infinity()});
  return column;
}

/// The mapping system's current candidate list for ping target `t`.
std::span<const Candidate> unit_list(const MapSnapshot& snapshot, topo::PingTargetId t) {
  return snapshot.unit_candidates(snapshot.units().unit_of(t));
}

MappingConfig top_k_config(std::size_t top_k, TrafficClass klass = TrafficClass::web) {
  MappingConfig config;
  config.scoring_top_k = top_k;
  config.traffic_class = klass;
  return config;
}

// Both candidate tables — the snapshot's per-unit lists and Scoring's CANS
// lists — against a full sort of each column, on a network whose repeated
// sites give pairs of deployments identical columns (exact score ties),
// for a top_k of 1, of 8 and beyond the network's size.
TEST(Scoring, TopKMatchesSortedReference) {
  const auto& world = tiny_world();
  std::vector<std::uint32_t> sites;
  for (std::uint32_t s = 0; s < 12; ++s) sites.push_back(s);
  for (const std::uint32_t repeat : {4U, 0U, 9U, 4U}) sites.push_back(repeat);
  CdnNetwork network = CdnNetwork::build_at(world, sites);
  const PingMesh mesh = PingMesh::measure(world, network, test_latency());
  ASSERT_EQ(mesh.rtt_ms(4, 7), mesh.rtt_ms(12, 7));  // the ties are real

  // The CANS cluster scores, aggregated exactly as Scoring::build does.
  std::vector<std::unordered_map<topo::PingTargetId, double>> members(world.ldnses.size());
  for (const topo::ClientBlock& block : world.blocks) {
    for (const topo::LdnsUse& use : world.ldns_uses(block)) {
      members[use.ldns][block.ping_target] += block.demand * use.fraction;
    }
  }

  for (const TrafficClass klass : {TrafficClass::web, TrafficClass::video}) {
    for (const std::size_t top_k : {std::size_t{1}, std::size_t{8}, network.size() + 3}) {
      const MappingSystem mapping{&world, &network, &test_latency(), top_k_config(top_k, klass)};
      const auto snapshot = mapping.snapshot();
      for (std::size_t t = 0; t < world.ping_targets.size(); ++t) {
        const auto target = static_cast<topo::PingTargetId>(t);
        std::vector<Candidate> column;
        for (std::size_t d = 0; d < network.size(); ++d) {
          column.push_back(Candidate{static_cast<DeploymentId>(d),
                                     path_score(klass, mesh.rtt_ms(d, target),
                                                mesh.loss_rate(d, target))});
        }
        const auto got = unit_list(*snapshot, target);
        ASSERT_EQ(std::vector<Candidate>(got.begin(), got.end()), sorted_top_k(column, top_k))
            << "target " << t << " top_k " << top_k;
      }
      std::size_t clusters = 0;
      for (std::size_t l = 0; l < world.ldnses.size(); ++l) {
        const auto got = mapping.scoring().cluster_candidates(static_cast<topo::LdnsId>(l));
        if (members[l].empty()) {
          EXPECT_TRUE(got.empty()) << "ldns " << l;  // mapped by its own unit list
          continue;
        }
        ++clusters;
        double wsum = 0.0;
        for (const auto& [target, weight] : members[l]) wsum += weight;
        std::vector<Candidate> column;
        for (std::size_t d = 0; d < network.size(); ++d) {
          double score = 0.0;
          for (const auto& [target, weight] : members[l]) {
            score += weight * static_cast<double>(path_score(klass, mesh.rtt_ms(d, target),
                                                             mesh.loss_rate(d, target)));
          }
          column.push_back(Candidate{static_cast<DeploymentId>(d), static_cast<float>(score / wsum)});
        }
        ASSERT_EQ(std::vector<Candidate>(got.begin(), got.end()), sorted_top_k(column, top_k))
            << "ldns " << l << " top_k " << top_k;
      }
      EXPECT_GT(clusters, 0U);
    }
  }
}

TEST(Scoring, TargetCandidatesAreSortedTopK) {
  const auto& world = tiny_world();
  CdnNetwork network = CdnNetwork::build(world, 30);
  const MappingSystem mapping{&world, &network, &test_latency(), top_k_config(5)};
  const auto snapshot = mapping.snapshot();
  for (topo::PingTargetId t = 0; t < 50; ++t) {
    const auto candidates = unit_list(*snapshot, t);
    ASSERT_EQ(candidates.size(), 5U);
    // Sorted ascending and matching a brute-force minimum.
    float brute_min = std::numeric_limits<float>::infinity();
    for (std::size_t d = 0; d < network.size(); ++d) {
      brute_min = std::min(brute_min, mapping.mesh().rtt_ms(d, t));
    }
    EXPECT_FLOAT_EQ(candidates[0].score_ms, brute_min);
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      EXPECT_LE(candidates[i - 1].score_ms, candidates[i].score_ms);
    }
  }
}

TEST(Scoring, TopKLargerThanDeploymentsPadsWithInfinity) {
  const auto& world = tiny_world();
  CdnNetwork network = CdnNetwork::build(world, 3);
  const MappingSystem mapping{&world, &network, &test_latency(), top_k_config(6)};
  const auto candidates = unit_list(*mapping.snapshot(), 0);
  ASSERT_EQ(candidates.size(), 6U);
  EXPECT_TRUE(std::isfinite(candidates[2].score_ms));
  EXPECT_FALSE(std::isfinite(candidates[3].score_ms));
}

TEST(Scoring, ClusterCandidatesFavorClientCentroid) {
  // The best cluster deployment minimizes the weighted mean over the
  // LDNS's member targets; verify against brute force for a busy LDNS.
  const auto& world = tiny_world();
  const CdnNetwork network = CdnNetwork::build(world, 25);
  const PingMesh mesh = PingMesh::measure(world, network, test_latency());
  const Scoring scoring = Scoring::build(world, network, mesh, *MappingUnits::build(mesh), 4);

  // Find the busiest LDNS and its members.
  std::unordered_map<topo::LdnsId, std::unordered_map<topo::PingTargetId, double>> members;
  for (const topo::ClientBlock& block : world.blocks) {
    for (const topo::LdnsUse& use : world.ldns_uses(block)) {
      members[use.ldns][block.ping_target] += block.demand * use.fraction;
    }
  }
  topo::LdnsId busiest = members.begin()->first;
  std::size_t best_size = 0;
  for (const auto& [id, m] : members) {
    if (m.size() > best_size) {
      best_size = m.size();
      busiest = id;
    }
  }
  double brute_best = std::numeric_limits<double>::infinity();
  DeploymentId brute_dep = 0;
  for (std::size_t d = 0; d < network.size(); ++d) {
    double score = 0.0;
    double wsum = 0.0;
    for (const auto& [target, weight] : members[busiest]) {
      score += weight * mesh.rtt_ms(d, target);
      wsum += weight;
    }
    score /= wsum;
    if (score < brute_best) {
      brute_best = score;
      brute_dep = static_cast<DeploymentId>(d);
    }
  }
  const auto candidates = scoring.cluster_candidates(busiest);
  EXPECT_EQ(candidates[0].deployment, brute_dep);
  EXPECT_NEAR(candidates[0].score_ms, brute_best, 1e-2);
}

TEST(Scoring, RejectsMismatchedMesh) {
  const auto& world = tiny_world();
  const CdnNetwork big = CdnNetwork::build(world, 10);
  const CdnNetwork small = CdnNetwork::build(world, 5);
  const PingMesh mesh = PingMesh::measure(world, big, test_latency());
  const auto units = MappingUnits::build(mesh);
  EXPECT_THROW(Scoring::build(world, small, mesh, *units, 4), std::invalid_argument);
  EXPECT_THROW(Scoring::build(world, big, mesh, *units, 0), std::invalid_argument);
}

// ---------- global load balancing: a unit's list, then the full scan ----------

struct LbFixture : ::testing::Test {
  LbFixture()
      : network(CdnNetwork::build(tiny_world(), 20, 4, 100.0)),
        mapping(&tiny_world(), &network, &test_latency(), top_k_config(4)),
        candidates(list_of(0)) {}

  /// Target `t`'s candidate list in the current map, copied.
  [[nodiscard]] std::vector<Candidate> list_of(topo::PingTargetId t) const {
    const auto list = unit_list(*mapping.snapshot(), t);
    return {list.begin(), list.end()};
  }
  [[nodiscard]] std::optional<MapResult> assign(topo::PingTargetId t, double units) const {
    return mapping.snapshot()->map_target(t, "lb.example", units);
  }

  CdnNetwork network;
  MappingSystem mapping;
  std::vector<Candidate> candidates;  ///< target 0's list on the fresh map
};

TEST_F(LbFixture, AssignsBestCandidate) {
  const auto assigned = assign(0, 1.0);
  ASSERT_TRUE(assigned.has_value());
  EXPECT_EQ(assigned->deployment, candidates[0].deployment);
  EXPECT_DOUBLE_EQ(mapping.loads().load(assigned->deployment), 1.0);
}

TEST_F(LbFixture, SkipsDeadCluster) {
  network.set_cluster_alive(candidates[0].deployment, false);
  mapping.rescore();
  const auto assigned = assign(0, 1.0);
  ASSERT_TRUE(assigned.has_value());
  EXPECT_EQ(assigned->deployment, candidates[1].deployment);
  // The republished list still holds the dead cluster; pick() skips it.
  EXPECT_EQ(list_of(0)[0], candidates[0]);
}

TEST_F(LbFixture, SpillsOnOverload) {
  (void)mapping.loads().add(candidates[0].deployment, 99.5);  // capacity 100
  const auto assigned = assign(0, 1.0);
  ASSERT_TRUE(assigned.has_value());
  EXPECT_EQ(assigned->deployment, candidates[1].deployment);
}

// With every listed cluster dead or full, the decision scans the whole
// column and takes the best usable cluster by (score, id).
TEST_F(LbFixture, FullScanFallbackWhenCandidatesDead) {
  network.set_cluster_alive(candidates[0].deployment, false);
  network.set_cluster_alive(candidates[1].deployment, false);
  mapping.rescore();
  const std::vector<Candidate> live = list_of(0);
  for (const Candidate& c : live) (void)mapping.loads().add(c.deployment, 100.0);

  std::optional<DeploymentId> best;
  for (std::size_t d = 0; d < network.size(); ++d) {
    const Deployment& cluster = network.deployments()[d];
    if (!cluster.alive || mapping.loads().load(d) + 1.0 > cluster.capacity) continue;
    if (!best || mapping.mesh().rtt_ms(d, 0) < mapping.mesh().rtt_ms(*best, 0)) {
      best = static_cast<DeploymentId>(d);
    }
  }
  ASSERT_TRUE(best.has_value());
  const auto assigned = assign(0, 1.0);
  ASSERT_TRUE(assigned.has_value());
  EXPECT_EQ(assigned->deployment, *best);
  EXPECT_TRUE(network.deployments()[assigned->deployment].alive);
  EXPECT_TRUE(std::none_of(live.begin(), live.end(), [&](const Candidate& c) {
    return c.deployment == assigned->deployment;
  }));
}

TEST_F(LbFixture, NulloptWhenEverythingDead) {
  for (std::size_t d = 0; d < network.size(); ++d) {
    network.set_cluster_alive(static_cast<DeploymentId>(d), false);
  }
  mapping.rescore();
  EXPECT_FALSE(assign(0, 1.0).has_value());
}

// ---------- local load balancing: rendezvous hashing in the cluster ----------

/// A one-cluster network: every decision lands on cluster 0, so the
/// answer's servers are the local choice alone.
struct OneCluster {
  explicit OneCluster(std::size_t servers)
      : network(CdnNetwork::build(tiny_world(), 1, servers)),
        mapping(&tiny_world(), &network, &test_latency(), MappingConfig{}) {}

  [[nodiscard]] ServerList servers(std::string_view domain) const {
    ServerList out;
    mapping.snapshot()->pick_servers(0, domain, out);
    return out;
  }

  CdnNetwork network;
  MappingSystem mapping;
};

TEST(Rendezvous, SameDomainSameServers) {
  const OneCluster fx{8};
  const auto first = fx.mapping.map_block(0, "www.shop.example");
  const auto second = fx.mapping.map_block(17, "www.shop.example");
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->servers, second->servers);
  EXPECT_EQ(first->servers.size(), 2U);
  EXPECT_EQ(first->servers, fx.servers("www.shop.example"));
}

TEST(Rendezvous, DifferentDomainsSpreadAcrossServers) {
  const OneCluster fx{8};
  std::set<std::uint32_t> used;
  for (int i = 0; i < 40; ++i) {
    for (const net::IpAddr& s : fx.servers("domain-" + std::to_string(i) + ".example")) {
      used.insert(s.v4().value());
    }
  }
  EXPECT_GE(used.size(), 6U);  // rendezvous hashing spreads domains
}

TEST(Rendezvous, SkipsDeadServers) {
  OneCluster fx{4};
  const ServerList before = fx.servers("x.example");
  ASSERT_EQ(before.size(), 2U);
  // Kill the first-ranked server; the answer changes but stays live.
  const Deployment& cluster = fx.network.deployments()[0];
  for (std::size_t i = 0; i < cluster.servers.size(); ++i) {
    if (net::IpAddr{cluster.servers[i].address} == before[0]) {
      fx.network.set_server_alive(0, i, false);
    }
  }
  fx.mapping.rescore();
  const ServerList after = fx.servers("x.example");
  EXPECT_EQ(after.size(), 2U);
  EXPECT_EQ(std::find(after.begin(), after.end(), before[0]), after.end());
  // Minimal disruption: the surviving pick is retained.
  EXPECT_NE(std::find(after.begin(), after.end(), before[1]), after.end());
}

TEST(Rendezvous, DegradedClusterReturnsFewer) {
  OneCluster fx{2};
  fx.network.set_server_alive(0, 0, false);
  fx.mapping.rescore();
  EXPECT_EQ(fx.servers("x.example").size(), 1U);
  fx.network.set_server_alive(0, 1, false);
  fx.mapping.rescore();
  EXPECT_TRUE(fx.servers("x.example").empty());
  EXPECT_FALSE(fx.mapping.map_block(0, "x.example").has_value());
}

}  // namespace
}  // namespace eum::cdn
