// Decision pin for the mapping system on tiny_world, web class, 80
// clusters of 8 servers.
//
// Every map_block / map_ldns / map_cluster result of a fixed call
// sequence is hashed with FNV-1a: whether an answer came back, its
// cluster id, its server addresses in order and the bits of its expected
// RTT. The sequence runs three ways — on a fresh map, after a seeded set
// of cluster and server kills (republished with rescore()), and on a
// network with little capacity where every call charges one unit, so
// clusters fill, answers spill down the candidate lists into the full
// column scan and finally come back empty. The hex strings were recorded
// from the implementation that decided through mutable global and local
// load-balancer objects beside the snapshot path, so moving the decision
// onto one path must leave every bit of every answer where it was.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string_view>

#include "cdn/mapping.h"
#include "pin_hash.h"
#include "test_world.h"
#include "util/rng.h"

namespace eum::cdn {
namespace {

using eum::testing::Fnv;
using eum::testing::test_latency;
using eum::testing::tiny_world;

constexpr std::size_t kClusters = 80;
constexpr std::array<std::string_view, 5> kDomains = {
    "d0.pin.example", "d1.pin.example", "d2.pin.example", "d3.pin.example", "d4.pin.example"};

std::string_view domain_of(std::size_t call) { return kDomains[call % kDomains.size()]; }

void hash_result(Fnv& hash, const std::optional<MapResult>& result) {
  hash.u64(result ? 1 : 0);
  if (!result) return;
  hash.u64(result->deployment);
  hash.u64(result->servers.size());
  for (const net::IpAddr& server : result->servers) hash.u64(server.v4().value());
  hash.f32(result->expected_rtt_ms);
}

/// Every block, then every LDNS by NS, then every LDNS by CANS, each call
/// charging `load_units`. Returns the hash and counts the empty answers.
std::string decision_hash(MappingSystem& mapping, double load_units,
                          std::size_t* empty = nullptr) {
  const topo::World& world = tiny_world();
  Fnv hash;
  std::size_t call = 0;
  std::size_t misses = 0;
  const auto record = [&](const std::optional<MapResult>& result) {
    hash_result(hash, result);
    misses += result ? 0 : 1;
    ++call;
  };
  for (const topo::ClientBlock& block : world.blocks) {
    record(mapping.map_block(block.id, domain_of(call), load_units));
  }
  for (const topo::Ldns& ldns : world.ldnses) {
    record(mapping.map_ldns(ldns.id, domain_of(call), load_units));
  }
  for (const topo::Ldns& ldns : world.ldnses) {
    record(mapping.map_cluster(ldns.id, domain_of(call), load_units));
  }
  if (empty != nullptr) *empty = misses;
  return hash.hex();
}

TEST(MappingPin, FreshMap) {
  CdnNetwork network = CdnNetwork::build(tiny_world(), kClusters);
  MappingSystem mapping{&tiny_world(), &network, &test_latency(), MappingConfig{}};
  EXPECT_EQ(decision_hash(mapping, 0.0), "849d3a2a7241eed9");
}

TEST(MappingPin, AfterSeededKills) {
  // About 7 of 10 clusters die, so some units lose every one of their
  // top_k clusters; about 1 in 4 servers of the survivors die too.
  CdnNetwork network = CdnNetwork::build(tiny_world(), kClusters);
  MappingSystem mapping{&tiny_world(), &network, &test_latency(), MappingConfig{}};
  util::Rng rng{0x6b111};
  for (const Deployment& cluster : network.deployments()) {
    if (rng() % 10 < 7) {
      network.set_cluster_alive(cluster.id, false);
      continue;
    }
    for (std::size_t s = 0; s < cluster.servers.size(); ++s) {
      if (rng() % 4 == 0) network.set_server_alive(cluster.id, s, false);
    }
  }
  mapping.rescore();
  EXPECT_EQ(decision_hash(mapping, 0.0), "e0cabb61682e9f1a");
}

TEST(MappingPin, CapacityLimitedCharging) {
  // 80 clusters x 12 units hold fewer calls than the sequence makes.
  CdnNetwork network = CdnNetwork::build(tiny_world(), kClusters, 8, 12.0);
  MappingSystem mapping{&tiny_world(), &network, &test_latency(), MappingConfig{}};
  std::size_t empty = 0;
  EXPECT_EQ(decision_hash(mapping, 1.0, &empty), "3c3796395a8a2d08");
  EXPECT_GT(empty, 0U);
}

}  // namespace
}  // namespace eum::cdn
