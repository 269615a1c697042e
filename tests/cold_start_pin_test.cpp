// Bit-identity pin for the cold-start map-making path on the serving
// benchmark's world (seed 42, 200k blocks, no geo trie, 300 clusters,
// cluster scores off, one scoring shard — perfbench's build_stack).
//
// Each table the path produces is hashed with FNV-1a over its exact bits:
// the generated world, every ping-mesh cell, the mapping-unit partition
// and the first snapshot's per-unit candidates. The hex strings were
// recorded from the implementation that ranked anycast sites inside
// std::sort's comparator, measured the mesh through two haversines per
// cell and scored every column with a partial_sort, so a speed-up that
// moves any output bit of world generation, measurement, partitioning or
// scoring fails here, and the failing component names the table that
// moved. Every unit of this world is a single target, so the snapshot's
// hash is also the one its per-target candidate lists had when the
// mapping system still kept them.
#include <gtest/gtest.h>

#include <cstdint>

#include "cdn/map_snapshot.h"
#include "cdn/mapping.h"
#include "cdn/mapping_units.h"
#include "control/map_maker.h"
#include "pin_hash.h"
#include "topo/world_gen.h"

namespace eum {
namespace {

using testing::Fnv;

struct BenchmarkStack {
  topo::World world;
  topo::LatencyModel latency;
  cdn::CdnNetwork network;
  cdn::MappingSystem mapping;
  control::MapMaker maker;

  static topo::WorldGenConfig world_config() {
    topo::WorldGenConfig config;
    config.seed = 42;
    config.target_blocks = 200'000;
    config.build_geodb = false;
    return config;
  }
  static cdn::MappingConfig mapping_config() {
    cdn::MappingConfig config;
    config.precompute_cluster_scores = false;
    return config;
  }
  static control::MapMakerConfig maker_config() {
    control::MapMakerConfig config;
    config.scoring_shards = 1;
    return config;
  }

  BenchmarkStack()
      : world(topo::generate_world(world_config())),
        latency(topo::LatencyParams{}, world_config().seed),
        network(cdn::CdnNetwork::build(world, 300)),
        mapping(&world, &network, &latency, mapping_config()),
        maker(&mapping, nullptr, maker_config()) {}
};

TEST(ColdStartPin, BenchmarkWorldTablesAreUnchanged) {
  const BenchmarkStack stack;
  const topo::World& world = stack.world;

  Fnv world_hash;
  for (const topo::ClientBlock& block : world.blocks) {
    world_hash.u64(block.id);
    world_hash.text(block.prefix.to_string());
    world_hash.point(block.location);
    world_hash.u64(block.country);
    world_hash.u64(block.as_index);
    world_hash.u64(block.city);
    world_hash.f64(block.demand);
    world_hash.u64(block.ping_target);
    for (const topo::LdnsUse& use : world.ldns_uses(block)) {
      world_hash.u64(use.ldns);
      world_hash.f64(use.fraction);
    }
  }
  for (const topo::Ldns& ldns : world.ldnses) {
    world_hash.u64(ldns.id);
    world_hash.text(ldns.address.to_string());
    world_hash.point(ldns.location);
    world_hash.u64(ldns.country);
    world_hash.u64(static_cast<std::uint64_t>(ldns.type));
    world_hash.u64(ldns.supports_ecs ? 1 : 0);
    world_hash.u64(ldns.ping_target);
  }
  for (const topo::PingTarget& target : world.ping_targets) {
    world_hash.u64(target.id);
    world_hash.point(target.location);
    world_hash.u64(target.country);
  }
  for (const topo::DeploymentSite& site : world.deployment_universe) {
    world_hash.u64(site.id);
    world_hash.point(site.location);
  }

  const cdn::PingMesh& mesh = stack.mapping.mesh();
  Fnv mesh_hash;
  for (std::size_t d = 0; d < mesh.deployment_count(); ++d) {
    for (std::size_t t = 0; t < mesh.target_count(); ++t) {
      const auto target = static_cast<topo::PingTargetId>(t);
      mesh_hash.f32(mesh.rtt_ms(d, target));
      mesh_hash.f32(mesh.loss_rate(d, target));
    }
  }

  const cdn::MappingUnits& units = stack.maker.units();
  Fnv units_hash;
  units_hash.u64(units.unit_count());
  units_hash.u64(units.fingerprint());
  for (std::size_t t = 0; t < units.target_count(); ++t) {
    units_hash.u64(units.unit_of(static_cast<topo::PingTargetId>(t)));
  }

  const auto snapshot = stack.maker.current();
  Fnv snapshot_hash;
  for (std::size_t u = 0; u < units.unit_count(); ++u) {
    for (const cdn::Candidate& candidate :
         snapshot->unit_candidates(static_cast<cdn::MappingUnits::UnitId>(u))) {
      snapshot_hash.u64(candidate.deployment);
      snapshot_hash.f32(candidate.score_ms);
    }
  }

  EXPECT_EQ(world.blocks.size(), 200'000U);
  EXPECT_EQ(world.ping_targets.size(), 4137U);
  EXPECT_EQ(units.unit_count(), 4137U);
  EXPECT_EQ(world_hash.hex(), "286145c988613ec7");
  EXPECT_EQ(mesh_hash.hex(), "48db8d2ee7523061");
  EXPECT_EQ(units_hash.hex(), "a67429a5c440aac7");
  EXPECT_EQ(snapshot_hash.hex(), "796061d9628cc42e");
}

}  // namespace
}  // namespace eum
