// Load-accounting invariants of the mapping decision: every charged unit
// lands in the mapping system's LoadLedger, and no cluster takes more
// than its capacity.
#include <gtest/gtest.h>

#include "cdn/map_snapshot.h"
#include "cdn/mapping.h"
#include "test_world.h"
#include "util/rng.h"

namespace eum::cdn {
namespace {

using eum::testing::test_latency;
using eum::testing::tiny_world;

double ledger_total(MappingSystem& mapping) {
  double total = 0.0;
  for (std::size_t d = 0; d < mapping.network().size(); ++d) total += mapping.loads().load(d);
  return total;
}

TEST(LoadConservation, ClusterLoadEqualsAssignedUnits) {
  CdnNetwork network = CdnNetwork::build(tiny_world(), 30, 6, 1e9);
  MappingSystem mapping{&tiny_world(), &network, &test_latency(), MappingConfig{}};

  double assigned = 0.0;
  util::Rng rng{3};
  for (int i = 0; i < 500; ++i) {
    const auto block = static_cast<topo::BlockId>(rng.below(tiny_world().blocks.size()));
    const double units = rng.uniform(0.5, 3.0);
    if (mapping.map_block(block, "load.example", units)) assigned += units;
  }
  EXPECT_NEAR(ledger_total(mapping), assigned, 1e-6);
  // The ledger survives a republish: load state is continuous across maps.
  mapping.rescore();
  EXPECT_EQ(&mapping.snapshot()->loads(), &mapping.loads());
  EXPECT_NEAR(ledger_total(mapping), assigned, 1e-6);
}

TEST(LoadConservation, ResetLoadClearsEverything) {
  CdnNetwork network = CdnNetwork::build(tiny_world(), 10, 4, 1e9);
  MappingSystem mapping{&tiny_world(), &network, &test_latency(), MappingConfig{}};
  const auto result = mapping.map_block(0, "x.example", 5.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(mapping.loads().load(result->deployment), 5.0);
  mapping.loads().reset();
  for (std::size_t d = 0; d < network.size(); ++d) {
    EXPECT_DOUBLE_EQ(mapping.loads().load(d), 0.0);
  }
}

TEST(LoadConservation, CapacityCapsRespectedUnderSaturation) {
  // With capacity 10 per cluster, no cluster's ledger load exceeds it.
  CdnNetwork network = CdnNetwork::build(tiny_world(), 20, 4, 10.0);
  MappingSystem mapping{&tiny_world(), &network, &test_latency(), MappingConfig{}};
  util::Rng rng{4};
  int denied = 0;
  for (int i = 0; i < 300; ++i) {
    const auto block = static_cast<topo::BlockId>(rng.below(tiny_world().blocks.size()));
    if (!mapping.map_block(block, "saturate.example", 1.0)) ++denied;
  }
  for (std::size_t d = 0; d < network.size(); ++d) {
    EXPECT_LE(mapping.loads().load(d), 10.0 + 1e-9);
  }
  // Exactly the platform capacity was handed out; the rest was denied.
  EXPECT_NEAR(ledger_total(mapping), 20 * 10.0, 1e-6);
  EXPECT_EQ(denied, 300 - 200);
}

}  // namespace
}  // namespace eum::cdn
