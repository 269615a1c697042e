#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <unordered_set>

#include "measure/analysis.h"
#include "test_world.h"
#include "topo/country_data.h"
#include "topo/public_resolver.h"
#include "topo/world_gen.h"
#include "util/hash.h"

namespace eum::topo {
namespace {

using eum::testing::small_world;
using eum::testing::test_latency;

TEST(CountryData, TableIsSane) {
  const auto countries = default_countries();
  EXPECT_EQ(countries.size(), 25U);  // the paper's top-25 (Fig 6)
  std::set<std::string> codes;
  for (const CountrySpec& c : countries) {
    codes.insert(c.code);
    EXPECT_GT(c.demand_share, 0.0);
    EXPECT_GT(c.radius_miles, 0.0);
    EXPECT_GE(c.public_adoption, 0.0);
    EXPECT_LE(c.public_adoption, 1.0);
    EXPECT_GE(c.center.lat_deg, -90.0);
    EXPECT_LE(c.center.lat_deg, 90.0);
    EXPECT_GE(c.center.lon_deg, -180.0);
    EXPECT_LE(c.center.lon_deg, 180.0);
  }
  EXPECT_EQ(codes.size(), 25U);  // unique codes
  EXPECT_EQ(country_index(countries, "US"), 0);
  EXPECT_THROW((void)country_index(countries, "ZZ"), std::out_of_range);
}

TEST(WorldGen, Deterministic) {
  WorldGenConfig config;
  config.target_blocks = 800;
  config.target_ases = 60;
  config.ping_targets = 150;
  config.deployment_universe = 80;
  const World a = generate_world(config);
  const World b = generate_world(config);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    EXPECT_EQ(a.blocks[i].prefix, b.blocks[i].prefix);
    EXPECT_DOUBLE_EQ(a.blocks[i].demand, b.blocks[i].demand);
    EXPECT_EQ(a.ldns_uses(a.blocks[i]).size(), b.ldns_uses(b.blocks[i]).size());
  }
  EXPECT_EQ(a.ldnses.size(), b.ldnses.size());
}

TEST(WorldGen, SeedChangesWorld) {
  WorldGenConfig config;
  config.target_blocks = 800;
  config.target_ases = 60;
  config.ping_targets = 150;
  config.deployment_universe = 80;
  const World a = generate_world(config);
  config.seed = 43;
  const World b = generate_world(config);
  // Same sizes but different demand assignment.
  bool any_different = false;
  for (std::size_t i = 0; i < std::min(a.blocks.size(), b.blocks.size()); ++i) {
    if (a.blocks[i].demand != b.blocks[i].demand) {
      any_different = true;
      break;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(WorldGen, RejectsZeroSizes) {
  WorldGenConfig config;
  config.target_blocks = 0;
  EXPECT_THROW(generate_world(config), std::invalid_argument);
}

TEST(WorldGen, BlockInvariants) {
  const World& world = small_world();
  EXPECT_NEAR(world.total_demand(), 1e6, 1.0);
  std::unordered_set<std::uint32_t> prefixes;
  for (const ClientBlock& block : world.blocks) {
    EXPECT_EQ(block.prefix.length(), 24);
    EXPECT_TRUE(prefixes.insert(block.prefix.address().v4().value()).second)
        << "duplicate prefix " << block.prefix.to_string();
    EXPECT_GT(block.demand, 0.0);
    ASSERT_FALSE(world.ldns_uses(block).empty());
    double fraction_sum = 0.0;
    for (const LdnsUse& use : world.ldns_uses(block)) {
      EXPECT_LT(use.ldns, world.ldnses.size());
      fraction_sum += use.fraction;
    }
    EXPECT_NEAR(fraction_sum, 1.0, 1e-9);
    EXPECT_LT(block.country, world.countries.size());
    EXPECT_LT(block.as_index, world.ases.size());
    EXPECT_LT(block.ping_target, world.ping_targets.size());
    EXPECT_EQ(world.ases[block.as_index].country, block.country);
  }
}

TEST(WorldGen, LdnsInvariants) {
  const World& world = small_world();
  std::unordered_set<std::uint32_t> addresses;
  for (const Ldns& ldns : world.ldnses) {
    EXPECT_TRUE(addresses.insert(ldns.address.v4().value()).second);
    EXPECT_LT(ldns.ping_target, world.ping_targets.size());
    if (ldns.type == LdnsType::public_site) {
      EXPECT_TRUE(ldns.supports_ecs);
    }
  }
}

TEST(WorldGen, IndexesResolve) {
  const World& world = small_world();
  const ClientBlock& block = world.blocks[world.blocks.size() / 2];
  EXPECT_EQ(world.block_by_prefix(block.prefix), &block);
  EXPECT_EQ(world.block_by_prefix(*net::IpPrefix::parse("250.0.0.0/24")), nullptr);
  const Ldns& ldns = world.ldnses[world.ldnses.size() / 2];
  EXPECT_EQ(world.ldns_by_address(ldns.address), &ldns);
  EXPECT_EQ(world.ldns_by_address(*net::IpAddr::parse("250.1.2.3")), nullptr);
}

TEST(WorldGen, IndexesAgreeWithLinearScan) {
  // The flat index tables against the first match of a linear scan, for
  // every block and LDNS of the world and for nearby keys that may be
  // absent: other prefix lengths, the next /24, the next address, IPv6.
  const World& world = small_world();
  std::map<net::IpPrefix, const ClientBlock*> first_block;
  for (const ClientBlock& block : world.blocks) first_block.emplace(block.prefix, &block);
  std::map<net::IpAddr, const Ldns*> first_ldns;
  for (const Ldns& ldns : world.ldnses) first_ldns.emplace(ldns.address, &ldns);
  const auto scan_block = [&](const net::IpPrefix& key) -> const ClientBlock* {
    const auto it = first_block.find(key);
    return it == first_block.end() ? nullptr : it->second;
  };
  const auto scan_ldns = [&](const net::IpAddr& key) -> const Ldns* {
    const auto it = first_ldns.find(key);
    return it == first_ldns.end() ? nullptr : it->second;
  };
  const net::IpAddr v6 = *net::IpAddr::parse("2001:db8::1");
  std::size_t absent = 0;
  for (const ClientBlock& block : world.blocks) {
    const net::IpAddr base = block.prefix.address();
    const net::IpAddr next{net::IpV4Addr{base.v4().value() + 256}};
    for (const net::IpPrefix& key :
         {block.prefix, net::IpPrefix{base, 23}, net::IpPrefix{base, 25}, net::IpPrefix{next, 24},
          net::IpPrefix{v6, block.prefix.length()}}) {
      EXPECT_EQ(world.block_by_prefix(key), scan_block(key)) << key.to_string();
      absent += scan_block(key) == nullptr ? 1 : 0;
    }
  }
  for (const Ldns& ldns : world.ldnses) {
    const net::IpAddr next =
        ldns.address.is_v4() ? net::IpAddr{net::IpV4Addr{ldns.address.v4().value() + 1}} : v6;
    for (const net::IpAddr& key : {ldns.address, next, v6}) {
      EXPECT_EQ(world.ldns_by_address(key), scan_ldns(key)) << key.to_string();
      absent += scan_ldns(key) == nullptr ? 1 : 0;
    }
  }
  EXPECT_GT(absent, world.blocks.size());  // the absent-key side was exercised
}

TEST(WorldGen, GeoDbCoversBlocksAndLdns) {
  const World& world = small_world();
  const ClientBlock& block = world.blocks.front();
  const net::IpAddr client{net::IpV4Addr{block.prefix.address().v4().value() + 9}};
  const geo::GeoInfo* info = world.geodb.lookup(client);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->country, block.country);
  EXPECT_EQ(info->asn, world.ases[block.as_index].asn);
  EXPECT_NE(world.geodb.lookup(world.ldnses.front().address), nullptr);
}

TEST(WorldGen, BgpCoversAllBlocks) {
  const World& world = small_world();
  std::size_t covered = 0;
  for (const ClientBlock& block : world.blocks) {
    if (world.bgp.covering(block.prefix).has_value()) ++covered;
  }
  EXPECT_EQ(covered, world.blocks.size());
}

TEST(WorldGen, AnnouncedCidrsBelongToOwnAs) {
  const World& world = small_world();
  for (const AutonomousSystem& as : world.ases) {
    EXPECT_FALSE(as.announced_cidrs.empty());
  }
}

TEST(WorldGen, PrimaryLdnsIsHighestFraction) {
  const World& world = small_world();
  for (const ClientBlock& block : world.blocks) {
    const Ldns& primary = world.primary_ldns(block);
    for (const LdnsUse& use : world.ldns_uses(block)) {
      EXPECT_GE(world.ldns_uses(block).front().fraction + 1e-12, use.fraction);
    }
    (void)primary;
  }
}

TEST(WorldGen, DeploymentUniverseSpansCountries) {
  const World& world = small_world();
  EXPECT_EQ(world.deployment_universe.size(), 400U);
  std::set<CountryId> countries;
  for (const DeploymentSite& site : world.deployment_universe) {
    countries.insert(site.country);
    EXPECT_LT(site.city, world.cities.size());
  }
  EXPECT_EQ(countries.size(), world.countries.size());  // >= 2 sites per country
}

// ---- calibration against the paper's published aggregates (loose) ----

TEST(WorldCalibration, PublicResolverShareNearPaper) {
  // Paper Fig 9: worldwide public-resolver demand approaches 8%.
  const double share = measure::public_resolver_share(small_world());
  EXPECT_GT(share, 0.05);
  EXPECT_LT(share, 0.16);
}

TEST(WorldCalibration, PublicResolverDistancesMuchLarger) {
  // Paper §3.2: median 1028 mi for public-resolver users vs 162 overall.
  const auto& world = small_world();
  const auto all = measure::client_ldns_distance_sample(world);
  measure::DistanceFilter public_only;
  public_only.public_only = true;
  const auto pub = measure::client_ldns_distance_sample(world, public_only);
  EXPECT_GT(pub.percentile(50), 3.0 * all.percentile(50));
  EXPECT_GT(pub.percentile(50), 500.0);
  EXPECT_LT(all.percentile(50), 400.0);
}

TEST(WorldCalibration, HighExpectationGroupMatchesPaperSplit) {
  // Paper §4.1.1 / Fig 8: the high-expectation half is
  // {AR BR AU IN ID SG MY TH TR MX JP VN}. Synthetic sampling noise can
  // flip borderline members, so require strong members and strong
  // non-members only.
  const auto& world = small_world();
  const auto high = measure::high_expectation_countries(world);
  const auto index = [&](const char* code) {
    return country_index(world.countries, code);
  };
  for (const char* code : {"IN", "BR", "AR", "TR", "VN"}) {
    EXPECT_TRUE(high[index(code)]) << code;
  }
  for (const char* code : {"KR", "TW", "NL", "DE", "GB", "US", "FR"}) {
    EXPECT_FALSE(high[index(code)]) << code;
  }
}

TEST(WorldCalibration, SmallAsesHaveLargerClientLdnsDistances) {
  // Paper Fig 10: small ASes outsource DNS, so their client-LDNS
  // distances dwarf the big ASes'.
  const auto& world = small_world();
  std::vector<std::pair<double, AsId>> by_demand;
  for (AsId i = 0; i < world.ases.size(); ++i) {
    by_demand.emplace_back(world.ases[i].demand_share, i);
  }
  std::sort(by_demand.rbegin(), by_demand.rend());
  stats::WeightedSample big;
  stats::WeightedSample small;
  const std::size_t cut = by_demand.size() / 4;
  std::unordered_set<AsId> big_set;
  std::unordered_set<AsId> small_set;
  for (std::size_t i = 0; i < by_demand.size(); ++i) {
    (i < cut ? big_set : small_set).insert(by_demand[i].second);
  }
  for (const ClientBlock& block : world.blocks) {
    for (const LdnsUse& use : world.ldns_uses(block)) {
      const double distance = geo::great_circle_miles(
          block.location, world.ldnses[use.ldns].location);
      if (big_set.contains(block.as_index)) {
        big.add(distance, block.demand * use.fraction);
      } else if (small_set.contains(block.as_index)) {
        small.add(distance, block.demand * use.fraction);
      }
    }
  }
  EXPECT_GT(small.percentile(75), big.percentile(75));
}

TEST(WorldCalibration, BgpAggregationRatioNearPaper) {
  // Paper §5.1: 3.76M /24s -> 444K units, an 8.5:1 reduction.
  const auto& world = small_world();
  const std::size_t units = measure::bgp_aggregated_unit_count(world);
  const double ratio = static_cast<double>(world.blocks.size()) / static_cast<double>(units);
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 16.0);
}

TEST(WorldCalibration, Slash20ClustersAreMetroLocal) {
  // Paper Fig 22: 87.3% of /20 demand in clusters of radius <= 100 miles.
  const auto sweep = measure::prefix_clusters(small_world(), 20);
  EXPECT_GT(sweep.radii.cdf_at(100.0), 0.75);
  EXPECT_LT(sweep.radii.cdf_at(100.0), 1.0);
}

TEST(WorldCalibration, CoarserPrefixesMeanFewerButWiderClusters) {
  // Paper Fig 22 tradeoff, as a monotonicity property.
  const auto& world = small_world();
  std::size_t previous_count = world.blocks.size() + 1;
  double previous_radius = -1.0;
  for (const int len : {24, 20, 16, 12, 8}) {
    const auto sweep = measure::prefix_clusters(world, len);
    EXPECT_LT(sweep.cluster_count, previous_count) << "/" << len;
    const double median_radius = sweep.radii.percentile(50);
    EXPECT_GE(median_radius, previous_radius - 1.0) << "/" << len;
    previous_count = sweep.cluster_count;
    previous_radius = median_radius;
  }
}

// ---- latency model ----

TEST(LatencyModel, DistanceMonotoneOnAverage) {
  const LatencyModel& model = test_latency();
  const geo::GeoPoint origin{40.0, -75.0};
  double near_sum = 0.0;
  double far_sum = 0.0;
  for (int i = 0; i < 64; ++i) {
    near_sum += model.expected_rtt_ms(origin, geo::GeoPoint{41.0, -75.0}, i);
    far_sum += model.expected_rtt_ms(origin, geo::GeoPoint{48.0, 11.0}, i);
  }
  EXPECT_GT(far_sum, 4.0 * near_sum);
}

TEST(LatencyModel, DeterministicPerPairSalt) {
  const LatencyModel& model = test_latency();
  const geo::GeoPoint a{10.0, 10.0};
  const geo::GeoPoint b{20.0, 20.0};
  EXPECT_DOUBLE_EQ(model.expected_rtt_ms(a, b, 5), model.expected_rtt_ms(a, b, 5));
  EXPECT_NE(model.expected_rtt_ms(a, b, 5), model.expected_rtt_ms(a, b, 6));
}

TEST(LatencyModel, MeasurementAddsNonNegativeNoise) {
  const LatencyModel& model = test_latency();
  util::Rng rng{1};
  const geo::GeoPoint a{10.0, 10.0};
  const geo::GeoPoint b{12.0, 10.0};
  const double expected = model.expected_rtt_ms(a, b, 9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(model.measure_rtt_ms(a, b, 9, rng), expected);
  }
}

TEST(LatencyModel, TransoceanicPenaltyApplied) {
  LatencyParams params;
  params.pair_quality_sigma = 0.0;  // isolate the penalty
  const LatencyModel model{params, 1};
  const geo::GeoPoint ny{40.7, -74.0};
  const geo::GeoPoint london{51.5, -0.1};
  const double miles = geo::great_circle_miles(ny, london);
  const double expected_base =
      params.base_ms + miles * params.path_stretch / params.miles_per_rtt_ms +
      params.transoceanic_penalty_ms;
  EXPECT_NEAR(model.expected_rtt_ms(ny, london, 1), expected_base, 1e-9);
}

// ---- anycast ----

TEST(Anycast, NoDetourPicksNearestSite) {
  const auto providers = default_public_providers();
  util::Rng rng{3};
  // A Singapore client with detour 0 must land on the Singapore site.
  const geo::GeoPoint sg{1.35, 103.8};
  const std::size_t site =
      anycast_select(providers[0].sites, sg, test_latency(), 0.0, rng);
  EXPECT_EQ(providers[0].sites[site].country_code, "SG");
}

TEST(Anycast, FullDetourNeverPicksNearest) {
  const auto providers = default_public_providers();
  util::Rng rng{4};
  const geo::GeoPoint sg{1.35, 103.8};
  for (int i = 0; i < 50; ++i) {
    const std::size_t site =
        anycast_select(providers[0].sites, sg, test_latency(), 1.0, rng);
    EXPECT_NE(providers[0].sites[site].country_code, "SG");
  }
}

TEST(Anycast, NoSouthAmericanSites) {
  // The 2014-era fleets had no South American presence — the cause of the
  // paper's AR/BR extremes (Fig 8).
  for (const auto& provider : default_public_providers()) {
    for (const auto& site : provider.sites) {
      EXPECT_NE(site.country_code, "BR");
      EXPECT_NE(site.country_code, "AR");
      EXPECT_NE(site.country_code, "IN");
    }
  }
}

TEST(Anycast, RejectsEmptySiteList) {
  util::Rng rng{5};
  EXPECT_THROW((void)anycast_select({}, geo::GeoPoint{}, test_latency(), 0.0, rng),
               std::invalid_argument);
}

/// anycast_select as it was when std::sort's comparator evaluated the
/// latency model for both sides of every comparison.
std::size_t per_comparison_anycast_select(const std::vector<PublicSiteSpec>& sites,
                                          const geo::GeoPoint& client_location,
                                          const LatencyModel& latency, double detour_prob,
                                          util::Rng& rng) {
  std::vector<std::size_t> order(sites.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto salt = [&](std::size_t i) {
      return util::hash_combine(util::mix64(static_cast<std::uint64_t>(i) + 0x5174e5ULL),
                                static_cast<std::uint64_t>(
                                    static_cast<std::int64_t>(client_location.lat_deg * 1e4)));
    };
    return latency.expected_rtt_ms(client_location, sites[a].location, salt(a)) <
           latency.expected_rtt_ms(client_location, sites[b].location, salt(b));
  });
  if (sites.size() > 1 && rng.chance(detour_prob)) {
    const std::size_t hi = std::min<std::size_t>(sites.size() - 1, 3);
    const auto rank = static_cast<std::size_t>(rng.between(1, static_cast<std::int64_t>(hi)));
    return order[rank];
  }
  return order[0];
}

// Ranking by an RTT computed once per site must pick exactly the site the
// comparator-based ranking picked, and consume the caller's RNG the same.
TEST(Anycast, RankingMatchesPerComparisonReference) {
  const auto providers = default_public_providers();
  for (const double detour : {0.0, 0.5, 1.0}) {
    for (const PublicProviderSpec& provider : providers) {
      util::Rng clients{static_cast<std::uint64_t>(detour * 10) + provider.sites.size()};
      util::Rng rng{91};
      util::Rng reference_rng{91};
      for (int i = 0; i < 1000; ++i) {
        const geo::GeoPoint client{clients.uniform(-60.0, 75.0), clients.uniform(-180.0, 180.0)};
        ASSERT_EQ(anycast_select(provider.sites, client, test_latency(), detour, rng),
                  per_comparison_anycast_select(provider.sites, client, test_latency(), detour,
                                                reference_rng))
            << provider.name << " detour " << detour << " client " << i;
      }
      EXPECT_EQ(rng(), reference_rng()) << provider.name << " detour " << detour;
    }
  }
}

// ---------------------------------------------------------------------------
// The columnar LDNS-association store (offsets + payload instead of a
// heap vector per block) enforces in-order assignment and pads gaps.

TEST(WorldSoA, AssignmentsMustArriveInBlockIdOrder) {
  World world;
  const LdnsUse use{0, 1.0};
  world.assign_ldns_uses(5, std::span<const LdnsUse>{&use, 1});
  EXPECT_THROW(world.assign_ldns_uses(3, std::span<const LdnsUse>{&use, 1}),
               std::logic_error);
  EXPECT_THROW(world.assign_ldns_uses(5, std::span<const LdnsUse>{&use, 1}),
               std::logic_error);
}

TEST(WorldSoA, GapBlocksReadAsEmptySpans) {
  World world;
  const LdnsUse first{1, 0.25};
  const LdnsUse later[] = {{2, 0.5}, {3, 0.5}};
  world.assign_ldns_uses(0, std::span<const LdnsUse>{&first, 1});
  world.assign_ldns_uses(4, std::span<const LdnsUse>{later, 2});
  ASSERT_EQ(world.ldns_uses(0).size(), 1U);
  EXPECT_EQ(world.ldns_uses(0).front().ldns, 1U);
  for (BlockId gap = 1; gap < 4; ++gap) {
    EXPECT_TRUE(world.ldns_uses(gap).empty()) << "block " << gap;
  }
  ASSERT_EQ(world.ldns_uses(4).size(), 2U);
  EXPECT_EQ(world.ldns_uses(4).back().ldns, 3U);
  // Blocks past the last assignment also read as empty, not UB.
  EXPECT_TRUE(world.ldns_uses(9).empty());
}

}  // namespace
}  // namespace eum::topo
