// End-to-end integration: the full pipeline of the paper's Figure 3/4 —
// client stub -> recursive LDNS (with/without ECS) -> authoritative name
// servers backed by the mapping system -> content servers — with every
// DNS message crossing the real wire codec.
#include <gtest/gtest.h>

#include "cdn/mapping.h"
#include "dnsserver/transport.h"
#include "geo/coords.h"
#include "measure/analysis.h"
#include "test_world.h"

namespace eum {
namespace {

using dns::DnsName;
using dns::Message;
using dns::RecordType;
using eum::testing::test_latency;
using eum::testing::tiny_world;

struct PipelineFixture : ::testing::Test {
  PipelineFixture()
      : world(tiny_world()),
        network(cdn::CdnNetwork::build(world, 80)),
        mapping(&world, &network, &test_latency(), cdn::MappingConfig{}) {
    // The content provider's zone: www.shop.example CNAMEs into the CDN.
    dns::SoaRecord soa;
    soa.mname = DnsName::from_text("ns1.shop.example");
    soa.minimum = 30;
    dnsserver::Zone shop_zone{DnsName::from_text("shop.example"), soa};
    shop_zone.add_cname(DnsName::from_text("www.shop.example"),
                        DnsName::from_text("e7.g.cdn.example"), 300);
    shop_authority.add_zone(std::move(shop_zone));
    cdn_authority.add_dynamic_domain(DnsName::from_text("g.cdn.example"),
                                     mapping.dns_handler());
    directory.add_authority(DnsName::from_text("shop.example"), &shop_authority);
    directory.add_authority(DnsName::from_text("g.cdn.example"), &cdn_authority);
  }

  /// Resolve www.shop.example for a client through a given LDNS.
  std::vector<net::IpAddr> resolve(const topo::ClientBlock& block, const topo::Ldns& ldns,
                                   bool ecs) {
    dnsserver::ResolverConfig config;
    config.ecs_enabled = ecs && ldns.supports_ecs;
    dnsserver::RecursiveResolver resolver{config, &clock, &directory, ldns.address};
    const net::IpAddr client{net::IpV4Addr{block.prefix.address().v4().value() + 23}};
    dnsserver::StubClient stub{&resolver, client};
    return stub.lookup(DnsName::from_text("www.shop.example"));
  }

  const topo::World& world;
  cdn::CdnNetwork network;
  cdn::MappingSystem mapping;
  dnsserver::AuthoritativeServer shop_authority;
  dnsserver::AuthoritativeServer cdn_authority;
  dnsserver::AuthorityDirectory directory;
  util::SimClock clock;
};

TEST_F(PipelineFixture, CnameIntoCdnResolvesToServers) {
  const topo::ClientBlock& block = world.blocks.front();
  const topo::Ldns& ldns = world.primary_ldns(block);
  const auto servers = resolve(block, ldns, false);
  ASSERT_EQ(servers.size(), 2U);
  EXPECT_NE(network.deployment_of(servers[0]), nullptr);
}

TEST_F(PipelineFixture, EcsImprovesMappingForDistantPublicClients) {
  // Average over all public-resolver clients at least 2000 miles from
  // their LDNS: end-user mapping must cut the client-server distance.
  double ns_total = 0.0;
  double eu_total = 0.0;
  int count = 0;
  for (const topo::ClientBlock& block : world.blocks) {
    if (count >= 25) break;
    for (const topo::LdnsUse& use : world.ldns_uses(block)) {
      const topo::Ldns& ldns = world.ldnses[use.ldns];
      if (ldns.type != topo::LdnsType::public_site) continue;
      if (geo::great_circle_miles(block.location, ldns.location) < 2000.0) continue;
      const auto ns_servers = resolve(block, ldns, false);
      const auto eu_servers = resolve(block, ldns, true);
      ASSERT_FALSE(ns_servers.empty());
      ASSERT_FALSE(eu_servers.empty());
      ns_total += geo::great_circle_miles(
          block.location, network.deployment_of(ns_servers[0])->location);
      eu_total += geo::great_circle_miles(
          block.location, network.deployment_of(eu_servers[0])->location);
      ++count;
      break;
    }
  }
  ASSERT_GT(count, 5);
  // Paper headline: roughly an order-of-magnitude mapping-distance cut for
  // these clients (8x in production); demand loose 2x here.
  EXPECT_LT(eu_total, 0.5 * ns_total);
}

TEST_F(PipelineFixture, ScopedAnswersCachePerBlockAtTheResolver) {
  // Two clients of the same public LDNS in different /24s must trigger two
  // upstream queries (the Figure 23 mechanism), and a third client sharing
  // a /24 must hit the cache.
  const topo::Ldns* public_ldns = nullptr;
  std::vector<const topo::ClientBlock*> its_blocks;
  for (const topo::Ldns& ldns : world.ldnses) {
    if (ldns.type != topo::LdnsType::public_site) continue;
    its_blocks.clear();
    for (const topo::ClientBlock& block : world.blocks) {
      for (const topo::LdnsUse& use : world.ldns_uses(block)) {
        if (use.ldns == ldns.id) its_blocks.push_back(&block);
      }
      if (its_blocks.size() >= 2) break;
    }
    if (its_blocks.size() >= 2) {
      public_ldns = &ldns;
      break;
    }
  }
  ASSERT_NE(public_ldns, nullptr);

  dnsserver::ResolverConfig config;
  config.ecs_enabled = true;
  dnsserver::RecursiveResolver resolver{config, &clock, &directory, public_ldns->address};
  const auto query_from = [&](const topo::ClientBlock& block, std::uint8_t host) {
    const net::IpAddr client{net::IpV4Addr{block.prefix.address().v4().value() + host}};
    dnsserver::StubClient stub{&resolver, client};
    return stub.lookup(DnsName::from_text("e9.g.cdn.example"));
  };
  (void)query_from(*its_blocks[0], 5);
  const auto upstream_after_first = resolver.stats().upstream_queries;
  (void)query_from(*its_blocks[1], 5);
  EXPECT_GT(resolver.stats().upstream_queries, upstream_after_first);
  const auto upstream_after_second = resolver.stats().upstream_queries;
  (void)query_from(*its_blocks[0], 77);  // same /24 as the first client
  EXPECT_EQ(resolver.stats().upstream_queries, upstream_after_second);
}

TEST_F(PipelineFixture, ClusterFailureReroutesClients) {
  const topo::ClientBlock& block = world.blocks.front();
  const topo::Ldns& ldns = world.primary_ldns(block);
  const auto before = resolve(block, ldns, false);
  ASSERT_FALSE(before.empty());
  const cdn::Deployment* cluster = network.deployment_of(before[0]);
  ASSERT_NE(cluster, nullptr);
  network.set_cluster_alive(cluster->id, false);
  mapping.rescore();
  const auto after = resolve(block, ldns, false);
  ASSERT_FALSE(after.empty());
  EXPECT_NE(network.deployment_of(after[0])->id, cluster->id);
}

TEST_F(PipelineFixture, GeoDatabaseAgreesWithMappingDistances) {
  // The mapping distance computed from the geo database (by IPs alone)
  // matches the one computed from world ground truth.
  const topo::ClientBlock& block = world.blocks.front();
  const topo::Ldns& ldns = world.primary_ldns(block);
  const auto servers = resolve(block, ldns, false);
  ASSERT_FALSE(servers.empty());
  const net::IpAddr client{net::IpV4Addr{block.prefix.address().v4().value() + 23}};
  const cdn::Deployment* deployment = network.deployment_of(servers[0]);

  const geo::GeoInfo* client_info = world.geodb.lookup(client);
  ASSERT_NE(client_info, nullptr);
  const double via_geodb =
      geo::great_circle_miles(client_info->location, deployment->location);
  const double ground_truth = geo::great_circle_miles(block.location, deployment->location);
  EXPECT_NEAR(via_geodb, ground_truth, 1e-6);
}

}  // namespace
}  // namespace eum
