// Tests of the mapping system itself — the paper's core: NS-based vs
// end-user vs client-aware-NS decisions, and the DNS integration.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "cdn/map_snapshot.h"
#include "cdn/mapping.h"
#include "dnsserver/transport.h"
#include "geo/coords.h"
#include "test_world.h"

namespace eum::cdn {
namespace {

using eum::testing::test_latency;
using eum::testing::tiny_world;
using topo::ClientBlock;
using topo::Ldns;
using topo::LdnsUse;

/// A (block, public-LDNS) pair whose LDNS is at least `min_miles` away.
std::pair<const ClientBlock*, const Ldns*> far_public_pair(const topo::World& world,
                                                           double min_miles) {
  for (const ClientBlock& block : world.blocks) {
    for (const LdnsUse& use : world.ldns_uses(block)) {
      const Ldns& ldns = world.ldnses[use.ldns];
      if (ldns.type == topo::LdnsType::public_site &&
          geo::great_circle_miles(block.location, ldns.location) > min_miles) {
        return {&block, &ldns};
      }
    }
  }
  return {nullptr, nullptr};
}

struct MappingFixture : ::testing::Test {
  MappingFixture()
      : network(CdnNetwork::build(tiny_world(), 80)),
        mapping(&tiny_world(), &network,
                &test_latency(), MappingConfig{}) {}

  CdnNetwork network;
  MappingSystem mapping;
};

TEST_F(MappingFixture, EndUserMappingBeatsNsForDistantLdnsClients) {
  const auto& world = tiny_world();
  const auto [block, ldns] = far_public_pair(world, 2500.0);
  ASSERT_NE(block, nullptr) << "world has no distant public-resolver client";

  const auto eu = mapping.map_block(block->id, "www.shop.example");
  const auto ns = mapping.map_ldns(ldns->id, "www.shop.example");
  ASSERT_TRUE(eu.has_value());
  ASSERT_TRUE(ns.has_value());

  const double eu_miles = geo::great_circle_miles(
      block->location, network.deployments()[eu->deployment].location);
  const double ns_miles = geo::great_circle_miles(
      block->location, network.deployments()[ns->deployment].location);
  EXPECT_LT(eu_miles, ns_miles);
  EXPECT_LT(eu_miles, 900.0);   // EU lands near the client
  EXPECT_GT(ns_miles, 1200.0);  // NS lands near the distant LDNS
}

TEST_F(MappingFixture, AnswersContainTwoServersFromOneCluster) {
  const auto result = mapping.map_block(0, "www.shop.example");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->servers.size(), 2U);
  const Deployment& cluster = network.deployments()[result->deployment];
  for (const net::IpAddr& server : result->servers) {
    EXPECT_TRUE(cluster.server_block.contains(server));
  }
}

TEST_F(MappingFixture, PolicyDispatchFallsBackWithoutClientBlock) {
  // end_user policy without a client block degrades to NS-based mapping.
  const auto& world = tiny_world();
  const auto [block, ldns] = far_public_pair(world, 2000.0);
  ASSERT_NE(block, nullptr);
  const auto with_block = mapping.map(ldns->id, block->id, "a.example");
  const auto without = mapping.map(ldns->id, std::nullopt, "a.example");
  const auto ns = mapping.map_ldns(ldns->id, "a.example");
  ASSERT_TRUE(with_block && without && ns);
  EXPECT_EQ(without->deployment, ns->deployment);
  EXPECT_NE(with_block->deployment, without->deployment);
}

TEST_F(MappingFixture, CansSitsBetweenNsAndEuForIsolatedLdns) {
  // For an LDNS whose clients cluster far away, CANS should pick a
  // deployment near the clients, not near the LDNS.
  const auto& world = tiny_world();
  // Find an enterprise LDNS with clients mostly in one other country.
  const Ldns* enterprise = nullptr;
  for (const Ldns& ldns : world.ldnses) {
    if (ldns.type == topo::LdnsType::enterprise) {
      enterprise = &ldns;
      break;
    }
  }
  ASSERT_NE(enterprise, nullptr);
  const auto cans = mapping.map_cluster(enterprise->id, "a.example");
  ASSERT_TRUE(cans.has_value());
}

TEST_F(MappingFixture, RescorePreservesBehaviour) {
  const auto before = mapping.map_block(5, "b.example");
  mapping.rescore();
  const auto after = mapping.map_block(5, "b.example");
  ASSERT_TRUE(before && after);
  EXPECT_EQ(before->deployment, after->deployment);
}

TEST_F(MappingFixture, DeadClusterAvoided) {
  const auto first = mapping.map_block(9, "c.example");
  ASSERT_TRUE(first.has_value());
  network.set_cluster_alive(first->deployment, false);
  mapping.rescore();  // liveness reaches the decisions with the next map
  const auto second = mapping.map_block(9, "c.example");
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->deployment, first->deployment);
}

// rescore() republishes beside serving threads: one thread kills and
// revives a cluster, republishing after every flip, while two threads
// answer ECS queries through dns_handler(). Each query is answered from
// whichever generation it loaded. Run under TSan by scripts/tsan_check.sh.
TEST(MappingSystem, RescoreWhileServing) {
  const auto& world = tiny_world();
  CdnNetwork network = CdnNetwork::build(world, 30);
  MappingSystem mapping{&world, &network, &test_latency(), MappingConfig{}};
  const DeploymentId victim = mapping.map_block(0, "www.g.cdn.example")->deployment;

  constexpr int kFlips = 60;
  std::atomic<bool> done{false};
  std::thread control{[&] {
    for (int i = 0; i < kFlips; ++i) {
      network.set_cluster_alive(victim, i % 2 == 1);
      mapping.rescore();
    }
    done.store(true, std::memory_order_release);
  }};

  std::atomic<int> unanswered{0};
  std::vector<std::thread> servers;
  for (int w = 0; w < 2; ++w) {
    servers.emplace_back([&, w, handler = mapping.dns_handler()] {
      dnsserver::DynamicQuery query;
      query.qname = dns::DnsName::from_text("www.g.cdn.example");
      for (std::size_t i = static_cast<std::size_t>(w); !done.load(std::memory_order_acquire);
           i += 2) {
        query.resolver = world.ldnses[i % world.ldnses.size()].address;
        query.client_block = world.blocks[i % world.blocks.size()].prefix;
        const auto answer = handler(query);
        if (!answer || answer->addresses.empty()) unanswered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  control.join();
  for (std::thread& t : servers) t.join();

  EXPECT_EQ(unanswered.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(mapping.version(), 1U + kFlips);
  // The last flip revived the victim: the current map serves it again.
  EXPECT_FALSE(mapping.snapshot()->clusters()[victim].servers.empty());
  EXPECT_EQ(mapping.map_block(0, "www.g.cdn.example")->deployment, victim);
}

TEST(MappingSystem, RejectsNullDependencies) {
  CdnNetwork network = CdnNetwork::build(tiny_world(), 4);
  EXPECT_THROW(MappingSystem(nullptr, &network, &test_latency(), MappingConfig{}),
               std::invalid_argument);
  EXPECT_THROW(MappingSystem(&tiny_world(), nullptr, &test_latency(), MappingConfig{}),
               std::invalid_argument);
  EXPECT_THROW(MappingSystem(&tiny_world(), &network, nullptr, MappingConfig{}),
               std::invalid_argument);
}

// ---------- DNS integration (the Figure 4 interaction) ----------

struct DnsHandlerFixture : ::testing::Test {
  DnsHandlerFixture()
      : network(CdnNetwork::build(tiny_world(), 80)),
        mapping(&tiny_world(), &network, &test_latency(), MappingConfig{}) {
    authority.add_dynamic_domain(dns::DnsName::from_text("g.cdn.example"),
                                 mapping.dns_handler());
  }

  CdnNetwork network;
  MappingSystem mapping;
  dnsserver::AuthoritativeServer authority;
};

TEST_F(DnsHandlerFixture, EcsQueryMapsByClientBlock) {
  const auto& world = tiny_world();
  const auto [block, ldns] = far_public_pair(world, 2500.0);
  ASSERT_NE(block, nullptr);
  const net::IpAddr client{net::IpV4Addr{block->prefix.address().v4().value() + 10}};

  const auto ecs = dns::ClientSubnetOption::for_query(client, 24);
  const auto query = dns::Message::make_query(
      1, dns::DnsName::from_text("www.g.cdn.example"), dns::RecordType::A, ecs);
  const dns::Message response = authority.handle(query, ldns->address);

  ASSERT_GE(response.answers.size(), 2U);
  const Deployment* assigned = network.deployment_of(response.answer_addresses()[0]);
  ASSERT_NE(assigned, nullptr);
  EXPECT_LT(geo::great_circle_miles(block->location, assigned->location), 900.0);
  // Scope echoed at the configured /24.
  ASSERT_NE(response.client_subnet(), nullptr);
  EXPECT_EQ(response.client_subnet()->scope_prefix_len(), 24);
  EXPECT_EQ(response.answers[0].ttl, mapping.config().answer_ttl);
}

TEST_F(DnsHandlerFixture, PlainQueryMapsByResolver) {
  const auto& world = tiny_world();
  const auto [block, ldns] = far_public_pair(world, 2500.0);
  ASSERT_NE(block, nullptr);
  const auto query = dns::Message::make_query(
      2, dns::DnsName::from_text("www.g.cdn.example"), dns::RecordType::A);
  const dns::Message response = authority.handle(query, ldns->address);
  ASSERT_GE(response.answers.size(), 2U);
  const Deployment* assigned = network.deployment_of(response.answer_addresses()[0]);
  ASSERT_NE(assigned, nullptr);
  // Assigned near the LDNS, i.e. far from this particular client.
  EXPECT_LT(geo::great_circle_miles(ldns->location, assigned->location), 800.0);
  EXPECT_GT(geo::great_circle_miles(block->location, assigned->location), 1000.0);
}

TEST_F(DnsHandlerFixture, UnknownResolverGetsNxdomain) {
  const auto query = dns::Message::make_query(
      3, dns::DnsName::from_text("www.g.cdn.example"), dns::RecordType::A);
  const dns::Message response =
      authority.handle(query, *net::IpAddr::parse("250.250.250.250"));
  EXPECT_EQ(response.header.rcode, dns::Rcode::nx_domain);
}

TEST_F(DnsHandlerFixture, UnknownEcsBlockFallsBackToNsWithScope24) {
  const auto& world = tiny_world();
  const Ldns* public_ldns = nullptr;
  for (const Ldns& l : world.ldnses) {
    if (l.type == topo::LdnsType::public_site) {
      public_ldns = &l;
      break;
    }
  }
  ASSERT_NE(public_ldns, nullptr);
  // ECS for an address outside the world's client space.
  const auto ecs =
      dns::ClientSubnetOption::for_query(*net::IpAddr::parse("250.1.2.3"), 24);
  const auto query = dns::Message::make_query(
      4, dns::DnsName::from_text("www.g.cdn.example"), dns::RecordType::A, ecs);
  const dns::Message response = authority.handle(query, public_ldns->address);
  EXPECT_EQ(response.header.rcode, dns::Rcode::no_error);
  ASSERT_NE(response.client_subnet(), nullptr);
  // The NS answer holds for this /24 only: the resolver's in-world
  // clients get answers of their own, so it is not "suitable for all
  // addresses" (RFC 7871 §7.2.1) and must not be announced at /0.
  EXPECT_EQ(response.client_subnet()->scope_prefix_len(), 24);
}

TEST_F(DnsHandlerFixture, ConfiguredScopeShorterThanSource) {
  MappingConfig config;
  config.ecs_scope_len = 20;
  MappingSystem scoped{&tiny_world(), &network, &test_latency(), config};
  dnsserver::AuthoritativeServer server;
  server.add_dynamic_domain(dns::DnsName::from_text("g.cdn.example"), scoped.dns_handler());

  const auto& world = tiny_world();
  const auto [block, ldns] = far_public_pair(world, 1000.0);
  ASSERT_NE(block, nullptr);
  const net::IpAddr client{net::IpV4Addr{block->prefix.address().v4().value() + 1}};
  const auto query = dns::Message::make_query(
      5, dns::DnsName::from_text("www.g.cdn.example"), dns::RecordType::A,
      dns::ClientSubnetOption::for_query(client, 24));
  const dns::Message response = server.handle(query, ldns->address);
  ASSERT_NE(response.client_subnet(), nullptr);
  EXPECT_EQ(response.client_subnet()->scope_prefix_len(), 20);
}

}  // namespace
}  // namespace eum::cdn
