#include <gtest/gtest.h>

#include "dnsserver/resolver.h"
#include "dnsserver/transport.h"
#include "measure/pairing.h"
#include "test_world.h"

namespace eum::measure {
namespace {

using eum::testing::tiny_world;

TEST(Whoami, HandlerEchoesResolverAddress) {
  const auto handler = whoami_handler();
  dnsserver::DynamicQuery query;
  query.qname = dns::DnsName::from_text("whoami.cdn.example");
  query.resolver = *net::IpAddr::parse("200.1.2.3");
  const auto answer = handler(query);
  ASSERT_TRUE(answer.has_value());
  ASSERT_EQ(answer->addresses.size(), 1U);
  EXPECT_EQ(answer->addresses[0], *net::IpAddr::parse("200.1.2.3"));
  EXPECT_EQ(answer->ttl, 0U);
  EXPECT_EQ(answer->ecs_scope_len, 0);
}

TEST(Whoami, ThroughResolverReportsTheResolverNotTheClient) {
  util::SimClock clock;
  dnsserver::AuthoritativeServer authority;
  authority.add_dynamic_domain(dns::DnsName::from_text("whoami.cdn.example"),
                               whoami_handler());
  dnsserver::AuthorityDirectory directory;
  directory.add_authority(dns::DnsName::from_text("whoami.cdn.example"), &authority);
  dnsserver::ResolverConfig config;
  dnsserver::RecursiveResolver resolver{config, &clock, &directory,
                                        *net::IpAddr::parse("200.9.9.9")};
  dnsserver::StubClient stub{&resolver, *net::IpAddr::parse("1.2.3.4")};
  const auto addresses = stub.lookup(dns::DnsName::from_text("whoami.cdn.example"));
  ASSERT_EQ(addresses.size(), 1U);
  EXPECT_EQ(addresses[0], *net::IpAddr::parse("200.9.9.9"));
}

TEST(Whoami, Ttl0AnswersAreNotReusedAcrossTime) {
  util::SimClock clock;
  dnsserver::AuthoritativeServer authority;
  authority.add_dynamic_domain(dns::DnsName::from_text("whoami.cdn.example"),
                               whoami_handler());
  dnsserver::AuthorityDirectory directory;
  directory.add_authority(dns::DnsName::from_text("whoami.cdn.example"), &authority);
  dnsserver::ResolverConfig config;
  dnsserver::RecursiveResolver resolver{config, &clock, &directory,
                                        *net::IpAddr::parse("200.9.9.9")};
  dnsserver::StubClient stub{&resolver, *net::IpAddr::parse("1.2.3.4")};
  (void)stub.lookup(dns::DnsName::from_text("whoami.cdn.example"));
  clock.advance(1);
  (void)stub.lookup(dns::DnsName::from_text("whoami.cdn.example"));
  EXPECT_EQ(resolver.registry().counter_total("eum_resolver_upstream_queries_total"), 2U);
}

TEST(PairingDiscovery, RecoversGroundTruthAssociations) {
  const auto& world = tiny_world();
  PairingConfig config;
  config.sample_blocks = 300;
  config.lookups_per_block = 6;
  const PairingResult result = discover_client_ldns_pairs(world, config);

  EXPECT_EQ(result.by_block.size(), 300U);
  EXPECT_EQ(result.lookups, 300U * 6U);
  // Everything discovered is true (whoami cannot hallucinate pairs)...
  EXPECT_DOUBLE_EQ(result.accuracy(world), 1.0);
  // ...and with 6 lookups per block most associations are recovered
  // (secondary resolvers at 25% use can be missed).
  EXPECT_GT(result.recall(world), 0.75);

  // Frequencies are sane: positive, sum to <= 1 (failed lookups can
  // lower the sum) and close to 1 in practice.
  for (const auto& [block_id, discovered] : result.by_block) {
    ASSERT_FALSE(discovered.empty());
    double sum = 0.0;
    for (const auto& entry : discovered) {
      EXPECT_GT(entry.frequency, 0.0);
      sum += entry.frequency;
    }
    EXPECT_LE(sum, 1.0 + 1e-9);
    EXPECT_GT(sum, 0.99);
  }
}

TEST(PairingDiscovery, FullCensusCoversEveryBlock) {
  const auto& world = tiny_world();
  PairingConfig config;
  config.sample_blocks = 0;  // everyone
  config.lookups_per_block = 1;
  const PairingResult result = discover_client_ldns_pairs(world, config);
  EXPECT_EQ(result.by_block.size(), world.blocks.size());
  EXPECT_DOUBLE_EQ(result.accuracy(world), 1.0);
}

TEST(PairingDiscovery, DeterministicForSeed) {
  const auto& world = tiny_world();
  PairingConfig config;
  config.sample_blocks = 50;
  const auto a = discover_client_ldns_pairs(world, config);
  const auto b = discover_client_ldns_pairs(world, config);
  EXPECT_EQ(a.by_block.size(), b.by_block.size());
  EXPECT_DOUBLE_EQ(a.recall(world), b.recall(world));
}

TEST(PairingDiscovery, RejectsBadConfig) {
  PairingConfig config;
  config.lookups_per_block = 0;
  EXPECT_THROW(discover_client_ldns_pairs(tiny_world(), config), std::invalid_argument);
}

}  // namespace
}  // namespace eum::measure
