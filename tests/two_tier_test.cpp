// The two-tier name server hierarchy (paper §2.2 part 3): top-level
// servers delegate to a nameserver inside the globally-load-balanced
// cluster; the delegated server answers with local-LB server choices.
#include <gtest/gtest.h>

#include "cdn/mapping.h"
#include "geo/coords.h"
#include "test_world.h"

namespace eum::cdn {
namespace {

using dns::DnsName;
using dns::Message;
using dns::RecordType;
using eum::testing::test_latency;
using eum::testing::tiny_world;

struct TwoTierFixture : ::testing::Test {
  TwoTierFixture()
      : network(CdnNetwork::build(tiny_world(), 60)),
        mapping(&tiny_world(), &network, &test_latency(), MappingConfig{}),
        suffix(DnsName::from_text("b.cdn.example")) {
    mapping.install_two_tier(directory, top, low, suffix);
  }

  dnsserver::RecursiveResolver make_ldns(const topo::Ldns& ldns, bool ecs) {
    dnsserver::ResolverConfig config;
    config.ecs_enabled = ecs && ldns.supports_ecs;
    return dnsserver::RecursiveResolver{config, &clock, &directory, ldns.address};
  }

  CdnNetwork network;
  MappingSystem mapping;
  DnsName suffix;
  dnsserver::AuthoritativeServer top;
  dnsserver::AuthoritativeServer low;
  dnsserver::AuthorityDirectory directory;
  util::SimClock clock;
};

TEST_F(TwoTierFixture, TopLevelReturnsReferralWithGlue) {
  const auto& world = tiny_world();
  const topo::Ldns& ldns = world.ldnses.front();
  const Message query =
      Message::make_query(1, DnsName::from_text("e7.b.cdn.example"), RecordType::A);
  const Message response = top.handle(query, ldns.address);
  EXPECT_TRUE(response.answers.empty());
  EXPECT_FALSE(response.header.authoritative);
  ASSERT_EQ(response.authorities.size(), 1U);
  EXPECT_EQ(response.authorities[0].type, RecordType::NS);
  EXPECT_EQ(response.authorities[0].name, suffix);
  ASSERT_EQ(response.additionals.size(), 1U);
  // Glue names the same nameserver the NS record points at.
  EXPECT_EQ(response.additionals[0].name,
            std::get<dns::NsRecord>(response.authorities[0].rdata).nameserver);
  EXPECT_EQ(top.stats().referrals, 1U);
}

TEST_F(TwoTierFixture, ResolverChasesDelegationToClusterServers) {
  const auto& world = tiny_world();
  const topo::Ldns& ldns = world.ldnses.front();
  auto resolver = make_ldns(ldns, false);
  dnsserver::StubClient stub{&resolver, *net::IpAddr::parse("1.2.3.4")};
  const auto servers = stub.lookup(DnsName::from_text("e7.b.cdn.example"));
  ASSERT_EQ(servers.size(), 2U);
  EXPECT_EQ(resolver.stats().referrals_followed, 1U);

  // The servers belong to the same cluster the mapping system would pick
  // for this LDNS, and that cluster's NS glue address.
  const auto direct = mapping.map_ldns(ldns.id, "e7.b.cdn.example");
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(network.deployment_of(servers[0])->id, direct->deployment);
  EXPECT_EQ(network.deployment_of(servers[1])->id, direct->deployment);
}

TEST_F(TwoTierFixture, DelegationFollowsEcsUnderEndUserPolicy) {
  const auto& world = tiny_world();
  // A public (ECS-capable) LDNS far from some client.
  const topo::Ldns* public_ldns = nullptr;
  const topo::ClientBlock* far_block = nullptr;
  for (const auto& block : world.blocks) {
    for (const auto& use : world.ldns_uses(block)) {
      const auto& l = world.ldnses[use.ldns];
      if (l.type == topo::LdnsType::public_site &&
          geo::great_circle_miles(block.location, l.location) > 2500.0) {
        public_ldns = &l;
        far_block = &block;
        break;
      }
    }
    if (public_ldns != nullptr) break;
  }
  ASSERT_NE(public_ldns, nullptr);

  const net::IpAddr client{
      net::IpV4Addr{far_block->prefix.address().v4().value() + 5}};
  auto with_ecs = make_ldns(*public_ldns, true);
  dnsserver::StubClient ecs_stub{&with_ecs, client};
  const auto eu_servers = ecs_stub.lookup(DnsName::from_text("www.b.cdn.example"));
  ASSERT_FALSE(eu_servers.empty());

  auto without_ecs = make_ldns(*public_ldns, false);
  dnsserver::StubClient ns_stub{&without_ecs, client};
  const auto ns_servers = ns_stub.lookup(DnsName::from_text("www.b.cdn.example"));
  ASSERT_FALSE(ns_servers.empty());

  const double eu_miles = geo::great_circle_miles(
      far_block->location, network.deployment_of(eu_servers[0])->location);
  const double ns_miles = geo::great_circle_miles(
      far_block->location, network.deployment_of(ns_servers[0])->location);
  // The delegation itself steered by the client block: closer servers.
  EXPECT_LT(eu_miles, ns_miles);
}

TEST_F(TwoTierFixture, LowLevelServerRequiresKnownAddress) {
  // Asking the low-level engine at an unknown server address yields
  // NXDOMAIN (it cannot tell which cluster it is answering for).
  const Message query =
      Message::make_query(2, DnsName::from_text("x.b.cdn.example"), RecordType::A);
  const Message response =
      low.handle(query, *net::IpAddr::parse("200.0.0.1"), *net::IpAddr::parse("9.9.9.9"));
  EXPECT_EQ(response.header.rcode, dns::Rcode::nx_domain);
}

TEST_F(TwoTierFixture, ClusterNsAddressesAreDistinctAndRouted) {
  std::set<std::uint32_t> addresses;
  for (const Deployment& d : network.deployments()) {
    const net::IpAddr ns = mapping.cluster_ns_address(d.id);
    EXPECT_TRUE(d.server_block.contains(ns));
    EXPECT_TRUE(addresses.insert(ns.v4().value()).second);
    // The directory can address it.
    const Message query =
        Message::make_query(3, DnsName::from_text("y.b.cdn.example"), RecordType::A);
    const auto result = directory.try_forward_to(ns, query, *net::IpAddr::parse("200.0.0.1"));
    ASSERT_TRUE(result.addressable);
    ASSERT_TRUE(result.response.has_value());
    ASSERT_FALSE(result.response->answers.empty());
    EXPECT_EQ(network.deployment_of(result.response->answer_addresses()[0])->id, d.id);
  }
}

TEST_F(TwoTierFixture, ReferralTtlCachesAtResolver) {
  const auto& world = tiny_world();
  const topo::Ldns& ldns = world.ldnses.front();
  auto resolver = make_ldns(ldns, false);
  dnsserver::StubClient stub{&resolver, *net::IpAddr::parse("1.2.3.4")};
  (void)stub.lookup(DnsName::from_text("cached.b.cdn.example"));
  const auto upstream_after_first = resolver.stats().upstream_queries;
  (void)stub.lookup(DnsName::from_text("cached.b.cdn.example"));
  // Second lookup is a pure cache hit: no new upstream traffic.
  EXPECT_EQ(resolver.stats().upstream_queries, upstream_after_first);
}

TEST_F(TwoTierFixture, UnknownGlueFallsBackGracefully) {
  // A referral whose glue address is not registered anywhere: the
  // resolver keeps the referral response (no answers) instead of looping.
  dnsserver::AuthoritativeServer bogus_top;
  bogus_top.add_dynamic_domain(
      DnsName::from_text("dangling.example"),
      [](const dnsserver::DynamicQuery&) -> std::optional<dnsserver::DynamicAnswer> {
        dnsserver::DynamicAnswer answer;
        answer.referral.push_back(dnsserver::DynamicReferral{
            DnsName::from_text("ns.nowhere.example"), *net::IpAddr::parse("250.9.9.9")});
        return answer;
      });
  dnsserver::AuthorityDirectory dir;
  dir.add_authority(DnsName::from_text("dangling.example"), &bogus_top);
  dnsserver::ResolverConfig config;
  dnsserver::RecursiveResolver resolver{config, &clock, &dir, *net::IpAddr::parse("200.1.1.1")};
  const Message response = resolver.resolve(
      Message::make_query(4, DnsName::from_text("a.dangling.example"), RecordType::A),
      *net::IpAddr::parse("1.2.3.4"));
  EXPECT_TRUE(response.answers.empty());
  EXPECT_EQ(resolver.stats().referrals_followed, 0U);
}

}  // namespace
}  // namespace eum::cdn
