// Property test of the ECS cache's core correctness invariant: under any
// interleaving of clients, a resolver with an RFC 7871 scoped cache must
// return, for every client, exactly the answer the authority would give
// for that client's block — caching may only save queries, never change
// answers. This is the invariant whose violation would silently route
// clients to far-away servers.
#include <gtest/gtest.h>

#include "dnsserver/resolver.h"
#include "dnsserver/transport.h"
#include "util/rng.h"

namespace eum::dnsserver {
namespace {

using dns::DnsName;
using dns::Message;
using dns::RecordType;

/// Authority answering with an address that deterministically encodes the
/// client's /`scope` block (or a fixed address without ECS), so the
/// correct answer for any client is computable independently.
class BlockEchoAuthority {
 public:
  explicit BlockEchoAuthority(int scope) : scope_(scope) {
    server_.add_dynamic_domain(
        DnsName::from_text("g.cdn.example"),
        [this](const DynamicQuery& query) -> std::optional<DynamicAnswer> {
          DynamicAnswer answer;
          answer.ttl = 300;
          answer.ecs_scope_len = scope_;
          answer.addresses = {query.client_block
                                  ? expected_for(query.client_block->address())
                                  : *net::IpAddr::parse("203.255.255.1")};
          return answer;
        });
    directory_.add_authority(DnsName::from_text("g.cdn.example"), &server_);
  }

  /// The answer any client in `addr`'s /scope block must receive.
  [[nodiscard]] net::IpAddr expected_for(const net::IpAddr& addr) const {
    const net::IpPrefix block{addr, scope_};
    return net::IpAddr{net::IpV4Addr{0xCB000000U | (block.address().v4().value() >> 8 & 0xFFFFFF)}};
  }

  [[nodiscard]] AuthorityDirectory* directory() { return &directory_; }

 private:
  int scope_;
  AuthoritativeServer server_;
  AuthorityDirectory directory_;
};

struct Params {
  int scope;
  std::uint64_t seed;
};

class EcsCacheInvariant : public ::testing::TestWithParam<Params> {};

TEST_P(EcsCacheInvariant, CachedAnswersAlwaysMatchDirectAnswers) {
  const auto [scope, seed] = GetParam();
  BlockEchoAuthority authority{scope};
  util::SimClock clock;
  ResolverConfig config;
  config.ecs_enabled = true;
  RecursiveResolver resolver{config, &clock, authority.directory(),
                             *net::IpAddr::parse("202.0.0.1")};

  util::Rng rng{seed};
  const auto qname = DnsName::from_text("www.g.cdn.example");
  std::uint16_t id = 1;
  std::uint64_t hits_checked = 0;
  for (int step = 0; step < 3000; ++step) {
    // Clients drawn from a small pool of /24s so cache hits are common;
    // occasional clock advances age entries across TTL boundaries.
    const std::uint32_t block24 = 0x0A000000U + (static_cast<std::uint32_t>(rng.below(40)) << 8);
    const net::IpAddr client{
        net::IpV4Addr{block24 + static_cast<std::uint32_t>(rng.below(254)) + 1}};
    if (rng.chance(0.02)) clock.advance(200);

    const std::uint64_t hits_before = resolver.registry().counter_total("eum_cache_hits_total");
    const Message response =
        resolver.resolve(Message::make_query(id++, qname, RecordType::A), client);
    ASSERT_EQ(response.header.rcode, dns::Rcode::no_error);
    const auto addresses = response.answer_addresses();
    ASSERT_EQ(addresses.size(), 1U);
    // The invariant: cached or not, the answer matches the client's block.
    EXPECT_EQ(addresses[0], authority.expected_for(client))
        << "client " << client.to_string() << " scope /" << scope << " step " << step;
    hits_checked += resolver.registry().counter_total("eum_cache_hits_total") - hits_before;
  }
  // The test only means something if the cache actually served traffic.
  EXPECT_GT(hits_checked, 1000U);
}

INSTANTIATE_TEST_SUITE_P(
    ScopesAndSeeds, EcsCacheInvariant,
    ::testing::Values(Params{24, 1}, Params{24, 2}, Params{20, 3}, Params{20, 4},
                      Params{16, 5}, Params{28, 6}, Params{8, 7}),
    [](const ::testing::TestParamInfo<Params>& param_info) {
      return "scope" + std::to_string(param_info.param.scope) + "_seed" +
             std::to_string(param_info.param.seed);
    });

TEST(EcsCacheInvariant, ForwardedEcsAnswersMatchTheForwardedBlockNotTheConnection) {
  // Property: under random interleavings of direct and forwarded queries
  // the answer always matches the *ECS* block (RFC 7871 §7.1.1) — the
  // connection address a forwarder happens to use must never select the
  // cached entry. Fails on the seed, which looked up by connection
  // address.
  BlockEchoAuthority authority{24};
  util::SimClock clock;
  ResolverConfig config;
  config.ecs_enabled = true;
  RecursiveResolver resolver{config, &clock, authority.directory(),
                             *net::IpAddr::parse("202.0.0.1")};
  util::Rng rng{99};
  const auto qname = DnsName::from_text("www.g.cdn.example");
  std::uint16_t id = 1;
  for (int step = 0; step < 2000; ++step) {
    // Both pools draw from the same 20 /24s so forwarder connection
    // addresses collide with other clients' ECS blocks constantly.
    const auto block = [&] {
      return 0x0A000000U + (static_cast<std::uint32_t>(rng.below(20)) << 8);
    };
    const net::IpAddr conn{net::IpV4Addr{block() + 1 + static_cast<std::uint32_t>(rng.below(200))}};
    if (rng.chance(0.5)) {
      // Forwarded query: independent ECS address.
      const net::IpAddr ecs_client{
          net::IpV4Addr{block() + 1 + static_cast<std::uint32_t>(rng.below(200))}};
      const auto ecs = dns::ClientSubnetOption::for_query(ecs_client, 24);
      const Message response =
          resolver.resolve(Message::make_query(id++, qname, RecordType::A, ecs), conn);
      const auto addresses = response.answer_addresses();
      ASSERT_EQ(addresses.size(), 1U);
      EXPECT_EQ(addresses[0], authority.expected_for(ecs_client))
          << "forwarded ECS " << ecs_client.to_string() << " over connection "
          << conn.to_string() << " step " << step;
    } else {
      const Message response =
          resolver.resolve(Message::make_query(id++, qname, RecordType::A), conn);
      const auto addresses = response.answer_addresses();
      ASSERT_EQ(addresses.size(), 1U);
      EXPECT_EQ(addresses[0], authority.expected_for(conn)) << "direct client "
                                                            << conn.to_string();
    }
  }
}

TEST(EcsCacheInvariant, CoexistingNestedScopesServeTheLongestMatch) {
  // An authority whose answers depend only on the /16 but whose reported
  // scope flaps between /16 and /24 (both claims are truthful). The cache
  // accumulates nested entries for the same name; longest-scope-match
  // must still return the block-correct answer for every client.
  util::SimClock clock;
  AuthoritativeServer server;
  AuthorityDirectory directory;
  int flip = 0;
  server.add_dynamic_domain(
      DnsName::from_text("g.cdn.example"),
      [&flip](const DynamicQuery& query) -> std::optional<DynamicAnswer> {
        DynamicAnswer answer;
        answer.ttl = 300;
        answer.ecs_scope_len = (flip++ % 2 == 0) ? 16 : 24;
        const net::IpPrefix block16{query.client_block->address(), 16};
        answer.addresses = {net::IpAddr{
            net::IpV4Addr{0xCB000000U | (block16.address().v4().value() >> 16 & 0xFFFF)}}};
        return answer;
      });
  directory.add_authority(DnsName::from_text("g.cdn.example"), &server);
  ResolverConfig config;
  config.ecs_enabled = true;
  RecursiveResolver resolver{config, &clock, &directory, *net::IpAddr::parse("202.0.0.1")};

  util::Rng rng{7};
  const auto qname = DnsName::from_text("www.g.cdn.example");
  std::uint16_t id = 1;
  for (int step = 0; step < 1500; ++step) {
    const std::uint32_t base =
        (static_cast<std::uint32_t>(rng.below(4)) << 16) |
        (static_cast<std::uint32_t>(rng.below(6)) << 8);
    const net::IpAddr client{net::IpV4Addr{0x0A000000U + base + 1}};
    const Message response =
        resolver.resolve(Message::make_query(id++, qname, RecordType::A), client);
    const auto addresses = response.answer_addresses();
    ASSERT_EQ(addresses.size(), 1U);
    const std::uint32_t expected16 = (0x0A000000U + base) >> 16;
    EXPECT_EQ(addresses[0].v4().value(), 0xCB000000U | expected16)
        << "client " << client.to_string() << " step " << step;
  }
  // The flapping scopes really did create coexisting entries per name.
  EXPECT_GT(resolver.cache_size(), 4U);
  EXPECT_GT(resolver.registry().counter_total("eum_cache_scoped_hits_total"), 1000U);
}

TEST(EcsCacheInvariant, MixedEcsAndPlainResolversShareAuthority) {
  // A non-ECS resolver and an ECS resolver against the same authority:
  // the plain one gets the client-independent answer, the ECS one the
  // block answer, and neither pollutes the other (separate caches).
  BlockEchoAuthority authority{24};
  util::SimClock clock;
  ResolverConfig plain_config;
  ResolverConfig ecs_config;
  ecs_config.ecs_enabled = true;
  RecursiveResolver plain{plain_config, &clock, authority.directory(),
                          *net::IpAddr::parse("202.0.0.1")};
  RecursiveResolver scoped{ecs_config, &clock, authority.directory(),
                           *net::IpAddr::parse("202.0.0.2")};
  const auto qname = DnsName::from_text("www.g.cdn.example");
  const net::IpAddr client = *net::IpAddr::parse("10.0.7.9");

  const auto plain_answer =
      plain.resolve(Message::make_query(1, qname, RecordType::A), client).answer_addresses();
  const auto scoped_answer =
      scoped.resolve(Message::make_query(2, qname, RecordType::A), client).answer_addresses();
  ASSERT_EQ(plain_answer.size(), 1U);
  ASSERT_EQ(scoped_answer.size(), 1U);
  EXPECT_EQ(plain_answer[0], *net::IpAddr::parse("203.255.255.1"));
  EXPECT_EQ(scoped_answer[0], authority.expected_for(client));
}

}  // namespace
}  // namespace eum::dnsserver
