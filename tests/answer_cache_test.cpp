// Wire-level answer cache: probe parsing, key discipline (ECS scope,
// payload limit, snapshot version), id/address patching, and the
// snapshot-republish race (the TSan gate runs this suite).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "cdn/mapping.h"
#include "control/map_maker.h"
#include "dnsserver/answer_cache.h"
#include "dnsserver/udp.h"
#include "topo/world_gen.h"

namespace eum::dnsserver {
namespace {

using namespace std::chrono_literals;
using dns::ClientSubnetOption;
using dns::DnsName;
using dns::Message;
using dns::RecordType;

net::IpAddr v4(const char* text) { return *net::IpAddr::parse(text); }

UdpEndpoint loopback() { return UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}; }

TEST(UdpAnswerCache, PayloadLimitClampFollowsRfc6891) {
  // RFC 6891 §6.2.3: advertised sizes below 512 are treated as 512.
  static_assert(effective_udp_payload_limit(false, 0) == 512);
  static_assert(effective_udp_payload_limit(true, 0) == 512);
  static_assert(effective_udp_payload_limit(true, 100) == 512);
  static_assert(effective_udp_payload_limit(true, 511) == 512);
  static_assert(effective_udp_payload_limit(true, 512) == 512);
  static_assert(effective_udp_payload_limit(true, 1232) == 1232);
  static_assert(effective_udp_payload_limit(true, 65535) == 65535);
}

TEST(UdpAnswerCache, ProbeParsesPlainAndEcsQueries) {
  const auto plain =
      Message::make_query(0x1234, DnsName::from_text("www.g.cdn.example"), RecordType::A)
          .encode();
  const auto probe = QueryProbe::parse(plain);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->id, 0x1234);
  EXPECT_EQ(probe->qtype, 1U);   // A
  EXPECT_EQ(probe->qclass, 1U);  // IN
  EXPECT_FALSE(probe->has_edns);
  EXPECT_FALSE(probe->has_ecs);
  EXPECT_EQ(probe->qname.size(), 19U);  // www.g.cdn.example in wire form
  EXPECT_EQ(probe->payload_limit(), 512U);

  const auto ecs = ClientSubnetOption::for_query(v4("198.51.100.42"), 24);
  const auto with_ecs =
      Message::make_query(7, DnsName::from_text("www.g.cdn.example"), RecordType::A, ecs)
          .encode();
  const auto ecs_probe = QueryProbe::parse(with_ecs);
  ASSERT_TRUE(ecs_probe.has_value());
  EXPECT_TRUE(ecs_probe->has_edns);
  EXPECT_TRUE(ecs_probe->has_ecs);
  EXPECT_EQ(ecs_probe->ecs_family, 1U);
  EXPECT_EQ(ecs_probe->ecs_source_len, 24U);
  ASSERT_EQ(ecs_probe->ecs_address.size(), 3U);
  EXPECT_EQ(ecs_probe->ecs_address[0], 198);
  EXPECT_EQ(ecs_probe->ecs_address[1], 51);
  EXPECT_EQ(ecs_probe->ecs_address[2], 100);
}

TEST(UdpAnswerCache, ProbeRejectsWhatMustTakeTheSlowPath) {
  const Message query =
      Message::make_query(1, DnsName::from_text("www.g.cdn.example"), RecordType::A);
  const auto wire = query.encode();

  // Responses are not queries.
  EXPECT_FALSE(QueryProbe::parse(Message::make_response(query).encode()).has_value());

  // Trailing garbage must not be silently ignored.
  auto trailing = wire;
  trailing.push_back(0x00);
  EXPECT_FALSE(QueryProbe::parse(trailing).has_value());

  // Too short for a header.
  EXPECT_FALSE(QueryProbe::parse(std::vector<std::uint8_t>(11, 0)).has_value());

  // Non-zero ECS scope in a query: the engine answers FORMERR, so the
  // probe must refuse it rather than key a cache entry on it.
  Message scoped = Message::make_query(2, DnsName::from_text("www.g.cdn.example"),
                                       RecordType::A,
                                       ClientSubnetOption::for_query(v4("10.0.0.0"), 24));
  scoped.edns->set_client_subnet(
      ClientSubnetOption::for_query(v4("10.0.0.0"), 24).with_scope(8));
  EXPECT_FALSE(QueryProbe::parse(scoped.encode()).has_value());
}

/// Server fixture with the wire cache enabled and a handler that counts
/// how many queries actually reached the engine.
class AnswerCacheFixture : public ::testing::Test {
 protected:
  AnswerCacheFixture() {
    engine_.add_dynamic_domain(
        DnsName::from_text("g.cdn.example"),
        [this](const DynamicQuery& query) -> std::optional<DynamicAnswer> {
          handler_calls_.fetch_add(1, std::memory_order_relaxed);
          DynamicAnswer answer;
          answer.ttl = 20;
          answer.ecs_scope_len = 16;
          // The answer depends on the client /16, so scope-correct
          // caching is observable through the address.
          const std::uint32_t base =
              query.client_block
                  ? (query.client_block->address().v4().value() >> 16) & 0xFF
                  : 9;
          answer.addresses = {net::IpAddr{net::IpV4Addr{203, 0,
                                                        static_cast<std::uint8_t>(base), 1}}};
          return answer;
        });
    UdpServerConfig config;
    config.answer_cache_entries = 256;
    config.map_version = &version_cell_;
    server_ = std::make_unique<UdpAuthorityServer>(&engine_, loopback(), config);
    server_->start();
  }

  ~AnswerCacheFixture() override { server_->stop(); }

  [[nodiscard]] std::optional<Message> ask(std::uint16_t id, const char* client,
                                           int source_len) {
    UdpDnsClient dns_client;
    const auto ecs = ClientSubnetOption::for_query(v4(client), source_len);
    const Message query = Message::make_query(
        id, DnsName::from_text("www.g.cdn.example"), RecordType::A, ecs);
    return dns_client.query(query, server_->endpoint(), 2000ms);
  }

  /// A front-end counter, summed over the workers.
  [[nodiscard]] std::uint64_t udp_count(std::string_view name) const {
    return server_->registry().counter_total(name);
  }

  AuthoritativeServer engine_;
  std::atomic<std::uint64_t> version_cell_{1};
  std::atomic<std::uint64_t> handler_calls_{0};
  std::unique_ptr<UdpAuthorityServer> server_;
};

TEST_F(AnswerCacheFixture, RepeatQueryHitsAndPatchesId) {
  const auto first = ask(0x1111, "198.51.100.42", 24);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->header.id, 0x1111);
  const auto second = ask(0x2222, "198.51.100.42", 24);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->header.id, 0x2222);  // id patched into the cached wire
  EXPECT_EQ(second->answer_addresses(), first->answer_addresses());
  EXPECT_EQ(udp_count("eum_udp_cache_hits_total"), 1U);
  EXPECT_EQ(udp_count("eum_udp_cache_misses_total"), 1U);
  EXPECT_EQ(udp_count("eum_udp_queries_total"), 2U);
  // The repeat never reached the engine.
  EXPECT_EQ(handler_calls_.load(std::memory_order_relaxed), 1U);
}

TEST_F(AnswerCacheFixture, EcsSameScopeHitsDifferentScopeMisses) {
  // The handler announces scope /16. Two clients inside 198.51/16 must
  // share one entry; a client in another /16 must miss to its own.
  const auto a = ask(1, "198.51.100.42", 24);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(handler_calls_.load(std::memory_order_relaxed), 1U);

  const auto b = ask(2, "198.51.200.7", 24);  // same /16, different /24
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(handler_calls_.load(std::memory_order_relaxed), 1U);  // served from the cache
  EXPECT_EQ(b->answer_addresses(), a->answer_addresses());
  // The cached wire must still echo THIS client's announced block, not
  // the first client's (RFC 7871: the option mirrors the query).
  const ClientSubnetOption* echoed = b->client_subnet();
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(echoed->address(), v4("198.51.200.0"));
  EXPECT_EQ(echoed->scope_prefix_len(), 16);
  EXPECT_EQ(echoed->source_prefix_len(), 24);

  const auto c = ask(3, "203.0.113.5", 24);  // different /16: miss
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(handler_calls_.load(std::memory_order_relaxed), 2U);
  EXPECT_NE(c->answer_addresses(), a->answer_addresses());

  EXPECT_EQ(udp_count("eum_udp_cache_hits_total"), 1U);
  EXPECT_EQ(udp_count("eum_udp_cache_misses_total"), 2U);
}

TEST_F(AnswerCacheFixture, ClampedPayloadLimitsShareOneEntry) {
  // Advertising 100 vs 300 octets clamps to the same 512-byte limit, so
  // the second query must hit the first's entry despite the different
  // advertised value.
  UdpDnsClient client;
  const auto ecs = ClientSubnetOption::for_query(v4("198.51.100.42"), 24);
  Message first = Message::make_query(1, DnsName::from_text("www.g.cdn.example"),
                                      RecordType::A, ecs);
  first.edns->udp_payload_size = 100;
  ASSERT_TRUE(client.query(first, server_->endpoint(), 2000ms).has_value());
  Message second = Message::make_query(2, DnsName::from_text("www.g.cdn.example"),
                                       RecordType::A, ecs);
  second.edns->udp_payload_size = 300;
  ASSERT_TRUE(client.query(second, server_->endpoint(), 2000ms).has_value());
  EXPECT_EQ(udp_count("eum_udp_cache_hits_total"), 1U);
  EXPECT_EQ(udp_count("eum_udp_cache_misses_total"), 1U);
}

TEST_F(AnswerCacheFixture, VersionBumpInvalidatesEveryEntry) {
  ASSERT_TRUE(ask(1, "198.51.100.42", 24).has_value());
  ASSERT_TRUE(ask(2, "198.51.100.42", 24).has_value());
  EXPECT_EQ(udp_count("eum_udp_cache_hits_total"), 1U);
  EXPECT_EQ(handler_calls_.load(std::memory_order_relaxed), 1U);

  version_cell_.store(2, std::memory_order_release);  // "snapshot republished"
  ASSERT_TRUE(ask(3, "198.51.100.42", 24).has_value());
  EXPECT_EQ(handler_calls_.load(std::memory_order_relaxed), 2U);  // cache entry no longer matches
  EXPECT_EQ(udp_count("eum_udp_cache_hits_total"), 1U);
  EXPECT_EQ(udp_count("eum_udp_cache_misses_total"), 2U);

  // And the new version caches normally again.
  ASSERT_TRUE(ask(4, "198.51.100.42", 24).has_value());
  EXPECT_EQ(handler_calls_.load(std::memory_order_relaxed), 2U);
  EXPECT_EQ(udp_count("eum_udp_cache_hits_total"), 2U);
}

// --- snapshot-republish race (the TSan-gated concurrency suite) --------

/// Encode a map version into an answer address (10.x.y.z) and back.
net::IpAddr version_address(std::uint64_t version) {
  return net::IpAddr{net::IpV4Addr{10, static_cast<std::uint8_t>(version >> 16),
                                   static_cast<std::uint8_t>(version >> 8),
                                   static_cast<std::uint8_t>(version)}};
}

std::uint64_t version_of(const Message& response) {
  const auto addresses = response.answer_addresses();
  if (addresses.empty()) return 0;
  return addresses.front().v4().value() & 0xFFFFFF;
}

TEST(SnapshotRepublishRace, NoStaleVersionAnswerEscapes) {
  // Real control plane: a MapMaker republishing at full rate while four
  // cache-enabled workers serve ECS queries. The handler stamps the
  // published snapshot's version into every answer, so a cached wire
  // carries the generation it was computed from.
  topo::WorldGenConfig world_config;
  world_config.seed = 7;
  world_config.target_blocks = 300;
  world_config.target_ases = 30;
  world_config.ping_targets = 40;
  const topo::World world = topo::generate_world(world_config);
  const topo::LatencyModel latency{topo::LatencyParams{}, world_config.seed};
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 20);
  cdn::MappingSystem mapping{&world, &network, &latency, cdn::MappingConfig{}};

  control::MapMakerConfig maker_config;
  maker_config.publish_unchanged = true;  // every rebuild bumps the version
  control::MapMaker maker{&mapping, nullptr, maker_config};

  AuthoritativeServer engine;
  engine.add_dynamic_domain(
      DnsName::from_text("g.cdn.example"),
      [&maker](const DynamicQuery&) -> std::optional<DynamicAnswer> {
        DynamicAnswer answer;
        answer.ttl = 20;
        answer.ecs_scope_len = 24;
        answer.addresses = {version_address(maker.current()->version())};
        return answer;
      });
  UdpServerConfig config;
  config.workers = 4;
  config.answer_cache_entries = 512;
  config.map_version = &maker.version_cell();
  UdpAuthorityServer server{&engine, loopback(), config};
  server.start();

  // Phase 1: hammer a small set of client blocks (high hit rate) while
  // the maker republishes every few milliseconds. Every answer must
  // carry a version from the published range — in particular never one
  // newer than the maker has built, and never garbage from a torn wire.
  maker.start(5ms);
  {
    UdpDnsClient client;
    const auto deadline = std::chrono::steady_clock::now() + 300ms;
    std::uint16_t id = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      const char* clients[] = {"198.51.100.9", "198.51.101.9", "203.0.113.9"};
      const auto ecs = ClientSubnetOption::for_query(v4(clients[id % 3]), 24);
      const Message query = Message::make_query(
          ++id, DnsName::from_text("www.g.cdn.example"), RecordType::A, ecs);
      const auto response = client.query(query, server.endpoint(), 2000ms);
      ASSERT_TRUE(response.has_value());
      const std::uint64_t answer_version = version_of(*response);
      EXPECT_GE(answer_version, 1U);
      // The handler may have read a snapshot published a beat before its
      // version store became visible; the version cell can lag the
      // snapshot by at most that one in-flight publish.
      EXPECT_LE(answer_version, maker.version() + 1);
    }
  }
  maker.stop();

  // Phase 2: deterministic staleness check. Force one more publish, then
  // every answer — first query (miss) and repeats (hits) alike — must
  // carry exactly the new version; a stale cached wire would surface the
  // old one.
  const std::uint64_t final_version = maker.rebuild_now(true)->version();
  {
    UdpDnsClient client;
    for (std::uint16_t i = 1; i <= 10; ++i) {
      const auto ecs = ClientSubnetOption::for_query(v4("198.51.100.9"), 24);
      const Message query = Message::make_query(
          static_cast<std::uint16_t>(0x4000 + i),
          DnsName::from_text("www.g.cdn.example"), RecordType::A, ecs);
      const auto response = client.query(query, server.endpoint(), 2000ms);
      ASSERT_TRUE(response.has_value());
      EXPECT_EQ(version_of(*response), final_version);
    }
  }
  // The race actually exercised the cache.
  EXPECT_GT(server.registry().counter_total("eum_udp_cache_hits_total"), 0U);
  server.stop();
}

}  // namespace
}  // namespace eum::dnsserver
