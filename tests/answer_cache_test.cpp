// Wire-level answer cache: probe parsing, the key (the query's bytes after
// its id, the resolver, the snapshot version), id patching, cache-on ≡
// cache-off across resolvers and query kinds on the real mapping stack, and
// the snapshot-republish race (the TSan gate runs these suites).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include "cdn/mapping.h"
#include "control/map_maker.h"
#include "dnsserver/answer_cache.h"
#include "dnsserver/udp.h"
#include "test_world.h"
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
  // The key is every byte after the id; the qname is the question's labels.
  EXPECT_EQ(probe->key.data(), plain.data() + 2);
  EXPECT_EQ(probe->key.size(), plain.size() - 2);
  EXPECT_EQ(probe->qname.data(), plain.data() + 12);
  EXPECT_EQ(probe->qname.size(), 19U);  // www.g.cdn.example in wire form
  EXPECT_EQ(probe->resolver, v4("0.0.0.0"));  // no resolver named

  const auto ecs = ClientSubnetOption::for_query(v4("198.51.100.42"), 24);
  const auto with_ecs =
      Message::make_query(7, DnsName::from_text("www.g.cdn.example"), RecordType::A, ecs)
          .encode();
  const auto ecs_probe = QueryProbe::parse(with_ecs, v4("192.0.2.53"));
  ASSERT_TRUE(ecs_probe.has_value());
  EXPECT_EQ(ecs_probe->id, 7);
  EXPECT_EQ(ecs_probe->key.size(), with_ecs.size() - 2);  // the OPT record included
  EXPECT_EQ(ecs_probe->qname.size(), 19U);
  EXPECT_EQ(ecs_probe->resolver, v4("192.0.2.53"));
}

TEST(UdpAnswerCache, ProbeRejectsWhatMustTakeTheSlowPath) {
  const Message query =
      Message::make_query(1, DnsName::from_text("www.g.cdn.example"), RecordType::A);
  const auto wire = query.encode();

  // Too short for a header.
  EXPECT_FALSE(QueryProbe::parse(std::vector<std::uint8_t>(11, 0)).has_value());

  // No question.
  auto no_question = wire;
  no_question[5] = 0;
  EXPECT_FALSE(QueryProbe::parse(no_question).has_value());

  // A question name that is not plain labels, or runs off the datagram.
  auto pointer = wire;
  pointer[12] = 0xC0;
  EXPECT_FALSE(QueryProbe::parse(pointer).has_value());
  EXPECT_FALSE(
      QueryProbe::parse(std::span<const std::uint8_t>{wire}.first(20)).has_value());

  // Everything else is keyed by its bytes and answered as the engine
  // answered it, so the probe takes it: a response, trailing bytes, a
  // non-zero ECS scope.
  EXPECT_TRUE(QueryProbe::parse(Message::make_response(query).encode()).has_value());
  auto trailing = wire;
  trailing.push_back(0x00);
  EXPECT_TRUE(QueryProbe::parse(trailing).has_value());
  Message scoped = Message::make_query(2, DnsName::from_text("www.g.cdn.example"),
                                       RecordType::A,
                                       ClientSubnetOption::for_query(v4("10.0.0.0"), 24));
  scoped.edns->set_client_subnet(
      ClientSubnetOption::for_query(v4("10.0.0.0"), 24).with_scope(8));
  EXPECT_TRUE(QueryProbe::parse(scoped.encode()).has_value());
}

TEST(UdpAnswerCache, KeyIsTheBytesAfterTheIdTheResolverAndTheVersion) {
  AnswerCache cache{AnswerCache::Config{64, 4096}};
  const auto ecs = ClientSubnetOption::for_query(v4("198.51.100.42"), 24);
  const auto query =
      Message::make_query(0x0101, DnsName::from_text("www.g.cdn.example"), RecordType::A, ecs)
          .encode();
  const net::IpAddr resolver = v4("192.0.2.53");
  const auto probe = QueryProbe::parse(query, resolver);
  ASSERT_TRUE(probe.has_value());
  std::vector<std::uint8_t> response(40, 0xAB);
  response[0] = 0x01;
  response[1] = 0x01;
  cache.store(*probe, 3, response);

  // Another id, same everything else: a hit, rendered with the new id.
  auto other_id = query;
  other_id[0] = 0x77;
  other_id[1] = 0x88;
  const auto again = QueryProbe::parse(other_id, resolver);
  const AnswerCache::Entry* hit = cache.find(*again, 3);
  ASSERT_NE(hit, nullptr);
  std::vector<std::uint8_t> rendered;
  cache.render(*hit, *again, rendered);
  ASSERT_EQ(rendered.size(), response.size());
  EXPECT_EQ(rendered[0], 0x77);
  EXPECT_EQ(rendered[1], 0x88);
  EXPECT_TRUE(std::equal(rendered.begin() + 2, rendered.end(), response.begin() + 2));

  // Another map version, another resolver, or any other byte: a miss.
  EXPECT_EQ(cache.find(*again, 4), nullptr);
  EXPECT_EQ(cache.find(*QueryProbe::parse(other_id, v4("192.0.2.54")), 3), nullptr);
  EXPECT_EQ(cache.find(*QueryProbe::parse(other_id), 3), nullptr);
  auto other_client = other_id;
  other_client.back() ^= 0x01;  // the last ECS address byte
  EXPECT_EQ(cache.find(*QueryProbe::parse(other_client, resolver), 3), nullptr);
  auto other_payload = other_id;
  other_payload[other_payload.size() - 18] ^= 0x01;  // the OPT's advertised payload size
  ASSERT_NE(Message::decode(other_payload).edns->udp_payload_size,
            Message::decode(other_id).edns->udp_payload_size);
  EXPECT_EQ(cache.find(*QueryProbe::parse(other_payload, resolver), 3), nullptr);

  // Keys longer than max_wire are not stored.
  AnswerCache small{AnswerCache::Config{64, 32}};
  small.store(*probe, 3, std::span<const std::uint8_t>{response}.first(20));
  EXPECT_EQ(small.find(*probe, 3), nullptr);
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

// --- cache-on ≡ cache-off on the real mapping stack --------------------

/// `wire` with its id set to `id`.
std::vector<std::uint8_t> with_id(std::vector<std::uint8_t> wire, std::uint16_t id) {
  wire[0] = static_cast<std::uint8_t>(id >> 8);
  wire[1] = static_cast<std::uint8_t>(id & 0xFF);
  return wire;
}

/// Send `wire` from `client`, let `server` serve it on this thread, and
/// return the reply (nullopt: none).
std::optional<std::vector<std::uint8_t>> exchange(UdpSocket& client, UdpAuthorityServer& server,
                                                  const std::vector<std::uint8_t>& wire) {
  client.send_to(wire, server.endpoint());
  (void)server.serve_once(1000ms);
  UdpEndpoint peer;
  return client.receive(200ms, peer);
}

bool equal_but_id(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  return a.size() == b.size() && a.size() >= 2 &&
         std::equal(a.begin() + 2, a.end(), b.begin() + 2);
}

TEST(AnswerCacheDifferential, CacheOnEqualsCacheOffAcrossResolvers) {
  // Sixteen resolvers, each a client socket on its own loopback address
  // standing for a distinct world LDNS; every other one has the end-user
  // gate closed. Each asks the same queries of every kind, so answers
  // that depend on the resolver, the gate or the client block meet the
  // same cache. Served on this thread, one datagram at a time.
  const topo::World& world = testing::tiny_world();
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 80);
  cdn::MappingSystem mapping{&world, &network, &testing::test_latency(), cdn::MappingConfig{}};
  constexpr std::size_t kResolvers = 16;
  struct Resolver {
    net::IpAddr peer;
    const topo::Ldns* ldns = nullptr;
  };
  std::vector<Resolver> resolvers;
  std::vector<bool> gate_open(world.ldnses.size(), true);
  for (std::size_t i = 0; i < kResolvers; ++i) {
    const topo::Ldns& ldns = world.ldnses[i * world.ldnses.size() / kResolvers];
    resolvers.push_back({net::IpV4Addr{127, 0, 0, static_cast<std::uint8_t>(2 + i)}, &ldns});
    gate_open[ldns.id] = i % 2 == 0;
  }
  mapping.set_end_user_gate([&gate_open](topo::LdnsId ldns) { return gate_open[ldns]; });
  AuthoritativeServer engine;
  engine.add_dynamic_domain(DnsName::from_text("g.cdn.example"),
                            [inner = mapping.dns_handler(), &resolvers](const DynamicQuery& query) {
                              DynamicQuery patched = query;
                              for (const Resolver& resolver : resolvers) {
                                if (resolver.peer == query.resolver) {
                                  patched.resolver = resolver.ldns->address;
                                }
                              }
                              return inner(patched);
                            });
  UdpServerConfig off_config;
  off_config.map_version = &mapping.version_cell();
  UdpAuthorityServer cache_off{&engine, loopback(), off_config};
  obs::MetricsRegistry on_registry;
  UdpServerConfig on_config = off_config;
  on_config.registry = &on_registry;
  on_config.answer_cache_entries = 256;
  UdpAuthorityServer cache_on{&engine, loopback(), on_config};

  const net::IpAddr in_world{
      net::IpV4Addr{world.blocks[40].prefix.address().v4().value() + 5}};
  const net::IpAddr out_of_world = v4("198.51.100.7");
  ASSERT_EQ(world.block_by_prefix(net::IpPrefix{out_of_world, 24}), nullptr);
  const net::IpAddr v6_client = *net::IpAddr::parse("2001:db8:0:100::1");
  const DnsName qname = DnsName::from_text("www.g.cdn.example");
  const std::vector<std::vector<std::uint8_t>> kinds = [&] {
    std::vector<Message> queries;
    queries.push_back(Message::make_query(1, qname, RecordType::A));  // no EDNS
    queries.push_back(Message::make_query(1, qname, RecordType::A));
    queries.back().edns = dns::EdnsRecord{};  // EDNS without ECS
    queries.push_back(Message::make_query(1, qname, RecordType::A,
                                          ClientSubnetOption::for_query(in_world, 24)));
    queries.push_back(Message::make_query(1, qname, RecordType::A,
                                          ClientSubnetOption::for_query(in_world, 32)));
    queries.push_back(Message::make_query(1, qname, RecordType::A,
                                          ClientSubnetOption::for_query(out_of_world, 24)));
    queries.push_back(Message::make_query(1, qname, RecordType::A,
                                          ClientSubnetOption::for_query(v6_client, 56)));
    queries.push_back(Message::make_query(1, qname, RecordType::A,
                                          ClientSubnetOption::for_query(in_world, 24)));
    queries.back().edns->set_client_subnet(
        ClientSubnetOption::for_query(in_world, 24).with_scope(16));  // non-zero scope
    std::vector<std::vector<std::uint8_t>> wires;
    wires.reserve(queries.size());
    for (const Message& query : queries) wires.push_back(query.encode());
    return wires;
  }();

  std::vector<UdpSocket> clients;
  clients.reserve(resolvers.size());
  for (const Resolver& resolver : resolvers) {
    clients.emplace_back(UdpEndpoint{resolver.peer.v4(), 0});
  }
  std::size_t replies = 0;
  std::size_t differing = 0;
  std::uint16_t id = 0;
  for (std::size_t kind = 0; kind < kinds.size(); ++kind) {
    for (std::size_t r = 0; r < kResolvers; ++r) {
      SCOPED_TRACE(::testing::Message() << "kind " << kind << " resolver " << r);
      const auto reference = exchange(clients[r], cache_off, with_id(kinds[kind], ++id));
      ASSERT_TRUE(reference.has_value());
      for (int repeat = 0; repeat < 2; ++repeat) {
        const std::uint16_t sent = ++id;
        const auto reply = exchange(clients[r], cache_on, with_id(kinds[kind], sent));
        ASSERT_TRUE(reply.has_value());
        ++replies;
        EXPECT_EQ((*reply)[0] << 8 | (*reply)[1], sent);
        if (!equal_but_id(*reply, *reference)) ++differing;
      }
    }
  }
  EXPECT_EQ(differing, 0U) << "of " << replies << " cache-on replies";
  // Every repeat was a hit, and only repeats were.
  EXPECT_EQ(on_registry.counter_total("eum_udp_cache_hits_total"), kinds.size() * kResolvers);
  EXPECT_EQ(on_registry.counter_total("eum_udp_cache_misses_total"), kinds.size() * kResolvers);
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
