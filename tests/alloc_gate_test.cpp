// Allocation gate: a cache miss on the UDP serve path allocates nothing.
//
// Built as its own executable because it replaces the global operator
// new with one that counts allocations per thread. The stack is the one
// the server runs: a generated world, the mapping system answering from
// its published snapshot behind a map maker, the authoritative engine and a
// UdpAuthorityServer with its answer cache on. One pass over a set of
// distinct queries warms the worker's scratch and the cache slots; then
// the map version moves, so a second pass misses the cache on every
// query, and serve_once() must not allocate for any of them.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "cdn/mapping.h"
#include "control/map_maker.h"
#include "dnsserver/udp.h"
#include "test_world.h"

namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

// The replaced pair uses malloc/free on purpose.
void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace eum {
namespace {

using namespace std::chrono_literals;
using dns::ClientSubnetOption;
using dns::DnsName;
using dns::Message;
using dns::RecordType;
using eum::testing::test_latency;
using eum::testing::tiny_world;

/// Distinct cache keys covering the miss path's shapes: A and AAAA; ECS
/// /24 and /32 inside the world, ECS /56 for IPv6; EDNS without ECS; and
/// no EDNS at all.
std::vector<std::vector<std::uint8_t>> distinct_queries(std::size_t count) {
  const topo::World& world = tiny_world();
  std::vector<std::vector<std::uint8_t>> wires;
  for (std::size_t i = 0; i < count; ++i) {
    const auto id = static_cast<std::uint16_t>(i + 1);
    const RecordType type = i % 2 == 0 ? RecordType::A : RecordType::AAAA;
    const net::IpAddr client{
        net::IpV4Addr{world.blocks[(i * 37) % world.blocks.size()].prefix.address().v4().value() +
                      5}};
    const DnsName qname = DnsName::from_text("q" + std::to_string(i) + ".g.cdn.example");
    Message query;
    switch (i % 5) {
      case 0:
        query = Message::make_query(id, qname, type, ClientSubnetOption::for_query(client, 24));
        break;
      case 1:
        query = Message::make_query(id, qname, type, ClientSubnetOption::for_query(client, 32));
        break;
      case 2: {
        net::IpV6Addr::Bytes bytes{0x20, 0x01, 0x0d, 0xb8, 0, 0, static_cast<std::uint8_t>(i)};
        query = Message::make_query(
            id, qname, type, ClientSubnetOption::for_query(net::IpAddr{net::IpV6Addr{bytes}}, 56));
        break;
      }
      case 3:
        query = Message::make_query(id, qname, type);
        query.edns = dns::EdnsRecord{};
        break;
      default:
        query = Message::make_query(id, qname, type);
        break;
    }
    wires.push_back(query.encode());
  }
  return wires;
}

TEST(AllocationGate, CacheMissServesWithoutAllocating) {
  cdn::CdnNetwork network = cdn::CdnNetwork::build(tiny_world(), 80);
  cdn::MappingSystem mapping{&tiny_world(), &network, &test_latency(), cdn::MappingConfig{}};
  control::MapMaker maker{&mapping};

  // Loopback peers are not world resolvers: answer them as the first
  // ECS-capable resolver, as the serving benchmark does, so every query
  // reaches a mapping decision.
  const topo::Ldns* resolver = nullptr;
  for (const topo::Ldns& ldns : tiny_world().ldnses) {
    if (ldns.supports_ecs) {
      resolver = &ldns;
      break;
    }
  }
  ASSERT_NE(resolver, nullptr);
  dnsserver::AuthoritativeServer engine;
  engine.add_dynamic_domain(DnsName::from_text("g.cdn.example"),
                            [inner = mapping.dns_handler(), resolver](
                                const dnsserver::DynamicQuery& query) {
                              dnsserver::DynamicQuery patched = query;
                              patched.resolver = resolver->address;
                              return inner(patched);
                            });

  std::atomic<std::uint64_t> map_version{1};
  dnsserver::UdpServerConfig config;
  config.answer_cache_entries = 1024;
  config.map_version = &map_version;
  dnsserver::UdpAuthorityServer server{
      &engine, dnsserver::UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}, config};
  dnsserver::UdpSocket client{dnsserver::UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}};

  constexpr std::size_t kQueries = 60;
  const std::vector<std::vector<std::uint8_t>> queries = distinct_queries(kQueries);
  std::vector<std::uint64_t> allocations(kQueries, 0);
  obs::MetricsRegistry& registry = engine.registry();
  const auto count = [&registry](const char* name) { return registry.counter_total(name); };
  for (int pass = 0; pass < 2; ++pass) {
    const std::uint64_t misses_before = count("eum_udp_cache_misses_total");
    const std::uint64_t hits_before = count("eum_udp_cache_hits_total");
    const std::uint64_t answers_before = count("eum_authority_dynamic_answers_total");
    for (std::size_t i = 0; i < kQueries; ++i) {
      client.send_to(queries[i], server.endpoint());
      const std::uint64_t start = t_allocations;
      const bool served = server.serve_once(1000ms);
      allocations[i] = t_allocations - start;
      ASSERT_TRUE(served) << "query " << i;
      dnsserver::UdpEndpoint peer;
      const auto reply = client.receive(1000ms, peer);
      ASSERT_TRUE(reply.has_value()) << "query " << i;
      const Message answer = Message::decode(*reply);
      EXPECT_EQ(answer.header.rcode, dns::Rcode::no_error) << "query " << i;
      EXPECT_FALSE(answer.answers.empty()) << "query " << i;
    }
    // Every query of both passes missed the cache and took a mapping
    // decision.
    EXPECT_EQ(count("eum_udp_cache_misses_total") - misses_before, kQueries);
    EXPECT_EQ(count("eum_udp_cache_hits_total"), hits_before);
    EXPECT_EQ(count("eum_authority_dynamic_answers_total") - answers_before, kQueries);
    map_version.fetch_add(1, std::memory_order_release);  // the next pass misses again
  }
  for (std::size_t i = 0; i < kQueries; ++i) {
    EXPECT_EQ(allocations[i], 0U) << "warm miss " << i << " allocated";
  }
}

}  // namespace
}  // namespace eum
