// Byte-identity pins for the serve path's wire output.
//
// Each case is a fixed query answered by AuthoritativeServer::handle and
// serialized by Message::encode on the seeded tiny world, answered from
// the mapping system's published snapshot behind a map maker — the path
// the UDP server serves. The
// hex strings were recorded from the codec that predates inline names
// and offset-table compression, so any change to the encoder, the
// handler or the mapping decision that moves a served byte fails here.
// The same queries then go through the live UdpAuthorityServer (answer
// cache on: one missing pass, one hitting pass), which must send the
// pinned bytes too; the TC=1 and undecodable-datagram cases exist only
// on that path.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "cdn/mapping.h"
#include "control/map_maker.h"
#include "dnsserver/udp.h"
#include "dnsserver/zone.h"
#include "test_world.h"

namespace eum {
namespace {

using namespace std::chrono_literals;
using dns::ClientSubnetOption;
using dns::DnsName;
using dns::Message;
using dns::RecordType;
using dnsserver::DynamicAnswer;
using dnsserver::DynamicQuery;
using dnsserver::UdpEndpoint;
using eum::testing::test_latency;
using eum::testing::tiny_world;

std::string hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  char buf[3];
  for (const std::uint8_t byte : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", byte);
    out += buf;
  }
  return out;
}

net::IpAddr ip(const char* text) { return *net::IpAddr::parse(text); }

/// The first ECS-capable public-resolver site of the tiny world.
const topo::Ldns& ecs_ldns() {
  for (const topo::Ldns& ldns : tiny_world().ldnses) {
    if (ldns.type == topo::LdnsType::public_site) return ldns;
  }
  throw std::logic_error{"tiny world has no public resolver"};
}

/// An address inside a fixed client block of the tiny world.
net::IpAddr client_in_world() {
  return net::IpAddr{
      net::IpV4Addr{tiny_world().blocks[100].prefix.address().v4().value() + 77}};
}

dnsserver::Zone static_zone() {
  dns::SoaRecord soa;
  soa.mname = DnsName::from_text("ns1.static.example");
  soa.rname = DnsName::from_text("hostmaster.static.example");
  soa.serial = 7;
  soa.minimum = 30;
  dnsserver::Zone zone{DnsName::from_text("static.example"), soa};
  zone.add_cname(DnsName::from_text("www.static.example"),
                 DnsName::from_text("host.static.example"), 300);
  zone.add_a(DnsName::from_text("host.static.example"), net::IpV4Addr{192, 0, 2, 10}, 60);
  return zone;
}

struct PinCase {
  const char* name;
  Message query;
  dnsserver::AuthoritativeServer* engine;  ///< answers `query` from ecs_ldns()
  const char* hex;                         ///< pinned handle() + encode() bytes
};

struct WirePinFixture : ::testing::Test {
  WirePinFixture()
      : network(cdn::CdnNetwork::build(tiny_world(), 80)),
        mapping(&tiny_world(), &network, &test_latency(), cdn::MappingConfig{}),
        maker(&mapping) {
    engine.add_dynamic_domain(DnsName::from_text("g.cdn.example"), mapping.dns_handler());
    engine.add_zone(static_zone());
    mapping.install_two_tier(directory, top, low, DnsName::from_text("b.cdn.example"));
  }

  std::vector<PinCase> cases() {
    const DnsName www = DnsName::from_text("www.g.cdn.example");
    const ClientSubnetOption ecs24 = ClientSubnetOption::for_query(client_in_world(), 24);
    const ClientSubnetOption ecs32 = ClientSubnetOption::for_query(client_in_world(), 32);
    const ClientSubnetOption ecs56 =
        ClientSubnetOption::for_query(ip("2001:db8:abcd:1234::1"), 56);
    Message edns_only = Message::make_query(106, www, RecordType::AAAA);
    edns_only.edns = dns::EdnsRecord{};
    edns_only.edns->udp_payload_size = 1232;
    return {
        {"a_ecs_v4_24", Message::make_query(101, www, RecordType::A, ecs24), &engine,
          "0065850000010002000000010377777701670363646e076578616d706c650000010001c0"
          "0c00010001000000140004cb003b05c00c00010001000000140004cb003b070000291000"
          "00000000000b0008000700011818010070"},
        {"aaaa_ecs_v4_24", Message::make_query(102, www, RecordType::AAAA, ecs24), &engine,
          "0066850000010002000000010377777701670363646e076578616d706c6500001c0001c0"
          "0c001c000100000014001020010db800cd000000000000cb003b05c00c001c0001000000"
          "14001020010db800cd000000000000cb003b07000029100000000000000b000800070001"
          "1818010070"},
        {"a_ecs_v4_32", Message::make_query(103, www, RecordType::A, ecs32), &engine,
          "0067850000010002000000010377777701670363646e076578616d706c650000010001c0"
          "0c00010001000000140004cb003b05c00c00010001000000140004cb003b070000291000"
          "00000000000c00080008000120180100704d"},
        {"a_ecs_v6_56", Message::make_query(104, www, RecordType::A, ecs56), &engine,
          "0068850000010002000000010377777701670363646e076578616d706c650000010001c0"
          "0c00010001000000140004cb004502c00c00010001000000140004cb0045010000291000"
          "00000000000f0008000b0002380020010db8abcd12"},
        {"a_no_edns", Message::make_query(105, www, RecordType::A), &engine,
          "0069850000010002000000000377777701670363646e076578616d706c650000010001c0"
          "0c00010001000000140004cb004502c00c00010001000000140004cb004501"},
        {"aaaa_edns_no_ecs", edns_only, &engine,
          "006a850000010002000000010377777701670363646e076578616d706c6500001c0001c0"
          "0c001c000100000014001020010db800cd000000000000cb004502c00c001c0001000000"
          "14001020010db800cd000000000000cb0045010000291000000000000000"},
        {"referral_with_glue",
         Message::make_query(107, DnsName::from_text("e7.b.cdn.example"), RecordType::A, ecs24),
         &top,
          "006b8100000100000001000202653701620363646e076578616d706c650000010001c00f"
          "00020001000000140007046e733539c00fc02e00010001000000140004cb003bfe000029"
          "100000000000000b0008000700011818010070"},
        {"static_cname_chain",
         Message::make_query(108, DnsName::from_text("www.static.example"), RecordType::A, ecs24),
         &engine,
          "006c850000010002000000010377777706737461746963076578616d706c650000010001"
          "c00c000500010000012c000704686f7374c010c030000100010000003c0004c000020a00"
          "0029100000000000000b0008000700011800010070"},
        {"static_nxdomain",
         Message::make_query(109, DnsName::from_text("nope.static.example"), RecordType::A),
         &engine,
          "006d85030001000000010000046e6f706506737461746963076578616d706c6500000100"
          "01c011000600010000001e0027036e7331c0110a686f73746d6173746572c01100000007"
          "0000000000000000000000000000001e"},
        {"formerr_nonzero_scope",
         Message::make_query(110, www, RecordType::A, ecs24.with_scope(16)), &engine,
          "006e850100010000000000010377777701670363646e076578616d706c65000001000100"
          "00291000000000000000"},
    };
  }

  cdn::CdnNetwork network;
  cdn::MappingSystem mapping;
  control::MapMaker maker;
  dnsserver::AuthoritativeServer engine;
  dnsserver::AuthoritativeServer top;
  dnsserver::AuthoritativeServer low;
  dnsserver::AuthorityDirectory directory;
};

TEST_F(WirePinFixture, HandleEncodeBytesArePinned) {
  for (const PinCase& c : cases()) {
    const Message response = c.engine->handle(c.query, ecs_ldns().address);
    EXPECT_EQ(hex(response.encode()), c.hex) << c.name;
  }
}

/// Serve one datagram through `server` on this thread and return the
/// bytes it sent back.
std::vector<std::uint8_t> serve(dnsserver::UdpAuthorityServer& server,
                                dnsserver::UdpSocket& client,
                                std::span<const std::uint8_t> datagram) {
  client.send_to(datagram, server.endpoint());
  EXPECT_TRUE(server.serve_once(1000ms));
  UdpEndpoint peer;
  auto reply = client.receive(1000ms, peer);
  return reply ? *reply : std::vector<std::uint8_t>{};
}

TEST_F(WirePinFixture, UdpServePathSendsThePinnedBytes) {
  // Loopback peers are not world resolvers: answer them as ecs_ldns(),
  // the source the handle() pins used.
  dnsserver::AuthoritativeServer served;
  const dnsserver::DynamicAnswerFn inner = mapping.dns_handler();
  served.add_dynamic_domain(DnsName::from_text("g.cdn.example"),
                            [&inner](const DynamicQuery& query) {
                              DynamicQuery patched = query;
                              patched.resolver = ecs_ldns().address;
                              return inner(patched);
                            });
  served.add_zone(static_zone());
  dnsserver::AuthoritativeServer served_top;
  served_top.add_dynamic_domain(
      DnsName::from_text("b.cdn.example"),
      [handler = mapping.top_level_handler(DnsName::from_text("b.cdn.example"))](
          const DynamicQuery& query) {
        DynamicQuery patched = query;
        patched.resolver = ecs_ldns().address;
        return handler(patched);
      });
  dnsserver::UdpServerConfig config;
  config.answer_cache_entries = 64;
  config.map_version = &maker.version_cell();
  dnsserver::UdpAuthorityServer server{&served, UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0},
                                       config};
  dnsserver::UdpAuthorityServer top_server{
      &served_top, UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}, config};
  dnsserver::UdpSocket client{UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}};

  for (int pass = 0; pass < 2; ++pass) {  // cache miss, then cache hit
    for (const PinCase& c : cases()) {
      dnsserver::UdpAuthorityServer& target = c.engine == &top ? top_server : server;
      EXPECT_EQ(hex(serve(target, client, c.query.encode())), c.hex)
          << c.name << " pass " << pass;
    }
  }
}

TEST_F(WirePinFixture, UdpTruncationAndFormerrBytesArePinned) {
  dnsserver::AuthoritativeServer big;
  big.add_dynamic_domain(DnsName::from_text("g.cdn.example"),
                         [](const DynamicQuery&) -> std::optional<DynamicAnswer> {
                           DynamicAnswer answer;
                           answer.ecs_scope_len = 20;
                           for (std::uint32_t i = 0; i < 60; ++i) {  // ~1 KB: over 512
                             answer.addresses.push_back(
                                 net::IpAddr{net::IpV4Addr{0xCB007100U + i}});
                           }
                           return answer;
                         });
  dnsserver::UdpServerConfig config;
  config.answer_cache_entries = 64;
  dnsserver::UdpAuthorityServer server{&big, UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0},
                                       config};
  dnsserver::UdpSocket client{UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}};

  Message query = Message::make_query(
      111, DnsName::from_text("www.g.cdn.example"), RecordType::A,
      ClientSubnetOption::for_query(ip("198.51.100.42"), 24));
  query.edns->udp_payload_size = 512;
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(hex(serve(server, client, query.encode())),
              "006f870000010000000000010377777701670363646e076578616d706c65000001000100"
              "0029100000000000000b0008000700011814c63364")
        << "tc pass " << pass;
  }
  const std::vector<std::uint8_t> garbage{0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0xff};
  EXPECT_EQ(hex(serve(server, client, garbage)), "123480010000000000000000") << "formerr";
}

}  // namespace
}  // namespace eum
