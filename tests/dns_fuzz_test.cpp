// Robustness property tests: the decoder must never crash, hang, or
// over-read on corrupted wire data — every mutation either parses into a
// message or throws WireError — and the UDP answer cache answers every
// mutated query exactly as the engine does.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <vector>

#include "dns/message.h"
#include "dnsserver/answer_cache.h"
#include "dnsserver/udp.h"
#include "dnsserver/zone_file.h"
#include "util/rng.h"

namespace eum::dns {
namespace {

std::vector<std::uint8_t> complex_message_wire() {
  const auto ecs = ClientSubnetOption::for_query(*net::IpAddr::parse("203.0.113.7"), 24);
  Message response = Message::make_response(
      Message::make_query(7, DnsName::from_text("www.a-shop.example"), RecordType::A, ecs));
  response.answers.push_back(ResourceRecord{DnsName::from_text("www.a-shop.example"),
                                            RecordType::CNAME, RecordClass::IN, 300,
                                            CnameRecord{DnsName::from_text("e7.g.cdn.example")}});
  for (int i = 0; i < 3; ++i) {
    response.answers.push_back(ResourceRecord{
        DnsName::from_text("e7.g.cdn.example"), RecordType::A, RecordClass::IN, 20,
        ARecord{net::IpV4Addr{203, 0, 0, static_cast<std::uint8_t>(i + 1)}}});
  }
  SoaRecord soa;
  soa.mname = DnsName::from_text("ns1.g.cdn.example");
  soa.rname = DnsName::from_text("hostmaster.g.cdn.example");
  soa.minimum = 30;
  response.authorities.push_back(
      ResourceRecord{DnsName::from_text("g.cdn.example"), RecordType::SOA, RecordClass::IN, 30,
                     soa});
  response.additionals.push_back(
      ResourceRecord{DnsName::from_text("info.g.cdn.example"), RecordType::TXT,
                     RecordClass::IN, 60, TxtRecord{{"k=v", "cluster=7"}}});
  response.edns->set_client_subnet(ecs.with_scope(24));
  return response.encode();
}

void expect_decode_or_throw(std::span<const std::uint8_t> wire) {
  try {
    const Message decoded = Message::decode(wire);
    // Re-encoding whatever parsed must also not crash.
    (void)decoded.encode();
  } catch (const WireError&) {
    // Fine: rejected cleanly.
  }
}

class SingleByteMutation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SingleByteMutation, NeverCrashes) {
  const auto wire = complex_message_wire();
  util::Rng rng{GetParam()};
  for (int trial = 0; trial < 2000; ++trial) {
    auto mutated = wire;
    const std::size_t pos = rng.below(mutated.size());
    mutated[pos] = static_cast<std::uint8_t>(rng());
    expect_decode_or_throw(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleByteMutation, ::testing::Range<std::uint64_t>(1, 6));

TEST(Mutation, EveryPositionEveryFlip) {
  // Exhaustive single-bit flips over the whole message.
  const auto wire = complex_message_wire();
  for (std::size_t pos = 0; pos < wire.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = wire;
      mutated[pos] ^= static_cast<std::uint8_t>(1U << bit);
      expect_decode_or_throw(mutated);
    }
  }
}

TEST(Mutation, RandomGarbageNeverCrashes) {
  util::Rng rng{99};
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> garbage(rng.below(200));
    for (auto& byte : garbage) byte = static_cast<std::uint8_t>(rng());
    expect_decode_or_throw(garbage);
  }
}

TEST(Mutation, TruncationsOfMutatedMessages) {
  const auto wire = complex_message_wire();
  util::Rng rng{7};
  for (int trial = 0; trial < 500; ++trial) {
    auto mutated = wire;
    mutated[rng.below(mutated.size())] = static_cast<std::uint8_t>(rng());
    const std::size_t cut = rng.below(mutated.size());
    expect_decode_or_throw(std::span(mutated.data(), cut));
  }
}

// Hand-built ECS option-data corpus pinning the RFC 7871 §6 validity
// checks: a SCOPE PREFIX-LENGTH beyond the family's address width is a
// malformed option and must be rejected, never stored. (A resolver that
// accepted scope 33 for IPv4 would build an impossible cache block.)
TEST(EcsCorpus, ScopeBeyondFamilyWidthRejected) {
  // family=1 (IPv4), source=24, scope=33, 3 address octets.
  const std::uint8_t v4_scope_33[] = {0x00, 0x01, 24, 33, 203, 0, 113};
  ByteReader reader{std::span(v4_scope_33, sizeof v4_scope_33)};
  EXPECT_THROW((void)ClientSubnetOption::decode_data(reader, sizeof v4_scope_33), WireError);

  // family=2 (IPv6), source=56, scope=200, 7 address octets.
  const std::uint8_t v6_scope_200[] = {0x00, 0x02, 56, 200, 0x20, 0x01, 0x0d,
                                       0xb8, 0x00, 0x00, 0x00};
  ByteReader v6_reader{std::span(v6_scope_200, sizeof v6_scope_200)};
  EXPECT_THROW((void)ClientSubnetOption::decode_data(v6_reader, sizeof v6_scope_200),
               WireError);
}

TEST(EcsCorpus, ScopeAtFamilyWidthAccepted) {
  // Boundary: scope == 32 for IPv4 is the maximum legal value.
  const std::uint8_t v4_scope_32[] = {0x00, 0x01, 32, 32, 203, 0, 113, 7};
  ByteReader reader{std::span(v4_scope_32, sizeof v4_scope_32)};
  const ClientSubnetOption option =
      ClientSubnetOption::decode_data(reader, sizeof v4_scope_32);
  EXPECT_EQ(option.scope_prefix_len(), 32);
  EXPECT_EQ(option.source_prefix_len(), 32);
}

TEST(EcsCorpus, ScopeBeyondWidthInsideFullMessageRejected) {
  // The same malformed option embedded in an otherwise valid response:
  // Message::decode must throw, not deliver a message carrying an
  // impossible scope.
  const auto ecs = ClientSubnetOption::for_query(*net::IpAddr::parse("203.0.113.7"), 24);
  Message response = Message::make_response(
      Message::make_query(5, DnsName::from_text("www.a-shop.example"), RecordType::A, ecs));
  response.edns->set_client_subnet(ecs.with_scope(24));
  auto wire = response.encode();
  // Find the ECS option payload (code 8) and overwrite its scope octet.
  bool patched = false;
  for (std::size_t i = 0; i + 7 < wire.size(); ++i) {
    if (wire[i] == 0x00 && wire[i + 1] == 0x08 &&       // OPTION-CODE 8
        wire[i + 4] == 0x00 && wire[i + 5] == 0x01 &&   // FAMILY 1 (IPv4)
        wire[i + 6] == 24) {                            // SOURCE PREFIX-LENGTH
      wire[i + 7] = 33;                                 // SCOPE PREFIX-LENGTH
      patched = true;
      break;
    }
  }
  ASSERT_TRUE(patched);
  EXPECT_THROW((void)Message::decode(wire), WireError);
}

// Named pins for inputs the fuzz harnesses (fuzz/) surfaced or guard
// against. Each mirrors a file under fuzz/regressions/<harness>/ so the
// defect stays fixed even in builds that skip the replay drivers.
TEST(FuzzRegression, ZoneTxtStringOver255OctetsRejectedAtParse) {
  // Found by fuzz_zone_file: a TXT character-string longer than 255
  // octets used to parse fine and only blow up with WireError when the
  // serve path encoded the answer. The parser must reject it up front
  // (fuzz/regressions/zone_file/txt_over_255.zone).
  const std::string zone_text =
      "$ORIGIN cdn.example.\n"
      "@ SOA ns1 hostmaster 1 1 1 1 30\n"
      "big TXT " + std::string(300, 'x') + "\n";
  EXPECT_THROW((void)dnsserver::parse_zone_file(zone_text), dnsserver::ZoneFileError);

  // Boundary: exactly 255 octets is legal and must survive a full
  // parse -> encode round trip.
  const std::string boundary_text =
      "$ORIGIN cdn.example.\n"
      "@ SOA ns1 hostmaster 1 1 1 1 30\n"
      "big TXT " + std::string(255, 'x') + "\n";
  const dnsserver::Zone zone = dnsserver::parse_zone_file(boundary_text);
  Message response = Message::make_response(
      Message::make_query(9, DnsName::from_text("big.cdn.example"), RecordType::TXT));
  zone.visit_records([&](const ResourceRecord& record) {
    if (record.type == RecordType::TXT) response.answers.push_back(record);
  });
  ASSERT_EQ(response.answers.size(), 1U);
  EXPECT_NO_THROW((void)response.encode());
}

TEST(FuzzRegression, NameForwardCompressionPointerRejected) {
  // fuzz/regressions/name/forward_pointer.bin: a compression pointer
  // that does not point strictly backwards must be rejected, or two
  // cooperating pointers loop forever.
  const std::uint8_t wire[] = {0xC0, 0x02, 0x00, 0x00};
  ByteReader reader{std::span(wire, sizeof wire)};
  EXPECT_THROW((void)DnsName::decode(reader), WireError);
}

TEST(FuzzRegression, NameReservedLabelTypeRejected) {
  // fuzz/regressions/name/reserved_label_type.bin: label types 0x80 and
  // 0x40 are reserved (RFC 1035 §4.1.4) — not silently length octets.
  const std::uint8_t wire[] = {0x80, 0x00};
  ByteReader reader{std::span(wire, sizeof wire)};
  EXPECT_THROW((void)DnsName::decode(reader), WireError);
}

TEST(FuzzRegression, EcsNonZeroPaddingBitsRejected) {
  // fuzz/regressions/ecs/v4_nonzero_padding.bin: source /21 with a set
  // bit past the prefix (RFC 7871 §6 MUST be 0). Accepting it would let
  // two encodings of the same block coexist as distinct cache keys.
  const std::uint8_t data[] = {0x00, 0x01, 21, 0, 10, 1, 0x07};
  ByteReader reader{std::span(data, sizeof data)};
  EXPECT_THROW((void)ClientSubnetOption::decode_data(reader, sizeof data), WireError);
}

TEST(FuzzRegression, OptRecordWithNonRootOwnerRejected) {
  // fuzz/regressions/message/opt_nonroot_owner.bin: an OPT pseudo-RR
  // must be owned by the root name (RFC 6891 §6.1.2).
  const std::uint8_t wire[] = {
      0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
      0x01, 'a',  0x00,              // owner "a", not root
      0x00, 0x29,                    // TYPE OPT
      0x04, 0xD0,                    // CLASS = UDP size 1232
      0x00, 0x00, 0x00, 0x00,        // extended RCODE/flags
      0x00, 0x00,                    // RDLENGTH 0
  };
  EXPECT_THROW((void)Message::decode(wire), WireError);
}

TEST(FuzzRegression, OptTinyAdvertisedPayloadDecodesAndClampsTo512) {
  // fuzz/regressions/message/opt_tiny_payload.bin: a query whose OPT
  // advertises a 100-octet UDP payload. RFC 6891 §6.2.3: values below
  // 512 must be treated as exactly 512 — the serve path used to
  // truncate against the raw 100 and emit TC=1 responses no client
  // could ever shrink below.
  const std::uint8_t wire[] = {
      0x00, 0x42, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
      0x03, 'w',  'w',  'w',  0x01, 'g',  0x03, 'c',  'd',  'n',
      0x07, 'e',  'x',  'a',  'm',  'p',  'l',  'e',  0x00,
      0x00, 0x01, 0x00, 0x01,        // QTYPE A, QCLASS IN
      0x00,                          // OPT owner: root
      0x00, 0x29,                    // TYPE OPT
      0x00, 0x64,                    // CLASS = advertised payload 100
      0x00, 0x00, 0x00, 0x00,        // extended RCODE/flags
      0x00, 0x00,                    // RDLENGTH 0
  };
  const Message query = Message::decode(wire);
  ASSERT_TRUE(query.edns.has_value());
  EXPECT_EQ(query.edns->udp_payload_size, 100);  // decoder reports what was said
  // ...and the serve path clamps what was said up to 512.
  EXPECT_EQ(dnsserver::effective_udp_payload_limit(true, 100), 512U);
}

TEST(Mutation, CompressionPointerStorm) {
  // A message body that is nothing but pointers must terminate quickly.
  std::vector<std::uint8_t> wire(12 + 200, 0);
  wire[4] = 0;  // QDCOUNT 0
  for (std::size_t i = 12; i + 1 < wire.size(); i += 2) {
    wire[i] = 0xC0;
    wire[i + 1] = static_cast<std::uint8_t>(i - 2);
  }
  wire[5] = 1;  // claim one question to force a name parse at offset 12
  expect_decode_or_throw(wire);
}

TEST(Mutation, CacheOnAnswersMutantsAsCacheOffDoes) {
  // Seeded mutants of the message corpus's two queries go to a cache-off
  // server and, twice, to a cache-on one: the answer cache keys them by
  // their bytes, so both cache-on replies must equal the cache-off reply
  // but for the id, or all three must be absent. The mutants include
  // what a field-parsing probe would have refused: trailing bytes, an
  // extra EDNS option, a non-zero ECS scope.
  // fuzz/corpus/message/query_a_ecs.bin: www.example A, ECS 198.51.100.0/24.
  const std::vector<std::uint8_t> a_ecs = {
      0x00, 0x01, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x03,
      'w',  'w',  'w',  0x07, 'e',  'x',  'a',  'm',  'p',  'l',  'e',  0x00, 0x00,
      0x01, 0x00, 0x01, 0x00, 0x00, 0x29, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x0b, 0x00, 0x08, 0x00, 0x07, 0x00, 0x01, 0x18, 0x00, 0xc6, 0x33, 0x64};
  // fuzz/corpus/message/query_aaaa.bin: v6.cdn.example AAAA, no EDNS.
  const std::vector<std::uint8_t> aaaa = {
      0x00, 0x02, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 'v',  '6',  0x03, 'c',  'd',  'n',  0x07, 'e',  'x',  'a',  'm',
      'p',  'l',  'e',  0x00, 0x00, 0x1c, 0x00, 0x01};
  std::vector<std::vector<std::uint8_t>> mutants;
  auto scoped = a_ecs;
  scoped[47] = 16;  // ECS scope
  mutants.push_back(scoped);
  auto extra_option = a_ecs;
  extra_option[39] += 12;  // OPT RDLENGTH: an 8-byte cookie option follows
  extra_option.insert(extra_option.end(), {0x00, 0x0a, 0x00, 0x08, 1, 2, 3, 4, 5, 6, 7, 8});
  mutants.push_back(extra_option);
  util::Rng rng{2024};
  for (const std::vector<std::uint8_t>& seed : {a_ecs, aaaa}) {
    auto trailing = seed;
    trailing.push_back(0x00);
    mutants.push_back(trailing);
    for (int i = 0; i < 150; ++i) {
      auto mutant = seed;
      switch (rng.below(4)) {
        case 0:
          mutant[rng.below(mutant.size())] = static_cast<std::uint8_t>(rng());
          break;
        case 1:
          mutant[rng.below(mutant.size())] ^= static_cast<std::uint8_t>(1U << rng.below(8));
          break;
        case 2:
          mutant.resize(rng.below(mutant.size()));
          break;
        default:
          for (std::uint64_t n = 1 + rng.below(4); n > 0; --n) {
            mutant.push_back(static_cast<std::uint8_t>(rng()));
          }
      }
      mutants.push_back(mutant);
    }
  }

  // The answer depends on the client block and is announced at /16.
  dnsserver::AuthoritativeServer engine;
  engine.add_dynamic_domain(
      DnsName::from_text("example"),
      [](const dnsserver::DynamicQuery& query) -> std::optional<dnsserver::DynamicAnswer> {
        const auto& block = query.client_block;
        const auto octet = static_cast<std::uint8_t>(
            block && block->address().is_v4() ? block->address().v4().value() >> 8 : 0);
        dnsserver::DynamicAnswer answer;
        answer.ecs_scope_len = 16;
        answer.addresses = {net::IpAddr{net::IpV4Addr{203, 0, octet, 1}},
                            net::IpAddr{net::IpV6Addr{{0x20, 0x01, 0x0d, 0xb8, octet}}}};
        return answer;
      });
  const dnsserver::UdpEndpoint loopback{net::IpV4Addr{127, 0, 0, 1}, 0};
  dnsserver::UdpAuthorityServer cache_off{&engine, loopback};
  obs::MetricsRegistry on_registry;
  dnsserver::UdpServerConfig on_config;
  on_config.registry = &on_registry;
  on_config.answer_cache_entries = 64;
  dnsserver::UdpAuthorityServer cache_on{&engine, loopback, on_config};
  dnsserver::UdpSocket client{loopback};
  // Served on this thread, one datagram at a time, as the allocation gate
  // does; a dropped datagram is simply not answered.
  const auto exchange = [&client](dnsserver::UdpAuthorityServer& server,
                                  const std::vector<std::uint8_t>& wire)
      -> std::optional<std::vector<std::uint8_t>> {
    client.send_to(wire, server.endpoint());
    (void)server.serve_once(std::chrono::milliseconds{1000});
    dnsserver::UdpEndpoint peer;
    return client.receive(std::chrono::milliseconds{200}, peer);
  };
  const auto equal_but_id = [](const std::vector<std::uint8_t>& a,
                               const std::vector<std::uint8_t>& b) {
    return a.size() == b.size() && a.size() >= 2 &&
           std::equal(a.begin() + 2, a.end(), b.begin() + 2);
  };
  std::size_t differing = 0;
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    const auto reference = exchange(cache_off, mutants[i]);
    const auto first = exchange(cache_on, mutants[i]);
    const auto second = exchange(cache_on, mutants[i]);
    const bool agree =
        reference ? first && second && equal_but_id(*first, *reference) &&
                        equal_but_id(*second, *reference)
                  : !first && !second;
    if (!agree) {
      ++differing;
      ADD_FAILURE() << "mutant " << i << " of " << mutants.size()
                    << " is answered differently with the cache on";
    }
  }
  EXPECT_EQ(differing, 0U);
  // Mutants the engine cannot decode get a FORMERR that is not cached;
  // the rest hit on their repeat.
  EXPECT_GT(on_registry.counter_total("eum_udp_cache_hits_total"), mutants.size() / 4);
}

}  // namespace
}  // namespace eum::dns
