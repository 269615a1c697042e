#include <gtest/gtest.h>

#include "dns/message.h"

namespace eum::dns {
namespace {

net::IpAddr v4(const char* text) { return *net::IpAddr::parse(text); }

Message round_trip(const Message& message) { return Message::decode(message.encode()); }

TEST(Message, QueryRoundTrip) {
  const Message query =
      Message::make_query(0x1234, DnsName::from_text("foo.net"), RecordType::A);
  const Message decoded = round_trip(query);
  EXPECT_EQ(decoded.header.id, 0x1234);
  EXPECT_FALSE(decoded.header.is_response);
  EXPECT_TRUE(decoded.header.recursion_desired);
  ASSERT_EQ(decoded.questions.size(), 1U);
  EXPECT_EQ(decoded.questions[0].name.to_string(), "foo.net");
  EXPECT_EQ(decoded.questions[0].type, RecordType::A);
  EXPECT_FALSE(decoded.edns.has_value());
}

TEST(Message, HeaderFlagsRoundTrip) {
  Message message;
  message.header.id = 7;
  message.header.is_response = true;
  message.header.authoritative = true;
  message.header.truncated = true;
  message.header.recursion_desired = true;
  message.header.recursion_available = true;
  message.header.rcode = Rcode::nx_domain;
  const Message decoded = round_trip(message);
  EXPECT_EQ(decoded.header, message.header);
}

TEST(Message, ARecordAnswerRoundTrip) {
  Message response;
  response.header.is_response = true;
  response.answers.push_back(ResourceRecord{DnsName::from_text("foo.net"), RecordType::A,
                                            RecordClass::IN, 30,
                                            ARecord{net::IpV4Addr{1, 2, 3, 4}}});
  const Message decoded = round_trip(response);
  ASSERT_EQ(decoded.answers.size(), 1U);
  EXPECT_EQ(decoded.answers[0], response.answers[0]);
  const auto addresses = decoded.answer_addresses();
  ASSERT_EQ(addresses.size(), 1U);
  EXPECT_EQ(addresses[0], v4("1.2.3.4"));
}

TEST(Message, AaaaRecordRoundTrip) {
  Message response;
  response.answers.push_back(
      ResourceRecord{DnsName::from_text("v6.example"), RecordType::AAAA, RecordClass::IN, 60,
                     AaaaRecord{*net::IpV6Addr::parse("2001:db8::1")}});
  const Message decoded = round_trip(response);
  ASSERT_EQ(decoded.answers.size(), 1U);
  EXPECT_EQ(decoded.answers[0], response.answers[0]);
}

TEST(Message, CnameChainRoundTrip) {
  Message response;
  response.answers.push_back(
      ResourceRecord{DnsName::from_text("www.shop.example"), RecordType::CNAME, RecordClass::IN,
                     300, CnameRecord{DnsName::from_text("e1.b.cdn.example")}});
  response.answers.push_back(ResourceRecord{DnsName::from_text("e1.b.cdn.example"),
                                            RecordType::A, RecordClass::IN, 20,
                                            ARecord{net::IpV4Addr{9, 9, 9, 9}}});
  const Message decoded = round_trip(response);
  ASSERT_EQ(decoded.answers.size(), 2U);
  EXPECT_EQ(decoded.answers[0], response.answers[0]);
  EXPECT_EQ(decoded.answers[1], response.answers[1]);
  // answer_addresses skips the CNAME.
  EXPECT_EQ(decoded.answer_addresses().size(), 1U);
}

TEST(Message, SoaAndNsAndTxtRoundTrip) {
  Message response;
  SoaRecord soa;
  soa.mname = DnsName::from_text("ns1.cdn.example");
  soa.rname = DnsName::from_text("hostmaster.cdn.example");
  soa.serial = 2014032801;
  soa.refresh = 3600;
  soa.retry = 600;
  soa.expire = 86400;
  soa.minimum = 30;
  response.authorities.push_back(ResourceRecord{DnsName::from_text("cdn.example"),
                                                RecordType::SOA, RecordClass::IN, 30, soa});
  response.authorities.push_back(
      ResourceRecord{DnsName::from_text("cdn.example"), RecordType::NS, RecordClass::IN, 3600,
                     NsRecord{DnsName::from_text("ns1.cdn.example")}});
  response.additionals.push_back(
      ResourceRecord{DnsName::from_text("whoami.cdn.example"), RecordType::TXT, RecordClass::IN,
                     0, TxtRecord{{"resolver=203.0.113.9", "ecs=none"}}});
  const Message decoded = round_trip(response);
  ASSERT_EQ(decoded.authorities.size(), 2U);
  EXPECT_EQ(decoded.authorities[0], response.authorities[0]);
  EXPECT_EQ(decoded.authorities[1], response.authorities[1]);
  ASSERT_EQ(decoded.additionals.size(), 1U);
  EXPECT_EQ(decoded.additionals[0], response.additionals[0]);
}

TEST(Message, UnknownRdataCarriedRaw) {
  Message response;
  response.answers.push_back(ResourceRecord{DnsName::from_text("x.example"),
                                            static_cast<RecordType>(99), RecordClass::IN, 5,
                                            RawRecord{{1, 2, 3, 4, 5}}});
  const Message decoded = round_trip(response);
  ASSERT_EQ(decoded.answers.size(), 1U);
  const auto* raw = std::get_if<RawRecord>(&decoded.answers[0].rdata);
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(raw->data, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
}

TEST(Message, CompressionReducesSize) {
  Message response;
  const DnsName name = DnsName::from_text("assets.website.example");
  for (int i = 0; i < 4; ++i) {
    response.answers.push_back(ResourceRecord{
        name, RecordType::A, RecordClass::IN, 20,
        ARecord{net::IpV4Addr{10, 0, 0, static_cast<std::uint8_t>(i)}}});
  }
  const auto wire = response.encode();
  // Without compression each record would repeat the 24-octet name; with
  // compression later records use a 2-octet pointer.
  EXPECT_LT(wire.size(), 12 + 4 * (24 + 10 + 4));
  EXPECT_EQ(round_trip(response).answers.size(), 4U);
}

// A name is compressed only against names already written. encode_into
// reuses its buffer's storage (the UDP workers' scratch), so the bytes
// past the name being written can be a stale earlier answer's: here
// "a.example", whose tail would otherwise "match" the unfinished
// "a.a.example" and turn it into a pointer to itself.
TEST(Message, CompressionIgnoresStaleBytesPastTheNameBeingWritten) {
  std::vector<std::uint8_t> wire;
  Message::make_query(1, DnsName::from_text("a.example"), RecordType::A).encode_into(wire);
  const Message query = Message::make_query(2, DnsName::from_text("a.a.example"), RecordType::A);
  query.encode_into(wire);
  EXPECT_EQ(wire, query.encode());
  const Message decoded = Message::decode(wire);
  ASSERT_EQ(decoded.questions.size(), 1U);
  EXPECT_EQ(decoded.questions[0].name, DnsName::from_text("a.a.example"));
}

// ---------- EDNS0 / ECS ----------

TEST(MessageEdns, OptRecordRoundTrip) {
  Message query = Message::make_query(1, DnsName::from_text("foo.net"), RecordType::A);
  query.edns = EdnsRecord{};
  query.edns->udp_payload_size = 1400;
  query.edns->dnssec_ok = true;
  const Message decoded = round_trip(query);
  ASSERT_TRUE(decoded.edns.has_value());
  EXPECT_EQ(decoded.edns->udp_payload_size, 1400);
  EXPECT_TRUE(decoded.edns->dnssec_ok);
  EXPECT_TRUE(decoded.additionals.empty());  // OPT surfaced separately
}

TEST(MessageEdns, EcsQueryRoundTrip) {
  const auto ecs = ClientSubnetOption::for_query(v4("203.0.113.7"), 24);
  const Message query =
      Message::make_query(2, DnsName::from_text("foo.net"), RecordType::A, ecs);
  const Message decoded = round_trip(query);
  const ClientSubnetOption* option = decoded.client_subnet();
  ASSERT_NE(option, nullptr);
  EXPECT_EQ(option->family(), net::Family::v4);
  EXPECT_EQ(option->source_prefix_len(), 24);
  EXPECT_EQ(option->scope_prefix_len(), 0);
  // Address truncated to /24: last octet zeroed.
  EXPECT_EQ(option->address(), v4("203.0.113.0"));
  EXPECT_EQ(option->source_block().to_string(), "203.0.113.0/24");
}

TEST(MessageEdns, EcsV6RoundTrip) {
  const auto ecs = ClientSubnetOption::for_query(*net::IpAddr::parse("2001:db8:12:3400::1"), 56);
  const Message query =
      Message::make_query(3, DnsName::from_text("foo.net"), RecordType::AAAA, ecs);
  const Message decoded = round_trip(query);
  const ClientSubnetOption* option = decoded.client_subnet();
  ASSERT_NE(option, nullptr);
  EXPECT_EQ(option->family(), net::Family::v6);
  EXPECT_EQ(option->source_prefix_len(), 56);
  EXPECT_EQ(option->source_block().to_string(), "2001:db8:12:3400::/56");
}

TEST(MessageEdns, EcsScopeEchoRoundTrip) {
  const auto query_ecs = ClientSubnetOption::for_query(v4("198.51.100.99"), 24);
  Message response;
  response.header.is_response = true;
  response.edns = EdnsRecord{};
  response.edns->set_client_subnet(query_ecs.with_scope(20));
  const Message decoded = round_trip(response);
  const ClientSubnetOption* option = decoded.client_subnet();
  ASSERT_NE(option, nullptr);
  EXPECT_EQ(option->scope_prefix_len(), 20);
  EXPECT_EQ(option->scope_block().to_string(), "198.51.96.0/20");
}

TEST(MessageEdns, NonByteAlignedSourcePrefix) {
  const auto ecs = ClientSubnetOption::for_query(v4("255.255.255.255"), 21);
  const Message query =
      Message::make_query(4, DnsName::from_text("foo.net"), RecordType::A, ecs);
  const Message decoded = round_trip(query);
  const ClientSubnetOption* option = decoded.client_subnet();
  ASSERT_NE(option, nullptr);
  EXPECT_EQ(option->source_prefix_len(), 21);
  // /21 of all-ones: 255.255.248.0.
  EXPECT_EQ(option->address(), v4("255.255.248.0"));
}

TEST(MessageEdns, UnknownOptionPreserved) {
  Message query = Message::make_query(5, DnsName::from_text("foo.net"), RecordType::A);
  query.edns = EdnsRecord{};
  EdnsOption cookie;
  cookie.code = 10;  // EDNS cookie
  cookie.raw = {1, 2, 3, 4, 5, 6, 7, 8};
  query.edns->options.push_back(cookie);
  const Message decoded = round_trip(query);
  ASSERT_EQ(decoded.edns->options.size(), 1U);
  EXPECT_EQ(decoded.edns->options[0].code, 10);
  EXPECT_EQ(decoded.edns->options[0].raw, cookie.raw);
}

// ---------- malformed input ----------

TEST(MessageDecode, RejectsTruncatedHeader) {
  const std::vector<std::uint8_t> wire{0, 1, 2};
  EXPECT_THROW(Message::decode(wire), WireError);
}

TEST(MessageDecode, RejectsTrailingGarbage) {
  auto wire = Message::make_query(1, DnsName::from_text("a.b"), RecordType::A).encode();
  wire.push_back(0);
  EXPECT_THROW(Message::decode(wire), WireError);
}

TEST(MessageDecode, RejectsCountMismatch) {
  auto wire = Message::make_query(1, DnsName::from_text("a.b"), RecordType::A).encode();
  wire[5] = 2;  // claim QDCOUNT=2 with only one question present
  EXPECT_THROW(Message::decode(wire), WireError);
}

TEST(MessageDecode, EveryTruncationFails) {
  // Chop a full ECS query at every length; decode must throw or return a
  // complete message (for the full length), never crash.
  const auto ecs = ClientSubnetOption::for_query(v4("203.0.113.7"), 24);
  Message response = Message::make_response(
      Message::make_query(6, DnsName::from_text("www.shop.example"), RecordType::A, ecs));
  response.answers.push_back(ResourceRecord{DnsName::from_text("www.shop.example"),
                                            RecordType::A, RecordClass::IN, 20,
                                            ARecord{net::IpV4Addr{1, 2, 3, 4}}});
  const auto wire = response.encode();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_THROW(Message::decode(std::span(wire.data(), len)), WireError) << "len=" << len;
  }
  EXPECT_NO_THROW(Message::decode(wire));
}

TEST(MessageDecode, RejectsBadEcsPadding) {
  // Hand-craft an ECS option whose truncated address has non-zero pad bits.
  Message query = Message::make_query(7, DnsName::from_text("foo.net"), RecordType::A,
                                      ClientSubnetOption::for_query(v4("1.2.3.0"), 21));
  auto wire = query.encode();
  // The last octet of the message is the third address octet (3 -> bad for /21
  // only if low 3 bits set). Set low bits directly.
  wire.back() |= 0x07;
  EXPECT_THROW(Message::decode(wire), WireError);
}

TEST(MessageDecode, RejectsEcsLengthMismatch) {
  Message query = Message::make_query(8, DnsName::from_text("foo.net"), RecordType::A,
                                      ClientSubnetOption::for_query(v4("1.2.3.4"), 24));
  auto wire = query.encode();
  // Corrupt SOURCE PREFIX-LENGTH (now /32 but only 3 address octets present).
  // ECS option data layout: ...family(2) source(1) scope(1) addr(3).
  wire[wire.size() - 5] = 32;
  EXPECT_THROW(Message::decode(wire), WireError);
}

TEST(MessageDecode, RejectsUnsupportedEdnsVersion) {
  Message query = Message::make_query(9, DnsName::from_text("foo.net"), RecordType::A);
  query.edns = EdnsRecord{};
  auto wire = query.encode();
  // OPT TTL bytes: version is the second byte of the TTL field. The OPT
  // record is the last 11 octets: name(1) type(2) class(2) ttl(4) rdlen(2).
  wire[wire.size() - 10 + 5] = 1;  // version=1
  EXPECT_THROW(Message::decode(wire), WireError);
}

TEST(ClientSubnetOption, ForQueryValidation) {
  EXPECT_THROW((void)ClientSubnetOption::for_query(v4("1.2.3.4"), 33), WireError);
  EXPECT_THROW((void)ClientSubnetOption::for_query(v4("1.2.3.4"), -1), WireError);
  EXPECT_NO_THROW((void)ClientSubnetOption::for_query(v4("1.2.3.4"), 0));
}

TEST(ClientSubnetOption, WithScopeValidation) {
  const auto ecs = ClientSubnetOption::for_query(v4("1.2.3.4"), 24);
  EXPECT_THROW((void)ecs.with_scope(33), WireError);
  EXPECT_NO_THROW((void)ecs.with_scope(0));
  EXPECT_EQ(ecs.with_scope(16).scope_prefix_len(), 16);
}

TEST(ClientSubnetOption, ZeroSourceLengthMeansWholeSpace) {
  const auto ecs = ClientSubnetOption::for_query(v4("9.9.9.9"), 0);
  EXPECT_EQ(ecs.source_block().to_string(), "0.0.0.0/0");
  // Wire form: family(2) + source(1) + scope(1), zero address octets.
  ByteWriter writer;
  ecs.encode_data(writer);
  EXPECT_EQ(writer.size(), 4U);
}

TEST(ClientSubnetOption, ToStringReadable) {
  const auto ecs = ClientSubnetOption::for_query(v4("203.0.113.9"), 24).with_scope(20);
  EXPECT_EQ(ecs.to_string(), "ECS{203.0.113.0/24 scope /20}");
}

TEST(MessageMakeResponse, EchoesQuestionAndEdnsPresence) {
  const auto ecs = ClientSubnetOption::for_query(v4("10.0.0.1"), 24);
  const Message query =
      Message::make_query(11, DnsName::from_text("foo.net"), RecordType::A, ecs);
  const Message response = Message::make_response(query);
  EXPECT_TRUE(response.header.is_response);
  EXPECT_EQ(response.header.id, 11);
  ASSERT_EQ(response.questions.size(), 1U);
  EXPECT_TRUE(response.edns.has_value());

  const Message plain = Message::make_query(12, DnsName::from_text("foo.net"), RecordType::A);
  EXPECT_FALSE(Message::make_response(plain).edns.has_value());
}

}  // namespace
}  // namespace eum::dns
