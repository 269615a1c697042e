#include <gtest/gtest.h>

#include "dnsserver/authoritative.h"

namespace eum::dnsserver {
namespace {

using dns::ClientSubnetOption;
using dns::DnsName;
using dns::Message;
using dns::Rcode;
using dns::RecordType;

net::IpAddr v4(const char* text) { return *net::IpAddr::parse(text); }

dns::SoaRecord test_soa() {
  dns::SoaRecord soa;
  soa.mname = DnsName::from_text("ns1.static.example");
  soa.rname = DnsName::from_text("admin.static.example");
  soa.minimum = 30;
  return soa;
}

AuthoritativeServer make_server() {
  AuthoritativeServer server;
  Zone zone{DnsName::from_text("static.example"), test_soa()};
  zone.add_a(DnsName::from_text("www.static.example"), net::IpV4Addr{10, 0, 0, 1}, 120);
  server.add_zone(std::move(zone));

  server.add_dynamic_domain(
      DnsName::from_text("g.cdn.example"),
      [](const DynamicQuery& query) -> std::optional<DynamicAnswer> {
        if (query.qname.to_string() == "missing.g.cdn.example") return std::nullopt;
        DynamicAnswer answer;
        // Answer depends on whether ECS was seen, so tests can observe it.
        if (query.client_block) {
          answer.addresses = {v4("203.0.0.1"), v4("203.0.0.2")};
          answer.ecs_scope_len = 24;
        } else {
          answer.addresses = {v4("203.0.9.1"), v4("203.0.9.2")};
        }
        answer.ttl = 20;
        return answer;
      });
  return server;
}

TEST(Authoritative, StaticZoneAnswer) {
  AuthoritativeServer server = make_server();
  const Message query =
      Message::make_query(1, DnsName::from_text("www.static.example"), RecordType::A);
  const Message response = server.handle(query, v4("9.9.9.9"));
  EXPECT_TRUE(response.header.is_response);
  EXPECT_TRUE(response.header.authoritative);
  EXPECT_EQ(response.header.rcode, Rcode::no_error);
  ASSERT_EQ(response.answers.size(), 1U);
  EXPECT_EQ(server.registry().counter_total("eum_authority_static_answers_total"), 1U);
}

TEST(Authoritative, StaticNxDomainCarriesSoa) {
  AuthoritativeServer server = make_server();
  const Message query =
      Message::make_query(2, DnsName::from_text("no.static.example"), RecordType::A);
  const Message response = server.handle(query, v4("9.9.9.9"));
  EXPECT_EQ(response.header.rcode, Rcode::nx_domain);
  ASSERT_EQ(response.authorities.size(), 1U);
  EXPECT_EQ(response.authorities[0].type, RecordType::SOA);
  EXPECT_EQ(server.registry().counter_total("eum_authority_negative_answers_total"), 1U);
}

TEST(Authoritative, RefusedOutsideAuthority) {
  AuthoritativeServer server = make_server();
  const Message query = Message::make_query(3, DnsName::from_text("www.google.com"), RecordType::A);
  const Message response = server.handle(query, v4("9.9.9.9"));
  EXPECT_EQ(response.header.rcode, Rcode::refused);
  EXPECT_FALSE(response.header.authoritative);
  EXPECT_EQ(server.registry().counter_total("eum_authority_refused_total"), 1U);
}

TEST(Authoritative, DynamicAnswerWithoutEcs) {
  AuthoritativeServer server = make_server();
  const Message query =
      Message::make_query(4, DnsName::from_text("www.shop.g.cdn.example"), RecordType::A);
  const Message response = server.handle(query, v4("200.0.0.1"));
  ASSERT_EQ(response.answers.size(), 2U);
  EXPECT_EQ(response.answer_addresses()[0], v4("203.0.9.1"));
  EXPECT_EQ(response.answers[0].ttl, 20U);
  EXPECT_EQ(server.registry().counter_total("eum_authority_dynamic_answers_total"), 1U);
  EXPECT_EQ(server.registry().counter_total("eum_authority_queries_with_ecs_total"), 0U);
}

TEST(Authoritative, DynamicAnswerWithEcsEchoesScopedOption) {
  AuthoritativeServer server = make_server();
  const auto ecs = ClientSubnetOption::for_query(v4("198.51.100.77"), 24);
  const Message query =
      Message::make_query(5, DnsName::from_text("www.shop.g.cdn.example"), RecordType::A, ecs);
  const Message response = server.handle(query, v4("200.0.0.1"));
  ASSERT_EQ(response.answers.size(), 2U);
  EXPECT_EQ(response.answer_addresses()[0], v4("203.0.0.1"));  // ECS-dependent branch
  const ClientSubnetOption* echoed = response.client_subnet();
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(echoed->source_prefix_len(), 24);
  EXPECT_EQ(echoed->scope_prefix_len(), 24);
  EXPECT_EQ(echoed->address(), v4("198.51.100.0"));
  EXPECT_EQ(server.registry().counter_total("eum_authority_queries_with_ecs_total"), 1U);
}

TEST(Authoritative, ScopeNeverExceedsSource) {
  AuthoritativeServer server;
  server.add_dynamic_domain(DnsName::from_text("g.cdn.example"),
                            [](const DynamicQuery&) -> std::optional<DynamicAnswer> {
                              DynamicAnswer answer;
                              answer.addresses = {*net::IpAddr::parse("203.0.0.1")};
                              answer.ecs_scope_len = 24;  // wants /24...
                              return answer;
                            });
  // ...but the query only announced /16, so the echo must be <= /16.
  const auto ecs = ClientSubnetOption::for_query(v4("198.51.0.0"), 16);
  const Message query =
      Message::make_query(6, DnsName::from_text("a.g.cdn.example"), RecordType::A, ecs);
  const Message response = server.handle(query, v4("200.0.0.1"));
  ASSERT_NE(response.client_subnet(), nullptr);
  EXPECT_EQ(response.client_subnet()->scope_prefix_len(), 16);
}

TEST(Authoritative, EcsDisabledIgnoresClientSubnet) {
  AuthoritativeServer server = make_server();
  server.set_ecs_enabled(false);
  const auto ecs = ClientSubnetOption::for_query(v4("198.51.100.77"), 24);
  const Message query =
      Message::make_query(7, DnsName::from_text("www.shop.g.cdn.example"), RecordType::A, ecs);
  const Message response = server.handle(query, v4("200.0.0.1"));
  // NS-based branch taken; ECS echoed with scope 0 (client-independent).
  EXPECT_EQ(response.answer_addresses()[0], v4("203.0.9.1"));
  ASSERT_NE(response.client_subnet(), nullptr);
  EXPECT_EQ(response.client_subnet()->scope_prefix_len(), 0);
}

TEST(Authoritative, DynamicNxDomain) {
  AuthoritativeServer server = make_server();
  const Message query =
      Message::make_query(8, DnsName::from_text("missing.g.cdn.example"), RecordType::A);
  const Message response = server.handle(query, v4("200.0.0.1"));
  EXPECT_EQ(response.header.rcode, Rcode::nx_domain);
}

TEST(Authoritative, DynamicFiltersAnswerByQueryType) {
  AuthoritativeServer server = make_server();
  const Message query =
      Message::make_query(9, DnsName::from_text("www.shop.g.cdn.example"), RecordType::AAAA);
  const Message response = server.handle(query, v4("200.0.0.1"));
  // Handler returned only IPv4 addresses; AAAA answer must be empty.
  EXPECT_TRUE(response.answers.empty());
}

TEST(Authoritative, FormErrOnNonZeroScopeInQuery) {
  AuthoritativeServer server = make_server();
  const auto bad_ecs = ClientSubnetOption::for_query(v4("198.51.100.77"), 24).with_scope(24);
  const Message query =
      Message::make_query(10, DnsName::from_text("www.shop.g.cdn.example"), RecordType::A,
                          bad_ecs);
  const Message response = server.handle(query, v4("200.0.0.1"));
  EXPECT_EQ(response.header.rcode, Rcode::form_err);
  EXPECT_EQ(server.registry().counter_total("eum_authority_form_errors_total"), 1U);
}

TEST(Authoritative, FormErrOnResponseOrMultiQuestion) {
  AuthoritativeServer server = make_server();
  Message bogus = Message::make_query(11, DnsName::from_text("x.g.cdn.example"), RecordType::A);
  bogus.header.is_response = true;
  EXPECT_EQ(server.handle(bogus, v4("1.1.1.1")).header.rcode, Rcode::form_err);

  Message multi = Message::make_query(12, DnsName::from_text("x.g.cdn.example"), RecordType::A);
  multi.questions.push_back(multi.questions.front());
  EXPECT_EQ(server.handle(multi, v4("1.1.1.1")).header.rcode, Rcode::form_err);
}

TEST(Authoritative, MostSpecificDynamicDomainWins) {
  AuthoritativeServer server;
  server.add_dynamic_domain(DnsName::from_text("cdn.example"),
                            [](const DynamicQuery&) -> std::optional<DynamicAnswer> {
                              DynamicAnswer a;
                              a.addresses = {*net::IpAddr::parse("1.0.0.1")};
                              return a;
                            });
  server.add_dynamic_domain(DnsName::from_text("special.cdn.example"),
                            [](const DynamicQuery&) -> std::optional<DynamicAnswer> {
                              DynamicAnswer a;
                              a.addresses = {*net::IpAddr::parse("2.0.0.2")};
                              return a;
                            });
  const Message query =
      Message::make_query(13, DnsName::from_text("a.special.cdn.example"), RecordType::A);
  EXPECT_EQ(server.handle(query, v4("1.1.1.1")).answer_addresses()[0], v4("2.0.0.2"));
  const Message query2 =
      Message::make_query(14, DnsName::from_text("b.cdn.example"), RecordType::A);
  EXPECT_EQ(server.handle(query2, v4("1.1.1.1")).answer_addresses()[0], v4("1.0.0.1"));
}

TEST(Authoritative, StatsAccumulateAndReset) {
  AuthoritativeServer server = make_server();
  const Message query =
      Message::make_query(15, DnsName::from_text("www.static.example"), RecordType::A);
  (void)server.handle(query, v4("9.9.9.9"));
  (void)server.handle(query, v4("9.9.9.9"));
  EXPECT_EQ(server.registry().counter_total("eum_authority_queries_total"), 2U);
  server.registry().reset();
  EXPECT_EQ(server.registry().counter_total("eum_authority_queries_total"), 0U);
}

}  // namespace
}  // namespace eum::dnsserver
