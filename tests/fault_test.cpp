// FaultInjector: the fault taxonomy (drop/servfail/truncate/duplicate/
// corrupt/delay), determinism under a fixed seed, per-authority
// overrides, and the UdpUpstream real-socket adapter it wraps.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "dnsserver/fault.h"
#include "dnsserver/transport.h"
#include "dnsserver/udp.h"

namespace eum::dnsserver {
namespace {

using namespace std::chrono_literals;
using dns::DnsName;
using dns::Message;
using dns::Rcode;
using dns::RecordType;

net::IpAddr v4(const char* text) { return *net::IpAddr::parse(text); }

class FaultInjectorFixture : public ::testing::Test {
 protected:
  FaultInjectorFixture() {
    server_.add_dynamic_domain(
        DnsName::from_text("g.cdn.example"),
        [](const DynamicQuery&) -> std::optional<DynamicAnswer> {
          DynamicAnswer answer;
          answer.addresses = {v4("203.0.0.1")};
          return answer;
        });
    directory_.add_authority(DnsName::from_text("g.cdn.example"), &server_);
    directory_.add_server(v4("198.51.100.1"), &server_);
    directory_.add_server(v4("198.51.100.2"), &server_);
  }

  static Message query(std::uint16_t id) {
    return Message::make_query(id, DnsName::from_text("www.g.cdn.example"), RecordType::A);
  }

  AuthoritativeServer server_;
  AuthorityDirectory directory_;
  net::IpAddr resolver_addr_ = v4("202.0.0.1");
};

TEST_F(FaultInjectorFixture, PassesThroughWithoutFaults) {
  FaultInjector injector{&directory_};
  const auto response = injector.try_forward(query(1), resolver_addr_);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.rcode, Rcode::no_error);
  EXPECT_EQ(response->header.id, 1);
  EXPECT_EQ(injector.stats().forwards, 1U);
  EXPECT_EQ(injector.stats().drops, 0U);
}

TEST_F(FaultInjectorFixture, DropNeverReachesInnerUpstream) {
  FaultSpec spec;
  spec.drop = 1.0;
  FaultInjector injector{&directory_, {spec}};
  for (std::uint16_t i = 0; i < 10; ++i) {
    EXPECT_FALSE(injector.try_forward(query(i), resolver_addr_).has_value());
  }
  EXPECT_EQ(injector.stats().drops, 10U);
  EXPECT_EQ(injector.stats().forwards, 0U);
  EXPECT_EQ(directory_.forwarded(), 0U);  // the query vanished before the wire
}

TEST_F(FaultInjectorFixture, ServfailSynthesizedWithoutInnerCall) {
  FaultSpec spec;
  spec.servfail = 1.0;
  FaultInjector injector{&directory_, {spec}};
  const auto response = injector.try_forward(query(7), resolver_addr_);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.rcode, Rcode::serv_fail);
  EXPECT_TRUE(response->header.is_response);
  EXPECT_EQ(response->header.id, 7);
  EXPECT_EQ(injector.stats().servfails, 1U);
  EXPECT_EQ(directory_.forwarded(), 0U);  // overloaded authority never answered
}

TEST_F(FaultInjectorFixture, TruncateStripsSectionsAndSetsTc) {
  FaultSpec spec;
  spec.truncate = 1.0;
  FaultInjector injector{&directory_, {spec}};
  const auto response = injector.try_forward(query(3), resolver_addr_);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->header.truncated);
  EXPECT_TRUE(response->answers.empty());
  EXPECT_TRUE(response->authorities.empty());
  EXPECT_TRUE(response->additionals.empty());
  EXPECT_EQ(injector.stats().truncations, 1U);
  EXPECT_EQ(injector.stats().forwards, 1U);
}

TEST_F(FaultInjectorFixture, DuplicateDoublesAuthorityLoadSingleDelivery) {
  FaultSpec spec;
  spec.duplicate = 1.0;
  FaultInjector injector{&directory_, {spec}};
  for (std::uint16_t i = 0; i < 5; ++i) {
    const auto response = injector.try_forward(query(i), resolver_addr_);
    ASSERT_TRUE(response.has_value());  // exactly one response delivered
    EXPECT_EQ(response->header.id, i);
  }
  EXPECT_EQ(injector.stats().duplicates, 5U);
  EXPECT_EQ(injector.stats().forwards, 10U);
  EXPECT_EQ(directory_.forwarded(), 10U);  // the authority handled every copy
}

TEST_F(FaultInjectorFixture, CorruptIsDeterministicPerSeed) {
  // Same seed = same fault stream: the corrupted-wire outcomes (lost vs
  // delivered-damaged, and the damaged bytes themselves) must replay
  // exactly. This is what makes failure benches reproducible.
  const auto run = [this](std::uint64_t seed) {
    FaultSpec spec;
    spec.corrupt = 1.0;
    AuthorityDirectory directory;
    directory.add_authority(DnsName::from_text("g.cdn.example"), &server_);
    FaultInjector injector{&directory, {spec, seed}};
    std::vector<std::string> outcomes;
    for (std::uint16_t i = 0; i < 40; ++i) {
      const auto response = injector.try_forward(query(i), resolver_addr_);
      outcomes.push_back(response ? std::string{"ok:"} +
                                        std::to_string(response->header.id) +
                                        ":" + std::to_string(static_cast<int>(
                                                  response->header.rcode))
                                  : std::string{"lost"});
    }
    return outcomes;
  };
  const auto first = run(0xABCDEF);
  const auto second = run(0xABCDEF);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, run(0x123456));  // a different seed flips different bytes
}

TEST_F(FaultInjectorFixture, CorruptCountsEveryMangledResponse) {
  FaultSpec spec;
  spec.corrupt = 1.0;
  FaultInjector injector{&directory_, {spec}};
  for (std::uint16_t i = 0; i < 20; ++i) {
    (void)injector.try_forward(query(i), resolver_addr_);
  }
  EXPECT_EQ(injector.stats().corruptions, 20U);
}

TEST_F(FaultInjectorFixture, DelayHoldsTheResponse) {
  FaultSpec spec;
  spec.delay = 20ms;
  FaultInjector injector{&directory_, {spec}};
  const auto start = std::chrono::steady_clock::now();
  const auto response = injector.try_forward(query(1), resolver_addr_);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(response.has_value());
  EXPECT_GE(elapsed, 20ms);
  EXPECT_EQ(injector.stats().delays, 1U);
}

TEST_F(FaultInjectorFixture, PerAuthorityOverrideScopesTheFault) {
  FaultInjector injector{&directory_};
  FaultSpec lossy;
  lossy.drop = 1.0;
  injector.set_faults_for(v4("198.51.100.1"), lossy);

  const auto broken = injector.try_forward_to(v4("198.51.100.1"), query(1), resolver_addr_);
  EXPECT_FALSE(broken.response.has_value());
  EXPECT_TRUE(broken.addressable);  // lost, not unreachable: retryable

  const auto healthy = injector.try_forward_to(v4("198.51.100.2"), query(2), resolver_addr_);
  ASSERT_TRUE(healthy.response.has_value());
  EXPECT_EQ(healthy.response->header.rcode, Rcode::no_error);

  // try_forward() uses the default (clean) spec, untouched by the override.
  const auto clean = injector.try_forward(query(3), resolver_addr_);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(clean->header.rcode, Rcode::no_error);
}

TEST_F(FaultInjectorFixture, UnaddressableServerPropagates) {
  FaultInjector injector{&directory_};
  const auto result = injector.try_forward_to(v4("192.0.2.200"), query(1), resolver_addr_);
  EXPECT_FALSE(result.response.has_value());
  EXPECT_FALSE(result.addressable);  // no route at all, distinct from loss
}

TEST_F(FaultInjectorFixture, ResetStatsZeroesCounters) {
  FaultSpec spec;
  spec.drop = 1.0;
  FaultInjector injector{&directory_, {spec}};
  (void)injector.try_forward(query(1), resolver_addr_);
  EXPECT_EQ(injector.stats().drops, 1U);
  injector.reset_stats();
  EXPECT_EQ(injector.stats().drops, 0U);
  EXPECT_EQ(injector.stats().forwards, 0U);
}

TEST_F(FaultInjectorFixture, RejectsInvalidSpecs) {
  EXPECT_THROW(FaultInjector(nullptr, {}), std::invalid_argument);
  FaultSpec bad;
  bad.drop = 1.5;
  EXPECT_THROW(FaultInjector(&directory_, {bad}), std::invalid_argument);
  FaultInjector injector{&directory_};
  bad.drop = -0.1;
  EXPECT_THROW(injector.set_faults(bad), std::invalid_argument);
  FaultSpec negative_delay;
  negative_delay.delay = std::chrono::microseconds{-1};
  EXPECT_THROW(injector.set_faults_for(v4("198.51.100.1"), negative_delay),
               std::invalid_argument);
}

TEST(FaultInjectorUdp, WrapsTheRealSocketPath) {
  // The injector composes with the real UDP upstream: a lossy spec drops
  // queries before the socket, and clearing it restores end-to-end
  // resolution over genuine datagrams.
  AuthoritativeServer engine;
  engine.add_dynamic_domain(
      DnsName::from_text("g.cdn.example"),
      [](const DynamicQuery&) -> std::optional<DynamicAnswer> {
        DynamicAnswer answer;
        answer.addresses = {v4("203.0.0.5")};
        return answer;
      });
  UdpAuthorityServer server{&engine, UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}};
  std::atomic<bool> stop{false};
  std::thread serve{[&] { server.serve_until(stop); }};

  UdpUpstream upstream{server.endpoint(), 500ms};
  FaultInjector injector{&upstream};
  const net::IpAddr source = v4("202.0.0.1");
  const Message query =
      Message::make_query(21, DnsName::from_text("www.g.cdn.example"), RecordType::A);

  const auto clean = injector.try_forward(query, source);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(clean->header.rcode, Rcode::no_error);
  EXPECT_EQ(clean->answer_addresses().at(0), v4("203.0.0.5"));

  FaultSpec lossy;
  lossy.drop = 1.0;
  injector.set_faults(lossy);
  EXPECT_FALSE(injector.try_forward(query, source).has_value());

  injector.set_faults(FaultSpec{});
  EXPECT_TRUE(injector.try_forward(query, source).has_value());

  // Only the configured endpoint is addressable through the UDP upstream.
  const auto wrong = injector.try_forward_to(v4("192.0.2.77"), query, source);
  EXPECT_FALSE(wrong.addressable);
  const auto right =
      injector.try_forward_to(net::IpAddr{server.endpoint().address}, query, source);
  EXPECT_TRUE(right.addressable);
  ASSERT_TRUE(right.response.has_value());

  stop = true;
  serve.join();
}

}  // namespace
}  // namespace eum::dnsserver
