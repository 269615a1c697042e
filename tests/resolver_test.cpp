#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string_view>
#include <thread>
#include <vector>

#include "dnsserver/fault.h"
#include "dnsserver/resolver.h"
#include "dnsserver/transport.h"
#include "obs/trace.h"

namespace eum::dnsserver {
namespace {

using dns::ClientSubnetOption;
using dns::DnsName;
using dns::Message;
using dns::Rcode;
using dns::RecordType;

net::IpAddr v4(const char* text) { return *net::IpAddr::parse(text); }

/// One of the resolver's counters (eum_resolver_* and its cache's eum_cache_*).
std::uint64_t counter(RecursiveResolver& resolver, std::string_view name) {
  return resolver.registry().counter_total(name);
}

/// The injector's eum_fault_injected_total series for one fault kind.
std::uint64_t injected(const FaultInjector& injector, const char* fault) {
  return injector.registry().counter_total("eum_fault_injected_total", {{"fault", fault}});
}

/// Authority answering every A query under g.cdn.example with an address
/// derived from the ECS block (so the test can see which unit mapped) and
/// a configurable scope.
class EcsFixture : public ::testing::Test {
 protected:
  EcsFixture() {
    server_.add_dynamic_domain(
        DnsName::from_text("g.cdn.example"),
        [this](const DynamicQuery& query) -> std::optional<DynamicAnswer> {
          ++dynamic_calls_;
          DynamicAnswer answer;
          answer.ttl = ttl_;
          answer.ecs_scope_len = scope_;
          if (query.client_block) {
            // Address encodes the client's /24 so answers are distinguishable.
            const auto base = query.client_block->address().v4().value();
            answer.addresses = {net::IpAddr{net::IpV4Addr{0xCB000000U | (base >> 8 & 0xFF)}}};
          } else {
            answer.addresses = {v4("203.0.113.99")};
          }
          return answer;
        });
    directory_.add_authority(DnsName::from_text("g.cdn.example"), &server_);
  }

  RecursiveResolver make_resolver(bool ecs) {
    ResolverConfig config;
    config.ecs_enabled = ecs;
    return RecursiveResolver{config, &clock_, &directory_, v4("202.0.0.1")};
  }

  Message client_query(std::uint16_t id, const char* name = "www.g.cdn.example") {
    return Message::make_query(id, DnsName::from_text(name), RecordType::A);
  }

  util::SimClock clock_;
  AuthoritativeServer server_;
  AuthorityDirectory directory_;
  int dynamic_calls_ = 0;
  std::uint32_t ttl_ = 60;
  int scope_ = 24;
};

TEST_F(EcsFixture, ResolvesAndCaches) {
  RecursiveResolver resolver = make_resolver(false);
  const Message first = resolver.resolve(client_query(1), v4("1.2.3.4"));
  EXPECT_EQ(first.header.rcode, Rcode::no_error);
  ASSERT_EQ(first.answers.size(), 1U);
  EXPECT_EQ(counter(resolver, "eum_cache_misses_total"), 1U);

  const Message second = resolver.resolve(client_query(2), v4("1.2.3.4"));
  EXPECT_EQ(second.answers, first.answers);
  EXPECT_EQ(counter(resolver, "eum_cache_hits_total"), 1U);
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 1U);
  EXPECT_EQ(dynamic_calls_, 1);
}

TEST_F(EcsFixture, NonEcsCacheSharedAcrossClients) {
  RecursiveResolver resolver = make_resolver(false);
  (void)resolver.resolve(client_query(1), v4("1.2.3.4"));
  (void)resolver.resolve(client_query(2), v4("99.88.77.66"));
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 1U);  // one entry serves all
}

TEST_F(EcsFixture, EcsCachePartitionsByScopeBlock) {
  RecursiveResolver resolver = make_resolver(true);
  const Message a = resolver.resolve(client_query(1), v4("1.2.3.4"));
  const Message b = resolver.resolve(client_query(2), v4("1.2.4.4"));  // other /24
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 2U);
  EXPECT_NE(a.answers, b.answers);

  // Same /24 as the first client: cache hit, same answer.
  const Message c = resolver.resolve(client_query(3), v4("1.2.3.200"));
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 2U);
  EXPECT_EQ(c.answers, a.answers);
  EXPECT_EQ(resolver.cache_size(), 2U);
}

TEST_F(EcsFixture, ScopeZeroAnswerIsGlobal) {
  scope_ = 0;  // authority says the answer is client-independent
  RecursiveResolver resolver = make_resolver(true);
  (void)resolver.resolve(client_query(1), v4("1.2.3.4"));
  (void)resolver.resolve(client_query(2), v4("200.100.50.25"));
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 1U);
}

TEST_F(EcsFixture, BroaderScopeSharesAcrossTwentyFours) {
  scope_ = 20;  // answers valid for a whole /20
  RecursiveResolver resolver = make_resolver(true);
  (void)resolver.resolve(client_query(1), v4("1.2.16.4"));
  // 1.2.17.x is in the same /20 as 1.2.16.x.
  (void)resolver.resolve(client_query(2), v4("1.2.17.9"));
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 1U);
  // 1.2.32.x is in a different /20.
  (void)resolver.resolve(client_query(3), v4("1.2.32.9"));
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 2U);
}

TEST_F(EcsFixture, TtlExpiryForcesRefetch) {
  RecursiveResolver resolver = make_resolver(false);
  (void)resolver.resolve(client_query(1), v4("1.2.3.4"));
  clock_.advance(59);
  (void)resolver.resolve(client_query(2), v4("1.2.3.4"));
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 1U);
  clock_.advance(2);  // past the 60s TTL
  (void)resolver.resolve(client_query(3), v4("1.2.3.4"));
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 2U);
}

TEST_F(EcsFixture, CachedTtlAges) {
  RecursiveResolver resolver = make_resolver(false);
  (void)resolver.resolve(client_query(1), v4("1.2.3.4"));
  clock_.advance(25);
  const Message aged = resolver.resolve(client_query(2), v4("1.2.3.4"));
  ASSERT_EQ(aged.answers.size(), 1U);
  EXPECT_EQ(aged.answers[0].ttl, 35U);
}

TEST_F(EcsFixture, NegativeAnswersCachedWithNegativeTtl) {
  AuthoritativeServer nx_server;
  nx_server.add_dynamic_domain(DnsName::from_text("g.cdn.example"),
                               [](const DynamicQuery&) { return std::optional<DynamicAnswer>{}; });
  AuthorityDirectory directory;
  directory.add_authority(DnsName::from_text("g.cdn.example"), &nx_server);
  ResolverConfig config;
  config.negative_ttl = 10;
  RecursiveResolver resolver{config, &clock_, &directory, v4("202.0.0.1")};

  EXPECT_EQ(resolver.resolve(client_query(1), v4("1.2.3.4")).header.rcode, Rcode::nx_domain);
  EXPECT_EQ(resolver.resolve(client_query(2), v4("1.2.3.4")).header.rcode, Rcode::nx_domain);
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 1U);
  clock_.advance(11);
  (void)resolver.resolve(client_query(3), v4("1.2.3.4"));
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 2U);
}

TEST_F(EcsFixture, NegativeTtlFromSoaMinimum) {
  // RFC 2308: negative answers cache for the SOA MINIMUM, not the
  // resolver's default.
  AuthoritativeServer static_server;
  dns::SoaRecord soa;
  soa.mname = DnsName::from_text("ns1.static.example");
  soa.minimum = 5;  // much shorter than the resolver default of 30
  Zone zone{DnsName::from_text("static.example"), soa};
  static_server.add_zone(std::move(zone));
  AuthorityDirectory directory;
  directory.add_authority(DnsName::from_text("static.example"), &static_server);
  ResolverConfig config;
  config.negative_ttl = 300;
  RecursiveResolver resolver{config, &clock_, &directory, v4("202.0.0.1")};

  const auto query = [&](std::uint16_t id) {
    return resolver.resolve(
        Message::make_query(id, DnsName::from_text("no.static.example"), RecordType::A),
        v4("1.2.3.4"));
  };
  EXPECT_EQ(query(1).header.rcode, Rcode::nx_domain);
  clock_.advance(4);
  (void)query(2);
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 1U);  // still cached
  clock_.advance(2);  // past the 5s SOA minimum, far before negative_ttl
  (void)query(3);
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 2U);
}

TEST_F(EcsFixture, ScopeBroaderThanSourceClampedToSource) {
  // An authority replying scope /32 to a /24 announcement only proved
  // knowledge of 24 bits; the cache entry must cover at most the /24.
  scope_ = 32;
  RecursiveResolver resolver = make_resolver(true);
  (void)resolver.resolve(client_query(1), v4("1.2.3.4"));
  // Another host of the same /24 must hit the (clamped) entry.
  (void)resolver.resolve(client_query(2), v4("1.2.3.77"));
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 1U);
}

TEST_F(EcsFixture, ForwardedEcsFromClientQueryWins) {
  RecursiveResolver resolver = make_resolver(true);
  // A downstream forwarder already attached ECS for 50.60.70.0/24.
  const auto ecs = ClientSubnetOption::for_query(v4("50.60.70.80"), 24);
  const Message query =
      Message::make_query(1, DnsName::from_text("www.g.cdn.example"), RecordType::A, ecs);
  const Message response = resolver.resolve(query, v4("1.2.3.4"));
  ASSERT_EQ(response.answers.size(), 1U);
  // Answer derived from 50.60.70/24, not from the connection address 1.2.3/24.
  EXPECT_EQ(response.answer_addresses()[0].v4().value(), 0xCB000000U | 70U);
}

TEST_F(EcsFixture, ForwardedEcsDoesNotHitConnectionScopedEntry) {
  // Regression: the seed passed the *connection* address to the cache
  // lookup while the upstream query used the ECS-derived address. A
  // forwarded query whose connection address happens to fall inside an
  // unrelated cached scope was served that block's answer — silent
  // mapping corruption (RFC 7871 §7.1.1).
  RecursiveResolver resolver = make_resolver(true);
  // Seed a scoped entry for 1.2.3.0/24 via a direct client.
  (void)resolver.resolve(client_query(1), v4("1.2.3.4"));
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 1U);

  // A forwarder whose connection address is inside that /24 relays a
  // query for a client in 50.60.70.0/24.
  const auto ecs = ClientSubnetOption::for_query(v4("50.60.70.80"), 24);
  const Message forwarded =
      Message::make_query(2, DnsName::from_text("www.g.cdn.example"), RecordType::A, ecs);
  const Message response = resolver.resolve(forwarded, v4("1.2.3.50"));
  ASSERT_EQ(response.answers.size(), 1U);
  // Must be the 50.60.70/24 answer fetched upstream, not the cached
  // 1.2.3/24 one.
  EXPECT_EQ(response.answer_addresses()[0].v4().value(), 0xCB000000U | 70U);
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 2U);
}

TEST_F(EcsFixture, ForwardedEcsHitsItsOwnScopedEntry) {
  // Companion regression: two forwarded queries for the same client
  // block must share one cache entry even when they arrive over
  // different connections (the seed looked up by connection address and
  // always missed).
  RecursiveResolver resolver = make_resolver(true);
  const auto ecs = ClientSubnetOption::for_query(v4("50.60.70.80"), 24);
  const Message q1 =
      Message::make_query(1, DnsName::from_text("www.g.cdn.example"), RecordType::A, ecs);
  const Message q2 =
      Message::make_query(2, DnsName::from_text("www.g.cdn.example"), RecordType::A, ecs);
  const Message a = resolver.resolve(q1, v4("9.9.9.9"));
  const Message b = resolver.resolve(q2, v4("8.8.8.8"));
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 1U);
  EXPECT_EQ(counter(resolver, "eum_cache_hits_total"), 1U);
}

TEST_F(EcsFixture, EvictionKeepsRecentEntriesServing) {
  // Regression for the seed's sweep-then-flush eviction: overflowing the
  // cache by one entry dumped *all* state. LRU must keep the most
  // recently used entries hot.
  ResolverConfig config;
  config.ecs_enabled = true;
  config.max_cache_entries = 4;
  config.cache_shards = 1;  // exact capacity semantics for the test
  RecursiveResolver resolver{config, &clock_, &directory_, v4("202.0.0.1")};
  for (std::uint32_t i = 0; i < 5; ++i) {  // 5 blocks through a 4-entry cache
    const net::IpAddr client{net::IpV4Addr{0x01020000U + (i << 8) + 1}};
    (void)resolver.resolve(client_query(static_cast<std::uint16_t>(i + 1)), client);
  }
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 5U);
  EXPECT_EQ(resolver.cache_size(), 4U);
  EXPECT_EQ(counter(resolver, "eum_cache_evictions_total"), 1U);
  // Blocks 2..5 must still be cached; only block 1 (the coldest) was
  // evicted. The seed flushed everything and re-queried upstream.
  for (std::uint32_t i = 1; i < 5; ++i) {
    const net::IpAddr client{net::IpV4Addr{0x01020000U + (i << 8) + 7}};
    (void)resolver.resolve(client_query(static_cast<std::uint16_t>(10 + i)), client);
  }
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 5U);
  EXPECT_EQ(counter(resolver, "eum_cache_hits_total"), 4U);
}

TEST_F(EcsFixture, ExpiredEntriesDoNotLeakCacheKeys) {
  // Regression: the seed erased expired entries from the per-key vector
  // but left the emptied vector keyed in the map forever.
  RecursiveResolver resolver = make_resolver(false);
  ttl_ = 30;
  for (int i = 0; i < 20; ++i) {
    const Message query = client_query(static_cast<std::uint16_t>(i + 1),
                                       ("h" + std::to_string(i) + ".g.cdn.example").c_str());
    (void)resolver.resolve(query, v4("1.2.3.4"));
  }
  EXPECT_EQ(resolver.cache().key_count(), 20U);
  clock_.advance(31);
  for (int i = 0; i < 20; ++i) {
    const Message query = client_query(static_cast<std::uint16_t>(100 + i),
                                       ("h" + std::to_string(i) + ".g.cdn.example").c_str());
    (void)resolver.resolve(query, v4("1.2.3.4"));
  }
  // The fresh entries replaced the expired ones; no key accumulates
  // empty slots.
  EXPECT_EQ(resolver.cache().key_count(), 20U);
  EXPECT_EQ(resolver.cache_size(), 20U);
  EXPECT_EQ(counter(resolver, "eum_cache_expirations_total"), 20U);
}

TEST_F(EcsFixture, ScopeDepthStatsTrackMatchedScopes) {
  RecursiveResolver resolver = make_resolver(true);
  (void)resolver.resolve(client_query(1), v4("1.2.3.4"));
  (void)resolver.resolve(client_query(2), v4("1.2.3.9"));   // /24 hit
  (void)resolver.resolve(client_query(3), v4("1.2.3.77"));  // /24 hit
  EXPECT_EQ(counter(resolver, "eum_cache_scoped_hits_total"), 2U);
  EXPECT_EQ(counter(resolver, "eum_cache_scope_depth_bits_total"), 48U);  // two /24 matches
}

TEST_F(EcsFixture, RefusedUpstreamPropagates) {
  RecursiveResolver resolver = make_resolver(false);
  const Message response = resolver.resolve(client_query(1, "www.unknown.example"),
                                            v4("1.2.3.4"));
  EXPECT_EQ(response.header.rcode, Rcode::refused);
}

TEST_F(EcsFixture, FormErrOnMultiQuestionClientQuery) {
  RecursiveResolver resolver = make_resolver(false);
  Message query = client_query(1);
  query.questions.push_back(query.questions.front());
  EXPECT_EQ(resolver.resolve(query, v4("1.2.3.4")).header.rcode, Rcode::form_err);
}

TEST_F(EcsFixture, FlushCacheDropsEntries) {
  RecursiveResolver resolver = make_resolver(true);
  (void)resolver.resolve(client_query(1), v4("1.2.3.4"));
  EXPECT_EQ(resolver.cache_size(), 1U);
  resolver.flush_cache();
  EXPECT_EQ(resolver.cache_size(), 0U);
  (void)resolver.resolve(client_query(2), v4("1.2.3.4"));
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 2U);
}

TEST_F(EcsFixture, CacheCapacityTriggersEviction) {
  ResolverConfig config;
  config.ecs_enabled = true;
  config.max_cache_entries = 4;
  RecursiveResolver resolver{config, &clock_, &directory_, v4("202.0.0.1")};
  for (std::uint32_t i = 0; i < 10; ++i) {
    const net::IpAddr client{net::IpV4Addr{0x01020000U + (i << 8) + 1}};
    (void)resolver.resolve(client_query(static_cast<std::uint16_t>(i + 1)), client);
  }
  EXPECT_LE(resolver.cache_size(), 4U);
  EXPECT_GT(counter(resolver, "eum_cache_evictions_total"), 0U);
}

TEST_F(EcsFixture, UpstreamQueryHookFires) {
  RecursiveResolver resolver = make_resolver(false);
  std::vector<std::string> names;
  resolver.on_upstream_query = [&](const DnsName& name) { names.push_back(name.to_string()); };
  (void)resolver.resolve(client_query(1), v4("1.2.3.4"));
  (void)resolver.resolve(client_query(2), v4("1.2.3.4"));  // cache hit: no hook
  ASSERT_EQ(names.size(), 1U);
  EXPECT_EQ(names[0], "www.g.cdn.example");
}

TEST_F(EcsFixture, RejectsBadConstruction) {
  ResolverConfig config;
  EXPECT_THROW(RecursiveResolver(config, nullptr, &directory_, v4("1.1.1.1")),
               std::invalid_argument);
  EXPECT_THROW(RecursiveResolver(config, &clock_, nullptr, v4("1.1.1.1")),
               std::invalid_argument);
  config.ecs_source_len = 40;
  EXPECT_THROW(RecursiveResolver(config, &clock_, &directory_, v4("1.1.1.1")),
               std::invalid_argument);
}

TEST(ResolverCname, ChasesAcrossAuthorities) {
  // Zone 1: www.shop.example CNAME e1.g.cdn.example (static).
  util::SimClock clock;
  AuthoritativeServer shop_server;
  dns::SoaRecord soa;
  soa.mname = DnsName::from_text("ns1.shop.example");
  soa.minimum = 30;
  Zone shop_zone{DnsName::from_text("shop.example"), soa};
  shop_zone.add_cname(DnsName::from_text("www.shop.example"),
                      DnsName::from_text("e1.g.cdn.example"), 300);
  shop_server.add_zone(std::move(shop_zone));

  // Authority 2: dynamic CDN answers.
  AuthoritativeServer cdn_server;
  cdn_server.add_dynamic_domain(DnsName::from_text("g.cdn.example"),
                                [](const DynamicQuery&) -> std::optional<DynamicAnswer> {
                                  DynamicAnswer answer;
                                  answer.addresses = {*net::IpAddr::parse("203.1.2.3")};
                                  return answer;
                                });

  AuthorityDirectory directory;
  directory.add_authority(DnsName::from_text("shop.example"), &shop_server);
  directory.add_authority(DnsName::from_text("g.cdn.example"), &cdn_server);

  ResolverConfig config;
  RecursiveResolver resolver{config, &clock, &directory, *net::IpAddr::parse("200.0.0.9")};
  const Message response = resolver.resolve(
      Message::make_query(1, DnsName::from_text("www.shop.example"), RecordType::A),
      *net::IpAddr::parse("1.2.3.4"));
  EXPECT_EQ(response.header.rcode, Rcode::no_error);
  ASSERT_EQ(response.answers.size(), 2U);  // CNAME + A
  EXPECT_EQ(response.answer_addresses().at(0), *net::IpAddr::parse("203.1.2.3"));
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 2U);

  // The CNAME and the target are cached independently.
  (void)resolver.resolve(
      Message::make_query(2, DnsName::from_text("www.shop.example"), RecordType::A),
      *net::IpAddr::parse("1.2.3.4"));
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 2U);
}

/// EcsFixture's authority behind a FaultInjector, for the retry/backoff
/// and serve-stale paths. Backoffs are shrunk so failure tests stay fast.
class FaultyResolverFixture : public ::testing::Test {
 protected:
  FaultyResolverFixture() {
    server_.add_dynamic_domain(
        DnsName::from_text("g.cdn.example"),
        [this](const DynamicQuery&) -> std::optional<DynamicAnswer> {
          DynamicAnswer answer;
          answer.ttl = ttl_;
          answer.addresses = {v4("203.0.0.1")};
          return answer;
        });
    directory_.add_authority(DnsName::from_text("g.cdn.example"), &server_);
    injector_ = std::make_unique<FaultInjector>(&directory_);
  }

  RecursiveResolver make_resolver(ResolverConfig config = {}) {
    config.retry.backoff_initial = std::chrono::microseconds{50};
    config.retry.backoff_max = std::chrono::microseconds{500};
    return RecursiveResolver{config, &clock_, injector_.get(), v4("202.0.0.1")};
  }

  void set_drop(double probability) {
    FaultSpec spec;
    spec.drop = probability;
    injector_->set_faults(spec);
  }

  static Message client_query(std::uint16_t id, const std::string& name = "www.g.cdn.example") {
    return Message::make_query(id, DnsName::from_text(name.c_str()), RecordType::A);
  }

  util::SimClock clock_;
  AuthoritativeServer server_;
  AuthorityDirectory directory_;
  std::unique_ptr<FaultInjector> injector_;
  std::uint32_t ttl_ = 30;
};

TEST_F(FaultyResolverFixture, RetryRecoversFromDrops) {
  // 50% loss with a generous attempt budget: 0.5^16 per-query residual,
  // and both fault and jitter streams are seeded, so this is stable.
  ResolverConfig config;
  config.retry.attempts = 16;
  RecursiveResolver resolver = make_resolver(config);
  set_drop(0.5);
  for (std::uint16_t i = 0; i < 50; ++i) {
    const Message response = resolver.resolve(
        client_query(i, "h" + std::to_string(i) + ".g.cdn.example"), v4("1.2.3.4"));
    EXPECT_EQ(response.header.rcode, Rcode::no_error) << "query " << i;
  }
  const std::uint64_t retries = counter(resolver, "eum_resolver_retries_total");
  const std::uint64_t failures = counter(resolver, "eum_resolver_upstream_failures_total");
  EXPECT_GT(retries, 0U);
  EXPECT_GT(failures, 0U);
  EXPECT_EQ(failures, injected(*injector_, "drop"));
  // Retries are attempts beyond the first, so the totals must reconcile.
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"), 50U + retries);
}

TEST_F(FaultyResolverFixture, RetryExhaustionYieldsUncachedServfail) {
  ResolverConfig config;
  config.retry.attempts = 3;
  RecursiveResolver resolver = make_resolver(config);
  set_drop(1.0);
  const Message failed = resolver.resolve(client_query(1), v4("1.2.3.4"));
  EXPECT_EQ(failed.header.rcode, Rcode::serv_fail);
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_failures_total"), 3U);
  EXPECT_EQ(resolver.cache_size(), 0U);  // SERVFAIL is never cached

  // The authority recovers: the next query must go upstream and succeed,
  // not be served a cached failure.
  set_drop(0.0);
  const Message recovered = resolver.resolve(client_query(2), v4("1.2.3.4"));
  EXPECT_EQ(recovered.header.rcode, Rcode::no_error);
  ASSERT_EQ(recovered.answers.size(), 1U);
}

TEST_F(FaultyResolverFixture, ServfailResponsesAreRetried) {
  // An overloaded authority SERVFAILing half the time must not surface
  // to the client while the attempt budget lasts.
  ResolverConfig config;
  config.retry.attempts = 16;
  RecursiveResolver resolver = make_resolver(config);
  FaultSpec spec;
  spec.servfail = 0.5;
  injector_->set_faults(spec);
  for (std::uint16_t i = 0; i < 30; ++i) {
    const Message response = resolver.resolve(
        client_query(i, "s" + std::to_string(i) + ".g.cdn.example"), v4("1.2.3.4"));
    EXPECT_EQ(response.header.rcode, Rcode::no_error) << "query " << i;
  }
  EXPECT_GT(counter(resolver, "eum_resolver_retries_total"), 0U);
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_failures_total"),
            injected(*injector_, "servfail"));
}

TEST_F(FaultyResolverFixture, ServeStaleBridgesUpstreamOutage) {
  ResolverConfig config;
  config.serve_stale_window = 3600;
  RecursiveResolver resolver = make_resolver(config);
  obs::FlightRecorderConfig trace_config;
  trace_config.sample_every = 1;
  obs::FlightRecorder recorder{trace_config};
  obs::QueryTracer tracer{&recorder, 0};
  const obs::TracerScope trace_scope{&tracer};
  const auto traced_resolve = [&](std::uint16_t id) {
    tracer.begin();
    Message response = resolver.resolve(client_query(id), v4("1.2.3.4"));
    tracer.finish();
    return response;
  };

  const Message fresh = traced_resolve(1);
  ASSERT_EQ(fresh.answers.size(), 1U);
  clock_.advance(ttl_ + 5);  // past expiry, inside the stale window
  set_drop(1.0);             // total outage

  const Message stale = traced_resolve(2);
  EXPECT_EQ(stale.header.rcode, Rcode::no_error);
  ASSERT_EQ(stale.answers.size(), 1U);
  EXPECT_EQ(stale.answer_addresses(), fresh.answer_addresses());
  // RFC 8767 §4: stale answers carry a short TTL so clients re-ask soon.
  EXPECT_LE(stale.answers[0].ttl, config.stale_answer_ttl);
  EXPECT_EQ(counter(resolver, "eum_resolver_stale_served_total"), 1U);
  EXPECT_GT(counter(resolver, "eum_resolver_upstream_failures_total"), 0U);

  // The flight recorder attributes exactly one answer to the stale path.
  const auto records = recorder.drain();
  ASSERT_EQ(records.size(), 2U);
  const auto stale_count =
      std::count_if(records.begin(), records.end(),
                    [](const auto& r) { return r.source == obs::AnswerSource::stale; });
  EXPECT_EQ(stale_count, 1);
  EXPECT_EQ(std::string{obs::to_string(obs::AnswerSource::stale)}, "stale");
}

TEST_F(FaultyResolverFixture, ServeStaleWindowBoundsStaleness) {
  ResolverConfig config;
  config.serve_stale_window = 100;
  RecursiveResolver resolver = make_resolver(config);
  (void)resolver.resolve(client_query(1), v4("1.2.3.4"));
  clock_.advance(ttl_ + 101);  // beyond expiry + window
  set_drop(1.0);
  const Message response = resolver.resolve(client_query(2), v4("1.2.3.4"));
  EXPECT_EQ(response.header.rcode, Rcode::serv_fail);
  EXPECT_EQ(counter(resolver, "eum_resolver_stale_served_total"), 0U);
}

TEST_F(FaultyResolverFixture, ServeStaleDisabledByDefault) {
  RecursiveResolver resolver = make_resolver();
  (void)resolver.resolve(client_query(1), v4("1.2.3.4"));
  clock_.advance(ttl_ + 1);
  set_drop(1.0);
  EXPECT_EQ(resolver.resolve(client_query(2), v4("1.2.3.4")).header.rcode, Rcode::serv_fail);
  EXPECT_EQ(counter(resolver, "eum_resolver_stale_served_total"), 0U);
}

TEST_F(FaultyResolverFixture, ResolverSharedAcrossThreadsUnderFaults) {
  // TSan-checked: one resolver + one fault injector shared by 8 workers
  // with drops and duplicate deliveries. Counters must reconcile exactly
  // and every query must still resolve within the attempt budget.
  ResolverConfig config;
  config.retry.attempts = 16;
  config.ecs_enabled = true;
  RecursiveResolver resolver = make_resolver(config);
  FaultSpec spec;
  spec.drop = 0.3;
  spec.duplicate = 0.2;
  injector_->set_faults(spec);

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        // Unique qname per (thread, i): every query is a cache miss, so
        // the upstream, retry, and cache-insert paths all run hot.
        const std::string name =
            "t" + std::to_string(t) + "q" + std::to_string(i) + ".g.cdn.example";
        const net::IpAddr client{net::IpV4Addr{0x0A000000U + (static_cast<std::uint32_t>(t) << 16) +
                                               (static_cast<std::uint32_t>(i) << 8) + 1}};
        const Message response = resolver.resolve(
            client_query(static_cast<std::uint16_t>(t * kQueriesPerThread + i), name), client);
        if (response.header.rcode != Rcode::no_error) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& worker : workers) worker.join();

  EXPECT_EQ(failures.load(std::memory_order_relaxed), 0);
  const auto queries = static_cast<std::uint64_t>(kThreads * kQueriesPerThread);
  EXPECT_EQ(counter(resolver, "eum_resolver_client_queries_total"), queries);
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_queries_total"),
            queries + counter(resolver, "eum_resolver_retries_total"));
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_failures_total"),
            injected(*injector_, "drop"));
  // Every non-dropped attempt (plus each duplicate copy) reached the
  // authority exactly once.
  EXPECT_EQ(injector_->registry().counter_total("eum_fault_forwarded_total"),
            directory_.forwarded());
  EXPECT_EQ(resolver.cache_size(), static_cast<std::size_t>(kThreads * kQueriesPerThread));
}

/// Two-server delegation behind a FaultInjector, for the SRTT-ordered
/// nameserver selection. The top level refers to ns1/ns2; each low-level
/// engine answers with its own address so the test can see who served.
class ResolverSrttFixture : public ::testing::Test {
 protected:
  ResolverSrttFixture() {
    top_.add_dynamic_domain(
        DnsName::from_text("b.cdn.example"),
        [](const DynamicQuery&) -> std::optional<DynamicAnswer> {
          DynamicAnswer answer;
          answer.referral = {
              DynamicReferral{DnsName::from_text("ns1.b.cdn.example"), v4("198.51.100.1")},
              DynamicReferral{DnsName::from_text("ns2.b.cdn.example"), v4("198.51.100.2")},
          };
          return answer;
        });
    const auto serve_from = [](const char* address) {
      return [address](const DynamicQuery&) -> std::optional<DynamicAnswer> {
        DynamicAnswer answer;
        answer.addresses = {v4(address)};
        return answer;
      };
    };
    low1_.add_dynamic_domain(DnsName::from_text("b.cdn.example"), serve_from("203.0.0.1"));
    low2_.add_dynamic_domain(DnsName::from_text("b.cdn.example"), serve_from("203.0.0.2"));
    directory_.add_authority(DnsName::from_text("b.cdn.example"), &top_);
    directory_.add_server(v4("198.51.100.1"), &low1_);
    directory_.add_server(v4("198.51.100.2"), &low2_);
    injector_ = std::make_unique<FaultInjector>(&directory_);
  }

  RecursiveResolver make_resolver() {
    ResolverConfig config;
    config.retry.backoff_initial = std::chrono::microseconds{50};
    config.retry.backoff_max = std::chrono::microseconds{500};
    return RecursiveResolver{config, &clock_, injector_.get(), v4("202.0.0.1")};
  }

  net::IpAddr resolve_one(RecursiveResolver& resolver, std::uint16_t id) {
    const Message response = resolver.resolve(
        Message::make_query(id, DnsName::from_text("e" + std::to_string(id) + ".b.cdn.example"),
                            RecordType::A),
        v4("1.2.3.4"));
    EXPECT_EQ(response.header.rcode, Rcode::no_error);
    const auto addresses = response.answer_addresses();
    return addresses.empty() ? net::IpAddr{net::IpV4Addr{0}} : addresses[0];
  }

  util::SimClock clock_;
  AuthoritativeServer top_;
  AuthoritativeServer low1_;
  AuthoritativeServer low2_;
  AuthorityDirectory directory_;
  std::unique_ptr<FaultInjector> injector_;
};

TEST_F(ResolverSrttFixture, PrefersFasterNameserverAfterExploring) {
  // ns1 is slow (injected 20ms), ns2 fast. The first two resolutions
  // explore both (an untried server keeps SRTT 0 and sorts first); from
  // the third on, SRTT ordering must pin the fast server.
  FaultSpec slow;
  slow.delay = std::chrono::milliseconds{20};
  injector_->set_faults_for(v4("198.51.100.1"), slow);
  RecursiveResolver resolver = make_resolver();

  (void)resolve_one(resolver, 1);  // explores ns1 (slow)
  (void)resolve_one(resolver, 2);  // explores ns2 (fast)
  const double srtt_slow = resolver.srtt_us(v4("198.51.100.1"));
  const double srtt_fast = resolver.srtt_us(v4("198.51.100.2"));
  EXPECT_GT(srtt_slow, 0.0);
  EXPECT_GT(srtt_fast, 0.0);
  EXPECT_GT(srtt_slow, srtt_fast);
  EXPECT_GE(srtt_slow, 20000.0);  // at least the injected delay

  for (std::uint16_t id = 3; id < 8; ++id) {
    EXPECT_EQ(resolve_one(resolver, id), v4("203.0.0.2")) << "query " << id;
  }
  // The SRTT gauges are exported per server; they mirror live state, so
  // a registry reset keeps them.
  resolver.registry().reset();
  EXPECT_GT(resolver.srtt_us(v4("198.51.100.1")), 0.0);
  const auto gauges = resolver.registry().snapshot().gauges;
  EXPECT_TRUE(std::any_of(gauges.begin(), gauges.end(), [](const auto& gauge) {
    return gauge.name == "eum_resolver_srtt_us" &&
           gauge.labels == obs::Labels{{"server", "198.51.100.1"}} && gauge.value > 0;
  }));
}

TEST_F(ResolverSrttFixture, DeadNameserverFailsOverToSibling) {
  FaultSpec dead;
  dead.drop = 1.0;
  injector_->set_faults_for(v4("198.51.100.1"), dead);
  RecursiveResolver resolver = make_resolver();

  // ns1 eats the first attempt; the resolver must fail over to ns2
  // within the same resolution rather than SERVFAILing the client.
  EXPECT_EQ(resolve_one(resolver, 1), v4("203.0.0.2"));
  EXPECT_GT(counter(resolver, "eum_resolver_retries_total"), 0U);
  EXPECT_GT(counter(resolver, "eum_resolver_upstream_failures_total"), 0U);

  // The failure penalty parks ns1's SRTT above ns2's, so later
  // resolutions go straight to the live sibling.
  EXPECT_GT(resolver.srtt_us(v4("198.51.100.1")), resolver.srtt_us(v4("198.51.100.2")));
  (void)resolve_one(resolver, 2);
  const auto drops_before = injected(*injector_, "drop");
  (void)resolve_one(resolver, 3);
  EXPECT_EQ(injected(*injector_, "drop"), drops_before);  // ns1 no longer tried
}

TEST_F(ResolverSrttFixture, UnaddressableGlueKeepsReferral) {
  // A transport that cannot route to any delegated server must keep the
  // referral (legacy forward_to semantics: NOERROR, no answers) rather
  // than burn the retry budget and SERVFAIL the client.
  AuthorityDirectory no_routes;
  no_routes.add_authority(DnsName::from_text("b.cdn.example"), &top_);
  ResolverConfig config;
  RecursiveResolver resolver{config, &clock_, &no_routes, v4("202.0.0.1")};
  const Message response = resolver.resolve(
      Message::make_query(1, DnsName::from_text("e1.b.cdn.example"), RecordType::A),
      v4("1.2.3.4"));
  EXPECT_EQ(response.header.rcode, Rcode::no_error);
  EXPECT_TRUE(response.answers.empty());
  EXPECT_EQ(counter(resolver, "eum_resolver_upstream_failures_total"), 0U);  // nothing was retried
  EXPECT_EQ(counter(resolver, "eum_resolver_retries_total"), 0U);
}

TEST(StubClientValidation, RejectsMismatchedResponses) {
  const Message query = Message::make_query(42, DnsName::from_text("www.g.cdn.example"),
                                            RecordType::A);
  Message good = Message::make_response(query);
  EXPECT_TRUE(StubClient::matches(query, good));

  Message wrong_id = good;
  wrong_id.header.id = 43;  // spoofed or crossed wire
  EXPECT_FALSE(StubClient::matches(query, wrong_id));

  Message not_a_response = good;
  not_a_response.header.is_response = false;
  EXPECT_FALSE(StubClient::matches(query, not_a_response));

  Message wrong_question = good;
  wrong_question.questions[0].name = DnsName::from_text("evil.example");
  EXPECT_FALSE(StubClient::matches(query, wrong_question));

  Message no_question = good;
  no_question.questions.clear();
  EXPECT_FALSE(StubClient::matches(query, no_question));
}

TEST(StubClientValidation, QueryIdWrapsThroughZero) {
  // The uint16 ID counter wraps 0xFFFF -> 0; ID 0 is legal and the
  // response validation must accept it like any other.
  util::SimClock clock;
  AuthoritativeServer server;
  server.add_dynamic_domain(DnsName::from_text("g.cdn.example"),
                            [](const DynamicQuery&) -> std::optional<DynamicAnswer> {
                              DynamicAnswer answer;
                              answer.addresses = {v4("203.0.0.1")};
                              return answer;
                            });
  AuthorityDirectory directory;
  directory.add_authority(DnsName::from_text("g.cdn.example"), &server);
  RecursiveResolver resolver{ResolverConfig{}, &clock, &directory, v4("202.0.0.1")};
  StubClient stub{&resolver, v4("1.2.3.4")};
  stub.set_next_id(0xFFFF);

  const Message last = stub.query(DnsName::from_text("a.g.cdn.example"));
  EXPECT_EQ(last.header.id, 0xFFFF);
  EXPECT_EQ(last.header.rcode, Rcode::no_error);
  const Message wrapped = stub.query(DnsName::from_text("b.g.cdn.example"));
  EXPECT_EQ(wrapped.header.id, 0);  // wrapped, still validated and served
  EXPECT_EQ(wrapped.header.rcode, Rcode::no_error);
  EXPECT_FALSE(wrapped.answer_addresses().empty());
}

}  // namespace
}  // namespace eum::dnsserver
