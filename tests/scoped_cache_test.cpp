// Unit tests of the sharded, LRU, RFC 7871-scoped resolver cache:
// longest-scope-match lookup (§7.3.1), graceful per-shard LRU eviction,
// empty-key reaping, and thread safety of concurrent store/lookup.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "dnsserver/scoped_cache.h"

namespace eum::dnsserver {
namespace {

using dns::DnsName;
using dns::RecordType;

net::IpAddr v4(const char* text) { return *net::IpAddr::parse(text); }

ScopedEcsCache::Key key_for(const std::string& name) {
  return ScopedEcsCache::Key{DnsName::from_text(name), RecordType::A};
}

/// An entry answering `answer`, valid for `scope` ("1.2.3.0/24" or
/// nullptr for global), inserted at t=`inserted`, expiring at t+ttl.
ScopedEcsCache::Entry entry_for(const char* answer, const char* scope = nullptr,
                                std::int64_t inserted = 0, std::int64_t ttl = 300) {
  ScopedEcsCache::Entry entry;
  if (scope != nullptr) entry.scope = *net::IpPrefix::parse(scope);
  entry.answers.push_back(dns::ResourceRecord{DnsName::from_text("www.g.cdn.example"),
                                              RecordType::A, dns::RecordClass::IN,
                                              static_cast<std::uint32_t>(ttl),
                                              dns::ARecord{v4(answer).v4()}});
  entry.inserted = util::SimTime{inserted};
  entry.expires = util::SimTime{inserted + ttl};
  return entry;
}

net::IpAddr answer_of(const ScopedEcsCache::Entry& entry) {
  return net::IpAddr{std::get<dns::ARecord>(entry.answers.front().rdata).address};
}

TEST(ScopedCache, GlobalEntryDoesNotShadowMoreSpecificScope) {
  // Regression for the seed's first-inserted-wins lookup: with a global
  // (/0) entry inserted BEFORE a more specific scoped entry, the global
  // one was always returned. RFC 7871 §7.3.1 wants the longest match.
  ScopedEcsCache cache{ScopedCacheConfig{}};
  const auto key = key_for("www.g.cdn.example");
  cache.store(key, entry_for("203.0.9.1"));                       // global
  cache.store(key, entry_for("203.0.0.1", "10.0.5.0/24"));        // specific

  const auto in_block = cache.lookup(key, v4("10.0.5.77"), util::SimTime{1});
  ASSERT_TRUE(in_block.has_value());
  EXPECT_EQ(answer_of(*in_block), v4("203.0.0.1"));  // specific wins

  const auto outside = cache.lookup(key, v4("10.0.9.1"), util::SimTime{1});
  ASSERT_TRUE(outside.has_value());
  EXPECT_EQ(answer_of(*outside), v4("203.0.9.1"));  // global is the fallback
}

TEST(ScopedCache, LongestOfSeveralNestedScopesWins) {
  ScopedEcsCache cache{ScopedCacheConfig{}};
  const auto key = key_for("www.g.cdn.example");
  cache.store(key, entry_for("203.0.16.1", "10.0.0.0/16"));
  cache.store(key, entry_for("203.0.20.1", "10.0.0.0/20"));
  cache.store(key, entry_for("203.0.24.1", "10.0.5.0/24"));

  EXPECT_EQ(answer_of(*cache.lookup(key, v4("10.0.5.9"), util::SimTime{1})),
            v4("203.0.24.1"));
  EXPECT_EQ(answer_of(*cache.lookup(key, v4("10.0.9.9"), util::SimTime{1})),
            v4("203.0.20.1"));
  EXPECT_EQ(answer_of(*cache.lookup(key, v4("10.0.99.9"), util::SimTime{1})),
            v4("203.0.16.1"));
  EXPECT_FALSE(cache.lookup(key, v4("10.9.0.1"), util::SimTime{1}).has_value());

  const obs::MetricsRegistry& registry = cache.registry();
  EXPECT_EQ(registry.counter_total("eum_cache_hits_total"), 3U);
  EXPECT_EQ(registry.counter_total("eum_cache_misses_total"), 1U);
  EXPECT_EQ(registry.counter_total("eum_cache_scoped_hits_total"), 3U);
  EXPECT_EQ(registry.counter_total("eum_cache_scope_depth_bits_total"), 24U + 20U + 16U);
}

TEST(ScopedCache, SameScopeStoreReplacesInsteadOfDuplicating) {
  ScopedEcsCache cache{ScopedCacheConfig{}};
  const auto key = key_for("www.g.cdn.example");
  cache.store(key, entry_for("203.0.0.1", "10.0.5.0/24"));
  cache.store(key, entry_for("203.0.0.2", "10.0.5.0/24"));
  EXPECT_EQ(cache.size(), 1U);
  EXPECT_EQ(cache.registry().counter_total("eum_cache_replacements_total"), 1U);
  EXPECT_EQ(answer_of(*cache.lookup(key, v4("10.0.5.1"), util::SimTime{1})),
            v4("203.0.0.2"));
}

TEST(ScopedCache, ExpiredEntriesReapedAndEmptyKeysErased) {
  // Regression for the seed's unbounded key map: expired entries were
  // erased from the per-key vector but the emptied vector stayed keyed
  // in the map forever.
  ScopedEcsCache cache{ScopedCacheConfig{}};
  for (int i = 0; i < 50; ++i) {
    cache.store(key_for("h" + std::to_string(i) + ".g.cdn.example"),
                entry_for("203.0.0.1", nullptr, 0, 10));
  }
  EXPECT_EQ(cache.size(), 50U);
  EXPECT_EQ(cache.key_count(), 50U);
  // Past every TTL: each lookup reaps the key's expired entry AND the key.
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(cache
                     .lookup(key_for("h" + std::to_string(i) + ".g.cdn.example"),
                             v4("10.0.0.1"), util::SimTime{11})
                     .has_value());
  }
  EXPECT_EQ(cache.size(), 0U);
  EXPECT_EQ(cache.key_count(), 0U);
  EXPECT_EQ(cache.registry().counter_total("eum_cache_expirations_total"), 50U);
}

TEST(ScopedCache, LruEvictsColdestNotEverything) {
  // Single shard so capacity semantics are exact: 4 entries, insert 5,
  // the *least recently used* goes — not the whole cache.
  ScopedEcsCache cache{ScopedCacheConfig{4, 1}};
  for (int i = 0; i < 4; ++i) {
    cache.store(key_for("h" + std::to_string(i) + ".example"),
                entry_for(("203.0.0." + std::to_string(i + 1)).c_str()));
  }
  // Touch h0 so h1 becomes the coldest.
  EXPECT_TRUE(cache.lookup(key_for("h0.example"), v4("10.0.0.1"), util::SimTime{1}).has_value());
  cache.store(key_for("h4.example"), entry_for("203.0.0.5"));

  EXPECT_EQ(cache.size(), 4U);
  EXPECT_EQ(cache.registry().counter_total("eum_cache_evictions_total"), 1U);
  EXPECT_FALSE(cache.lookup(key_for("h1.example"), v4("10.0.0.1"), util::SimTime{1}).has_value());
  for (const char* survivor : {"h0.example", "h2.example", "h3.example", "h4.example"}) {
    EXPECT_TRUE(cache.lookup(key_for(survivor), v4("10.0.0.1"), util::SimTime{1}).has_value())
        << survivor;
  }
  EXPECT_EQ(cache.key_count(), 4U);  // evicted key reaped from the map
}

TEST(ScopedCache, CapacityBoundHoldsAcrossShards) {
  ScopedEcsCache cache{ScopedCacheConfig{64, 8}};
  for (int i = 0; i < 1000; ++i) {
    cache.store(key_for("h" + std::to_string(i) + ".example"), entry_for("203.0.0.1"));
  }
  EXPECT_LE(cache.size(), 64U);
  EXPECT_GE(cache.size(), 8U);  // every shard retains its recent entries
  EXPECT_EQ(cache.registry().counter_total("eum_cache_insertions_total"), 1000U);
  EXPECT_EQ(cache.registry().counter_total("eum_cache_evictions_total"), 1000U - cache.size());
}

TEST(ScopedCache, ClearDropsEntriesButKeepsCounters) {
  ScopedEcsCache cache{ScopedCacheConfig{}};
  cache.store(key_for("a.example"), entry_for("203.0.0.1"));
  (void)cache.lookup(key_for("a.example"), v4("10.0.0.1"), util::SimTime{1});
  cache.clear();
  EXPECT_EQ(cache.size(), 0U);
  EXPECT_EQ(cache.key_count(), 0U);
  EXPECT_EQ(cache.registry().counter_total("eum_cache_hits_total"), 1U);
  cache.registry().reset();
  EXPECT_EQ(cache.registry().counter_total("eum_cache_hits_total"), 0U);
}

TEST(ScopedCache, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ((ScopedEcsCache{ScopedCacheConfig{1024, 3}}.shard_count()), 4U);
  EXPECT_EQ((ScopedEcsCache{ScopedCacheConfig{1024, 8}}.shard_count()), 8U);
  EXPECT_EQ((ScopedEcsCache{ScopedCacheConfig{1024, 0}}.shard_count()), 1U);
}

TEST(ScopedCache, ConcurrentStoreAndLookupStaysConsistent) {
  // Hammer the cache from several threads; run under TSan via
  // scripts/tsan_check.sh. Every hit must return a self-consistent entry
  // (the answer encodes the scope it was stored under).
  ScopedEcsCache cache{ScopedCacheConfig{512, 4}};
  constexpr int kThreads = 4;
  constexpr int kOps = 3000;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        const int block = (t * 7 + i) % 32;
        const std::string scope = "10.0." + std::to_string(block) + ".0/24";
        const std::string answer = "203.0." + std::to_string(block) + ".1";
        const auto key = key_for("h" + std::to_string(i % 8) + ".example");
        if (i % 3 == 0) {
          cache.store(key, entry_for(answer.c_str(), scope.c_str()));
        } else {
          const net::IpAddr client = v4(("10.0." + std::to_string(block) + ".9").c_str());
          if (const auto hit = cache.lookup(key, client, util::SimTime{1})) {
            if (hit->scope && !hit->scope->contains(client)) ++bad;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bad.load(std::memory_order_relaxed), 0U);
  // Conservation: every inserted entry is still cached, was evicted, or
  // expired (replacements refresh in place and count separately).
  const obs::MetricsRegistry& registry = cache.registry();
  EXPECT_EQ(registry.counter_total("eum_cache_insertions_total"),
            registry.counter_total("eum_cache_evictions_total") +
                registry.counter_total("eum_cache_expirations_total") + cache.size());
}

}  // namespace
}  // namespace eum::dnsserver
