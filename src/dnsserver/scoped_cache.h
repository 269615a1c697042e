// Sharded, LRU-evicting, RFC 7871-scoped resolver cache.
//
// This is the LDNS cache the paper's query-rate analysis hinges on
// (§5.2-5.3): with end-user mapping every /x client block gets its own
// scoped answer, so the cache must (a) key lookups by the *ECS address*
// of the query, (b) honour scope containment, and (c) when several
// cached scopes cover one client, return the **longest matching scope**
// (RFC 7871 §7.3.1's most-specific-match rule) — a /0 or non-ECS answer
// is merely the fallback of last resort, never a shadow over a
// finer-grained entry.
//
// The cache is split into independently-lockable shards (key-hashed) so
// a multithreaded front end scales without a global lock, and each shard
// runs an intrusive LRU so a full cache evicts the coldest entries one
// at a time instead of dumping all state.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dns/message.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/sim_clock.h"

namespace eum::dnsserver {

struct ScopedCacheConfig {
  /// Total capacity in entries across all shards (scoped answers count
  /// individually, exactly as they multiply authority load in Fig. 23).
  std::size_t max_entries = 1 << 20;
  /// Number of independently-locked shards; rounded up to a power of two.
  std::size_t shards = 8;
  /// Registry the cache records into (borrowed; must outlive the cache).
  /// nullptr gives the cache a private registry. Counters are registered
  /// per shard (eum_cache_*{shard="N"}) so each shard bumps its own
  /// cache line and a hot shard stays attributable;
  /// MetricsRegistry::counter_total sums them.
  obs::MetricsRegistry* registry = nullptr;
  /// RFC 8767 serve-stale retention window, seconds. Expired entries are
  /// kept (invisible to lookup(), reachable via lookup_stale()) until
  /// `expires + stale_window`, after which they are reaped as before.
  /// 0 disables retention: expired entries are reaped on sight.
  std::int64_t stale_window = 0;
};

class ScopedEcsCache {
 public:
  struct Key {
    dns::DnsName name;
    dns::RecordType type = dns::RecordType::A;
    bool operator==(const Key&) const noexcept = default;
  };

  struct Entry {
    /// Scope the answer is valid for; nullopt = valid for every client
    /// (non-ECS answer or scope /0).
    std::optional<net::IpPrefix> scope;
    std::vector<dns::ResourceRecord> answers;
    dns::Rcode rcode = dns::Rcode::no_error;
    util::SimTime inserted;
    util::SimTime expires;
  };

  explicit ScopedEcsCache(ScopedCacheConfig config);

  /// Longest-scope-match lookup for `client` at time `now`. Expired
  /// entries under the key are reaped in passing (entries still inside
  /// the stale window are retained but never returned here); a hit is
  /// promoted to the front of its shard's LRU. Returns a copy so the
  /// entry stays valid regardless of concurrent eviction.
  [[nodiscard]] std::optional<Entry> lookup(const Key& key, const net::IpAddr& client,
                                            util::SimTime now);

  /// RFC 8767 last-resort lookup: the longest-scope match for `client`
  /// among entries still inside the stale window — expired or not — so a
  /// resolver whose every upstream attempt failed can degrade gracefully
  /// instead of answering SERVFAIL. Returns nullopt when the window is 0
  /// or nothing under the key covers the client.
  [[nodiscard]] std::optional<Entry> lookup_stale(const Key& key, const net::IpAddr& client,
                                                  util::SimTime now);

  /// Insert `entry`; an existing entry with the identical scope is
  /// replaced in place. When the shard is at capacity the least recently
  /// used entries are evicted (never a wholesale flush).
  void store(const Key& key, Entry entry);

  /// Live entries across all shards.
  [[nodiscard]] std::size_t size() const;
  /// Distinct (name, type) keys across all shards — stays bounded: a key
  /// whose last entry expires or is evicted is erased, not left behind
  /// as an empty bucket.
  [[nodiscard]] std::size_t key_count() const;

  /// Drop every cached entry (counters unaffected; entry gauges go to 0).
  void clear();

  [[nodiscard]] std::size_t shard_count() const noexcept { return shard_count_; }

  /// The registry this cache records into (its own unless one was injected).
  [[nodiscard]] obs::MetricsRegistry& registry() const noexcept { return *registry_; }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      return util::hash_combine(dns::DnsNameHash{}(key.name),
                                static_cast<std::uint64_t>(key.type));
    }
  };
  struct Node {
    Key key;
    Entry entry;
  };
  using NodeList = std::list<Node>;
  /// Per-shard registry counter handles: the shard bumps these while
  /// holding its own lock, so the relaxed adds never contend across
  /// shards the way one shared counter would.
  struct ShardMetrics {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* insertions = nullptr;
    obs::Counter* replacements = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* expirations = nullptr;
    obs::Counter* scoped_hits = nullptr;
    obs::Counter* scope_depth_total = nullptr;
    obs::Gauge* entries_gauge = nullptr;
  };
  struct Shard {
    mutable std::mutex mutex;
    /// front = most recently used.
    NodeList lru;
    std::unordered_map<Key, std::vector<NodeList::iterator>, KeyHash> index;
    std::size_t entries = 0;
    ShardMetrics metrics;
  };

  [[nodiscard]] Shard& shard_for(const Key& key) const noexcept;
  /// Remove `node` from its shard (list + index, reaping empty keys).
  /// Caller holds the shard lock.
  static void unlink(Shard& shard, NodeList::iterator node);

  std::unique_ptr<obs::MetricsRegistry> owned_registry_;  ///< when none injected
  obs::MetricsRegistry* registry_;
  std::size_t shard_count_;
  std::size_t shard_mask_;
  std::size_t per_shard_capacity_;
  std::int64_t stale_window_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace eum::dnsserver
