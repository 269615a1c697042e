// ECS-aware recursive resolver (the paper's LDNS).
//
// The LDNS sits between clients and the CDN's authoritative name servers
// (paper §2, Figure 3/4). With end-user mapping it forwards a /x prefix
// of the client's IP in an EDNS0 client-subnet option and must cache the
// answer per scope block — which is precisely what multiplies the query
// rate seen by the authorities (§5.2, Figures 23/24). The cache is the
// sharded RFC 7871 §7.3 scoped cache in scoped_cache.h: lookups key on
// the ECS address (the forwarded client subnet when present, per
// §7.1.1 — never the bare connection address), prefer the longest
// matching scope, and evict per-shard LRU under pressure.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dns/message.h"
#include "dnsserver/authoritative.h"
#include "dnsserver/scoped_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/table.h"
#include "util/rng.h"
#include "util/sim_clock.h"

namespace eum::dnsserver {

/// Where the resolver forwards cache misses. Implementations route the
/// query to the correct authority (in-memory bus, UDP, or the simulator).
/// Failure is explicit: a missing response means the query or its
/// response was lost (drop, timeout, unparseable wire) and the attempt is
/// retryable.
class Upstream {
 public:
  virtual ~Upstream() = default;

  /// Forward `query` on behalf of resolver `source`; nullopt = the
  /// attempt failed (dropped or timed out) and may be retried.
  [[nodiscard]] virtual std::optional<dns::Message> try_forward(const dns::Message& query,
                                                                const net::IpAddr& source) = 0;

  struct ForwardToResult {
    /// nullopt with `addressable` = the attempt failed (retryable).
    std::optional<dns::Message> response;
    /// false: the transport has no route to this nameserver at all — the
    /// resolver keeps the referral instead of retrying.
    bool addressable = true;
  };

  /// Forward `query` to a specific nameserver address (used to chase
  /// delegations); see ForwardToResult for the distinction between a
  /// lost query and an unaddressable server.
  [[nodiscard]] virtual ForwardToResult try_forward_to(const net::IpAddr& server,
                                                       const dns::Message& query,
                                                       const net::IpAddr& source) = 0;
};

/// Upstream retry policy: `attempts` bounds the queries sent per
/// resolution round (first try included), with exponential backoff and
/// uniform jitter between attempts against the same server. Failing over
/// to a *different* nameserver (delegation chasing) is immediate.
struct RetryPolicy {
  int attempts = 3;
  std::chrono::microseconds backoff_initial{2000};
  double backoff_multiplier = 2.0;
  std::chrono::microseconds backoff_max{200000};
  /// Jitter fraction: each sleep is drawn uniformly from
  /// [backoff*(1-jitter), backoff*(1+jitter)] so synchronized resolvers
  /// don't re-stampede a recovering authority in lockstep.
  double jitter = 0.5;
};

struct ResolverConfig {
  /// Send ECS upstream (public resolvers: yes; most ISP resolvers in the
  /// paper's period: no).
  bool ecs_enabled = false;
  /// Source prefix length announced upstream; /24 is the norm the paper
  /// describes, and longer prefixes are "discouraged to retain client's
  /// privacy" (§2.1 footnote 4).
  int ecs_source_len = 24;
  int ecs_source_len_v6 = 56;
  /// Clamp on cached TTLs, seconds.
  std::uint32_t max_ttl = 86400;
  /// TTL for cached negative answers, seconds.
  std::uint32_t negative_ttl = 30;
  /// Cache capacity in entries (scoped answers count individually).
  std::size_t max_cache_entries = 1 << 20;
  /// Independently-locked cache shards (rounded up to a power of two).
  std::size_t cache_shards = 8;
  /// Registry for eum_resolver_* metrics (borrowed; must outlive the
  /// resolver). The scoped cache shares it. nullptr = private registry.
  obs::MetricsRegistry* registry = nullptr;
  /// Retry/backoff policy for upstream attempts.
  RetryPolicy retry;
  /// RFC 8767 serve-stale: how long past expiry a cached answer may
  /// still be served when every upstream attempt fails, seconds. 0
  /// disables serve-stale entirely (expired entries are reaped on
  /// sight, the pre-existing behaviour).
  std::int64_t serve_stale_window = 0;
  /// TTL stamped on answers served stale (RFC 8767 §4 recommends 30s so
  /// clients re-ask soon after the authority recovers).
  std::uint32_t stale_answer_ttl = 30;
  /// Seed for retry backoff jitter (deterministic per resolver).
  std::uint64_t retry_seed = 0x5EED4E7;
};

/// Counter snapshot — a thin view over the resolver's registry counters
/// merged with the cache's.
struct ResolverStats {
  std::uint64_t client_queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t upstream_queries = 0;
  std::uint64_t referrals_followed = 0;
  std::uint64_t retries = 0;             ///< upstream attempts beyond the first
  std::uint64_t upstream_failures = 0;   ///< attempts lost/unusable
  std::uint64_t stale_served = 0;        ///< RFC 8767 answers from expired entries
  std::uint64_t cache_evictions = 0;     ///< LRU pressure evictions
  std::uint64_t cache_expirations = 0;   ///< TTL-expired entries reaped
  std::uint64_t scoped_hits = 0;         ///< hits served by a scoped entry
  std::uint64_t scope_depth_total = 0;   ///< sum of matched scope lengths
  /// Mean matched scope length over scoped hits (0 when none).
  [[nodiscard]] double mean_scope_depth() const noexcept {
    return scoped_hits == 0 ? 0.0
                            : static_cast<double>(scope_depth_total) /
                                  static_cast<double>(scoped_hits);
  }
};

/// Render resolver counters as a two-column table for benches/examples.
[[nodiscard]] stats::Table resolver_stats_table(const ResolverStats& stats);

class RecursiveResolver {
 public:
  /// `clock` and `upstream` are borrowed and must outlive the resolver.
  RecursiveResolver(ResolverConfig config, const util::SimClock* clock, Upstream* upstream,
                    net::IpAddr own_address);

  /// Resolve a client query arriving from `client_addr`. Serves from the
  /// scoped cache when possible; otherwise queries upstream (attaching ECS
  /// when enabled), chasing CNAMEs across authorities.
  [[nodiscard]] dns::Message resolve(const dns::Message& client_query,
                                     const net::IpAddr& client_addr);

  /// Counter snapshot (resolver counters merged with the cache's own).
  [[nodiscard]] ResolverStats stats() const noexcept;

  /// Reset contract (shared with the authority and UDP front end): zero
  /// every monotonic metric stats() reports — the resolver's counters,
  /// its resolve-latency histogram, AND the cache's merged counters —
  /// in one call. Live state (cached entries, entry gauges) survives.
  void reset_stats() noexcept;

  /// The registry this resolver (and its cache) records into.
  [[nodiscard]] obs::MetricsRegistry& registry() noexcept { return *registry_; }

  [[nodiscard]] std::size_t cache_size() const noexcept { return cache_.size(); }
  [[nodiscard]] const ScopedEcsCache& cache() const noexcept { return cache_; }
  [[nodiscard]] const net::IpAddr& address() const noexcept { return own_address_; }
  [[nodiscard]] const ResolverConfig& config() const noexcept { return config_; }

  /// Smoothed RTT estimate for a delegated nameserver, microseconds;
  /// 0 when the server has never been tried.
  [[nodiscard]] double srtt_us(const net::IpAddr& server) const;

  /// Hook invoked with the qname of every upstream query (Fig 24 analysis).
  std::function<void(const dns::DnsName&)> on_upstream_query;

  /// Drop every cached entry.
  void flush_cache() noexcept { cache_.clear(); }

 private:
  /// Per-nameserver smoothed RTT (TCP-style EWMA, alpha = 1/8) plus its
  /// exported gauge. A failed attempt doubles the estimate so the next
  /// ordering prefers live siblings; an untried server keeps SRTT 0 and
  /// therefore sorts first (explore before exploit).
  struct SrttEntry {
    double srtt_us = 0.0;
    obs::Gauge* gauge = nullptr;
  };

  /// One upstream round for (name, type), with optional ECS. Returns the
  /// response and caches it; on total upstream failure falls back to a
  /// stale cache entry (`served_stale` reports that) or SERVFAIL.
  [[nodiscard]] dns::Message query_upstream(const dns::DnsName& name, dns::RecordType type,
                                            const std::optional<net::IpAddr>& ecs_client,
                                            const net::IpAddr& lookup_addr, bool& served_stale);
  [[nodiscard]] dns::Message resolve_inner(const dns::Message& client_query,
                                           const net::IpAddr& client_addr,
                                           obs::AnswerSource& answer_source);

  /// try_forward() with the retry policy applied; nullopt = every attempt
  /// failed. `retried` is set when any attempt beyond the first ran.
  [[nodiscard]] std::optional<dns::Message> forward_with_retries(dns::Message& query,
                                                                 const dns::DnsName& name,
                                                                 bool& retried);
  /// try_forward_to() over the glue candidates in SRTT order, immediate
  /// failover across servers, backoff when re-trying the same one.
  /// `unaddressable` = the transport could route to none of them (the
  /// caller keeps the referral).
  [[nodiscard]] std::optional<dns::Message> forward_to_with_retries(
      std::vector<net::IpAddr> candidates, dns::Message& query, const dns::DnsName& name,
      bool& retried, bool& unaddressable);

  /// Whether a response can be trusted for this query: the ID must echo
  /// (corrupt/spoofed wire fails here), TC=1 and SERVFAIL are retryable.
  [[nodiscard]] static bool response_usable(const dns::Message& query,
                                            const dns::Message& response) noexcept;

  [[nodiscard]] std::uint16_t next_query_id() noexcept {
    // uint16 wrap is intended: ID 0 is legal and issued once per 65536.
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void backoff_sleep(int round);
  void record_srtt(const net::IpAddr& server, double sample_us, bool success);
  [[nodiscard]] std::vector<net::IpAddr> order_by_srtt(std::vector<net::IpAddr> candidates) const;

  ResolverConfig config_;
  const util::SimClock* clock_;
  Upstream* upstream_;
  net::IpAddr own_address_;
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;  ///< when none injected
  obs::MetricsRegistry* registry_;
  obs::Counter* client_queries_;
  obs::Counter* upstream_queries_;
  obs::Counter* referrals_followed_;
  obs::Counter* retries_;
  obs::Counter* upstream_failures_;
  obs::Counter* stale_served_;
  obs::LatencyHistogram* resolve_latency_;
  obs::LatencyHistogram* retry_latency_;
  ScopedEcsCache cache_;
  std::atomic<std::uint16_t> next_id_{1};
  mutable std::mutex srtt_mutex_;
  std::unordered_map<std::string, SrttEntry> srtt_;
  std::mutex rng_mutex_;
  util::Rng rng_;
};

}  // namespace eum::dnsserver
