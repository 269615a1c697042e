// Authoritative name server engine.
//
// This is the paper's "name server" component (§2.2, part 3): it answers
// queries for Akamai-hosted domains, and for dynamic (CDN) domains it
// consults the mapping system with either the resolver identity (NS-based
// mapping) or the ECS client block (end-user mapping), returning A records
// and an ECS scope. The engine is transport-agnostic: `handle()` maps one
// request message to one response message.
//
// Telemetry lives in an obs::MetricsRegistry (eum_authority_* counters
// plus the eum_authority_handle_latency_us histogram); pass one in to
// share it across components — the default is a private registry. The
// AuthServerStats struct remains as a thin snapshot view over the
// registry so existing callers keep working.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dns/message.h"
#include "dnsserver/zone.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/small_vector.h"

namespace eum::dnsserver {

/// What the dynamic-answer hook (the mapping system) sees per query.
struct DynamicQuery {
  dns::DnsName qname;
  dns::RecordType qtype = dns::RecordType::A;
  net::IpAddr resolver;                  ///< unicast address of the querying LDNS
  std::optional<net::IpPrefix> client_block;  ///< ECS source block, if present
  /// The address this query arrived at. In the paper's two-tier name
  /// server hierarchy a low-level server's own address identifies which
  /// cluster's delegation it is answering for.
  net::IpAddr server_address;
};

/// One entry of a dynamic referral: a delegated nameserver plus its glue.
struct DynamicReferral {
  dns::DnsName nameserver;
  net::IpAddr glue;
};

/// What the hook returns.
struct DynamicAnswer {
  /// Addresses held inline: a mapping answer's servers under both
  /// families. Longer lists spill to the heap.
  static constexpr std::size_t kInlineAddresses = 8;
  util::SmallVector<net::IpAddr, kInlineAddresses> addresses;  ///< >= 2 in production practice
  std::uint32_t ttl = 20;
  /// Scope the answer is valid for when the query carried ECS. The paper's
  /// name servers may answer "for a /y prefix of the client's IP where
  /// y <= x" (§2.1); /0 makes the answer client-independent.
  int ecs_scope_len = 24;
  /// When non-empty, the response is a referral instead of an answer:
  /// NS records (owner = the dynamic suffix) plus A glue — the paper's
  /// top-level delegation implementing the global load balancer's cluster
  /// choice (§2.2 part 3).
  std::vector<DynamicReferral> referral;
};

using DynamicAnswerFn = std::function<std::optional<DynamicAnswer>(const DynamicQuery&)>;

/// Query counter snapshot (feeds the Figure 23 analysis). A thin view
/// over the engine's registry counters.
struct AuthServerStats {
  std::uint64_t queries = 0;
  std::uint64_t queries_with_ecs = 0;
  std::uint64_t dynamic_answers = 0;
  std::uint64_t referrals = 0;
  std::uint64_t static_answers = 0;
  std::uint64_t negative_answers = 0;
  std::uint64_t refused = 0;
  std::uint64_t form_errors = 0;
};

class AuthoritativeServer {
 public:
  /// `registry` is borrowed and must outlive the server; nullptr gives
  /// the engine a private registry (reachable via registry()).
  explicit AuthoritativeServer(obs::MetricsRegistry* registry = nullptr);

  /// Register static zone data.
  void add_zone(Zone zone);

  /// Register a dynamic domain: queries for names at/below `suffix` are
  /// answered by `handler`. Dynamic domains take precedence over zones.
  void add_dynamic_domain(dns::DnsName suffix, DynamicAnswerFn handler);

  /// Whether to honour ECS in queries (mirrors the staged roll-out: the
  /// server accepted ECS before end-user mapping was enabled per domain).
  void set_ecs_enabled(bool enabled) noexcept { ecs_enabled_ = enabled; }

  /// Record per-query serving latency into the handle-latency histogram
  /// (on by default). The microbench measures the instrumented vs.
  /// uninstrumented delta; counters stay on either way — they are single
  /// relaxed atomics.
  void set_latency_tracking(bool enabled) noexcept { latency_tracking_ = enabled; }

  /// Time one in every `every` queries for the latency histogram (the
  /// first query is always timed). handle() itself is only a few hundred
  /// nanoseconds, so reading the clock twice per query would dominate the
  /// instrumentation cost; sampling keeps the steady-state overhead below
  /// a branch and one relaxed load (the tick is the queries counter the
  /// engine already bumps) while the percentiles stay faithful at
  /// serving volume. Rounded up to a power of two. Flight-recorder
  /// records carry the tracer's own latency, unaffected by this setting.
  void set_latency_sampling(std::uint32_t every) noexcept {
    std::uint32_t pow2 = 1;
    while (pow2 < every && pow2 < (1u << 30)) pow2 <<= 1;
    latency_sample_mask_ = pow2 - 1;
  }

  static constexpr std::uint32_t kDefaultLatencySampleEvery = 16;

  /// The registry this engine records into (its own unless one was
  /// injected). Exposition formats hang off the registry.
  [[nodiscard]] obs::MetricsRegistry& registry() noexcept { return *registry_; }

  /// Answer one query arriving from `source` (the LDNS unicast address).
  /// `server_address` is the address the query was received on (passed to
  /// dynamic handlers; defaults to unspecified). Safe to call from many
  /// threads concurrently provided registration (add_zone /
  /// add_dynamic_domain / set_ecs_enabled) has finished and the dynamic
  /// handlers themselves are thread-safe — counters and histograms are
  /// wait-free relaxed atomics so the multithreaded UDP front end stays
  /// race-free.
  [[nodiscard]] dns::Message handle(const dns::Message& query, const net::IpAddr& source,
                                    const net::IpAddr& server_address = net::IpAddr{});

  /// handle() into `response` (not `query` itself), reusing its
  /// containers' capacity: with a warm `response` and a dynamic domain
  /// whose handler does not allocate, answering allocates nothing (the
  /// UDP worker's form).
  void handle_into(const dns::Message& query, const net::IpAddr& source, dns::Message& response,
                   const net::IpAddr& server_address = net::IpAddr{});

  [[nodiscard]] AuthServerStats stats() const noexcept;

  /// Reset contract (shared with the resolver and UDP front end): zero
  /// every monotonic metric this component's stats() view reports —
  /// counters and the handle-latency histogram — and nothing else.
  void reset_stats() noexcept;

 private:
  void handle_inner(const dns::Message& query, const net::IpAddr& source,
                    const net::IpAddr& server_address, dns::Message& response,
                    obs::AnswerSource& answer_source);
  [[nodiscard]] const Zone* zone_for(const dns::DnsName& name) const noexcept;
  [[nodiscard]] std::pair<const dns::DnsName*, const DynamicAnswerFn*> dynamic_for(
      const dns::DnsName& name) const noexcept;

  std::vector<Zone> zones_;
  std::vector<std::pair<dns::DnsName, DynamicAnswerFn>> dynamic_domains_;
  bool ecs_enabled_ = true;
  bool latency_tracking_ = true;

  std::unique_ptr<obs::MetricsRegistry> owned_registry_;  ///< when none injected
  obs::MetricsRegistry* registry_;
  obs::Counter* queries_;
  obs::Counter* queries_with_ecs_;
  obs::Counter* dynamic_answers_;
  obs::Counter* referrals_;
  obs::Counter* static_answers_;
  obs::Counter* negative_answers_;
  obs::Counter* refused_;
  obs::Counter* form_errors_;
  obs::LatencyHistogram* handle_latency_;
  std::uint32_t latency_sample_mask_ = kDefaultLatencySampleEvery - 1;
};

}  // namespace eum::dnsserver
