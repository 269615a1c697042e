// The mapping system: the paper's central contribution.
//
// Implements the time-varying functions of Equations 1 and 2:
//
//   MAP_t  : Σ_internet x Σ_cdn x Domain x LDNS   -> IPs   (NS-based)
//   EUMAP_t: Σ_internet x Σ_cdn x Domain x Client -> IPs   (end-user)
//
// plus the client-aware NS hybrid of §6. Σ_internet is the World +
// latency model; Σ_cdn is the CdnNetwork with liveness/load. The facade
// wires scoring and the two load-balancing levels together and exposes a
// DynamicAnswerFn so an AuthoritativeServer can serve it over DNS: with
// an ECS option present (and end-user mapping enabled) the client block
// decides the answer; otherwise the resolver address does.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "cdn/load_balancer.h"
#include "cdn/network.h"
#include "cdn/ping_mesh.h"
#include "cdn/scoring.h"
#include "dnsserver/authoritative.h"
#include "dnsserver/transport.h"
#include "topo/latency.h"
#include "topo/world.h"

namespace eum::cdn {

enum class MappingPolicy : std::uint8_t {
  ns_based,         ///< map by the LDNS's own location (Equation 1)
  end_user,         ///< map by the client /24 block via ECS (Equation 2)
  client_aware_ns,  ///< map by the LDNS's client cluster (§6 CANS)
};

struct MappingConfig {
  MappingPolicy policy = MappingPolicy::end_user;
  /// ECS scope returned on dynamic answers (ablation knob; /24 mirrors
  /// query granularity, shorter scopes trade accuracy for cacheability).
  int ecs_scope_len = 24;
  /// TTL of dynamic answers, seconds. CDN mapping TTLs are short so the
  /// system can steer traffic quickly (tens of seconds in production).
  std::uint32_t answer_ttl = 20;
  std::size_t servers_per_answer = 2;  ///< at most kMaxServersPerAnswer
  std::size_t scoring_top_k = 8;
  /// Scoring function for this mapping system's traffic (§2.2).
  TrafficClass traffic_class = TrafficClass::web;
  /// Precompute per-LDNS cluster candidate lists (CANS, §6). The
  /// aggregation is O(deployments x block-LDNS associations) — the
  /// dominant startup cost at millions of blocks — so paper-scale runs
  /// that never use client_aware_ns mapping disable it; cluster lookups
  /// then fall back to the LDNS's own ping-target list.
  bool precompute_cluster_scores = true;
  /// Also offer the chosen servers' IPv6 aliases, so AAAA questions are
  /// answerable (the ECS wire format is family-agnostic either way).
  bool serve_ipv6 = true;
  GlobalLbConfig global_lb;
};

/// The most servers one answer may name (MappingConfig::servers_per_answer
/// is checked against it at construction). Inline storage for this many
/// keeps a mapping decision free of heap allocations, and with each
/// server's IPv6 alias the dual-stack answer still fits DynamicAnswer's
/// inline addresses.
inline constexpr std::size_t kMaxServersPerAnswer = 4;
static_assert(2 * kMaxServersPerAnswer <= dnsserver::DynamicAnswer::kInlineAddresses);

struct MapResult {
  DeploymentId deployment = 0;
  util::SmallVector<net::IpAddr, kMaxServersPerAnswer> servers;
  float expected_rtt_ms = 0.0F;  ///< mesh RTT from the chosen cluster to the unit
};

/// A thread-safe replacement for the mapping hot path. When installed
/// (control::MapMaker::install_fast_path), every map() / DNS-handler
/// decision is resolved against an immutable published map snapshot
/// instead of this object's mutable scoring/LB state, so UDP workers
/// serve lock-free while the control plane rebuilds in the background.
using FastMapFn = std::function<std::optional<MapResult>(
    topo::LdnsId, std::optional<topo::BlockId>, std::string_view domain, double load_units)>;

/// Per-LDNS end-user gate (control::RolloutController): returning false
/// answers the resolver's clients NS-based even when ECS is present —
/// the paper's staged roll-out on the live DNS path.
using EndUserGateFn = std::function<bool(topo::LdnsId)>;

class MappingSystem {
 public:
  /// `world`, `network` and `latency` are borrowed and must outlive the
  /// mapping system. Builds the ping mesh and scoring tables up front
  /// (the paper's periodic topology-discovery/scoring cycle). Throws
  /// std::invalid_argument when servers_per_answer exceeds
  /// kMaxServersPerAnswer.
  MappingSystem(const topo::World* world, CdnNetwork* network,
                const topo::LatencyModel* latency, MappingConfig config);

  /// NS-based mapping for the given LDNS.
  [[nodiscard]] std::optional<MapResult> map_ldns(topo::LdnsId ldns, std::string_view domain,
                                                  double load_units = 0.0);

  /// End-user mapping for the given client block.
  [[nodiscard]] std::optional<MapResult> map_block(topo::BlockId block, std::string_view domain,
                                                   double load_units = 0.0);

  /// Client-aware NS mapping for the given LDNS's client cluster.
  [[nodiscard]] std::optional<MapResult> map_cluster(topo::LdnsId ldns, std::string_view domain,
                                                     double load_units = 0.0);

  /// Policy-dispatching entry: uses the configured policy, falling back to
  /// NS-based when end-user mapping lacks a client block.
  [[nodiscard]] std::optional<MapResult> map(topo::LdnsId ldns,
                                             std::optional<topo::BlockId> client_block,
                                             std::string_view domain, double load_units = 0.0);

  /// Adapter for AuthoritativeServer::add_dynamic_domain: resolves the
  /// querying LDNS by address and the client block by ECS prefix.
  [[nodiscard]] dnsserver::DynamicAnswerFn dns_handler();

  // --- two-tier name server hierarchy (paper §2.2 part 3) ---------------
  //
  // "The authority for [an Akamai] domain is in turn delegated to an
  // Akamai name server that is typically located in an Akamai cluster
  // that is close to the client's LDNS. This delegation step implements
  // the global load balancer choice of cluster... Finally, the delegated
  // name server returns 'A' records for two or more server IPs,
  // implementing the choices made by the local load balancer."

  /// The unicast address of a cluster's in-cluster nameserver (the last
  /// host of its server /24).
  [[nodiscard]] net::IpAddr cluster_ns_address(DeploymentId deployment) const;

  /// Top-level handler: answers every query with a referral to the
  /// nameserver of the globally-load-balanced cluster (ECS-aware: the
  /// client block steers the delegation under the end_user policy).
  /// `suffix` names the delegated zone's nameservers (ns<k>.<suffix>).
  [[nodiscard]] dnsserver::DynamicAnswerFn top_level_handler(const dns::DnsName& suffix);

  /// Low-level handler: the cluster identified by the queried server
  /// address answers with its own servers (local load balancing only).
  [[nodiscard]] dnsserver::DynamicAnswerFn cluster_ns_handler();

  /// Wire the full hierarchy into a directory: `top` becomes the
  /// suffix's delegating authority; `low` answers at every cluster's
  /// nameserver address.
  void install_two_tier(dnsserver::AuthorityDirectory& directory,
                        dnsserver::AuthoritativeServer& top,
                        dnsserver::AuthoritativeServer& low, const dns::DnsName& suffix);

  [[nodiscard]] const PingMesh& mesh() const noexcept { return mesh_; }
  [[nodiscard]] const Scoring& scoring() const noexcept { return *scoring_; }
  /// The same tables, shared: each control::MapSnapshot serves its CANS
  /// lists and LDNS fallback targets from them instead of scoring again.
  [[nodiscard]] std::shared_ptr<const Scoring> shared_scoring() const noexcept {
    return scoring_;
  }
  [[nodiscard]] const MappingConfig& config() const noexcept { return config_; }
  [[nodiscard]] CdnNetwork& network() noexcept { return *network_; }
  [[nodiscard]] const CdnNetwork& network() const noexcept { return *network_; }
  [[nodiscard]] const topo::World& world() const noexcept { return *world_; }

  /// Re-run scoring after liveness/topology changes (the paper's periodic
  /// refresh; load state is preserved). Synchronous and unsafe against
  /// concurrent map() calls — the control plane's MapMaker is the
  /// serving-safe replacement. Snapshots keep the tables they shared.
  void rescore();

  // --- control-plane hooks (src/control) --------------------------------

  /// Install (or clear, with nullptr) the snapshot-reading fast path.
  /// Setup-time only: install before serving threads start.
  void set_fast_path(FastMapFn fast_path) { fast_path_ = std::move(fast_path); }

  /// Install (or clear) the per-LDNS end-user gate. Setup-time only; the
  /// gate itself must be safe to call from serving threads.
  void set_end_user_gate(EndUserGateFn gate) { end_user_gate_ = std::move(gate); }

  /// Is end-user mapping active for this resolver right now (policy says
  /// end_user and the roll-out gate, if any, has flipped it on)?
  [[nodiscard]] bool end_user_active(topo::LdnsId ldns) const {
    return config_.policy == MappingPolicy::end_user &&
           (!end_user_gate_ || end_user_gate_(ldns));
  }

 private:
  [[nodiscard]] std::optional<MapResult> finish(std::optional<DeploymentId> deployment,
                                                topo::PingTargetId unit_target,
                                                std::string_view domain, double load_units);

  const topo::World* world_;
  CdnNetwork* network_;
  const topo::LatencyModel* latency_;
  MappingConfig config_;
  PingMesh mesh_;
  std::shared_ptr<const Scoring> scoring_;
  std::unique_ptr<GlobalLoadBalancer> global_lb_;
  LocalLoadBalancer local_lb_;
  FastMapFn fast_path_;
  EndUserGateFn end_user_gate_;
};

}  // namespace eum::cdn
