// The mapping system: the paper's central contribution.
//
// Implements the time-varying functions of Equations 1 and 2:
//
//   MAP_t  : Σ_internet x Σ_cdn x Domain x LDNS   -> IPs   (NS-based)
//   EUMAP_t: Σ_internet x Σ_cdn x Domain x Client -> IPs   (end-user)
//
// plus the client-aware NS hybrid of §6. Σ_internet is the World +
// latency model; Σ_cdn is the CdnNetwork with its liveness. The facade
// measures the ping mesh, partitions the ping targets into mapping units
// and owns the published MapSnapshot: every decision — scoring, then
// global and local load balancing — is a pure read of the current
// snapshot plus a charge to the shared LoadLedger. rescore() (or a
// control::MapMaker driving this system) publishes the next snapshot
// after liveness changes. A DynamicAnswerFn serves the decisions over
// DNS: with an ECS option present (and end-user mapping enabled) the
// client block decides the answer; otherwise the resolver address does.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "cdn/network.h"
#include "cdn/ping_mesh.h"
#include "cdn/scoring.h"
#include "dnsserver/authoritative.h"
#include "dnsserver/transport.h"
#include "lockfree/atomics_policy.h"
#include "lockfree/versioned_rcu.h"
#include "topo/latency.h"
#include "topo/world.h"
#include "util/sim_clock.h"

namespace eum::cdn {

class LoadLedger;
class MapSnapshot;
class MappingUnits;

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
  /// then fall back to the unit list of the LDNS's own ping target.
  bool precompute_cluster_scores = true;
  /// Also offer the chosen servers' IPv6 aliases, so AAAA questions are
  /// answerable (the ECS wire format is family-agnostic either way).
  bool serve_ipv6 = true;
};

/// The most servers one answer may name (MappingConfig::servers_per_answer
/// is checked against it at construction). Inline storage for this many
/// keeps a mapping decision free of heap allocations, and with each
/// server's IPv6 alias the dual-stack answer still fits DynamicAnswer's
/// inline addresses.
inline constexpr std::size_t kMaxServersPerAnswer = 4;
static_assert(2 * kMaxServersPerAnswer <= dnsserver::DynamicAnswer::kInlineAddresses);

/// The servers one answer names, held inline.
using ServerList = util::SmallVector<net::IpAddr, kMaxServersPerAnswer>;

struct MapResult {
  DeploymentId deployment = 0;
  ServerList servers;
  float expected_rtt_ms = 0.0F;  ///< mesh RTT from the chosen cluster to the unit
};

/// Per-LDNS end-user gate (control::RolloutController): returning false
/// answers the resolver's clients NS-based even when ECS is present —
/// the paper's staged roll-out on the live DNS path.
using EndUserGateFn = std::function<bool(topo::LdnsId)>;

class MappingSystem {
 public:
  /// Decides whether a rebuilt map is published: called with the new
  /// generation and the current one.
  using PublishIf = std::function<bool(const MapSnapshot& built, const MapSnapshot& current)>;

  /// `world`, `network` and `latency` are borrowed and must outlive the
  /// mapping system. Measures the ping mesh, partitions the targets into
  /// mapping units, ranks every unit's and CANS cluster's candidates
  /// (Scoring) and publishes map version 1 up front (the paper's
  /// topology-discovery/scoring cycle),
  /// so every map*() call and handler answers from a snapshot. Throws
  /// std::invalid_argument when servers_per_answer exceeds
  /// kMaxServersPerAnswer.
  MappingSystem(const topo::World* world, CdnNetwork* network,
                const topo::LatencyModel* latency, MappingConfig config);

  // The handlers capture `this`.
  MappingSystem(const MappingSystem&) = delete;
  MappingSystem& operator=(const MappingSystem&) = delete;

  // --- decisions: lock-free reads of the current snapshot ----------------
  //
  // `load_units` charges the chosen cluster in the shared LoadLedger;
  // a cluster whose ledger load would pass its capacity is skipped.

  /// NS-based mapping for the given LDNS.
  [[nodiscard]] std::optional<MapResult> map_ldns(topo::LdnsId ldns, std::string_view domain,
                                                  double load_units = 0.0) const;

  /// End-user mapping for the given client block.
  [[nodiscard]] std::optional<MapResult> map_block(topo::BlockId block, std::string_view domain,
                                                   double load_units = 0.0) const;

  /// Client-aware NS mapping for the given LDNS's client cluster.
  [[nodiscard]] std::optional<MapResult> map_cluster(topo::LdnsId ldns, std::string_view domain,
                                                     double load_units = 0.0) const;

  /// Policy-dispatching entry: uses the configured policy, falling back to
  /// NS-based when end-user mapping lacks a client block.
  [[nodiscard]] std::optional<MapResult> map(topo::LdnsId ldns,
                                             std::optional<topo::BlockId> client_block,
                                             std::string_view domain,
                                             double load_units = 0.0) const;

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
  /// address answers with its own servers (local load balancing only),
  /// as the current snapshot froze them.
  [[nodiscard]] dnsserver::DynamicAnswerFn cluster_ns_handler();

  /// Wire the full hierarchy into a directory: `top` becomes the
  /// suffix's delegating authority; `low` answers at every cluster's
  /// nameserver address.
  void install_two_tier(dnsserver::AuthorityDirectory& directory,
                        dnsserver::AuthoritativeServer& top,
                        dnsserver::AuthoritativeServer& low, const dns::DnsName& suffix);

  [[nodiscard]] const PingMesh& mesh() const noexcept { return mesh_; }
  /// The unit and CANS candidate tables every snapshot serves from,
  /// ranked once at construction.
  [[nodiscard]] const Scoring& scoring() const noexcept { return scoring_; }
  [[nodiscard]] const MappingConfig& config() const noexcept { return config_; }
  [[nodiscard]] CdnNetwork& network() noexcept { return *network_; }
  [[nodiscard]] const CdnNetwork& network() const noexcept { return *network_; }
  [[nodiscard]] const topo::World& world() const noexcept { return *world_; }

  // --- the published map ---------------------------------------------------

  /// The current map. Lock-free acquire load; the returned snapshot is
  /// immutable and stays valid for as long as the reference is held,
  /// however many republishes happen meanwhile.
  [[nodiscard]] std::shared_ptr<const MapSnapshot> snapshot() const {
    return published_.snapshot();
  }

  [[nodiscard]] std::uint64_t version() const noexcept { return published_.version(); }

  /// The version cell itself, for serve-path consumers that key caches
  /// on the published map generation (UdpServerConfig::map_version).
  /// Invalidation contract: a publish stores the snapshot pointer before
  /// the version (both release), so an acquire load that returns V
  /// guarantees snapshot() already serves generation >= V — an answer
  /// computed after that load can never be cached under a version newer
  /// than the map that produced it. The protocol lives in
  /// lockfree::VersionedRcu and is model-checked (mc/protocols.cpp).
  [[nodiscard]] const std::atomic<std::uint64_t>& version_cell() const noexcept {
    return published_.version_cell();
  }

  /// The per-cluster load ledger every generation charges (survives
  /// republishes).
  [[nodiscard]] LoadLedger& loads() noexcept { return *ledger_; }
  /// The unit partition the candidate lists are ranked over: latency-
  /// equivalent ping targets grouped exactly (epsilon 0).
  [[nodiscard]] const MappingUnits& units() const noexcept { return *units_; }

  /// Republish after liveness changes: freeze the network's current
  /// liveness as the next version and publish it. Safe beside serving
  /// threads (they keep answering from the generation they loaded).
  /// Rebuilds have one writer: the thread that changes liveness, which
  /// must not run another rebuild of this system (rescore() or a
  /// control::MapMaker's) at the same time.
  void rescore();

  /// One rebuild of the published map (single writer, as rescore()):
  /// build the next version from the network's current liveness — the
  /// cluster views only, O(clusters); the candidate lists were ranked
  /// once at construction — and publish it when `publish_if` returns
  /// true. Returns the current map afterwards.
  std::shared_ptr<const MapSnapshot> rebuild(util::SimTime built_at, const PublishIf& publish_if);

  // --- roll-out gate -------------------------------------------------------

  /// Install (or clear) the per-LDNS end-user gate. Setup-time only; the
  /// gate itself must be safe to call from serving threads. The gate is
  /// read per query but is not part of the map version, so a gate change
  /// (a roll-out step) reaches version-keyed caches — the UDP wire answer
  /// cache — only with the next publish: force one when the gate moves.
  void set_end_user_gate(EndUserGateFn gate) { end_user_gate_ = std::move(gate); }

  /// Is end-user mapping active for this resolver right now (policy says
  /// end_user and the roll-out gate, if any, has flipped it on)?
  [[nodiscard]] bool end_user_active(topo::LdnsId ldns) const {
    return config_.policy == MappingPolicy::end_user &&
           (!end_user_gate_ || end_user_gate_(ldns));
  }

  /// The client's part in one query's mapping decision.
  struct ClientScope {
    std::optional<topo::BlockId> block;  ///< the client /24 the answer maps by
    int ecs_scope_len = 0;               ///< the scope the answer announces
  };

  /// Which client block decides the answer to a query from `ldns` whose
  /// ECS option names `client` (nullopt: no ECS), and the scope that
  /// answer holds for (RFC 7871 §7.2.1). The block takes part only under
  /// end_user_active(ldns), and only for a v4 client whose /24 the world
  /// holds; the answer then announces the configured scope. /0 is kept
  /// for answers that ignore the client: no ECS, the gate closed, or a v6
  /// client (the world has no v6 blocks). A v4 client outside the world
  /// gets the resolver's answer at /24, the world's block granularity,
  /// because the same resolver's in-world clients get answers of their
  /// own. The serve path and control::DecisionExplainer both decide here.
  [[nodiscard]] ClientScope client_scope(topo::LdnsId ldns,
                                         const std::optional<net::IpAddr>& client) const;

 private:
  friend class MapSnapshot;  // a build takes the shared partition and ledger

  /// A DNS query's mapping inputs: the querying LDNS and its client_scope().
  struct QueryUnit {
    topo::LdnsId ldns = 0;
    ClientScope client;
  };
  [[nodiscard]] std::optional<QueryUnit> resolve(const dnsserver::DynamicQuery& query) const;

  const topo::World* world_;
  CdnNetwork* network_;
  MappingConfig config_;
  PingMesh mesh_;
  std::shared_ptr<const MappingUnits> units_;
  Scoring scoring_;
  std::shared_ptr<LoadLedger> ledger_;
  /// Snapshot-before-version publish protocol (extracted lock-free
  /// kernel; identical code is model-checked under mc::atomic).
  lockfree::VersionedRcu<lockfree::StdAtomicsPolicy, std::shared_ptr<const MapSnapshot>>
      published_;
  EndUserGateFn end_user_gate_;
};

}  // namespace eum::cdn
