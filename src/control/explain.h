// Mapping-decision explain: "why did THIS client get THAT answer?".
//
// The paper's roll-out (§4) was monitored by comparing what resolvers
// *would* be told under each policy. DecisionExplainer is the live
// version of that question for an operator: given a client IP (and
// optionally a qname and resolver), replay the mapping decision against
// the CURRENT published cdn::MapSnapshot and RolloutController state and
// report every input to it — which LDNS was attributed, whether the
// end-user gate was open for it (cohort, ramp fraction, whitelist),
// the ECS scope the answer would carry, and each candidate cluster with
// its score/liveness/load, with the chosen one marked.
//
// Consistency guarantee: the explanation calls the same
// cdn::MapSnapshot::map() the serve path's dns_handler calls (same snapshot
// generation, same zero marginal load), so for a given snapshot version
// the explained servers are exactly the served servers. The snapshot
// version is part of the report so an operator can tell when a
// republish landed between a query and its explain.
//
// This is the admin channel's `explain <ip> [qname] [resolver-ip]`
// command; everything here is cold-path and may allocate.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cdn/map_snapshot.h"
#include "cdn/mapping.h"
#include "control/map_maker.h"
#include "control/rollout_controller.h"
#include "net/ip.h"
#include "topo/world.h"

namespace eum::control {

class DecisionExplainer {
 public:
  /// How the resolver attribution in an Explanation was derived.
  enum class ResolverSource : std::uint8_t {
    explicit_arg,    ///< operator named the resolver IP
    ip_is_ldns,      ///< the queried IP is itself a known LDNS
    client_primary,  ///< the client block's highest-fraction LDNS
    fallback,        ///< the configured fallback LDNS
  };

  struct Explanation {
    bool ok = false;
    std::string error;  ///< set when !ok

    net::IpAddr client;
    std::string qname;
    topo::LdnsId ldns = 0;
    ResolverSource ldns_source = ResolverSource::fallback;
    std::optional<topo::BlockId> block;  ///< only when the gate was open
    bool end_user_on = false;            ///< end_user_active(ldns) right now
    int ecs_scope = 0;                   ///< scope the served answer carries

    // Roll-out gate detail (valid when has_rollout).
    bool has_rollout = false;
    std::uint32_t cohort = 0;
    std::uint32_t enabled_cohorts = 0;
    std::uint32_t total_cohorts = 0;
    double fraction = 0.0;
    bool whitelisted = false;

    cdn::MapSnapshot::MapExplanation map;  ///< the snapshot-level decision trail
  };

  /// All pointers are borrowed and must outlive the explainer; `rollout`
  /// may be nullptr (no staged roll-out in this deployment).
  DecisionExplainer(const topo::World* world, const cdn::MappingSystem* mapping,
                    MapMaker* maker, const RolloutController* rollout = nullptr);

  /// Resolver of last resort when the client IP can't be attributed to
  /// any LDNS (unset: such queries explain as an error).
  void set_fallback_ldns(topo::LdnsId ldns) noexcept { fallback_ldns_ = ldns; }

  /// Replay the decision. `resolver` pins the attributed LDNS; otherwise
  /// the client IP is matched against the LDNS population, then against
  /// its /24 block's primary LDNS, then the fallback.
  [[nodiscard]] Explanation explain(const net::IpAddr& client, std::string_view qname,
                                    std::optional<net::IpAddr> resolver = std::nullopt) const;

  /// Operator-facing text of an explanation (multi-line).
  [[nodiscard]] static std::string render(const Explanation& explanation);

  /// Admin-channel adapter: `explain <ip> [qname] [resolver-ip]`.
  /// Throws std::runtime_error on bad arguments (the admin server turns
  /// that into an ERROR line).
  [[nodiscard]] std::string command(const std::vector<std::string>& args) const;

 private:
  const topo::World* world_;
  const cdn::MappingSystem* mapping_;
  MapMaker* maker_;
  const RolloutController* rollout_;
  std::optional<topo::LdnsId> fallback_ldns_;
};

/// The admin channel's `snapshot.info`: identity and provenance of the
/// current map — version, build time/age, policy, cluster liveness,
/// rebuild counters by reason, and the binary's build info.
[[nodiscard]] std::string snapshot_info(MapMaker& maker);

}  // namespace eum::control
