// Scoring: ranking candidate deployments per mapping unit (paper §2.2).
//
// "The topological map is then used to evaluate what performance clients
// of each LDNS is likely to see if they are assigned to each Akamai
// server cluster, a process called scoring." A path's score depends on
// the traffic class (path_score); every candidate list is the top-K
// deployments by that score, in (score, id) order. Scoring ranks every list
// once, from the topology alone, dead or alive: the EU and NS mapping
// units' (groups of latency-equivalent ping targets) and the LDNS client
// clusters' (the unit of CANS mapping, §6). Liveness and load only pick
// from a list afterwards (MapSnapshot's pick() skips unusable clusters),
// so a republish never re-ranks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cdn/mapping_units.h"
#include "cdn/network.h"
#include "cdn/ping_mesh.h"
#include "topo/world.h"

namespace eum::cdn {

/// "Different scoring functions that incorporate bandwidth, latency,
/// packet loss, etc can be used for different traffic classes (web,
/// video, applications)" — §2.2.
enum class TrafficClass : std::uint8_t {
  web,    ///< latency-optimized: score = expected RTT
  video,  ///< throughput-optimized: score ~ 1/Mathis-throughput = RTT*sqrt(loss)
};

/// The score of one (deployment, target) path under a traffic class
/// (lower is better; the unit depends on the class).
[[nodiscard]] float path_score(TrafficClass klass, float rtt_ms, float loss_rate) noexcept;

struct Candidate {
  DeploymentId deployment = 0;
  float score_ms = 0.0F;  ///< class-dependent score (lower is better)

  friend bool operator==(const Candidate&, const Candidate&) = default;
};

class Scoring {
 public:
  /// Rank `top_k` deployments per mapping unit of `units` (a partition of
  /// the mesh's targets) and per LDNS client cluster by the traffic
  /// class's scoring function, dead or alive. The cluster aggregation
  /// walks every block-LDNS association per deployment, so paper-scale
  /// worlds that never map by client cluster turn `cluster_scores` off;
  /// every cluster list is then empty.
  static Scoring build(const topo::World& world, const CdnNetwork& network, const PingMesh& mesh,
                       const MappingUnits& units, std::size_t top_k = 8,
                       TrafficClass klass = TrafficClass::web, bool cluster_scores = true);

  /// Candidates for a mapping unit, best first: its top_k deployments by
  /// (score, id) on the unit's representative column (at epsilon 0 every
  /// member's column), padded with {0, +inf} past the network's size.
  [[nodiscard]] std::span<const Candidate> unit_candidates(MappingUnits::UnitId unit) const {
    return {by_unit_.data() + static_cast<std::size_t>(unit) * top_k_, top_k_};
  }

  /// Candidates for an LDNS's client cluster, best first: deployments
  /// minimizing the traffic-weighted mean latency to the clients behind
  /// that LDNS (CANS mapping, §6 scheme 3). Empty for an LDNS without
  /// clients, or when cluster scores were not built: the caller maps such
  /// an LDNS by its own ping target's unit list.
  [[nodiscard]] std::span<const Candidate> cluster_candidates(topo::LdnsId ldns) const;

  [[nodiscard]] std::size_t top_k() const noexcept { return top_k_; }

  /// Same candidate tables (the map maker's publish-skip check).
  friend bool operator==(const Scoring&, const Scoring&) = default;

 private:
  std::size_t top_k_ = 0;
  std::vector<Candidate> by_unit_;     ///< unit_count x top_k
  std::vector<Candidate> by_cluster_;  ///< ldns_count x top_k
  std::vector<bool> cluster_has_data_;
};

}  // namespace eum::cdn
