// Scoring: ranking candidate deployments per mapping unit (paper §2.2).
//
// "The topological map is then used to evaluate what performance clients
// of each LDNS is likely to see if they are assigned to each Akamai
// server cluster, a process called scoring." A path's score depends on
// the traffic class (path_score); every candidate list is the top-K
// deployments by that score, ranked by best_k. MapSnapshot ranks the
// lists of the EU and NS mapping units (groups of ping targets) on every
// rebuild; Scoring holds the liveness-independent lists of the LDNS
// client clusters (the unit of CANS mapping, §6), built once.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

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

/// The best `keep` (>= 1) deployments of each of `columns` (<= kColumnTile)
/// score columns into out[c * keep, (c + 1) * keep), best first.
/// `score(d, c)` is deployment d's score on column c; with a non-empty
/// `live`, deployments whose entry is 0 are skipped. Ordering contract:
/// (score, id). Deployments are scanned in ascending id and kept by
/// insertion, so an equal score never moves ahead of an earlier id; a
/// column with fewer than `keep` entries is padded with {0, +inf}. Every
/// candidate table — Scoring's and MapSnapshot's, full and delta — is
/// ranked here, which is what keeps them bit-identical to one another.
template <typename Score>
void best_k(std::size_t deployments, std::size_t columns, std::size_t keep,
            std::span<const char> live, const Score& score, Candidate* out) {
  std::array<std::size_t, kColumnTile> kept{};
  for (std::size_t d = 0; d < deployments; ++d) {
    if (!live.empty() && live[d] == 0) continue;
    for (std::size_t c = 0; c < columns; ++c) {
      const float s = score(d, c);
      Candidate* best = out + c * keep;
      if (kept[c] == keep && !(s < best[keep - 1].score_ms)) continue;
      std::size_t at = kept[c] < keep ? kept[c]++ : keep - 1;
      for (; at > 0 && s < best[at - 1].score_ms; --at) best[at] = best[at - 1];
      best[at] = Candidate{static_cast<DeploymentId>(d), s};
    }
  }
  for (std::size_t c = 0; c < columns; ++c) {
    std::fill(out + c * keep + kept[c], out + (c + 1) * keep,
              Candidate{0, std::numeric_limits<float>::infinity()});
  }
}

class Scoring {
 public:
  /// Build the CANS candidate lists: `top_k` deployments per LDNS client
  /// cluster, ranked by the traffic class's scoring function. The
  /// aggregation walks every block-LDNS association per deployment, so
  /// paper-scale worlds that never map by client cluster turn
  /// `cluster_scores` off; every list is then empty.
  static Scoring build(const topo::World& world, const CdnNetwork& network, const PingMesh& mesh,
                       std::size_t top_k = 8, TrafficClass klass = TrafficClass::web,
                       bool cluster_scores = true);

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
  std::vector<Candidate> by_cluster_;  ///< ldns_count x top_k
  std::vector<bool> cluster_has_data_;
};

}  // namespace eum::cdn
