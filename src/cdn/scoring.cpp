#include "cdn/scoring.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>

namespace eum::cdn {

namespace {

/// The best `keep` (>= 1) deployments of each of `columns` (<= kColumnTile)
/// score columns into out[c * keep, (c + 1) * keep), best first.
/// `score(d, c)` is deployment d's score on column c. Ordering contract:
/// (score, id). Deployments are scanned in ascending id and kept by
/// insertion, so an equal score never moves ahead of an earlier id; a
/// column with fewer than `keep` entries is padded with {0, +inf}. Both
/// of Scoring's tables are ranked here, in the order pick()'s fallback
/// scan also follows.
template <typename Score>
void best_k(std::size_t deployments, std::size_t columns, std::size_t keep, const Score& score,
            Candidate* out) {
  std::array<std::size_t, kColumnTile> kept{};
  for (std::size_t d = 0; d < deployments; ++d) {
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

}  // namespace

float path_score(TrafficClass klass, float rtt_ms, float loss_rate) noexcept {
  switch (klass) {
    case TrafficClass::web:
      return rtt_ms;
    case TrafficClass::video:
      // Mathis et al.: TCP throughput ~ MSS / (RTT * sqrt(p)); minimizing
      // RTT*sqrt(p) maximizes it. Floor the loss so pristine paths still
      // rank by latency.
      return rtt_ms * std::sqrt(std::max(loss_rate, 1e-4F));
  }
  return rtt_ms;
}

Scoring Scoring::build(const topo::World& world, const CdnNetwork& network, const PingMesh& mesh,
                       const MappingUnits& units, std::size_t top_k, TrafficClass klass,
                       bool cluster_scores) {
  if (top_k == 0) throw std::invalid_argument{"Scoring::build: top_k must be positive"};
  if (mesh.deployment_count() != network.size() ||
      mesh.target_count() != world.ping_targets.size() ||
      units.target_count() != mesh.target_count()) {
    throw std::invalid_argument{"Scoring::build: mesh does not match world/network/units"};
  }
  Scoring scoring;
  scoring.top_k_ = top_k;
  const std::size_t n_dep = mesh.deployment_count();

  // Per mapping unit, a tile of units at a time. Representatives ascend
  // with the unit id, so a tile's columns lie close together in every
  // deployment row, and consecutive units' lists are contiguous, so each
  // tile is ranked straight into the table.
  const std::size_t n_units = units.unit_count();
  scoring.by_unit_.resize(n_units * top_k);
  std::array<topo::PingTargetId, kColumnTile> reps{};
  for (std::size_t u0 = 0; u0 < n_units; u0 += kColumnTile) {
    const std::size_t columns = std::min(kColumnTile, n_units - u0);
    for (std::size_t c = 0; c < columns; ++c) {
      reps[c] = units.representative(static_cast<MappingUnits::UnitId>(u0 + c));
    }
    best_k(
        n_dep, columns, top_k,
        [&](std::size_t d, std::size_t c) {
          return path_score(klass, mesh.rtt_ms(d, reps[c]), mesh.loss_rate(d, reps[c]));
        },
        &scoring.by_unit_[u0 * top_k]);
  }

  // Per LDNS cluster: traffic-weighted member targets.
  // Member weights: demand x use-fraction of each block, grouped by the
  // block's ping target. Skipped (cluster_scores=false) for non-CANS
  // deployments at paper scale — the aggregation walks every association
  // entry per deployment, the dominant cost at millions of blocks.
  const std::size_t n_ldns = world.ldnses.size();
  scoring.cluster_has_data_.resize(n_ldns, false);
  if (!cluster_scores) return scoring;
  std::vector<std::unordered_map<topo::PingTargetId, double>> members(n_ldns);
  for (const topo::ClientBlock& block : world.blocks) {
    for (const topo::LdnsUse& use : world.ldns_uses(block)) {
      members[use.ldns][block.ping_target] += block.demand * use.fraction;
    }
  }
  scoring.by_cluster_.resize(n_ldns * top_k);
  std::vector<float> scores(n_dep);
  for (std::size_t l = 0; l < n_ldns; ++l) {
    if (members[l].empty()) continue;
    scoring.cluster_has_data_[l] = true;
    double wsum = 0.0;
    for (const auto& [target, weight] : members[l]) wsum += weight;
    for (std::size_t d = 0; d < n_dep; ++d) {
      double score = 0.0;
      for (const auto& [target, weight] : members[l]) {
        score += weight * static_cast<double>(
                              path_score(klass, mesh.rtt_ms(d, target), mesh.loss_rate(d, target)));
      }
      scores[d] = static_cast<float>(score / wsum);
    }
    best_k(
        n_dep, 1, top_k, [&](std::size_t d, std::size_t) { return scores[d]; },
        &scoring.by_cluster_[l * top_k]);
  }
  return scoring;
}

std::span<const Candidate> Scoring::cluster_candidates(topo::LdnsId ldns) const {
  if (ldns >= cluster_has_data_.size()) throw std::out_of_range{"Scoring: unknown LDNS"};
  if (!cluster_has_data_[ldns]) return {};
  return {by_cluster_.data() + static_cast<std::size_t>(ldns) * top_k_, top_k_};
}

}  // namespace eum::cdn
