// The network-measurement component of the mapping system (paper §2.2):
// latency measurements from every deployment to every ping target.
//
// "We then perform latency measurements using pings from each deployment
// U to each of the 8K ping targets. For any client or LDNS, we find the
// closest of the 8K ping targets and use that as a proxy for latency
// measurements" (§6). The mesh stores expected RTTs as a dense
// row-major matrix (deployments x targets) of floats.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cdn/network.h"
#include "topo/latency.h"
#include "topo/world.h"

namespace eum::cdn {

/// Columns (targets, or units' representatives) that a column-wise pass
/// over the row-major mesh takes at once: each deployment row is then read
/// once per tile instead of once per column. 16 floats are one 64-byte
/// line of a row.
inline constexpr std::size_t kColumnTile = 16;

class PingMesh {
 public:
  /// Measure every (deployment, ping target) pair of `network` against
  /// `world` using the latency model. Row d is the row measure_sites
  /// gives deployment d's universe site.
  static PingMesh measure(const topo::World& world, const CdnNetwork& network,
                          const topo::LatencyModel& latency);

  /// Measure from explicit deployment locations (used by the §6 study,
  /// which sweeps deployment subsets without instantiating clusters). A
  /// site's row depends only on its id and location.
  static PingMesh measure_sites(const topo::World& world,
                                std::span<const topo::DeploymentSite> sites,
                                const topo::LatencyModel& latency);

  [[nodiscard]] std::size_t deployment_count() const noexcept { return rows_; }
  [[nodiscard]] std::size_t target_count() const noexcept { return cols_; }

  /// Expected RTT in ms from deployment row `d` to ping target `t`.
  [[nodiscard]] float rtt_ms(std::size_t d, topo::PingTargetId t) const noexcept {
    return data_[d * cols_ + t];
  }

  /// Expected packet-loss rate of the same path (0..1).
  [[nodiscard]] float loss_rate(std::size_t d, topo::PingTargetId t) const noexcept {
    return loss_[d * cols_ + t];
  }

  /// Full latency row for one deployment.
  [[nodiscard]] std::span<const float> row(std::size_t d) const noexcept {
    return {data_.data() + d * cols_, cols_};
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
  std::vector<float> loss_;
};

}  // namespace eum::cdn
