// Network latency model.
//
// Substitute for the paper's real ping measurements (§6) and server TCP
// RTT observations (§4.1). RTT between two points decomposes into
// propagation over a non-geodesic fiber path, fixed per-hop processing,
// an inflation penalty for crossing oceans/continents, and a stable
// per-pair "path quality" factor (deterministic in the endpoints, so the
// same pair always measures a similar baseline, as real paths do).
// Per-measurement congestion noise is drawn from the caller's RNG.
#pragma once

#include <cstdint>

#include "geo/coords.h"
#include "util/rng.h"

namespace eum::topo {

struct LatencyParams {
  /// Fixed endpoint processing + last-mile, ms (one way pair cost folded in).
  double base_ms = 3.0;
  /// Fiber propagation: great-circle miles per millisecond of RTT.
  /// Light in fiber covers ~127 mi/ms one way => ~63 mi/ms of RTT.
  double miles_per_rtt_ms = 63.0;
  /// Path stretch: fiber routes are not geodesics.
  double path_stretch = 1.30;
  /// Extra RTT for intercontinental paths (> threshold), ms.
  double transoceanic_penalty_ms = 25.0;
  double transoceanic_threshold_miles = 3000.0;
  /// Lognormal sigma of the stable per-pair quality multiplier.
  double pair_quality_sigma = 0.18;
  /// Mean of per-measurement congestion noise, ms (exponential).
  double congestion_mean_ms = 4.0;
  /// Packet-loss model: base rate plus an extra rate on intercontinental
  /// paths, modulated by a stable per-pair lognormal factor of its own
  /// (drawn independently of the RTT quality factor, with twice its sigma).
  double base_loss_rate = 0.001;
  double transoceanic_loss_rate = 0.012;
};

class LatencyModel {
 public:
  explicit LatencyModel(LatencyParams params = {}, std::uint64_t seed = 0x5eedULL) noexcept
      : params_(params), seed_(seed) {}

  /// Deterministic expected RTT between two points, ms. `pair_salt`
  /// identifies the endpoint pair so the stable path-quality factor is
  /// reproducible (pass e.g. hash of the two entity ids).
  [[nodiscard]] double expected_rtt_ms(const geo::GeoPoint& a, const geo::GeoPoint& b,
                                       std::uint64_t pair_salt) const noexcept;

  /// expected_rtt_ms of a pair `miles` great-circle miles apart (its
  /// geo::great_circle_miles), for callers that reuse one distance.
  [[nodiscard]] double expected_rtt_ms_at(double miles, std::uint64_t pair_salt) const noexcept;

  /// One measured RTT: expected value plus congestion noise from `rng`.
  [[nodiscard]] double measure_rtt_ms(const geo::GeoPoint& a, const geo::GeoPoint& b,
                                      std::uint64_t pair_salt, util::Rng& rng) const noexcept;

  /// Deterministic expected packet-loss rate of the path (0..1). Long
  /// transoceanic paths lose more; a stable per-pair loss factor makes
  /// some paths persistently lossy — what the video scoring function avoids.
  [[nodiscard]] double expected_loss_rate(const geo::GeoPoint& a, const geo::GeoPoint& b,
                                          std::uint64_t pair_salt) const noexcept;

  /// expected_loss_rate of a pair `miles` great-circle miles apart.
  [[nodiscard]] double expected_loss_rate_at(double miles,
                                             std::uint64_t pair_salt) const noexcept;

  [[nodiscard]] const LatencyParams& params() const noexcept { return params_; }

 private:
  LatencyParams params_;
  std::uint64_t seed_;
};

}  // namespace eum::topo
