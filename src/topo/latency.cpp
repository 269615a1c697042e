#include "topo/latency.h"

#include <algorithm>
#include <cmath>

#include "util/hash.h"

namespace eum::topo {

namespace {

/// One standard normal from a mixed pair key: two U(0,1) from the key and
/// its remix -> Box-Muller.
double pair_normal(std::uint64_t mixed) noexcept {
  const double u1 = (static_cast<double>(mixed >> 11) + 1.0) * 0x1.0p-53;  // (0,1]
  const double u2 =
      static_cast<double>(util::mix64(mixed + 0x9e3779b97f4a7c15ULL) >> 11) * 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

}  // namespace

double LatencyModel::expected_rtt_ms(const geo::GeoPoint& a, const geo::GeoPoint& b,
                                     std::uint64_t pair_salt) const noexcept {
  return expected_rtt_ms_at(geo::great_circle_miles(a, b), pair_salt);
}

double LatencyModel::expected_rtt_ms_at(double miles, std::uint64_t pair_salt) const noexcept {
  double rtt = params_.base_ms +
               miles * params_.path_stretch / params_.miles_per_rtt_ms;
  if (miles > params_.transoceanic_threshold_miles) rtt += params_.transoceanic_penalty_ms;

  // Stable per-pair quality: lognormal multiplier derived from the pair
  // identity (not from the running RNG), so scoring sees consistent paths.
  rtt *= std::exp(params_.pair_quality_sigma * pair_normal(util::mix64(pair_salt ^ seed_)));
  return rtt;
}

double LatencyModel::expected_loss_rate(const geo::GeoPoint& a, const geo::GeoPoint& b,
                                        std::uint64_t pair_salt) const noexcept {
  return expected_loss_rate_at(geo::great_circle_miles(a, b), pair_salt);
}

double LatencyModel::expected_loss_rate_at(double miles, std::uint64_t pair_salt) const noexcept {
  double loss = params_.base_loss_rate;
  if (miles > params_.transoceanic_threshold_miles) loss += params_.transoceanic_loss_rate;
  // A per-pair lognormal factor of its own: the normal is drawn from the
  // pair key salted apart (^ 0x105e), so it is independent of the RTT
  // quality draw — a path with a poor RTT draw is not thereby lossy. Twice
  // the RTT sigma: loss varies more widely than latency.
  const double z = pair_normal(util::mix64(pair_salt ^ seed_ ^ 0x105eULL));
  loss *= std::exp(2.0 * params_.pair_quality_sigma * z);
  return std::min(loss, 0.5);
}

double LatencyModel::measure_rtt_ms(const geo::GeoPoint& a, const geo::GeoPoint& b,
                                    std::uint64_t pair_salt, util::Rng& rng) const noexcept {
  return expected_rtt_ms(a, b, pair_salt) + rng.exponential(params_.congestion_mean_ms);
}

}  // namespace eum::topo
