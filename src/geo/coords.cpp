#include "geo/coords.h"

#include <cmath>
#include <stdexcept>

namespace eum::geo {

namespace {

constexpr double kDegToRad = 0.017453292519943295;

}  // namespace

double cos_lat(const GeoPoint& p) noexcept { return std::cos(p.lat_deg * kDegToRad); }

double great_circle_miles(const GeoPoint& a, const GeoPoint& b) noexcept {
  return great_circle_miles(a, cos_lat(a), b, cos_lat(b));
}

double great_circle_miles(const GeoPoint& a, double cos_lat_a, const GeoPoint& b,
                          double cos_lat_b) noexcept {
  const double dlat = (b.lat_deg - a.lat_deg) * kDegToRad;
  const double dlon = (b.lon_deg - a.lon_deg) * kDegToRad;
  const double sin_dlat = std::sin(dlat / 2.0);
  const double sin_dlon = std::sin(dlon / 2.0);
  const double h = sin_dlat * sin_dlat + cos_lat_a * cos_lat_b * sin_dlon * sin_dlon;
  // Clamp against rounding before the sqrt: h can exceed 1 by an ulp for
  // antipodal points.
  const double clamped = h > 1.0 ? 1.0 : (h < 0.0 ? 0.0 : h);
  return 2.0 * kEarthRadiusMiles * std::asin(std::sqrt(clamped));
}

GeoPoint centroid(std::span<const WeightedPoint> points) {
  if (points.empty()) throw std::invalid_argument{"centroid: empty point set"};
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
  double total = 0.0;
  for (const WeightedPoint& wp : points) {
    if (wp.weight < 0.0) throw std::invalid_argument{"centroid: negative weight"};
    const double lat = wp.point.lat_deg * kDegToRad;
    const double lon = wp.point.lon_deg * kDegToRad;
    x += wp.weight * std::cos(lat) * std::cos(lon);
    y += wp.weight * std::cos(lat) * std::sin(lon);
    z += wp.weight * std::sin(lat);
    total += wp.weight;
  }
  if (total <= 0.0) throw std::invalid_argument{"centroid: total weight must be positive"};
  const double norm = std::sqrt(x * x + y * y + z * z);
  if (norm == 0.0) {
    // Degenerate (weights cancel around the globe); fall back to the pole.
    return GeoPoint{90.0, 0.0};
  }
  return GeoPoint{std::asin(z / norm) / kDegToRad, std::atan2(y, x) / kDegToRad};
}

double mean_distance_to(std::span<const WeightedPoint> points, const GeoPoint& reference) {
  if (points.empty()) throw std::invalid_argument{"mean_distance_to: empty point set"};
  double sum = 0.0;
  double total = 0.0;
  for (const WeightedPoint& wp : points) {
    sum += wp.weight * great_circle_miles(wp.point, reference);
    total += wp.weight;
  }
  if (total <= 0.0) throw std::invalid_argument{"mean_distance_to: total weight must be positive"};
  return sum / total;
}

}  // namespace eum::geo
