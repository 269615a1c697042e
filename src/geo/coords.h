// Geographic coordinates and great-circle distance.
//
// The paper derives client-LDNS and mapping distances as "the great
// circle distance between the two locations" using latitude/longitude
// from the Edgescape geolocation database, with distances reported in
// miles; this module is that computation.
#pragma once

#include <span>

namespace eum::geo {

/// Mean Earth radius in miles.
inline constexpr double kEarthRadiusMiles = 3958.7613;

/// A point on the globe in degrees.
struct GeoPoint {
  double lat_deg = 0.0;  ///< latitude, [-90, 90]
  double lon_deg = 0.0;  ///< longitude, [-180, 180]

  friend bool operator==(const GeoPoint&, const GeoPoint&) noexcept = default;
};

/// Great-circle distance between two points in miles (haversine formula).
[[nodiscard]] double great_circle_miles(const GeoPoint& a, const GeoPoint& b) noexcept;

/// cos(latitude) of a point, the per-endpoint factor of the haversine.
[[nodiscard]] double cos_lat(const GeoPoint& p) noexcept;

/// The same haversine with each endpoint's cos_lat() supplied by the
/// caller, for loops that pair one point with many: bit-identical to
/// great_circle_miles(a, b) when cos_lat_a == cos_lat(a) and
/// cos_lat_b == cos_lat(b).
[[nodiscard]] double great_circle_miles(const GeoPoint& a, double cos_lat_a, const GeoPoint& b,
                                        double cos_lat_b) noexcept;

/// A point with an associated weight (client demand, in the paper's terms).
struct WeightedPoint {
  GeoPoint point;
  double weight = 1.0;
};

/// Demand-weighted spherical centroid (3-D unit-vector mean, re-normalized).
/// Precondition: points non-empty with positive total weight.
[[nodiscard]] GeoPoint centroid(std::span<const WeightedPoint> points);

/// Weighted mean great-circle distance from each point to `reference`
/// (the paper's "cluster radius" when reference is the cluster centroid,
/// §3.3 footnote 7). Precondition: points non-empty with positive total weight.
[[nodiscard]] double mean_distance_to(std::span<const WeightedPoint> points,
                                      const GeoPoint& reference);

}  // namespace eum::geo
