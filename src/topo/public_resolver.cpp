#include "topo/public_resolver.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/hash.h"

namespace eum::topo {

std::vector<PublicProviderSpec> default_public_providers() {
  std::vector<PublicProviderSpec> providers(2);

  providers[0].name = "pub-a";  // large fleet, Google-Public-DNS-like
  providers[0].market_share = 0.72;
  providers[0].supports_ecs = true;
  providers[0].sites = {
      {"US", {38.95, -77.45}},   // US East
      {"US", {41.26, -95.86}},   // US Central
      {"US", {37.42, -122.08}},  // US West
      {"DE", {50.11, 8.68}},     // Frankfurt
      {"GB", {53.35, -6.26}},    // Dublin (attributed GB/IE region)
      {"NL", {60.57, 27.19}},    // Hamina (Nordic site; reached from RU/FI)
      {"SG", {1.35, 103.82}},    // Singapore
      {"TW", {25.04, 121.56}},   // Taiwan
      {"JP", {35.68, 139.69}},   // Tokyo
      {"AU", {-33.87, 151.21}},  // Sydney
  };

  providers[1].name = "pub-b";  // smaller fleet, OpenDNS-like
  providers[1].market_share = 0.28;
  providers[1].supports_ecs = true;
  providers[1].sites = {
      {"US", {37.44, -122.14}},  // Palo Alto
      {"US", {40.71, -74.00}},   // New York
      {"US", {41.88, -87.63}},   // Chicago
      {"GB", {51.50, -0.12}},    // London
      {"NL", {52.37, 4.90}},     // Amsterdam
      {"SG", {1.35, 103.82}},    // Singapore
      {"HK", {22.30, 114.20}},   // Hong Kong
  };
  return providers;
}

std::size_t anycast_select(const std::vector<PublicSiteSpec>& sites,
                           const geo::GeoPoint& client_location, const LatencyModel& latency,
                           double detour_prob, util::Rng& rng) {
  if (sites.empty()) throw std::invalid_argument{"anycast_select: provider has no sites"};
  // Each site's RTT once, then a sort of the indices by it. The model is a
  // pure function of (client, site, salt) and std::sort's permutation
  // depends only on the comparison outcomes, so this ranks exactly as
  // re-evaluating the model inside the comparator would.
  const auto lat_key =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(client_location.lat_deg * 1e4));
  std::vector<double> rtt(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const std::uint64_t salt =
        util::hash_combine(util::mix64(static_cast<std::uint64_t>(i) + 0x5174e5ULL), lat_key);
    rtt[i] = latency.expected_rtt_ms(client_location, sites[i].location, salt);
  }
  std::vector<std::size_t> order(sites.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return rtt[a] < rtt[b]; });
  if (sites.size() > 1 && rng.chance(detour_prob)) {
    // Mis-routed: land on a non-optimal site (rank 1..3) — usually the
    // next regional site over, occasionally another continent.
    const std::size_t hi = std::min<std::size_t>(sites.size() - 1, 3);
    const auto rank = static_cast<std::size_t>(rng.between(1, static_cast<std::int64_t>(hi)));
    return order[rank];
  }
  return order[0];
}

}  // namespace eum::topo
