#include "cdn/ping_mesh.h"

#include <vector>

#include "geo/coords.h"
#include "util/hash.h"

namespace eum::cdn {

PingMesh PingMesh::measure(const topo::World& world, const CdnNetwork& network,
                           const topo::LatencyModel& latency) {
  // A deployment's row is its universe site's row.
  std::vector<topo::DeploymentSite> sites;
  sites.reserve(network.size());
  for (const Deployment& deployment : network.deployments()) {
    sites.push_back(topo::DeploymentSite{deployment.site_id, deployment.location});
  }
  return measure_sites(world, sites, latency);
}

PingMesh PingMesh::measure_sites(const topo::World& world,
                                 std::span<const topo::DeploymentSite> sites,
                                 const topo::LatencyModel& latency) {
  PingMesh mesh;
  mesh.rows_ = sites.size();
  mesh.cols_ = world.ping_targets.size();
  mesh.data_.resize(mesh.rows_ * mesh.cols_);
  mesh.loss_.resize(mesh.rows_ * mesh.cols_);
  // Per cell: one distance, shared by the RTT and loss draws. The cos(lat)
  // of each endpoint and the row's salt prefix are hoisted out of the cell.
  std::vector<double> target_cos(mesh.cols_);
  for (std::size_t t = 0; t < mesh.cols_; ++t) {
    target_cos[t] = geo::cos_lat(world.ping_targets[t].location);
  }
  for (std::size_t d = 0; d < mesh.rows_; ++d) {
    const geo::GeoPoint& from = sites[d].location;
    const double from_cos = geo::cos_lat(from);
    // Salt by the universe-wide site id so a site's measurements do not
    // depend on which subset (or network) it appears in.
    const std::uint64_t row_salt = util::mix64(0xdeb107 + sites[d].id);
    float* rtt = mesh.data_.data() + d * mesh.cols_;
    float* loss = mesh.loss_.data() + d * mesh.cols_;
    for (std::size_t t = 0; t < mesh.cols_; ++t) {
      const std::uint64_t salt = util::hash_combine(row_salt, static_cast<std::uint64_t>(t));
      const double miles = geo::great_circle_miles(from, from_cos, world.ping_targets[t].location,
                                                   target_cos[t]);
      rtt[t] = static_cast<float>(latency.expected_rtt_ms_at(miles, salt));
      loss[t] = static_cast<float>(latency.expected_loss_rate_at(miles, salt));
    }
  }
  return mesh;
}

}  // namespace eum::cdn
