// The CDN's server platform: deployment locations, clusters and servers.
//
// A deployment is a server cluster at one location (the paper's unit for
// global load balancing); each cluster holds several content servers
// (the unit for local load balancing). Clusters are instantiated from a
// subset of the world's deployment universe (§6).
#pragma once

#include <cstdint>
#include <vector>

#include "geo/coords.h"
#include "net/prefix.h"
#include "topo/world.h"

namespace eum::cdn {

using DeploymentId = std::uint32_t;

struct Server {
  net::IpV4Addr address;
  bool alive = true;
};

struct Deployment {
  DeploymentId id = 0;
  std::uint32_t site_id = 0;  ///< id within the world's deployment universe
  topo::CountryId country = 0;
  geo::GeoPoint location;
  net::IpPrefix server_block;  ///< /24 housing this cluster's servers
  std::vector<Server> servers;
  /// Traffic units the cluster can absorb; the load charged against it
  /// lives in the mapping system's LoadLedger.
  double capacity = 1e9;
  bool alive = true;

  [[nodiscard]] std::size_t alive_servers() const noexcept {
    std::size_t n = 0;
    for (const Server& s : servers) n += s.alive ? 1 : 0;
    return n;
  }
};

class CdnNetwork {
 public:
  /// Instantiate clusters at the first `site_count` sites of the world's
  /// deployment universe (or at explicit site indices with the second
  /// overload). Server /24s are carved from 203.0.0.0/8.
  static CdnNetwork build(const topo::World& world, std::size_t site_count,
                          std::size_t servers_per_cluster = 8, double cluster_capacity = 1e9);
  static CdnNetwork build_at(const topo::World& world, const std::vector<std::uint32_t>& sites,
                             std::size_t servers_per_cluster = 8, double cluster_capacity = 1e9);

  [[nodiscard]] const std::vector<Deployment>& deployments() const noexcept {
    return deployments_;
  }
  [[nodiscard]] std::vector<Deployment>& deployments() noexcept { return deployments_; }
  [[nodiscard]] std::size_t size() const noexcept { return deployments_.size(); }

  /// Find the deployment owning a server address — either the IPv4
  /// address or its IPv6 alias (nullptr when unknown).
  [[nodiscard]] const Deployment* deployment_of(const net::IpAddr& server) const noexcept;

  /// Dual-stack aliasing: every content server is also reachable over
  /// IPv6 at a deterministic alias (2001:db8:cd::/96 with the IPv4
  /// address in the low 32 bits), so AAAA answers need no extra state.
  [[nodiscard]] static net::IpV6Addr v6_alias(net::IpV4Addr v4) noexcept;
  /// Inverse of v6_alias; nullopt if `v6` is not an alias.
  [[nodiscard]] static std::optional<net::IpV4Addr> v4_of_alias(const net::IpV6Addr& v6) noexcept;

  /// Mark a whole cluster (or one server) dead/alive.
  void set_cluster_alive(DeploymentId id, bool alive);
  void set_server_alive(DeploymentId id, std::size_t server_index, bool alive);

 private:
  std::vector<Deployment> deployments_;
};

}  // namespace eum::cdn
