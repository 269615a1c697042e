#include "cdn/network.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace eum::cdn {

namespace {

constexpr std::uint32_t kServerBase = 0xCB000000;  // 203.0.0.0

}  // namespace

CdnNetwork CdnNetwork::build(const topo::World& world, std::size_t site_count,
                             std::size_t servers_per_cluster, double cluster_capacity) {
  if (site_count > world.deployment_universe.size()) {
    throw std::invalid_argument{"CdnNetwork::build: more sites requested than universe holds"};
  }
  std::vector<std::uint32_t> sites(site_count);
  std::iota(sites.begin(), sites.end(), 0U);
  return build_at(world, sites, servers_per_cluster, cluster_capacity);
}

CdnNetwork CdnNetwork::build_at(const topo::World& world, const std::vector<std::uint32_t>& sites,
                                std::size_t servers_per_cluster, double cluster_capacity) {
  if (servers_per_cluster == 0 || servers_per_cluster > 250) {
    throw std::invalid_argument{"CdnNetwork::build_at: servers_per_cluster must be in [1, 250]"};
  }
  CdnNetwork network;
  network.deployments_.reserve(sites.size());
  for (std::size_t k = 0; k < sites.size(); ++k) {
    const topo::DeploymentSite& site = world.deployment_universe.at(sites[k]);
    Deployment deployment;
    deployment.id = static_cast<DeploymentId>(k);
    deployment.site_id = site.id;
    deployment.country = site.country;
    deployment.location = site.location;
    const std::uint32_t block24 = kServerBase + (static_cast<std::uint32_t>(k) << 8);
    deployment.server_block = net::IpPrefix{net::IpV4Addr{block24}, 24};
    deployment.capacity = cluster_capacity;
    deployment.servers.reserve(servers_per_cluster);
    for (std::size_t s = 0; s < servers_per_cluster; ++s) {
      deployment.servers.push_back(
          Server{net::IpV4Addr{block24 + static_cast<std::uint32_t>(s) + 1}, true});
    }
    network.deployments_.push_back(std::move(deployment));
  }
  return network;
}

const Deployment* CdnNetwork::deployment_of(const net::IpAddr& server) const noexcept {
  net::IpAddr probe = server;
  if (server.is_v6()) {
    const auto embedded = v4_of_alias(server.v6());
    if (!embedded) return nullptr;
    probe = net::IpAddr{*embedded};
  }
  for (const Deployment& d : deployments_) {
    if (d.server_block.contains(probe)) return &d;
  }
  return nullptr;
}

net::IpV6Addr CdnNetwork::v6_alias(net::IpV4Addr v4) noexcept {
  net::IpV6Addr::Bytes bytes{};
  bytes[0] = 0x20;
  bytes[1] = 0x01;
  bytes[2] = 0x0d;
  bytes[3] = 0xb8;
  bytes[4] = 0x00;
  bytes[5] = 0xcd;
  const auto v4_bytes = v4.bytes();
  std::copy(v4_bytes.begin(), v4_bytes.end(), bytes.begin() + 12);
  return net::IpV6Addr{bytes};
}

std::optional<net::IpV4Addr> CdnNetwork::v4_of_alias(const net::IpV6Addr& v6) noexcept {
  const auto& bytes = v6.bytes();
  const net::IpV6Addr::Bytes prefix = v6_alias(net::IpV4Addr{}).bytes();
  for (int i = 0; i < 12; ++i) {
    if (bytes[static_cast<std::size_t>(i)] != prefix[static_cast<std::size_t>(i)]) {
      return std::nullopt;
    }
  }
  return net::IpV4Addr{bytes[12], bytes[13], bytes[14], bytes[15]};
}

void CdnNetwork::set_cluster_alive(DeploymentId id, bool alive) {
  deployments_.at(id).alive = alive;
}

void CdnNetwork::set_server_alive(DeploymentId id, std::size_t server_index, bool alive) {
  deployments_.at(id).servers.at(server_index).alive = alive;
}

}  // namespace eum::cdn
