// The synthetic Internet: the substitute for the paper's NetSession
// client-LDNS dataset (§3.1), Edgescape geolocation and BGP feeds.
//
// A `World` holds countries, cities, autonomous systems, /24 client
// blocks with demand weights, the LDNS population (ISP, public-resolver
// and enterprise name servers) and the client->LDNS association — every
// input the paper's analyses consume. Worlds are produced by `WorldGen`
// (world_gen.h) from a seed and are fully deterministic.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geo/coords.h"
#include "geo/geodb.h"
#include "net/cidr_aggregation.h"
#include "net/prefix.h"

namespace eum::topo {

using CountryId = std::uint16_t;
using CityId = std::uint32_t;
using AsId = std::uint32_t;
using LdnsId = std::uint32_t;
using BlockId = std::uint32_t;
using PingTargetId = std::uint32_t;

/// Static per-country modelling parameters (see country_data.cpp for the
/// calibrated table and the paper figures each knob is tuned against).
struct CountrySpec {
  std::string code;               ///< ISO-3166 alpha-2
  geo::GeoPoint center;           ///< population-weighted centroid
  double radius_miles = 300;      ///< geographic spread of the population
  double demand_share = 0.01;     ///< fraction of global client demand
  /// Probability that an ISP hosts its resolvers at a national hub city
  /// rather than near its clients (drives Fig 6 per-country medians).
  double isp_centralization = 0.3;
  /// Fraction of client demand using public resolvers (Fig 9 target).
  double public_adoption = 0.06;
  /// Fraction using a centralized corporate LDNS abroad (JP tail, §3.2).
  double enterprise_share = 0.02;
  /// Probability that anycast routes a public-resolver client away from
  /// its nearest site ("peering arrangements", §3.2).
  double anycast_detour = 0.10;
  /// Probability that a centralized ISP's resolvers actually sit at a
  /// foreign interconnection hub (DNS "outsourced" abroad or regional
  /// infrastructure, common in the paper's high-distance countries).
  double isp_offshore = 0.03;
  /// Relative weight for CDN deployment placement (§6 universe).
  double deployment_weight = 1.0;
};

struct City {
  CityId id = 0;
  CountryId country = 0;
  geo::GeoPoint location;
  double population_weight = 1.0;  ///< within-country demand share
  bool is_hub = false;             ///< national interconnection hub
};

/// How an AS provides DNS to its clients (paper §3.2 "Breakdown by AS").
enum class DnsStrategy : std::uint8_t {
  isp_local,        ///< resolvers deployed near clients, per city
  isp_centralized,  ///< resolvers at a hub city only
  outsourced,       ///< no own resolvers; clients use a public resolver
  enterprise,       ///< corporate network with a centralized LDNS abroad
};

struct AutonomousSystem {
  AsId asn = 0;
  CountryId country = 0;
  double demand_share = 0.0;  ///< fraction of global demand
  DnsStrategy strategy = DnsStrategy::isp_local;
  /// BGP-announced CIDRs covering this AS's client blocks.
  std::vector<net::IpPrefix> announced_cidrs;
};

enum class LdnsType : std::uint8_t {
  isp,         ///< ISP resolver (local or centralized)
  public_site, ///< a public-resolver anycast site (unicast address known)
  enterprise,  ///< corporate centralized resolver
};

struct Ldns {
  LdnsId id = 0;
  net::IpAddr address;
  geo::GeoPoint location;
  CountryId country = 0;
  LdnsType type = LdnsType::isp;
  /// ECS support: public resolvers supported the extension during the
  /// paper's roll-out; ISP resolvers generally did not (§4.5).
  bool supports_ecs = false;
  PingTargetId ping_target = 0;
};

/// Client->LDNS association entry: one LDNS used by a block, with the
/// relative frequency with which it appears (§3.1).
struct LdnsUse {
  LdnsId ldns = 0;
  double fraction = 1.0;

  friend bool operator==(const LdnsUse&, const LdnsUse&) = default;
};

/// A /24 client block. The client->LDNS association lives in the World's
/// flattened SoA arrays (World::ldns_uses), not here: at paper scale
/// (millions of blocks) a per-block heap vector costs a 24-byte header
/// plus one allocation per block and scatters the association across the
/// heap; two contiguous arrays keep a 4M-block world cache- and
/// memory-friendly.
struct ClientBlock {
  BlockId id = 0;
  net::IpPrefix prefix;  ///< the /24
  geo::GeoPoint location;
  CountryId country = 0;
  AsId as_index = 0;  ///< index into World::ases
  CityId city = 0;
  double demand = 0.0;  ///< client demand weight (traffic units)
  PingTargetId ping_target = 0;
};

/// A latency-measurement proxy point: "we choose around 20K /24 IP blocks
/// ... and further cluster them into 8K ping targets" (§6).
struct PingTarget {
  PingTargetId id = 0;
  geo::GeoPoint location;
  CountryId country = 0;
};

/// A candidate CDN deployment location (§6's universe U).
struct DeploymentSite {
  std::uint32_t id = 0;
  geo::GeoPoint location;
  CountryId country = 0;
  CityId city = 0;
};

class World {
 public:
  std::vector<CountrySpec> countries;
  std::vector<City> cities;
  std::vector<AutonomousSystem> ases;
  std::vector<ClientBlock> blocks;
  std::vector<Ldns> ldnses;
  std::vector<PingTarget> ping_targets;
  std::vector<DeploymentSite> deployment_universe;
  geo::GeoDatabase geodb;  ///< blocks + LDNS addresses registered
  net::CidrTable bgp;      ///< all announced CIDRs

  /// Total demand over all blocks.
  [[nodiscard]] double total_demand() const;

  /// Demand-weighted expected LDNS of a block (highest-fraction entry).
  [[nodiscard]] const Ldns& primary_ldns(const ClientBlock& block) const;

  /// Demand served through public resolvers, per the client->LDNS map.
  [[nodiscard]] double public_resolver_demand() const;

  // --- client->LDNS association (flattened SoA; see ClientBlock) -------

  /// The LDNS associations of a block (empty when none were assigned).
  [[nodiscard]] std::span<const LdnsUse> ldns_uses(BlockId block) const noexcept {
    if (static_cast<std::size_t>(block) + 1 >= ldns_use_offsets_.size()) return {};
    return {ldns_use_data_.data() + ldns_use_offsets_[block],
            ldns_use_offsets_[static_cast<std::size_t>(block) + 1] - ldns_use_offsets_[block]};
  }
  [[nodiscard]] std::span<const LdnsUse> ldns_uses(const ClientBlock& block) const noexcept {
    return ldns_uses(block.id);
  }

  /// Assign a block's LDNS associations. Writers (the generator, the
  /// world loader, hand-built test worlds) must assign in increasing
  /// block-id order; skipped ids keep an empty association. Throws
  /// std::logic_error on out-of-order assignment.
  void assign_ldns_uses(BlockId block, std::span<const LdnsUse> uses);

  /// Pre-size the association arrays (streamed generation at 1M+ blocks).
  void reserve_ldns_uses(std::size_t block_count, std::size_t use_count);

  /// Total association entries across all blocks.
  [[nodiscard]] std::size_t ldns_use_count() const noexcept { return ldns_use_data_.size(); }

  /// Look up a block by /24 prefix (nullptr when absent).
  [[nodiscard]] const ClientBlock* block_by_prefix(const net::IpPrefix& prefix) const;

  /// Look up an LDNS by its unicast address (nullptr when absent).
  [[nodiscard]] const Ldns* ldns_by_address(const net::IpAddr& addr) const;

  /// Index caches; called once by the generator.
  void build_indexes();

 private:
  // Association SoA: entry i of block b lives at
  // ldns_use_data_[ldns_use_offsets_[b] + i]. offsets has one trailing
  // sentinel, so a block's span is [offsets[b], offsets[b+1]).
  std::vector<std::uint32_t> ldns_use_offsets_{0};
  std::vector<LdnsUse> ldns_use_data_;

  // Flat open-addressing tables of ids: a power-of-two slot count at
  // least twice the key count, linear probing, kNoId marking empty slots.
  // A lookup hashes the key and compares through blocks[id] or
  // ldnses[id], so a hit costs about one cache miss for the slot and one
  // for the element. An unordered_map of 4M IpPrefix keys would cost
  // hundreds of MB of nodes and buckets; these cost 8-16 bytes per key.
  std::vector<std::uint32_t> block_slots_;
  std::vector<std::uint32_t> ldns_slots_;
};

}  // namespace eum::topo
