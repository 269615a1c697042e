#include "cdn/map_snapshot.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>

#include "util/hash.h"

namespace eum::cdn {

LoadLedger::LoadLedger(std::size_t clusters)
    : size_(clusters), loads_(std::make_unique<std::atomic<double>[]>(clusters)) {
  for (std::size_t i = 0; i < size_; ++i) loads_[i].store(0.0, std::memory_order_relaxed);
}

double LoadLedger::add(std::size_t cluster, double units) noexcept {
  return loads_[cluster].fetch_add(units, std::memory_order_relaxed) + units;
}

void LoadLedger::reset() noexcept {
  for (std::size_t i = 0; i < size_; ++i) loads_[i].store(0.0, std::memory_order_relaxed);
}

std::shared_ptr<const MapSnapshot> MapSnapshot::build(const MappingSystem& mapping,
                                                      std::uint64_t version,
                                                      util::SimTime built_at) {
  auto snapshot = std::shared_ptr<MapSnapshot>{new MapSnapshot};
  snapshot->version_ = version;
  snapshot->built_at_ = built_at;
  snapshot->config_ = mapping.config();
  snapshot->world_ = &mapping.world();
  snapshot->mesh_ = &mapping.mesh();
  snapshot->scoring_ = &mapping.scoring();
  snapshot->loads_ = mapping.ledger_;
  snapshot->units_ = mapping.units_;

  // Frozen per-cluster serving view of the network's current liveness.
  const CdnNetwork& network = mapping.network();
  snapshot->clusters_.resize(network.size());
  for (const Deployment& deployment : network.deployments()) {
    Cluster& cluster = snapshot->clusters_[deployment.id];
    cluster.capacity = deployment.capacity;
    if (!deployment.alive) continue;
    cluster.servers.reserve(deployment.servers.size());
    for (const Server& server : deployment.servers) {
      if (server.alive) cluster.servers.emplace_back(server.address);
    }
  }
  return snapshot;
}

bool MapSnapshot::serving_equal(const MapSnapshot& other) const {
  if (units_->fingerprint() != other.units_->fingerprint() || clusters_ != other.clusters_) {
    return false;
  }
  return scoring_ == other.scoring_ || *scoring_ == *other.scoring_;
}

float MapSnapshot::score(std::size_t cluster, topo::PingTargetId target) const noexcept {
  return path_score(config_.traffic_class, mesh_->rtt_ms(cluster, target),
                    mesh_->loss_rate(cluster, target));
}

bool MapSnapshot::usable(std::size_t cluster, double load_units) const noexcept {
  return !clusters_[cluster].servers.empty() &&
         loads_->load(cluster) + load_units <= clusters_[cluster].capacity;
}

std::optional<MapResult> MapSnapshot::pick(std::span<const Candidate> candidates,
                                           topo::PingTargetId fallback_target,
                                           std::string_view domain, double load_units) const {
  // Global load balancing: the best usable candidate of the unit's list,
  // which is ranked dead or alive — a dead or full cluster is skipped.
  std::optional<DeploymentId> chosen;
  for (const Candidate& candidate : candidates) {
    if (!std::isfinite(candidate.score_ms)) break;
    if (usable(candidate.deployment, load_units)) {
      chosen = candidate.deployment;
      break;
    }
  }
  if (!chosen) {
    // Every precomputed candidate is dead or full: scan the whole mesh
    // column in the same (score, id) order the lists are ranked in (rare;
    // covers mass failures and hot spots).
    float best_score = std::numeric_limits<float>::infinity();
    for (std::size_t d = 0; d < clusters_.size(); ++d) {
      const float s = score(d, fallback_target);
      if (s < best_score && usable(d, load_units)) {
        chosen = static_cast<DeploymentId>(d);
        best_score = s;
      }
    }
  }
  if (!chosen) return std::nullopt;

  // The usable()/add() pair is not one atomic step: concurrent serving
  // threads may overshoot a cluster's capacity by the queries in flight
  // between their checks; later picks see the charged load and pass the
  // cluster over. No build reads the ledger. DNS decisions charge
  // nothing, so they skip the shared atomic.
  if (load_units != 0.0) loads_->add(*chosen, load_units);

  MapResult result;
  result.deployment = *chosen;
  result.expected_rtt_ms = mesh_->rtt_ms(*chosen, fallback_target);
  pick_servers(*chosen, domain, result.servers);
  if (result.servers.empty()) return std::nullopt;
  return result;
}

void MapSnapshot::pick_servers(DeploymentId cluster, std::string_view domain,
                               ServerList& out) const {
  // A server's weight is hash(domain, server address), so a domain keeps
  // its "home" servers across generations (cache affinity) and loses only
  // a dead one. The top `want` weights are kept by insertion into a small
  // array, heaviest first, instead of sorting every server.
  const std::vector<net::IpAddr>& servers = clusters_.at(cluster).servers;
  struct Ranked {
    std::uint64_t weight;
    std::size_t index;
  };
  std::array<Ranked, kMaxServersPerAnswer> top{};
  const std::size_t want = std::min(config_.servers_per_answer, servers.size());
  std::size_t kept = 0;
  const std::uint64_t domain_hash = util::fnv1a64(domain);
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const Ranked ranked{
        util::hash_combine(domain_hash, static_cast<std::uint64_t>(servers[i].v4().value())), i};
    if (kept == want && (want == 0 || ranked.weight <= top[want - 1].weight)) continue;
    std::size_t at = kept < want ? kept++ : want - 1;
    for (; at > 0 && top[at - 1].weight < ranked.weight; --at) top[at] = top[at - 1];
    top[at] = ranked;
  }
  for (std::size_t i = 0; i < kept; ++i) out.push_back(servers[top[i].index]);
}

std::span<const Candidate> MapSnapshot::cluster_candidates(topo::LdnsId ldns) const {
  const std::span<const Candidate> cans = scoring_->cluster_candidates(ldns);
  if (!cans.empty()) return cans;
  return unit_candidates(units_->unit_of(world_->ldnses[ldns].ping_target));
}

std::optional<MapResult> MapSnapshot::map_target(topo::PingTargetId target,
                                                 std::string_view domain,
                                                 double load_units) const {
  return pick(unit_candidates(units_->unit_of(target)), target, domain, load_units);
}

std::optional<MapResult> MapSnapshot::map_cluster(topo::LdnsId ldns, std::string_view domain,
                                                  double load_units) const {
  // The LDNS's own target is the fallback scan's column and the reference
  // for the reported RTT estimate.
  return pick(cluster_candidates(ldns), world_->ldnses.at(ldns).ping_target, domain,
              load_units);
}

MapSnapshot::MapExplanation MapSnapshot::explain(topo::LdnsId ldns,
                                                 std::optional<topo::BlockId> client_block,
                                                 std::string_view domain) const {
  MapExplanation out;
  out.version = version_;
  out.policy = config_.policy;

  // Mirror map()'s policy dispatch to find the mapping unit and the
  // precomputed candidate list pick() would walk.
  out.used_client_block = config_.policy == MappingPolicy::end_user && client_block;
  out.unit = out.used_client_block ? world_->blocks.at(*client_block).ping_target
                                   : world_->ldnses.at(ldns).ping_target;
  out.mapping_unit = units_->unit_of(out.unit);
  const std::span<const Candidate> candidates =
      config_.policy == MappingPolicy::client_aware_ns ? cluster_candidates(ldns)
                                                       : unit_candidates(out.mapping_unit);
  out.unit_size = units_->members(out.mapping_unit).size();

  auto view_of = [this](DeploymentId d, float candidate_score) {
    ExplainCandidate view;
    view.deployment = d;
    view.score_ms = candidate_score;
    view.alive = !clusters_[d].servers.empty();
    view.usable = usable(d, 0.0);
    view.load = loads_->load(d);
    view.capacity = clusters_[d].capacity;
    return view;
  };
  for (const Candidate& candidate : candidates) {
    if (!std::isfinite(candidate.score_ms)) break;  // pick() stops here too
    out.candidates.push_back(view_of(candidate.deployment, candidate.score_ms));
  }

  // The authoritative answer: the identical call dns_handler makes
  // (load_units defaults to 0.0 there), so nothing can drift.
  out.result = map(ldns, client_block, domain, 0.0);
  if (out.result) {
    bool found = false;
    for (ExplainCandidate& view : out.candidates) {
      if (view.deployment == out.result->deployment) {
        view.chosen = true;
        found = true;
        break;
      }
    }
    if (!found) {
      // Chosen by the full mesh-column fallback scan, not the
      // precomputed list — surface it with the score that scan ranked.
      out.fallback_scan = true;
      ExplainCandidate view =
          view_of(out.result->deployment, score(out.result->deployment, out.unit));
      view.chosen = true;
      out.candidates.push_back(view);
    }
  }
  return out;
}

std::optional<MapResult> MapSnapshot::map(topo::LdnsId ldns,
                                          std::optional<topo::BlockId> client_block,
                                          std::string_view domain, double load_units) const {
  switch (config_.policy) {
    case MappingPolicy::end_user:
      if (client_block) {
        return map_target(world_->blocks.at(*client_block).ping_target, domain, load_units);
      }
      break;  // no ECS: degrade to NS
    case MappingPolicy::client_aware_ns:
      return map_cluster(ldns, domain, load_units);
    case MappingPolicy::ns_based:
      break;
  }
  return map_target(world_->ldnses.at(ldns).ping_target, domain, load_units);
}

}  // namespace eum::cdn
