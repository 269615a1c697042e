#include "cdn/map_snapshot.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "util/hash.h"

namespace eum::cdn {

namespace {

/// Padding in a ranking prefix longer than the network.
constexpr std::uint16_t kNoDeployment = 0xffff;

/// Stack scratch of one full-pass tile: the ranking prefixes of up to
/// kColumnTile units, so a prefix (2 * scoring_top_k) fits one tile.
constexpr std::size_t kTileCandidates = kColumnTile * 32;

}  // namespace

struct MapSnapshot::Ranking {
  /// unit_count x 2*top_k deployment ids: each unit's best deployments by
  /// (score, id) on its representative column, dead or alive, 0xffff-padded
  /// on a smaller network.
  std::vector<std::uint16_t> prefixes;
  /// The prefixes indexed by deployment (CSR): deployment d's units,
  /// ascending, are units[offsets[d], offsets[d + 1]).
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> units;

  /// Every unit whose prefix holds deployment d, ascending.
  [[nodiscard]] std::span<const std::uint32_t> units_of(std::size_t d) const {
    return {units.data() + offsets[d], offsets[d + 1] - offsets[d]};
  }
};

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
                                                      util::SimTime built_at,
                                                      const BuildInputs& inputs) {
  const CdnNetwork& network = mapping.network();
  if (network.size() > kNoDeployment) {
    throw std::invalid_argument{"MapSnapshot: ranking ids are 16-bit; at most 65535 clusters"};
  }
  if (2 * mapping.config().scoring_top_k > kTileCandidates) {
    throw std::invalid_argument{"MapSnapshot: scoring_top_k above " +
                                std::to_string(kTileCandidates / 2)};
  }

  auto snapshot = std::shared_ptr<MapSnapshot>{new MapSnapshot};
  snapshot->version_ = version;
  snapshot->built_at_ = built_at;
  snapshot->config_ = mapping.config();
  snapshot->world_ = &mapping.world();
  snapshot->mesh_ = &mapping.mesh();
  snapshot->scoring_ = &mapping.scoring();
  snapshot->loads_ = mapping.ledger_;
  snapshot->units_ = mapping.units_;
  snapshot->top_k_ = snapshot->config_.scoring_top_k;

  // Frozen per-cluster serving view of the network's current liveness.
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

  const MapSnapshot* prev = inputs.previous.get();
  const bool same_world =
      prev != nullptr && prev->world_ == snapshot->world_ && prev->mesh_ == snapshot->mesh_;

  // Per-unit candidate lists over the live deployments.
  const MappingUnits& units = *snapshot->units_;
  const std::size_t n_units = units.unit_count();
  const std::size_t n_deps = network.size();
  const PingMesh& mesh = mapping.mesh();
  const TrafficClass klass = snapshot->config_.traffic_class;
  const std::size_t top_k = snapshot->top_k_;

  std::vector<char> alive(n_deps, 0);
  for (std::size_t d = 0; d < n_deps; ++d) {
    alive[d] = snapshot->clusters_[d].servers.empty() ? 0 : 1;
  }

  const std::size_t prefix = 2 * top_k;
  const auto score_of = [&](std::size_t d, topo::PingTargetId rep) {
    return path_score(klass, mesh.rtt_ms(d, rep), mesh.loss_rate(d, rep));
  };
  const auto rep_of = [&](std::size_t u) {
    return units.representative(static_cast<MappingUnits::UnitId>(u));
  };

  // A unit's live list: the first top_k live ids of its ranking prefix.
  // The prefix is the column's (score, id) order cut at 2 * top_k, so any
  // live deployment past it ranks after every prefix entry — when the
  // prefix holds top_k live ones they are exactly the best top_k. Only
  // when it holds fewer is the list column-scanned: the unit ranks its
  // live column, with the same best_k (and so the same order) as every
  // other table.
  const auto prefix_of = [&](std::size_t u) {
    return snapshot->ranking_->prefixes.data() + u * prefix;
  };
  const auto column_scanned = [&](std::size_t u) {
    const std::uint16_t* ids = prefix_of(u);
    std::size_t live = 0;
    for (std::size_t i = 0; i < prefix && ids[i] != kNoDeployment; ++i) live += alive[ids[i]];
    return live < top_k;
  };
  const auto score_unit = [&](std::size_t u) {
    const topo::PingTargetId rep = rep_of(u);
    Candidate* out = &snapshot->by_unit_[u * top_k];
    if (column_scanned(u)) {
      best_k(
          n_deps, 1, top_k, alive, [&](std::size_t d, std::size_t) { return score_of(d, rep); },
          out);
      return;
    }
    const std::uint16_t* ids = prefix_of(u);
    for (std::size_t i = 0, found = 0; found < top_k; ++i) {
      if (alive[ids[i]] != 0) out[found++] = Candidate{ids[i], score_of(ids[i], rep)};
    }
  };

  // Shard `count` items across the pool: contiguous stripes of whole
  // `grain`-item tiles, more jobs than workers so stripes stay balanced
  // even when some units are costlier than others. The pool threshold
  // counts items (units), whatever the grain.
  const auto shard = [&](std::size_t count, std::size_t grain, const auto& run_range) {
    if (inputs.pool != nullptr && inputs.pool->worker_count() > 0 && count >= 256) {
      const std::size_t tiles = (count + grain - 1) / grain;
      const std::size_t jobs =
          std::min(tiles, (inputs.pool->worker_count() + 1) * std::size_t{8});
      const std::size_t stripe = (tiles + jobs - 1) / jobs * grain;
      inputs.pool->run(jobs, [&](std::size_t job) {
        const std::size_t lo = job * stripe;
        run_range(lo, std::min(lo + stripe, count));
      });
    } else {
      run_range(0, count);
    }
  };

  // Delta eligibility: the previous generation must have scored the same
  // partition under the same scoring config.
  const bool delta_ok =
      same_world && prev->top_k_ == top_k && prev->config_.traffic_class == klass &&
      prev->by_unit_.size() == n_units * top_k &&
      prev->units_->fingerprint() == units.fingerprint();

  if (!delta_ok) {
    // Full pass, a tile of units at a time: rank the tile's whole columns,
    // dead or alive, into their prefixes, then take each unit's live list
    // from its prefix. Representatives ascend with the unit id, so a tile's
    // columns lie close together in every deployment row.
    auto ranking = std::make_shared<Ranking>();
    ranking->prefixes.resize(n_units * prefix);
    snapshot->ranking_ = ranking;
    snapshot->by_unit_.resize(n_units * top_k);
    const std::size_t tile = std::min(kColumnTile, kTileCandidates / prefix);
    shard(n_units, tile, [&](std::size_t lo, std::size_t hi) {
      std::array<Candidate, kTileCandidates> best;
      std::array<topo::PingTargetId, kColumnTile> reps{};
      for (std::size_t u0 = lo; u0 < hi; u0 += tile) {
        const std::size_t columns = std::min(tile, hi - u0);
        for (std::size_t c = 0; c < columns; ++c) reps[c] = rep_of(u0 + c);
        best_k(
            n_deps, columns, prefix, {},
            [&](std::size_t d, std::size_t c) { return score_of(d, reps[c]); }, best.data());
        for (std::size_t c = 0; c < columns; ++c) {
          std::uint16_t* ids = ranking->prefixes.data() + (u0 + c) * prefix;
          for (std::size_t i = 0; i < prefix; ++i) {
            ids[i] = i < n_deps ? static_cast<std::uint16_t>(best[c * prefix + i].deployment)
                                : kNoDeployment;
          }
          score_unit(u0 + c);
        }
      }
    });

    // Index the prefixes by deployment: count each deployment's units,
    // turn the counts into offsets, then place the units in ascending order.
    ranking->offsets.assign(n_deps + 1, 0);
    for (const std::uint16_t id : ranking->prefixes) {
      if (id != kNoDeployment) ++ranking->offsets[id + 1];
    }
    for (std::size_t d = 0; d < n_deps; ++d) ranking->offsets[d + 1] += ranking->offsets[d];
    ranking->units.resize(ranking->offsets[n_deps]);
    std::vector<std::uint32_t> cursor(ranking->offsets.begin(), ranking->offsets.end() - 1);
    for (std::size_t u = 0; u < n_units; ++u) {
      const std::uint16_t* ids = prefix_of(u);
      for (std::size_t i = 0; i < prefix && ids[i] != kNoDeployment; ++i) {
        ranking->units[cursor[ids[i]]++] = static_cast<std::uint32_t>(u);
      }
      if (column_scanned(u)) snapshot->column_scanned_.push_back(static_cast<std::uint32_t>(u));
    }
    snapshot->units_rescored_ = n_units;
    return snapshot;
  }

  // Delta: a flap of deployment d can change a unit's list only if d died
  // while on it, or revived scoring at or before its kth entry
  // (conservative on score ties — re-scoring an unaffected unit is
  // harmless, missing an affected one is not; the differential tests pin
  // this). A list taken from its prefix lies inside it, and a deployment
  // past the prefix ranks after all of it, so only the units whose prefix
  // holds d can change that way. A column-scanned list can hold, or be
  // beaten by, deployments past its prefix: those units are tested
  // against every flap.
  snapshot->delta_ = true;
  snapshot->by_unit_ = prev->by_unit_;
  snapshot->ranking_ = prev->ranking_;
  std::vector<std::uint32_t> touched;
  for (std::size_t d = 0; d < n_deps; ++d) {
    const bool was_alive = !prev->clusters_[d].servers.empty();
    if (was_alive == (alive[d] != 0)) continue;
    const bool revived = !was_alive;
    const auto can_change = [&](std::uint32_t u) {
      const Candidate* row = &prev->by_unit_[u * top_k];
      if (revived) return score_of(d, rep_of(u)) <= row[top_k - 1].score_ms;
      for (std::size_t i = 0; i < top_k && std::isfinite(row[i].score_ms); ++i) {
        if (row[i].deployment == d) return true;
      }
      return false;
    };
    for (const std::uint32_t u : snapshot->ranking_->units_of(d)) {
      if (can_change(u)) touched.push_back(u);
    }
    for (const std::uint32_t u : prev->column_scanned_) {
      if (can_change(u)) touched.push_back(u);
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  shard(touched.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) score_unit(touched[i]);
  });
  // An untouched unit stays on its side of top_k live prefix entries: a
  // flap that could move it across would have touched it.
  std::set_difference(prev->column_scanned_.begin(), prev->column_scanned_.end(),
                      touched.begin(), touched.end(),
                      std::back_inserter(snapshot->column_scanned_));
  for (const std::uint32_t u : touched) {
    if (column_scanned(u)) snapshot->column_scanned_.push_back(u);
  }
  std::sort(snapshot->column_scanned_.begin(), snapshot->column_scanned_.end());
  snapshot->units_rescored_ = touched.size();
  return snapshot;
}

bool MapSnapshot::serving_equal(const MapSnapshot& other) const {
  if (units_->fingerprint() != other.units_->fingerprint()) return false;
  if (by_unit_ != other.by_unit_ || clusters_ != other.clusters_) return false;
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
  // Global load balancing: the best usable candidate of the unit's list.
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
