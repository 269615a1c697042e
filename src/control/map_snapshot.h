// Immutable, versioned map state published by the map maker (paper §2.2).
//
// The paper's map maker periodically recomputes cluster scores and
// load-balancing decisions and pushes the result to the name servers.
// A MapSnapshot is one such push: a frozen copy of everything a serving
// thread needs to answer a mapping query — per-mapping-unit candidate
// lists over the live deployments, the per-cluster alive-server lists and
// capacities as of build time, and the mapping policy/config. Snapshots
// are published through an RCU-style
// `std::atomic<std::shared_ptr<const MapSnapshot>>` (see MapMaker), so
// every query resolves against exactly one consistent map version while
// the next one is being built, with no locks on the serving path.
//
// Scale structure (paper §5, "two orders of magnitude more mapping
// units"): scoring happens per MappingUnit, not per target — one
// representative column per group of latency-equivalent targets — and is
// sharded across a ShardPool. When the previous snapshot is supplied, a
// build is a *delta*: only units whose candidate lists can be affected by
// the liveness transitions since that snapshot are re-scored; the rest
// copy over. The liveness-independent CANS table, each unit's ranking
// prefix (its best 2 * top_k deployments, dead or alive, which a delta
// re-scores from) and the unit partition itself are shared across
// generations.
//
// The only mutable state a snapshot touches is the LoadLedger: a shared
// array of per-cluster atomic load accumulators that survives republishes
// (the paper's load state is continuous even as scores change).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "cdn/mapping.h"
#include "cdn/ping_mesh.h"
#include "cdn/scoring.h"
#include "control/mapping_units.h"
#include "topo/world.h"
#include "util/shard_pool.h"
#include "util/sim_clock.h"

namespace eum::control {

/// Per-cluster load accounting shared by every snapshot generation.
/// Charging is a wait-free atomic add, so concurrent serving threads and
/// the map maker's usability checks never need a lock.
class LoadLedger {
 public:
  explicit LoadLedger(std::size_t clusters);

  /// Charge `units` to a cluster; returns the load after the charge.
  double add(std::size_t cluster, double units) noexcept;

  [[nodiscard]] double load(std::size_t cluster) const noexcept {
    return loads_[cluster].load(std::memory_order_relaxed);
  }

  void reset() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::size_t size_;
  std::unique_ptr<std::atomic<double>[]> loads_;
};

class MapSnapshot {
 public:
  /// One cluster's serving view as of build time. A dead cluster (or one
  /// with no live servers) has an empty server list and is skipped.
  struct Cluster {
    double capacity = 0.0;
    std::vector<net::IpAddr> servers;  ///< alive servers, frozen at build

    friend bool operator==(const Cluster&, const Cluster&) = default;
  };

  /// One candidate cluster's view in an explain() report, in the order
  /// pick() would have considered it.
  struct ExplainCandidate {
    cdn::DeploymentId deployment = 0;
    float score_ms = 0.0F;   ///< mesh RTT to the mapping unit
    bool alive = false;      ///< had live servers at snapshot build
    bool usable = false;     ///< usable() at zero marginal load
    double load = 0.0;       ///< ledger load at explain time
    double capacity = 0.0;
    bool chosen = false;     ///< this cluster is the one map() returned
  };

  /// The full decision trail for one (ldns, block, domain) query against
  /// this snapshot — what the admin channel's `explain` prints.
  struct MapExplanation {
    std::uint64_t version = 0;
    cdn::MappingPolicy policy = cdn::MappingPolicy::ns_based;
    bool used_client_block = false;  ///< EU path actually took the block unit
    topo::PingTargetId unit = 0;     ///< ping target the decision scored against
    MappingUnits::UnitId mapping_unit = 0;  ///< scoring unit of that target
    std::size_t unit_size = 0;              ///< targets sharing the unit
    bool fallback_scan = false;      ///< chosen came from the full mesh scan
    std::vector<ExplainCandidate> candidates;
    std::optional<cdn::MapResult> result;  ///< exactly what map() returns
  };

  /// Scale machinery for a build. `units` is required; `pool` (borrowed,
  /// may be null for serial builds) shards unit scoring; `previous`
  /// enables the delta path — when the same unit partition and config are
  /// shared, only units touched by the liveness transitions since
  /// `previous` are re-scored.
  struct BuildInputs {
    std::shared_ptr<const MappingUnits> units;
    util::ShardPool* pool = nullptr;
    std::shared_ptr<const MapSnapshot> previous;
  };

  /// Freeze the mapping system's current scoring + liveness state. The
  /// snapshot borrows the system's world and ping mesh (both immutable
  /// after construction) and must not outlive it, and shares its Scoring
  /// (MappingSystem::shared_scoring); `loads` is shared
  /// across generations. Reads the mutable CdnNetwork — callers must not
  /// mutate liveness concurrently with a build (see MapMaker). Throws
  /// std::invalid_argument for a network of more than 65535 deployments
  /// or a scoring_top_k above 256.
  static std::shared_ptr<const MapSnapshot> build(const cdn::MappingSystem& mapping,
                                                  std::shared_ptr<LoadLedger> loads,
                                                  std::uint64_t version, util::SimTime built_at,
                                                  const BuildInputs& inputs);

  /// Convenience build: a self-contained full (non-delta, serial) build
  /// with an exact epsilon-0 unit partition derived from the mesh.
  static std::shared_ptr<const MapSnapshot> build(const cdn::MappingSystem& mapping,
                                                  std::shared_ptr<LoadLedger> loads,
                                                  std::uint64_t version,
                                                  util::SimTime built_at);

  // --- serving (lock-free, safe from any thread) -----------------------

  /// Policy-dispatching entry, mirroring cdn::MappingSystem::map but
  /// resolved entirely against this snapshot's frozen state.
  [[nodiscard]] std::optional<cdn::MapResult> map(topo::LdnsId ldns,
                                                  std::optional<topo::BlockId> client_block,
                                                  std::string_view domain,
                                                  double load_units = 0.0) const;

  /// Map a ping-target unit (the EU / NS mapping unit).
  [[nodiscard]] std::optional<cdn::MapResult> map_target(topo::PingTargetId target,
                                                         std::string_view domain,
                                                         double load_units = 0.0) const;

  /// Map an LDNS's client cluster (the CANS unit, §6).
  [[nodiscard]] std::optional<cdn::MapResult> map_cluster(topo::LdnsId ldns,
                                                          std::string_view domain,
                                                          double load_units = 0.0) const;

  /// Replay the decision map() would make for this query and report every
  /// candidate considered. The result field IS map()'s answer at zero
  /// marginal load — the same call the serve path's dns_handler makes —
  /// so an explain is guaranteed consistent with what was served at this
  /// snapshot version. Read-only apart from the (zero-unit, no-op) ledger
  /// charge inside pick().
  [[nodiscard]] MapExplanation explain(topo::LdnsId ldns,
                                       std::optional<topo::BlockId> client_block,
                                       std::string_view domain) const;

  // --- identity --------------------------------------------------------

  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] util::SimTime built_at() const noexcept { return built_at_; }
  [[nodiscard]] const cdn::MappingConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<Cluster>& clusters() const noexcept { return clusters_; }
  [[nodiscard]] const LoadLedger& loads() const noexcept { return *loads_; }
  [[nodiscard]] const MappingUnits& units() const noexcept { return *units_; }

  /// The candidate list scored for a unit: the best top_k *live*
  /// deployments by the representative column, (score, id)-ordered,
  /// infinity-padded when fewer than top_k are alive.
  [[nodiscard]] std::span<const cdn::Candidate> unit_candidates(MappingUnits::UnitId unit) const {
    return {by_unit_.data() + static_cast<std::size_t>(unit) * top_k_, top_k_};
  }

  /// Was this build a delta (previous snapshot's tables reused)?
  [[nodiscard]] bool delta() const noexcept { return delta_; }
  /// Units actually re-scored by this build (== unit_count for a full build).
  [[nodiscard]] std::size_t units_rescored() const noexcept { return units_rescored_; }

  /// Would this snapshot serve identically to `other`? True when the
  /// unit partition, unit candidate tables, CANS tables and frozen
  /// cluster views match — the map maker skips publishing such rebuilds
  /// (version and build time are ignored).
  [[nodiscard]] bool serving_equal(const MapSnapshot& other) const;

 private:
  MapSnapshot() = default;

  [[nodiscard]] bool usable(std::size_t cluster, double load_units) const noexcept;
  [[nodiscard]] std::optional<cdn::MapResult> pick(std::span<const cdn::Candidate> candidates,
                                                   topo::PingTargetId fallback_target,
                                                   std::string_view domain,
                                                   double load_units) const;

  std::uint64_t version_ = 0;
  util::SimTime built_at_{};
  cdn::MappingConfig config_;
  const topo::World* world_ = nullptr;
  const cdn::PingMesh* mesh_ = nullptr;

  std::shared_ptr<const MappingUnits> units_;
  std::size_t top_k_ = 0;
  std::vector<cdn::Candidate> by_unit_;  ///< unit_count x top_k, live-only
  /// unit_count x 2*top_k deployment ids: each unit's best deployments by
  /// (score, id) on its representative column, dead or alive, 0xffff-padded
  /// on a smaller network. Liveness never moves a score, so a full build
  /// fills it and every delta generation shares it: a re-scored unit takes
  /// its first top_k live ids and scans the column only when fewer remain.
  std::shared_ptr<const std::vector<std::uint16_t>> ranking_;
  /// Liveness-independent CANS cluster table + per-LDNS fallback targets:
  /// the mapping system's own Scoring, shared by every generation
  /// (liveness never moves a score, only candidate usability).
  std::shared_ptr<const cdn::Scoring> base_scoring_;
  bool delta_ = false;
  std::size_t units_rescored_ = 0;

  std::vector<Cluster> clusters_;
  std::shared_ptr<LoadLedger> loads_;
};

}  // namespace eum::control
