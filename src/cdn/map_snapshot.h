// Immutable, versioned map state: the one mapping decision (paper §2.2).
//
// The paper's map maker periodically recomputes cluster scores and
// load-balancing decisions and pushes the result to the name servers.
// A MapSnapshot is one such push: a frozen copy of everything a serving
// thread needs to answer a mapping query — the per-cluster alive-server
// lists and capacities as of build time, and the mapping policy/config.
// Every mapping decision — global load balancing over a unit's
// candidates, then local load balancing by rendezvous hashing inside the
// chosen cluster — is made here. MappingSystem owns the published
// generation in an RCU-style `std::atomic<std::shared_ptr<const
// MapSnapshot>>`, so every query resolves against exactly one consistent
// map version while the next one is being built, with no locks on the
// serving path.
//
// Scale structure (paper §5, "two orders of magnitude more mapping
// units"): candidate lists are ranked per MappingUnit, not per target —
// one representative column per group of latency-equivalent targets —
// and only once, by the mapping system's Scoring, dead or alive. Every
// generation borrows those tables with the unit partition; pick() skips
// a listed cluster that is not usable and scans the query's column when
// none is. So a build only freezes the cluster views: O(clusters), with
// no per-unit work on a liveness publish.
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
#include "cdn/mapping_units.h"
#include "cdn/ping_mesh.h"
#include "cdn/scoring.h"
#include "topo/world.h"
#include "util/sim_clock.h"

namespace eum::cdn {

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
    DeploymentId deployment = 0;
    float score_ms = 0.0F;   ///< the traffic class's score to the mapping unit
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
    MappingPolicy policy = MappingPolicy::ns_based;
    bool used_client_block = false;  ///< EU path actually took the block unit
    topo::PingTargetId unit = 0;     ///< ping target the decision scored against
    MappingUnits::UnitId mapping_unit = 0;  ///< scoring unit of that target
    std::size_t unit_size = 0;              ///< targets sharing the unit
    bool fallback_scan = false;      ///< chosen came from the full mesh scan
    std::vector<ExplainCandidate> candidates;
    std::optional<MapResult> result;  ///< exactly what map() returns
  };

  /// Freeze the mapping system's current liveness state: each cluster's
  /// live servers and capacity. The snapshot borrows the system's world,
  /// ping mesh, unit partition and Scoring (all immutable after
  /// construction) and charges its load ledger, so it must not outlive
  /// it. Reads the mutable CdnNetwork — callers must not mutate liveness
  /// concurrently with a build. MappingSystem builds and publishes its own
  /// generations.
  static std::shared_ptr<const MapSnapshot> build(const MappingSystem& mapping,
                                                  std::uint64_t version, util::SimTime built_at);

  // --- serving (lock-free, safe from any thread) -----------------------

  /// Policy-dispatching entry: the configured policy, degrading to the
  /// LDNS's own unit when end-user mapping lacks a client block.
  [[nodiscard]] std::optional<MapResult> map(topo::LdnsId ldns,
                                             std::optional<topo::BlockId> client_block,
                                             std::string_view domain,
                                             double load_units = 0.0) const;

  /// Map a ping-target unit (the EU / NS mapping unit).
  [[nodiscard]] std::optional<MapResult> map_target(topo::PingTargetId target,
                                                    std::string_view domain,
                                                    double load_units = 0.0) const;

  /// Map an LDNS's client cluster (the CANS unit, §6). An LDNS without
  /// clients is mapped by its own ping target's unit list.
  [[nodiscard]] std::optional<MapResult> map_cluster(topo::LdnsId ldns,
                                                     std::string_view domain,
                                                     double load_units = 0.0) const;

  /// Local load balancing alone (§2.2): up to servers_per_answer of the
  /// cluster's frozen live servers, ranked for `domain` by rendezvous
  /// hashing into `out` — the servers map() names whenever it picks this
  /// cluster. Fewer (possibly none) when the cluster is degraded or dead.
  void pick_servers(DeploymentId cluster, std::string_view domain, ServerList& out) const;

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
  [[nodiscard]] const MappingConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<Cluster>& clusters() const noexcept { return clusters_; }
  [[nodiscard]] const LoadLedger& loads() const noexcept { return *loads_; }
  [[nodiscard]] const MappingUnits& units() const noexcept { return *units_; }
  /// The candidate tables this snapshot serves from: the mapping system's
  /// own.
  [[nodiscard]] const Scoring& scoring() const noexcept { return *scoring_; }

  /// The candidate list ranked for a unit: its best top_k deployments,
  /// dead or alive, by (score, id) on the representative column — the
  /// Scoring table every generation shares.
  [[nodiscard]] std::span<const Candidate> unit_candidates(MappingUnits::UnitId unit) const {
    return scoring_->unit_candidates(unit);
  }

  /// Would this snapshot serve identically to `other`? True when the
  /// unit partition, the candidate tables and the frozen cluster views
  /// match — the map maker skips publishing such rebuilds (version and
  /// build time are ignored).
  [[nodiscard]] bool serving_equal(const MapSnapshot& other) const;

 private:
  MapSnapshot() = default;

  /// The CANS list of an LDNS, or its own target's unit list when it has
  /// no clients (or cluster scores were not precomputed).
  [[nodiscard]] std::span<const Candidate> cluster_candidates(topo::LdnsId ldns) const;
  [[nodiscard]] float score(std::size_t cluster, topo::PingTargetId target) const noexcept;
  [[nodiscard]] bool usable(std::size_t cluster, double load_units) const noexcept;
  [[nodiscard]] std::optional<MapResult> pick(std::span<const Candidate> candidates,
                                              topo::PingTargetId fallback_target,
                                              std::string_view domain, double load_units) const;

  std::uint64_t version_ = 0;
  util::SimTime built_at_{};
  MappingConfig config_;
  const topo::World* world_ = nullptr;
  const PingMesh* mesh_ = nullptr;
  /// Liveness-independent candidate tables: the mapping system's own
  /// Scoring, borrowed by every generation (liveness never moves a score,
  /// only candidate usability).
  const Scoring* scoring_ = nullptr;
  std::shared_ptr<const MappingUnits> units_;

  std::vector<Cluster> clusters_;
  std::shared_ptr<LoadLedger> loads_;
};

}  // namespace eum::cdn
