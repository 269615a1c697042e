// Mapping units: the map maker's unit of scoring work (paper §2.2, §5).
//
// "The new system needed to handle an increase of two orders of magnitude
// in the number of mapping units" — scoring every /24 block (or even
// every ping target) independently on every rebuild does not scale to a
// paper-sized world. Following the clustering approach of Gürsun (see
// PAPERS.md), we partition the ping-target space by latency vector: two
// targets whose measured (rtt, loss) vectors across all deployments agree
// to within epsilon are interchangeable for mapping purposes and share
// one mapping unit. One representative target is scored per unit and the
// result serves every member.
//
// The partition is a pure function of the ping mesh and epsilon — it is
// computed once, shared across snapshot generations (liveness does not
// move a target between units), and is the granularity at which Scoring
// ranks candidate lists, once per mapping system.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cdn/ping_mesh.h"
#include "topo/world.h"

namespace eum::cdn {

struct MappingUnitsConfig {
  /// Latency-vector quantization step. 0 groups only bit-identical
  /// columns (the exactness mode: unit scoring then reproduces per-target
  /// scoring exactly); larger values trade fidelity for fewer units.
  /// Loss rates quantize at a fixed 1e-3 step whenever epsilon > 0.
  float epsilon_ms = 0.0F;
};

class MappingUnits {
 public:
  using UnitId = std::uint32_t;

  /// Partition the mesh's targets. Deterministic: the same mesh and
  /// epsilon always yield the same units with the same ids (units are
  /// numbered by first appearance in target order).
  static std::shared_ptr<const MappingUnits> build(const PingMesh& mesh,
                                                   const MappingUnitsConfig& config = {});

  /// The unit a ping target belongs to.
  [[nodiscard]] UnitId unit_of(topo::PingTargetId target) const {
    return unit_of_.at(target);
  }

  /// All member targets of a unit, in target order.
  [[nodiscard]] std::span<const topo::PingTargetId> members(UnitId unit) const {
    if (static_cast<std::size_t>(unit) + 1 >= member_offsets_.size()) return {};
    return {member_data_.data() + member_offsets_[unit],
            member_offsets_[static_cast<std::size_t>(unit) + 1] - member_offsets_[unit]};
  }

  /// The target scored on the unit's behalf (its first member).
  [[nodiscard]] topo::PingTargetId representative(UnitId unit) const {
    return member_data_.at(member_offsets_.at(unit));
  }

  [[nodiscard]] std::size_t unit_count() const noexcept { return member_offsets_.size() - 1; }
  [[nodiscard]] std::size_t target_count() const noexcept { return unit_of_.size(); }

  /// Content hash of the whole partition — equal fingerprints mean two
  /// independently built partitions agree (the determinism tests' check,
  /// and serving_equal's identity test across map makers).
  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fingerprint_; }

 private:
  MappingUnits() = default;

  std::vector<UnitId> unit_of_;                 ///< per target
  std::vector<std::uint32_t> member_offsets_;   ///< unit_count + 1 (sentinel)
  std::vector<topo::PingTargetId> member_data_; ///< members grouped by unit
  std::uint64_t fingerprint_ = 0;
};

}  // namespace eum::cdn
