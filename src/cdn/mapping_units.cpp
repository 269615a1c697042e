#include "cdn/mapping_units.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "util/hash.h"

namespace eum::cdn {

namespace {

/// 128-bit latency-vector signature: two independently seeded 64-bit
/// chains over the quantized (rtt, loss) column. One 64-bit hash over
/// millions of targets leaves a real birthday-collision chance; two
/// independent chains push it below concern. A collision would silently
/// merge two unlike targets into one unit, so we spend the extra word.
struct Signature {
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  friend bool operator==(const Signature&, const Signature&) = default;
};

struct SignatureHash {
  std::size_t operator()(const Signature& s) const noexcept {
    return static_cast<std::size_t>(util::hash_combine(s.a, s.b));
  }
};

std::uint64_t quantize(float value, float step) noexcept {
  if (step <= 0.0F) return std::bit_cast<std::uint32_t>(value);
  return static_cast<std::uint64_t>(
      static_cast<std::int64_t>(std::floor(static_cast<double>(value) / step)));
}

}  // namespace

std::shared_ptr<const MappingUnits> MappingUnits::build(const PingMesh& mesh,
                                                        const MappingUnitsConfig& config) {
  if (config.epsilon_ms < 0.0F || !std::isfinite(config.epsilon_ms)) {
    throw std::invalid_argument{"MappingUnits: epsilon_ms must be finite and >= 0"};
  }
  const std::size_t n_targets = mesh.target_count();
  const std::size_t n_deps = mesh.deployment_count();
  const float loss_step = config.epsilon_ms > 0.0F ? 1e-3F : 0.0F;

  auto units = std::shared_ptr<MappingUnits>{new MappingUnits};
  units->unit_of_.resize(n_targets);

  std::unordered_map<Signature, UnitId, SignatureHash> by_signature;
  by_signature.reserve(n_targets);
  std::vector<std::uint32_t> unit_sizes;
  // Signatures fold a tile of consecutive targets at a time: a target's
  // column strides across the row-major mesh, a tile's columns share each
  // row's cache lines. Each target's chains still fold the deployments in
  // id order, and units are still numbered in target order.
  for (std::size_t t0 = 0; t0 < n_targets; t0 += kColumnTile) {
    const std::size_t columns = std::min(kColumnTile, n_targets - t0);
    std::array<Signature, kColumnTile> sigs;
    sigs.fill(Signature{0x9e3779b97f4a7c15ULL, 0x6a09e667f3bcc909ULL});
    for (std::size_t d = 0; d < n_deps; ++d) {
      for (std::size_t c = 0; c < columns; ++c) {
        const auto target = static_cast<topo::PingTargetId>(t0 + c);
        const std::uint64_t rtt_q = quantize(mesh.rtt_ms(d, target), config.epsilon_ms);
        const std::uint64_t loss_q = quantize(mesh.loss_rate(d, target), loss_step);
        Signature& sig = sigs[c];
        sig.a = util::hash_combine(util::hash_combine(sig.a, rtt_q), loss_q);
        sig.b = util::hash_combine(util::hash_combine(sig.b, loss_q ^ 0xabcdef0123456789ULL),
                                   rtt_q ^ 0x123456789abcdefULL);
      }
    }
    for (std::size_t c = 0; c < columns; ++c) {
      const auto [it, inserted] =
          by_signature.emplace(sigs[c], static_cast<UnitId>(unit_sizes.size()));
      if (inserted) unit_sizes.push_back(0);
      units->unit_of_[t0 + c] = it->second;
      ++unit_sizes[it->second];
    }
  }

  // Members grouped by unit via one counting pass (targets stay in order
  // within each unit, so representative() is the lowest member id).
  units->member_offsets_.assign(unit_sizes.size() + 1, 0);
  for (std::size_t u = 0; u < unit_sizes.size(); ++u) {
    units->member_offsets_[u + 1] = units->member_offsets_[u] + unit_sizes[u];
  }
  units->member_data_.resize(n_targets);
  std::vector<std::uint32_t> cursor(units->member_offsets_.begin(),
                                    units->member_offsets_.end() - 1);
  for (std::size_t t = 0; t < n_targets; ++t) {
    units->member_data_[cursor[units->unit_of_[t]]++] = static_cast<topo::PingTargetId>(t);
  }

  std::uint64_t fp = util::fnv1a64("mapping-units");
  fp = util::hash_combine(fp, static_cast<std::uint64_t>(unit_sizes.size()));
  for (const UnitId unit : units->unit_of_) fp = util::hash_combine(fp, unit);
  units->fingerprint_ = fp;
  return units;
}

}  // namespace eum::cdn
