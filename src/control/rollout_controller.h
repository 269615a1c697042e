// Staged end-user mapping roll-out (paper §4).
//
// Akamai flipped resolvers from NS-based to end-user mapping in cohorts
// between Mar 28 and Apr 15 2014 and watched the metrics move (Figures
// 13-20). This controller is that switchboard: every LDNS hashes into a
// stable cohort, a ramp fraction decides how many cohorts are enabled,
// and the live DNS path asks `end_user_enabled(ldns)` per query — so a
// resolver flips exactly once, at a deterministic point of the ramp, and
// stays flipped. A whitelist covers the paper's pre-ramp testing phase
// (individual resolvers enabled ahead of their cohort).
//
// The fraction is a single atomic, so the timeline driver (a simulated
// calendar, or a wall-clock ramp in examples/ecs_dns_server) can advance
// the roll-out while UDP workers consult the gate lock-free.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "cdn/mapping.h"
#include "topo/world.h"
#include "util/sim_clock.h"

namespace eum::control {

struct RolloutRampConfig {
  util::Date ramp_start{2014, 3, 28};
  util::Date ramp_end{2014, 4, 15};
  /// Resolvers flip in this many waves; higher is smoother. 64 cohorts
  /// over the paper's 18-day ramp is ~3.5 cohorts/day.
  std::uint32_t cohorts = 64;
  /// Seed of the cohort-assignment hash (which resolvers flip early).
  std::uint64_t seed = 0x5eed;
};

class RolloutController {
 public:
  /// Throws std::invalid_argument on an inverted ramp or zero cohorts.
  explicit RolloutController(RolloutRampConfig config = {});

  /// Stable cohort of an LDNS in [0, cohorts).
  [[nodiscard]] std::uint32_t cohort(topo::LdnsId ldns) const noexcept;

  /// Continuous ramp fraction on a date: 0 before ramp_start, 1 at/after
  /// ramp_end, linear in between (the paper's Fig 13 x-axis).
  [[nodiscard]] double fraction_on(const util::Date& date) const;

  /// Advance the roll-out to a calendar date (sets the fraction).
  void set_date(const util::Date& date) { set_fraction(fraction_on(date)); }

  /// Drive the ramp directly (clamped to [0,1]). Thread-safe; serving
  /// threads observe the new fraction on their next query. The fraction
  /// is not part of the map version, so a change that flips a cohort
  /// reaches version-keyed caches (the UDP wire answer cache) only with
  /// the next publish: follow it with MapMaker::rebuild_now(true).
  void set_fraction(double fraction) noexcept;

  [[nodiscard]] double fraction() const noexcept {
    return fraction_.load(std::memory_order_relaxed);
  }

  /// Cohorts currently enabled (floor of fraction * cohorts, all at 1.0).
  [[nodiscard]] std::uint32_t enabled_cohorts() const noexcept;

  /// Always give this resolver end-user answers, regardless of the ramp
  /// (the pre-roll-out test population). Setup-time only: not safe to
  /// call while serving threads consult the gate.
  void whitelist(topo::LdnsId ldns);

  /// Is this resolver in the pre-ramp whitelist? Introspection for the
  /// admin channel's `explain` (read-only; same setup-time caveat as
  /// whitelist() does not apply to reads after setup).
  [[nodiscard]] bool is_whitelisted(topo::LdnsId ldns) const noexcept {
    return std::binary_search(whitelist_.begin(), whitelist_.end(), ldns);
  }

  /// The per-query decision: should this resolver's clients get end-user
  /// mapping right now? Lock-free; safe from any thread.
  [[nodiscard]] bool end_user_enabled(topo::LdnsId ldns) const noexcept;

  /// Adapter for cdn::MappingSystem::set_end_user_gate. The controller
  /// must outlive the mapping system's use of the gate.
  [[nodiscard]] cdn::EndUserGateFn gate() const;

  [[nodiscard]] const RolloutRampConfig& config() const noexcept { return config_; }

 private:
  RolloutRampConfig config_;
  std::atomic<double> fraction_{0.0};
  std::vector<topo::LdnsId> whitelist_;  ///< sorted for binary search
};

}  // namespace eum::control
