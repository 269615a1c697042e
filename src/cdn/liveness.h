// Real-time liveness monitoring (paper §2.2, "Network Measurement" (v):
// "Liveness and load information of all components of Akamai's CDN is
// collected in real-time, including servers and routers").
//
// The monitor probes every server each tick; `down_threshold` consecutive
// missed probes mark a server dead, and `up_threshold` consecutive
// successes bring it back (hysteresis against flapping). Cluster liveness
// follows its servers. Probe outcomes come from a caller-supplied health
// oracle, so tests and simulations inject failures; a production build
// would plug in real pings.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cdn/network.h"
#include "util/sim_clock.h"

namespace eum::cdn {

struct LivenessConfig {
  std::int64_t probe_interval_s = 2;
  int down_threshold = 3;  ///< consecutive failures before marking dead
  int up_threshold = 2;    ///< consecutive successes before marking alive
};

/// Ground truth for a probe: is (deployment, server) healthy right now?
using HealthOracle = std::function<bool(DeploymentId, std::size_t server_index)>;

class LivenessMonitor {
 public:
  /// `network` and `clock` are borrowed and must outlive the monitor.
  LivenessMonitor(CdnNetwork* network, const util::SimClock* clock, HealthOracle oracle,
                  LivenessConfig config = {});

  /// Run all probes due at the current clock time (no-op when called
  /// before the next probe interval elapses). Returns the number of
  /// liveness transitions applied to the network.
  std::size_t tick();

  /// Probes performed so far.
  [[nodiscard]] std::uint64_t probes() const noexcept { return probes_; }
  /// Transitions applied so far (dead->alive + alive->dead).
  [[nodiscard]] std::uint64_t transitions() const noexcept { return transitions_; }
  /// The clock the probe rounds are scheduled on: a round falls due only
  /// when it moves.
  [[nodiscard]] const util::SimClock& clock() const noexcept { return *clock_; }

  /// Worst-case detection latency implied by the configuration.
  [[nodiscard]] std::int64_t detection_latency_s() const noexcept {
    return config_.probe_interval_s * config_.down_threshold;
  }

 private:
  CdnNetwork* network_;
  const util::SimClock* clock_;
  HealthOracle oracle_;
  LivenessConfig config_;
  util::SimTime next_probe_;
  /// Per (deployment, server): consecutive failures (+) or successes (-).
  std::vector<std::vector<int>> streaks_;
  std::uint64_t probes_ = 0;
  std::uint64_t transitions_ = 0;
};

}  // namespace eum::cdn
