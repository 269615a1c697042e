// The map maker: the control plane of the mapping system (paper §2.2).
//
// "The map maker" in the paper continuously recomputes the topology
// scores and load-balancing decisions from fresh liveness and measurement
// data and distributes the resulting map to the name servers. This class
// is that loop's control side: it decides when the mapping system's
// published cdn::MapSnapshot is rebuilt, skips publishing rebuilds that
// would serve identically, and exports the control-plane metrics. The
// snapshot cell itself belongs to cdn::MappingSystem, which answers every
// query from it: serving threads load the pointer once per query
// (acquire) and answer entirely from that generation; retired snapshots
// die when their last in-flight reader drops the reference — no locks,
// no torn maps, no quiescent-state bookkeeping. A map maker adopts the
// mapping system's version 1 as its initial publish.
//
// Two drive modes share the same rebuild path:
//   - tick(): synchronous and SimClock-driven, for simulations and tests
//     (rebuild when the rescore interval elapses or the watched
//     LivenessMonitor reports transitions — the on-demand trigger).
//   - start(interval): a background thread republishing on a wall-clock
//     cadence, for the real UDP serving stack; request_rebuild() wakes it
//     early (the "push a new map now" path after an incident), and so
//     does every move of a watched monitor's clock (a probe round may be
//     due).
//
// Rebuilds read the mutable CdnNetwork (liveness flags): run liveness
// ticks and rebuilds from one thread, or synchronize them externally.
// The serving path never touches the network — only published snapshots.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "cdn/liveness.h"
#include "cdn/map_snapshot.h"
#include "cdn/mapping.h"
#include "cdn/mapping_units.h"
#include "obs/metrics.h"
#include "util/sim_clock.h"

namespace eum::control {

struct MapMakerConfig {
  /// Periodic rebuild cadence for the SimClock-driven tick() mode.
  std::int64_t rescore_interval_s = 30;
  /// Publish rebuilds whose serving state is unchanged (version still
  /// advances). Off by default: unchanged maps are counted as skipped
  /// publishes instead. Churn/soak tests turn this on to exercise the
  /// republish path at full rate.
  bool publish_unchanged = false;
  /// Registry for the eum_control_* metrics (borrowed; must outlive the
  /// map maker). nullptr gives the maker a private registry.
  obs::MetricsRegistry* registry = nullptr;
  /// Ignored. A rebuild only freezes the cluster views; the candidate
  /// lists are ranked once, at MappingSystem construction. Kept because
  /// the serving benchmark still sets it.
  std::size_t scoring_shards = 0;
  /// Test seam: runs on the rebuild thread after the snapshot is built
  /// but before it is published — the window where a liveness transition
  /// is too late for the built map and must survive into the next tick.
  std::function<void()> after_build_hook;
};

/// Why a rebuild ran — kept per-reason so operators can tell a control
/// loop that is rebuilding on schedule from one thrashing on liveness
/// flaps (surfaced by the admin channel's `snapshot.info`).
enum class RebuildReason : std::uint8_t {
  initial,    ///< the mapping system's version 1, adopted by the constructor
  periodic,   ///< tick() interval elapsed / background cadence fired
  liveness,   ///< a watched LivenessMonitor transition forced a publish
  requested,  ///< request_rebuild() woke the background thread
  manual,     ///< a direct rebuild_now() call
};

[[nodiscard]] const char* to_string(RebuildReason reason) noexcept;

class MapMaker {
 public:
  /// `mapping` is borrowed and must outlive the map maker; `clock` (also
  /// borrowed, may be nullptr) timestamps snapshots and paces tick().
  /// Adopts the mapping system's current map (its version 1 on a fresh
  /// system) as the initial publish, so current() is never null.
  explicit MapMaker(cdn::MappingSystem* mapping, const util::SimClock* clock = nullptr,
                    MapMakerConfig config = {});
  ~MapMaker();

  MapMaker(const MapMaker&) = delete;
  MapMaker& operator=(const MapMaker&) = delete;

  /// The mapping system's current map (cdn::MappingSystem::snapshot()).
  [[nodiscard]] std::shared_ptr<const cdn::MapSnapshot> current() const {
    return mapping_->snapshot();
  }

  [[nodiscard]] std::uint64_t version() const noexcept { return mapping_->version(); }

  /// The mapping system's version cell, for serve-path consumers that key
  /// caches on the published map generation (see
  /// cdn::MappingSystem::version_cell for the invalidation contract).
  [[nodiscard]] const std::atomic<std::uint64_t>& version_cell() const noexcept {
    return mapping_->version_cell();
  }

  /// No-op: the mapping system always answers from its published
  /// snapshot. Kept for callers that still make the call (the serving
  /// benchmark).
  void install_fast_path() {}

  /// Watch a liveness monitor (borrowed). tick() treats new transitions
  /// as an on-demand rebuild trigger, publishing even when the periodic
  /// interval has not elapsed; the background thread (start()) drives the
  /// monitor's probes itself — once at start, then on every move of the
  /// monitor's clock, the only event that can make a probe round due —
  /// and force-publishes on every transition. Install before start() —
  /// the monitor is probed from the rebuild thread, and start() subscribes
  /// to its clock (which must outlive the running thread).
  void watch(cdn::LivenessMonitor* monitor) noexcept { monitor_ = monitor; }

  /// Synchronous rebuild (reason: manual). With `force` (or
  /// config.publish_unchanged) the result is always published; otherwise a
  /// serving-identical rebuild is skipped. Returns the now-current
  /// snapshot either way.
  std::shared_ptr<const cdn::MapSnapshot> rebuild_now(bool force = false);

  /// SimClock-driven drive: rebuild when the rescore interval elapsed or
  /// the watched monitor transitioned since the last build. Returns true
  /// if a rebuild ran.
  bool tick();

  /// Start the background republish thread (idempotent). With a watched
  /// monitor, subscribes to the monitor's clock.
  void start(std::chrono::milliseconds interval);

  /// Unsubscribe from the monitor's clock, then stop and join the
  /// background thread; idempotent (also run by the destructor).
  void stop();

  /// Wake the background thread for an immediate forced rebuild.
  void request_rebuild();

  /// Update the map-age gauge from the wall clock (called on publish;
  /// exposition paths call it so dumped gauges are fresh).
  void refresh_gauges() noexcept;

  [[nodiscard]] obs::MetricsRegistry& registry() noexcept { return *registry_; }
  [[nodiscard]] std::uint64_t rebuilds() const noexcept { return rebuilds_->value(); }
  [[nodiscard]] std::uint64_t publishes() const noexcept { return publishes_->value(); }
  [[nodiscard]] std::uint64_t skipped_publishes() const noexcept {
    return publishes_skipped_->value();
  }
  [[nodiscard]] std::uint64_t rebuilds_for(RebuildReason reason) const noexcept {
    return rebuilds_by_reason_[static_cast<std::size_t>(reason)]->value();
  }
  /// The unit partition every snapshot scores against (the mapping
  /// system's).
  [[nodiscard]] const cdn::MappingUnits& units() const noexcept { return mapping_->units(); }

 private:
  static constexpr std::size_t kRebuildReasons = 5;

  [[nodiscard]] util::SimTime build_time() const noexcept;
  std::shared_ptr<const cdn::MapSnapshot> rebuild_with_reason(bool force, RebuildReason reason);
  void run_loop(std::chrono::milliseconds interval);

  cdn::MappingSystem* mapping_;
  const util::SimClock* clock_;
  MapMakerConfig config_;
  cdn::LivenessMonitor* monitor_ = nullptr;

  std::mutex rebuild_mutex_;  ///< serializes rebuild_now callers
  util::SimTime last_build_{};
  /// Monitor transition count already reflected in the published map.
  /// Sampled BEFORE a build reads liveness, stored after it publishes —
  /// a transition landing mid-build stays unseen and triggers the next
  /// wake. Atomic: the background thread stores it while tick() callers
  /// (other threads in tests) read it.
  std::atomic<std::uint64_t> transitions_seen_{0};
  std::chrono::steady_clock::time_point started_at_;
  std::atomic<std::int64_t> published_wall_us_{0};  ///< since started_at_

  std::thread thread_;
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  bool stop_requested_ = false;
  bool rebuild_requested_ = false;
  /// A monitor probe round may be due: set by start() and by every move of
  /// the monitor's clock.
  bool probe_due_ = false;
  /// The clock start() subscribed to (the watched monitor's), for stop().
  const util::SimClock* probed_clock_ = nullptr;
  util::SimClock::Subscription clock_subscription_ = 0;

  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;
  obs::Gauge* map_version_;
  obs::Gauge* map_age_s_;
  obs::Counter* rebuilds_;
  obs::Counter* rebuilds_by_reason_[kRebuildReasons];
  obs::Counter* publishes_;
  obs::Counter* publishes_skipped_;
  obs::Gauge* mapping_units_;
  obs::LatencyHistogram* rebuild_latency_;
  obs::LatencyHistogram* liveness_publish_latency_;
};

}  // namespace eum::control
