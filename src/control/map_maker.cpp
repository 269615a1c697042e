#include "control/map_maker.h"

#include <stdexcept>
#include <utility>

namespace eum::control {

namespace {

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - since)
                                        .count());
}

}  // namespace

const char* to_string(RebuildReason reason) noexcept {
  switch (reason) {
    case RebuildReason::initial: return "initial";
    case RebuildReason::periodic: return "periodic";
    case RebuildReason::liveness: return "liveness";
    case RebuildReason::requested: return "requested";
    case RebuildReason::manual: return "manual";
  }
  return "unknown";
}

MapMaker::MapMaker(cdn::MappingSystem* mapping, const util::SimClock* clock,
                   MapMakerConfig config)
    : mapping_(mapping),
      clock_(clock),
      config_(config),
      started_at_(std::chrono::steady_clock::now()) {
  if (mapping_ == nullptr) {
    throw std::invalid_argument{"MapMaker: mapping system is required"};
  }
  if (config_.registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_registry_.get();
  } else {
    registry_ = config_.registry;
  }
  map_version_ = &registry_->gauge("eum_control_map_version",
                                   "version of the currently published map snapshot");
  map_age_s_ = &registry_->gauge("eum_control_map_age_seconds",
                                 "wall-clock seconds since the current map was published");
  rebuilds_ = &registry_->counter("eum_control_rebuilds_total", "map rebuilds attempted");
  for (std::size_t i = 0; i < kRebuildReasons; ++i) {
    rebuilds_by_reason_[i] =
        &registry_->counter("eum_control_rebuilds_by_reason_total",
                            "map rebuilds attempted, by trigger",
                            {{"reason", to_string(static_cast<RebuildReason>(i))}});
  }
  publishes_ = &registry_->counter("eum_control_publishes_total", "map snapshots published");
  publishes_skipped_ = &registry_->counter("eum_control_publishes_skipped_total",
                                           "rebuilds skipped as serving-identical");
  mapping_units_ = &registry_->gauge("eum_control_mapping_units",
                                     "mapping units in the scoring partition");
  rebuild_latency_ = &registry_->histogram("eum_control_rebuild_latency_us",
                                           "map snapshot build latency");
  liveness_publish_latency_ = &registry_->histogram(
      "eum_control_liveness_publish_latency_us",
      "background thread: wake that ran the probe round -> liveness publish");

  mapping_units_->set(static_cast<std::int64_t>(mapping_->units().unit_count()));
  // The mapping system built and published its map at construction:
  // adopt it as this maker's initial rebuild and publish, so serving can
  // start immediately.
  const std::shared_ptr<const cdn::MapSnapshot> adopted = mapping_->snapshot();
  rebuilds_->add();
  rebuilds_by_reason_[static_cast<std::size_t>(RebuildReason::initial)]->add();
  last_build_ = build_time();
  publishes_->add();
  map_version_->set(static_cast<std::int64_t>(adopted->version()));
  map_age_s_->set(0);
}

MapMaker::~MapMaker() { stop(); }

util::SimTime MapMaker::build_time() const noexcept {
  if (clock_ != nullptr) return clock_->now();
  return util::SimTime{static_cast<std::int64_t>(elapsed_us(started_at_) / 1'000'000U)};
}

std::shared_ptr<const cdn::MapSnapshot> MapMaker::rebuild_now(bool force) {
  return rebuild_with_reason(force, RebuildReason::manual);
}

std::shared_ptr<const cdn::MapSnapshot> MapMaker::rebuild_with_reason(bool force,
                                                                      RebuildReason reason) {
  const std::scoped_lock lock{rebuild_mutex_};
  // Sample the transition counter BEFORE the build reads liveness: a
  // transition that lands while scoring runs is not in this snapshot, so
  // recording the post-build counter would silently drop it — the next
  // tick must still see it as new.
  const std::uint64_t pre_transitions = monitor_ != nullptr ? monitor_->transitions() : 0;
  const auto t0 = std::chrono::steady_clock::now();
  bool publish = false;
  // The mapping system freezes the current liveness and calls back before
  // it would publish.
  std::shared_ptr<const cdn::MapSnapshot> current = mapping_->rebuild(
      build_time(), [&](const cdn::MapSnapshot& built, const cdn::MapSnapshot& live) {
        rebuild_latency_->record(elapsed_us(t0));
        if (config_.after_build_hook) config_.after_build_hook();
        rebuilds_->add();
        rebuilds_by_reason_[static_cast<std::size_t>(reason)]->add();
        last_build_ = build_time();
        if (monitor_ != nullptr) {
          transitions_seen_.store(pre_transitions, std::memory_order_relaxed);
        }
        publish = force || config_.publish_unchanged || !live.serving_equal(built);
        return publish;
      });
  if (!publish) {
    publishes_skipped_->add();
    return current;
  }
  publishes_->add();
  map_version_->set(static_cast<std::int64_t>(current->version()));
  published_wall_us_.store(static_cast<std::int64_t>(elapsed_us(started_at_)),
                           std::memory_order_relaxed);
  map_age_s_->set(0);
  return current;
}

bool MapMaker::tick() {
  refresh_gauges();
  const bool transitioned =
      monitor_ != nullptr &&
      monitor_->transitions() != transitions_seen_.load(std::memory_order_relaxed);
  const bool due =
      clock_ != nullptr && clock_->now() - last_build_ >= config_.rescore_interval_s;
  if (!transitioned && !due) return false;
  // Liveness transitions must reach the serving path: force the publish.
  (void)rebuild_with_reason(/*force=*/transitioned,
                            transitioned ? RebuildReason::liveness : RebuildReason::periodic);
  return true;
}

void MapMaker::start(std::chrono::milliseconds interval) {
  if (thread_.joinable()) return;
  {
    const std::scoped_lock lock{wake_mutex_};
    stop_requested_ = false;
    rebuild_requested_ = false;
    probe_due_ = monitor_ != nullptr;  // one probe round at start
  }
  if (monitor_ != nullptr) {
    probed_clock_ = &monitor_->clock();
    clock_subscription_ = probed_clock_->subscribe([this] {
      {
        const std::scoped_lock lock{wake_mutex_};
        probe_due_ = true;
      }
      wake_.notify_all();
    });
  }
  thread_ = std::thread{[this, interval] { run_loop(interval); }};
}

void MapMaker::run_loop(std::chrono::milliseconds interval) {
  // The thread sleeps until the periodic deadline or a wake: stop,
  // request_rebuild(), or a move of the watched monitor's clock. It
  // drives the monitor's probes itself (single-writer discipline: only
  // this thread mutates the network's liveness flags while serving runs)
  // and force-publishes on any transition — the paper's "liveness changes
  // reach the name servers in seconds" requirement. Probing on clock moves
  // alone is exact: LivenessMonitor::tick() applies a round only once
  // clock.now() reaches the next probe time, and that changes only when
  // the clock moves.
  auto next_periodic = std::chrono::steady_clock::now() + interval;
  std::unique_lock lock{wake_mutex_};
  while (!stop_requested_) {
    wake_.wait_until(lock, next_periodic, [this] {
      return stop_requested_ || rebuild_requested_ || probe_due_;
    });
    if (stop_requested_) break;
    const auto woke_at = std::chrono::steady_clock::now();
    const bool on_demand = std::exchange(rebuild_requested_, false);
    const bool probe = std::exchange(probe_due_, false);
    lock.unlock();
    bool transitioned = false;
    if (monitor_ != nullptr) {
      if (probe) (void)monitor_->tick();
      transitioned =
          monitor_->transitions() != transitions_seen_.load(std::memory_order_relaxed);
    }
    if (transitioned || on_demand || woke_at >= next_periodic) {
      // Liveness transitions and explicit requests must publish even when
      // serving-identical; reason priority mirrors the urgency.
      const RebuildReason reason = transitioned ? RebuildReason::liveness
                                   : on_demand  ? RebuildReason::requested
                                                : RebuildReason::periodic;
      (void)rebuild_with_reason(/*force=*/transitioned || on_demand, reason);
      if (transitioned) liveness_publish_latency_->record(elapsed_us(woke_at));
      refresh_gauges();
      next_periodic = std::chrono::steady_clock::now() + interval;
    }
    lock.lock();
  }
}

void MapMaker::stop() {
  // Unsubscribe first: once it returns, no clock move can reach this maker.
  if (probed_clock_ != nullptr) {
    probed_clock_->unsubscribe(clock_subscription_);
    probed_clock_ = nullptr;
  }
  {
    const std::scoped_lock lock{wake_mutex_};
    stop_requested_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void MapMaker::request_rebuild() {
  {
    const std::scoped_lock lock{wake_mutex_};
    rebuild_requested_ = true;
  }
  wake_.notify_all();
}

void MapMaker::refresh_gauges() noexcept {
  const std::int64_t age_us = static_cast<std::int64_t>(elapsed_us(started_at_)) -
                              published_wall_us_.load(std::memory_order_relaxed);
  map_age_s_->set(age_us / 1'000'000);
}

}  // namespace eum::control
