// Simulated time for the roll-out timeline and DNS TTL accounting.
//
// The paper's evaluation spans Jan 1 - Jun 30 2014 with the end-user
// mapping ramp between Mar 28 and Apr 15. We model time as seconds since
// a simulation epoch (Jan 1 2014 00:00 UTC) and provide calendar helpers
// for that window so figure harnesses can label series with real dates.
#pragma once

#include <atomic>
#include <compare>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace eum::util {

/// A point in simulated time, in seconds since Jan 1 2014 00:00 UTC.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t seconds) noexcept : seconds_(seconds) {}

  [[nodiscard]] constexpr std::int64_t seconds() const noexcept { return seconds_; }
  [[nodiscard]] constexpr double days() const noexcept {
    return static_cast<double>(seconds_) / 86400.0;
  }

  constexpr SimTime& operator+=(std::int64_t secs) noexcept {
    seconds_ += secs;
    return *this;
  }
  [[nodiscard]] friend constexpr SimTime operator+(SimTime t, std::int64_t secs) noexcept {
    return SimTime{t.seconds_ + secs};
  }
  [[nodiscard]] friend constexpr std::int64_t operator-(SimTime a, SimTime b) noexcept {
    return a.seconds_ - b.seconds_;
  }
  friend constexpr auto operator<=>(SimTime, SimTime) noexcept = default;

 private:
  std::int64_t seconds_ = 0;
};

/// Calendar date within the simulated year(s).
struct Date {
  int year = 2014;
  int month = 1;  ///< 1..12
  int day = 1;    ///< 1..31

  friend constexpr auto operator<=>(const Date&, const Date&) noexcept = default;
};

/// Days since Jan 1 2014 for a date (2014 and 2015 supported; 2014 is not a
/// leap year). Throws std::out_of_range for unsupported years or invalid dates.
[[nodiscard]] int day_index(const Date& date);

/// Inverse of day_index.
[[nodiscard]] Date date_from_day_index(int day_idx);

/// SimTime at 00:00 UTC of the given date.
[[nodiscard]] SimTime start_of(const Date& date);

/// "2014-03-28" style formatting.
[[nodiscard]] std::string to_string(const Date& date);

/// Three-letter month name ("Jan".."Dec"); month in 1..12.
[[nodiscard]] std::string month_name(int month);

/// A mutable simulation clock shared by simulation components.
///
/// Reads and writes are individually atomic (relaxed): a test thread may
/// advance simulated time while the map maker's rebuild thread samples it.
/// There is no cross-thread ordering guarantee beyond the value itself —
/// the clock carries time, not synchronization.
///
/// Components that act when time moves subscribe instead of polling: after
/// every advance() and set() the moving thread calls each subscriber once.
/// Subscribing works through a const reference (a LivenessMonitor holds a
/// `const SimClock*`); the subscriber list is not part of the clock's value.
/// A callback runs on the moving thread under the clock's subscriber lock,
/// so it must be short, must not throw, and must not call back into the
/// clock — advance(), set(), subscribe() and unsubscribe() would deadlock.
/// With no subscriber, a move costs one extra relaxed load.
class SimClock {
 public:
  /// Handle returned by subscribe(), passed back to unsubscribe().
  using Subscription = std::uint64_t;

  SimClock() = default;
  explicit SimClock(SimTime start) noexcept : now_(start.seconds()) {}
  SimClock(const SimClock&) = delete;
  SimClock& operator=(const SimClock&) = delete;

  [[nodiscard]] SimTime now() const noexcept {
    return SimTime{now_.load(std::memory_order_relaxed)};
  }
  void advance(std::int64_t seconds) noexcept {
    now_.fetch_add(seconds, std::memory_order_relaxed);
    notify();
  }
  void set(SimTime t) noexcept {
    now_.store(t.seconds(), std::memory_order_relaxed);
    notify();
  }

  /// Call `callback` after every later move of the clock. Thread-safe.
  [[nodiscard]] Subscription subscribe(std::function<void()> callback) const;

  /// Stop calling a subscriber. Returns only after any notification in
  /// flight has finished, so the subscriber may be destroyed right after.
  /// Thread-safe; an unknown handle is ignored.
  void unsubscribe(Subscription subscription) const noexcept;

 private:
  void notify() const noexcept {
    if (subscriber_count_.load(std::memory_order_relaxed) != 0) notify_subscribers();
  }
  void notify_subscribers() const noexcept;

  std::atomic<std::int64_t> now_{0};
  /// Mirrors subscribers_.size(); lets an unobserved move skip the lock.
  mutable std::atomic<std::size_t> subscriber_count_{0};
  /// Held while callbacks run, so unsubscribe() waits out a notification.
  mutable std::mutex subscribers_mutex_;
  mutable std::vector<std::pair<Subscription, std::function<void()>>> subscribers_;
  mutable Subscription next_subscription_ = 0;
};

}  // namespace eum::util
