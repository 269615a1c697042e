// Process-wide observability: a registry of named, optionally-labelled
// counters, gauges, and sharded log-bucket latency histograms.
//
// The paper's evaluation (Figures 13-23) is production telemetry; every
// layer of the serving stack here is instrumented the same way so the
// repo can answer "where does the time go" before optimising. Design
// constraints, in order:
//
//   1. Recording on the UDP worker threads is wait-free: counters are
//      single relaxed atomics, histogram recording is two relaxed
//      fetch_adds into a per-thread shard (no locks, no CAS loops).
//   2. Snapshots are mergeable: `HistogramSnapshot::merge` is an
//      elementwise add, so per-shard (and per-process) views compose
//      associatively.
//   3. One exposition source, three formats: Prometheus text, the
//      repo's `stats::Table`, and a JSON dump the benches use to emit
//      BENCH_*.json artifacts.
//
// Metric naming scheme: `eum_<module>_<name>` with `_total` on
// monotonic counters and `_us` on microsecond histograms (see
// DESIGN.md "Observability").
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/table.h"

namespace eum::obs {

/// Label set attached to a metric ("worker" = "3"). Kept sorted by key
/// once registered so (name, labels) identity is canonical.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter; wait-free recording from any thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous value (cache occupancy, queue depth). Unlike counters,
/// gauges mirror live state, so MetricsRegistry::reset leaves them alone.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) noexcept { value_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// A merged, immutable view of a histogram: per-bucket counts plus count
/// and sum. Merging is an elementwise add, hence associative and
/// commutative — shard views, thread views, and process views all
/// compose the same way.
struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void merge(const HistogramSnapshot& other);

  /// Quantile estimate (q in [0,100]) by linear interpolation inside
  /// the covering bucket; error is bounded by one bucket width (<= 1
  /// below 32, <= 6.25% relative above). 0 when empty.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Log-bucket latency histogram (HdrHistogram-style log-linear layout):
/// values 0..31 get exact unit buckets, larger values get 16 linear
/// sub-buckets per power of two (<= 6.25% relative bucket width), and
/// everything is clamped at 2^32-1 — microseconds up to ~71 minutes.
///
/// Recording is wait-free: each thread writes a private shard (round-
/// robin assignment on first use), so worker threads never contend on a
/// cache line. Snapshots merge the shards.
class LatencyHistogram {
 public:
  static constexpr unsigned kSubBucketBits = 5;
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBucketBits;  // 32
  static constexpr std::uint64_t kHalf = kSubBuckets / 2;               // 16
  static constexpr unsigned kMaxBits = 32;
  static constexpr std::uint64_t kMaxValue = (1ull << kMaxBits) - 1;
  static constexpr std::size_t kBucketCount =
      (kMaxBits - kSubBucketBits) * kHalf + kSubBuckets;  // 464

  [[nodiscard]] static constexpr std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v > kMaxValue) v = kMaxValue;
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const unsigned exp = static_cast<unsigned>(std::bit_width(v)) - kSubBucketBits;
    return static_cast<std::size_t>(exp) * kHalf + static_cast<std::size_t>(v >> exp);
  }
  /// Inclusive lower edge of bucket i.
  [[nodiscard]] static constexpr std::uint64_t bucket_lower(std::size_t i) noexcept {
    if (i < kSubBuckets) return i;
    const std::size_t exp = i / kHalf - 1;
    return (i - exp * kHalf) << exp;
  }
  /// Exclusive upper edge of bucket i.
  [[nodiscard]] static constexpr std::uint64_t bucket_upper(std::size_t i) noexcept {
    if (i < kSubBuckets) return i + 1;
    const std::size_t exp = i / kHalf - 1;
    return (i - exp * kHalf + 1) << exp;
  }

  /// `shards` is rounded up to a power of two.
  explicit LatencyHistogram(std::size_t shards = 8);

  /// Wait-free: two relaxed fetch_adds on this thread's shard.
  void record(std::uint64_t value) noexcept;

  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// Zero all buckets. Not linearizable against concurrent record()
  /// calls (a racing increment may survive or vanish) — the same
  /// contract as Counter::reset.
  void reset() noexcept;

  [[nodiscard]] std::size_t shard_count() const noexcept { return shard_count_; }

 private:
  [[nodiscard]] std::size_t shard_slot() const noexcept;

  std::size_t shard_count_;
  std::size_t shard_mask_;
  /// Shard-major bucket counts: shard s owns [s*kBucketCount, (s+1)*kBucketCount).
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  struct alignas(64) ShardSum {
    std::atomic<std::uint64_t> sum{0};
  };
  std::unique_ptr<ShardSum[]> sums_;
};

/// Point-in-time copy of every metric in a registry, used by all three
/// exposition formats. Samples are sorted by (name, labels).
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    Labels labels;
    std::string help;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    Labels labels;
    std::string help;
    std::int64_t value = 0;
  };
  struct HistogramSample {
    std::string name;
    Labels labels;
    std::string help;
    HistogramSnapshot hist;
  };
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Prometheus text exposition format (counters as `_total`, histograms
/// as cumulative `_bucket{le=...}` / `_sum` / `_count`; only occupied
/// buckets plus `+Inf` are emitted).
[[nodiscard]] std::string render_prometheus(const MetricsSnapshot& snapshot);

/// Two-column ("metric", "value") stats::Table; histograms render as
/// count/mean/p50/p90/p99/p999 rows.
[[nodiscard]] stats::Table render_table(const MetricsSnapshot& snapshot);

/// JSON object {"counters":{...},"gauges":{...},"histograms":{...}} —
/// the payload the benches embed in BENCH_*.json artifacts.
[[nodiscard]] std::string render_json(const MetricsSnapshot& snapshot);

/// Registry of named metrics. Registration (counter/gauge/histogram) is
/// mutex-protected and idempotent: asking for an existing (name, labels)
/// pair returns the same object, so components sharing a registry share
/// the metric. Returned references stay valid for the registry's
/// lifetime — components cache them and record lock-free thereafter.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Names must match [a-zA-Z_][a-zA-Z0-9_]*; registering one name as
  /// two different kinds throws std::invalid_argument.
  Counter& counter(std::string_view name, std::string_view help = "", Labels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help = "", Labels labels = {});
  LatencyHistogram& histogram(std::string_view name, std::string_view help = "",
                              Labels labels = {}, std::size_t shards = 8);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Sum of every counter series named `name` whose labels include each
  /// pair of `match` (`{{"worker", "0"}}` picks one worker; empty sums
  /// them all). Registers nothing; throws std::out_of_range when no
  /// series matches, so a mistyped name fails instead of reading 0.
  [[nodiscard]] std::uint64_t counter_total(std::string_view name,
                                            const Labels& match = {}) const;

  /// The one reset: monotonic state is zeroed — counters to 0,
  /// histograms emptied — while gauges are left untouched, because they
  /// mirror live state (a cache's entry count survives a reset).
  void reset();

  // Convenience single-call exposition.
  [[nodiscard]] std::string prometheus() const { return render_prometheus(snapshot()); }
  [[nodiscard]] stats::Table table() const { return render_table(snapshot()); }
  [[nodiscard]] std::string json() const { return render_json(snapshot()); }

 private:
  /// (name, canonical label string) -> metric; map keeps exposition sorted.
  using Key = std::pair<std::string, std::string>;
  template <typename T>
  struct Entry {
    Labels labels;
    std::string help;
    std::unique_ptr<T> metric;
  };

  enum class Kind { counter, gauge, histogram };
  [[nodiscard]] static Key make_key(std::string_view name, Labels& labels);
  void check_kind(const Key& key, Kind kind) const;  // caller holds mutex_

  mutable std::mutex mutex_;
  std::map<Key, Entry<Counter>> counters_;
  std::map<Key, Entry<Gauge>> gauges_;
  std::map<Key, Entry<LatencyHistogram>> histograms_;
};

}  // namespace eum::obs
