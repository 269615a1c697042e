// The serving benchmark's own arithmetic: when a percentile may be
// reported, how one offered-rate point is judged, where the passing
// prefix of a rate search ends, and how on-CPU time is charged to the
// server's threads. Kept free of I/O so tests/bench_math_test.cpp pins it.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string_view>
#include <vector>

namespace perfbench {

/// A percentile `q` (0..100) of `samples` values is reported only when at
/// least ten samples lie beyond it, so it never rests on one or two
/// outliers: p99 needs 1,000 samples, p99.9 needs 10,000.
[[nodiscard]] constexpr bool percentile_supported(std::uint64_t samples, double q) noexcept {
  return static_cast<double>(samples) * (100.0 - q) >= 1000.0 - 1e-6;
}

/// The latency objective a rate point must meet.
struct Slo {
  double p99_us = 1000.0;
  double max_error_rate = 0.001;
  /// Backlog bound: after the last scheduled send, the server must drain
  /// its queue within this long, or the queue was growing.
  double max_drain_ms = 5.0;
  /// A point whose generator ran later than this share of the p99 target
  /// (send-lag p99) says nothing about the server.
  double max_send_lag_share = 0.25;
};

/// What one open-loop window at a fixed offered rate measured.
struct RatePoint {
  double offered_qps = 0.0;
  std::uint64_t samples = 0;  ///< answered queries (latency samples)
  double p99_us = 0.0;
  double error_rate = 0.0;  ///< unanswered / offered
  double drain_ms = 0.0;    ///< last answer minus last scheduled send
  double send_lag_p99_us = 0.0;
};

enum class Verdict : std::uint8_t {
  pass,
  server_failed,      ///< p99, error rate or backlog over the objective
  generator_invalid,  ///< the generator fell behind its own schedule
  undersampled,       ///< too few answers for a p99
};

[[nodiscard]] constexpr const char* to_string(Verdict v) noexcept {
  switch (v) {
    case Verdict::pass: return "pass";
    case Verdict::server_failed: return "server_failed";
    case Verdict::generator_invalid: return "generator_invalid";
    case Verdict::undersampled: return "undersampled";
  }
  return "unknown";
}

/// Judge one point. Generator lag is checked first: a late generator
/// inflates every latency it charges, so the point cannot fail the server.
[[nodiscard]] constexpr Verdict judge(const RatePoint& p, const Slo& slo) noexcept {
  if (p.send_lag_p99_us > slo.max_send_lag_share * slo.p99_us) return Verdict::generator_invalid;
  if (p.error_rate > slo.max_error_rate || p.drain_ms > slo.max_drain_ms) {
    return Verdict::server_failed;
  }
  if (!percentile_supported(p.samples, 99.0)) return Verdict::undersampled;
  return p.p99_us > slo.p99_us ? Verdict::server_failed : Verdict::pass;
}

struct JudgedPoint {
  RatePoint point;
  Verdict verdict = Verdict::pass;
};

struct PrefixTop {
  double qps = 0.0;                 ///< 0 when the lowest point failed
  Verdict breaker = Verdict::pass;  ///< verdict of the first non-passing point
};

/// The top of the passing prefix: walk the points in ascending offered
/// rate and return the last rate before the first point that did not
/// pass. A pass above a failure is not counted: the curve is only trusted
/// up to its first break.
[[nodiscard]] inline PrefixTop passing_prefix_top(std::vector<JudgedPoint> points) {
  std::stable_sort(points.begin(), points.end(), [](const JudgedPoint& a, const JudgedPoint& b) {
    return a.point.offered_qps < b.point.offered_qps;
  });
  PrefixTop top;
  for (const JudgedPoint& p : points) {
    if (p.verdict != Verdict::pass) {
      top.breaker = p.verdict;
      break;
    }
    top.qps = p.point.offered_qps;
  }
  return top;
}

/// Offered-rate search: a coarse geometric ladder from `start_qps` until
/// the first non-passing point (or `cap_qps`), then geometric bisection
/// between the last coarse pass and that point until they are within
/// `fine_step` of each other. The passing-prefix top of the probed points
/// is then the bisection's last pass. `probe(qps)` runs one point and
/// returns its judged result.
template <typename Probe>
[[nodiscard]] std::vector<JudgedPoint> search_rates(double start_qps, double coarse_step,
                                                    double fine_step, double cap_qps,
                                                    Probe&& probe) {
  std::vector<JudgedPoint> points;
  double last_pass = 0.0;
  double first_stop = 0.0;
  for (double qps = start_qps; qps <= cap_qps; qps *= coarse_step) {
    points.push_back(probe(qps));
    if (points.back().verdict != Verdict::pass) {
      first_stop = qps;
      break;
    }
    last_pass = qps;
  }
  if (last_pass == 0.0 || first_stop == 0.0) return points;
  double lo = last_pass;
  double hi = first_stop;
  while (hi / lo > fine_step) {
    const double mid = std::sqrt(lo * hi);
    points.push_back(probe(mid));
    (points.back().verdict == Verdict::pass ? lo : hi) = mid;
  }
  return points;
}

/// On-CPU nanoseconds from a /proc/<pid>/task/<tid>/schedstat line:
/// "<ns on cpu> <ns waiting on a runqueue> <timeslices>".
[[nodiscard]] inline std::optional<std::uint64_t> parse_schedstat(std::string_view line) {
  std::uint64_t ns = 0;
  const char* end = line.data() + line.size();
  const auto [ptr, ec] = std::from_chars(line.data(), end, ns);
  if (ec != std::errc{} || ptr == line.data()) return std::nullopt;
  if (ptr != end && *ptr != ' ' && *ptr != '\n') return std::nullopt;
  return ns;
}

/// Per-thread on-CPU ns, keyed by thread id.
using CpuReading = std::map<int, std::uint64_t>;

/// CPU time the threads spent between two readings. A thread in both
/// readings is charged its difference; a thread born in between is
/// charged all of its time; a thread that ended in between cannot be
/// read and is charged nothing.
[[nodiscard]] inline std::uint64_t cpu_ns_between(const CpuReading& before,
                                                  const CpuReading& after) {
  std::uint64_t total = 0;
  for (const auto& [tid, ns] : after) {
    const auto it = before.find(tid);
    const std::uint64_t base = it == before.end() ? 0 : it->second;
    total += ns > base ? ns - base : 0;
  }
  return total;
}

[[nodiscard]] constexpr double cpu_us_per_query(std::uint64_t cpu_ns,
                                                std::uint64_t queries) noexcept {
  return queries == 0 ? 0.0 : static_cast<double>(cpu_ns) / 1000.0 / static_cast<double>(queries);
}

/// The q-quantile (0..1) of a sample by linear interpolation between
/// order statistics (0 when empty).
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(pos);
  if (below + 1 >= values.size()) return values.back();
  return values[below] + (pos - static_cast<double>(below)) * (values[below + 1] - values[below]);
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

}  // namespace perfbench
