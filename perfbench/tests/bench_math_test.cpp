// Self-tests of the serving benchmark's own arithmetic (bench_math.h).
//   cmake --build <dir> --target perfbench_selftest && <dir>/perfbench_selftest
// or: python3 perfbench/run.py --selftest
#include "bench_math.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(PercentileRule, NeedsTenSamplesBeyondThePercentile) {
  EXPECT_FALSE(percentile_supported(999, 99.0));
  EXPECT_TRUE(percentile_supported(1000, 99.0));
  EXPECT_FALSE(percentile_supported(9'999, 99.9));
  EXPECT_TRUE(percentile_supported(10'000, 99.9));
  EXPECT_FALSE(percentile_supported(19, 50.0));
  EXPECT_TRUE(percentile_supported(20, 50.0));
  EXPECT_FALSE(percentile_supported(0, 0.0));
}

RatePoint point(double qps, double p99_us, double lag_us = 10.0, std::uint64_t samples = 5000) {
  RatePoint p;
  p.offered_qps = qps;
  p.samples = samples;
  p.p99_us = p99_us;
  p.send_lag_p99_us = lag_us;
  return p;
}

TEST(Judge, GeneratorLagMakesThePointInvalidNotFailed) {
  const Slo slo;
  // A late generator inflates the latency it charges: even a p99 far over
  // the objective is not the server's failure.
  EXPECT_EQ(judge(point(1e5, 9000.0, 251.0), slo), Verdict::generator_invalid);
  EXPECT_EQ(judge(point(1e5, 9000.0, 250.0), slo), Verdict::server_failed);
  EXPECT_EQ(judge(point(1e5, 900.0, 250.0), slo), Verdict::pass);
}

TEST(Judge, ErrorsBacklogAndSampleCount) {
  const Slo slo;
  RatePoint p = point(1e4, 500.0);
  p.error_rate = 0.002;
  EXPECT_EQ(judge(p, slo), Verdict::server_failed);
  p = point(1e4, 500.0);
  p.drain_ms = 6.0;
  EXPECT_EQ(judge(p, slo), Verdict::server_failed);
  EXPECT_EQ(judge(point(1e4, 500.0, 10.0, 999), slo), Verdict::undersampled);
  EXPECT_EQ(judge(point(1e4, 1000.0), slo), Verdict::pass);
  EXPECT_EQ(judge(point(1e4, 1000.5), slo), Verdict::server_failed);
}

JudgedPoint judged(double qps, Verdict v) { return JudgedPoint{point(qps, 0.0), v}; }

TEST(PassingPrefix, StopsAtTheFirstBreakEvenIfAHigherPointPasses) {
  // Out of order on purpose: the prefix is taken over ascending rates.
  const PrefixTop top = passing_prefix_top({judged(40e3, Verdict::pass),
                                            judged(10e3, Verdict::pass),
                                            judged(30e3, Verdict::server_failed),
                                            judged(20e3, Verdict::pass)});
  EXPECT_DOUBLE_EQ(top.qps, 20e3);
  EXPECT_EQ(top.breaker, Verdict::server_failed);
}

TEST(PassingPrefix, FirstPointFailingGivesZeroAndAllPassingGivesTheTop) {
  const PrefixTop none = passing_prefix_top(
      {judged(10e3, Verdict::generator_invalid), judged(20e3, Verdict::pass)});
  EXPECT_DOUBLE_EQ(none.qps, 0.0);
  EXPECT_EQ(none.breaker, Verdict::generator_invalid);
  const PrefixTop all =
      passing_prefix_top({judged(10e3, Verdict::pass), judged(20e3, Verdict::pass)});
  EXPECT_DOUBLE_EQ(all.qps, 20e3);
  EXPECT_EQ(all.breaker, Verdict::pass);
}

TEST(SearchRates, BisectsToTheStepBelowTheThreshold) {
  int probes = 0;
  const auto points = search_rates(20e3, 1.5, 1.05, 4e5, [&](double qps) {
    ++probes;
    return judged(qps, qps <= 37e3 ? Verdict::pass : Verdict::server_failed);
  });
  const PrefixTop top = passing_prefix_top(points);
  EXPECT_LE(top.qps, 37e3);
  EXPECT_GT(top.qps, 37e3 / 1.05);
  EXPECT_EQ(top.breaker, Verdict::server_failed);
  EXPECT_LE(probes, 8);  // 20k, 30k, 45k, then three bisection steps
}

TEST(SearchRates, PassesAboveAFailureAreNotCounted) {
  // The server fails a band at 28-32k but passes again above it; the
  // search must report the top of the prefix below the band.
  const auto points = search_rates(20e3, 1.5, 1.05, 4e5, [](double qps) {
    const bool band = qps >= 28e3 && qps <= 32e3;
    return judged(qps, !band && qps <= 60e3 ? Verdict::pass : Verdict::server_failed);
  });
  EXPECT_LT(passing_prefix_top(points).qps, 28e3);
}

TEST(SearchRates, GeneratorInvalidEndsTheSearchWithThatVerdict) {
  const auto points = search_rates(20e3, 1.5, 1.05, 4e5, [](double qps) {
    return judged(qps, qps < 40e3 ? Verdict::pass : Verdict::generator_invalid);
  });
  const PrefixTop top = passing_prefix_top(points);
  EXPECT_LT(top.qps, 40e3);
  EXPECT_EQ(top.breaker, Verdict::generator_invalid);
}

TEST(SearchRates, StopsAtTheCapWhenEverythingPasses) {
  const auto points =
      search_rates(20e3, 1.5, 1.05, 100e3, [](double qps) { return judged(qps, Verdict::pass); });
  EXPECT_DOUBLE_EQ(passing_prefix_top(points).qps, 20e3 * 1.5 * 1.5 * 1.5);
}

TEST(Schedstat, ParsesTheOnCpuField) {
  EXPECT_EQ(parse_schedstat("123456789 4567 89\n"), 123456789u);
  EXPECT_EQ(parse_schedstat("42"), 42u);
  EXPECT_EQ(parse_schedstat(""), std::nullopt);
  EXPECT_EQ(parse_schedstat("12a 3 4"), std::nullopt);
  EXPECT_EQ(parse_schedstat("-1 3 4"), std::nullopt);
}

TEST(Schedstat, ChargesDifferencesNewThreadsAndNotVanishedOnes) {
  const CpuReading before{{10, 1'000}, {11, 5'000}, {12, 7'000}};
  // 10 ran 2,000 ns more; 11 ended (not read again); 13 was born.
  const CpuReading after{{10, 3'000}, {12, 7'000}, {13, 4'000}};
  EXPECT_EQ(cpu_ns_between(before, after), 6'000u);
  EXPECT_EQ(cpu_ns_between(after, before), 5'000u);  // 11 counts whole; 10 never goes back
  EXPECT_DOUBLE_EQ(cpu_us_per_query(12'000'000, 1'000), 12.0);
  EXPECT_DOUBLE_EQ(cpu_us_per_query(12'000'000, 0), 0.0);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

}  // namespace
}  // namespace perfbench
