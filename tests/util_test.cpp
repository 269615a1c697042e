#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "util/hash.h"
#include "util/rng.h"
#include "util/sim_clock.h"
#include "util/strings.h"

namespace eum::util {
namespace {

// ---------- Rng ----------

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsIndependentOfParentUsage) {
  Rng parent{7};
  Rng child = parent.fork(42);
  const std::uint64_t first = child();
  // A fresh parent forked the same way yields the same child stream.
  Rng parent2{7};
  Rng child2 = parent2.fork(42);
  EXPECT_EQ(first, child2());
}

TEST(Rng, ForkWithDifferentSaltsDiverges) {
  Rng parent{7};
  Rng a = parent.fork(1);
  Rng parent2{7};
  Rng b = parent2.fork(2);
  EXPECT_NE(a(), b());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{9};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng{9};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(5.0, 7.5);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, BelowIsBoundedAndCoversRange) {
  Rng rng{11};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.below(7);
    EXPECT_LT(v, 7U);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7U);
}

TEST(Rng, BetweenInclusive) {
  Rng rng{12};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5U);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng{13};
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng{14};
  double sum = 0.0;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, ChanceExtremes) {
  Rng rng{15};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ParetoAboveScale) {
  Rng rng{16};
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

// ---------- WeightedPicker ----------

TEST(WeightedPicker, RespectsWeights) {
  const std::vector<double> weights{1.0, 0.0, 3.0};
  WeightedPicker picker{weights};
  Rng rng{17};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[picker.pick(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(WeightedPicker, SingleItem) {
  const std::vector<double> weights{2.5};
  WeightedPicker picker{weights};
  Rng rng{18};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(picker.pick(rng), 0U);
}

TEST(WeightedPicker, RejectsNegativeWeights) {
  const std::vector<double> weights{1.0, -0.5};
  EXPECT_THROW(WeightedPicker{weights}, std::invalid_argument);
}

TEST(WeightedPicker, TotalSumsWeights) {
  const std::vector<double> weights{1.0, 2.0, 3.5};
  WeightedPicker picker{weights};
  EXPECT_DOUBLE_EQ(picker.total(), 6.5);
}

TEST(ZipfSampler, RankOneMostFrequent) {
  ZipfSampler zipf{100, 1.0};
  Rng rng{19};
  std::vector<int> counts(101, 0);
  for (int i = 0; i < 30000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[10]);
}

TEST(ZipfSampler, RejectsZeroItems) { EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument); }

// ---------- PoissonArrivals ----------

TEST(PoissonArrivals, MeanGapMatchesRate) {
  PoissonArrivals arrivals{10000.0, 21};  // mean gap 100us
  constexpr int kDraws = 20000;
  std::uint64_t last = 0;
  for (int i = 0; i < kDraws; ++i) last = arrivals.next_ns();
  const double mean_gap_ns = static_cast<double>(last) / kDraws;
  EXPECT_NEAR(mean_gap_ns, 100'000.0, 5'000.0);
}

TEST(PoissonArrivals, GapsAreExponential) {
  // A Poisson process has i.i.d. exponential gaps, whose coefficient of
  // variation (stddev/mean) is exactly 1 — a paced schedule would give 0.
  PoissonArrivals arrivals{5000.0, 22};
  std::vector<double> gaps;
  std::uint64_t prev = 0;
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t t = arrivals.next_ns();
    gaps.push_back(static_cast<double>(t - prev));
    prev = t;
  }
  double mean = 0.0;
  for (const double g : gaps) mean += g;
  mean /= static_cast<double>(gaps.size());
  double var = 0.0;
  for (const double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size());
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05);
}

TEST(PoissonArrivals, MonotoneNonDecreasing) {
  PoissonArrivals arrivals{1e6, 23};
  std::uint64_t prev = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t t = arrivals.next_ns();
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(PoissonArrivals, DeterministicInSeed) {
  PoissonArrivals a{2000.0, 99};
  PoissonArrivals b{2000.0, 99};
  PoissonArrivals c{2000.0, 100};
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t ta = a.next_ns();
    EXPECT_EQ(ta, b.next_ns());
    if (ta != c.next_ns()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(PoissonArrivals, RejectsNonPositiveRate) {
  EXPECT_THROW(PoissonArrivals(0.0, 1), std::invalid_argument);
  EXPECT_THROW(PoissonArrivals(-5.0, 1), std::invalid_argument);
}

// ---------- SimClock / dates ----------

TEST(SimClock, DayIndexEpoch) {
  EXPECT_EQ(day_index(Date{2014, 1, 1}), 0);
  EXPECT_EQ(day_index(Date{2014, 1, 31}), 30);
  EXPECT_EQ(day_index(Date{2014, 2, 1}), 31);
  EXPECT_EQ(day_index(Date{2014, 12, 31}), 364);
  EXPECT_EQ(day_index(Date{2015, 1, 1}), 365);
}

TEST(SimClock, PaperDates) {
  // The roll-out window (Mar 28 - Apr 15) is 18 days.
  EXPECT_EQ(day_index(Date{2014, 4, 15}) - day_index(Date{2014, 3, 28}), 18);
}

TEST(SimClock, DateRoundTrip) {
  for (int d = 0; d < 730; ++d) {
    EXPECT_EQ(day_index(date_from_day_index(d)), d);
  }
}

TEST(SimClock, RejectsInvalidDates) {
  EXPECT_THROW((void)day_index(Date{2013, 1, 1}), std::out_of_range);
  EXPECT_THROW((void)day_index(Date{2014, 13, 1}), std::out_of_range);
  EXPECT_THROW((void)day_index(Date{2014, 2, 29}), std::out_of_range);
  EXPECT_THROW((void)date_from_day_index(-1), std::out_of_range);
  EXPECT_THROW((void)date_from_day_index(730), std::out_of_range);
}

TEST(SimClock, Formatting) {
  EXPECT_EQ(to_string(Date{2014, 3, 28}), "2014-03-28");
  EXPECT_EQ(month_name(1), "Jan");
  EXPECT_EQ(month_name(12), "Dec");
  EXPECT_THROW(month_name(0), std::out_of_range);
}

TEST(SimClock, AdvanceAndCompare) {
  SimClock clock;
  EXPECT_EQ(clock.now().seconds(), 0);
  clock.advance(3600);
  EXPECT_EQ(clock.now().seconds(), 3600);
  clock.set(start_of(Date{2014, 1, 2}));
  EXPECT_EQ(clock.now().seconds(), 86400);
  EXPECT_LT(SimTime{5}, SimTime{6});
  EXPECT_DOUBLE_EQ((SimTime{86400} + 43200).days(), 1.5);
}

TEST(SimClock, AdvanceAndSetNotifyEverySubscriberOnce) {
  SimClock clock;
  const SimClock& observed = clock;  // subscribing needs only a const reference
  int first = 0;
  int second = 0;
  (void)observed.subscribe([&] { ++first; });
  (void)observed.subscribe([&] { ++second; });
  clock.advance(5);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  clock.set(SimTime{100});
  EXPECT_EQ(first, 2);
  EXPECT_EQ(second, 2);
  EXPECT_EQ(clock.now().seconds(), 100);
}

TEST(SimClock, UnsubscribedCallbackIsNotCalledAgain) {
  SimClock clock;
  int kept = 0;
  int dropped = 0;
  (void)clock.subscribe([&] { ++kept; });
  const SimClock::Subscription subscription = clock.subscribe([&] { ++dropped; });
  clock.advance(1);
  clock.unsubscribe(subscription);
  clock.advance(1);
  clock.set(SimTime{10});
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(kept, 3);
  clock.unsubscribe(subscription);  // a stale handle is ignored
  clock.advance(1);
  EXPECT_EQ(kept, 4);
}

// Run under TSan and ASan: unsubscribe() must wait out a notification in
// flight, so the subscriber's state can be freed as soon as it returns.
TEST(SimClockConcurrency, UnsubscribeWhileAdvancing) {
  SimClock clock;
  std::atomic<bool> stop{false};
  std::thread mover{[&] {
    while (!stop.load(std::memory_order_relaxed)) clock.advance(1);
  }};
  std::uint64_t heard = 0;
  for (int round = 0; round < 200; ++round) {
    auto calls = std::make_unique<std::atomic<std::uint64_t>>(0);
    const SimClock::Subscription subscription = clock.subscribe(
        [counter = calls.get()] { counter->fetch_add(1, std::memory_order_relaxed); });
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{1};
    while (calls->load(std::memory_order_relaxed) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    clock.unsubscribe(subscription);
    heard += calls->load(std::memory_order_relaxed);
    calls.reset();  // a late callback would now touch freed memory
  }
  stop.store(true, std::memory_order_relaxed);
  mover.join();
  EXPECT_GT(heard, 0U);
  EXPECT_GT(clock.now().seconds(), 0);
}

// ---------- strings ----------

TEST(Strings, SplitPreservesEmptyFields) {
  const auto fields = split("a,,b", ',');
  ASSERT_EQ(fields.size(), 3U);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
}

TEST(Strings, SplitSingleField) {
  const auto fields = split("abc", ',');
  ASSERT_EQ(fields.size(), 1U);
  EXPECT_EQ(fields[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, CaseHelpers) {
  EXPECT_EQ(to_lower("FoO.NeT"), "foo.net");
  EXPECT_TRUE(iequals("FOO", "foo"));
  EXPECT_FALSE(iequals("FOO", "fooo"));
  EXPECT_FALSE(iequals("bar", "baz"));
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 3.14159), "3.14");
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

// ---------- hash ----------

TEST(Hash, Fnv1aKnownValue) {
  // FNV-1a 64 of the empty string is the offset basis.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

TEST(Hash, Mix64BijectiveSpotCheck) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) outputs.insert(mix64(i));
  EXPECT_EQ(outputs.size(), 1000U);
}

TEST(Hash, CombineOrderSensitive) {
  EXPECT_NE(hash_combine(fnv1a64("a"), fnv1a64("b")),
            hash_combine(fnv1a64("b"), fnv1a64("a")));
}

}  // namespace
}  // namespace eum::util
