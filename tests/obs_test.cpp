// Observability layer: metrics registry and log-bucket latency
// histograms — plus the cross-component reset contract regression tests.
// The per-query record (the flight recorder) is tested in trace_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dnsserver/authoritative.h"
#include "dnsserver/resolver.h"
#include "dnsserver/transport.h"
#include "obs/metrics.h"

namespace eum {
namespace {

using obs::HistogramSnapshot;
using obs::LatencyHistogram;
using obs::MetricsRegistry;

// ---------- Histogram bucket layout ----------

TEST(MetricsHistogram, UnitBucketsBelowThirtyTwo) {
  // Values 0..31 land in exact unit buckets: zero estimation error.
  for (std::uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_index(v), v);
    EXPECT_EQ(LatencyHistogram::bucket_lower(v), v);
    EXPECT_EQ(LatencyHistogram::bucket_upper(v), v + 1);
  }
}

TEST(MetricsHistogram, BucketEdgesCoverEveryValue) {
  // lower(idx(v)) <= v < upper(idx(v)) across the whole range, and
  // consecutive buckets tile without gaps or overlap.
  const std::vector<std::uint64_t> probes = {
      0,    1,    31,   32,     33,     47,      48,      63,         64,
      100,  1000, 4095, 4096,   65535,  1 << 20, 9999999, 0xFFFFFFFF, 0x100000000ull,
  };
  for (const std::uint64_t v : probes) {
    const std::size_t idx = LatencyHistogram::bucket_index(v);
    ASSERT_LT(idx, LatencyHistogram::kBucketCount) << v;
    const std::uint64_t clamped = std::min(v, LatencyHistogram::kMaxValue);
    EXPECT_LE(LatencyHistogram::bucket_lower(idx), clamped) << v;
    EXPECT_GT(LatencyHistogram::bucket_upper(idx), clamped) << v;
  }
  for (std::size_t i = 0; i + 1 < LatencyHistogram::kBucketCount; ++i) {
    EXPECT_EQ(LatencyHistogram::bucket_upper(i), LatencyHistogram::bucket_lower(i + 1)) << i;
  }
  EXPECT_EQ(LatencyHistogram::bucket_index(LatencyHistogram::kMaxValue),
            LatencyHistogram::kBucketCount - 1);
}

TEST(MetricsHistogram, RelativeBucketWidthBounded) {
  // Above the unit-bucket region, bucket width / lower edge <= 1/16
  // (6.25%) — the histogram's percentile error bound.
  for (std::size_t i = LatencyHistogram::kSubBuckets; i < LatencyHistogram::kBucketCount; ++i) {
    const std::uint64_t lo = LatencyHistogram::bucket_lower(i);
    const std::uint64_t width = LatencyHistogram::bucket_upper(i) - lo;
    EXPECT_LE(static_cast<double>(width) / static_cast<double>(lo), 1.0 / 16.0 + 1e-12) << i;
  }
}

TEST(MetricsHistogram, OversizedValuesClampIntoLastBucket) {
  LatencyHistogram h{1};
  h.record(~0ull);
  h.record(LatencyHistogram::kMaxValue + 1);
  const HistogramSnapshot snapshot = h.snapshot();
  EXPECT_EQ(snapshot.count, 2u);
  EXPECT_EQ(snapshot.buckets[LatencyHistogram::kBucketCount - 1], 2u);
}

// ---------- Percentile estimation ----------

TEST(MetricsHistogram, PercentilesTrackExactQuantilesOnUniform) {
  LatencyHistogram h{4};
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const HistogramSnapshot snapshot = h.snapshot();
  EXPECT_EQ(snapshot.count, 1000u);
  EXPECT_EQ(snapshot.sum, 1000u * 1001u / 2);
  for (const double q : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    const double exact = q * 10.0;  // uniform 1..1000
    const double estimated = snapshot.percentile(q);
    // One log-bucket of tolerance: 6.25% relative plus a unit of slack.
    EXPECT_NEAR(estimated, exact, exact * 0.07 + 1.0) << "q=" << q;
  }
}

TEST(MetricsHistogram, ConstantDistributionCollapsesPercentiles) {
  LatencyHistogram h{2};
  for (int i = 0; i < 500; ++i) h.record(300);
  const HistogramSnapshot snapshot = h.snapshot();
  const std::size_t idx = LatencyHistogram::bucket_index(300);
  const auto lo = static_cast<double>(LatencyHistogram::bucket_lower(idx));
  const auto hi = static_cast<double>(LatencyHistogram::bucket_upper(idx));
  for (const double q : {1.0, 50.0, 99.9}) {
    const double p = snapshot.percentile(q);
    EXPECT_GE(p, lo) << q;
    EXPECT_LE(p, hi) << q;
  }
  EXPECT_DOUBLE_EQ(snapshot.mean(), 300.0);
}

TEST(MetricsHistogram, EmptySnapshotIsZero) {
  const HistogramSnapshot snapshot = LatencyHistogram{1}.snapshot();
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_DOUBLE_EQ(snapshot.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.mean(), 0.0);
}

// ---------- Concurrent recording ----------

TEST(MetricsHistogram, ConcurrentRecordingLosesNothing) {
  // 8 threads, 100k records each: the count and sum must be exact —
  // recording is wait-free relaxed atomics, so nothing may be lost.
  // (Also the TSan-gate workload for the histogram.)
  LatencyHistogram h{8};
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record((i + static_cast<std::uint64_t>(t)) & 0x3FF);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snapshot = h.snapshot();
  EXPECT_EQ(snapshot.count, kThreads * kPerThread);
  std::uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      expected_sum += (i + static_cast<std::uint64_t>(t)) & 0x3FF;
    }
  }
  EXPECT_EQ(snapshot.sum, expected_sum);
}

// ---------- Snapshot merging ----------

HistogramSnapshot snapshot_of(std::initializer_list<std::uint64_t> values) {
  LatencyHistogram h{1};
  for (const std::uint64_t v : values) h.record(v);
  return h.snapshot();
}

TEST(MetricsHistogram, MergeIsAssociativeAndOrderFree) {
  const HistogramSnapshot a = snapshot_of({1, 2, 3, 100});
  const HistogramSnapshot b = snapshot_of({50, 60});
  const HistogramSnapshot c = snapshot_of({7, 7, 7, 9000});

  HistogramSnapshot ab = a;
  ab.merge(b);
  HistogramSnapshot ab_c = ab;
  ab_c.merge(c);

  HistogramSnapshot bc = b;
  bc.merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.merge(bc);

  EXPECT_EQ(ab_c.buckets, a_bc.buckets);
  EXPECT_EQ(ab_c.count, a_bc.count);
  EXPECT_EQ(ab_c.sum, a_bc.sum);

  // Merging equals recording everything into one histogram.
  const HistogramSnapshot all = snapshot_of({1, 2, 3, 100, 50, 60, 7, 7, 7, 9000});
  EXPECT_EQ(ab_c.buckets, all.buckets);
  EXPECT_EQ(ab_c.count, all.count);
  EXPECT_EQ(ab_c.sum, all.sum);
}

TEST(MetricsHistogram, MergeWithEmptyIsIdentity) {
  const HistogramSnapshot a = snapshot_of({5, 10, 20});
  HistogramSnapshot merged = a;
  merged.merge(HistogramSnapshot{});
  EXPECT_EQ(merged.buckets, a.buckets);
  EXPECT_EQ(merged.count, a.count);
  EXPECT_EQ(merged.sum, a.sum);
}

// ---------- Registry ----------

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  obs::Counter& a = registry.counter("eum_test_total", "help once");
  obs::Counter& b = registry.counter("eum_test_total", "ignored on re-register");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsRegistry, LabelsAreCanonicalizedBySorting) {
  MetricsRegistry registry;
  obs::Counter& a = registry.counter("eum_test_total", "", {{"a", "1"}, {"b", "2"}});
  obs::Counter& b = registry.counter("eum_test_total", "", {{"b", "2"}, {"a", "1"}});
  obs::Counter& other = registry.counter("eum_test_total", "", {{"a", "1"}, {"b", "3"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
}

TEST(MetricsRegistry, KindCollisionThrows) {
  MetricsRegistry registry;
  (void)registry.counter("eum_test_metric");
  EXPECT_THROW((void)registry.gauge("eum_test_metric"), std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("eum_test_metric"), std::invalid_argument);
}

TEST(MetricsRegistry, RejectsInvalidNames) {
  MetricsRegistry registry;
  EXPECT_THROW((void)registry.counter(""), std::invalid_argument);
  EXPECT_THROW((void)registry.counter("1starts_with_digit"), std::invalid_argument);
  EXPECT_THROW((void)registry.counter("has-dash"), std::invalid_argument);
  EXPECT_THROW((void)registry.counter("has space"), std::invalid_argument);
  EXPECT_NO_THROW((void)registry.counter("_ok_name_2"));
}

TEST(MetricsRegistry, SnapshotSortedAndComplete) {
  MetricsRegistry registry;
  registry.counter("eum_b_total").add(2);
  registry.counter("eum_a_total").add(1);
  registry.gauge("eum_live").set(-4);
  registry.histogram("eum_lat_us").record(10);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "eum_a_total");
  EXPECT_EQ(snapshot.counters[1].name, "eum_b_total");
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].value, -4);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].hist.count, 1u);
}

TEST(MetricsRegistry, ResetZeroesMonotonicsButNotGauges) {
  MetricsRegistry registry;
  obs::Counter& counter = registry.counter("eum_total");
  obs::Gauge& gauge = registry.gauge("eum_entries");
  LatencyHistogram& histogram = registry.histogram("eum_lat_us");
  counter.add(7);
  gauge.set(42);
  histogram.record(100);
  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(histogram.snapshot().count, 0u);
  EXPECT_EQ(gauge.value(), 42);  // live state survives
}

TEST(MetricsRegistry, PrometheusExposition) {
  MetricsRegistry registry;
  registry.counter("eum_q_total", "queries", {{"worker", "0"}}).add(5);
  registry.gauge("eum_entries", "live entries").set(3);
  registry.histogram("eum_lat_us", "latency").record(10);
  const std::string text = registry.prometheus();
  EXPECT_NE(text.find("# TYPE eum_q_total counter"), std::string::npos);
  EXPECT_NE(text.find("eum_q_total{worker=\"0\"} 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE eum_entries gauge"), std::string::npos);
  EXPECT_NE(text.find("eum_entries 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE eum_lat_us histogram"), std::string::npos);
  EXPECT_NE(text.find("eum_lat_us_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("eum_lat_us_count 1"), std::string::npos);
  EXPECT_NE(text.find("eum_lat_us_sum 10"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusEscapesLabelValuesAndHelp) {
  // Prometheus exposition format: label values escape backslash, double
  // quote and newline; HELP text escapes backslash and newline (it is
  // never quoted, so quotes pass through). The renderer used to emit
  // HELP raw, so a newline in help text forged extra exposition lines.
  MetricsRegistry registry;
  registry
      .counter("eum_escape_total", "help with \\ backslash\nand a second line",
               {{"path", "C:\\dir\"q\"\nend"}})
      .add(1);
  const std::string text = registry.prometheus();
  // Label value: C:\dir"q"<LF>end -> C:\\dir\"q\"\nend (all escaped).
  EXPECT_NE(text.find("path=\"C:\\\\dir\\\"q\\\"\\nend\""), std::string::npos) << text;
  // HELP: backslash doubled, newline escaped, on ONE line.
  EXPECT_NE(text.find(
                "# HELP eum_escape_total help with \\\\ backslash\\nand a second line\n"),
            std::string::npos)
      << text;
  // No raw newline leaked mid-line: every line starts with '#', a metric
  // name, or is empty — the forged-line attack surface.
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string_view line{text.data() + start, end - start};
    start = end + 1;
    if (line.empty()) continue;
    EXPECT_TRUE(line[0] == '#' || line.rfind("eum_", 0) == 0) << line;
  }
}

TEST(MetricsRegistry, PrometheusCumulativeBucketsMonotone) {
  MetricsRegistry registry;
  LatencyHistogram& histogram = registry.histogram("eum_lat_us");
  for (std::uint64_t v = 1; v <= 500; ++v) histogram.record(v);
  const std::string text = registry.prometheus();
  // Walk the _bucket lines: cumulative counts must be non-decreasing.
  std::uint64_t previous = 0;
  std::size_t pos = 0;
  int buckets_seen = 0;
  while ((pos = text.find("eum_lat_us_bucket{le=", pos)) != std::string::npos) {
    const std::size_t space = text.find(' ', pos);
    const std::size_t eol = text.find('\n', space);
    const std::uint64_t cumulative = std::stoull(text.substr(space + 1, eol - space - 1));
    EXPECT_GE(cumulative, previous);
    previous = cumulative;
    ++buckets_seen;
    pos = eol;
  }
  EXPECT_GT(buckets_seen, 2);
  EXPECT_EQ(previous, 500u);  // +Inf bucket equals the count
}

TEST(MetricsRegistry, TableExposition) {
  MetricsRegistry registry;
  registry.counter("eum_q_total").add(5);
  registry.histogram("eum_lat_us").record(64);
  const std::string rendered = registry.table().render();
  EXPECT_NE(rendered.find("eum_q_total"), std::string::npos);
  EXPECT_NE(rendered.find("eum_lat_us_count"), std::string::npos);
  EXPECT_NE(rendered.find("eum_lat_us_p99"), std::string::npos);
}

TEST(MetricsRegistry, JsonExpositionParses) {
  MetricsRegistry registry;
  registry.counter("eum_q_total", "", {{"worker", "1"}}).add(2);
  registry.gauge("eum_entries").set(9);
  registry.histogram("eum_lat_us").record(33);
  const std::string json = registry.json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("eum_q_total"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// ---------- Cross-component reset contract ----------

dns::Message cdn_query(std::uint16_t id) {
  const auto ecs = dns::ClientSubnetOption::for_query(*net::IpAddr::parse("10.2.3.4"), 24);
  return dns::Message::make_query(id, dns::DnsName::from_text("www.g.cdn.example"),
                                  dns::RecordType::A, ecs);
}

dnsserver::AuthoritativeServer make_cdn_engine(obs::MetricsRegistry* registry = nullptr) {
  dnsserver::AuthoritativeServer engine{registry};
  engine.add_dynamic_domain(
      dns::DnsName::from_text("g.cdn.example"),
      [](const dnsserver::DynamicQuery&) -> std::optional<dnsserver::DynamicAnswer> {
        dnsserver::DynamicAnswer answer;
        answer.addresses = {net::IpAddr{net::IpV4Addr{203, 0, 113, 1}}};
        answer.ecs_scope_len = 24;
        return answer;
      });
  // Tests want deterministic per-query timing, not the production
  // 1-in-16 sampling default.
  engine.set_latency_sampling(1);
  return engine;
}

TEST(ResetContract, LatencySamplingTimesEveryNthQuery) {
  dnsserver::AuthoritativeServer engine = make_cdn_engine();
  engine.set_latency_sampling(dnsserver::AuthoritativeServer::kDefaultLatencySampleEvery);
  const net::IpAddr resolver{net::IpV4Addr{192, 0, 2, 53}};
  for (std::uint16_t i = 0; i < 33; ++i) (void)engine.handle(cdn_query(i), resolver);
  // Queries 0, 16, and 32 hit the 1-in-16 sampling ticks; counters still
  // see every query.
  EXPECT_EQ(engine.stats().queries, 33u);
  EXPECT_EQ(
      engine.registry().histogram("eum_authority_handle_latency_us").snapshot().count, 3u);
}

TEST(ResetContract, AuthorityZeroesEverythingItReports) {
  dnsserver::AuthoritativeServer engine = make_cdn_engine();
  const net::IpAddr resolver{net::IpV4Addr{192, 0, 2, 53}};
  for (std::uint16_t i = 0; i < 5; ++i) (void)engine.handle(cdn_query(i), resolver);
  EXPECT_EQ(engine.stats().queries, 5u);
  EXPECT_EQ(engine.stats().dynamic_answers, 5u);
  EXPECT_EQ(
      engine.registry().histogram("eum_authority_handle_latency_us").snapshot().count, 5u);
  engine.reset_stats();
  const dnsserver::AuthServerStats after = engine.stats();
  EXPECT_EQ(after.queries, 0u);
  EXPECT_EQ(after.queries_with_ecs, 0u);
  EXPECT_EQ(after.dynamic_answers, 0u);
  EXPECT_EQ(
      engine.registry().histogram("eum_authority_handle_latency_us").snapshot().count, 0u);
}

TEST(ResetContract, ResolverZeroesCountersButKeepsCacheEntries) {
  util::SimClock clock;
  dnsserver::AuthoritativeServer engine = make_cdn_engine();
  dnsserver::AuthorityDirectory directory;
  directory.add_authority(dns::DnsName::from_text("g.cdn.example"), &engine);
  dnsserver::ResolverConfig config;
  config.ecs_enabled = true;
  dnsserver::RecursiveResolver resolver{config, &clock, &directory,
                                        *net::IpAddr::parse("198.51.100.1")};
  const net::IpAddr client = *net::IpAddr::parse("10.2.3.4");
  for (std::uint16_t i = 0; i < 3; ++i) (void)resolver.resolve(cdn_query(i), client);
  const dnsserver::ResolverStats before = resolver.stats();
  EXPECT_EQ(before.client_queries, 3u);
  EXPECT_EQ(before.cache_hits, 2u);
  EXPECT_EQ(before.upstream_queries, 1u);
  const std::size_t cached = resolver.cache_size();
  EXPECT_GT(cached, 0u);

  resolver.reset_stats();
  const dnsserver::ResolverStats after = resolver.stats();
  EXPECT_EQ(after.client_queries, 0u);
  EXPECT_EQ(after.cache_hits, 0u);
  EXPECT_EQ(after.cache_misses, 0u);
  EXPECT_EQ(after.upstream_queries, 0u);
  EXPECT_EQ(after.scoped_hits, 0u);
  EXPECT_EQ(resolver.registry().histogram("eum_resolver_resolve_latency_us").snapshot().count,
            0u);
  // The cache's live entries (and their gauges) survive a stats reset.
  EXPECT_EQ(resolver.cache_size(), cached);
  // ...and the surviving entries still serve hits that count from zero.
  (void)resolver.resolve(cdn_query(9), client);
  EXPECT_EQ(resolver.stats().cache_hits, 1u);
}

TEST(ResetContract, SharedRegistryComponentsResetIndependently) {
  // Engine and resolver on ONE registry: resetting the resolver's stats
  // must not clear the authority's counters, and vice versa.
  MetricsRegistry registry;
  util::SimClock clock;
  dnsserver::AuthoritativeServer engine = make_cdn_engine(&registry);
  dnsserver::AuthorityDirectory directory;
  directory.add_authority(dns::DnsName::from_text("g.cdn.example"), &engine);
  dnsserver::ResolverConfig config;
  config.ecs_enabled = true;
  config.registry = &registry;
  dnsserver::RecursiveResolver resolver{config, &clock, &directory,
                                        *net::IpAddr::parse("198.51.100.1")};
  const net::IpAddr client = *net::IpAddr::parse("10.2.3.4");
  for (std::uint16_t i = 0; i < 3; ++i) (void)resolver.resolve(cdn_query(i), client);
  EXPECT_GT(engine.stats().queries, 0u);

  resolver.reset_stats();
  EXPECT_EQ(resolver.stats().client_queries, 0u);
  EXPECT_GT(engine.stats().queries, 0u);  // authority untouched

  const std::uint64_t engine_queries = engine.stats().queries;
  engine.reset_stats();
  EXPECT_EQ(engine.stats().queries, 0u);
  EXPECT_NE(engine_queries, 0u);
}

}  // namespace
}  // namespace eum
