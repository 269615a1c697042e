// Load-generation subsystem: deterministic schedules and traffic
// streams, and the coordinated-omission pin — a mid-run server stall
// must inflate the open-loop tail (latency is charged from the
// *scheduled* send time) while the naive closed-loop measurement of the
// very same incident stays flat.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "dnsserver/udp.h"
#include "load/driver.h"
#include "load/schedule.h"
#include "load/traffic.h"
#include "test_world.h"

namespace eum::load {
namespace {

using namespace std::chrono_literals;

// ---------- OpenLoopSchedule ----------

TEST(OpenLoopSchedule, PoissonDeterministicInSeed) {
  const auto a = OpenLoopSchedule::make(Arrivals::poisson, 5000.0, 2000, 7);
  const auto b = OpenLoopSchedule::make(Arrivals::poisson, 5000.0, 2000, 7);
  const auto c = OpenLoopSchedule::make(Arrivals::poisson, 5000.0, 2000, 8);
  ASSERT_EQ(a.size(), b.size());
  bool diverged = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.offset_ns(i), b.offset_ns(i));
    if (a.offset_ns(i) != c.offset_ns(i)) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(OpenLoopSchedule, PacedIsUniform) {
  const auto schedule = OpenLoopSchedule::make(Arrivals::paced, 1000.0, 100, 1);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(schedule.offset_ns(i), (i + 1) * 1'000'000ULL);
  }
  EXPECT_DOUBLE_EQ(schedule.offered_qps(), 1000.0);
}

TEST(OpenLoopSchedule, PoissonHoldsOfferedRate) {
  const auto schedule = OpenLoopSchedule::make(Arrivals::poisson, 10000.0, 20000, 3);
  const double seconds = static_cast<double>(schedule.span_ns()) / 1e9;
  EXPECT_NEAR(static_cast<double>(schedule.size()) / seconds, 10000.0, 500.0);
}

TEST(OpenLoopSchedule, RejectsNonPositiveQps) {
  EXPECT_THROW(OpenLoopSchedule::make(Arrivals::paced, 0.0, 10, 1), std::invalid_argument);
}

// ---------- TrafficModel ----------

TrafficConfig small_config() {
  TrafficConfig config;
  config.seed = 11;
  config.qnames = 16;
  return config;
}

TEST(TrafficModel, SameSeedSameStream) {
  const TrafficConfig config = small_config();
  TrafficModel a{LdnsPopulation::synthetic(32, 4, config), config};
  TrafficModel b{LdnsPopulation::synthetic(32, 4, config), config};
  const auto sa = a.generate(500);
  const auto sb = b.generate(500);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].ldns, sb[i].ldns);
    EXPECT_EQ(sa[i].qname_rank, sb[i].qname_rank);
    EXPECT_EQ(sa[i].edns, sb[i].edns);
    EXPECT_EQ(sa[i].ecs, sb[i].ecs);  // including the announced prefix
  }
}

TEST(TrafficModel, DifferentSeedDivergesAndWireBytesMatchSpecs) {
  TrafficConfig config = small_config();
  TrafficModel a{LdnsPopulation::synthetic(32, 4, config), config};
  config.seed = 12;
  TrafficModel b{LdnsPopulation::synthetic(32, 4, config), config};
  const auto sa = a.generate(300);
  const auto sb = b.generate(300);
  bool diverged = false;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].qname_rank != sb[i].qname_rank || sa[i].ldns != sb[i].ldns ||
        sa[i].ecs != sb[i].ecs) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged);
  // Encoding is a pure function of (spec, id): same spec, same bytes.
  EXPECT_EQ(a.encode(sa[0], 42), a.encode(sa[0], 42));
}

TEST(TrafficModel, EncodeRoundTrips) {
  const TrafficConfig config = small_config();
  TrafficModel model{LdnsPopulation::synthetic(8, 2, config), config};
  const auto specs = model.generate(100);
  for (const auto& spec : specs) {
    const auto wire = model.encode(spec, 0x1234);
    const dns::Message decoded = dns::Message::decode(wire);
    EXPECT_EQ(decoded.header.id, 0x1234);
    ASSERT_EQ(decoded.questions.size(), 1U);
    EXPECT_EQ(decoded.questions[0].name, model.qname(spec.qname_rank));
    EXPECT_EQ(decoded.edns.has_value(), spec.edns);
    const dns::ClientSubnetOption* ecs = decoded.client_subnet();
    EXPECT_EQ(ecs != nullptr, spec.ecs.has_value());
    if (ecs != nullptr) {
      EXPECT_EQ(*ecs, *spec.ecs);
    }
  }
}

TEST(TrafficModel, MixFractionsRespected) {
  TrafficConfig config = small_config();
  config.edns_fraction = 1.0;
  config.ecs_fraction = 1.0;
  TrafficModel all_ecs{LdnsPopulation::synthetic(16, 2, config), config};
  for (const auto& spec : all_ecs.generate(200)) {
    EXPECT_TRUE(spec.edns);
    ASSERT_TRUE(spec.ecs.has_value());
    const int len = spec.ecs->source_prefix_len();
    EXPECT_TRUE(len == 20 || len == 24 || len == 32) << len;
  }
  config.edns_fraction = 0.0;
  TrafficModel no_edns{LdnsPopulation::synthetic(16, 2, config), config};
  for (const auto& spec : no_edns.generate(200)) {
    EXPECT_FALSE(spec.edns);
    EXPECT_FALSE(spec.ecs.has_value());
  }
}

TEST(TrafficModel, ZipfQnamePopularity) {
  const TrafficConfig config = small_config();
  TrafficModel model{LdnsPopulation::synthetic(16, 2, config), config};
  std::vector<int> counts(config.qnames + 1, 0);
  for (const auto& spec : model.generate(20000)) ++counts.at(spec.qname_rank);
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[8]);
}

TEST(LdnsPopulation, FromWorldAggregatesDemand) {
  const topo::World& world = eum::testing::tiny_world();
  TrafficConfig config = small_config();
  config.max_ldnses = 64;
  const LdnsPopulation population = LdnsPopulation::from_world(world, config);
  ASSERT_GT(population.size(), 0U);
  ASSERT_LE(population.size(), 64U);
  // Sorted by volume, heaviest first, and every source carries blocks.
  for (std::size_t i = 1; i < population.size(); ++i) {
    EXPECT_GE(population.sources()[i - 1].weight, population.sources()[i].weight);
  }
  for (const auto& source : population.sources()) {
    EXPECT_GT(source.weight, 0.0);
    ASSERT_FALSE(source.blocks.empty());
    ASSERT_EQ(source.blocks.size(), source.block_weights.size());
  }
  // ECS announcements, when present, come only from ECS-capable sources
  // and announce one of that resolver's own client blocks.
  TrafficModel model{population, config};
  std::size_t with_ecs = 0;
  for (const auto& spec : model.generate(2000)) {
    if (!spec.ecs) continue;
    ++with_ecs;
    const LdnsSource& source = model.population().sources()[spec.ldns];
    EXPECT_TRUE(source.supports_ecs);
    const net::IpPrefix announced = spec.ecs->source_block();
    const bool covered = std::any_of(
        source.blocks.begin(), source.blocks.end(), [&](const net::IpPrefix& block) {
          return block.contains(announced) || announced.contains(block);
        });
    EXPECT_TRUE(covered) << announced.to_string();
  }
  // tiny_world has public resolvers with ECS support; some must show up.
  EXPECT_GT(with_ecs, 0U);
}

// ---------- the coordinated-omission pin ----------

net::IpAddr v4(const char* text) { return *net::IpAddr::parse(text); }

/// Live single-worker authority whose handler can be armed to stall
/// once for a fixed duration at the Nth query: with one worker, the
/// stall blocks the entire server, so every query scheduled during the
/// stall window queues behind it.
class StallFixture : public ::testing::Test {
 protected:
  StallFixture() {
    engine_.add_dynamic_domain(
        dns::DnsName::from_text("g.cdn.example"),
        [this](const dnsserver::DynamicQuery&) -> std::optional<dnsserver::DynamicAnswer> {
          const std::uint64_t seen = seen_.fetch_add(1, std::memory_order_relaxed) + 1;
          if (seen >= stall_at_.load(std::memory_order_relaxed) &&
              stall_pending_.exchange(false, std::memory_order_acq_rel)) {
            std::this_thread::sleep_for(stall_duration_);
          }
          dnsserver::DynamicAnswer answer;
          answer.ttl = 30;
          answer.ecs_scope_len = 24;
          answer.addresses = {v4("203.0.113.1")};
          return answer;
        });
    dnsserver::UdpServerConfig config;
    config.workers = 1;
    config.batch = 32;
    server_ = std::make_unique<dnsserver::UdpAuthorityServer>(
        &engine_, dnsserver::UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}, config);
    server_->start();
  }

  ~StallFixture() override { server_->stop(); }

  void arm_stall(std::uint64_t at_query, std::chrono::milliseconds duration) {
    seen_.store(0, std::memory_order_relaxed);
    stall_at_.store(at_query, std::memory_order_relaxed);
    stall_duration_ = duration;
    stall_pending_.store(true, std::memory_order_release);
  }

  TrafficModel make_model() const {
    TrafficConfig config;
    config.seed = 5;
    config.qnames = 8;
    return TrafficModel{LdnsPopulation::synthetic(8, 2, config), config};
  }

  dnsserver::AuthoritativeServer engine_;
  std::unique_ptr<dnsserver::UdpAuthorityServer> server_;
  std::atomic<std::uint64_t> seen_{0};
  std::atomic<std::uint64_t> stall_at_{0};
  std::atomic<bool> stall_pending_{false};
  std::chrono::milliseconds stall_duration_{0};
};

TEST_F(StallFixture, OpenLoopSeesTheStallClosedLoopHidesIt) {
  const TrafficModel model = make_model();
  constexpr std::size_t kQueries = 2000;
  constexpr double kQps = 2000.0;
  const auto specs = model.generate(kQueries);
  const auto schedule = OpenLoopSchedule::make(Arrivals::paced, kQps, kQueries, 5);

  DriverConfig driver;
  driver.server = server_->endpoint();
  driver.flows = 2;
  driver.timeout = 2000ms;

  // Open loop: ~100 queries are scheduled inside the 50 ms stall window
  // (5% of a 2000-QPS second), so the stall must dominate p99/p999.
  arm_stall(kQueries / 4, 50ms);
  const LoadReport open = run_open_loop(model, specs, schedule, driver);
  ASSERT_GT(open.received, open.offered * 9 / 10);
  EXPECT_EQ(open.offered, kQueries);
  const double open_p999 = open.latency_us.percentile(99.9);
  EXPECT_GT(open_p999, 10'000.0) << "open-loop tail must include the queueing delay";

  // Closed loop over the same incident: only the in-flight query per
  // flow observes the stall (2 samples in 2000) and nothing else is
  // even sent meanwhile — the tail stays flat. That silence is the
  // coordinated-omission error this subsystem exists to correct.
  arm_stall(kQueries / 4, 50ms);
  const ClosedLoopReport closed = run_closed_loop(model, specs, driver);
  ASSERT_GT(closed.received, closed.sent * 9 / 10);
  const double closed_p99 = closed.latency_us.percentile(99.0);
  EXPECT_LT(closed_p99, 10'000.0) << "closed-loop measurement should hide the stall";
}

TEST_F(StallFixture, LateResponsesAreChargedNotDropped) {
  const TrafficModel model = make_model();
  constexpr std::size_t kQueries = 400;
  const auto specs = model.generate(kQueries);
  const auto schedule = OpenLoopSchedule::make(Arrivals::paced, 2000.0, kQueries, 5);
  DriverConfig driver;
  driver.server = server_->endpoint();
  driver.flows = 2;
  driver.timeout = 20ms;  // tighter than the stall
  arm_stall(kQueries / 4, 50ms);
  const LoadReport report = run_open_loop(model, specs, schedule, driver);
  // Responses delayed past the 20 ms deadline still arrive (the server
  // answers everything eventually); they must be charged as late AND
  // appear in the histogram rather than vanish.
  EXPECT_GT(report.late, 0U);
  EXPECT_EQ(report.latency_us.count, report.received);
  EXPECT_GT(report.latency_us.percentile(100.0), 20'000.0);
}

TEST_F(StallFixture, CleanRunHasNoDropsAndMatchedCounts) {
  const TrafficModel model = make_model();
  constexpr std::size_t kQueries = 1000;
  const auto specs = model.generate(kQueries);
  const auto schedule = OpenLoopSchedule::make(Arrivals::poisson, 4000.0, kQueries, 17);
  DriverConfig driver;
  driver.server = server_->endpoint();
  driver.flows = 2;
  driver.timeout = 2000ms;
  const LoadReport report = run_open_loop(model, specs, schedule, driver);
  EXPECT_EQ(report.offered, kQueries);
  EXPECT_EQ(report.sent, kQueries);
  EXPECT_EQ(report.received + report.dropped, kQueries);
  EXPECT_GT(report.received, kQueries * 9 / 10);
  EXPECT_EQ(report.latency_us.count, report.received);
  EXPECT_GT(report.achieved_qps(), 0.0);
}

TEST(RunOpenLoop, RejectsMismatchedSizes) {
  TrafficConfig config;
  config.qnames = 4;
  TrafficModel model{LdnsPopulation::synthetic(4, 1, config), config};
  const auto specs = model.generate(10);
  const auto schedule = OpenLoopSchedule::make(Arrivals::paced, 100.0, 9, 1);
  DriverConfig driver;
  EXPECT_THROW((void)run_open_loop(model, specs, schedule, driver), std::invalid_argument);
}

}  // namespace
}  // namespace eum::load
