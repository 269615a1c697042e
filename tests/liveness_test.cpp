#include <gtest/gtest.h>

#include <set>

#include "cdn/liveness.h"
#include "cdn/mapping.h"
#include "test_world.h"

namespace eum::cdn {
namespace {

using eum::testing::test_latency;
using eum::testing::tiny_world;

struct LivenessFixture : ::testing::Test {
  LivenessFixture() : network(CdnNetwork::build(tiny_world(), 6, 3)) {}

  LivenessMonitor make_monitor(LivenessConfig config = {}) {
    return LivenessMonitor{
        &network, &clock,
        [this](DeploymentId d, std::size_t s) { return !failed.contains({d, s}); }, config};
  }

  CdnNetwork network;
  util::SimClock clock;
  std::set<std::pair<DeploymentId, std::size_t>> failed;
};

TEST_F(LivenessFixture, HealthyNetworkStaysUp) {
  LivenessMonitor monitor = make_monitor();
  for (int i = 0; i < 10; ++i) {
    clock.advance(2);
    EXPECT_EQ(monitor.tick(), 0U);
  }
  EXPECT_GT(monitor.probes(), 0U);
  EXPECT_EQ(monitor.transitions(), 0U);
}

TEST_F(LivenessFixture, FailureDetectedAfterThreshold) {
  LivenessConfig config;
  config.probe_interval_s = 2;
  config.down_threshold = 3;
  LivenessMonitor monitor = make_monitor(config);
  (void)monitor.tick();  // initial healthy probe round

  failed.insert({2, 0});
  // Two failed probes: not yet dead.
  clock.advance(2);
  (void)monitor.tick();
  clock.advance(2);
  (void)monitor.tick();
  EXPECT_TRUE(network.deployments()[2].servers[0].alive);
  // Third consecutive failure crosses the threshold.
  clock.advance(2);
  EXPECT_GE(monitor.tick(), 1U);
  EXPECT_FALSE(network.deployments()[2].servers[0].alive);
  EXPECT_TRUE(network.deployments()[2].alive);  // other servers still up
  EXPECT_EQ(monitor.detection_latency_s(), 6);
}

TEST_F(LivenessFixture, WholeClusterDeathPropagates) {
  LivenessMonitor monitor = make_monitor();
  for (std::size_t s = 0; s < 3; ++s) failed.insert({1, s});
  for (int i = 0; i < 3; ++i) {
    clock.advance(2);
    (void)monitor.tick();
  }
  EXPECT_FALSE(network.deployments()[1].alive);
  EXPECT_EQ(network.deployments()[1].alive_servers(), 0U);
}

TEST_F(LivenessFixture, RecoveryAfterUpThreshold) {
  LivenessMonitor monitor = make_monitor();
  failed.insert({0, 1});
  for (int i = 0; i < 3; ++i) {
    clock.advance(2);
    (void)monitor.tick();
  }
  ASSERT_FALSE(network.deployments()[0].servers[1].alive);

  failed.clear();
  clock.advance(2);
  (void)monitor.tick();
  EXPECT_FALSE(network.deployments()[0].servers[1].alive);  // one success: not yet
  clock.advance(2);
  (void)monitor.tick();
  EXPECT_TRUE(network.deployments()[0].servers[1].alive);  // two: recovered
}

TEST_F(LivenessFixture, FlappingSuppressedByHysteresis) {
  LivenessMonitor monitor = make_monitor();
  (void)monitor.tick();
  // Alternate probe outcomes: never 3 consecutive failures, no transition.
  for (int i = 0; i < 20; ++i) {
    if (i % 2 == 0) {
      failed.insert({3, 0});
    } else {
      failed.erase({3, 0});
    }
    clock.advance(2);
    (void)monitor.tick();
  }
  EXPECT_TRUE(network.deployments()[3].servers[0].alive);
  EXPECT_EQ(monitor.transitions(), 0U);
}

TEST_F(LivenessFixture, TickIsIdempotentBetweenIntervals) {
  LivenessMonitor monitor = make_monitor();
  (void)monitor.tick();
  const auto probes = monitor.probes();
  (void)monitor.tick();  // clock has not advanced: no new probes
  EXPECT_EQ(monitor.probes(), probes);
  clock.advance(10);  // several intervals at once are caught up
  (void)monitor.tick();
  EXPECT_EQ(monitor.probes(), probes * (1 + 5));
}

TEST_F(LivenessFixture, RejectsBadConfig) {
  LivenessConfig bad;
  bad.probe_interval_s = 0;
  EXPECT_THROW(make_monitor(bad), std::invalid_argument);
  EXPECT_THROW(LivenessMonitor(nullptr, &clock, [](DeploymentId, std::size_t) { return true; }),
               std::invalid_argument);
  EXPECT_THROW(LivenessMonitor(&network, &clock, HealthOracle{}), std::invalid_argument);
}

TEST_F(LivenessFixture, MonitorDrivenFailoverEndToEnd) {
  // Mapping decisions move off a cluster once the monitor declares it dead
  // — no manual set_cluster_alive involved.
  MappingSystem mapping{&tiny_world(), &network, &test_latency(), MappingConfig{}};
  LivenessMonitor monitor = make_monitor();
  (void)monitor.tick();

  const auto before = mapping.map_block(0, "mon.example");
  ASSERT_TRUE(before.has_value());
  const DeploymentId victim = before->deployment;
  for (std::size_t s = 0; s < network.deployments()[victim].servers.size(); ++s) {
    failed.insert({victim, s});
  }
  for (int i = 0; i < 3; ++i) {
    clock.advance(2);
    (void)monitor.tick();
  }
  mapping.rescore();  // what a map maker watching the monitor does
  const auto after = mapping.map_block(0, "mon.example");
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(after->deployment, victim);
}

}  // namespace
}  // namespace eum::cdn
