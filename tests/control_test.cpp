// src/control: the map-maker control plane. Covers the staged roll-out
// controller, the mapping system's frozen map snapshots + the shared load
// ledger, the map maker's publish/skip/tick logic, and (TSan-gated via
// scripts/tsan_check.sh) lock-free serving over real UDP sockets while
// the map is republished in a tight loop.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cdn/liveness.h"
#include "cdn/map_snapshot.h"
#include "cdn/mapping.h"
#include "control/map_maker.h"
#include "control/rollout_controller.h"
#include "dnsserver/udp.h"
#include "obs/metrics.h"
#include "test_world.h"
#include "util/sim_clock.h"

namespace eum::control {
namespace {

using namespace std::chrono_literals;
using testing::test_latency;
using testing::tiny_world;

// ---------------------------------------------------------------------------
// RolloutController

TEST(RolloutController, FractionFollowsPaperRamp) {
  const RolloutController controller;  // Mar 28 - Apr 15 2014 defaults
  EXPECT_DOUBLE_EQ(controller.fraction_on({2014, 1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(controller.fraction_on({2014, 3, 27}), 0.0);
  EXPECT_DOUBLE_EQ(controller.fraction_on({2014, 3, 28}), 0.0);
  EXPECT_DOUBLE_EQ(controller.fraction_on({2014, 4, 6}), 0.5);  // 9 of 18 days
  EXPECT_DOUBLE_EQ(controller.fraction_on({2014, 4, 15}), 1.0);
  EXPECT_DOUBLE_EQ(controller.fraction_on({2014, 6, 30}), 1.0);
}

TEST(RolloutController, RejectsInvalidConfig) {
  RolloutRampConfig inverted;
  inverted.ramp_start = util::Date{2014, 4, 15};
  inverted.ramp_end = util::Date{2014, 3, 28};
  EXPECT_THROW(RolloutController{inverted}, std::invalid_argument);

  RolloutRampConfig no_cohorts;
  no_cohorts.cohorts = 0;
  EXPECT_THROW(RolloutController{no_cohorts}, std::invalid_argument);
}

TEST(RolloutController, CohortsFlipOnceAndStayFlipped) {
  RolloutController controller;
  constexpr topo::LdnsId kResolvers = 500;

  // Fraction 0: nobody. Fraction 1: everybody.
  controller.set_fraction(0.0);
  for (topo::LdnsId ldns = 0; ldns < kResolvers; ++ldns) {
    EXPECT_FALSE(controller.end_user_enabled(ldns));
  }
  controller.set_fraction(1.0);
  for (topo::LdnsId ldns = 0; ldns < kResolvers; ++ldns) {
    EXPECT_TRUE(controller.end_user_enabled(ldns));
  }

  // Monotone: a resolver enabled at fraction f stays enabled at f' > f,
  // and each step enables a superset of the previous one.
  std::set<topo::LdnsId> previous;
  for (const double fraction : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    controller.set_fraction(fraction);
    std::set<topo::LdnsId> enabled;
    for (topo::LdnsId ldns = 0; ldns < kResolvers; ++ldns) {
      // Deterministic cohorts: the per-query decision never flickers.
      EXPECT_EQ(controller.cohort(ldns), controller.cohort(ldns));
      if (controller.end_user_enabled(ldns)) enabled.insert(ldns);
    }
    EXPECT_TRUE(std::includes(enabled.begin(), enabled.end(), previous.begin(),
                              previous.end()));
    EXPECT_GE(enabled.size(), previous.size());
    previous = std::move(enabled);
  }
  EXPECT_EQ(previous.size(), kResolvers);
  EXPECT_EQ(controller.enabled_cohorts(), controller.config().cohorts);
}

TEST(RolloutController, WhitelistEnablesAheadOfTheRamp) {
  RolloutController controller;
  controller.set_fraction(0.0);
  ASSERT_FALSE(controller.end_user_enabled(17));
  controller.whitelist(17);
  EXPECT_TRUE(controller.end_user_enabled(17));
  EXPECT_FALSE(controller.end_user_enabled(18));
  controller.set_fraction(1.0);
  EXPECT_TRUE(controller.end_user_enabled(17));
}

TEST(RolloutController, GateSwitchesEcsScopeOnTheDnsPath) {
  const topo::World& world = tiny_world();
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 30);
  cdn::MappingSystem mapping{&world, &network, &test_latency(), cdn::MappingConfig{}};
  RolloutController controller;
  mapping.set_end_user_gate(controller.gate());
  auto handler = mapping.dns_handler();

  dnsserver::DynamicQuery query;
  query.qname = dns::DnsName::from_text("www.g.cdn.example");
  query.resolver = world.ldnses.front().address;
  query.client_block = world.blocks[5].prefix;

  // Before this resolver's cohort flips, the answer must ignore the
  // client (NS-based) and say so: scope /0, valid for everyone.
  controller.set_fraction(0.0);
  const auto before = handler(query);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->ecs_scope_len, 0);

  // After the flip the same query gets a client-specific /24 answer.
  controller.set_fraction(1.0);
  const auto after = handler(query);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->ecs_scope_len, mapping.config().ecs_scope_len);
}

// ---------------------------------------------------------------------------
// MapSnapshot

using cdn::MapSnapshot;

TEST(MapSnapshot, FreezesLivenessAtBuildTime) {
  const topo::World& world = tiny_world();
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 40);
  cdn::MappingSystem mapping{&world, &network, &test_latency(), cdn::MappingConfig{}};
  const auto old_map = mapping.snapshot();

  const auto pick = old_map->map(0, std::nullopt, "x.example");
  ASSERT_TRUE(pick.has_value());
  const cdn::DeploymentId victim = pick->deployment;

  // Kill the chosen cluster: the current generation keeps serving it
  // (frozen view) until the next one is published, which routes around it.
  network.set_cluster_alive(victim, false);
  ASSERT_EQ(mapping.map_ldns(0, "x.example")->deployment, victim);
  mapping.rescore();
  const auto rebuilt = mapping.snapshot();
  EXPECT_EQ(rebuilt->version(), 2U);
  EXPECT_FALSE(old_map->clusters()[victim].servers.empty());
  EXPECT_TRUE(rebuilt->clusters()[victim].servers.empty());
  const auto rerouted = mapping.map_ldns(0, "x.example");
  ASSERT_TRUE(rerouted.has_value());
  EXPECT_NE(rerouted->deployment, victim);
  EXPECT_EQ(old_map->map(0, std::nullopt, "x.example")->deployment, victim);
  network.set_cluster_alive(victim, true);
}

TEST(MapSnapshot, LedgerCarriesLoadAcrossGenerations) {
  const topo::World& world = tiny_world();
  // Tiny capacity so a few charged sessions overload a cluster.
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 20, 4, /*cluster_capacity=*/10.0);
  cdn::MappingSystem mapping{&world, &network, &test_latency(), cdn::MappingConfig{}};
  const auto first = mapping.snapshot();

  const auto initial = first->map(0, std::nullopt, "x.example", 8.0);
  ASSERT_TRUE(initial.has_value());
  EXPECT_DOUBLE_EQ(mapping.loads().load(initial->deployment), 8.0);

  // The favourite is now too full for another 8 units: the snapshot's
  // global LB must spill to the next candidate.
  const auto spilled = first->map(0, std::nullopt, "x.example", 8.0);
  ASSERT_TRUE(spilled.has_value());
  EXPECT_NE(spilled->deployment, initial->deployment);

  // A republish shares the ledger: the new generation still sees the
  // load and keeps spilling (load state is continuous across maps).
  mapping.rescore();
  const auto second = mapping.snapshot();
  ASSERT_NE(second, first);
  EXPECT_DOUBLE_EQ(second->loads().load(initial->deployment), 8.0);
  const auto still_spilled = second->map(0, std::nullopt, "x.example", 8.0);
  ASSERT_TRUE(still_spilled.has_value());
  EXPECT_NE(still_spilled->deployment, initial->deployment);
}

// Every generation serves its CANS lists from the mapping system's own
// Scoring, not a copy: scores never depend on liveness, so a rescore()
// republishes against the same tables.
TEST(MapSnapshot, SharesTheMappingSystemsScoring) {
  const topo::World& world = tiny_world();
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 40);
  cdn::MappingConfig config;
  config.policy = cdn::MappingPolicy::client_aware_ns;
  cdn::MappingSystem mapping{&world, &network, &test_latency(), config};
  const auto snapshot = mapping.snapshot();
  EXPECT_EQ(&snapshot->scoring(), &mapping.scoring());
  const auto before = snapshot->map(3, std::nullopt, "x.example");
  mapping.rescore();
  const auto republished = mapping.snapshot();
  EXPECT_EQ(&republished->scoring(), &mapping.scoring());
  EXPECT_TRUE(republished->serving_equal(*snapshot));
  const auto after = republished->map(3, std::nullopt, "x.example");
  ASSERT_TRUE(before.has_value());
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->deployment, before->deployment);
}

// A full build ranks each tile of units into fixed stack scratch that
// holds one ranking prefix (2 * scoring_top_k) of up to 512 entries.
TEST(MapSnapshot, RejectsTopKBeyondTheTileScratch) {
  const topo::World& world = tiny_world();
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 40);
  cdn::MappingConfig config;
  config.scoring_top_k = 256;
  const cdn::MappingSystem widest{&world, &network, &test_latency(), config};
  EXPECT_EQ(widest.snapshot()->unit_candidates(0).size(), 256U);
  config.scoring_top_k = 257;
  EXPECT_THROW((cdn::MappingSystem{&world, &network, &test_latency(), config}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// MapMaker

struct MakerFixture {
  const topo::World& world = tiny_world();
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 30);
  cdn::MappingSystem mapping{&world, &network, &test_latency(), cdn::MappingConfig{}};
};

TEST(MapMaker, PublishesVersionOneSynchronously) {
  MakerFixture fx;
  MapMaker maker{&fx.mapping};
  const auto snapshot = maker.current();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version(), 1U);
  EXPECT_EQ(maker.version(), 1U);
  EXPECT_EQ(maker.publishes(), 1U);
  EXPECT_TRUE(snapshot->map(0, std::nullopt, "x.example").has_value());
}

TEST(MapMaker, SkipsServingIdenticalRebuilds) {
  MakerFixture fx;
  MapMaker maker{&fx.mapping};
  const auto before = maker.current();
  const auto after = maker.rebuild_now();
  EXPECT_EQ(after, before);  // unchanged map: same published object
  EXPECT_EQ(maker.version(), 1U);
  EXPECT_EQ(maker.skipped_publishes(), 1U);
  EXPECT_EQ(maker.rebuilds(), 2U);

  // A liveness change makes the rebuild serving-different: published.
  fx.network.set_cluster_alive(0, false);
  const auto changed = maker.rebuild_now();
  EXPECT_NE(changed, before);
  EXPECT_EQ(changed->version(), maker.version());
  EXPECT_GE(maker.version(), 2U);
}

TEST(MapMaker, TickFollowsTheSimClock) {
  MakerFixture fx;
  util::SimClock clock;
  MapMakerConfig config;
  config.rescore_interval_s = 30;
  MapMaker maker{&fx.mapping, &clock, config};

  EXPECT_FALSE(maker.tick());  // interval has not elapsed
  clock.advance(29);
  EXPECT_FALSE(maker.tick());
  clock.advance(1);
  EXPECT_TRUE(maker.tick());  // rebuild ran (publish skipped: unchanged)
  EXPECT_EQ(maker.rebuilds(), 2U);
  EXPECT_EQ(maker.skipped_publishes(), 1U);
  EXPECT_FALSE(maker.tick());  // interval restarts after the rebuild
}

TEST(MapMaker, LivenessTransitionForcesAPublish) {
  MakerFixture fx;
  util::SimClock clock;
  std::atomic<bool> cluster0_healthy{true};
  cdn::LivenessMonitor monitor{
      &fx.network, &clock,
      [&](cdn::DeploymentId id, std::size_t) { return id != 0 || cluster0_healthy.load(std::memory_order_acquire); }};

  MapMakerConfig config;
  config.rescore_interval_s = 1'000'000;  // periodic rebuilds out of the picture
  MapMaker maker{&fx.mapping, &clock, config};
  maker.watch(&monitor);
  EXPECT_FALSE(maker.tick());

  // Fail cluster 0's servers until the monitor applies the transitions,
  // then the next tick must republish immediately (on-demand trigger).
  cluster0_healthy.store(false, std::memory_order_release);
  for (int i = 0; i < 8 && monitor.transitions() == 0; ++i) {
    clock.advance(2);
    monitor.tick();
  }
  ASSERT_GT(monitor.transitions(), 0U);
  EXPECT_TRUE(maker.tick());
  EXPECT_EQ(maker.version(), 2U);
  EXPECT_TRUE(maker.current()->clusters()[0].servers.empty());
  EXPECT_FALSE(maker.tick());  // transitions were consumed
}

TEST(MapMaker, ExportsControlPlaneMetrics) {
  MakerFixture fx;
  obs::MetricsRegistry registry;
  MapMakerConfig config;
  config.registry = &registry;
  MapMaker maker{&fx.mapping, nullptr, config};
  maker.refresh_gauges();
  const std::string text = obs::render_prometheus(registry.snapshot());
  for (const char* metric :
       {"eum_control_map_version", "eum_control_map_age_seconds",
        "eum_control_rebuilds_total", "eum_control_publishes_total",
        "eum_control_publishes_skipped_total", "eum_control_rebuild_latency_us",
        "eum_control_liveness_publish_latency_us"}) {
    EXPECT_NE(text.find(metric), std::string::npos) << metric;
  }
}

TEST(MapMaker, BackgroundThreadRepublishes) {
  MakerFixture fx;
  MapMakerConfig config;
  config.publish_unchanged = true;  // exercise the full republish path
  MapMaker maker{&fx.mapping, nullptr, config};
  maker.start(1ms);
  maker.request_rebuild();
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (maker.version() < 5 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  maker.stop();
  EXPECT_GE(maker.version(), 5U);
  EXPECT_EQ(maker.current()->version(), maker.version());
  maker.stop();  // idempotent
}

// ---------------------------------------------------------------------------
// Concurrency: UDP workers serving from snapshots while the map maker
// republishes as fast as it can. Run under TSan by scripts/tsan_check.sh.

TEST(ControlConcurrency, NoTornReadsAcrossRepublishes) {
  MakerFixture fx;
  MapMakerConfig config;
  config.publish_unchanged = true;
  MapMaker maker{&fx.mapping, nullptr, config};
  const topo::LdnsId ldns = fx.world.ldnses.front().id;

  // The handler reads the published snapshot once and stamps its version
  // into BOTH the TTL and the answer address. A torn read — any state
  // from two generations in one answer — would make them disagree.
  dnsserver::AuthoritativeServer engine;
  engine.add_dynamic_domain(
      dns::DnsName::from_text("g.cdn.example"),
      [&](const dnsserver::DynamicQuery&) -> std::optional<dnsserver::DynamicAnswer> {
        const auto snapshot = maker.current();
        const auto version = static_cast<std::uint32_t>(snapshot->version());
        if (!snapshot->map(ldns, std::nullopt, "www.g.cdn.example")) return std::nullopt;
        dnsserver::DynamicAnswer answer;
        answer.ttl = version;
        answer.ecs_scope_len = 0;
        answer.addresses = {net::IpAddr{net::IpV4Addr{version}}};
        return answer;
      });
  dnsserver::UdpAuthorityServer server{
      &engine, dnsserver::UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0},
      dnsserver::UdpServerConfig{4, std::chrono::milliseconds{50}}};
  server.start();

  std::atomic<bool> stop{false};
  std::thread republisher{[&] {
    while (!stop.load(std::memory_order_relaxed)) (void)maker.rebuild_now(true);
  }};

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 150;
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      dnsserver::UdpDnsClient client;
      std::uint32_t last_version = 0;
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const auto id = static_cast<std::uint16_t>(c * kQueriesPerClient + i + 1);
        const auto response = client.query(
            dns::Message::make_query(id, dns::DnsName::from_text("www.g.cdn.example"),
                                     dns::RecordType::A),
            server.endpoint(), 2000ms);
        ASSERT_TRUE(response.has_value()) << "client " << c << " query " << i;
        ASSERT_FALSE(response->answers.empty());
        const std::uint32_t ttl_version = response->answers[0].ttl;
        const std::uint32_t addr_version = response->answer_addresses()[0].v4().value();
        // One consistent generation per answer, and generations only
        // move forward from any single client's point of view.
        EXPECT_EQ(ttl_version, addr_version);
        EXPECT_GE(ttl_version, last_version);
        last_version = ttl_version;
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop = true;
  republisher.join();
  server.stop();
  EXPECT_EQ(answered.load(std::memory_order_relaxed), static_cast<std::uint64_t>(kClients) * kQueriesPerClient);
  EXPECT_GT(maker.version(), 1U);  // the republisher really ran
}

TEST(ControlConcurrency, FastPathServesEveryEcsQueryUnderChurn) {
  MakerFixture fx;
  MapMakerConfig config;
  config.publish_unchanged = true;
  MapMaker maker{&fx.mapping, nullptr, config};

  // The real serving stack: mapping handler behind a resolver-fallback
  // patch (loopback clients are not in the world), four UDP workers.
  dnsserver::AuthoritativeServer engine;
  const topo::Ldns& fallback_ldns = fx.world.ldnses.front();
  auto inner = fx.mapping.dns_handler();
  engine.add_dynamic_domain(
      dns::DnsName::from_text("g.cdn.example"),
      [&, inner](const dnsserver::DynamicQuery& query)
          -> std::optional<dnsserver::DynamicAnswer> {
        dnsserver::DynamicQuery patched = query;
        if (fx.world.ldns_by_address(query.resolver) == nullptr) {
          patched.resolver = fallback_ldns.address;
        }
        return inner(patched);
      });
  dnsserver::UdpAuthorityServer server{
      &engine, dnsserver::UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0},
      dnsserver::UdpServerConfig{4, std::chrono::milliseconds{50}}};
  server.start();

  std::atomic<bool> stop{false};
  std::thread republisher{[&] {
    while (!stop.load(std::memory_order_relaxed)) (void)maker.rebuild_now(true);
  }};

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 100;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      dnsserver::UdpDnsClient client;
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const std::size_t block = (static_cast<std::size_t>(c) * 7919U + i) %
                                  fx.world.blocks.size();
        const net::IpAddr client_addr{
            net::IpV4Addr{fx.world.blocks[block].prefix.address().v4().value() + 5}};
        const auto ecs = dns::ClientSubnetOption::for_query(client_addr, 24);
        const auto id = static_cast<std::uint16_t>(c * kQueriesPerClient + i + 1);
        const auto response = client.query(
            dns::Message::make_query(id, dns::DnsName::from_text("www.g.cdn.example"),
                                     dns::RecordType::A, ecs),
            server.endpoint(), 2000ms);
        ASSERT_TRUE(response.has_value()) << "client " << c << " query " << i;
        EXPECT_FALSE(response->answer_addresses().empty());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop = true;
  republisher.join();
  server.stop();

  // Zero dropped queries: every datagram in got an answer out.
  EXPECT_EQ(engine.registry().counter_total("eum_authority_queries_total"),
            static_cast<std::uint64_t>(kClients) * kQueriesPerClient);
  EXPECT_GT(maker.version(), 1U);
}

}  // namespace
}  // namespace eum::control
