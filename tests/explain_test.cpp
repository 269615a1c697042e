// Mapping-decision explain: the admin channel's `explain` must replay
// the LIVE decision — for a given snapshot version the explained servers
// are exactly the servers the serve path hands out, across policies and
// roll-out states. Plus snapshot.info provenance and the rebuild-reason
// counters it reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "cdn/mapping.h"
#include "control/explain.h"
#include "control/map_maker.h"
#include "control/rollout_controller.h"
#include "dnsserver/authoritative.h"
#include "obs/trace.h"
#include "test_world.h"
#include "util/sim_clock.h"

namespace eum::control {
namespace {

using testing::test_latency;
using testing::tiny_world;
using Source = DecisionExplainer::ResolverSource;

/// The serving stack the explain must agree with: mapping behind a
/// roll-out gate, map maker publishing snapshots, so dns_handler serves
/// from the SAME snapshot explain() replays against.
struct ExplainFixture {
  const topo::World& world = tiny_world();
  cdn::CdnNetwork network;
  cdn::MappingSystem mapping;
  RolloutController rollout;
  MapMaker maker;
  dnsserver::DynamicAnswerFn handler;

  ExplainFixture()
      : network(cdn::CdnNetwork::build(world, 30)),
        mapping(&world, &network, &test_latency(), [] {
          cdn::MappingConfig config;
          // v4-only answers so served addresses compare 1:1 against the
          // snapshot's (v4) server list.
          config.serve_ipv6 = false;
          return config;
        }()),
        maker(&mapping) {
    mapping.set_end_user_gate(rollout.gate());
    handler = mapping.dns_handler();
  }

  [[nodiscard]] DecisionExplainer explainer() {
    return DecisionExplainer{&world, &mapping, &maker, &rollout};
  }

  /// What the serve path answers for an ECS `client_block` asking via `ldns`.
  [[nodiscard]] std::optional<dnsserver::DynamicAnswer> serve(
      const topo::Ldns& ldns, const net::IpPrefix& client_block, const char* qname) {
    dnsserver::DynamicQuery query;
    query.qname = dns::DnsName::from_text(qname);
    query.resolver = ldns.address;
    query.client_block = client_block;
    return handler(query);
  }
  [[nodiscard]] std::optional<dnsserver::DynamicAnswer> serve(
      const topo::Ldns& ldns, const topo::ClientBlock& block, const char* qname) {
    return serve(ldns, block.prefix, qname);
  }
};

net::IpAddr client_in(const topo::ClientBlock& block, std::uint32_t offset = 5) {
  return net::IpAddr{net::IpV4Addr{block.prefix.address().v4().value() + offset}};
}

constexpr const char* kQname = "www.g.cdn.example";

TEST(DecisionExplain, GateClosedMatchesServedNsAnswer) {
  ExplainFixture fx;
  fx.rollout.set_fraction(0.0);
  const topo::Ldns& ldns = fx.world.ldnses.front();
  const topo::ClientBlock& block = fx.world.blocks[5];
  const DecisionExplainer explainer = fx.explainer();

  const auto explanation = explainer.explain(client_in(block), kQname, ldns.address);
  ASSERT_TRUE(explanation.ok) << explanation.error;
  EXPECT_EQ(explanation.ldns, ldns.id);
  EXPECT_EQ(explanation.ldns_source, Source::explicit_arg);
  EXPECT_FALSE(explanation.end_user_on);
  EXPECT_FALSE(explanation.block.has_value());
  EXPECT_EQ(explanation.ecs_scope, 0);
  ASSERT_TRUE(explanation.has_rollout);
  EXPECT_EQ(explanation.enabled_cohorts, 0U);
  EXPECT_FALSE(explanation.whitelisted);

  const auto served = fx.serve(ldns, block, kQname);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->ecs_scope_len, 0);  // NS-based: valid for everyone
  ASSERT_TRUE(explanation.map.result.has_value());
  EXPECT_EQ(explanation.map.result->servers, served->addresses);
  EXPECT_EQ(explanation.map.version, fx.maker.version());
}

TEST(DecisionExplain, GateOpenMatchesServedClientBlockAnswer) {
  ExplainFixture fx;
  fx.rollout.set_fraction(1.0);
  const topo::Ldns& ldns = fx.world.ldnses.front();
  const topo::ClientBlock& block = fx.world.blocks[7];
  const DecisionExplainer explainer = fx.explainer();

  const auto explanation = explainer.explain(client_in(block), kQname, ldns.address);
  ASSERT_TRUE(explanation.ok) << explanation.error;
  EXPECT_TRUE(explanation.end_user_on);
  ASSERT_TRUE(explanation.block.has_value());
  EXPECT_EQ(*explanation.block, block.id);
  EXPECT_EQ(explanation.ecs_scope, fx.mapping.config().ecs_scope_len);
  EXPECT_TRUE(explanation.map.used_client_block);

  const auto served = fx.serve(ldns, block, kQname);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->ecs_scope_len, fx.mapping.config().ecs_scope_len);
  ASSERT_TRUE(explanation.map.result.has_value());
  EXPECT_EQ(explanation.map.result->servers, served->addresses);

  // Exactly one candidate is marked chosen, and it is the answer.
  const auto chosen = std::count_if(
      explanation.map.candidates.begin(), explanation.map.candidates.end(),
      [](const cdn::MapSnapshot::ExplainCandidate& c) { return c.chosen; });
  EXPECT_EQ(chosen, 1);
  for (const cdn::MapSnapshot::ExplainCandidate& candidate : explanation.map.candidates) {
    if (candidate.chosen) {
      EXPECT_EQ(candidate.deployment, explanation.map.result->deployment);
    }
  }
}

TEST(DecisionExplain, WhitelistOpensTheGateAheadOfTheRamp) {
  ExplainFixture fx;
  fx.rollout.set_fraction(0.0);
  const topo::Ldns& ldns = fx.world.ldnses.front();
  const topo::ClientBlock& block = fx.world.blocks[9];
  fx.rollout.whitelist(ldns.id);
  const DecisionExplainer explainer = fx.explainer();

  const auto explanation = explainer.explain(client_in(block), kQname, ldns.address);
  ASSERT_TRUE(explanation.ok) << explanation.error;
  EXPECT_TRUE(explanation.whitelisted);
  EXPECT_TRUE(explanation.end_user_on);
  ASSERT_TRUE(explanation.block.has_value());

  const auto served = fx.serve(ldns, block, kQname);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->ecs_scope_len, fx.mapping.config().ecs_scope_len);
  ASSERT_TRUE(explanation.map.result.has_value());
  EXPECT_EQ(explanation.map.result->servers, served->addresses);
}

TEST(DecisionExplain, ExplainedScopeIsTheServedScope) {
  // Clients whose answer no client block decides: the explained scope is
  // the one the serve path announces, and the report prints it.
  ExplainFixture fx;
  const topo::Ldns& ldns = fx.world.ldnses.front();
  const DecisionExplainer explainer = fx.explainer();
  const net::IpAddr out_of_world = *net::IpAddr::parse("198.51.100.7");
  ASSERT_EQ(fx.world.block_by_prefix(net::IpPrefix{out_of_world, 24}), nullptr);
  struct Case {
    const char* what;
    double fraction;  ///< roll-out ramp: 1 opens every resolver's gate
    net::IpAddr client;
    int source_len;
    int scope;
  };
  const Case cases[] = {
      {"out-of-world v4 client", 1.0, out_of_world, 24, 24},
      {"v6 client", 1.0, *net::IpAddr::parse("2001:db8::7"), 56, 0},
      {"gate-closed resolver", 0.0, client_in(fx.world.blocks[5]), 24, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    fx.rollout.set_fraction(c.fraction);
    const auto explanation = explainer.explain(c.client, kQname, ldns.address);
    ASSERT_TRUE(explanation.ok) << explanation.error;
    EXPECT_FALSE(explanation.block.has_value());
    EXPECT_EQ(explanation.ecs_scope, c.scope);
    EXPECT_NE(DecisionExplainer::render(explanation)
                  .find("ecs_scope /" + std::to_string(c.scope) + " "),
              std::string::npos);

    const auto served = fx.serve(ldns, net::IpPrefix{c.client, c.source_len}, kQname);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(served->ecs_scope_len, explanation.ecs_scope);
    ASSERT_TRUE(explanation.map.result.has_value());
    EXPECT_EQ(explanation.map.result->servers, served->addresses);
  }
}

TEST(DecisionExplain, ResolverAttributionChain) {
  ExplainFixture fx;
  DecisionExplainer explainer = fx.explainer();
  const topo::Ldns& ldns = fx.world.ldnses.front();
  const topo::ClientBlock& block = fx.world.blocks[3];

  // The queried IP IS a known LDNS.
  const auto as_ldns = explainer.explain(ldns.address, "");
  ASSERT_TRUE(as_ldns.ok) << as_ldns.error;
  EXPECT_EQ(as_ldns.ldns_source, Source::ip_is_ldns);
  EXPECT_EQ(as_ldns.ldns, ldns.id);
  EXPECT_EQ(as_ldns.qname, "www.cdn.example.");  // default qname kicks in

  // A client address maps through its /24 block's primary LDNS.
  const auto via_block = explainer.explain(client_in(block), kQname);
  ASSERT_TRUE(via_block.ok) << via_block.error;
  EXPECT_EQ(via_block.ldns_source, Source::client_primary);
  EXPECT_EQ(via_block.ldns, fx.world.primary_ldns(block).id);

  // Unattributable without a fallback: a clear error, not a guess.
  const net::IpAddr stranger = *net::IpAddr::parse("127.0.0.1");
  const auto lost = explainer.explain(stranger, kQname);
  EXPECT_FALSE(lost.ok);
  EXPECT_FALSE(lost.error.empty());

  explainer.set_fallback_ldns(ldns.id);
  const auto fell_back = explainer.explain(stranger, kQname);
  ASSERT_TRUE(fell_back.ok) << fell_back.error;
  EXPECT_EQ(fell_back.ldns_source, Source::fallback);
  EXPECT_EQ(fell_back.ldns, ldns.id);

  // An explicit resolver that is not an LDNS is an error too.
  const auto bad_resolver = explainer.explain(client_in(block), kQname, stranger);
  EXPECT_FALSE(bad_resolver.ok);
  EXPECT_NE(bad_resolver.error.find("not a known LDNS"), std::string::npos);
}

TEST(DecisionExplain, TracksRepublishedSnapshots) {
  ExplainFixture fx;
  fx.rollout.set_fraction(1.0);
  const topo::Ldns& ldns = fx.world.ldnses.front();
  const topo::ClientBlock& block = fx.world.blocks[11];
  const DecisionExplainer explainer = fx.explainer();

  const auto before = explainer.explain(client_in(block), kQname, ldns.address);
  ASSERT_TRUE(before.ok);
  ASSERT_TRUE(before.map.result.has_value());
  EXPECT_EQ(before.map.version, 1U);

  // Kill the chosen cluster and republish: explain must follow the new
  // generation and route around the dead cluster, still matching serve.
  const cdn::DeploymentId victim = before.map.result->deployment;
  fx.network.set_cluster_alive(victim, false);
  (void)fx.maker.rebuild_now();
  ASSERT_GE(fx.maker.version(), 2U);

  const auto after = explainer.explain(client_in(block), kQname, ldns.address);
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.map.version, fx.maker.version());
  ASSERT_TRUE(after.map.result.has_value());
  EXPECT_NE(after.map.result->deployment, victim);
  const auto served = fx.serve(ldns, block, kQname);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(after.map.result->servers, served->addresses);
  fx.network.set_cluster_alive(victim, true);
}

TEST(DecisionExplain, ServePathEmitsMapDecisionSpan) {
  // The handler's map_decision trace span must tell the same story the
  // explainer does: same cluster, client-block path flagged.
  ExplainFixture fx;
  fx.rollout.set_fraction(1.0);
  const topo::Ldns& ldns = fx.world.ldnses.front();
  const topo::ClientBlock& block = fx.world.blocks[13];

  const auto explanation = fx.explainer().explain(client_in(block), kQname, ldns.address);
  ASSERT_TRUE(explanation.ok);
  ASSERT_TRUE(explanation.map.result.has_value());

  obs::FlightRecorderConfig trace_config;
  trace_config.sample_every = 1;
  trace_config.fixed_slow_threshold_us = 0xFFFFFFFEU;
  obs::FlightRecorder recorder{trace_config};
  obs::QueryTracer tracer{&recorder, 0};
  tracer.begin();
  {
    obs::TracerScope scope{&tracer};
    const auto served = fx.serve(ldns, block, kQname);
    ASSERT_TRUE(served.has_value());
  }
  tracer.finish();

  const std::vector<obs::TraceRecord> drained = recorder.drain();
  ASSERT_EQ(drained.size(), 1U);
  const obs::TraceRecord& record = drained[0];
  const auto* span = std::find_if(
      record.spans, record.spans + record.span_count,
      [](const obs::TraceSpan& s) { return s.stage == obs::TraceStage::map_decision; });
  ASSERT_NE(span, record.spans + record.span_count);
  EXPECT_EQ(span->code, 1);  // client-block path
  EXPECT_EQ(span->value,
            static_cast<std::int64_t>(explanation.map.result->deployment));
  EXPECT_NE(std::string_view{span->detail}.find("ldns="), std::string_view::npos);
}

TEST(DecisionExplain, CommandParsesArgumentsAndRenders) {
  ExplainFixture fx;
  fx.rollout.set_fraction(1.0);
  const topo::ClientBlock& block = fx.world.blocks[2];
  const DecisionExplainer explainer = fx.explainer();

  EXPECT_THROW((void)explainer.command({"explain"}), std::runtime_error);
  EXPECT_THROW((void)explainer.command({"explain", "not-an-ip"}), std::runtime_error);
  EXPECT_THROW((void)explainer.command({"explain", "10.0.0.1", "q.example", "bogus"}),
               std::runtime_error);

  const std::string client = client_in(block).to_string();
  const std::string report = explainer.command({"explain", client, kQname});
  EXPECT_NE(report.find("client " + client), std::string::npos) << report;
  EXPECT_NE(report.find("qname " + std::string{kQname}), std::string::npos);
  EXPECT_NE(report.find("rollout cohort="), std::string::npos);
  EXPECT_NE(report.find("map_version="), std::string::npos);
  EXPECT_NE(report.find("candidates ("), std::string::npos);
  EXPECT_NE(report.find("answer "), std::string::npos);
  EXPECT_NE(report.find("*"), std::string::npos);  // the chosen-candidate marker

  // An unattributable client renders as a readable error body (the admin
  // server would still frame it with END).
  const std::string error = explainer.command({"explain", "127.0.0.1"});
  EXPECT_NE(error.find("cannot explain:"), std::string::npos);
}

TEST(DecisionExplain, SnapshotInfoReportsProvenanceAndRebuildReasons) {
  ExplainFixture fx;
  const std::string info = snapshot_info(fx.maker);
  EXPECT_NE(info.find("version 1"), std::string::npos) << info;
  EXPECT_NE(info.find("policy end_user"), std::string::npos);
  EXPECT_NE(info.find("clusters "), std::string::npos);
  EXPECT_NE(info.find("rebuild_reasons initial=1 periodic=0 liveness=0 requested=0 "
                      "manual=0"),
            std::string::npos)
      << info;
  EXPECT_NE(info.find("build git="), std::string::npos);

  (void)fx.maker.rebuild_now();
  const std::string after = snapshot_info(fx.maker);
  EXPECT_NE(after.find("manual=1"), std::string::npos) << after;
}

TEST(DecisionExplain, RebuildReasonCountersFollowTheTriggers) {
  const topo::World& world = tiny_world();
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 30);
  cdn::MappingSystem mapping{&world, &network, &test_latency(), cdn::MappingConfig{}};
  util::SimClock clock;
  MapMakerConfig config;
  config.rescore_interval_s = 30;
  MapMaker maker{&mapping, &clock, config};

  EXPECT_EQ(maker.rebuilds_for(RebuildReason::initial), 1U);
  EXPECT_EQ(maker.rebuilds_for(RebuildReason::manual), 0U);
  (void)maker.rebuild_now();
  EXPECT_EQ(maker.rebuilds_for(RebuildReason::manual), 1U);
  clock.advance(30);
  EXPECT_TRUE(maker.tick());
  EXPECT_EQ(maker.rebuilds_for(RebuildReason::periodic), 1U);
  EXPECT_EQ(maker.rebuilds(), 3U);  // the aggregate stays the sum of reasons

  EXPECT_STREQ(to_string(RebuildReason::initial), "initial");
  EXPECT_STREQ(to_string(RebuildReason::liveness), "liveness");
  EXPECT_STREQ(to_string(RebuildReason::requested), "requested");
}

}  // namespace
}  // namespace eum::control
