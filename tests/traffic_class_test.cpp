// Traffic-class scoring (§2.2: different score functions per class).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "cdn/map_snapshot.h"
#include "cdn/mapping.h"
#include "test_world.h"

namespace eum::cdn {
namespace {

using eum::testing::test_latency;
using eum::testing::tiny_world;

TEST(PathScore, WebIsPureLatency) {
  EXPECT_FLOAT_EQ(path_score(TrafficClass::web, 50.0F, 0.2F), 50.0F);
  EXPECT_FLOAT_EQ(path_score(TrafficClass::web, 70.0F, 0.0F), 70.0F);
}

TEST(PathScore, VideoTradesLatencyForLoss) {
  // 50ms at 2% loss vs 70ms at 0.1% loss: web prefers the former, video
  // (throughput, Mathis) the latter.
  const float lossy_fast = path_score(TrafficClass::video, 50.0F, 0.02F);
  const float clean_slow = path_score(TrafficClass::video, 70.0F, 0.001F);
  EXPECT_GT(lossy_fast, clean_slow);
  EXPECT_LT(path_score(TrafficClass::web, 50.0F, 0.02F),
            path_score(TrafficClass::web, 70.0F, 0.001F));
}

TEST(PathScore, VideoFlooredLossKeepsLatencyOrdering) {
  // On pristine paths video scoring still prefers the lower RTT.
  EXPECT_LT(path_score(TrafficClass::video, 10.0F, 0.0F),
            path_score(TrafficClass::video, 20.0F, 0.0F));
}

TEST(LossModel, TransoceanicPathsLoseMore) {
  const topo::LatencyModel& model = test_latency();
  const geo::GeoPoint ny{40.7, -74.0};
  const geo::GeoPoint nearby{41.0, -74.5};
  const geo::GeoPoint tokyo{35.7, 139.7};
  double near_sum = 0.0;
  double far_sum = 0.0;
  for (std::uint64_t salt = 0; salt < 64; ++salt) {
    near_sum += model.expected_loss_rate(ny, nearby, salt);
    far_sum += model.expected_loss_rate(ny, tokyo, salt);
  }
  EXPECT_GT(far_sum, 3.0 * near_sum);
}

TEST(LossModel, DeterministicAndBounded) {
  const topo::LatencyModel& model = test_latency();
  const geo::GeoPoint a{10, 10};
  const geo::GeoPoint b{-30, 100};
  EXPECT_DOUBLE_EQ(model.expected_loss_rate(a, b, 7), model.expected_loss_rate(a, b, 7));
  for (std::uint64_t salt = 0; salt < 200; ++salt) {
    const double loss = model.expected_loss_rate(a, b, salt);
    EXPECT_GE(loss, 0.0);
    EXPECT_LE(loss, 0.5);
  }
}

TEST(TrafficClassScoring, MeshCarriesLossMatrix) {
  const auto& world = tiny_world();
  const CdnNetwork network = CdnNetwork::build(world, 10);
  const PingMesh mesh = PingMesh::measure(world, network, test_latency());
  for (std::size_t d = 0; d < mesh.deployment_count(); ++d) {
    for (topo::PingTargetId t = 0; t < 20; ++t) {
      EXPECT_GE(mesh.loss_rate(d, t), 0.0F);
      EXPECT_LE(mesh.loss_rate(d, t), 0.5F);
    }
  }
}

/// The best-ranked cluster of target `t`'s unit in the current map.
DeploymentId first_choice(const MappingSystem& mapping, topo::PingTargetId t) {
  const auto snapshot = mapping.snapshot();
  return snapshot->unit_candidates(snapshot->units().unit_of(t))[0].deployment;
}

MappingConfig class_config(TrafficClass klass, std::size_t top_k) {
  MappingConfig config;
  config.traffic_class = klass;
  config.scoring_top_k = top_k;
  return config;
}

TEST(TrafficClassScoring, VideoRankingDiffersSomewhere) {
  // Over enough targets, the two classes must disagree on at least one
  // best deployment (a lossy-but-near site loses its rank for video).
  const auto& world = tiny_world();
  CdnNetwork network = CdnNetwork::build(world, 40);
  const MappingSystem web{&world, &network, &test_latency(), class_config(TrafficClass::web, 4)};
  const MappingSystem video{&world, &network, &test_latency(),
                            class_config(TrafficClass::video, 4)};
  int differing = 0;
  for (topo::PingTargetId t = 0; t < world.ping_targets.size(); ++t) {
    if (first_choice(web, t) != first_choice(video, t)) ++differing;
  }
  EXPECT_GT(differing, 0);
  // But for most targets the nearest site is also clean: broad agreement.
  EXPECT_LT(differing, static_cast<int>(world.ping_targets.size()) / 2);
}

TEST(TrafficClassScoring, VideoChoicesHaveBetterThroughputScore) {
  const auto& world = tiny_world();
  CdnNetwork network = CdnNetwork::build(world, 40);
  const MappingSystem web{&world, &network, &test_latency(), class_config(TrafficClass::web, 1)};
  const MappingSystem video{&world, &network, &test_latency(),
                            class_config(TrafficClass::video, 1)};
  const PingMesh& mesh = web.mesh();
  for (topo::PingTargetId t = 0; t < world.ping_targets.size(); ++t) {
    const auto web_pick = first_choice(web, t);
    const auto video_pick = first_choice(video, t);
    const float web_video_score =
        path_score(TrafficClass::video, mesh.rtt_ms(web_pick, t), mesh.loss_rate(web_pick, t));
    const float video_video_score = path_score(TrafficClass::video, mesh.rtt_ms(video_pick, t),
                                               mesh.loss_rate(video_pick, t));
    EXPECT_LE(video_video_score, web_video_score + 1e-4F) << "target " << t;
  }
}

// A unit whose listed clusters are all full spills through the full
// column scan, and that scan ranks by the class's score like the list
// did: under video the spill lands on the best-scored usable cluster,
// not the lowest-RTT one, and explain reports the score it ranked by.
TEST(TrafficClassScoring, VideoSpillFollowsTheClassScore) {
  const auto& world = tiny_world();
  constexpr double kCapacity = 50.0;
  CdnNetwork network = CdnNetwork::build(world, 40, 8, kCapacity);
  MappingSystem video{&world, &network, &test_latency(), class_config(TrafficClass::video, 4)};
  const auto snapshot = video.snapshot();
  const PingMesh& mesh = video.mesh();
  const auto video_score = [&](std::size_t d, topo::PingTargetId t) {
    return path_score(TrafficClass::video, mesh.rtt_ms(d, t), mesh.loss_rate(d, t));
  };

  // A client block whose unit's best unlisted cluster by score is not
  // its lowest-RTT unlisted cluster.
  const topo::ClientBlock* block = nullptr;
  std::size_t by_score = 0;
  for (const topo::ClientBlock& candidate : world.blocks) {
    const topo::PingTargetId t = candidate.ping_target;
    const auto list = snapshot->unit_candidates(snapshot->units().unit_of(t));
    const auto listed = [&](std::size_t d) {
      return std::any_of(list.begin(), list.end(),
                         [&](const Candidate& c) { return c.deployment == d; });
    };
    std::optional<std::size_t> best_score;
    std::optional<std::size_t> best_rtt;
    for (std::size_t d = 0; d < network.size(); ++d) {
      if (listed(d)) continue;
      if (!best_score || video_score(d, t) < video_score(*best_score, t)) best_score = d;
      if (!best_rtt || mesh.rtt_ms(d, t) < mesh.rtt_ms(*best_rtt, t)) best_rtt = d;
    }
    if (best_score != best_rtt) {
      block = &candidate;
      by_score = *best_score;
      break;
    }
  }
  ASSERT_NE(block, nullptr) << "no unit where the class score and the RTT rank apart";

  // Fill every listed cluster past its capacity through the ledger.
  const topo::PingTargetId t = block->ping_target;
  for (const Candidate& c : snapshot->unit_candidates(snapshot->units().unit_of(t))) {
    (void)video.loads().add(c.deployment, kCapacity + 1.0);
  }
  const auto spilled = video.map_block(block->id, "v.example", 1.0);
  ASSERT_TRUE(spilled.has_value());
  EXPECT_EQ(spilled->deployment, by_score);

  const MapSnapshot::MapExplanation explained =
      snapshot->explain(world.primary_ldns(*block).id, block->id, "v.example");
  ASSERT_TRUE(explained.result.has_value());
  EXPECT_TRUE(explained.fallback_scan);
  EXPECT_EQ(explained.result->deployment, by_score);
  ASSERT_FALSE(explained.candidates.empty());
  EXPECT_TRUE(explained.candidates.back().chosen);
  EXPECT_EQ(explained.candidates.back().score_ms, video_score(by_score, t));
}

TEST(TrafficClassScoring, MappingSystemHonoursClass) {
  const auto& world = tiny_world();
  CdnNetwork network = CdnNetwork::build(world, 40);
  MappingConfig video_config;
  video_config.traffic_class = TrafficClass::video;
  MappingSystem video{&world, &network, &test_latency(), video_config};
  MappingSystem web{&world, &network, &test_latency(), MappingConfig{}};
  int differing = 0;
  for (topo::BlockId b = 0; b < world.blocks.size(); b += 7) {
    const auto web_pick = web.map_block(b, "v.example");
    const auto video_pick = video.map_block(b, "v.example");
    ASSERT_TRUE(web_pick && video_pick);
    differing += web_pick->deployment != video_pick->deployment ? 1 : 0;
  }
  EXPECT_GT(differing, 0);
}

}  // namespace
}  // namespace eum::cdn
