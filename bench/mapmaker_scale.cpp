// Map-making at paper scale: the once-per-construction unit ranking and
// the per-flap rebuild over worlds of 100K / 1M / 4M client blocks (the
// paper's dataset is 3.76M /24s). Each arm generates a streamed world (no
// geo trie — the map maker never consults it), partitions the
// ping-target space into mapping units (§4, the Gürsun latency-cluster
// construction behind Fig 21), then measures:
//
//   - cold-start stages, each call timed alone on the arm's world: the
//     ping-mesh measurement, the unit partition and the serial unit
//     ranking (Scoring::build without the CANS aggregation, which the
//     arms turn off) a MappingSystem runs at construction,
//   - rebuild latency: one cluster flaps, and a MapMaker rebuilds and
//     publishes — the cluster views only, since every generation shares
//     the ranking,
//   - sustained publish rate on that path,
//   - resident memory (VmRSS) once the arm is built.
//
// A differential check pins the republished map to a brute-force
// reference: after a flap, a seeded sample of blocks (EU) and LDNSes (NS)
// must each be served the best cluster by (score, id) with a live server
// on the query's own ping-target column. Results land in
// BENCH_mapmaker.json (EUM_BENCH_OUT overrides), gated by
// scripts/check_bench_artifact.py: at >= 1M blocks a flap's rebuild must
// beat the ranking outright.
//
// Arms: EUM_MAPMAKER_BLOCKS (default "100000,1000000,4000000").
// Iterations per measurement: EUM_MAPMAKER_ITERS (default 5); every
// timing is the best of them.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "cdn/map_snapshot.h"
#include "cdn/mapping.h"
#include "cdn/mapping_units.h"
#include "cdn/ping_mesh.h"
#include "cdn/scoring.h"
#include "control/map_maker.h"
#include "stats/table.h"
#include "topo/world_gen.h"

namespace {

using namespace eum;

struct ArmResult {
  std::size_t blocks = 0;
  std::size_t targets = 0;
  std::size_t ldnses = 0;
  std::size_t clusters = 0;
  std::size_t units = 0;
  double world_gen_s = 0.0;
  double mesh_measure_ms = 0.0;  ///< best-of-iters, cdn::PingMesh::measure
  double units_ms = 0.0;         ///< best-of-iters, cdn::MappingUnits::build
  double ranking_ms = 0.0;       ///< best-of-iters, serial unit ranking (Scoring::build)
  double rebuild_ms = 0.0;       ///< best-of-iters, single-cluster flap rebuild + publish
  double publish_rate_hz = 0.0;  ///< sustained flap publishes
  double rss_mb = 0.0;
  bool differential_equal = false;
};

/// VmRSS from /proc/self/status, in MiB (0.0 if unreadable).
double resident_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      mb = std::strtod(line + 6, nullptr) / 1024.0;
      break;
    }
  }
  std::fclose(status);
  return mb;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The fastest of `iters` runs of `work`, in ms.
template <typename Work>
double best_ms(int iters, const Work& work) {
  double best = 1e300;
  for (int i = 0; i < iters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    work();
    best = std::min(best, ms_since(t0));
  }
  return best;
}

std::vector<std::size_t> parse_arms(const char* env) {
  std::vector<std::size_t> arms;
  std::string spec = env != nullptr ? env : "100000,1000000,4000000";
  for (std::size_t pos = 0; pos < spec.size();) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok = spec.substr(pos, comma - pos);
    if (!tok.empty()) arms.push_back(std::strtoull(tok.c_str(), nullptr, 10));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return arms;
}

/// Does the current map serve the brute-force reference to a seeded
/// sample of blocks (EU) and LDNSes (NS): the best cluster by (score, id)
/// with a live server on the query's own ping-target column, its servers
/// ranked by pick_servers and its RTT from the mesh?
bool serves_brute_force_reference(const topo::World& world, const cdn::CdnNetwork& network,
                                  const cdn::MappingSystem& mapping) {
  constexpr std::string_view kDomain = "www.g.cdn.example";
  const cdn::PingMesh& mesh = mapping.mesh();
  const auto snapshot = mapping.snapshot();
  const auto best_live = [&](topo::PingTargetId target) {
    std::optional<cdn::DeploymentId> best;
    float best_score = 0.0F;
    for (const cdn::Deployment& deployment : network.deployments()) {
      const bool live = deployment.alive &&
                        std::any_of(deployment.servers.begin(), deployment.servers.end(),
                                    [](const cdn::Server& server) { return server.alive; });
      const float score = cdn::path_score(mapping.config().traffic_class,
                                          mesh.rtt_ms(deployment.id, target),
                                          mesh.loss_rate(deployment.id, target));
      if (live && (!best || score < best_score)) {
        best = deployment.id;
        best_score = score;
      }
    }
    return best;
  };
  const auto matches = [&](const std::optional<cdn::MapResult>& got,
                           topo::PingTargetId target) {
    const std::optional<cdn::DeploymentId> want = best_live(target);
    if (got.has_value() != want.has_value()) return false;
    if (!got) return true;
    cdn::ServerList servers;
    snapshot->pick_servers(*want, kDomain, servers);
    return got->deployment == *want && got->servers == servers &&
           got->expected_rtt_ms == mesh.rtt_ms(*want, target);
  };

  std::mt19937 rng{42};
  for (int i = 0; i < 2000; ++i) {
    const topo::ClientBlock& block = world.blocks[rng() % world.blocks.size()];
    if (!matches(snapshot->map(0, block.id, kDomain), block.ping_target)) return false;
  }
  for (int i = 0; i < 500; ++i) {
    const topo::Ldns& ldns = world.ldnses[rng() % world.ldnses.size()];
    if (!matches(snapshot->map(ldns.id, std::nullopt, kDomain), ldns.ping_target)) return false;
  }
  return true;
}

ArmResult run_arm(std::size_t blocks, int iters) {
  ArmResult result;
  result.blocks = blocks;

  topo::WorldGenConfig world_config;
  world_config.seed = 42;
  world_config.target_blocks = blocks;
  world_config.target_ases = std::max<std::size_t>(400, blocks / 100);
  world_config.ping_targets = blocks >= 1'000'000 ? 8192 : 4000;  // paper: 8K proxies
  world_config.build_geodb = false;  // the map maker never touches the geo trie
  const auto gen0 = std::chrono::steady_clock::now();
  const topo::World world = topo::generate_world(world_config);
  result.world_gen_s = ms_since(gen0) / 1000.0;
  result.targets = world.ping_targets.size();
  result.ldnses = world.ldnses.size();

  const topo::LatencyModel latency{topo::LatencyParams{}, world_config.seed};
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 600);
  result.clusters = network.size();

  cdn::MappingConfig mapping_config;
  // Cluster-level aggregation scans every block x LDNS association — the
  // one O(world) term the unit partition cannot shard away. End-user
  // serving never reads it, so scale arms turn it off.
  mapping_config.precompute_cluster_scores = false;
  cdn::MappingSystem mapping{&world, &network, &latency, mapping_config};

  result.units = mapping.units().unit_count();

  // Cold-start stages, each call alone (its result dropped), on the same
  // inputs the constructor above uses.
  result.mesh_measure_ms =
      best_ms(iters, [&] { (void)cdn::PingMesh::measure(world, network, latency); });
  result.units_ms = best_ms(iters, [&] { (void)cdn::MappingUnits::build(mapping.mesh()); });
  result.ranking_ms = best_ms(iters, [&] {
    (void)cdn::Scoring::build(world, network, mapping.mesh(), mapping.units(),
                              mapping_config.scoring_top_k, mapping_config.traffic_class,
                              mapping_config.precompute_cluster_scores);
  });

  // Rebuilds: flap one cluster per rebuild (die, rebuild, revive,
  // rebuild), each published through the map maker; best-of-iters (the
  // floor is the honest number for a latency comparison on a shared
  // machine).
  control::MapMaker maker{&mapping};
  const cdn::DeploymentId victim = network.size() / 2;
  result.rebuild_ms = 1e300;
  std::uint64_t flap_publishes = 0;
  double flap_seconds = 0.0;
  for (int i = 0; i < iters; ++i) {
    for (const bool alive : {false, true}) {
      network.set_cluster_alive(victim, alive);
      const auto t0 = std::chrono::steady_clock::now();
      (void)maker.rebuild_now(true);
      const double ms = ms_since(t0);
      result.rebuild_ms = std::min(result.rebuild_ms, ms);
      flap_seconds += ms / 1000.0;
      ++flap_publishes;
    }
  }
  result.publish_rate_hz = flap_seconds > 0.0 ? flap_publishes / flap_seconds : 0.0;

  // Differential gate: with the victim dead and republished, the map must
  // serve the brute-force reference.
  network.set_cluster_alive(victim, false);
  (void)maker.rebuild_now(true);
  result.differential_equal = serves_brute_force_reference(world, network, mapping);
  network.set_cluster_alive(victim, true);

  result.rss_mb = resident_mb();
  return result;
}

void write_bench_json(const std::vector<ArmResult>& arms, const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::perror("mapmaker_scale: fopen bench artifact");
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"mapmaker\",\n  \"arms\": [\n");
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const ArmResult& a = arms[i];
    std::fprintf(
        out,
        "    {\"blocks\": %zu, \"targets\": %zu, \"ldnses\": %zu, \"clusters\": %zu, "
        "\"units\": %zu, \"world_gen_s\": %.2f, \"mesh_measure_ms\": %.2f, "
        "\"units_ms\": %.2f, \"ranking_ms\": %.2f, \"rebuild_ms\": %.3f, "
        "\"publish_rate_hz\": %.1f, \"rss_mb\": %.1f, \"differential_equal\": %s}%s\n",
        a.blocks, a.targets, a.ldnses, a.clusters, a.units, a.world_gen_s, a.mesh_measure_ms,
        a.units_ms, a.ranking_ms, a.rebuild_ms, a.publish_rate_hz, a.rss_mb,
        a.differential_equal ? "true" : "false", i + 1 < arms.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main() {
  const std::vector<std::size_t> arms = parse_arms(std::getenv("EUM_MAPMAKER_BLOCKS"));
  int iters = 5;
  if (const char* env = std::getenv("EUM_MAPMAKER_ITERS")) {
    iters = std::max(1, std::atoi(env));
  }

  std::printf("=== mapmaker_scale ===\n");
  std::printf("unit ranking (once, at construction) vs one cluster flap's rebuild; %d iters\n\n",
              iters);

  stats::Table table{{"blocks", "targets", "units", "ranking ms", "rebuild ms", "pub/s",
                      "rss MB", "diff=="}};
  std::vector<ArmResult> results;
  bool all_equal = true;
  for (const std::size_t blocks : arms) {
    std::printf("arm %zu blocks: generating world...\n", blocks);
    std::fflush(stdout);
    const ArmResult a = run_arm(blocks, iters);
    std::printf("  world %.1fs, %zu units over %zu targets; ranking %.1fms, flap rebuild "
                "%.3fms, rss %.0f MB\n",
                a.world_gen_s, a.units, a.targets, a.ranking_ms, a.rebuild_ms, a.rss_mb);
    std::printf("  cold start: mesh %.1fms, units %.1fms, ranking %.1fms\n", a.mesh_measure_ms,
                a.units_ms, a.ranking_ms);
    table.add_row({stats::num(static_cast<double>(a.blocks), 0),
                   stats::num(static_cast<double>(a.targets), 0),
                   stats::num(static_cast<double>(a.units), 0), stats::num(a.ranking_ms, 2),
                   stats::num(a.rebuild_ms, 3), stats::num(a.publish_rate_hz, 1),
                   stats::num(a.rss_mb, 0), a.differential_equal ? "yes" : "NO"});
    all_equal = all_equal && a.differential_equal;
    results.push_back(a);
  }
  std::printf("\n");
  std::fputs(table.render().c_str(), stdout);

  const char* out_path = std::getenv("EUM_BENCH_OUT");
  write_bench_json(results, out_path != nullptr ? out_path : "BENCH_mapmaker.json");

  // Gate: the brute-force differential is non-negotiable; speed is judged
  // by scripts/check_bench_artifact.py against the written artifact.
  return all_equal && !results.empty() ? 0 : 1;
}
