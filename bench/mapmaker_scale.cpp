// Map-making at paper scale: full vs incremental rebuild latency over
// worlds of 100K / 1M / 4M client blocks (the paper's dataset is 3.76M
// /24s). Each arm generates a streamed world (no geo trie — the map
// maker never consults it), partitions the ping-target space into
// mapping units (§4, the Gürsun latency-cluster construction behind
// Fig 21), then measures:
//
//   - cold-start stages, each call timed alone on the arm's world: the
//     ping-mesh measurement, the unit partition and the serial first
//     snapshot build (no previous generation) a MappingSystem runs at
//     construction,
//   - full rebuild latency: every unit re-scored, sharded like the map
//     maker's rebuilds (a direct MapSnapshot::build with no previous),
//   - incremental rebuild latency: one cluster flaps, only units whose
//     candidate sets touch it are re-scored (the map maker's rebuild),
//   - sustained publish rate on the incremental path,
//   - resident memory (VmRSS) once the arm is built.
//
// A differential check pins the two paths to each other: after a flap the
// published incremental snapshot must be serving-equal to a from-scratch
// full build of the same state. Results land in BENCH_mapmaker.json
// (EUM_BENCH_OUT overrides), gated by scripts/check_bench_artifact.py: at
// >= 1M blocks the incremental path must beat the full path outright.
//
// Arms: EUM_MAPMAKER_BLOCKS (default "100000,1000000,4000000").
// Shards: EUM_MAPMAKER_SHARDS (default hardware). Iterations per
// measurement: EUM_MAPMAKER_ITERS (default 5); every timing is the best
// of them.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cdn/map_snapshot.h"
#include "cdn/mapping.h"
#include "cdn/mapping_units.h"
#include "cdn/ping_mesh.h"
#include "control/map_maker.h"
#include "stats/table.h"
#include "topo/world_gen.h"
#include "util/shard_pool.h"

namespace {

using namespace eum;

struct ArmResult {
  std::size_t blocks = 0;
  std::size_t targets = 0;
  std::size_t ldnses = 0;
  std::size_t clusters = 0;
  std::size_t units = 0;
  double world_gen_s = 0.0;
  double mesh_measure_ms = 0.0;         ///< best-of-iters, cdn::PingMesh::measure
  double units_ms = 0.0;                ///< best-of-iters, cdn::MappingUnits::build
  double first_snapshot_ms = 0.0;       ///< best-of-iters, serial full MapSnapshot::build
  double full_rebuild_ms = 0.0;         ///< best-of-iters, sharded full MapSnapshot::build
  double incremental_rebuild_ms = 0.0;  ///< best-of-iters, single-cluster flap
  std::uint64_t units_rescored_flap = 0;
  double publish_rate_hz = 0.0;  ///< sustained incremental flap publishes
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

ArmResult run_arm(std::size_t blocks, std::size_t shards, int iters) {
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
  result.first_snapshot_ms = best_ms(
      iters, [&] { (void)cdn::MapSnapshot::build(mapping, 1, util::SimTime{0}, {}); });

  // Full rebuilds: best-of-iters (the floor is the honest number for a
  // latency comparison on a shared machine), sharded as the map maker's.
  util::ShardPool pool{shards == 0 ? util::ShardPool::hardware_workers() : shards - 1};
  const auto full_build = [&] {
    return cdn::MapSnapshot::build(mapping, mapping.version() + 1, util::SimTime{0}, {&pool, {}});
  };
  result.full_rebuild_ms = best_ms(iters, [&] { (void)full_build(); });

  control::MapMakerConfig inc_config;
  inc_config.scoring_shards = shards;
  control::MapMaker incremental{&mapping, nullptr, inc_config};

  // Incremental: flap one cluster per rebuild (die, rebuild, revive,
  // rebuild) so every measured build really re-scores a delta.
  const cdn::DeploymentId victim = network.size() / 2;
  result.incremental_rebuild_ms = 1e300;
  std::uint64_t flap_publishes = 0;
  double flap_seconds = 0.0;
  for (int i = 0; i < iters; ++i) {
    for (const bool alive : {false, true}) {
      network.set_cluster_alive(victim, alive);
      const auto t0 = std::chrono::steady_clock::now();
      const auto snapshot = incremental.rebuild_now(true);
      const double ms = ms_since(t0);
      result.incremental_rebuild_ms = std::min(result.incremental_rebuild_ms, ms);
      flap_seconds += ms / 1000.0;
      ++flap_publishes;
      if (i == 0 && !alive) result.units_rescored_flap = snapshot->units_rescored();
    }
  }
  result.publish_rate_hz = flap_seconds > 0.0 ? flap_publishes / flap_seconds : 0.0;

  // Differential gate: a dead-victim incremental snapshot must be
  // serving-equal to a from-scratch full build of the same state.
  network.set_cluster_alive(victim, false);
  const auto inc_snapshot = incremental.rebuild_now(true);
  result.differential_equal = inc_snapshot->serving_equal(*full_build());
  network.set_cluster_alive(victim, true);

  result.rss_mb = resident_mb();
  return result;
}

void write_bench_json(const std::vector<ArmResult>& arms, std::size_t shards,
                      const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::perror("mapmaker_scale: fopen bench artifact");
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"mapmaker\",\n  \"scoring_shards\": %zu,\n",
               shards);
  std::fprintf(out, "  \"arms\": [\n");
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const ArmResult& a = arms[i];
    std::fprintf(
        out,
        "    {\"blocks\": %zu, \"targets\": %zu, \"ldnses\": %zu, \"clusters\": %zu, "
        "\"units\": %zu, \"world_gen_s\": %.2f, \"mesh_measure_ms\": %.2f, "
        "\"units_ms\": %.2f, \"first_snapshot_ms\": %.2f, "
        "\"full_rebuild_ms\": %.2f, "
        "\"incremental_rebuild_ms\": %.2f, \"speedup\": %.1f, "
        "\"units_rescored_on_flap\": %llu, \"publish_rate_hz\": %.1f, "
        "\"rss_mb\": %.1f, \"differential_equal\": %s}%s\n",
        a.blocks, a.targets, a.ldnses, a.clusters, a.units, a.world_gen_s,
        a.mesh_measure_ms, a.units_ms, a.first_snapshot_ms,
        a.full_rebuild_ms, a.incremental_rebuild_ms,
        a.incremental_rebuild_ms > 0.0 ? a.full_rebuild_ms / a.incremental_rebuild_ms : 0.0,
        static_cast<unsigned long long>(a.units_rescored_flap), a.publish_rate_hz,
        a.rss_mb, a.differential_equal ? "true" : "false",
        i + 1 < arms.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main() {
  const std::vector<std::size_t> arms = parse_arms(std::getenv("EUM_MAPMAKER_BLOCKS"));
  std::size_t shards = 0;  // MapMakerConfig: 0 = size to the machine
  if (const char* env = std::getenv("EUM_MAPMAKER_SHARDS")) {
    shards = std::strtoull(env, nullptr, 10);
  }
  int iters = 5;
  if (const char* env = std::getenv("EUM_MAPMAKER_ITERS")) {
    iters = std::max(1, std::atoi(env));
  }

  std::printf("=== mapmaker_scale ===\n");
  std::printf("full vs incremental map rebuilds; %zu shard(s) requested (0 = hardware: %zu "
              "workers + caller), %d iters\n\n",
              shards, util::ShardPool::hardware_workers(), iters);

  stats::Table table{{"blocks", "targets", "units", "full ms", "incr ms", "speedup",
                      "rescored", "pub/s", "rss MB", "diff=="}};
  std::vector<ArmResult> results;
  bool all_equal = true;
  for (const std::size_t blocks : arms) {
    std::printf("arm %zu blocks: generating world...\n", blocks);
    std::fflush(stdout);
    const ArmResult a = run_arm(blocks, shards, iters);
    std::printf("  world %.1fs, %zu units over %zu targets; full %.1fms, incremental "
                "%.1fms (%llu units re-scored), rss %.0f MB\n",
                a.world_gen_s, a.units, a.targets, a.full_rebuild_ms,
                a.incremental_rebuild_ms,
                static_cast<unsigned long long>(a.units_rescored_flap), a.rss_mb);
    std::printf("  cold start: mesh %.1fms, units %.1fms, first snapshot %.1fms\n",
                a.mesh_measure_ms, a.units_ms, a.first_snapshot_ms);
    table.add_row({stats::num(static_cast<double>(a.blocks), 0),
               stats::num(static_cast<double>(a.targets), 0),
               stats::num(static_cast<double>(a.units), 0), stats::num(a.full_rebuild_ms, 2),
               stats::num(a.incremental_rebuild_ms, 2),
               stats::num(a.incremental_rebuild_ms > 0.0
                              ? a.full_rebuild_ms / a.incremental_rebuild_ms
                              : 0.0,
                          1),
               stats::num(static_cast<double>(a.units_rescored_flap), 0),
               stats::num(a.publish_rate_hz, 1), stats::num(a.rss_mb, 0),
               a.differential_equal ? "yes" : "NO"});
    all_equal = all_equal && a.differential_equal;
    results.push_back(a);
  }
  std::printf("\n");
  std::fputs(table.render().c_str(), stdout);

  const char* out_path = std::getenv("EUM_BENCH_OUT");
  write_bench_json(results, shards, out_path != nullptr ? out_path : "BENCH_mapmaker.json");

  // Gate: differential equality is non-negotiable; speed is judged by
  // scripts/check_bench_artifact.py against the written artifact.
  return all_equal && !results.empty() ? 0 : 1;
}
