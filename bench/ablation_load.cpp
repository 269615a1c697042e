// Ablation (DESIGN.md §5 / paper §2.2): capacity-aware global load
// balancing under a regional flash crowd. The mapping system "combines
// [scoring] with liveness, capacity, and other real-time information";
// this bench overloads the most popular country's clusters and measures
// how far clients spill and what it costs them in latency — then repeats
// with a mass cluster failure.
#include "bench_common.h"

#include "geo/coords.h"

using namespace eum;

namespace {

struct SpillStats {
  double mean_distance_mi = 0.0;
  double mean_rtt_ms = 0.0;
  double served_fraction = 1.0;
};

SpillStats measure_spill(const topo::World& world, cdn::MappingSystem& mapping,
                         const std::vector<topo::BlockId>& blocks, double load_per_session) {
  SpillStats stats;
  int served = 0;
  for (const topo::BlockId id : blocks) {
    const auto result = mapping.map_block(id, "flash.event.example", load_per_session);
    if (!result) continue;
    ++served;
    const auto& deployment = mapping.network().deployments()[result->deployment];
    stats.mean_distance_mi +=
        geo::great_circle_miles(world.blocks[id].location, deployment.location);
    stats.mean_rtt_ms += result->expected_rtt_ms;
  }
  if (served > 0) {
    stats.mean_distance_mi /= served;
    stats.mean_rtt_ms /= served;
  }
  stats.served_fraction = static_cast<double>(served) / static_cast<double>(blocks.size());
  return stats;
}

}  // namespace

int main() {
  bench::banner("load-balancing ablation - flash crowd and mass failure",
                "global LB combines scoring with liveness and capacity (§2.2)");

  const auto& world = bench::default_world();

  // The flash crowd: every US block requests simultaneously.
  std::vector<topo::BlockId> us_blocks;
  for (const auto& block : world.blocks) {
    if (world.countries[block.country].code == "US") us_blocks.push_back(block.id);
  }

  stats::Table table{"scenario", "served", "mean distance (mi)", "mean est. RTT (ms)"};
  const auto run = [&](const char* label, double cluster_capacity, double session_load,
                       double kill_fraction) {
    cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 600, 8, cluster_capacity);
    cdn::MappingSystem mapping{&world, &network, &bench::default_latency(),
                               cdn::MappingConfig{}};
    if (kill_fraction > 0.0) {
      util::Rng rng{5};
      for (std::size_t d = 0; d < network.size(); ++d) {
        if (rng.chance(kill_fraction)) {
          network.set_cluster_alive(static_cast<cdn::DeploymentId>(d), false);
        }
      }
      mapping.rescore();  // publish the map without the dead clusters
    }
    const SpillStats stats = measure_spill(world, mapping, us_blocks, session_load);
    table.add_row({label, stats::num(100.0 * stats.served_fraction, 1) + "%",
                   stats::num(stats.mean_distance_mi, 0), stats::num(stats.mean_rtt_ms, 1)});
    return stats;
  };

  const SpillStats baseline = run("ample capacity", 1e9, 1.0, 0.0);
  const SpillStats tight = run("tight capacity (spill to neighbors)",
                               static_cast<double>(us_blocks.size()) / 250.0, 1.0, 0.0);
  const SpillStats choked = run("severe shortage", static_cast<double>(us_blocks.size()) / 1200.0,
                                1.0, 0.0);
  const SpillStats failures = run("30% of clusters dead", 1e9, 1.0, 0.30);
  std::printf("%s\n", table.render().c_str());

  std::printf("shape checks:\n");
  std::printf("  spill raises distance monotonically         %s\n",
              baseline.mean_distance_mi < tight.mean_distance_mi &&
                      tight.mean_distance_mi < choked.mean_distance_mi
                  ? "[OK]" : "[MISMATCH]");
  std::printf("  every client still served while capacity>0  %s\n",
              tight.served_fraction >= 0.999 && failures.served_fraction >= 0.999
                  ? "[OK]" : "[MISMATCH]");
  std::printf("  mass failure costs less than mass overload   %s\n",
              failures.mean_distance_mi < choked.mean_distance_mi ? "[OK]" : "[MISMATCH]");
  return 0;
}
