// Latency under load: open-loop QPS sweep against the real mapping stack.
//
// The historical udp_throughput bench is closed-loop: every client waits
// for its answer before sending the next query, so when the server
// stalls, the *offered load politely stops* — queueing delay is silently
// omitted from the latency record (coordinated omission). This bench
// drives the batched + answer-cached serving path the way the paper's
// authorities actually experience traffic: an `OpenLoopSchedule` fixes
// every query's send instant up front (Poisson arrivals at a configured
// QPS), `run_open_loop` charges latency from the *scheduled* send time,
// and queries the server never answers are counted as drops instead of
// vanishing.
//
// Output: a throughput-vs-latency curve (p50/p99/p999 per offered-QPS
// point), the max offered QPS under the SLO — the top of the curve's
// passing prefix, where every point up to it keeps p999 under
// EUM_LOADGEN_SLO_US (default 2000 us) with a drop rate under 1% — and
// an open-vs-closed comparison arm at a matched rate that quantifies the
// coordinated-omission error. Everything lands in BENCH_loadgen.json
// (EUM_BENCH_OUT overrides the path), gated by
// scripts/check_bench_artifact.py.
//
// Knobs (all environment variables, all optional):
//   EUM_LOADGEN_BASE_QPS   first sweep point        (default 2000)
//   EUM_LOADGEN_POINTS     sweep points, doubling   (default 6, min 5)
//   EUM_LOADGEN_WINDOW_MS  per-point window         (default 400)
//   EUM_LOADGEN_SLO_US     p999 SLO in microseconds (default 2000)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cdn/mapping.h"
#include "control/map_maker.h"
#include "dnsserver/udp.h"
#include "load/driver.h"
#include "load/schedule.h"
#include "load/traffic.h"
#include "obs/metrics.h"
#include "stats/table.h"
#include "topo/world_gen.h"

namespace {

using namespace std::chrono_literals;
using namespace eum;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

/// One point on the offered-QPS curve.
struct CurvePoint {
  load::LoadReport report;
  bool meets_slo = false;
};

/// The serving stack under test: the same setup as udp_throughput's
/// churn section — real mapping system answering from its RCU-published
/// snapshot behind a MapMaker — plus the batched serve path's wire answer cache
/// keyed to the published map version. This is the configuration the
/// max-QPS-under-SLO number describes.
struct Stack {
  topo::World world;
  std::unique_ptr<topo::LatencyModel> latency;
  std::unique_ptr<cdn::CdnNetwork> network;
  std::unique_ptr<cdn::MappingSystem> mapping;
  std::unique_ptr<control::MapMaker> maker;
  std::unique_ptr<dnsserver::AuthoritativeServer> engine;
  std::unique_ptr<dnsserver::UdpAuthorityServer> server;

  static Stack build() {
    Stack s;
    topo::WorldGenConfig world_config;
    world_config.seed = 42;
    world_config.target_blocks = 4000;
    world_config.target_ases = 220;
    world_config.ping_targets = 400;
    s.world = topo::generate_world(world_config);
    s.latency = std::make_unique<topo::LatencyModel>(topo::LatencyParams{},
                                                     world_config.seed);
    s.network = std::make_unique<cdn::CdnNetwork>(cdn::CdnNetwork::build(s.world, 150));
    s.mapping = std::make_unique<cdn::MappingSystem>(&s.world, s.network.get(),
                                                     s.latency.get(), cdn::MappingConfig{});
    s.maker = std::make_unique<control::MapMaker>(s.mapping.get(), nullptr,
                                                  control::MapMakerConfig{});

    s.engine = std::make_unique<dnsserver::AuthoritativeServer>();
    s.engine->set_latency_tracking(false);
    // Load-generator flows bind ephemeral loopback ports, so the peer
    // address the server sees is never a world LDNS; patch unknown
    // resolvers to a fixed fallback (as run_churn does). The diversity
    // that reaches the mapping decision is what the wire carries: the
    // qname mix and the per-LDNS ECS prefixes — which is exactly the
    // end-user-mapping regime the paper argues for.
    const topo::Ldns& fallback_ldns = s.world.ldnses.front();
    const topo::World* world = &s.world;
    auto inner = s.mapping->dns_handler();
    s.engine->add_dynamic_domain(
        dns::DnsName::from_text("g.cdn.example"),
        [world, &fallback_ldns, inner](const dnsserver::DynamicQuery& query)
            -> std::optional<dnsserver::DynamicAnswer> {
          dnsserver::DynamicQuery patched = query;
          if (world->ldns_by_address(query.resolver) == nullptr) {
            patched.resolver = fallback_ldns.address;
          }
          return inner(patched);
        });

    dnsserver::UdpServerConfig config;
    config.workers = 4;
    config.batch = 32;
    config.answer_cache_entries = 4096;
    config.map_version = &s.maker->version_cell();
    s.server = std::make_unique<dnsserver::UdpAuthorityServer>(
        s.engine.get(), dnsserver::UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}, config);
    s.server->start();
    return s;
  }
};

void write_bench_json(const load::TrafficModel& model,
                      const std::vector<CurvePoint>& curve, double slo_us,
                      double max_qps_under_slo,
                      const load::ClosedLoopReport& closed,
                      const load::LoadReport& open_matched,
                      const dnsserver::UdpServerStats& stats, const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::perror("loadgen: fopen bench artifact");
    return;
  }
  const auto& tc = model.config();
  std::fprintf(out, "{\n  \"bench\": \"loadgen\",\n  \"open_loop\": true,\n");
  std::fprintf(out,
               "  \"server\": {\"workers\": 4, \"batch\": 32, "
               "\"answer_cache_entries\": 4096, \"blocks\": 4000, "
               "\"mapping\": \"rcu_fast_path\"},\n");
  std::fprintf(out,
               "  \"traffic\": {\"seed\": %llu, \"qnames\": %zu, \"ldnses\": %zu, "
               "\"edns_fraction\": %.2f, \"ecs_fraction\": %.2f},\n",
               static_cast<unsigned long long>(tc.seed), tc.qnames,
               model.population().size(), tc.edns_fraction, tc.ecs_fraction);
  std::fprintf(out, "  \"slo_p999_us\": %.0f,\n  \"curve\": [\n", slo_us);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const load::LoadReport& r = curve[i].report;
    std::fprintf(out,
                 "    {\"offered_qps\": %.0f, \"achieved_qps\": %.0f, "
                 "\"sent\": %llu, \"received\": %llu, \"dropped\": %llu, "
                 "\"late\": %llu, \"drop_rate\": %.4f, "
                 "\"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f, "
                 "\"send_lag_p99_us\": %.1f, \"meets_slo\": %s}%s\n",
                 r.offered_qps, r.achieved_qps(),
                 static_cast<unsigned long long>(r.sent),
                 static_cast<unsigned long long>(r.received),
                 static_cast<unsigned long long>(r.dropped),
                 static_cast<unsigned long long>(r.late), r.drop_rate(),
                 r.latency_us.percentile(50), r.latency_us.percentile(99),
                 r.latency_us.percentile(99.9), r.send_lag_us.percentile(99),
                 curve[i].meets_slo ? "true" : "false",
                 i + 1 < curve.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"max_qps_under_slo\": %.0f,\n", max_qps_under_slo);
  std::fprintf(out, "  \"kernel_drops\": %llu,\n",
               static_cast<unsigned long long>(stats.kernel_drops));
  const double closed_p999 = closed.latency_us.percentile(99.9);
  const double open_p999 = open_matched.latency_us.percentile(99.9);
  std::fprintf(out,
               "  \"open_vs_closed\": {\"matched_qps\": %.0f, "
               "\"closed_loop_p999_us\": %.1f, \"open_loop_p999_us\": %.1f, "
               "\"p999_delta_us\": %.1f, \"p999_ratio\": %.3f, "
               "\"closed_loop_timeouts\": %llu, \"open_loop_dropped\": %llu}\n}\n",
               closed.achieved_qps(), closed_p999, open_p999, open_p999 - closed_p999,
               closed_p999 == 0.0 ? 0.0 : open_p999 / closed_p999,
               static_cast<unsigned long long>(closed.timeouts),
               static_cast<unsigned long long>(open_matched.dropped));
  std::fclose(out);
  std::cout << "wrote " << path << '\n';
}

}  // namespace

int main() {
  const double base_qps = static_cast<double>(env_u64("EUM_LOADGEN_BASE_QPS", 2000));
  const std::size_t points =
      std::max<std::uint64_t>(5, env_u64("EUM_LOADGEN_POINTS", 6));
  const auto window = std::chrono::milliseconds{env_u64("EUM_LOADGEN_WINDOW_MS", 400)};
  const double slo_us = static_cast<double>(env_u64("EUM_LOADGEN_SLO_US", 2000));
  const double window_s = std::chrono::duration<double>(window).count();

  Stack stack = Stack::build();

  load::TrafficConfig traffic_config;
  traffic_config.seed = 42;
  load::LdnsPopulation population =
      load::LdnsPopulation::from_world(stack.world, traffic_config);
  load::TrafficModel model{std::move(population), traffic_config};

  load::DriverConfig driver;
  driver.server = stack.server->endpoint();
  driver.flows = 4;
  driver.timeout = 500ms;

  std::cout << "Open-loop latency under load: real mapping stack, 4 workers, "
               "batch 32, answer cache 4096 entries\n"
            << "traffic: " << model.population().size() << " LDNSes, "
            << traffic_config.qnames << " qnames, Poisson arrivals, "
            << window.count() << " ms per point, SLO p999 < " << slo_us << " us\n\n";

  // Warm the serve path + answer cache before the measured sweep.
  {
    const auto specs = model.generate(static_cast<std::size_t>(base_qps * window_s));
    const auto sched = load::OpenLoopSchedule::make(load::Arrivals::poisson, base_qps,
                                                    specs.size(), traffic_config.seed);
    (void)load::run_open_loop(model, specs, sched, driver);
  }

  // Max QPS under the SLO is the top of the curve's passing prefix: a
  // point that passes after one that failed does not raise it.
  std::vector<CurvePoint> curve;
  double max_qps_under_slo = 0.0;
  bool prefix_passing = true;
  double qps = base_qps;
  for (std::size_t point = 0; point < points; ++point, qps *= 2.0) {
    const auto count = static_cast<std::size_t>(qps * window_s);
    const auto specs = model.generate(count);
    const auto sched = load::OpenLoopSchedule::make(load::Arrivals::poisson, qps, count,
                                                    traffic_config.seed + point);
    CurvePoint cp;
    cp.report = load::run_open_loop(model, specs, sched, driver);
    cp.meets_slo = cp.report.latency_us.percentile(99.9) < slo_us &&
                   cp.report.drop_rate() < 0.01;
    prefix_passing = prefix_passing && cp.meets_slo;
    if (prefix_passing) max_qps_under_slo = qps;
    curve.push_back(std::move(cp));
  }

  stats::Table table{{"offered_qps", "achieved_qps", "recv", "drop", "late", "p50_us",
                      "p99_us", "p999_us", "send_lag_p99", "slo"}};
  for (const CurvePoint& cp : curve) {
    const load::LoadReport& r = cp.report;
    table.add_row({stats::num(r.offered_qps, 0), stats::num(r.achieved_qps(), 0),
                   std::to_string(r.received), std::to_string(r.dropped),
                   std::to_string(r.late), stats::num(r.latency_us.percentile(50), 0),
                   stats::num(r.latency_us.percentile(99), 0),
                   stats::num(r.latency_us.percentile(99.9), 0),
                   stats::num(r.send_lag_us.percentile(99), 0),
                   cp.meets_slo ? "ok" : "VIOLATED"});
  }
  std::cout << table.render() << '\n'
            << "max offered QPS with p999 < " << slo_us
            << " us and drop rate < 1%: " << stats::num(max_qps_under_slo, 0) << '\n';

  // Open-vs-closed comparison arm: run the naive closed-loop client,
  // then replay an open-loop schedule at the rate it achieved. The
  // closed-loop arm cannot see queueing delay it never caused; the
  // open-loop arm at the *same* rate charges it. The p999 gap is the
  // coordinated-omission error of every closed-loop bench in this repo.
  const std::size_t arm_count = static_cast<std::size_t>(base_qps * window_s);
  const auto arm_specs = model.generate(arm_count);
  load::DriverConfig arm_driver = driver;
  arm_driver.flows = 8;
  const load::ClosedLoopReport closed =
      load::run_closed_loop(model, arm_specs, arm_driver);
  const double matched_qps = std::max(closed.achieved_qps(), 1.0);
  const auto arm_sched = load::OpenLoopSchedule::make(load::Arrivals::poisson, matched_qps,
                                                      arm_count, traffic_config.seed + 97);
  const load::LoadReport open_matched =
      load::run_open_loop(model, arm_specs, arm_sched, driver);
  const double closed_p999 = closed.latency_us.percentile(99.9);
  const double open_p999 = open_matched.latency_us.percentile(99.9);
  std::cout << "\nopen vs closed loop at matched rate (" << stats::num(matched_qps, 0)
            << " qps): closed-loop p999 " << stats::num(closed_p999, 0)
            << " us (timeouts omitted: " << closed.timeouts << "), open-loop p999 "
            << stats::num(open_p999, 0) << " us (drops charged: " << open_matched.dropped
            << "), delta " << stats::num(open_p999 - closed_p999, 0) << " us\n";

  const dnsserver::UdpServerStats stats = stack.server->stats();
  std::cout << "kernel receive-queue drops over the whole run (SO_RXQ_OVFL): "
            << stats.kernel_drops << '\n';

  const char* out_path = std::getenv("EUM_BENCH_OUT");
  write_bench_json(model, curve, slo_us, max_qps_under_slo, closed, open_matched, stats,
                   out_path != nullptr ? out_path : "BENCH_loadgen.json");
  stack.server->stop();

  // Gate: the serving stack must hold the SLO at at least one measured
  // point, and the curve must be a real sweep.
  return max_qps_under_slo > 0.0 && curve.size() >= 5 ? 0 : 1;
}
