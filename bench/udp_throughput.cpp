// Concurrent UDP front-end throughput: the same authoritative engine
// served by 1, 2, and 4 SO_REUSEPORT workers, hammered by closed-loop
// client threads. The handler charges a fixed simulated backend latency
// per query (geo lookup / mapping decision / upstream wait), so worker
// threads pay off by overlapping waits — the regime the paper's
// authorities actually run in — and the speedup column is meaningful
// even on small machines. Prints an aligned table with registry-derived
// serve-latency percentiles; regen_figures.sh captures it alongside the
// figure benches. Results are also written as BENCH_udp_throughput.json
// (path overridable via the EUM_BENCH_OUT environment variable) so the
// perf trajectory accumulates across runs.
//
// A second section measures control-plane churn: the real mapping system,
// answering from its RCU-published snapshot, served by 4 workers,
// first with a static map (steady state), then with a background
// republish every EUM_CHURN_MS milliseconds (default 50). The comparison
// answers "what does continuous map publishing cost the serving path" —
// the RCU design's claim is: nothing but the snapshot build's CPU.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cdn/mapping.h"
#include "control/map_maker.h"
#include "dnsserver/udp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/table.h"
#include "topo/world_gen.h"

namespace {

using namespace std::chrono_literals;
using namespace eum;

constexpr auto kBackendLatency = 300us;  // simulated per-query backend work
constexpr auto kMeasureWindow = 400ms;   // per-configuration measurement
constexpr int kClientThreads = 8;

struct RunResult {
  std::size_t workers = 0;
  std::uint64_t attempted = 0;  ///< queries the clients sent
  std::uint64_t answered = 0;   ///< queries actually answered in time
  double seconds = 0.0;
  dnsserver::UdpServerStats stats;
  obs::HistogramSnapshot latency;  ///< eum_udp_serve_latency_us, this run
  /// Achieved (answered) rate — attempted-but-unanswered queries are
  /// reported separately, never folded into the headline number.
  [[nodiscard]] double qps() const { return static_cast<double>(answered) / seconds; }
};

RunResult run_config(std::size_t workers) {
  dnsserver::AuthoritativeServer engine;
  engine.add_dynamic_domain(
      dns::DnsName::from_text("g.cdn.example"),
      [](const dnsserver::DynamicQuery&) -> std::optional<dnsserver::DynamicAnswer> {
        std::this_thread::sleep_for(kBackendLatency);
        dnsserver::DynamicAnswer answer;
        answer.ttl = 20;
        answer.addresses = {net::IpAddr{net::IpV4Addr{203, 0, 0, 1}}};
        return answer;
      });
  dnsserver::UdpAuthorityServer server{
      &engine, dnsserver::UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0},
      dnsserver::UdpServerConfig{workers}};
  server.start();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      dnsserver::UdpDnsClient client;
      std::uint16_t id = static_cast<std::uint16_t>(c * 1000 + 1);
      const dns::Message query = dns::Message::make_query(
          id, dns::DnsName::from_text("www.g.cdn.example"), dns::RecordType::A);
      while (!stop.load(std::memory_order_relaxed)) {
        attempted.fetch_add(1, std::memory_order_relaxed);
        if (client.query(query, server.endpoint(), 2000ms)) {
          answered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(kMeasureWindow);
  stop = true;
  for (std::thread& thread : clients) thread.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  RunResult result;
  result.workers = workers;
  result.attempted = attempted.load(std::memory_order_relaxed);
  result.answered = answered.load(std::memory_order_relaxed);
  result.seconds = std::chrono::duration<double>(elapsed).count();
  result.stats = server.stats();
  // Each run has its own engine, hence its own registry: the serve
  // latency histogram covers exactly this configuration's window.
  result.latency = server.registry().histogram("eum_udp_serve_latency_us").snapshot();
  server.stop();
  return result;
}

// --- wire answer cache: repeat-query hot path --------------------------

// The tentpole workload: a repeat-heavy query stream (one hot qname)
// against the batched serve path, with the wire answer cache off vs on.
// The client is windowed and batched — it pre-encodes a window of
// queries once, then pumps them with send_batch/receive_batch — so on a
// small machine the client's own syscall cost does not mask the server's
// fast path. One client flow (socket) per worker keeps SO_REUSEPORT's
// flow hashing from funnelling everything to one worker.
constexpr std::size_t kCacheWindow = 64;

struct CacheRun {
  std::size_t workers = 0;
  bool cache_on = false;
  std::uint32_t trace_sample = 0;  ///< 0 = tracing off, else 1-in-N sampling
  std::uint64_t answered = 0;
  std::uint64_t trace_committed = 0;  ///< records the flight recorder kept
  double seconds = 0.0;
  double hit_ratio = 0.0;
  obs::HistogramSnapshot latency;  ///< per-batch serve latency
  [[nodiscard]] double qps() const { return static_cast<double>(answered) / seconds; }
};

CacheRun run_cache_config(std::size_t workers, bool cache_on,
                          std::uint32_t trace_sample = 0) {
  dnsserver::AuthoritativeServer engine;
  engine.set_latency_tracking(false);  // measure serving, not instrumentation
  engine.add_dynamic_domain(
      dns::DnsName::from_text("g.cdn.example"),
      [](const dnsserver::DynamicQuery&) -> std::optional<dnsserver::DynamicAnswer> {
        std::this_thread::sleep_for(kBackendLatency);
        dnsserver::DynamicAnswer answer;
        answer.ttl = 20;
        answer.addresses = {net::IpAddr{net::IpV4Addr{203, 0, 0, 1}}};
        return answer;
      });
  dnsserver::UdpServerConfig config;
  config.workers = workers;
  config.batch = kCacheWindow;
  if (cache_on) config.answer_cache_entries = 1024;
  // Optional tracing arm: the flight recorder outlives the server (the
  // workers' QueryTracers borrow it until stop() joins them).
  obs::FlightRecorderConfig trace_config;
  trace_config.sample_every = trace_sample == 0 ? 1 : trace_sample;
  obs::FlightRecorder recorder{trace_config};
  if (trace_sample != 0) config.recorder = &recorder;
  dnsserver::UdpAuthorityServer server{
      &engine, dnsserver::UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}, config};
  server.start();

  struct Flow {
    dnsserver::UdpSocket socket{dnsserver::UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}};
    dnsserver::UdpBatch tx{kCacheWindow};
    dnsserver::UdpBatch rx{kCacheWindow};
    std::vector<std::vector<std::uint8_t>> wires;  ///< pre-encoded queries
  };
  std::vector<Flow> flows(workers);
  std::uint16_t id = 1;
  for (Flow& flow : flows) {
    flow.wires.reserve(kCacheWindow);
    for (std::size_t i = 0; i < kCacheWindow; ++i) {
      flow.wires.push_back(dns::Message::make_query(
                               id++, dns::DnsName::from_text("www.g.cdn.example"),
                               dns::RecordType::A)
                               .encode());
    }
  }

  std::uint64_t answered = 0;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + kMeasureWindow;
  while (std::chrono::steady_clock::now() < deadline) {
    for (Flow& flow : flows) {
      for (const std::vector<std::uint8_t>& wire : flow.wires) {
        flow.tx.stage(server.endpoint()).assign(wire.begin(), wire.end());
      }
      (void)flow.socket.send_batch(flow.tx);
    }
    for (Flow& flow : flows) {
      std::size_t got = 0;
      const auto flow_deadline = std::chrono::steady_clock::now() + 1000ms;
      while (got < kCacheWindow && std::chrono::steady_clock::now() < flow_deadline) {
        const std::size_t n = flow.socket.receive_batch(flow.rx, 100ms);
        if (n == 0) break;  // lost datagrams: move on, next window refills
        got += n;
      }
      answered += got;
    }
  }

  CacheRun run;
  run.workers = workers;
  run.cache_on = cache_on;
  run.trace_sample = trace_sample;
  run.answered = answered;
  run.trace_committed = recorder.committed();
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  run.hit_ratio = server.stats().cache_hit_ratio();
  run.latency = server.registry().histogram("eum_udp_serve_latency_us").snapshot();
  server.stop();
  return run;
}

// --- tracing overhead gate ---------------------------------------------

/// The flight recorder's serve-path cost, measured where it matters: the
/// repeat-query cache-on fast path at 4 workers, untraced vs traced at
/// 1-in-kTraceSample. Trials run as adjacent untraced/traced pairs with
/// alternating order (so frequency/thermal drift cannot systematically
/// favour one arm), and each arm's batch-latency histograms are MERGED
/// across trials: the reported ratio compares the p99 of every untraced
/// batch against the p99 of every traced batch over the same interleaved
/// windows. On a small shared box a single 400 ms window's p99 swings
/// ±20 % with ambient noise — far more than the ~50 ns/query the tracer
/// actually costs — while the merged distributions see the same noise on
/// both sides and converge to the true overhead. Pairs keep running
/// (bounded) until the ratio settles under the quiet threshold.
constexpr std::uint32_t kTraceSample = 64;
constexpr int kTraceMinTrials = 3;
constexpr int kTraceMaxTrials = 16;
constexpr double kTraceQuietRatio = 1.03;  ///< stop early at/below this

struct TracingReport {
  std::uint32_t sample_every = kTraceSample;
  double untraced_p99_us = 0.0;  ///< p99 of the merged untraced trials
  double traced_p99_us = 0.0;    ///< p99 of the merged traced trials
  std::uint64_t committed = 0;   ///< trace records kept across traced trials
  int trials = 0;
  [[nodiscard]] double p99_ratio() const {
    return untraced_p99_us == 0.0 ? 0.0 : traced_p99_us / untraced_p99_us;
  }
};

TracingReport run_tracing_overhead() {
  (void)run_cache_config(4, true, 0);  // warm-up window, discarded
  TracingReport report;
  obs::HistogramSnapshot untraced;
  obs::HistogramSnapshot traced;
  for (int trial = 0; trial < kTraceMaxTrials; ++trial) {
    const bool traced_first = (trial % 2) != 0;
    for (int arm = 0; arm < 2; ++arm) {
      const bool is_traced = (arm == 0) == traced_first;
      const CacheRun run = run_cache_config(4, true, is_traced ? kTraceSample : 0);
      (is_traced ? traced : untraced).merge(run.latency);
      if (is_traced) report.committed += run.trace_committed;
    }
    report.trials = trial + 1;
    report.untraced_p99_us = untraced.percentile(99);
    report.traced_p99_us = traced.percentile(99);
    if (report.trials >= kTraceMinTrials && report.p99_ratio() <= kTraceQuietRatio) {
      break;
    }
  }
  return report;
}

// --- control-plane churn mode ------------------------------------------

struct ChurnPhase {
  std::uint64_t answered = 0;
  std::uint64_t timeouts = 0;  ///< dropped queries (client gave up)
  double seconds = 0.0;
  obs::HistogramSnapshot latency;  ///< eum_udp_serve_latency_us, this phase
  [[nodiscard]] double qps() const { return static_cast<double>(answered) / seconds; }
};

struct ChurnReport {
  std::chrono::milliseconds interval{0};
  ChurnPhase steady;
  ChurnPhase churn;
  std::uint64_t publishes = 0;
  std::uint64_t final_version = 0;
  [[nodiscard]] double p99_ratio() const {
    const double base = steady.latency.percentile(99);
    return base == 0.0 ? 0.0 : churn.latency.percentile(99) / base;
  }
};

/// One measurement window against a running server: closed-loop ECS
/// clients, serve-latency percentiles from the shared registry.
ChurnPhase churn_phase(dnsserver::UdpAuthorityServer& server, const topo::World& world,
                       std::chrono::milliseconds window) {
  server.reset_stats();  // clean per-phase latency histogram
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> timeouts{0};
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      dnsserver::UdpDnsClient client;
      const auto qname = dns::DnsName::from_text("www.g.cdn.example");
      // Each query announces a different client /24, spreading the
      // end-user mapping decisions over the snapshot's scoring tables
      // with a realistic hot-block skew (shared seeded Zipf sampler).
      bench::BlockSampler blocks{world, 42, static_cast<std::uint64_t>(c)};
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const topo::ClientBlock& block = blocks.next();
        i += 1;
        const auto ecs = dns::ClientSubnetOption::for_query(
            net::IpAddr{net::IpV4Addr{block.prefix.address().v4().value() + 1}}, 24);
        const auto query = dns::Message::make_query(static_cast<std::uint16_t>(i), qname,
                                                    dns::RecordType::A, ecs);
        if (client.query(query, server.endpoint(), 2000ms)) {
          answered.fetch_add(1, std::memory_order_relaxed);
        } else {
          timeouts.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(window);
  stop = true;
  for (std::thread& thread : clients) thread.join();

  ChurnPhase phase;
  phase.answered = answered.load(std::memory_order_relaxed);
  phase.timeouts = timeouts.load(std::memory_order_relaxed);
  phase.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  phase.latency = server.registry().histogram("eum_udp_serve_latency_us").snapshot();
  return phase;
}

/// Steady-state vs churn percentiles over the real mapping stack: the
/// same serving setup, measured once with a static published map and
/// once with the MapMaker republishing every `interval`.
ChurnReport run_churn(std::chrono::milliseconds interval) {
  topo::WorldGenConfig world_config;
  world_config.seed = 42;
  world_config.target_blocks = 4000;
  world_config.target_ases = 220;
  world_config.ping_targets = 400;
  const topo::World world = topo::generate_world(world_config);
  const topo::LatencyModel latency{topo::LatencyParams{}, world_config.seed};
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 150);
  cdn::MappingSystem mapping{&world, &network, &latency, cdn::MappingConfig{}};

  control::MapMakerConfig maker_config;
  maker_config.publish_unchanged = true;  // full-rate republish path
  control::MapMaker maker{&mapping, nullptr, maker_config};

  dnsserver::AuthoritativeServer engine;
  const topo::Ldns& fallback_ldns = world.ldnses.front();
  auto inner = mapping.dns_handler();
  engine.add_dynamic_domain(
      dns::DnsName::from_text("g.cdn.example"),
      [&world, &fallback_ldns, inner](const dnsserver::DynamicQuery& query)
          -> std::optional<dnsserver::DynamicAnswer> {
        dnsserver::DynamicQuery patched = query;
        if (world.ldns_by_address(query.resolver) == nullptr) {
          patched.resolver = fallback_ldns.address;
        }
        return inner(patched);
      });
  dnsserver::UdpAuthorityServer server{
      &engine, dnsserver::UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0},
      dnsserver::UdpServerConfig{4}};
  server.start();

  ChurnReport report;
  report.interval = interval;
  report.steady = churn_phase(server, world, kMeasureWindow);

  const std::uint64_t publishes_before = maker.publishes();
  maker.start(interval);
  report.churn = churn_phase(server, world, kMeasureWindow);
  maker.stop();
  report.publishes = maker.publishes() - publishes_before;
  report.final_version = maker.version();
  server.stop();
  return report;
}

/// Seed-era closed-loop throughput at 4 workers (BENCH history): the
/// baseline the answer-cache speedup is reported against.
constexpr double kSeedBaselineQps = 9524.0;

/// BENCH_udp_throughput.json: one object per worker configuration with
/// throughput and registry-derived latency percentiles.
void write_bench_json(const std::vector<RunResult>& results,
                      const std::vector<CacheRun>& cache_runs,
                      const TracingReport& tracing, const ChurnReport& churn,
                      const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::perror("udp_throughput: fopen bench artifact");
    return;
  }
  // closed_loop marks every rate in this artifact as what a
  // wait-for-the-answer client measured — subject to coordinated
  // omission. The open-loop latency-under-load record is BENCH_loadgen.json.
  std::fprintf(out,
               "{\n  \"bench\": \"udp_throughput\",\n  \"closed_loop\": true,\n"
               "  \"configs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::fprintf(out,
                 "    {\"workers\": %zu, \"attempted\": %llu, \"answered\": %llu, "
                 "\"achieved_qps\": %.0f, "
                 "\"speedup\": %.3f, \"latency_us\": {\"count\": %llu, \"mean\": %.1f, "
                 "\"p50\": %.1f, \"p90\": %.1f, \"p99\": %.1f, \"p999\": %.1f}}%s\n",
                 r.workers, static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.answered), r.qps(),
                 r.qps() / results.front().qps(),
                 static_cast<unsigned long long>(r.latency.count), r.latency.mean(),
                 r.latency.percentile(50), r.latency.percentile(90), r.latency.percentile(99),
                 r.latency.percentile(99.9), i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"answer_cache\": {\n");
  std::fprintf(out,
               "    \"workload\": \"repeat-query (one hot qname), windowed batched "
               "client, %lldus backend per miss\",\n",
               static_cast<long long>(kBackendLatency.count()));
  std::fprintf(out, "    \"seed_baseline_qps\": %.0f,\n    \"runs\": [\n", kSeedBaselineQps);
  double best_on = 0.0;
  double best_off = 0.0;
  double best_on_ratio = 0.0;
  for (std::size_t i = 0; i < cache_runs.size(); ++i) {
    const CacheRun& r = cache_runs[i];
    std::fprintf(out,
                 "      {\"workers\": %zu, \"cache\": %s, \"answered\": %llu, "
                 "\"qps\": %.0f, \"hit_ratio\": %.4f, \"batch_p50_us\": %.1f, "
                 "\"batch_p99_us\": %.1f}%s\n",
                 r.workers, r.cache_on ? "true" : "false",
                 static_cast<unsigned long long>(r.answered), r.qps(), r.hit_ratio,
                 r.latency.percentile(50), r.latency.percentile(99),
                 i + 1 < cache_runs.size() ? "," : "");
    if (r.cache_on && r.qps() > best_on) {
      best_on = r.qps();
      best_on_ratio = r.hit_ratio;
    }
    if (!r.cache_on && r.qps() > best_off) best_off = r.qps();
  }
  std::fprintf(out,
               "    ],\n    \"hit_ratio\": %.4f,\n    \"best_cache_on_qps\": %.0f,\n"
               "    \"best_cache_off_qps\": %.0f,\n    \"speedup_vs_seed\": %.2f\n  },\n",
               best_on_ratio, best_on, best_off, best_on / kSeedBaselineQps);
  std::fprintf(out,
               "  \"tracing\": {\n    \"workload\": \"cache-on repeat-query fast path, "
               "4 workers, merged p99 over %d interleaved paired trials\",\n"
               "    \"sample_every\": %u,\n    \"untraced_p99_us\": %.1f,\n"
               "    \"traced_p99_us\": %.1f,\n    \"p99_ratio\": %.4f,\n"
               "    \"committed\": %llu\n  },\n",
               tracing.trials, tracing.sample_every, tracing.untraced_p99_us,
               tracing.traced_p99_us, tracing.p99_ratio(),
               static_cast<unsigned long long>(tracing.committed));
  const auto phase_json = [out](const char* name, const ChurnPhase& p) {
    std::fprintf(out,
                 "    \"%s\": {\"answered\": %llu, \"dropped\": %llu, \"qps\": %.0f, "
                 "\"p50_us\": %.1f, \"p99_us\": %.1f},\n",
                 name, static_cast<unsigned long long>(p.answered),
                 static_cast<unsigned long long>(p.timeouts), p.qps(),
                 p.latency.percentile(50), p.latency.percentile(99));
  };
  std::fprintf(out, "  \"churn\": {\n    \"interval_ms\": %lld,\n",
               static_cast<long long>(churn.interval.count()));
  phase_json("steady", churn.steady);
  phase_json("under_churn", churn.churn);
  std::fprintf(out, "    \"publishes\": %llu,\n    \"p99_ratio\": %.3f\n  }\n}\n",
               static_cast<unsigned long long>(churn.publishes), churn.p99_ratio());
  std::fclose(out);
  std::cout << "wrote " << path << '\n';
}

}  // namespace

int main() {
  std::vector<RunResult> results;
  for (const std::size_t workers : {1U, 2U, 4U}) {
    results.push_back(run_config(workers));
  }

  stats::Table table{{"workers", "attempted", "answered", "achieved_qps", "speedup",
                      "per_worker_share", "p50_us", "p99_us"}};
  for (const RunResult& result : results) {
    // How evenly the kernel spread load across the REUSEPORT sockets:
    // max worker share of total (1/workers is a perfect spread).
    std::uint64_t busiest = 0;
    for (const std::uint64_t w : result.stats.per_worker) busiest = std::max(busiest, w);
    const double share = result.stats.queries == 0
                             ? 0.0
                             : static_cast<double>(busiest) /
                                   static_cast<double>(result.stats.queries);
    table.add_row({std::to_string(result.workers), std::to_string(result.attempted),
                   std::to_string(result.answered), stats::num(result.qps(), 0),
                   stats::num(result.qps() / results.front().qps(), 2),
                   stats::num(share, 2), stats::num(result.latency.percentile(50), 0),
                   stats::num(result.latency.percentile(99), 0)});
  }
  std::cout << "UDP front-end throughput, " << kClientThreads
            << " closed-loop clients, " << kBackendLatency.count()
            << "us simulated backend latency per query (achieved_qps counts "
               "answered queries only)\n\n"
            << table.render() << '\n';

  std::vector<CacheRun> cache_runs;
  for (const std::size_t workers : {1U, 4U}) {
    cache_runs.push_back(run_cache_config(workers, false));
    cache_runs.push_back(run_cache_config(workers, true));
  }
  stats::Table cache_table{
      {"workers", "cache", "answered", "qps", "hit_ratio", "vs_seed", "batch_p99_us"}};
  for (const CacheRun& run : cache_runs) {
    cache_table.add_row({std::to_string(run.workers), run.cache_on ? "on" : "off",
                         std::to_string(run.answered), stats::num(run.qps(), 0),
                         stats::num(run.hit_ratio, 3),
                         stats::num(run.qps() / kSeedBaselineQps, 2),
                         stats::num(run.latency.percentile(99), 0)});
  }
  std::cout << "Wire answer cache: repeat-query workload, windowed batched client, "
            << "seed baseline " << stats::num(kSeedBaselineQps, 0) << " qps\n\n"
            << cache_table.render() << '\n';

  const TracingReport tracing = run_tracing_overhead();
  std::cout << "\nFlight-recorder overhead: cache-on fast path at 4 workers, "
            << "1-in-" << tracing.sample_every << " sampling, merged p99 over "
            << tracing.trials << " interleaved paired trials\n"
            << "  untraced p99: " << stats::num(tracing.untraced_p99_us, 0)
            << " us, traced p99: " << stats::num(tracing.traced_p99_us, 0)
            << " us, ratio: " << stats::num(tracing.p99_ratio(), 3)
            << "x (target <= 1.05), trace records committed: " << tracing.committed
            << '\n';

  const char* churn_ms = std::getenv("EUM_CHURN_MS");
  const auto interval =
      std::chrono::milliseconds{churn_ms != nullptr ? std::atoi(churn_ms) : 50};
  const ChurnReport churn = run_churn(interval);
  stats::Table churn_table{{"phase", "answered", "dropped", "qps", "p50_us", "p99_us"}};
  const auto churn_row = [&](const char* name, const ChurnPhase& p) {
    churn_table.add_row({name, std::to_string(p.answered), std::to_string(p.timeouts),
                         stats::num(p.qps(), 0), stats::num(p.latency.percentile(50), 0),
                         stats::num(p.latency.percentile(99), 0)});
  };
  churn_row("steady", churn.steady);
  churn_row("churn", churn.churn);
  std::cout << "\nControl-plane churn: real mapping stack, 4 workers, MapMaker republishing "
               "every "
            << interval.count() << " ms (snapshot fast path)\n\n"
            << churn_table.render() << '\n'
            << "\nsnapshots published during churn window: " << churn.publishes
            << " (map version " << churn.final_version << ")"
            << "\nchurn p99 / steady p99: " << stats::num(churn.p99_ratio(), 2)
            << "x (target <= 1.20), dropped under churn: " << churn.churn.timeouts << '\n';

  const char* out_path = std::getenv("EUM_BENCH_OUT");
  write_bench_json(results, cache_runs, tracing, churn,
                   out_path != nullptr ? out_path : "BENCH_udp_throughput.json");

  double best_on = 0.0;
  double best_off = 0.0;
  for (const CacheRun& run : cache_runs) {
    if (run.cache_on) {
      best_on = std::max(best_on, run.qps());
    } else {
      best_off = std::max(best_off, run.qps());
    }
  }
  const double speedup = results.back().qps() / results.front().qps();
  std::cout << "\n4-worker speedup over 1 worker: " << stats::num(speedup, 2)
            << "x\nbest cache-on qps: " << stats::num(best_on, 0) << " ("
            << stats::num(best_on / kSeedBaselineQps, 2)
            << "x seed), best cache-off qps: " << stats::num(best_off, 0) << '\n';
  return speedup >= 2.0 && best_on > best_off ? 0 : 1;
}
