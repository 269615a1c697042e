// Fault sweep: resolver availability vs injected upstream loss.
//
// The paper's roll-out discipline (§4) was "measure availability before
// and after, ship only if it holds". This bench quantifies the retry
// machinery the same way: a FaultInjector drops 0-20% of upstream
// queries and the resolver runs one mapping-unit-per-query workload
// (every query a distinct client /24 with ECS, so the cache never
// shields the upstream path) twice — with the default retry budget and
// with retries disabled. Per loss point it reports success rate, retry
// volume, and client-observed latency percentiles.
//
// Results land in BENCH_fault_sweep.json (EUM_BENCH_OUT overrides the
// path). The process exits non-zero if the retry arm's success rate at
// 10% loss falls below 99.9%, or if the no-retry arm is not measurably
// worse there — either would mean the retry path stopped earning its
// keep. Both fault and jitter streams are seeded, so runs are exactly
// reproducible.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "dnsserver/fault.h"
#include "dnsserver/resolver.h"
#include "dnsserver/transport.h"
#include "util/sim_clock.h"

namespace {

using namespace eum;
using dns::DnsName;
using dns::Message;
using dns::Rcode;
using dns::RecordType;

constexpr int kQueriesPerPoint = 20'000;
constexpr int kRetryAttempts = 4;  // 10% loss -> 1e-4 residual failure
constexpr double kLossPoints[] = {0.0, 0.025, 0.05, 0.10, 0.15, 0.20};
constexpr double kGateLoss = 0.10;
constexpr double kGateSuccess = 0.999;

struct PointResult {
  double loss = 0.0;
  int queries = 0;
  int successes = 0;
  std::uint64_t retries = 0;
  std::uint64_t upstream_failures = 0;
  std::uint64_t injected_drops = 0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;

  [[nodiscard]] double success_rate() const {
    return queries == 0 ? 0.0 : static_cast<double>(successes) / queries;
  }
};

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

/// One sweep point: a fresh authority/injector/resolver stack, every
/// query a distinct client /24 so each resolution crosses the faulty
/// upstream path.
PointResult run_point(double loss, int attempts) {
  dnsserver::AuthoritativeServer authority;
  authority.add_dynamic_domain(
      DnsName::from_text("g.cdn.example"),
      [](const dnsserver::DynamicQuery& query) -> std::optional<dnsserver::DynamicAnswer> {
        dnsserver::DynamicAnswer answer;
        if (query.client_block) {
          const auto base = query.client_block->address().v4().value();
          answer.addresses = {net::IpAddr{net::IpV4Addr{0xCB000000U | (base >> 8 & 0xFFFF)}}};
        } else {
          answer.addresses = {net::IpAddr{net::IpV4Addr{203, 0, 113, 99}}};
        }
        return answer;
      });
  dnsserver::AuthorityDirectory directory;
  directory.add_authority(DnsName::from_text("g.cdn.example"), &authority);

  dnsserver::FaultSpec faults;
  faults.drop = loss;
  dnsserver::FaultInjectorConfig fault_config;
  fault_config.faults = faults;
  fault_config.seed = 0xFA017EEDULL + static_cast<std::uint64_t>(loss * 1000.0);
  dnsserver::FaultInjector injector{&directory, fault_config};

  util::SimClock clock;
  dnsserver::ResolverConfig config;
  config.ecs_enabled = true;
  config.retry.attempts = attempts;
  config.retry.backoff_initial = std::chrono::microseconds{200};
  config.retry.backoff_max = std::chrono::microseconds{2000};
  dnsserver::RecursiveResolver resolver{config, &clock, &injector,
                                        *net::IpAddr::parse("202.0.0.1")};

  PointResult result;
  result.loss = loss;
  result.queries = kQueriesPerPoint;
  std::vector<double> latencies_us;
  latencies_us.reserve(kQueriesPerPoint);
  for (int i = 0; i < kQueriesPerPoint; ++i) {
    // Distinct /24 per query: the mapping-unit workload that defeats the
    // scoped cache and keeps every resolution on the upstream path.
    const net::IpAddr client{
        net::IpV4Addr{0x0A000000U + (static_cast<std::uint32_t>(i) << 8) + 1}};
    const Message query = Message::make_query(static_cast<std::uint16_t>(i),
                                              DnsName::from_text("www.g.cdn.example"),
                                              RecordType::A);
    const auto start = std::chrono::steady_clock::now();
    const Message response = resolver.resolve(query, client);
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start);
    latencies_us.push_back(static_cast<double>(elapsed.count()) / 1000.0);
    if (response.header.rcode == Rcode::no_error) ++result.successes;
  }
  result.retries = resolver.registry().counter_total("eum_resolver_retries_total");
  result.upstream_failures =
      resolver.registry().counter_total("eum_resolver_upstream_failures_total");
  result.injected_drops =
      injector.registry().counter_total("eum_fault_injected_total", {{"fault", "drop"}});
  result.p50_us = percentile(latencies_us, 0.50);
  result.p90_us = percentile(latencies_us, 0.90);
  result.p99_us = percentile(latencies_us, 0.99);
  return result;
}

void print_arm(const char* title, const std::vector<PointResult>& points) {
  std::printf("%s\n", title);
  std::printf("  %-6s %-9s %-10s %-9s %-9s %-9s %-9s\n", "loss", "success", "retries",
              "drops", "p50_us", "p90_us", "p99_us");
  for (const PointResult& p : points) {
    std::printf("  %-6.3f %-9.5f %-10llu %-9llu %-9.1f %-9.1f %-9.1f\n", p.loss,
                p.success_rate(), static_cast<unsigned long long>(p.retries),
                static_cast<unsigned long long>(p.injected_drops), p.p50_us, p.p90_us,
                p.p99_us);
  }
}

void write_json(const std::vector<PointResult>& with_retries,
                const std::vector<PointResult>& no_retries, const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::perror("fault_sweep: fopen bench artifact");
    return;
  }
  const auto arm_json = [out](const char* name, int attempts,
                              const std::vector<PointResult>& points) {
    std::fprintf(out, "  \"%s\": {\"attempts\": %d, \"points\": [\n", name, attempts);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const PointResult& p = points[i];
      std::fprintf(out,
                   "    {\"loss\": %.3f, \"queries\": %d, \"success_rate\": %.5f, "
                   "\"retries\": %llu, \"upstream_failures\": %llu, \"injected_drops\": "
                   "%llu, \"p50_us\": %.1f, \"p90_us\": %.1f, \"p99_us\": %.1f}%s\n",
                   p.loss, p.queries, p.success_rate(),
                   static_cast<unsigned long long>(p.retries),
                   static_cast<unsigned long long>(p.upstream_failures),
                   static_cast<unsigned long long>(p.injected_drops), p.p50_us, p.p90_us,
                   p.p99_us, i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, "  ]}");
  };
  std::fprintf(out, "{\n  \"bench\": \"fault_sweep\",\n  \"queries_per_point\": %d,\n",
               kQueriesPerPoint);
  arm_json("with_retries", kRetryAttempts, with_retries);
  std::fprintf(out, ",\n");
  arm_json("no_retries", 1, no_retries);
  std::fprintf(out, "\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

const PointResult* at_loss(const std::vector<PointResult>& points, double loss) {
  for (const PointResult& p : points) {
    if (p.loss == loss) return &p;
  }
  return nullptr;
}

}  // namespace

int main() {
  std::vector<PointResult> with_retries;
  std::vector<PointResult> no_retries;
  for (const double loss : kLossPoints) {
    with_retries.push_back(run_point(loss, kRetryAttempts));
    no_retries.push_back(run_point(loss, 1));
  }
  print_arm("retry arm (attempts=4)", with_retries);
  print_arm("no-retry arm (attempts=1)", no_retries);

  const char* out_path = std::getenv("EUM_BENCH_OUT");
  write_json(with_retries, no_retries,
             out_path != nullptr ? out_path : "BENCH_fault_sweep.json");

  // Availability gate at 10% loss: retries must hold >= 99.9% success
  // and the no-retry arm must be measurably worse (it sits near 90%).
  const PointResult* gated = at_loss(with_retries, kGateLoss);
  const PointResult* baseline = at_loss(no_retries, kGateLoss);
  if (gated == nullptr || baseline == nullptr) {
    std::fprintf(stderr, "fault_sweep: gate loss point missing from sweep\n");
    return 1;
  }
  if (gated->success_rate() < kGateSuccess) {
    std::fprintf(stderr, "fault_sweep: FAIL success %.5f < %.3f at %.0f%% loss\n",
                 gated->success_rate(), kGateSuccess, kGateLoss * 100.0);
    return 1;
  }
  if (baseline->success_rate() >= gated->success_rate()) {
    std::fprintf(stderr,
                 "fault_sweep: FAIL no-retry arm (%.5f) not degraded vs retries (%.5f)\n",
                 baseline->success_rate(), gated->success_rate());
    return 1;
  }
  std::printf("gate ok: %.5f success at %.0f%% loss with retries, %.5f without\n",
              gated->success_rate(), kGateLoss * 100.0, baseline->success_rate());
  return 0;
}
