// Ablation: mapping-answer TTL vs steering responsiveness vs DNS load.
//
// CDN mapping answers carry short TTLs so the system can steer traffic
// away from failed or overloaded clusters quickly (MappingConfig's
// answer_ttl, tens of seconds in production). The price is query volume:
// every TTL expiry is another authoritative query. This bench kills a
// client's assigned cluster mid-run and measures, through the real
// recursive-resolver cache, how long clients keep being handed dead
// servers — and what each TTL costs in upstream queries per hour.
#include "bench_common.h"

#include "dnsserver/resolver.h"
#include "dnsserver/transport.h"

using namespace eum;

namespace {

struct TtlOutcome {
  std::uint32_t ttl = 0;
  double stale_seconds = 0.0;      ///< window during which dead servers were served
  double upstream_per_hour = 0.0;  ///< authoritative queries per client per hour
};

TtlOutcome run_with_ttl(std::uint32_t ttl) {
  const topo::World& world = bench::default_world();
  static const topo::LatencyModel& latency = bench::default_latency();
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 600);
  cdn::MappingConfig config;
  config.answer_ttl = ttl;
  cdn::MappingSystem mapping{&world, &network, &latency, config};

  dnsserver::AuthoritativeServer authority;
  const auto domain = dns::DnsName::from_text("www.live.cdn.example");
  authority.add_dynamic_domain(dns::DnsName::from_text("cdn.example"), mapping.dns_handler());
  dnsserver::AuthorityDirectory directory;
  directory.add_authority(dns::DnsName::from_text("cdn.example"), &authority);

  // One client block resolving through its ISP resolver every second.
  const topo::ClientBlock& block = world.blocks.front();
  const topo::Ldns& ldns = world.primary_ldns(block);
  util::SimClock clock;
  dnsserver::ResolverConfig resolver_config;
  dnsserver::RecursiveResolver resolver{resolver_config, &clock, &directory, ldns.address};
  dnsserver::StubClient stub{&resolver,
                             net::IpAddr{net::IpV4Addr{block.prefix.address().v4().value() + 1}}};

  constexpr int kFailAt = 400;
  constexpr int kHorizon = 1200;
  TtlOutcome outcome;
  outcome.ttl = ttl;
  int last_stale = -1;
  for (int second = 0; second < kHorizon; ++second) {
    clock.set(util::SimTime{second});
    if (second == kFailAt) {
      // The serving cluster dies; the mapping system republishes at once.
      const auto current = stub.lookup(domain);
      if (!current.empty()) {
        network.set_cluster_alive(network.deployment_of(current.front())->id, false);
        mapping.rescore();
      }
    }
    const auto servers = stub.lookup(domain);
    if (servers.empty()) continue;
    const cdn::Deployment* deployment = network.deployment_of(servers.front());
    if (second >= kFailAt && deployment != nullptr && !deployment->alive) {
      last_stale = second;
    }
  }
  outcome.stale_seconds = last_stale >= kFailAt ? last_stale - kFailAt + 1 : 0;
  const std::uint64_t upstream =
      resolver.registry().counter_total("eum_resolver_upstream_queries_total");
  outcome.upstream_per_hour = static_cast<double>(upstream) * 3600.0 / kHorizon;
  return outcome;
}

}  // namespace

int main() {
  bench::banner("TTL ablation - steering responsiveness vs DNS query cost",
                "short mapping TTLs bound how long clients stay on dead clusters");

  stats::Table table{"answer TTL (s)", "stale window after failure (s)",
                     "upstream queries / client / hour"};
  std::vector<TtlOutcome> outcomes;
  for (const std::uint32_t ttl : {10U, 20U, 60U, 120U, 300U}) {
    outcomes.push_back(run_with_ttl(ttl));
    table.add_row({std::to_string(ttl), stats::num(outcomes.back().stale_seconds, 0),
                   stats::num(outcomes.back().upstream_per_hour, 0)});
  }
  std::printf("%s\n", table.render().c_str());

  bool stale_bounded = true;
  bool cost_monotone = true;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    stale_bounded = stale_bounded && outcomes[i].stale_seconds <= outcomes[i].ttl + 1;
    if (i > 0) {
      cost_monotone =
          cost_monotone && outcomes[i].upstream_per_hour <= outcomes[i - 1].upstream_per_hour;
    }
  }
  std::printf("shape checks:\n");
  std::printf("  stale window bounded by the TTL            %s\n",
              stale_bounded ? "[OK]" : "[MISMATCH]");
  std::printf("  query cost falls as TTL grows              %s\n",
              cost_monotone ? "[OK]" : "[MISMATCH]");
  std::printf("\nthe production choice (~20 s) keeps failure exposure under half a\n"
              "minute at ~180 queries/client/hour — why CDN mapping TTLs are short.\n");
  return 0;
}
