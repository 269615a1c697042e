#include "sim/query_rate.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "dnsserver/authoritative.h"
#include "dnsserver/resolver.h"
#include "dnsserver/transport.h"
#include "util/sim_clock.h"

namespace eum::sim {

namespace {

using dnsserver::AuthoritativeServer;
using dnsserver::AuthorityDirectory;
using dnsserver::RecursiveResolver;
using dnsserver::ResolverConfig;

/// Client arrival: time plus the querying block.
struct Arrival {
  double time_s;
  topo::BlockId block;
};

/// Members of an LDNS with their query weights.
struct LdnsMembers {
  std::vector<topo::BlockId> blocks;
  std::vector<double> weights;
  double total_weight = 0.0;
};

}  // namespace

std::vector<QueryRateResult::Bucket> QueryRateResult::popularity_buckets(
    std::size_t bucket_count, bool ecs_pairs_only) const {
  std::vector<Bucket> buckets(bucket_count);
  double total_pre = 0.0;
  for (const PairQueryStats& pair : pairs) total_pre += static_cast<double>(pair.upstream_pre);
  std::vector<double> factor_sum(bucket_count, 0.0);
  std::vector<double> pre_sum(bucket_count, 0.0);
  for (std::size_t b = 0; b < bucket_count; ++b) {
    buckets[b].popularity_lo = static_cast<double>(b) / static_cast<double>(bucket_count);
    buckets[b].popularity_hi = static_cast<double>(b + 1) / static_cast<double>(bucket_count);
  }
  for (const PairQueryStats& pair : pairs) {
    if (pair.upstream_pre == 0) continue;
    const double pop = pair.popularity(horizon_seconds, answer_ttl);
    auto b = static_cast<std::size_t>(pop * static_cast<double>(bucket_count));
    b = std::min(b, bucket_count - 1);
    pre_sum[b] += static_cast<double>(pair.upstream_pre);
    if (ecs_pairs_only && !pair.is_public) continue;
    factor_sum[b] += pair.factor();
    ++buckets[b].pair_count;
  }
  for (std::size_t b = 0; b < bucket_count; ++b) {
    if (buckets[b].pair_count > 0) {
      buckets[b].mean_factor = factor_sum[b] / static_cast<double>(buckets[b].pair_count);
    }
    buckets[b].pre_query_share = total_pre > 0.0 ? pre_sum[b] / total_pre : 0.0;
  }
  return buckets;
}

QueryRateResult run_query_rate_study(const topo::World& world, cdn::MappingSystem& mapping,
                                     const QueryRateConfig& config) {
  util::Rng rng{config.seed};
  QueryRateResult result;
  result.horizon_seconds = config.horizon_seconds;
  result.answer_ttl = config.answer_ttl;

  // ---- Sampled LDNS population -----------------------------------------
  // All public sites, plus the top ISP resolvers by demand.
  std::unordered_map<topo::LdnsId, LdnsMembers> members;
  std::unordered_map<topo::LdnsId, double> ldns_demand;
  for (const topo::ClientBlock& block : world.blocks) {
    for (const topo::LdnsUse& use : world.ldns_uses(block)) {
      auto& m = members[use.ldns];
      m.blocks.push_back(block.id);
      m.weights.push_back(block.demand * use.fraction);
      m.total_weight += block.demand * use.fraction;
      ldns_demand[use.ldns] += block.demand * use.fraction;
    }
  }
  std::vector<topo::LdnsId> sampled;
  double isp_total_demand = 0.0;
  double isp_sampled_demand = 0.0;
  {
    std::vector<std::pair<double, topo::LdnsId>> isp_by_demand;
    for (const topo::Ldns& ldns : world.ldnses) {
      const auto it = ldns_demand.find(ldns.id);
      if (it == ldns_demand.end()) continue;
      if (ldns.type == topo::LdnsType::public_site) {
        sampled.push_back(ldns.id);
      } else {
        isp_by_demand.emplace_back(it->second, ldns.id);
        isp_total_demand += it->second;
      }
    }
    std::sort(isp_by_demand.rbegin(), isp_by_demand.rend());
    for (std::size_t i = 0; i < std::min(config.isp_ldns_sample, isp_by_demand.size()); ++i) {
      sampled.push_back(isp_by_demand[i].second);
      isp_sampled_demand += isp_by_demand[i].first;
    }
  }
  result.isp_demand_coverage =
      isp_total_demand > 0.0 ? isp_sampled_demand / isp_total_demand : 0.0;

  // ---- Authority serving the CDN's dynamic domains ----------------------
  const dns::DnsName cdn_suffix = dns::DnsName::from_text("cdn.example");
  AuthoritativeServer authority;
  {
    auto inner = mapping.dns_handler();
    authority.add_dynamic_domain(
        cdn_suffix, [inner, &config](const dnsserver::DynamicQuery& query) {
          auto answer = inner(query);
          if (answer) answer->ttl = config.answer_ttl;
          return answer;
        });
  }
  AuthorityDirectory directory;
  directory.add_authority(cdn_suffix, &authority);

  // Domain popularity: Zipf over `domain_count` CDN-hosted names.
  std::vector<dns::DnsName> domains;
  std::vector<double> domain_share(config.domain_count);
  {
    double sum = 0.0;
    for (std::size_t d = 0; d < config.domain_count; ++d) {
      domains.push_back(
          dns::DnsName::from_text("e" + std::to_string(d) + ".g.cdn.example"));
      domain_share[d] = 1.0 / std::pow(static_cast<double>(d + 1), config.domain_zipf);
      sum += domain_share[d];
    }
    for (double& s : domain_share) s /= sum;
  }

  // ---- Drive each (LDNS, domain) pair through the real resolver --------
  util::SimClock clock;
  for (const topo::LdnsId ldns_id : sampled) {
    const topo::Ldns& ldns = world.ldnses[ldns_id];
    const LdnsMembers& m = members[ldns_id];
    const util::WeightedPicker block_picker{m.weights};
    const double ldns_rate = m.total_weight * config.queries_per_demand_unit;

    ResolverConfig pre_config;
    pre_config.ecs_enabled = false;
    ResolverConfig post_config;
    post_config.ecs_enabled = ldns.supports_ecs;

    for (std::size_t d = 0; d < config.domain_count; ++d) {
      const double rate = ldns_rate * domain_share[d];
      const double expected = rate * config.horizon_seconds;
      if (expected < 0.02) continue;  // negligible tail pair

      // One arrival realization, replayed under both configurations.
      util::Rng pair_rng = rng.fork((static_cast<std::uint64_t>(ldns_id) << 20) | d);
      std::vector<Arrival> arrivals;
      double t = pair_rng.exponential(1.0 / rate);
      while (t < config.horizon_seconds) {
        arrivals.push_back(Arrival{t, m.blocks[block_picker.pick(pair_rng)]});
        t += pair_rng.exponential(1.0 / rate);
      }
      if (arrivals.empty()) continue;

      PairQueryStats stats;
      stats.ldns = ldns_id;
      stats.domain = d;
      stats.is_public = ldns.type == topo::LdnsType::public_site;
      stats.client_queries = arrivals.size();

      for (const bool post : {false, true}) {
        clock.set(util::SimTime{0});
        RecursiveResolver resolver{post ? post_config : pre_config, &clock, &directory,
                                   ldns.address};
        std::uint16_t id = 1;
        for (const Arrival& arrival : arrivals) {
          clock.set(util::SimTime{static_cast<std::int64_t>(arrival.time_s)});
          const topo::ClientBlock& block = world.blocks[arrival.block];
          const auto query = dns::Message::make_query(id++, domains[d], dns::RecordType::A);
          // The client's address: first host of its /24.
          const net::IpAddr client{
              net::IpV4Addr{block.prefix.address().v4().value() + 1}};
          (void)resolver.resolve(query, client);
        }
        (post ? stats.upstream_post : stats.upstream_pre) =
            resolver.registry().counter_total("eum_resolver_upstream_queries_total");
      }
      if (stats.is_public) {
        result.public_pre_qps += static_cast<double>(stats.upstream_pre) / config.horizon_seconds;
        result.public_post_qps +=
            static_cast<double>(stats.upstream_post) / config.horizon_seconds;
      } else {
        result.isp_qps += static_cast<double>(stats.upstream_pre) / config.horizon_seconds;
      }
      result.pairs.push_back(stats);
    }
  }
  return result;
}

}  // namespace eum::sim
