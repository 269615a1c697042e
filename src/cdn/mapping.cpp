#include "cdn/mapping.h"

#include <stdexcept>
#include <utility>

#include "obs/trace.h"
#include "util/strings.h"

namespace eum::cdn {

namespace {

/// Null-check that runs before any member construction dereferences.
template <typename T>
T* require(T* pointer, const char* what) {
  if (pointer == nullptr) {
    throw std::invalid_argument{std::string{"MappingSystem: "} + what + " is required"};
  }
  return pointer;
}

const MappingConfig& checked(const MappingConfig& config) {
  if (config.servers_per_answer > kMaxServersPerAnswer) {
    throw std::invalid_argument{"MappingSystem: servers_per_answer exceeds " +
                                std::to_string(kMaxServersPerAnswer)};
  }
  return config;
}

}  // namespace

MappingSystem::MappingSystem(const topo::World* world, CdnNetwork* network,
                             const topo::LatencyModel* latency, MappingConfig config)
    : world_(require(world, "world")),
      network_(require(network, "network")),
      latency_(require(latency, "latency")),
      config_(checked(config)),
      mesh_(PingMesh::measure(*world_, *network_, *latency_)),
      scoring_(std::make_shared<const Scoring>(
          Scoring::build(*world_, *network_, mesh_, config.scoring_top_k, config.traffic_class,
                         config.precompute_cluster_scores))),
      local_lb_(config.servers_per_answer) {
  global_lb_ = std::make_unique<GlobalLoadBalancer>(network_, scoring_.get(), &mesh_,
                                                    config_.global_lb);
}

void MappingSystem::rescore() {
  // Repoint the balancer at the new tables before the old ones are
  // released, so it never holds a freed Scoring.
  auto scoring = std::make_shared<const Scoring>(
      Scoring::build(*world_, *network_, mesh_, config_.scoring_top_k, config_.traffic_class,
                     config_.precompute_cluster_scores));
  global_lb_ =
      std::make_unique<GlobalLoadBalancer>(network_, scoring.get(), &mesh_, config_.global_lb);
  scoring_ = std::move(scoring);
}

std::optional<MapResult> MappingSystem::finish(std::optional<DeploymentId> deployment,
                                               topo::PingTargetId unit_target,
                                               std::string_view domain, double load_units) {
  if (!deployment) return std::nullopt;
  Deployment& cluster = network_->deployments()[*deployment];
  MapResult result;
  result.deployment = *deployment;
  result.expected_rtt_ms = mesh_.rtt_ms(*deployment, unit_target);
  const std::vector<net::IpAddr> servers = local_lb_.pick_servers(cluster, domain, load_units);
  result.servers.assign(servers.begin(), servers.end());
  if (result.servers.empty()) return std::nullopt;
  return result;
}

std::optional<MapResult> MappingSystem::map_ldns(topo::LdnsId ldns, std::string_view domain,
                                                 double load_units) {
  const topo::PingTargetId unit = world_->ldnses.at(ldns).ping_target;
  return finish(global_lb_->assign_for_target(unit, load_units), unit, domain, load_units);
}

std::optional<MapResult> MappingSystem::map_block(topo::BlockId block, std::string_view domain,
                                                  double load_units) {
  const topo::PingTargetId unit = world_->blocks.at(block).ping_target;
  return finish(global_lb_->assign_for_target(unit, load_units), unit, domain, load_units);
}

std::optional<MapResult> MappingSystem::map_cluster(topo::LdnsId ldns, std::string_view domain,
                                                    double load_units) {
  // The reported RTT estimate uses the LDNS's own target as reference unit.
  const topo::PingTargetId unit = scoring_->ldns_target(ldns);
  return finish(global_lb_->assign_for_cluster(ldns, load_units), unit, domain, load_units);
}

std::optional<MapResult> MappingSystem::map(topo::LdnsId ldns,
                                            std::optional<topo::BlockId> client_block,
                                            std::string_view domain, double load_units) {
  // Staged roll-out: resolvers whose cohort has not flipped yet are
  // answered NS-based even when the client block is known.
  if (client_block && end_user_gate_ && !end_user_gate_(ldns)) client_block.reset();
  // Control-plane fast path: resolve against the published immutable
  // snapshot (lock-free) instead of the mutable scoring/LB state.
  if (fast_path_) return fast_path_(ldns, client_block, domain, load_units);
  switch (config_.policy) {
    case MappingPolicy::end_user:
      if (client_block) return map_block(*client_block, domain, load_units);
      return map_ldns(ldns, domain, load_units);  // no ECS: degrade to NS
    case MappingPolicy::client_aware_ns:
      return map_cluster(ldns, domain, load_units);
    case MappingPolicy::ns_based:
      break;
  }
  return map_ldns(ldns, domain, load_units);
}

dnsserver::DynamicAnswerFn MappingSystem::dns_handler() {
  return [this](const dnsserver::DynamicQuery& query) -> std::optional<dnsserver::DynamicAnswer> {
    // Identify the querying LDNS.
    const topo::Ldns* ldns = world_->ldns_by_address(query.resolver);
    if (ldns == nullptr) return std::nullopt;

    // Identify the client block from ECS (end-user mapping path). The
    // announced source block may be broader than /24; we look up the /24
    // at its base address — our worlds allocate clients at /24. The
    // roll-out gate is applied here, not just in map(), so an ungated
    // resolver's answer also carries the right (client-independent) scope.
    std::optional<topo::BlockId> block;
    if (query.client_block && end_user_active(ldns->id)) {
      const net::IpPrefix block24{query.client_block->address(), 24};
      if (const topo::ClientBlock* found = world_->block_by_prefix(block24)) {
        block = found->id;
      }
    }

    dns::DnsName::TextBuffer domain;
    const auto result = map(ldns->id, block, query.qname.to_text(domain));
    // Flight-recorder span (thread-local tracer; null on untraced
    // transports): the decision's policy inputs and outcome. This is the
    // slow path — the wire answer cache absorbed repeats — so the detail
    // string's allocation is acceptable here.
    if (obs::QueryTracer* tracer = obs::current_tracer()) {
      if (obs::TraceSpan* span = tracer->span(obs::TraceStage::map_decision)) {
        span->code = block ? 1 : 0;
        span->value = result ? static_cast<std::int64_t>(result->deployment) : -1;
        span->set_detail(util::format(
            "ldns=%u ecs=/%d rtt=%.1f", static_cast<unsigned>(ldns->id),
            block ? config_.ecs_scope_len : 0,
            result ? static_cast<double>(result->expected_rtt_ms) : -1.0));
      }
    }
    if (!result) return std::nullopt;

    dnsserver::DynamicAnswer answer;
    answer.addresses.assign(result->servers.begin(), result->servers.end());
    if (config_.serve_ipv6) {
      // Dual stack: the same servers under their IPv6 aliases. The
      // authoritative engine filters by question type, so A questions
      // see only the v4 set and AAAA questions only the v6 set.
      for (const net::IpAddr& server : result->servers) {
        if (server.is_v4()) answer.addresses.emplace_back(CdnNetwork::v6_alias(server.v4()));
      }
    }
    answer.ttl = config_.answer_ttl;
    // Scope: client-specific answers carry the configured scope; answers
    // that ignored the client (NS fallback) are valid for everyone.
    answer.ecs_scope_len = block ? config_.ecs_scope_len : 0;
    return answer;
  };
}

net::IpAddr MappingSystem::cluster_ns_address(DeploymentId deployment) const {
  const Deployment& cluster = network_->deployments().at(deployment);
  return net::IpAddr{
      net::IpV4Addr{cluster.server_block.address().v4().value() + 254U}};
}

dnsserver::DynamicAnswerFn MappingSystem::top_level_handler(const dns::DnsName& suffix) {
  return [this, suffix](const dnsserver::DynamicQuery& query)
             -> std::optional<dnsserver::DynamicAnswer> {
    const topo::Ldns* ldns = world_->ldns_by_address(query.resolver);
    if (ldns == nullptr) return std::nullopt;
    std::optional<topo::BlockId> block;
    if (query.client_block && end_user_active(ldns->id)) {
      const net::IpPrefix block24{query.client_block->address(), 24};
      if (const topo::ClientBlock* found = world_->block_by_prefix(block24)) block = found->id;
    }
    dns::DnsName::TextBuffer domain;
    const auto result = map(ldns->id, block, query.qname.to_text(domain));
    if (!result) return std::nullopt;

    dnsserver::DynamicAnswer answer;
    answer.ttl = config_.answer_ttl;
    answer.ecs_scope_len = block ? config_.ecs_scope_len : 0;
    answer.referral.push_back(dnsserver::DynamicReferral{
        suffix.child("ns" + std::to_string(result->deployment)),
        cluster_ns_address(result->deployment)});
    return answer;
  };
}

dnsserver::DynamicAnswerFn MappingSystem::cluster_ns_handler() {
  return [this](const dnsserver::DynamicQuery& query)
             -> std::optional<dnsserver::DynamicAnswer> {
    // Which cluster is answering? The queried server address says.
    const Deployment* cluster = network_->deployment_of(query.server_address);
    if (cluster == nullptr) return std::nullopt;
    dnsserver::DynamicAnswer answer;
    answer.ttl = config_.answer_ttl;
    // The global choice was made by the delegation; this answer holds for
    // any client the resolver asks for.
    answer.ecs_scope_len = 0;
    dns::DnsName::TextBuffer domain;
    const std::vector<net::IpAddr> servers =
        local_lb_.pick_servers(network_->deployments()[cluster->id], query.qname.to_text(domain));
    answer.addresses.assign(servers.begin(), servers.end());
    if (answer.addresses.empty()) return std::nullopt;
    if (config_.serve_ipv6) {
      const std::size_t v4_count = answer.addresses.size();
      for (std::size_t i = 0; i < v4_count; ++i) {
        if (answer.addresses[i].is_v4()) {
          answer.addresses.emplace_back(CdnNetwork::v6_alias(answer.addresses[i].v4()));
        }
      }
    }
    return answer;
  };
}

void MappingSystem::install_two_tier(dnsserver::AuthorityDirectory& directory,
                                     dnsserver::AuthoritativeServer& top,
                                     dnsserver::AuthoritativeServer& low,
                                     const dns::DnsName& suffix) {
  top.add_dynamic_domain(suffix, top_level_handler(suffix));
  low.add_dynamic_domain(suffix, cluster_ns_handler());
  directory.add_authority(suffix, &top);
  for (const Deployment& cluster : network_->deployments()) {
    directory.add_server(cluster_ns_address(cluster.id), &low);
  }
}

}  // namespace eum::cdn
