#include "cdn/mapping.h"

#include <stdexcept>
#include <utility>

#include "cdn/map_snapshot.h"
#include "cdn/mapping_units.h"
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

/// Our worlds allocate client blocks at /24.
constexpr int kClientBlockLen = 24;

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
      config_(checked(config)),
      mesh_(PingMesh::measure(*world_, *network_, *require(latency, "latency"))),
      units_(MappingUnits::build(mesh_)),
      scoring_(Scoring::build(*world_, *network_, mesh_, *units_, config_.scoring_top_k,
                              config_.traffic_class, config_.precompute_cluster_scores)),
      ledger_(std::make_shared<LoadLedger>(network_->size())) {
  published_.publish(MapSnapshot::build(*this, 1, util::SimTime{0}), 1);
}

std::shared_ptr<const MapSnapshot> MappingSystem::rebuild(util::SimTime built_at,
                                                          const PublishIf& publish_if) {
  std::shared_ptr<const MapSnapshot> current = published_.snapshot();
  const std::uint64_t next = current->version() + 1;
  std::shared_ptr<const MapSnapshot> built = MapSnapshot::build(*this, next, built_at);
  if (!publish_if(*built, *current)) return current;
  // Publish order matters for version-keyed consumers (the UDP wire
  // answer cache): VersionedRcu stores the snapshot, then the version,
  // both release, so a reader that observes version V via version_cell()
  // already gets generation >= V from snapshot() (model-checked; weakening
  // either store yields a violating schedule — AUDIT_memory_orders.json).
  published_.publish(built, next);
  return built;
}

void MappingSystem::rescore() {
  (void)rebuild(snapshot()->built_at(),
                [](const MapSnapshot&, const MapSnapshot&) { return true; });
}

std::optional<MapResult> MappingSystem::map_ldns(topo::LdnsId ldns, std::string_view domain,
                                                 double load_units) const {
  return snapshot()->map_target(world_->ldnses.at(ldns).ping_target, domain, load_units);
}

std::optional<MapResult> MappingSystem::map_block(topo::BlockId block, std::string_view domain,
                                                  double load_units) const {
  return snapshot()->map_target(world_->blocks.at(block).ping_target, domain, load_units);
}

std::optional<MapResult> MappingSystem::map_cluster(topo::LdnsId ldns, std::string_view domain,
                                                    double load_units) const {
  return snapshot()->map_cluster(ldns, domain, load_units);
}

std::optional<MapResult> MappingSystem::map(topo::LdnsId ldns,
                                            std::optional<topo::BlockId> client_block,
                                            std::string_view domain, double load_units) const {
  // Staged roll-out: resolvers whose cohort has not flipped yet are
  // answered NS-based even when the client block is known.
  if (client_block && end_user_gate_ && !end_user_gate_(ldns)) client_block.reset();
  return snapshot()->map(ldns, client_block, domain, load_units);
}

MappingSystem::ClientScope MappingSystem::client_scope(
    topo::LdnsId ldns, const std::optional<net::IpAddr>& client) const {
  if (!client || !client->is_v4() || !end_user_active(ldns)) return {};
  // An announced source block broader than /24 is looked up at the /24
  // of its base address.
  const topo::ClientBlock* found = world_->block_by_prefix(net::IpPrefix{*client, kClientBlockLen});
  if (found == nullptr) return {std::nullopt, kClientBlockLen};
  return {found->id, config_.ecs_scope_len};
}

std::optional<MappingSystem::QueryUnit> MappingSystem::resolve(
    const dnsserver::DynamicQuery& query) const {
  // Identify the querying LDNS.
  const topo::Ldns* ldns = world_->ldns_by_address(query.resolver);
  if (ldns == nullptr) return std::nullopt;
  std::optional<net::IpAddr> client;
  if (query.client_block) client = query.client_block->address();
  return QueryUnit{ldns->id, client_scope(ldns->id, client)};
}

dnsserver::DynamicAnswerFn MappingSystem::dns_handler() {
  return [this](const dnsserver::DynamicQuery& query) -> std::optional<dnsserver::DynamicAnswer> {
    const std::optional<QueryUnit> unit = resolve(query);
    if (!unit) return std::nullopt;
    dns::DnsName::TextBuffer domain;
    const auto result =
        snapshot()->map(unit->ldns, unit->client.block, query.qname.to_text(domain));
    // Flight-recorder span (thread-local tracer; null on untraced
    // transports): the decision's policy inputs and outcome. This is the
    // slow path — the wire answer cache absorbed repeats — so the detail
    // string's allocation is acceptable here.
    if (obs::QueryTracer* tracer = obs::current_tracer()) {
      if (obs::TraceSpan* span = tracer->span(obs::TraceStage::map_decision)) {
        span->code = unit->client.block ? 1 : 0;
        span->value = result ? static_cast<std::int64_t>(result->deployment) : -1;
        span->set_detail(util::format(
            "ldns=%u ecs=/%d rtt=%.1f", static_cast<unsigned>(unit->ldns),
            unit->client.ecs_scope_len,
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
    answer.ecs_scope_len = unit->client.ecs_scope_len;
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
    const std::optional<QueryUnit> unit = resolve(query);
    if (!unit) return std::nullopt;
    dns::DnsName::TextBuffer domain;
    const auto result =
        snapshot()->map(unit->ldns, unit->client.block, query.qname.to_text(domain));
    if (!result) return std::nullopt;

    dnsserver::DynamicAnswer answer;
    answer.ttl = config_.answer_ttl;
    answer.ecs_scope_len = unit->client.ecs_scope_len;
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
    dns::DnsName::TextBuffer domain;
    ServerList servers;
    snapshot()->pick_servers(cluster->id, query.qname.to_text(domain), servers);
    if (servers.empty()) return std::nullopt;
    dnsserver::DynamicAnswer answer;
    answer.ttl = config_.answer_ttl;
    // The global choice was made by the delegation; this answer holds for
    // any client the resolver asks for.
    answer.ecs_scope_len = 0;
    answer.addresses.assign(servers.begin(), servers.end());
    if (config_.serve_ipv6) {
      for (const net::IpAddr& server : servers) {
        if (server.is_v4()) answer.addresses.emplace_back(CdnNetwork::v6_alias(server.v4()));
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
