#include "control/explain.h"

#include <stdexcept>
#include <utility>

#include "obs/build_info.h"
#include "util/strings.h"

namespace eum::control {
namespace {

const char* policy_name(cdn::MappingPolicy policy) noexcept {
  switch (policy) {
    case cdn::MappingPolicy::ns_based: return "ns_based";
    case cdn::MappingPolicy::end_user: return "end_user";
    case cdn::MappingPolicy::client_aware_ns: return "client_aware_ns";
  }
  return "unknown";
}

const char* source_name(DecisionExplainer::ResolverSource source) noexcept {
  switch (source) {
    case DecisionExplainer::ResolverSource::explicit_arg: return "explicit";
    case DecisionExplainer::ResolverSource::ip_is_ldns: return "ip-is-ldns";
    case DecisionExplainer::ResolverSource::client_primary: return "client-primary-ldns";
    case DecisionExplainer::ResolverSource::fallback: return "fallback";
  }
  return "unknown";
}

constexpr std::string_view kDefaultQname = "www.cdn.example.";

}  // namespace

DecisionExplainer::DecisionExplainer(const topo::World* world,
                                     const cdn::MappingSystem* mapping, MapMaker* maker,
                                     const RolloutController* rollout)
    : world_(world), mapping_(mapping), maker_(maker), rollout_(rollout) {
  if (world_ == nullptr || mapping_ == nullptr || maker_ == nullptr) {
    throw std::invalid_argument{"DecisionExplainer: world, mapping and maker are required"};
  }
}

DecisionExplainer::Explanation DecisionExplainer::explain(
    const net::IpAddr& client, std::string_view qname,
    std::optional<net::IpAddr> resolver) const {
  Explanation out;
  out.client = client;
  out.qname = std::string{qname.empty() ? kDefaultQname : qname};

  // Attribute the query to an LDNS, the way the serve path would see it:
  // the serve path knows the actual UDP source; an operator usually only
  // has the client IP, so fall back through the client->LDNS association.
  const topo::Ldns* ldns = nullptr;
  if (resolver) {
    ldns = world_->ldns_by_address(*resolver);
    if (ldns == nullptr) {
      out.error = util::format("resolver %s is not a known LDNS",
                               resolver->to_string().c_str());
      return out;
    }
    out.ldns_source = ResolverSource::explicit_arg;
  } else if ((ldns = world_->ldns_by_address(client)) != nullptr) {
    out.ldns_source = ResolverSource::ip_is_ldns;
  } else if (client.is_v4()) {
    const net::IpPrefix block24{client, 24};
    if (const topo::ClientBlock* found = world_->block_by_prefix(block24)) {
      ldns = &world_->primary_ldns(*found);
      out.ldns_source = ResolverSource::client_primary;
    }
  }
  if (ldns == nullptr && fallback_ldns_) {
    ldns = &world_->ldnses.at(*fallback_ldns_);
    out.ldns_source = ResolverSource::fallback;
  }
  if (ldns == nullptr) {
    out.error = util::format("%s matches no LDNS and no client block (no fallback set)",
                             client.to_string().c_str());
    return out;
  }
  out.ldns = ldns->id;

  // The live gate, block and scope, decided by the call dns_handler makes:
  // the client block participates only when end-user mapping is on for
  // this resolver NOW.
  out.end_user_on = mapping_->end_user_active(ldns->id);
  const cdn::MappingSystem::ClientScope scope = mapping_->client_scope(ldns->id, client);
  out.block = scope.block;
  out.ecs_scope = scope.ecs_scope_len;

  if (rollout_ != nullptr) {
    out.has_rollout = true;
    out.cohort = rollout_->cohort(ldns->id);
    out.enabled_cohorts = rollout_->enabled_cohorts();
    out.total_cohorts = rollout_->config().cohorts;
    out.fraction = rollout_->fraction();
    out.whitelisted = rollout_->is_whitelisted(ldns->id);
  }

  // One acquire load pins the snapshot generation for the whole report.
  const std::shared_ptr<const cdn::MapSnapshot> snapshot = maker_->current();
  out.map = snapshot->explain(ldns->id, out.block, out.qname);
  out.ok = true;
  return out;
}

std::string DecisionExplainer::render(const Explanation& explanation) {
  if (!explanation.ok) {
    return util::format("cannot explain: %s\n", explanation.error.c_str());
  }
  std::string out;
  out += util::format("client %s qname %s\n", explanation.client.to_string().c_str(),
                      explanation.qname.c_str());
  out += util::format("ldns %lu (%s)\n", static_cast<unsigned long>(explanation.ldns),
                      source_name(explanation.ldns_source));
  if (explanation.has_rollout) {
    out += util::format(
        "rollout cohort=%lu/%lu enabled=%lu fraction=%.3f whitelisted=%s\n",
        static_cast<unsigned long>(explanation.cohort),
        static_cast<unsigned long>(explanation.total_cohorts),
        static_cast<unsigned long>(explanation.enabled_cohorts), explanation.fraction,
        explanation.whitelisted ? "yes" : "no");
  }
  const auto& map = explanation.map;
  out += util::format("policy %s end_user=%s map_version=%llu\n", policy_name(map.policy),
                      explanation.end_user_on ? "on" : "off",
                      static_cast<unsigned long long>(map.version));
  if (explanation.block) {
    out += util::format("client_block %lu ecs_scope /%d unit=target:%lu\n",
                        static_cast<unsigned long>(*explanation.block), explanation.ecs_scope,
                        static_cast<unsigned long>(map.unit));
  } else {
    out += util::format("client_block none ecs_scope /%d unit=target:%lu (%s)\n",
                        explanation.ecs_scope, static_cast<unsigned long>(map.unit),
                        map.used_client_block ? "client" : "resolver-derived");
  }
  out += util::format("mapping_unit %lu members=%zu\n",
                      static_cast<unsigned long>(map.mapping_unit), map.unit_size);
  out += util::format("candidates (%zu%s):\n", map.candidates.size(),
                      map.fallback_scan ? ", chosen via full mesh fallback scan" : "");
  for (const cdn::MapSnapshot::ExplainCandidate& candidate : map.candidates) {
    const char* state = !candidate.alive   ? "dead"
                        : candidate.usable ? "alive usable"
                                           : "alive full";
    out += util::format("  %s cluster %lu score=%.2fms %s load=%.1f/%.1f\n",
                        candidate.chosen ? "*" : " ",
                        static_cast<unsigned long>(candidate.deployment),
                        static_cast<double>(candidate.score_ms), state, candidate.load,
                        candidate.capacity);
  }
  if (map.result) {
    std::string servers;
    for (const net::IpAddr& server : map.result->servers) {
      if (!servers.empty()) servers += ',';
      servers += server.to_string();
    }
    out += util::format("answer cluster=%lu expected_rtt=%.2fms servers=%s\n",
                        static_cast<unsigned long>(map.result->deployment),
                        static_cast<double>(map.result->expected_rtt_ms), servers.c_str());
  } else {
    out += "answer NONE (no usable cluster)\n";
  }
  return out;
}

std::string DecisionExplainer::command(const std::vector<std::string>& args) const {
  if (args.size() < 2) {
    throw std::runtime_error{"usage: explain <client-ip> [qname] [resolver-ip]"};
  }
  const std::optional<net::IpAddr> client = net::IpAddr::parse(args[1]);
  if (!client) throw std::runtime_error{util::format("bad client ip '%s'", args[1].c_str())};
  std::string_view qname;
  if (args.size() > 2) qname = args[2];
  std::optional<net::IpAddr> resolver;
  if (args.size() > 3) {
    resolver = net::IpAddr::parse(args[3]);
    if (!resolver) {
      throw std::runtime_error{util::format("bad resolver ip '%s'", args[3].c_str())};
    }
  }
  return render(explain(*client, qname, resolver));
}

std::string snapshot_info(MapMaker& maker) {
  maker.refresh_gauges();
  const std::shared_ptr<const cdn::MapSnapshot> snapshot = maker.current();
  std::size_t alive = 0;
  for (const cdn::MapSnapshot::Cluster& cluster : snapshot->clusters()) {
    if (!cluster.servers.empty()) ++alive;
  }
  std::string out;
  out += util::format("version %llu built_at_s %lld policy %s\n",
                      static_cast<unsigned long long>(snapshot->version()),
                      static_cast<long long>(snapshot->built_at().seconds()),
                      policy_name(snapshot->config().policy));
  out += util::format("clusters %zu alive %zu servers_per_answer %zu\n",
                      snapshot->clusters().size(), alive,
                      snapshot->config().servers_per_answer);
  out += util::format("rebuilds %llu publishes %llu skipped %llu\n",
                      static_cast<unsigned long long>(maker.rebuilds()),
                      static_cast<unsigned long long>(maker.publishes()),
                      static_cast<unsigned long long>(maker.skipped_publishes()));
  std::string reasons;
  for (std::size_t i = 0; i < 5; ++i) {
    const auto reason = static_cast<RebuildReason>(i);
    if (!reasons.empty()) reasons += ' ';
    reasons += util::format("%s=%llu", to_string(reason),
                            static_cast<unsigned long long>(maker.rebuilds_for(reason)));
  }
  out += util::format("rebuild_reasons %s\n", reasons.c_str());
  out += util::format("build %s\n", obs::build_info_string().c_str());
  return out;
}

}  // namespace eum::control
