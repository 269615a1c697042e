#include "dnsserver/resolver.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "obs/trace.h"

namespace eum::dnsserver {

namespace {

/// SRTT charged to a server whose very first attempt failed: a lost
/// query says nothing about the true RTT, only that the server is
/// suspect, so start it well behind any plausibly-live sibling.
constexpr double kSrttFailurePenaltyUs = 100000.0;

/// All A-glue addresses of a referral (NS records in the authority
/// section matched with A records in the additional section), deduped in
/// referral order.
std::vector<net::IpAddr> glue_candidates(const dns::Message& referral) {
  std::vector<net::IpAddr> out;
  for (const dns::ResourceRecord& ns_record : referral.authorities) {
    const auto* ns = std::get_if<dns::NsRecord>(&ns_record.rdata);
    if (ns == nullptr) continue;
    for (const dns::ResourceRecord& extra : referral.additionals) {
      if (extra.name != ns->nameserver) continue;
      if (const auto* a = std::get_if<dns::ARecord>(&extra.rdata)) {
        const net::IpAddr addr{a->address};
        if (std::find(out.begin(), out.end(), addr) == out.end()) out.push_back(addr);
      }
    }
  }
  return out;
}

}  // namespace

using dns::DnsName;
using dns::Message;
using dns::Rcode;
using dns::RecordType;
using dns::ResourceRecord;

RecursiveResolver::RecursiveResolver(ResolverConfig config, const util::SimClock* clock,
                                     Upstream* upstream, net::IpAddr own_address)
    : config_(config),
      clock_(clock),
      upstream_(upstream),
      own_address_(own_address),
      owned_registry_(config.registry == nullptr ? std::make_unique<obs::MetricsRegistry>()
                                                 : nullptr),
      registry_(config.registry != nullptr ? config.registry : owned_registry_.get()),
      client_queries_(
          &registry_->counter("eum_resolver_client_queries_total", "client queries resolved")),
      upstream_queries_(
          &registry_->counter("eum_resolver_upstream_queries_total", "queries sent upstream")),
      referrals_followed_(&registry_->counter("eum_resolver_referrals_followed_total",
                                              "delegations chased via glue")),
      retries_(&registry_->counter("eum_resolver_retries_total",
                                   "upstream attempts beyond the first")),
      upstream_failures_(&registry_->counter("eum_resolver_upstream_failures_total",
                                             "upstream attempts lost or unusable")),
      stale_served_(&registry_->counter("eum_resolver_stale_served_total",
                                        "RFC 8767 answers served from expired entries")),
      resolve_latency_(&registry_->histogram("eum_resolver_resolve_latency_us",
                                             "resolve() serving latency, microseconds")),
      retry_latency_(&registry_->histogram(
          "eum_resolver_retry_latency_us",
          "upstream round latency when at least one retry ran, microseconds")),
      cache_(ScopedCacheConfig{config.max_cache_entries, config.cache_shards, registry_,
                               config.serve_stale_window}),
      rng_(config.retry_seed) {
  if (clock_ == nullptr || upstream_ == nullptr) {
    throw std::invalid_argument{"RecursiveResolver: clock and upstream are required"};
  }
  if (config_.ecs_source_len < 0 || config_.ecs_source_len > 32 ||
      config_.ecs_source_len_v6 < 0 || config_.ecs_source_len_v6 > 128) {
    throw std::invalid_argument{"RecursiveResolver: ECS source length out of range"};
  }
  if (config_.retry.attempts < 1) {
    throw std::invalid_argument{"RecursiveResolver: retry.attempts must be >= 1"};
  }
  if (config_.serve_stale_window < 0) {
    throw std::invalid_argument{"RecursiveResolver: serve_stale_window must be >= 0"};
  }
}

double RecursiveResolver::srtt_us(const net::IpAddr& server) const {
  const std::scoped_lock lock{srtt_mutex_};
  const auto it = srtt_.find(server.to_string());
  return it == srtt_.end() ? 0.0 : it->second.srtt_us;
}

bool RecursiveResolver::response_usable(const Message& query, const Message& response) noexcept {
  // An ID mismatch means a corrupt or spoofed wire image — never trust
  // it. TC=1 lost its sections in transit, and SERVFAIL is the
  // authority saying "try again": both are worth a retry. REFUSED,
  // NXDOMAIN etc. are definitive answers, not failures.
  return response.header.is_response && response.header.id == query.header.id &&
         !response.header.truncated && response.header.rcode != Rcode::serv_fail;
}

void RecursiveResolver::backoff_sleep(int round) {
  const RetryPolicy& policy = config_.retry;
  double base = static_cast<double>(policy.backoff_initial.count());
  for (int i = 1; i < round; ++i) base *= policy.backoff_multiplier;
  base = std::min(base, static_cast<double>(policy.backoff_max.count()));
  if (policy.jitter > 0.0) {
    const std::scoped_lock lock{rng_mutex_};
    base *= rng_.uniform(std::max(0.0, 1.0 - policy.jitter), 1.0 + policy.jitter);
  }
  const auto sleep_us = static_cast<std::int64_t>(base);
  if (sleep_us > 0) std::this_thread::sleep_for(std::chrono::microseconds{sleep_us});
}

void RecursiveResolver::record_srtt(const net::IpAddr& server, double sample_us, bool success) {
  const std::string key = server.to_string();
  const std::scoped_lock lock{srtt_mutex_};
  const auto [it, inserted] = srtt_.try_emplace(key);
  SrttEntry& entry = it->second;
  if (inserted) {
    entry.gauge = &registry_->gauge("eum_resolver_srtt_us",
                                    "smoothed RTT per delegated nameserver, microseconds",
                                    obs::Labels{{"server", key}});
  }
  if (success) {
    entry.srtt_us =
        entry.srtt_us == 0.0 ? sample_us : entry.srtt_us + (sample_us - entry.srtt_us) / 8.0;
  } else {
    entry.srtt_us = entry.srtt_us == 0.0 ? kSrttFailurePenaltyUs : entry.srtt_us * 2.0;
  }
  entry.gauge->set(static_cast<std::int64_t>(entry.srtt_us));
}

std::vector<net::IpAddr> RecursiveResolver::order_by_srtt(
    std::vector<net::IpAddr> candidates) const {
  const std::scoped_lock lock{srtt_mutex_};
  const auto srtt_of = [this](const net::IpAddr& addr) {
    const auto it = srtt_.find(addr.to_string());
    return it == srtt_.end() ? 0.0 : it->second.srtt_us;
  };
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](const net::IpAddr& a, const net::IpAddr& b) {
                     return srtt_of(a) < srtt_of(b);
                   });
  return candidates;
}

std::optional<Message> RecursiveResolver::forward_with_retries(Message& query,
                                                               const DnsName& name,
                                                               bool& retried) {
  for (int attempt = 0; attempt < config_.retry.attempts; ++attempt) {
    if (attempt > 0) {
      retried = true;
      retries_->add();
      backoff_sleep(attempt);
      query.header.id = next_query_id();  // fresh ID: a late answer to a
                                          // lost attempt must not match
    }
    upstream_queries_->add();
    if (on_upstream_query) on_upstream_query(name);
    std::optional<Message> response = upstream_->try_forward(query, own_address_);
    const bool usable = response && response_usable(query, *response);
    if (obs::QueryTracer* tracer = obs::current_tracer()) {
      if (obs::TraceSpan* span = tracer->span(obs::TraceStage::resolver_attempt)) {
        span->code = attempt;
        span->set_detail(usable ? "upstream ok" : "upstream fail");
      }
    }
    if (usable) return response;
    upstream_failures_->add();
  }
  return std::nullopt;
}

std::optional<Message> RecursiveResolver::forward_to_with_retries(
    std::vector<net::IpAddr> candidates, Message& query, const DnsName& name, bool& retried,
    bool& unaddressable) {
  unaddressable = false;
  bool dispatched = false;
  int sent = 0;
  std::optional<net::IpAddr> last_server;
  while (sent < config_.retry.attempts && !candidates.empty()) {
    // Prefer the fastest live authority; an untried server (SRTT 0)
    // sorts first so every glue candidate gets explored before we settle.
    const net::IpAddr server = order_by_srtt(candidates).front();
    if (sent > 0 && last_server && server == *last_server) {
      backoff_sleep(sent);  // re-trying the same server: back off
    }
    query.header.id = next_query_id();
    const auto sent_at = std::chrono::steady_clock::now();
    Upstream::ForwardToResult result = upstream_->try_forward_to(server, query, own_address_);
    if (!result.addressable) {
      // No route to this nameserver at all: strike it without consuming
      // an attempt and try its siblings.
      candidates.erase(std::find(candidates.begin(), candidates.end(), server));
      continue;
    }
    dispatched = true;
    if (sent > 0) {
      retried = true;
      retries_->add();
    }
    ++sent;
    upstream_queries_->add();
    if (on_upstream_query) on_upstream_query(name);
    const auto sample_us = static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                              sent_at)
            .count());
    const bool usable = result.response && response_usable(query, *result.response);
    record_srtt(server, sample_us, usable);
    if (obs::QueryTracer* tracer = obs::current_tracer()) {
      if (obs::TraceSpan* span = tracer->span(obs::TraceStage::resolver_attempt)) {
        span->code = sent - 1;
        span->value = static_cast<std::int64_t>(sample_us);
        span->set_detail(server.to_string() + (usable ? " ok" : " fail"));
      }
    }
    if (usable) return std::move(result.response);
    upstream_failures_->add();
    last_server = server;
  }
  unaddressable = !dispatched;
  return std::nullopt;
}

Message RecursiveResolver::query_upstream(const DnsName& name, RecordType type,
                                          const std::optional<net::IpAddr>& ecs_client,
                                          const net::IpAddr& lookup_addr, bool& served_stale) {
  served_stale = false;
  std::optional<dns::ClientSubnetOption> ecs;
  if (ecs_client) {
    const int source_len =
        ecs_client->is_v4() ? config_.ecs_source_len : config_.ecs_source_len_v6;
    ecs = dns::ClientSubnetOption::for_query(*ecs_client, source_len);
  }
  Message query = Message::make_query(next_query_id(), name, type, std::move(ecs));
  query.header.recursion_desired = false;

  const auto round_started = std::chrono::steady_clock::now();
  bool retried = false;
  std::optional<Message> maybe_response = forward_with_retries(query, name, retried);

  // Chase delegations: a NOERROR response with no answers but NS records
  // in the authority section refers us to the delegated nameservers; use
  // the A glue from the additional section (the paper's two-tier name
  // server hierarchy works exactly this way, §2.2 part 3). All glue
  // candidates are kept so a dead delegated server fails over to a live
  // sibling instead of killing the resolution.
  for (int hop = 0; maybe_response && hop < 4; ++hop) {
    if (maybe_response->header.rcode != Rcode::no_error || !maybe_response->answers.empty()) {
      break;
    }
    std::vector<net::IpAddr> glue = glue_candidates(*maybe_response);
    if (glue.empty()) break;
    bool unaddressable = false;
    std::optional<Message> delegated =
        forward_to_with_retries(std::move(glue), query, name, retried, unaddressable);
    if (unaddressable) break;  // transport cannot address servers: keep the referral
    if (!delegated) {
      maybe_response.reset();  // live servers, every attempt failed
      break;
    }
    referrals_followed_->add();
    maybe_response = std::move(delegated);
  }

  if (retried) {
    retry_latency_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                              round_started)
            .count()));
  }

  if (!maybe_response) {
    // Every upstream attempt failed. RFC 8767 graceful degradation:
    // answer from an expired cache entry inside the stale window with a
    // short TTL; otherwise SERVFAIL — and never cache the failure.
    if (config_.serve_stale_window > 0) {
      if (auto stale = cache_.lookup_stale(ScopedEcsCache::Key{name, type}, lookup_addr,
                                           clock_->now())) {
        stale_served_->add();
        served_stale = true;
        // A stale answer saved the query but is operationally notable:
        // retain its trace unconditionally.
        if (obs::QueryTracer* tracer = obs::current_tracer()) {
          tracer->note_anomaly(obs::TraceAnomaly::kStale);
        }
        Message answer;
        answer.header.rcode = stale->rcode;
        answer.answers = std::move(stale->answers);
        for (ResourceRecord& r : answer.answers) {
          r.ttl = std::min(r.ttl, config_.stale_answer_ttl);
        }
        return answer;
      }
    }
    Message failure;
    failure.header.rcode = Rcode::serv_fail;
    return failure;
  }
  Message response = std::move(*maybe_response);

  // Cache the outcome.
  ScopedEcsCache::Key key{name, type};
  ScopedEcsCache::Entry entry;
  entry.inserted = clock_->now();
  std::uint32_t ttl = config_.max_ttl;
  if (response.header.rcode == Rcode::no_error && !response.answers.empty()) {
    for (const ResourceRecord& r : response.answers) ttl = std::min(ttl, r.ttl);
    entry.answers = response.answers;
  } else {
    // Negative caching (RFC 2308 §5): prefer the authority-section SOA's
    // MINIMUM (capped by the SOA record's own TTL); fall back to the
    // configured default when the response carries no SOA.
    ttl = config_.negative_ttl;
    for (const ResourceRecord& record : response.authorities) {
      if (const auto* soa = std::get_if<dns::SoaRecord>(&record.rdata)) {
        ttl = std::min(soa->minimum, record.ttl);
        break;
      }
    }
  }
  entry.rcode = response.header.rcode;
  entry.expires = entry.inserted + static_cast<std::int64_t>(ttl);

  // RFC 7871 §7.3.1: an ECS answer is cached against its scope block; a
  // scope of /0 (or an answer without ECS) is valid for all clients. An
  // authority returning a scope LONGER than the announced source only
  // knows the source bits, so the entry is clamped to the source length
  // (§7.3.1's caching guidance).
  if (const dns::ClientSubnetOption* resp_ecs = response.client_subnet();
      resp_ecs != nullptr && resp_ecs->scope_prefix_len() > 0) {
    const int effective =
        std::min(resp_ecs->scope_prefix_len(), resp_ecs->source_prefix_len());
    entry.scope = net::IpPrefix{resp_ecs->address(), effective};
  }
  cache_.store(key, std::move(entry));
  return response;
}

Message RecursiveResolver::resolve(const Message& client_query, const net::IpAddr& client_addr) {
  const auto start = std::chrono::steady_clock::now();
  obs::AnswerSource answer_source = obs::AnswerSource::upstream;
  Message response = resolve_inner(client_query, client_addr, answer_source);
  resolve_latency_->record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                            start)
          .count()));
  // The client's view, written after any authority this resolution
  // reached through the same tracer, so the outermost layer's fields
  // are the ones that commit.
  if (obs::QueryTracer* tracer = obs::current_tracer()) {
    tracer->set_answer(client_addr, client_query, answer_source, response.header.rcode);
  }
  return response;
}

Message RecursiveResolver::resolve_inner(const Message& client_query,
                                         const net::IpAddr& client_addr,
                                         obs::AnswerSource& answer_source) {
  client_queries_->add();
  Message response = Message::make_response(client_query);
  response.header.recursion_available = true;
  if (client_query.questions.size() != 1) {
    answer_source = obs::AnswerSource::form_error;
    response.header.rcode = Rcode::form_err;
    return response;
  }
  const dns::Question& question = client_query.questions.front();

  // The address used for ECS: an ECS option in the client's own query wins
  // (forwarder chain, RFC 7871 §7.1.1); otherwise the connection address.
  std::optional<net::IpAddr> ecs_client;
  if (config_.ecs_enabled) {
    if (const auto* client_ecs = client_query.client_subnet()) {
      ecs_client = client_ecs->address();
    } else {
      ecs_client = client_addr;
    }
  }
  // Cache lookups must use the same address the upstream query announces:
  // a forwarded ECS option replaces the connection address entirely, or
  // scoped entries for other blocks would (mis)match the connection.
  const net::IpAddr& lookup_addr = ecs_client ? *ecs_client : client_addr;

  // Resolve with CNAME chasing across authorities. The recorded answer
  // source reflects the first hop: a scoped or global cache hit, or an
  // upstream round trip.
  DnsName current = question.name;
  RecordType type = question.type;
  for (int hop = 0; hop < 8; ++hop) {
    const ScopedEcsCache::Key key{current, type};
    std::vector<ResourceRecord> answers;
    Rcode rcode = Rcode::no_error;

    if (const auto cached = cache_.lookup(key, lookup_addr, clock_->now())) {
      rcode = cached->rcode;
      if (hop == 0) {
        answer_source = cached->scope ? obs::AnswerSource::cache_hit_scoped
                                      : obs::AnswerSource::cache_hit;
      }
      // Age TTLs by the time the entry has been cached.
      const auto age = static_cast<std::uint32_t>(clock_->now() - cached->inserted);
      answers = cached->answers;
      for (ResourceRecord& r : answers) r.ttl = r.ttl > age ? r.ttl - age : 0;
    } else {
      if (hop == 0) answer_source = obs::AnswerSource::upstream;
      bool served_stale = false;
      const Message upstream_response =
          query_upstream(current, type, ecs_client, lookup_addr, served_stale);
      if (served_stale && hop == 0) answer_source = obs::AnswerSource::stale;
      rcode = upstream_response.header.rcode;
      answers = upstream_response.answers;
    }

    response.header.rcode = rcode;
    response.answers.insert(response.answers.end(), answers.begin(), answers.end());
    if (rcode != Rcode::no_error) return response;

    // Complete if we obtained a record of the requested type; otherwise
    // follow the last CNAME in the chain.
    const bool satisfied = std::any_of(answers.begin(), answers.end(), [&](const auto& r) {
      return dns::rdata_type(r.rdata, r.type) == type;
    });
    if (satisfied || answers.empty()) return response;
    const auto last_cname =
        std::find_if(answers.rbegin(), answers.rend(), [](const ResourceRecord& r) {
          return std::holds_alternative<dns::CnameRecord>(r.rdata);
        });
    if (last_cname == answers.rend()) return response;
    current = std::get<dns::CnameRecord>(last_cname->rdata).target;
  }
  response.header.rcode = Rcode::serv_fail;  // CNAME chain too long
  return response;
}

}  // namespace eum::dnsserver
