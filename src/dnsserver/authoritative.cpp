#include "dnsserver/authoritative.h"

#include <algorithm>
#include <chrono>

#include "obs/trace.h"

namespace eum::dnsserver {

using dns::DnsName;
using dns::Message;
using dns::Rcode;
using dns::RecordType;
using dns::ResourceRecord;

AuthoritativeServer::AuthoritativeServer(obs::MetricsRegistry* registry)
    : owned_registry_(registry == nullptr ? std::make_unique<obs::MetricsRegistry>() : nullptr),
      registry_(registry != nullptr ? registry : owned_registry_.get()) {
  queries_ = &registry_->counter("eum_authority_queries_total", "queries handled");
  queries_with_ecs_ =
      &registry_->counter("eum_authority_queries_with_ecs_total", "queries carrying ECS");
  dynamic_answers_ =
      &registry_->counter("eum_authority_dynamic_answers_total", "mapping-system answers");
  referrals_ = &registry_->counter("eum_authority_referrals_total", "two-tier delegations");
  static_answers_ = &registry_->counter("eum_authority_static_answers_total", "zone answers");
  negative_answers_ =
      &registry_->counter("eum_authority_negative_answers_total", "NXDOMAIN/NODATA answers");
  refused_ = &registry_->counter("eum_authority_refused_total", "queries outside our zones");
  form_errors_ = &registry_->counter("eum_authority_form_errors_total", "malformed queries");
  handle_latency_ = &registry_->histogram("eum_authority_handle_latency_us",
                                          "handle() serving latency, microseconds");
}

void AuthoritativeServer::add_zone(Zone zone) { zones_.push_back(std::move(zone)); }

void AuthoritativeServer::add_dynamic_domain(DnsName suffix, DynamicAnswerFn handler) {
  dynamic_domains_.emplace_back(std::move(suffix), std::move(handler));
}

const Zone* AuthoritativeServer::zone_for(const DnsName& name) const noexcept {
  // Most specific (longest-origin) enclosing zone wins.
  const Zone* best = nullptr;
  for (const Zone& zone : zones_) {
    if (zone.contains(name) &&
        (best == nullptr || zone.origin().label_count() > best->origin().label_count())) {
      best = &zone;
    }
  }
  return best;
}

std::pair<const DnsName*, const DynamicAnswerFn*> AuthoritativeServer::dynamic_for(
    const DnsName& name) const noexcept {
  const std::pair<DnsName, DynamicAnswerFn>* best = nullptr;
  for (const auto& entry : dynamic_domains_) {
    if (name.is_subdomain_of(entry.first) &&
        (best == nullptr || entry.first.label_count() > best->first.label_count())) {
      best = &entry;
    }
  }
  if (best == nullptr) return {nullptr, nullptr};
  return {&best->first, &best->second};
}

Message AuthoritativeServer::handle(const Message& query, const net::IpAddr& source,
                                    const net::IpAddr& server_address) {
  Message response;
  handle_into(query, source, response, server_address);
  return response;
}

void AuthoritativeServer::handle_into(const Message& query, const net::IpAddr& source,
                                      Message& response, const net::IpAddr& server_address) {
  // Timing is sampled: two clock reads cost more than the rest of the
  // instrumentation combined, so only every Nth query pays them. The
  // tick is the queries counter handle_inner() bumps anyway; concurrent
  // handlers may occasionally double- or zero-sample a tick, which
  // sampling tolerates by design.
  const bool timing = (queries_->value() & latency_sample_mask_) == latency_sample_target_;
  const auto start =
      timing ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
  obs::AnswerSource answer_source = obs::AnswerSource::static_answer;
  handle_inner(query, source, server_address, response, answer_source);
  // Flight-recorder span and answer fields via the thread-local tracer
  // (installed by the UDP worker; null on untraced transports). A
  // SERVFAIL — whatever layer produced it — marks the trace anomalous so
  // it is always retained.
  if (obs::QueryTracer* tracer = obs::current_tracer()) {
    if (obs::TraceSpan* span = tracer->span(obs::TraceStage::handle)) {
      span->code = static_cast<std::int32_t>(response.header.rcode);
      span->set_detail(obs::to_string(answer_source));
    }
    tracer->set_answer(source, query, answer_source, response.header.rcode);
    if (response.header.rcode == Rcode::serv_fail) {
      tracer->note_anomaly(obs::TraceAnomaly::kServfail);
    }
  }
  if (timing) {
    handle_latency_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                              start)
            .count()));
  }
}

void AuthoritativeServer::handle_inner(const Message& query, const net::IpAddr& source,
                                       const net::IpAddr& server_address, Message& response,
                                       obs::AnswerSource& answer_source) {
  queries_->add();
  response.start_response(query);
  response.header.authoritative = true;

  if (query.header.is_response || query.questions.size() != 1 ||
      query.header.opcode != dns::Opcode::query) {
    form_errors_->add();
    answer_source = obs::AnswerSource::form_error;
    response.header.rcode = Rcode::form_err;
    return;
  }
  const dns::Question& question = query.questions.front();

  // ECS handling: pick up the client block if present, honoured, and valid.
  const dns::ClientSubnetOption* ecs = query.client_subnet();
  std::optional<net::IpPrefix> client_block;
  if (ecs != nullptr) {
    queries_with_ecs_->add();
    if (ecs->scope_prefix_len() != 0) {
      // RFC 7871 §7.1.2: SCOPE PREFIX-LENGTH must be 0 in queries.
      form_errors_->add();
      answer_source = obs::AnswerSource::form_error;
      response.header.rcode = Rcode::form_err;
      return;
    }
    if (ecs_enabled_) client_block = ecs->source_block();
  }

  // Dynamic (CDN) domains first.
  if (const auto [suffix, handler] = dynamic_for(question.name); handler != nullptr) {
    DynamicQuery dyn{question.name, question.type, source, client_block, server_address};
    const std::optional<DynamicAnswer> answer = (*handler)(dyn);
    if (!answer) {
      negative_answers_->add();
      answer_source = obs::AnswerSource::negative;
      response.header.rcode = Rcode::nx_domain;
      return;
    }
    if (!answer->referral.empty()) {
      // Delegation: NS records at the dynamic suffix plus A glue.
      referrals_->add();
      answer_source = obs::AnswerSource::referral;
      response.header.authoritative = false;
      for (const DynamicReferral& ref : answer->referral) {
        response.authorities.push_back(ResourceRecord{*suffix, RecordType::NS,
                                                      dns::RecordClass::IN, answer->ttl,
                                                      dns::NsRecord{ref.nameserver}});
        if (ref.glue.is_v4()) {
          response.additionals.push_back(ResourceRecord{ref.nameserver, RecordType::A,
                                                        dns::RecordClass::IN, answer->ttl,
                                                        dns::ARecord{ref.glue.v4()}});
        }
      }
      if (ecs != nullptr && response.edns) {
        const int scope = std::min(answer->ecs_scope_len, ecs->source_prefix_len());
        response.edns->set_client_subnet(ecs->with_scope(ecs_enabled_ ? scope : 0));
      }
      return;
    }
    dynamic_answers_->add();
    answer_source = obs::AnswerSource::dynamic_answer;
    // Only addresses matching the question type become records.
    const auto matches = [&question](const net::IpAddr& addr) {
      return question.type == (addr.is_v4() ? RecordType::A : RecordType::AAAA);
    };
    response.answers.reserve(static_cast<std::size_t>(
        std::count_if(answer->addresses.begin(), answer->addresses.end(), matches)));
    for (const net::IpAddr& addr : answer->addresses) {
      if (!matches(addr)) continue;
      ResourceRecord& record = response.answers.emplace_back();
      record.name = question.name;
      record.type = question.type;
      record.ttl = answer->ttl;
      if (addr.is_v4()) {
        record.rdata = dns::ARecord{addr.v4()};
      } else {
        record.rdata = dns::AaaaRecord{addr.v6()};
      }
    }
    if (ecs != nullptr && response.edns) {
      // Echo ECS with our scope; scope <= source per the paper's usage.
      const int scope = std::min(answer->ecs_scope_len, ecs->source_prefix_len());
      response.edns->set_client_subnet(ecs->with_scope(ecs_enabled_ ? scope : 0));
    }
    return;
  }

  // Static zones.
  const Zone* zone = zone_for(question.name);
  if (zone == nullptr) {
    refused_->add();
    answer_source = obs::AnswerSource::refused;
    response.header.authoritative = false;
    response.header.rcode = Rcode::refused;
    return;
  }
  // Static answers are client-independent: scope /0 (RFC 7871 §7.2.1
  // recommends scope 0 for answers that do not depend on the client).
  if (ecs != nullptr && response.edns) {
    response.edns->set_client_subnet(ecs->with_scope(0));
  }

  const LookupResult result = zone->lookup(question.name, question.type);
  switch (result.status) {
    case LookupStatus::success:
    case LookupStatus::out_of_zone:
      static_answers_->add();
      answer_source = obs::AnswerSource::static_answer;
      response.answers = result.answers;
      break;
    case LookupStatus::no_data:
      negative_answers_->add();
      answer_source = obs::AnswerSource::negative;
      response.answers = result.answers;  // possibly a partial CNAME chain
      if (result.soa) response.authorities.push_back(*result.soa);
      break;
    case LookupStatus::nx_domain:
      negative_answers_->add();
      answer_source = obs::AnswerSource::negative;
      response.header.rcode = Rcode::nx_domain;
      if (result.soa) response.authorities.push_back(*result.soa);
      break;
    case LookupStatus::delegation:
      static_answers_->add();
      answer_source = obs::AnswerSource::referral;
      response.header.authoritative = false;
      response.authorities = result.referral;
      break;
  }
}

}  // namespace eum::dnsserver
