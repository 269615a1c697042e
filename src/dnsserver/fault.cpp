#include "dnsserver/fault.h"

#include <stdexcept>
#include <thread>
#include <utility>

namespace eum::dnsserver {

using dns::Message;

namespace {

void validate(const FaultSpec& spec) {
  const auto in_unit = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!in_unit(spec.drop) || !in_unit(spec.servfail) || !in_unit(spec.truncate) ||
      !in_unit(spec.duplicate) || !in_unit(spec.corrupt)) {
    throw std::invalid_argument{"FaultSpec: probabilities must be in [0, 1]"};
  }
  if (spec.delay.count() < 0 || spec.delay_jitter.count() < 0) {
    throw std::invalid_argument{"FaultSpec: delays must be non-negative"};
  }
}

}  // namespace

FaultInjector::FaultInjector(Upstream* inner, FaultInjectorConfig config)
    : inner_(inner),
      default_spec_(config.faults),
      rng_(config.seed),
      owned_registry_(config.registry == nullptr ? std::make_unique<obs::MetricsRegistry>()
                                                 : nullptr),
      registry_(config.registry != nullptr ? config.registry : owned_registry_.get()) {
  if (inner_ == nullptr) throw std::invalid_argument{"FaultInjector: null inner upstream"};
  validate(default_spec_);
  const auto fault_counter = [this](const char* kind) {
    return &registry_->counter("eum_fault_injected_total", "faults injected by kind",
                               obs::Labels{{"fault", kind}});
  };
  drops_ = fault_counter("drop");
  servfails_ = fault_counter("servfail");
  truncations_ = fault_counter("truncate");
  duplicates_ = fault_counter("duplicate");
  corruptions_ = fault_counter("corrupt");
  delays_ = fault_counter("delay");
  forwards_ = &registry_->counter("eum_fault_forwarded_total",
                                  "queries passed through to the inner upstream");
}

void FaultInjector::set_faults(FaultSpec spec) {
  validate(spec);
  const std::scoped_lock lock{mutex_};
  default_spec_ = spec;
}

void FaultInjector::set_faults_for(const net::IpAddr& server, FaultSpec spec) {
  validate(spec);
  const std::scoped_lock lock{mutex_};
  per_server_[server.to_string()] = spec;
}

FaultSpec FaultInjector::spec_for(const net::IpAddr& server) const {
  const std::scoped_lock lock{mutex_};
  const auto it = per_server_.find(server.to_string());
  return it == per_server_.end() ? default_spec_ : it->second;
}

FaultInjector::Decision FaultInjector::draw(const FaultSpec& spec) {
  Decision decision;
  if (!spec.active()) return decision;
  const std::scoped_lock lock{mutex_};
  decision.drop = spec.drop > 0.0 && rng_.chance(spec.drop);
  if (decision.drop) return decision;  // nothing else matters: the query is gone
  decision.servfail = spec.servfail > 0.0 && rng_.chance(spec.servfail);
  decision.truncate = spec.truncate > 0.0 && rng_.chance(spec.truncate);
  decision.duplicate = spec.duplicate > 0.0 && rng_.chance(spec.duplicate);
  decision.corrupt = spec.corrupt > 0.0 && rng_.chance(spec.corrupt);
  if (decision.corrupt) decision.corrupt_seed = rng_();
  decision.delay = spec.delay;
  if (spec.delay_jitter.count() > 0) {
    decision.delay += std::chrono::microseconds{
        static_cast<std::int64_t>(rng_.below(static_cast<std::uint64_t>(spec.delay_jitter.count())))};
  }
  return decision;
}

std::optional<Message> FaultInjector::mangle(const Decision& decision,
                                             std::optional<Message> response) {
  if (decision.delay.count() > 0) {
    delays_->add();
    std::this_thread::sleep_for(decision.delay);
  }
  if (!response) return response;
  if (decision.corrupt) {
    // Flip 1-4 random bytes of the wire image, then re-parse exactly as
    // a receiver would: an unparseable datagram is a silent loss, a
    // parseable-but-damaged one (mismatched ID, mangled rdata) is
    // delivered so the resolver's validation gets exercised.
    corruptions_->add();
    std::vector<std::uint8_t> wire = response->encode();
    if (!wire.empty()) {
      util::Rng corrupt_rng{decision.corrupt_seed};
      const std::uint64_t flips = 1 + corrupt_rng.below(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        wire[corrupt_rng.below(wire.size())] ^=
            static_cast<std::uint8_t>(1 + corrupt_rng.below(255));
      }
      try {
        response = Message::decode(wire);
      } catch (const dns::WireError&) {
        return std::nullopt;
      }
    }
  }
  if (decision.truncate) {
    // Mirror the UDP front end's size discipline: sections dropped,
    // TC=1, the EDNS OPT pseudo-record retained (RFC 6891 §7).
    truncations_->add();
    response->answers.clear();
    response->authorities.clear();
    response->additionals.clear();
    response->header.truncated = true;
  }
  return response;
}

std::optional<Message> FaultInjector::try_forward(const Message& query,
                                                  const net::IpAddr& source) {
  FaultSpec spec;
  {
    const std::scoped_lock lock{mutex_};
    spec = default_spec_;
  }
  const Decision decision = draw(spec);
  if (decision.drop) {
    drops_->add();
    return std::nullopt;
  }
  if (decision.servfail) {
    servfails_->add();
    Message response = Message::make_response(query);
    response.header.rcode = dns::Rcode::serv_fail;
    return response;
  }
  forwards_->add();
  std::optional<Message> response = inner_->try_forward(query, source);
  if (decision.duplicate) {
    duplicates_->add();
    forwards_->add();
    (void)inner_->try_forward(query, source);  // second copy: handled, discarded
  }
  return mangle(decision, std::move(response));
}

Upstream::ForwardToResult FaultInjector::try_forward_to(const net::IpAddr& server,
                                                        const Message& query,
                                                        const net::IpAddr& source) {
  const Decision decision = draw(spec_for(server));
  if (decision.drop) {
    drops_->add();
    return ForwardToResult{std::nullopt, true};
  }
  if (decision.servfail) {
    servfails_->add();
    Message response = Message::make_response(query);
    response.header.rcode = dns::Rcode::serv_fail;
    return ForwardToResult{std::move(response), true};
  }
  forwards_->add();
  ForwardToResult result = inner_->try_forward_to(server, query, source);
  if (!result.addressable) return result;
  if (decision.duplicate) {
    duplicates_->add();
    forwards_->add();
    (void)inner_->try_forward_to(server, query, source);
  }
  result.response = mangle(decision, std::move(result.response));
  return result;
}

}  // namespace eum::dnsserver
