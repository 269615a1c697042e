#include "dnsserver/transport.h"

namespace eum::dnsserver {

using dns::DnsName;
using dns::Message;

void AuthorityDirectory::add_authority(DnsName suffix, AuthoritativeServer* server) {
  if (server == nullptr) {
    throw std::invalid_argument{"AuthorityDirectory::add_authority: null server"};
  }
  authorities_.emplace_back(std::move(suffix), server);
}

void AuthorityDirectory::add_server(const net::IpAddr& address, AuthoritativeServer* server) {
  if (server == nullptr) {
    throw std::invalid_argument{"AuthorityDirectory::add_server: null server"};
  }
  if (!address.is_v4()) {
    throw std::invalid_argument{"AuthorityDirectory::add_server: IPv4 addresses only"};
  }
  servers_by_address_[address.v4().value()] = server;
}

Upstream::ForwardToResult AuthorityDirectory::try_forward_to(const net::IpAddr& server,
                                                             const Message& query,
                                                             const net::IpAddr& source) {
  if (!server.is_v4()) return ForwardToResult{std::nullopt, false};
  const auto it = servers_by_address_.find(server.v4().value());
  if (it == servers_by_address_.end()) return ForwardToResult{std::nullopt, false};
  forwarded_.fetch_add(1, std::memory_order_relaxed);
  const Message parsed_query = Message::decode(query.encode());
  const Message response = it->second->handle(parsed_query, source, server);
  return ForwardToResult{Message::decode(response.encode()), true};
}

std::optional<Message> AuthorityDirectory::try_forward(const Message& query,
                                                       const net::IpAddr& source) {
  forwarded_.fetch_add(1, std::memory_order_relaxed);
  // Encode/decode both directions so all simulated traffic passes through
  // the real codec.
  const Message parsed_query = Message::decode(query.encode());

  AuthoritativeServer* target = nullptr;
  std::size_t best_labels = 0;
  if (!parsed_query.questions.empty()) {
    const DnsName& qname = parsed_query.questions.front().name;
    for (const auto& [suffix, server] : authorities_) {
      if (qname.is_subdomain_of(suffix) && (target == nullptr || suffix.label_count() > best_labels)) {
        target = server;
        best_labels = suffix.label_count();
      }
    }
  }
  if (target == nullptr) {
    Message response = Message::make_response(parsed_query);
    response.header.rcode = dns::Rcode::refused;
    return response;
  }
  const Message response = target->handle(parsed_query, source);
  return Message::decode(response.encode());
}

StubClient::StubClient(RecursiveResolver* ldns, net::IpAddr client_addr)
    : ldns_(ldns), client_addr_(client_addr) {
  if (ldns_ == nullptr) throw std::invalid_argument{"StubClient: null resolver"};
}

bool StubClient::matches(const Message& query, const Message& response) noexcept {
  return response.header.is_response && response.header.id == query.header.id &&
         response.questions == query.questions;
}

Message StubClient::query(const DnsName& name, dns::RecordType type) {
  // next_id_ wraps through 0 on its own: ID 0 is as legal as any other.
  const Message request = Message::make_query(next_id_++, name, type);
  const Message parsed = Message::decode(request.encode());
  const Message response = ldns_->resolve(parsed, client_addr_);
  Message decoded = Message::decode(response.encode());
  if (!matches(request, decoded)) {
    // Wrong ID or question echo: a crossed wire or spoofed answer.
    // Trusting it would poison the caller; fail the lookup instead.
    Message failure = Message::make_response(request);
    failure.header.rcode = dns::Rcode::serv_fail;
    return failure;
  }
  return decoded;
}

std::vector<net::IpAddr> StubClient::lookup(const DnsName& name, dns::RecordType type) {
  const Message response = query(name, type);
  if (response.header.rcode != dns::Rcode::no_error) return {};
  return response.answer_addresses();
}

}  // namespace eum::dnsserver
