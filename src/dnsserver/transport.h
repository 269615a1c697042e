// In-memory DNS transport.
//
// `AuthorityDirectory` wires recursive resolvers to authoritative servers
// inside one process. Every message still round-trips through the wire
// codec, so simulated traffic exercises exactly the bytes a network would
// carry (including EDNS0/ECS encoding) — only the socket is elided.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <functional>
#include <vector>

#include "dnsserver/authoritative.h"
#include "dnsserver/resolver.h"

namespace eum::dnsserver {

class AuthorityDirectory : public Upstream {
 public:
  AuthorityDirectory() = default;
  AuthorityDirectory(AuthorityDirectory&& other) noexcept
      : authorities_(std::move(other.authorities_)),
        servers_by_address_(std::move(other.servers_by_address_)),
        forwarded_(other.forwarded_.load(std::memory_order_relaxed)) {}

  /// Route queries for names at/below `suffix` to `server` (borrowed;
  /// must outlive the directory). Longest suffix wins.
  void add_authority(dns::DnsName suffix, AuthoritativeServer* server);

  /// Register a nameserver reachable at a specific unicast address, the
  /// target of delegation glue (borrowed; must outlive the directory).
  void add_server(const net::IpAddr& address, AuthoritativeServer* server);

  /// Total messages forwarded (both directions counted once). The
  /// counter is a relaxed atomic so concurrent resolvers can share one
  /// directory, mirroring the SO_REUSEPORT UDP front end.
  [[nodiscard]] std::uint64_t forwarded() const noexcept {
    return forwarded_.load(std::memory_order_relaxed);
  }

  /// Forward a query to the owning authority, round-tripping the wire
  /// encoding both ways. Never loses a query: REFUSED if no authority
  /// matches.
  [[nodiscard]] std::optional<dns::Message> try_forward(const dns::Message& query,
                                                        const net::IpAddr& source) override;

  /// Forward to a registered server address (delegation chasing); an
  /// unknown address is unaddressable.
  [[nodiscard]] ForwardToResult try_forward_to(const net::IpAddr& server,
                                               const dns::Message& query,
                                               const net::IpAddr& source) override;

 private:
  std::vector<std::pair<dns::DnsName, AuthoritativeServer*>> authorities_;
  std::unordered_map<std::uint32_t, AuthoritativeServer*> servers_by_address_;
  std::atomic<std::uint64_t> forwarded_{0};
};

/// Client-side stub resolver: what the paper calls "the client requests
/// its LDNS to resolve the domain name" (§2 step 1).
class StubClient {
 public:
  /// Both borrowed; must outlive the stub.
  StubClient(RecursiveResolver* ldns, net::IpAddr client_addr);

  /// Resolve and return all A/AAAA addresses (empty on failure).
  [[nodiscard]] std::vector<net::IpAddr> lookup(const dns::DnsName& name,
                                                dns::RecordType type = dns::RecordType::A);

  /// Full-message variant for callers that need TTLs/rcode. The response
  /// is validated against the query (ID echo + question echo, the
  /// classic anti-spoofing check); a mismatch is surfaced as SERVFAIL
  /// rather than trusted.
  [[nodiscard]] dns::Message query(const dns::DnsName& name,
                                   dns::RecordType type = dns::RecordType::A);

  /// Whether `response` is an acceptable answer to `query`: QR set, the
  /// 16-bit ID echoed, and the question section echoed verbatim.
  [[nodiscard]] static bool matches(const dns::Message& query,
                                    const dns::Message& response) noexcept;

  /// Pin the next query ID (testing aid: ID 0 is legal and the uint16
  /// counter wraps through it, so wrap behaviour must stay symmetric).
  void set_next_id(std::uint16_t id) noexcept { next_id_ = id; }

  [[nodiscard]] const net::IpAddr& address() const noexcept { return client_addr_; }

 private:
  RecursiveResolver* ldns_;
  net::IpAddr client_addr_;
  std::uint16_t next_id_ = 1;
};

}  // namespace eum::dnsserver
