// DNS messages (RFC 1035 §4) with EDNS0 integration.
//
// `Message` is the parsed form; `encode()` produces wire bytes with name
// compression, and `Message::decode()` parses untrusted wire bytes with
// full bounds/validity checking. The OPT pseudo-record is surfaced as
// `Message::edns` rather than as an additional-section record.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dns/edns.h"
#include "dns/name.h"
#include "dns/rdata.h"
#include "dns/types.h"
#include "dns/wire.h"

namespace eum::dns {

struct Header {
  std::uint16_t id = 0;
  bool is_response = false;          ///< QR
  Opcode opcode = Opcode::query;
  bool authoritative = false;        ///< AA
  bool truncated = false;            ///< TC
  bool recursion_desired = false;    ///< RD
  bool recursion_available = false;  ///< RA
  Rcode rcode = Rcode::no_error;

  friend bool operator==(const Header&, const Header&) noexcept = default;
};

struct Question {
  DnsName name;
  RecordType type = RecordType::A;
  RecordClass rclass = RecordClass::IN;

  friend bool operator==(const Question&, const Question&) noexcept = default;
};

struct ResourceRecord {
  DnsName name;
  RecordType type = RecordType::A;
  RecordClass rclass = RecordClass::IN;
  std::uint32_t ttl = 0;
  RData rdata = RawRecord{};

  friend bool operator==(const ResourceRecord&, const ResourceRecord&) noexcept = default;
};

class Message {
 public:
  Header header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;  ///< excluding the OPT record
  std::optional<EdnsRecord> edns;

  /// Convenience: a query for one (name, type) with optional ECS.
  [[nodiscard]] static Message make_query(std::uint16_t id, const DnsName& name, RecordType type,
                                          std::optional<ClientSubnetOption> ecs = std::nullopt);

  /// Convenience: start a response to `query` (copies id/question, sets QR;
  /// echoes EDNS presence with the same payload size).
  [[nodiscard]] static Message make_response(const Message& query);

  /// make_response() in place: containers keep their capacity.
  void start_response(const Message& query);

  /// Reset to a default message; containers keep their capacity.
  void clear() noexcept;

  /// All A/AAAA answer addresses, in answer order.
  [[nodiscard]] std::vector<net::IpAddr> answer_addresses() const;

  /// The ECS option carried in the EDNS record, if any.
  [[nodiscard]] const ClientSubnetOption* client_subnet() const noexcept {
    return edns ? edns->client_subnet() : nullptr;
  }

  /// Serialize to wire format with name compression.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// encode() into `out`, replacing its contents and keeping its capacity.
  void encode_into(std::vector<std::uint8_t>& out) const;

  /// Parse wire bytes. Throws WireError on malformed input.
  [[nodiscard]] static Message decode(std::span<const std::uint8_t> wire);

  /// decode() into `message`, reusing its containers' capacity. On a
  /// WireError `message` holds whatever was parsed before the fault.
  static void decode_into(std::span<const std::uint8_t> wire, Message& message);
};

}  // namespace eum::dns
