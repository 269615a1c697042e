// EDNS0 (RFC 6891) and the Client Subnet option (RFC 7871).
//
// The client-subnet option is the enabler of end-user mapping (paper
// §2.1): the recursive resolver attaches a /x prefix of the client's IP
// to its upstream query; the authority answers for a /y scope with
// y <= x, and caches downstream are only allowed to reuse the answer for
// clients inside that scope block.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/wire.h"
#include "net/ip.h"
#include "net/prefix.h"

namespace eum::dns {

/// EDNS option codes (IANA registry).
enum class OptionCode : std::uint16_t {
  client_subnet = 8,  ///< RFC 7871
};

/// RFC 7871 EDNS Client Subnet (ECS) option.
///
/// In queries, `scope_prefix_len` MUST be 0. In responses, the authority
/// echoes family/address/source and sets `scope_prefix_len` to the
/// smallest prefix length its answer is valid for.
class ClientSubnetOption {
 public:
  ClientSubnetOption() = default;

  /// Build a query-side option announcing the client's /`source_len` block.
  /// The address is truncated (zero-padded) to the prefix length as the
  /// RFC requires for privacy.
  [[nodiscard]] static ClientSubnetOption for_query(const net::IpAddr& client, int source_len);

  /// Build the response-side echo with the authority's chosen scope.
  [[nodiscard]] ClientSubnetOption with_scope(int scope_len) const;

  [[nodiscard]] net::Family family() const noexcept { return family_; }
  [[nodiscard]] int source_prefix_len() const noexcept { return source_prefix_len_; }
  [[nodiscard]] int scope_prefix_len() const noexcept { return scope_prefix_len_; }

  /// The announced client block (address truncated to source_prefix_len).
  [[nodiscard]] net::IpPrefix source_block() const;

  /// The block the answer is valid for (address truncated to scope_prefix_len).
  [[nodiscard]] net::IpPrefix scope_block() const;

  /// The (zero-padded) address carried on the wire.
  [[nodiscard]] net::IpAddr address() const;

  /// Serialize option-data (the payload after OPTION-CODE/OPTION-LENGTH).
  void encode_data(ByteWriter& writer) const;

  /// Parse option-data of exactly `length` octets. Enforces RFC 7871
  /// validity: known family, prefix lengths within family bounds, address
  /// field exactly ceil(source/8) octets with trailing pad bits zero.
  [[nodiscard]] static ClientSubnetOption decode_data(ByteReader& reader, std::uint16_t length);

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const ClientSubnetOption&, const ClientSubnetOption&) noexcept = default;

 private:
  /// The address octets carried on the wire.
  [[nodiscard]] std::span<const std::uint8_t> octets() const noexcept {
    return {address_octets_.data(), octet_count()};
  }
  [[nodiscard]] std::size_t octet_count() const noexcept {
    return static_cast<std::size_t>((source_prefix_len_ + 7) / 8);
  }

  net::Family family_ = net::Family::v4;
  int source_prefix_len_ = 0;
  int scope_prefix_len_ = 0;
  /// ceil(source_prefix_len/8) address octets, zero-padded in the last
  /// octet; the rest stay zero.
  std::array<std::uint8_t, 16> address_octets_{};
};

/// An EDNS option kept as its raw payload.
struct EdnsOption {
  std::uint16_t code = 0;
  std::vector<std::uint8_t> raw;
};

/// The EDNS0 OPT pseudo-record contents (RFC 6891 §6.1).
///
/// The ECS option is held inline, decoded, so a query or response that
/// carries only ECS builds its OPT record without a heap allocation.
/// Every other option (and any ECS option after the first, validated on
/// decode) stays raw in `options`; `ecs_position` keeps the wire order.
struct EdnsRecord {
  std::uint16_t udp_payload_size = 4096;
  std::uint8_t extended_rcode = 0;
  std::uint8_t version = 0;
  bool dnssec_ok = false;
  std::vector<EdnsOption> options;  ///< every option but the ECS one, in wire order

  /// The ECS option, if present.
  [[nodiscard]] const ClientSubnetOption* client_subnet() const noexcept {
    return ecs_ ? &*ecs_ : nullptr;
  }
  /// Replace the ECS option, or append one after the other options.
  void set_client_subnet(const ClientSubnetOption& ecs) noexcept;
  /// Index into `options` the ECS option is written before (== size:
  /// after all of them).
  [[nodiscard]] std::size_t ecs_position() const noexcept { return ecs_position_; }

 private:
  std::optional<ClientSubnetOption> ecs_;
  std::size_t ecs_position_ = 0;
};

}  // namespace eum::dns
