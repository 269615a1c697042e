#include "dns/edns.h"

#include <algorithm>

#include "util/strings.h"

namespace eum::dns {

namespace {

int family_bits(net::Family family) { return family == net::Family::v4 ? 32 : 128; }

net::IpAddr addr_from_octets(net::Family family, const std::array<std::uint8_t, 16>& octets) {
  if (family == net::Family::v4) {
    return net::IpV4Addr{octets[0], octets[1], octets[2], octets[3]};
  }
  return net::IpV6Addr{octets};
}

}  // namespace

ClientSubnetOption ClientSubnetOption::for_query(const net::IpAddr& client, int source_len) {
  if (source_len < 0 || source_len > client.bit_width()) {
    throw WireError{"ECS source prefix length out of range for family"};
  }
  ClientSubnetOption option;
  option.family_ = client.family();
  option.source_prefix_len_ = source_len;
  option.scope_prefix_len_ = 0;  // MUST be 0 in queries (RFC 7871 §6)
  const std::size_t count = option.octet_count();
  if (client.is_v4()) {
    const auto bytes = client.v4().bytes();
    std::copy_n(bytes.begin(), count, option.address_octets_.begin());
  } else {
    std::copy_n(client.v6().bytes().begin(), count, option.address_octets_.begin());
  }
  // Zero the padding bits of the final octet (RFC 7871 §6: MUST be 0).
  if (source_len % 8 != 0) {
    option.address_octets_[count - 1] &= static_cast<std::uint8_t>(0xFF << (8 - source_len % 8));
  }
  return option;
}

ClientSubnetOption ClientSubnetOption::with_scope(int scope_len) const {
  if (scope_len < 0 || scope_len > family_bits(family_)) {
    throw WireError{"ECS scope prefix length out of range for family"};
  }
  ClientSubnetOption echo = *this;
  echo.scope_prefix_len_ = scope_len;
  return echo;
}

net::IpPrefix ClientSubnetOption::source_block() const {
  return net::IpPrefix{address(), source_prefix_len_};
}

net::IpPrefix ClientSubnetOption::scope_block() const {
  return net::IpPrefix{address(), scope_prefix_len_};
}

net::IpAddr ClientSubnetOption::address() const {
  return addr_from_octets(family_, address_octets_);
}

void ClientSubnetOption::encode_data(ByteWriter& writer) const {
  writer.u16(static_cast<std::uint16_t>(family_));
  writer.u8(static_cast<std::uint8_t>(source_prefix_len_));
  writer.u8(static_cast<std::uint8_t>(scope_prefix_len_));
  writer.bytes(octets());
}

ClientSubnetOption ClientSubnetOption::decode_data(ByteReader& reader, std::uint16_t length) {
  if (length < 4) throw WireError{"ECS option shorter than fixed header"};
  ClientSubnetOption option;
  const std::uint16_t family_raw = reader.u16();
  if (family_raw != 1 && family_raw != 2) throw WireError{"ECS unknown address family"};
  option.family_ = static_cast<net::Family>(family_raw);
  option.source_prefix_len_ = reader.u8();
  option.scope_prefix_len_ = reader.u8();
  const int width = family_bits(option.family_);
  if (option.source_prefix_len_ > width || option.scope_prefix_len_ > width) {
    throw WireError{"ECS prefix length exceeds family width"};
  }
  const auto expected_octets = static_cast<std::size_t>((option.source_prefix_len_ + 7) / 8);
  if (length != 4 + expected_octets) {
    throw WireError{"ECS address field length does not match source prefix"};
  }
  const auto raw = reader.bytes(expected_octets);
  std::copy(raw.begin(), raw.end(), option.address_octets_.begin());
  if (option.source_prefix_len_ % 8 != 0) {
    const auto mask = static_cast<std::uint8_t>(0xFF << (8 - option.source_prefix_len_ % 8));
    if ((raw.back() & ~mask) != 0) {
      throw WireError{"ECS address has non-zero padding bits"};
    }
  }
  return option;
}

std::string ClientSubnetOption::to_string() const {
  return util::format("ECS{%s/%d scope /%d}", address().to_string().c_str(), source_prefix_len_,
                      scope_prefix_len_);
}

void EdnsRecord::set_client_subnet(const ClientSubnetOption& ecs) noexcept {
  if (!ecs_) ecs_position_ = options.size();
  ecs_ = ecs;
}

}  // namespace eum::dns
