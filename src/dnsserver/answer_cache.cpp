#include "dnsserver/answer_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace eum::dnsserver {

namespace {

constexpr std::uint16_t kOptType = 41;       // RFC 6891 OPT pseudo-RR
constexpr std::uint16_t kEcsOptionCode = 8;  // RFC 7871 edns-client-subnet

[[nodiscard]] std::uint16_t read_u16(std::span<const std::uint8_t> wire,
                                     std::size_t pos) noexcept {
  return static_cast<std::uint16_t>((wire[pos] << 8) | wire[pos + 1]);
}

/// Bytes needed for a prefix of `bits` bits.
[[nodiscard]] constexpr std::size_t prefix_bytes(unsigned bits) noexcept {
  return (static_cast<std::size_t>(bits) + 7) / 8;
}

/// Copy `address` truncated to `scope` bits into `out` (zeroing the bits
/// past the prefix in the last byte). Returns the byte count.
std::size_t truncate_to_scope(std::span<const std::uint8_t> address, unsigned scope,
                              std::span<std::uint8_t> out) noexcept {
  const std::size_t n = prefix_bytes(scope);
  for (std::size_t i = 0; i < n; ++i) out[i] = i < address.size() ? address[i] : 0;
  if (scope % 8 != 0 && n > 0) {
    out[n - 1] &= static_cast<std::uint8_t>(0xFF << (8 - scope % 8));
  }
  return n;
}

/// FNV-1a, seeded per key field so field boundaries cannot alias.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  }
  void mix_bytes(std::span<const std::uint8_t> bytes) noexcept {
    for (const std::uint8_t b : bytes) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
  }
};

/// The slot hash of a key. The map version is compared, not hashed: a
/// republish makes each key's next miss overwrite its own stale entry,
/// whose buffers already fit, so a warm cache stores without allocating.
std::uint64_t key_hash(const QueryProbe& probe, std::int16_t scope,
                       std::span<const std::uint8_t> scope_addr) noexcept {
  Fnv fnv;
  fnv.mix(static_cast<std::uint64_t>(probe.flags) << 32 |
          static_cast<std::uint64_t>(probe.qtype) << 16 | probe.qclass);
  fnv.mix(static_cast<std::uint64_t>(probe.has_edns) << 48 |
          static_cast<std::uint64_t>(probe.payload_limit()) << 32 | probe.opt_ttl);
  fnv.mix(static_cast<std::uint64_t>(probe.ecs_family) << 24 |
          static_cast<std::uint64_t>(probe.ecs_source_len) << 16 |
          static_cast<std::uint64_t>(static_cast<std::uint16_t>(scope)));
  fnv.mix_bytes(probe.qname);
  fnv.mix_bytes(scope_addr);
  return fnv.h;
}

/// Where the ECS echo lives in a response wire: the address offset (for
/// id-style patching) plus the announced scope.
struct ResponseEcs {
  bool has_option = false;       ///< response carries an ECS option at all
  std::uint32_t addr_offset = 0;
  std::uint8_t scope = 0;
  std::uint8_t source_len = 0;
  std::uint16_t family = 0;
};

/// Skip a (possibly compressed) owner name. Returns false on malform.
bool skip_name(std::span<const std::uint8_t> wire, std::size_t& pos) noexcept {
  while (true) {
    if (pos >= wire.size()) return false;
    const std::uint8_t len = wire[pos];
    if (len == 0) {
      ++pos;
      return true;
    }
    if ((len & 0xC0) == 0xC0) {  // compression pointer terminates the name
      pos += 2;
      return pos <= wire.size();
    }
    if ((len & 0xC0) != 0) return false;
    pos += 1 + len;
  }
}

/// Walk the response's resource records looking for the OPT record's ECS
/// option. nullopt = walk failed (malformed); has_option=false = walked
/// fine but no ECS echo present.
std::optional<ResponseEcs> find_response_ecs(std::span<const std::uint8_t> wire) noexcept {
  if (wire.size() < 12) return std::nullopt;
  const std::uint16_t qd = read_u16(wire, 4);
  const std::size_t rr_total = static_cast<std::size_t>(read_u16(wire, 6)) +
                               read_u16(wire, 8) + read_u16(wire, 10);
  std::size_t pos = 12;
  for (std::uint16_t q = 0; q < qd; ++q) {
    if (!skip_name(wire, pos)) return std::nullopt;
    pos += 4;  // qtype + qclass
    if (pos > wire.size()) return std::nullopt;
  }
  for (std::size_t r = 0; r < rr_total; ++r) {
    if (!skip_name(wire, pos)) return std::nullopt;
    if (pos + 10 > wire.size()) return std::nullopt;
    const std::uint16_t type = read_u16(wire, pos);
    const std::uint16_t rdlen = read_u16(wire, pos + 8);
    pos += 10;
    if (pos + rdlen > wire.size()) return std::nullopt;
    if (type != kOptType) {
      pos += rdlen;
      continue;
    }
    const std::size_t rdend = pos + rdlen;
    while (pos < rdend) {
      if (pos + 4 > rdend) return std::nullopt;
      const std::uint16_t code = read_u16(wire, pos);
      const std::uint16_t optlen = read_u16(wire, pos + 2);
      pos += 4;
      if (pos + optlen > rdend) return std::nullopt;
      if (code == kEcsOptionCode) {
        if (optlen < 4) return std::nullopt;
        ResponseEcs ecs;
        ecs.has_option = true;
        ecs.family = read_u16(wire, pos);
        ecs.source_len = wire[pos + 2];
        ecs.scope = wire[pos + 3];
        ecs.addr_offset = static_cast<std::uint32_t>(pos + 4);
        if (optlen != 4 + prefix_bytes(ecs.source_len)) return std::nullopt;
        return ecs;
      }
      pos += optlen;
    }
  }
  return ResponseEcs{};  // no ECS echo anywhere
}

}  // namespace

std::optional<QueryProbe> QueryProbe::parse(std::span<const std::uint8_t> wire) noexcept {
  QueryProbe probe;
  if (wire.size() < 12) return std::nullopt;
  probe.id = read_u16(wire, 0);
  probe.flags = read_u16(wire, 2);
  if ((probe.flags & 0x8000) != 0) return std::nullopt;  // QR=1: not a query
  const std::uint16_t qd = read_u16(wire, 4);
  const std::uint16_t an = read_u16(wire, 6);
  const std::uint16_t ns = read_u16(wire, 8);
  const std::uint16_t ar = read_u16(wire, 10);
  if (qd != 1 || an != 0 || ns != 0 || ar > 1) return std::nullopt;

  std::size_t pos = 12;
  const std::size_t qname_start = pos;
  while (true) {
    if (pos >= wire.size()) return std::nullopt;
    const std::uint8_t len = wire[pos];
    if (len == 0) {
      ++pos;
      break;
    }
    if ((len & 0xC0) != 0) return std::nullopt;  // compression/reserved bits
    pos += 1 + len;
    if (pos - qname_start > 255) return std::nullopt;
  }
  probe.qname = wire.subspan(qname_start, pos - qname_start);
  if (pos + 4 > wire.size()) return std::nullopt;
  probe.qtype = read_u16(wire, pos);
  probe.qclass = read_u16(wire, pos + 2);
  pos += 4;

  if (ar == 1) {
    // The single additional must be an OPT pseudo-RR: root owner, TYPE 41.
    if (pos + 11 > wire.size()) return std::nullopt;
    if (wire[pos] != 0 || read_u16(wire, pos + 1) != kOptType) return std::nullopt;
    probe.has_edns = true;
    probe.udp_payload = read_u16(wire, pos + 3);
    probe.opt_ttl = static_cast<std::uint32_t>(wire[pos + 5]) << 24 |
                    static_cast<std::uint32_t>(wire[pos + 6]) << 16 |
                    static_cast<std::uint32_t>(wire[pos + 7]) << 8 | wire[pos + 8];
    const std::uint16_t rdlen = read_u16(wire, pos + 9);
    pos += 11;
    if (pos + rdlen > wire.size()) return std::nullopt;
    const std::size_t rdend = pos + rdlen;
    while (pos < rdend) {
      if (pos + 4 > rdend) return std::nullopt;
      const std::uint16_t code = read_u16(wire, pos);
      const std::uint16_t optlen = read_u16(wire, pos + 2);
      pos += 4;
      if (pos + optlen > rdend) return std::nullopt;
      if (code == kEcsOptionCode) {
        if (probe.has_ecs) return std::nullopt;  // duplicate ECS
        if (optlen < 4) return std::nullopt;
        const std::uint16_t family = read_u16(wire, pos);
        const std::uint8_t source = wire[pos + 2];
        const std::uint8_t scope = wire[pos + 3];
        // Scope must be 0 in queries (RFC 7871 §7.1.2) — nonzero takes
        // the slow path so the engine's FORMERR answer is authoritative.
        if (scope != 0) return std::nullopt;
        if (family != 1 && family != 2) return std::nullopt;
        if (source > (family == 1 ? 32 : 128)) return std::nullopt;
        if (optlen != 4 + prefix_bytes(source)) return std::nullopt;
        probe.has_ecs = true;
        probe.ecs_family = static_cast<std::uint8_t>(family);
        probe.ecs_source_len = source;
        probe.ecs_address = wire.subspan(pos + 4, prefix_bytes(source));
      }
      pos += optlen;
    }
    if (pos != rdend) return std::nullopt;
  }
  if (pos != wire.size()) return std::nullopt;  // trailing bytes
  return probe;
}

AnswerCache::AnswerCache(const Config& config) : max_wire_(config.max_wire) {
  const std::size_t entries = std::bit_ceil(std::max<std::size_t>(config.entries, 1));
  slots_.resize(entries);
  mask_ = entries - 1;
}

const AnswerCache::Entry* AnswerCache::probe_slot(
    const QueryProbe& probe, std::uint64_t version, std::int16_t scope,
    std::span<const std::uint8_t> scope_addr) const noexcept {
  const std::uint64_t hash = key_hash(probe, scope, scope_addr);
  const Entry& entry = slots_[hash & mask_];
  if (!entry.used || entry.hash != hash) return nullptr;
  if (entry.version != version || entry.flags != probe.flags || entry.qtype != probe.qtype ||
      entry.qclass != probe.qclass || entry.has_edns != probe.has_edns ||
      entry.opt_ttl != probe.opt_ttl || entry.payload_limit != probe.payload_limit() ||
      entry.has_ecs != probe.has_ecs || entry.ecs_family != probe.ecs_family ||
      entry.ecs_source_len != probe.ecs_source_len || entry.scope_len != scope) {
    return nullptr;
  }
  if (entry.qname.size() != probe.qname.size() ||
      (!entry.qname.empty() &&
       std::memcmp(entry.qname.data(), probe.qname.data(), entry.qname.size()) != 0)) {
    return nullptr;
  }
  if (entry.scope_addr.size() != scope_addr.size() ||
      (!scope_addr.empty() &&
       std::memcmp(entry.scope_addr.data(), scope_addr.data(), scope_addr.size()) != 0)) {
    return nullptr;
  }
  return &entry;
}

const AnswerCache::Entry* AnswerCache::find(const QueryProbe& probe,
                                            std::uint64_t version) const noexcept {
  if (!probe.has_ecs) return probe_slot(probe, version, -1, {});
  std::array<std::uint8_t, 16> trunc{};
  // Longest announced scope first: the most specific cached answer wins,
  // matching what the engine would have computed for this client block.
  for (std::size_t i = 0; i < scope_count_; ++i) {
    const std::int16_t scope = scopes_[i];
    if (scope > probe.ecs_source_len) continue;
    const std::size_t n =
        truncate_to_scope(probe.ecs_address, static_cast<unsigned>(scope), trunc);
    if (const Entry* hit =
            probe_slot(probe, version, scope, std::span<const std::uint8_t>{trunc.data(), n})) {
      return hit;
    }
  }
  return nullptr;
}

void AnswerCache::render(const Entry& entry, const QueryProbe& probe,
                         std::vector<std::uint8_t>& out) const {
  out.assign(entry.wire.begin(), entry.wire.end());
  out[0] = static_cast<std::uint8_t>(probe.id >> 8);
  out[1] = static_cast<std::uint8_t>(probe.id & 0xFF);
  if (entry.ecs_addr_offset != 0) {
    // Echo this client's announced address (the key guarantees the same
    // family and source length, hence the same byte count).
    std::copy(probe.ecs_address.begin(), probe.ecs_address.end(),
              out.begin() + static_cast<std::ptrdiff_t>(entry.ecs_addr_offset));
  }
}

bool AnswerCache::note_scope(std::int16_t scope) noexcept {
  for (std::size_t i = 0; i < scope_count_; ++i) {
    if (scopes_[i] == scope) return true;
  }
  if (scope_count_ == kMaxScopes) return false;
  std::size_t at = scope_count_++;
  while (at > 0 && scopes_[at - 1] < scope) {  // keep descending order
    scopes_[at] = scopes_[at - 1];
    --at;
  }
  scopes_[at] = scope;
  return true;
}

void AnswerCache::store(const QueryProbe& probe, std::uint64_t version,
                        std::span<const std::uint8_t> response) {
  if (response.size() < 12 || response.size() > max_wire_) return;
  std::int16_t scope = -1;
  std::uint32_t addr_offset = 0;
  std::array<std::uint8_t, 16> trunc{};
  std::span<const std::uint8_t> scope_addr;
  if (probe.has_ecs) {
    const std::optional<ResponseEcs> echo = find_response_ecs(response);
    if (!echo) return;  // malformed walk: refuse to memoize what we can't key
    if (echo->has_option) {
      if (echo->family != probe.ecs_family || echo->source_len != probe.ecs_source_len) return;
      if (echo->scope > probe.ecs_source_len) return;
      scope = echo->scope;
      addr_offset = echo->addr_offset;
    } else {
      // No echo (FORMERR and friends): valid for every client block.
      scope = 0;
    }
    if (!note_scope(scope)) return;  // scope ladder full; skip, stay correct
    const std::size_t n =
        truncate_to_scope(probe.ecs_address, static_cast<unsigned>(scope), trunc);
    scope_addr = std::span<const std::uint8_t>{trunc.data(), n};
  }
  const std::uint64_t hash = key_hash(probe, scope, scope_addr);
  Entry& entry = slots_[hash & mask_];
  entry.used = true;
  entry.hash = hash;
  entry.version = version;
  entry.flags = probe.flags;
  entry.qtype = probe.qtype;
  entry.qclass = probe.qclass;
  entry.opt_ttl = probe.opt_ttl;
  entry.payload_limit = static_cast<std::uint16_t>(probe.payload_limit());
  entry.has_edns = probe.has_edns;
  entry.has_ecs = probe.has_ecs;
  entry.ecs_family = probe.ecs_family;
  entry.ecs_source_len = probe.ecs_source_len;
  entry.scope_len = scope;
  entry.ecs_addr_offset = addr_offset;
  entry.qname.assign(probe.qname.begin(), probe.qname.end());
  entry.scope_addr.assign(scope_addr.begin(), scope_addr.end());
  entry.wire.assign(response.begin(), response.end());
}

}  // namespace eum::dnsserver
