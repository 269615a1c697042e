#include "dnsserver/answer_cache.h"

#include <algorithm>
#include <bit>
#include <string_view>

#include "util/hash.h"

namespace eum::dnsserver {

namespace {

constexpr std::size_t kHeaderSize = 12;  // RFC 1035 §4.1.1

[[nodiscard]] std::string_view as_chars(std::span<const std::uint8_t> bytes) noexcept {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// The slot hash of a key. The map version is compared, not hashed: a
/// republish makes each key's next miss overwrite its own stale entry,
/// whose buffers already fit, so a warm cache stores without allocating.
/// The bytes' FNV-1a goes through hash_combine's mixer, because the slot
/// index takes the low bits, where FNV-1a mixes least.
[[nodiscard]] std::uint64_t key_hash(const QueryProbe& probe) noexcept {
  const net::IpAddr& resolver = probe.resolver;
  return util::hash_combine(resolver.is_v4() ? resolver.v4().value()
                                             : util::fnv1a64(as_chars(resolver.v6().bytes())),
                            util::fnv1a64(as_chars(probe.key)));
}

}  // namespace

std::optional<QueryProbe> QueryProbe::parse(std::span<const std::uint8_t> wire,
                                            const net::IpAddr& resolver) noexcept {
  if (wire.size() < kHeaderSize || (wire[4] | wire[5]) == 0) return std::nullopt;  // no question
  std::size_t pos = kHeaderSize;
  while (pos < wire.size() && wire[pos] != 0) {
    if ((wire[pos] & 0xC0) != 0) return std::nullopt;  // compression/reserved label type
    pos += 1 + wire[pos];
  }
  if (pos >= wire.size()) return std::nullopt;  // the name runs off the datagram
  QueryProbe probe;
  probe.id = static_cast<std::uint16_t>((wire[0] << 8) | wire[1]);
  probe.key = wire.subspan(2);
  probe.qname = wire.subspan(kHeaderSize, pos + 1 - kHeaderSize);
  probe.resolver = resolver;
  return probe;
}

AnswerCache::AnswerCache(const Config& config) : max_wire_(config.max_wire) {
  const std::size_t entries = std::bit_ceil(std::max<std::size_t>(config.entries, 1));
  slots_.resize(entries);
  mask_ = entries - 1;
}

const AnswerCache::Entry* AnswerCache::find(const QueryProbe& probe,
                                            std::uint64_t version) const noexcept {
  const std::uint64_t hash = key_hash(probe);
  const Entry& entry = slots_[hash & mask_];
  if (entry.hash != hash || entry.version != version || entry.resolver != probe.resolver ||
      !std::ranges::equal(entry.key, probe.key)) {
    return nullptr;
  }
  return &entry;
}

void AnswerCache::render(const Entry& entry, const QueryProbe& probe,
                         std::vector<std::uint8_t>& out) const {
  out.assign(entry.wire.begin(), entry.wire.end());
  out[0] = static_cast<std::uint8_t>(probe.id >> 8);
  out[1] = static_cast<std::uint8_t>(probe.id & 0xFF);
}

void AnswerCache::store(const QueryProbe& probe, std::uint64_t version,
                        std::span<const std::uint8_t> response) {
  if (response.size() < kHeaderSize || response.size() > max_wire_ ||
      probe.key.size() > max_wire_) {
    return;
  }
  const std::uint64_t hash = key_hash(probe);
  Entry& entry = slots_[hash & mask_];
  entry.hash = hash;
  entry.version = version;
  entry.resolver = probe.resolver;
  entry.key.assign(probe.key.begin(), probe.key.end());
  entry.wire.assign(response.begin(), response.end());
}

}  // namespace eum::dnsserver
