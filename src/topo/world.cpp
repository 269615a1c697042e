#include "topo/world.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "util/hash.h"

namespace eum::topo {

namespace {

constexpr std::uint32_t kNoId = std::numeric_limits<std::uint32_t>::max();

std::uint64_t address_hash(const net::IpAddr& addr) noexcept {
  if (addr.is_v4()) return util::mix64(addr.v4().value());
  std::uint64_t high = 0;
  std::uint64_t low = 0;
  std::memcpy(&high, addr.v6().bytes().data(), 8);
  std::memcpy(&low, addr.v6().bytes().data() + 8, 8);
  return util::hash_combine(util::mix64(high), low);
}

std::uint64_t prefix_hash(const net::IpPrefix& prefix) noexcept {
  return util::hash_combine(address_hash(prefix.address()),
                            static_cast<std::uint64_t>(prefix.length()));
}

/// Walk the probe sequence of a key whose hash is `hash` and return the
/// first id `matches(id)` accepts, or kNoId at an empty slot.
template <typename Matches>
std::uint32_t find_id(const std::vector<std::uint32_t>& slots, std::uint64_t hash,
                      Matches matches) {
  if (slots.empty()) return kNoId;
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = hash & mask; slots[i] != kNoId; i = (i + 1) & mask) {
    if (matches(slots[i])) return slots[i];
  }
  return kNoId;
}

/// Slots for ids [0, count): `hash_of(id)` hashes element id's key and
/// `same_key(a, b)` compares two elements' keys. A repeated key keeps its
/// lowest id, as a linear scan would find it.
template <typename HashOf, typename SameKey>
std::vector<std::uint32_t> build_slots(std::size_t count, HashOf hash_of, SameKey same_key) {
  if (count >= kNoId) throw std::length_error{"World index: too many keys"};
  std::size_t capacity = 1;
  while (capacity < 2 * count) capacity <<= 1;
  std::vector<std::uint32_t> slots(capacity, kNoId);
  for (std::uint32_t id = 0; id < count; ++id) {
    const std::size_t mask = capacity - 1;
    std::size_t i = hash_of(id) & mask;
    while (slots[i] != kNoId && !same_key(slots[i], id)) i = (i + 1) & mask;
    if (slots[i] == kNoId) slots[i] = id;
  }
  return slots;
}

}  // namespace

double World::total_demand() const {
  double total = 0.0;
  for (const ClientBlock& block : blocks) total += block.demand;
  return total;
}

const Ldns& World::primary_ldns(const ClientBlock& block) const {
  const std::span<const LdnsUse> uses = ldns_uses(block);
  if (uses.empty()) throw std::logic_error{"block has no LDNS association"};
  const auto it = std::max_element(
      uses.begin(), uses.end(),
      [](const LdnsUse& a, const LdnsUse& b) { return a.fraction < b.fraction; });
  return ldnses.at(it->ldns);
}

double World::public_resolver_demand() const {
  double total = 0.0;
  for (const ClientBlock& block : blocks) {
    for (const LdnsUse& use : ldns_uses(block)) {
      if (ldnses.at(use.ldns).type == LdnsType::public_site) {
        total += block.demand * use.fraction;
      }
    }
  }
  return total;
}

void World::assign_ldns_uses(BlockId block, std::span<const LdnsUse> uses) {
  const std::size_t assigned = ldns_use_offsets_.size() - 1;
  if (static_cast<std::size_t>(block) < assigned) {
    throw std::logic_error{"assign_ldns_uses: blocks must be assigned in id order"};
  }
  if (ldns_use_data_.size() + uses.size() >
      static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max())) {
    throw std::length_error{"assign_ldns_uses: association table exceeds 2^32 entries"};
  }
  // Skipped ids get the old end offset (an empty span); the sentinel then
  // moves to the new end.
  ldns_use_offsets_.resize(static_cast<std::size_t>(block) + 2,
                           static_cast<std::uint32_t>(ldns_use_data_.size()));
  ldns_use_data_.insert(ldns_use_data_.end(), uses.begin(), uses.end());
  ldns_use_offsets_.back() = static_cast<std::uint32_t>(ldns_use_data_.size());
}

void World::reserve_ldns_uses(std::size_t block_count, std::size_t use_count) {
  ldns_use_offsets_.reserve(block_count + 1);
  ldns_use_data_.reserve(use_count);
}

const ClientBlock* World::block_by_prefix(const net::IpPrefix& prefix) const {
  const std::uint32_t id = find_id(block_slots_, prefix_hash(prefix),
                                   [&](std::uint32_t b) { return blocks[b].prefix == prefix; });
  return id == kNoId ? nullptr : &blocks[id];
}

const Ldns* World::ldns_by_address(const net::IpAddr& addr) const {
  const std::uint32_t id = find_id(ldns_slots_, address_hash(addr),
                                   [&](std::uint32_t l) { return ldnses[l].address == addr; });
  return id == kNoId ? nullptr : &ldnses[id];
}

void World::build_indexes() {
  block_slots_ = build_slots(
      blocks.size(), [this](std::uint32_t b) { return prefix_hash(blocks[b].prefix); },
      [this](std::uint32_t a, std::uint32_t b) { return blocks[a].prefix == blocks[b].prefix; });
  ldns_slots_ = build_slots(
      ldnses.size(), [this](std::uint32_t l) { return address_hash(ldnses[l].address); },
      [this](std::uint32_t a, std::uint32_t b) { return ldnses[a].address == ldnses[b].address; });
}

}  // namespace eum::topo
