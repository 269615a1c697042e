#include "dnsserver/scoped_cache.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace eum::dnsserver {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  return std::bit_ceil(std::max<std::size_t>(n, 1));
}

}  // namespace

ScopedEcsCache::ScopedEcsCache(ScopedCacheConfig config)
    : owned_registry_(config.registry == nullptr ? std::make_unique<obs::MetricsRegistry>()
                                                 : nullptr),
      registry_(config.registry != nullptr ? config.registry : owned_registry_.get()),
      shard_count_(round_up_pow2(config.shards)),
      shard_mask_(shard_count_ - 1),
      per_shard_capacity_(std::max<std::size_t>(1, config.max_entries / shard_count_)),
      stale_window_(config.stale_window),
      shards_(std::make_unique<Shard[]>(shard_count_)) {
  if (config.max_entries == 0) {
    throw std::invalid_argument{"ScopedEcsCache: max_entries must be positive"};
  }
  if (stale_window_ < 0) {
    throw std::invalid_argument{"ScopedEcsCache: stale_window must be non-negative"};
  }
  for (std::size_t i = 0; i < shard_count_; ++i) {
    const obs::Labels labels{{"shard", std::to_string(i)}};
    ShardMetrics& m = shards_[i].metrics;
    m.hits = &registry_->counter("eum_cache_hits_total", "scoped-cache hits", labels);
    m.misses = &registry_->counter("eum_cache_misses_total", "scoped-cache misses", labels);
    m.insertions = &registry_->counter("eum_cache_insertions_total", "entries inserted", labels);
    m.replacements =
        &registry_->counter("eum_cache_replacements_total", "same-scope refreshes", labels);
    m.evictions =
        &registry_->counter("eum_cache_evictions_total", "LRU pressure evictions", labels);
    m.expirations =
        &registry_->counter("eum_cache_expirations_total", "TTL-expired entries reaped", labels);
    m.scoped_hits =
        &registry_->counter("eum_cache_scoped_hits_total", "hits on non-global entries", labels);
    m.scope_depth_total = &registry_->counter("eum_cache_scope_depth_bits_total",
                                              "sum of matched scope lengths", labels);
    m.entries_gauge = &registry_->gauge("eum_cache_entries", "live cached entries", labels);
  }
}

ScopedEcsCache::Shard& ScopedEcsCache::shard_for(const Key& key) const noexcept {
  // Re-mix the key hash so shard choice and bucket choice use
  // independent bits.
  return shards_[util::mix64(KeyHash{}(key)) & shard_mask_];
}

void ScopedEcsCache::unlink(Shard& shard, NodeList::iterator node) {
  const auto it = shard.index.find(node->key);
  auto& slots = it->second;
  slots.erase(std::find(slots.begin(), slots.end(), node));
  if (slots.empty()) shard.index.erase(it);  // reap the key, not just the slot
  shard.lru.erase(node);
  --shard.entries;
  shard.metrics.entries_gauge->add(-1);
}

std::optional<ScopedEcsCache::Entry> ScopedEcsCache::lookup(const Key& key,
                                                            const net::IpAddr& client,
                                                            util::SimTime now) {
  Shard& shard = shard_for(key);
  const std::scoped_lock lock{shard.mutex};
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    shard.metrics.misses->add();
    return std::nullopt;
  }
  // Reap expired entries under this key in passing, then pick the
  // longest matching scope among the survivors. A global entry (no
  // scope) matches every client with specificity -1, so any scoped
  // match beats it. With a stale window, expired entries are kept for
  // lookup_stale() until `expires + stale_window` but never returned
  // from a regular lookup.
  auto& slots = it->second;
  NodeList::iterator best = shard.lru.end();
  int best_depth = -2;
  for (std::size_t i = 0; i < slots.size();) {
    const NodeList::iterator node = slots[i];
    if (node->entry.expires + stale_window_ <= now) {
      shard.metrics.expirations->add();
      shard.lru.erase(node);
      slots[i] = slots.back();
      slots.pop_back();
      --shard.entries;
      shard.metrics.entries_gauge->add(-1);
      continue;
    }
    if (node->entry.expires <= now) {
      ++i;  // stale: retained for lookup_stale(), invisible here
      continue;
    }
    const auto& scope = node->entry.scope;
    const int depth = scope ? scope->length() : -1;
    if ((!scope || scope->contains(client)) && depth > best_depth) {
      best = node;
      best_depth = depth;
    }
    ++i;
  }
  if (slots.empty()) shard.index.erase(it);
  if (best == shard.lru.end()) {
    shard.metrics.misses->add();
    return std::nullopt;
  }
  shard.metrics.hits->add();
  if (best_depth >= 0) {
    shard.metrics.scoped_hits->add();
    shard.metrics.scope_depth_total->add(static_cast<std::uint64_t>(best_depth));
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, best);  // promote
  return best->entry;
}

std::optional<ScopedEcsCache::Entry> ScopedEcsCache::lookup_stale(const Key& key,
                                                                  const net::IpAddr& client,
                                                                  util::SimTime now) {
  if (stale_window_ == 0) return std::nullopt;
  Shard& shard = shard_for(key);
  const std::scoped_lock lock{shard.mutex};
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  // Longest matching scope among everything still inside the stale
  // window. A fresh entry stored by a racing thread between the caller's
  // failed lookup and now is equally acceptable — take it.
  NodeList::iterator best = shard.lru.end();
  int best_depth = -2;
  for (const NodeList::iterator node : it->second) {
    if (node->entry.expires + stale_window_ <= now) continue;  // next lookup reaps it
    const auto& scope = node->entry.scope;
    const int depth = scope ? scope->length() : -1;
    if ((!scope || scope->contains(client)) && depth > best_depth) {
      best = node;
      best_depth = depth;
    }
  }
  if (best == shard.lru.end()) return std::nullopt;
  shard.lru.splice(shard.lru.begin(), shard.lru, best);  // promote: still useful
  return best->entry;
}

void ScopedEcsCache::store(const Key& key, Entry entry) {
  Shard& shard = shard_for(key);
  const std::scoped_lock lock{shard.mutex};
  if (auto it = shard.index.find(key); it != shard.index.end()) {
    // Refresh in place when an entry with the identical scope exists.
    for (const NodeList::iterator node : it->second) {
      if (node->entry.scope == entry.scope) {
        node->entry = std::move(entry);
        shard.lru.splice(shard.lru.begin(), shard.lru, node);
        shard.metrics.replacements->add();
        return;
      }
    }
  }
  // Evict coldest entries until the new one fits; the LRU back is the
  // least recently touched node across every key in the shard.
  while (shard.entries >= per_shard_capacity_ && !shard.lru.empty()) {
    const auto victim = std::prev(shard.lru.end());
    const bool expired = victim->entry.expires <= entry.inserted;
    unlink(shard, victim);
    (expired ? shard.metrics.expirations : shard.metrics.evictions)->add();
  }
  shard.lru.push_front(Node{key, std::move(entry)});
  shard.index[key].push_back(shard.lru.begin());
  ++shard.entries;
  shard.metrics.entries_gauge->add(1);
  shard.metrics.insertions->add();
}

std::size_t ScopedEcsCache::size() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    const std::scoped_lock lock{shards_[i].mutex};
    total += shards_[i].entries;
  }
  return total;
}

std::size_t ScopedEcsCache::key_count() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    const std::scoped_lock lock{shards_[i].mutex};
    total += shards_[i].index.size();
  }
  return total;
}

void ScopedEcsCache::clear() {
  for (std::size_t i = 0; i < shard_count_; ++i) {
    const std::scoped_lock lock{shards_[i].mutex};
    shards_[i].lru.clear();
    shards_[i].index.clear();
    shards_[i].entries = 0;
    shards_[i].metrics.entries_gauge->set(0);
  }
}

}  // namespace eum::dnsserver
