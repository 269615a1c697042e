// Wire-level answer cache for the UDP serve path.
//
// The paper's §5 (Fig. 23) shows end-user mapping multiplies the query
// rate an authoritative must absorb ~8x while ECS shreds resolver-side
// cacheability, so repeat queries dominate the hot path. This cache
// memoizes fully-encoded response datagrams keyed on
//
//     (query bytes after the 2-byte id, resolver address, map version)
//
// and on nothing else. A hit is a byte-identical query from the same
// resolver under the same map, so it gets the engine's answer by
// construction: the cache reads no question, EDNS or ECS field and
// trusts no scope the handler announced, and a hit copies the cached
// wire out with only the 2-byte id patched. The one serving input the
// key does not cover is the end-user roll-out gate, which reaches cached
// answers with the next publish (cdn::MappingSystem::set_end_user_gate).
//
// Invalidation is by construction, not by sweeping: the snapshot
// version is part of the key, and the serve path reads the mapping
// system's version cell (acquire) once per batch. A republish bumps the
// version, every old entry stops matching, and stale wires age out by
// overwrite. The mapping system publishes the snapshot pointer BEFORE the
// version (both release), so a worker that reads version V is guaranteed
// the mapping decisions already come from generation >= V — no answer
// computed from an old map can be stored under a new version.
//
// Threading: one AnswerCache per worker, touched only by its owning
// thread. No locks, no atomics, no sharing — which is also what keeps
// it inside the serve-path lock-free lint fence (scripts/
// lint_invariants.py). Memory bound: slots * 2 * max_wire per worker
// (the stored key and the stored wire are each capped at max_wire),
// allocated lazily per slot and reused on overwrite.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/ip.h"

namespace eum::dnsserver {

/// RFC 6891 §6.2.3: "Values lower than 512 MUST be treated as equal to
/// 512" — the floor for the UDP truncation limit whether or not the
/// query carried an OPT record (plain DNS is capped at 512 by RFC 1035).
inline constexpr std::size_t kMinUdpPayload = 512;

[[nodiscard]] constexpr std::size_t effective_udp_payload_limit(bool has_edns,
                                                                std::uint16_t advertised) noexcept {
  if (!has_edns) return kMinUdpPayload;
  return advertised < kMinUdpPayload ? kMinUdpPayload : std::size_t{advertised};
}

/// A zero-allocation look at a query datagram: its id, its cache key and
/// its question name, as spans into the caller's receive buffer (valid
/// only while that buffer is), plus the resolver that sent it. A
/// datagram too short for a header, or whose first question name is not
/// plain labels, returns nullopt and takes the slow path.
struct QueryProbe {
  std::uint16_t id = 0;
  std::span<const std::uint8_t> key;    ///< every byte after the id
  std::span<const std::uint8_t> qname;  ///< wire-form labels incl. root byte
  net::IpAddr resolver;                 ///< 0.0.0.0 when the caller names none

  [[nodiscard]] static std::optional<QueryProbe> parse(std::span<const std::uint8_t> wire,
                                                       const net::IpAddr& resolver = {}) noexcept;
};

/// Direct-mapped memoization table of encoded responses. Single-owner:
/// one instance per worker thread, no internal synchronization.
class AnswerCache {
 public:
  struct Config {
    /// Slot count, rounded up to a power of two. 0 is rounded to 1.
    std::size_t entries = 1024;
    /// Queries and responses larger than this are not cached (they are
    /// rare — truncated or jumbo — and would inflate the memory bound).
    std::size_t max_wire = 4096;
  };

  explicit AnswerCache(const Config& config);

  /// A stored answer; find() hands out pointers valid until the next store().
  struct Entry {
    std::uint64_t hash = 0;
    std::uint64_t version = 0;
    net::IpAddr resolver;
    std::vector<std::uint8_t> key;   ///< empty until the slot is first stored
    std::vector<std::uint8_t> wire;  ///< full encoded response
  };

  /// The entry stored for `probe`'s key under `version`, or nullptr.
  [[nodiscard]] const Entry* find(const QueryProbe& probe, std::uint64_t version) const noexcept;

  /// Render `entry` (from find()) into `out`: the cached wire with the
  /// probe's id patched in.
  void render(const Entry& entry, const QueryProbe& probe, std::vector<std::uint8_t>& out) const;

  /// Memoize `response` (the encoded, possibly truncated, wire about to
  /// be sent for `probe`). Overwrites the slot's previous occupant
  /// (direct-mapped), reusing its buffers.
  void store(const QueryProbe& probe, std::uint64_t version,
             std::span<const std::uint8_t> response);

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  std::size_t mask_;
  std::size_t max_wire_;
  std::vector<Entry> slots_;
};

}  // namespace eum::dnsserver
