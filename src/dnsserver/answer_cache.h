// Wire-level answer cache for the UDP serve path.
//
// The paper's §5 (Fig. 23) shows end-user mapping multiplies the query
// rate an authoritative must absorb ~8x while ECS shreds resolver-side
// cacheability, so repeat queries dominate the hot path. This cache
// memoizes fully-encoded response datagrams keyed on
//
//     (qname, qtype/qclass, EDNS presence + clamped payload limit,
//      ECS scope-prefix of the client address, map-snapshot version)
//
// so a repeat query skips decode, zone lookup, mapping, and encode
// entirely: the cached wire bytes are copied out with only the 2-byte
// DNS id and the echoed ECS address patched in. Scope-prefix keying is
// the RFC 7871 §7.3.1 contract — an answer announced for scope /s is
// valid for every client block inside that /s — so clients in the same
// scope hit one entry and clients in different scopes miss to distinct
// entries.
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
// lint_invariants.py). Memory bound: slots * (key bytes + max_wire)
// per worker, all preallocated lazily per slot and reused on overwrite.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

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

/// A zero-allocation parse of a query datagram: just enough structure to
/// key the answer cache, with spans pointing into the caller's receive
/// buffer (valid only while that buffer is). Anything irregular —
/// compression in the qname, multiple questions, unknown counts, a
/// non-OPT additional, a malformed or non-zero-scope ECS option,
/// trailing bytes — returns nullopt and the query takes the full
/// decode/handle slow path, so the cache can never mask an error answer
/// the engine would have produced.
struct QueryProbe {
  std::uint16_t id = 0;
  std::uint16_t flags = 0;  ///< raw header flags word (opcode, RD, ...)
  std::span<const std::uint8_t> qname;  ///< wire-form labels incl. root byte
  std::uint16_t qtype = 0;
  std::uint16_t qclass = 0;
  bool has_edns = false;
  std::uint16_t udp_payload = 0;     ///< advertised, unclamped
  std::uint32_t opt_ttl = 0;         ///< raw OPT TTL (extended rcode/flags)
  bool has_ecs = false;
  std::uint8_t ecs_family = 0;       ///< 1 = IPv4, 2 = IPv6
  std::uint8_t ecs_source_len = 0;
  std::span<const std::uint8_t> ecs_address;  ///< ceil(source_len/8) bytes

  [[nodiscard]] std::size_t payload_limit() const noexcept {
    return effective_udp_payload_limit(has_edns, udp_payload);
  }

  /// Parse `wire` as a cacheable query; nullopt means "slow path".
  [[nodiscard]] static std::optional<QueryProbe> parse(
      std::span<const std::uint8_t> wire) noexcept;
};

/// Direct-mapped memoization table of encoded responses. Single-owner:
/// one instance per worker thread, no internal synchronization.
class AnswerCache {
 public:
  struct Config {
    /// Slot count, rounded up to a power of two. 0 is rounded to 1.
    std::size_t entries = 1024;
    /// Responses larger than this are not cached (they are rare —
    /// truncated or jumbo — and would inflate the memory bound).
    std::size_t max_wire = 4096;
  };

  explicit AnswerCache(const Config& config);

  /// Opaque handle to a matching entry, valid until the next store().
  struct Entry;

  /// Look up a cached response for `probe` under `version`. For ECS
  /// queries this probes each announced scope length (longest first), so
  /// one cached /16-scoped answer serves every client block inside the
  /// /16. Returns nullptr on miss.
  [[nodiscard]] const Entry* find(const QueryProbe& probe, std::uint64_t version) const noexcept;

  /// Render `entry` (from find()) into `out`: the cached wire with the
  /// probe's id and announced ECS address patched in.
  void render(const Entry& entry, const QueryProbe& probe, std::vector<std::uint8_t>& out) const;

  /// Memoize `response` (the encoded, possibly truncated, wire about to
  /// be sent for `probe`). The echoed ECS scope and the in-wire address
  /// offset are recovered from the response itself; a response whose ECS
  /// echo cannot be located is simply not cached. Overwrites the slot's
  /// previous occupant (direct-mapped), reusing its buffers.
  void store(const QueryProbe& probe, std::uint64_t version,
             std::span<const std::uint8_t> response);

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  struct Entry {
    bool used = false;
    std::uint64_t hash = 0;
    std::uint64_t version = 0;
    std::uint16_t flags = 0;
    std::uint16_t qtype = 0;
    std::uint16_t qclass = 0;
    std::uint32_t opt_ttl = 0;
    std::uint16_t payload_limit = 0;  ///< clamped; fits: kMaxDatagram < 2^16
    bool has_edns = false;
    bool has_ecs = false;
    std::uint8_t ecs_family = 0;
    std::uint8_t ecs_source_len = 0;
    /// Scope the cached answer was announced for; -1 = query had no ECS.
    std::int16_t scope_len = -1;
    /// Offset of the echoed ECS address inside `wire`; 0 = nothing to
    /// patch (offset 0 can never hold an option, it is the id field).
    std::uint32_t ecs_addr_offset = 0;
    std::vector<std::uint8_t> qname;
    std::vector<std::uint8_t> scope_addr;  ///< client address truncated to scope_len
    std::vector<std::uint8_t> wire;        ///< full encoded response
  };

 private:
  static constexpr std::size_t kMaxScopes = 8;

  [[nodiscard]] const Entry* probe_slot(const QueryProbe& probe, std::uint64_t version,
                                        std::int16_t scope,
                                        std::span<const std::uint8_t> scope_addr) const noexcept;
  /// Track a scope length seen in stored answers (descending order).
  /// Returns false when the ladder is full of other scopes — the entry
  /// is then not cached rather than silently unreachable.
  bool note_scope(std::int16_t scope) noexcept;

  std::size_t mask_;
  std::size_t max_wire_;
  std::vector<Entry> slots_;
  /// Distinct ECS scope lengths present in the table, longest first —
  /// the lookup ladder. Bounded; real deployments announce one or two.
  std::array<std::int16_t, kMaxScopes> scopes_{};
  std::size_t scope_count_ = 0;
};

}  // namespace eum::dnsserver
