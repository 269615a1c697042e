// Per-query flight recorder: the serve path's one per-query record.
//
// The paper's staged rollout (§4) needed operators to answer "what
// happened to THIS query" — which resolver asked, for which client
// block, and what it got back; aggregates (metrics.h) can't. This module
// is the per-query layer: every query gets a preallocated per-worker
// scratch record (QueryTracer) that the serve path fills with the
// answer fields (client, ECS source prefix, qtype, answer source, rcode)
// and with spans — rx, answer-cache probe, mapping decision,
// authoritative handle, resolver attempts, tx — and a finish() decision
// commits it into a global bounded ring (FlightRecorder) when the query
// was sampled OR anomalous. Anomalies (latency above a rolling
// p99-derived threshold, SERVFAIL, stale-served, worker exception, send
// error) are always retained, even when sampling would have dropped the
// query: they land in their own ring, so a flood of healthy traffic can
// never evict the one trace the operator needs.
//
// Serve-path discipline (enforced by scripts/lint_invariants.py, which
// fences this file): the per-query cost is wait-free and allocation-free
// — QueryTracer is single-owner scratch (plain stores of fixed-size,
// trivially copyable values; two steady_clock reads per query), and
// FlightRecorder's rings are bounded MPMC queues in the Vyukov style
// (per-cell sequence numbers, explicit memory orders, no locks
// anywhere). Addresses, prefixes and codes stay values until
// FlightRecorder::to_ndjson renders them, off the serve path. The wall
// clock is read once per kept record, in FlightRecorder::commit, so
// unsampled healthy queries never touch it.
//
// Deep layers (the authoritative engine, the mapping handler, the
// resolver) add spans and answer fields through a thread-local current
// tracer installed by the UDP worker (TracerScope), so no function
// signature on the serve path had to change to thread the trace through.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "dns/types.h"
#include "lockfree/atomics_policy.h"
#include "lockfree/mpmc_ring.h"
#include "net/ip.h"
#include "net/prefix.h"

namespace eum::dns {
class Message;
}  // namespace eum::dns

namespace eum::obs {

/// Where the answer came from — the paper's serving-path taxonomy
/// (static zone, mapping-system dynamic answer, two-tier referral) plus
/// the resolver-side cache outcomes RFC 7871 adds.
enum class AnswerSource : std::uint8_t {
  none,              ///< no answering layer ran (undecodable, wire answer-cache hit)
  static_answer,     ///< authoritative zone data
  dynamic_answer,    ///< mapping-system (CDN) answer
  referral,          ///< two-tier delegation
  negative,          ///< NXDOMAIN / NODATA
  refused,           ///< not our zone
  form_error,        ///< malformed query
  cache_hit,         ///< resolver: served by a global (scope-/0) entry
  cache_hit_scoped,  ///< resolver: served by a scoped (RFC 7871) entry
  upstream,          ///< resolver: forwarded to an authority
  stale,             ///< resolver: RFC 8767 stale answer, upstream failed
};

[[nodiscard]] const char* to_string(AnswerSource source) noexcept;

/// Where on the serve path a span was recorded.
enum class TraceStage : std::uint8_t {
  rx,                ///< datagram received (value = wire size)
  cache_probe,       ///< answer-cache lookup (code: 1 hit, 0 miss, -1 unprobeable)
  map_decision,      ///< snapshot map() (code: 1 = client-block path, value = cluster)
  handle,            ///< authoritative handle (code = rcode, detail = answer source)
  resolver_attempt,  ///< one upstream attempt (code = attempt #, value = latency us)
  tx,                ///< response staged / send outcome (value = wire size)
};

[[nodiscard]] const char* to_string(TraceStage stage) noexcept;

/// Anomaly bitmask: any set bit forces retention regardless of sampling.
struct TraceAnomaly {
  static constexpr std::uint32_t kSlow = 1U << 0;       ///< latency above threshold
  static constexpr std::uint32_t kServfail = 1U << 1;   ///< response rcode SERVFAIL
  static constexpr std::uint32_t kStale = 1U << 2;      ///< RFC 8767 stale served
  static constexpr std::uint32_t kException = 1U << 3;  ///< worker barrier absorbed a throw
  static constexpr std::uint32_t kSendError = 1U << 4;  ///< kernel refused the response
};

/// Render a mask as "slow|servfail"; empty mask renders as "".
[[nodiscard]] std::string anomaly_names(std::uint32_t mask);

/// One fixed-size span. POD on purpose: recording is plain stores into
/// the worker's scratch, committing is a memcpy into the ring.
struct TraceSpan {
  static constexpr std::size_t kDetailSize = 40;

  TraceStage stage = TraceStage::rx;
  std::int32_t code = 0;      ///< stage-specific (rcode, hit/miss, attempt #)
  std::int64_t value = 0;     ///< stage-specific (bytes, cluster id, latency us)
  std::uint32_t elapsed_us = 0;  ///< since begin(); stamped only when sampled
  char detail[kDetailSize] = {};  ///< short NUL-terminated label

  /// Truncating copy into `detail`.
  void set_detail(std::string_view text) noexcept;
};

/// One committed query trace. Fixed-size so ring cells need no heap.
struct TraceRecord {
  static constexpr std::size_t kMaxSpans = 12;
  static constexpr std::size_t kQnameSize = 64;

  std::uint64_t seq = 0;        ///< global commit sequence (drain orders by this)
  std::int64_t ts_us = 0;       ///< wall clock at commit (us since epoch)
  std::uint32_t worker = 0;
  std::uint32_t latency_us = 0;
  std::uint32_t anomalies = 0;  ///< TraceAnomaly mask
  std::uint8_t sampled = 0;     ///< 1 when the sampler picked this query
  std::uint8_t span_count = 0;
  net::IpAddr client;           ///< unicast source address; 0.0.0.0 = unknown
  char qname[kQnameSize] = {};  ///< dotted text, NUL-terminated ("" = unknown)
  // Answer fields, set by the answering layer (QueryTracer::set_answer).
  // With source == none no layer answered and the other three are unset.
  std::optional<net::IpPrefix> ecs;  ///< the query's ECS source prefix, if any
  dns::RecordType qtype{};
  AnswerSource source = AnswerSource::none;
  dns::Rcode rcode = dns::Rcode::no_error;
  TraceSpan spans[kMaxSpans];
};
static_assert(std::is_trivially_copyable_v<TraceRecord>, "committing a record is a copy");

struct FlightRecorderConfig {
  /// Retained records per ring (sampled and anomalous rings are separate,
  /// so anomalies can never be crowded out). Rounded up to a power of 2.
  std::size_t capacity = 1024;
  /// Trace every Nth query in full; 0/1 = every query.
  std::uint32_t sample_every = 64;
  /// Slow-query threshold = max(min_slow_us, slow_factor * rolling p99).
  double slow_factor = 4.0;
  std::uint32_t min_slow_us = 1000;
  /// Nonzero pins the slow threshold (tests, operator override) and
  /// disables the rolling estimate.
  std::uint32_t fixed_slow_threshold_us = 0;
};

/// Global trace sink: two bounded wait-free MPMC rings (sampled /
/// anomalous) plus the rolling latency estimate that defines "slow".
/// Producers are the per-worker QueryTracers; the consumer is the admin
/// channel's `traces` command (or a test). Overwrite-oldest on overflow,
/// counted — never blocks a worker.
class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {});

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Per-query sampling decision (single relaxed fetch_add).
  [[nodiscard]] bool sample() noexcept;

  /// Reserve `n` consecutive sampler ticks (one relaxed fetch_add) and
  /// return the first. QueryTracers claim ticks in strides so the shared
  /// sampler cursor is touched once per rx batch, not per datagram; tick
  /// t samples iff t % sample_every == 0, so the global 1-in-N rate is
  /// independent of the stride size.
  [[nodiscard]] std::uint64_t claim_sample_ticks(std::uint32_t n) noexcept {
    return sampler_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Current slow-query threshold; UINT32_MAX until the rolling estimate
  /// has enough observations (nothing is "slow" before a baseline exists).
  [[nodiscard]] std::uint32_t slow_threshold_us() const noexcept;

  /// Feed the rolling latency estimate (every finished query, sampled or
  /// not). Two relaxed adds; every 1024th observation recomputes the
  /// threshold from the bucket counts.
  void observe_latency(std::uint32_t us) noexcept;

  /// Batched observe_latency(): `count` observations that all share
  /// `us`'s power-of-two bucket, for one pair of relaxed adds. The
  /// workers' QueryTracers run-length coalesce their feed per rx batch
  /// so the shared counters don't ping-pong between cores on every
  /// datagram — at 4 workers that coherence traffic, not the stores,
  /// is the tracer's dominant serve-path cost.
  void observe_latency_n(std::uint32_t us, std::uint32_t count) noexcept;

  /// Enqueue a finished record, stamping its sequence number and wall
  /// clock. Routes to the anomaly ring when record.anomalies != 0, else
  /// to the sampled ring. Lock-free; on a full ring the oldest record of
  /// that ring is discarded (counted).
  void commit(const TraceRecord& record) noexcept;

  /// Remove up to `max` records across both rings, oldest first by
  /// commit sequence. Safe concurrently with producers.
  [[nodiscard]] std::vector<TraceRecord> drain(std::size_t max = SIZE_MAX);

  // --- introspection counters (relaxed) --------------------------------
  [[nodiscard]] std::uint64_t committed() const noexcept {
    return committed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t anomalies_retained() const noexcept {
    return anomalies_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t overwritten() const noexcept {
    return overwritten_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t observed() const noexcept {
    return observed_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const FlightRecorderConfig& config() const noexcept { return config_; }

  /// One flat NDJSON object (no trailing newline); spans are rendered
  /// into a single string field so the schema stays flat. `ecs` is
  /// omitted when the query carried none, and `qtype`, `source` and
  /// `rcode` when no answering layer ran.
  [[nodiscard]] static std::string to_ndjson(const TraceRecord& record);

 private:
  /// Bounded MPMC ring (Vyukov): per-cell sequence numbers, CAS claims,
  /// release/acquire pairs on the cell sequence protect the payload copy.
  /// Bounded MPMC ring with producer-side eviction. The protocol lives
  /// in the extracted lockfree::MpmcRing kernel so the identical code is
  /// model-checked under mc::atomic (see mc/protocols.cpp).
  using Ring = lockfree::MpmcRing<lockfree::StdAtomicsPolicy, TraceRecord>;

  void recompute_threshold() noexcept;

  FlightRecorderConfig config_;
  Ring sampled_ring_;
  Ring anomaly_ring_;
  std::atomic<std::uint64_t> sampler_{0};
  std::atomic<std::uint64_t> commit_seq_{0};
  std::atomic<std::uint64_t> committed_{0};
  std::atomic<std::uint64_t> anomalies_{0};
  std::atomic<std::uint64_t> overwritten_{0};
  std::atomic<std::uint64_t> observed_{0};
  std::atomic<std::uint32_t> threshold_us_{0xFFFFFFFFU};
  /// Power-of-two latency buckets feeding the rolling p99 estimate.
  static constexpr std::size_t kLatencyBuckets = 32;
  std::atomic<std::uint64_t> latency_buckets_[kLatencyBuckets];
};

/// Per-worker trace scratch. Single owner by design: only its worker
/// thread touches it between begin() and finish(), so recording is plain
/// stores — no atomics, no locks, no allocation.
class QueryTracer {
 public:
  QueryTracer(FlightRecorder* recorder, std::uint32_t worker) noexcept
      : recorder_(recorder), worker_(worker) {}
  /// Flushes any coalesced observations still pending.
  ~QueryTracer() { flush_observations(); }

  QueryTracer(const QueryTracer&) = delete;
  QueryTracer& operator=(const QueryTracer&) = delete;

  /// Arm the scratch for one query: resets spans, anomalies, the client
  /// and the answer fields (a datagram that never reaches an answering
  /// layer must not carry its predecessor's), consults the recorder's
  /// sampler, stamps the start time. Every query is traced into the
  /// scratch (cheap plain stores) so an anomaly discovered at finish()
  /// still has its spans; only sampled queries stamp per-span elapsed
  /// times (extra clock reads).
  void begin() noexcept { begin(std::chrono::steady_clock::now()); }
  /// begin() against a caller-provided start time. The worker passes the
  /// batch-receipt timestamp, shared by every datagram in the rx batch:
  /// one clock read per batch, and the per-query latency then includes
  /// queueing behind batch-mates — the same quantity the serve-latency
  /// histogram reports.
  void begin(std::chrono::steady_clock::time_point started) noexcept;

  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] bool sampled() const noexcept { return scratch_.sampled != 0; }

  void set_client(const net::IpAddr& client) noexcept { scratch_.client = client; }
  /// Record what the answering layer saw and did: the client it answered,
  /// the query's ECS source prefix and qtype, where the answer came from
  /// and its rcode. Plain stores; a layer that wraps another (the
  /// resolver around its upstream authority) calls this after the inner
  /// one returns, so the outermost layer's view is what commits.
  void set_answer(const net::IpAddr& client, const dns::Message& query, AnswerSource source,
                  dns::Rcode rcode) noexcept;
  /// Record the wire-format qname (the answer-cache probe's view) by
  /// reference; it is decoded into dotted text only if the query commits
  /// (sampled or anomalous), so the 63-in-64 healthy majority never pays
  /// the copy. The labels must stay valid until finish() — the worker's
  /// rx batch buffer, untouched until the next receive, satisfies this.
  void set_qname_wire(std::span<const std::uint8_t> labels) noexcept {
    deferred_qname_ = labels;
  }
  /// Fill qname from already-rendered text (slow path).
  void set_qname_text(std::string_view text) noexcept;

  /// Append a span; nullptr when inactive or the span array is full.
  /// Stamps elapsed_us only for sampled queries (clock-read budget).
  [[nodiscard]] TraceSpan* span(TraceStage stage) noexcept;

  void note_anomaly(std::uint32_t flag) noexcept { scratch_.anomalies |= flag; }

  /// Close the query: computes latency, feeds the rolling estimate,
  /// applies the slow threshold, and commits when sampled or anomalous.
  /// Idempotent — a second finish() (the worker loop's unconditional
  /// one after an exception) is a no-op.
  void finish() noexcept;

  /// Push the coalesced latency observations to the recorder. finish()
  /// run-length coalesces same-bucket latencies locally (consecutive
  /// fast-path queries land in the same power-of-two bucket); the worker
  /// calls this once per drained rx batch, so between flushes the
  /// rolling estimate lags by at most one batch.
  void flush_observations() noexcept;

 private:
  /// Sampler ticks claimed per shared-cursor fetch_add (one rx batch).
  static constexpr std::uint32_t kSampleStride = 64;

  [[nodiscard]] bool next_tick_sampled() noexcept;
  void render_qname(std::span<const std::uint8_t> labels) noexcept;

  FlightRecorder* recorder_;
  std::uint32_t worker_;
  bool active_ = false;
  std::chrono::steady_clock::time_point started_{};
  /// Run-length coalesced observe_latency feed (see flush_observations).
  std::uint32_t pending_us_ = 0;
  std::uint32_t pending_count_ = 0;
  std::uint8_t pending_bucket_ = 0;
  /// Locally-owned window of claimed sampler ticks (see claim_sample_ticks).
  std::uint64_t stride_base_ = 0;
  std::uint64_t next_sampled_tick_ = 0;
  std::uint32_t stride_left_ = 0;
  /// Wire qname recorded by reference; decoded only on commit.
  std::span<const std::uint8_t> deferred_qname_{};
  TraceRecord scratch_;
};

/// The thread's installed tracer (nullptr when tracing is off). Deep
/// layers consult this to add spans without signature changes.
[[nodiscard]] QueryTracer* current_tracer() noexcept;
void set_current_tracer(QueryTracer* tracer) noexcept;

/// RAII install/restore of the thread-local current tracer.
class TracerScope {
 public:
  explicit TracerScope(QueryTracer* tracer) noexcept : previous_(current_tracer()) {
    set_current_tracer(tracer);
  }
  ~TracerScope() { set_current_tracer(previous_); }

  TracerScope(const TracerScope&) = delete;
  TracerScope& operator=(const TracerScope&) = delete;

 private:
  QueryTracer* previous_;
};

}  // namespace eum::obs
