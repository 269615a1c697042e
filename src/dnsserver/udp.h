// UDP transport: a real socket-based DNS server and client.
//
// The simulation uses the in-memory transport, but the authoritative
// engine is transport-agnostic, and this module serves it over genuine
// UDP (see examples/ecs_dns_server.cpp, which answers `dig +subnet`
// queries). The server runs N worker threads, each with its own
// SO_REUSEPORT socket bound to the same endpoint so the kernel
// load-balances datagrams across workers — the front end the paper's
// authorities need to absorb the ~8x query-rate increase finer ECS
// granularity causes (§5.3, Fig. 23). IPv4 localhost-oriented; RAII
// socket ownership throughout.
//
// The serve path is batched, modeled on Traffic Server's UnixUDPNet
// polling loop: one poll wakeup drains up to a whole UdpBatch with a
// single recvmmsg, responses are staged into preallocated per-worker
// arenas, and one sendmmsg flushes them — so syscall count and per-query
// allocation are amortized to ~zero. Where the mmsg syscalls are
// unavailable the same batch API degrades to recvfrom/sendto loops.
// An optional per-worker wire-level answer cache (answer_cache.h) lets
// repeat queries bypass the engine entirely, invalidated by map-snapshot
// version.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "dns/message.h"
#include "dnsserver/answer_cache.h"
#include "dnsserver/authoritative.h"
#include "dnsserver/resolver.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eum::dnsserver {

/// A UDP endpoint (IPv4).
struct UdpEndpoint {
  net::IpV4Addr address;
  std::uint16_t port = 0;

  friend bool operator==(const UdpEndpoint&, const UdpEndpoint&) noexcept = default;
};

/// Preallocated datagram arena for batched receive/send. One instance
/// per worker (or per client loop): all receive buffers are carved from
/// one contiguous allocation made at construction, and staged-response
/// vectors are reused across batches, so the steady-state serve path
/// performs zero allocation. Not thread-safe — single owner by design.
class UdpBatch {
 public:
  /// Hard upper bound on datagrams per syscall (mmsghdr arrays live on
  /// the stack in UdpSocket).
  static constexpr std::size_t kMaxCapacity = 64;
  /// Receive buffer per slot. 4096 covers every EDNS query we advertise
  /// for; larger datagrams are flagged truncated and dropped.
  static constexpr std::size_t kRxBufferSize = 4096;

  /// `capacity` is clamped to [1, kMaxCapacity].
  explicit UdpBatch(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  // Received datagrams, filled by UdpSocket::receive_batch.
  [[nodiscard]] std::size_t received() const noexcept { return received_; }
  [[nodiscard]] std::span<const std::uint8_t> datagram(std::size_t i) const noexcept {
    return {rx_storage_.get() + i * kRxBufferSize, rx_size_[i]};
  }
  [[nodiscard]] const UdpEndpoint& peer(std::size_t i) const noexcept { return rx_peer_[i]; }
  /// True when the datagram exceeded kRxBufferSize and was cut short.
  [[nodiscard]] bool rx_truncated(std::size_t i) const noexcept { return rx_trunc_[i] != 0; }

  // Responses staged for UdpSocket::send_batch. stage() returns a
  // cleared, capacity-retaining buffer to encode into; staging more than
  // `capacity()` datagrams throws std::out_of_range.
  std::vector<std::uint8_t>& stage(const UdpEndpoint& to);
  [[nodiscard]] std::size_t staged() const noexcept { return staged_; }
  void clear_staged() noexcept { staged_ = 0; }

 private:
  friend class UdpSocket;

  std::size_t capacity_;
  std::unique_ptr<std::uint8_t[]> rx_storage_;  ///< capacity_ * kRxBufferSize
  std::vector<std::uint32_t> rx_size_;
  std::vector<std::uint8_t> rx_trunc_;
  std::vector<UdpEndpoint> rx_peer_;
  std::size_t received_ = 0;

  std::vector<std::vector<std::uint8_t>> tx_;
  std::vector<UdpEndpoint> tx_peer_;
  std::size_t staged_ = 0;
};

/// RAII wrapper over a bound UDP socket.
class UdpSocket {
 public:
  /// Bind to `endpoint`; port 0 picks an ephemeral port. With
  /// `reuse_port`, SO_REUSEPORT is set before binding so several sockets
  /// can share one endpoint and the kernel spreads datagrams over them.
  /// Throws std::system_error on failure.
  explicit UdpSocket(const UdpEndpoint& endpoint, bool reuse_port = false);
  ~UdpSocket();

  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// The actual bound endpoint (resolves ephemeral ports).
  [[nodiscard]] UdpEndpoint local_endpoint() const;

  /// Send one datagram.
  void send_to(std::span<const std::uint8_t> data, const UdpEndpoint& peer);

  /// Receive one datagram, waiting up to `timeout`. Returns nullopt on
  /// timeout. `peer` receives the sender's endpoint.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> receive(
      std::chrono::milliseconds timeout, UdpEndpoint& peer);

  /// Wait up to `timeout` for readability, then drain up to
  /// `batch.capacity()` datagrams in one recvmmsg (single recvfrom loop
  /// where unavailable). Returns the number received; 0 on timeout.
  /// Previously received/staged contents of `batch` are discarded.
  std::size_t receive_batch(UdpBatch& batch, std::chrono::milliseconds timeout);

  struct SendBatchResult {
    std::size_t sent = 0;    ///< datagrams handed to the kernel
    std::size_t errors = 0;  ///< datagrams refused (ENOBUFS, EPERM, ...)
    int last_errno = 0;
  };

  /// Flush every staged response in one sendmmsg (sendto loop where
  /// unavailable). Never throws: per-datagram send failures — the
  /// ENOBUFS/EPERM/ECONNREFUSED family — are counted, the rest of the
  /// batch still goes out, and the staged set is cleared either way.
  SendBatchResult send_batch(UdpBatch& batch) noexcept;

  /// Ask the kernel to attach its receive-queue overflow counter to
  /// incoming datagrams (Linux SO_RXQ_OVFL). Returns false where the
  /// option is unsupported; kernel_drops() then stays 0. Overload
  /// analysis needs this to tell kernel drops (queue overflow before the
  /// server ever saw the query) apart from server-side latency.
  bool enable_rx_drop_counter() noexcept;

  /// Cumulative datagrams the kernel dropped on this socket's receive
  /// queue, as of the most recently received batch. Only advances on the
  /// recvmmsg path (the drop count rides in per-datagram cmsg metadata,
  /// which the portable recvfrom fallback does not request).
  [[nodiscard]] std::uint64_t kernel_drops() const noexcept {
    return rxq_drops_.load(std::memory_order_relaxed);
  }

  /// Ask for a `bytes` receive buffer (SO_RCVBUF), best effort, and
  /// return the size the kernel granted (0 if it cannot be read back).
  int request_receive_buffer(int bytes) noexcept;

  [[nodiscard]] int native_handle() const noexcept { return fd_; }

 private:
  /// Deadline-based readability wait (EINTR-safe); true when readable.
  [[nodiscard]] bool wait_readable(std::chrono::milliseconds timeout);

  int fd_ = -1;
  bool mmsg_unavailable_ = false;  ///< runtime ENOSYS fallback latch
  /// Latest SO_RXQ_OVFL cumulative value seen in receive cmsg metadata.
  /// Atomic because stats snapshots read it from other threads.
  std::atomic<std::uint64_t> rxq_drops_{0};
};

struct UdpServerConfig {
  /// Worker threads started by start(); each owns one SO_REUSEPORT
  /// socket on the shared endpoint.
  std::size_t workers = 1;
  /// Poll granularity of the worker loops (stop-flag latency bound).
  /// Must be positive: a non-positive interval would park workers in
  /// poll() forever and stop() could never join them — the constructor
  /// rejects it.
  std::chrono::milliseconds poll_interval{50};
  /// Registry for eum_udp_* metrics (borrowed; must outlive the server).
  /// nullptr shares the engine's registry, so one snapshot covers the
  /// whole serving stack.
  obs::MetricsRegistry* registry = nullptr;
  /// Datagrams drained/flushed per syscall round, clamped to
  /// [1, UdpBatch::kMaxCapacity]. 1 degenerates to the single-shot path.
  std::size_t batch = 32;
  /// Slots in the per-worker wire answer cache; 0 (default) disables it.
  /// With the cache on, repeat queries are answered from memoized wire
  /// bytes and never reach the engine (its counters see only misses, and
  /// a hit's flight-recorder record carries no answer fields), so
  /// enabling it is an explicit opt-in.
  std::size_t answer_cache_entries = 0;
  /// Responses larger than this are not cached.
  std::size_t answer_cache_max_wire = 4096;
  /// Map-snapshot version cell the cache keys on (borrowed, may be
  /// null): point it at MapMaker::version_cell() and every snapshot
  /// publish invalidates all cached answers. Null pins version 0 —
  /// fine for static zones, wrong for live-republished mappings.
  const std::atomic<std::uint64_t>* map_version = nullptr;
  /// Flight recorder for per-query trace spans (borrowed, may be null =
  /// tracing off). Each worker gets its own QueryTracer scratch; a
  /// datagram's trace is committed when sampled or anomalous. See
  /// obs/trace.h for the cost discipline.
  obs::FlightRecorder* recorder = nullptr;
};

/// The three front-end counters the serving benchmark (perfbench/) reads
/// through UdpAuthorityServer::stats(). Everything else reads the
/// registry: every counter is kept per worker (eum_udp_*{worker="N"}) so
/// worker bumps never contend, and MetricsRegistry::counter_total sums
/// them.
struct UdpServerStats {
  std::uint64_t queries = 0;       ///< datagrams answered (eum_udp_queries_total)
  std::uint64_t cache_hits = 0;    ///< wire answer-cache hits (eum_udp_cache_hits_total)
  std::uint64_t cache_misses = 0;  ///< cacheable slow-path queries (eum_udp_cache_misses_total)
};

/// Serves an AuthoritativeServer over UDP with a pool of SO_REUSEPORT
/// worker threads. `serve_once`/`serve_until` remain for single-threaded
/// callers and always use worker 0's socket.
class UdpAuthorityServer {
 public:
  /// `engine` is borrowed and must outlive the server. All sockets are
  /// bound up front; start() only spawns the threads.
  UdpAuthorityServer(AuthoritativeServer* engine, const UdpEndpoint& bind,
                     UdpServerConfig config = {});
  ~UdpAuthorityServer();

  UdpAuthorityServer(const UdpAuthorityServer&) = delete;
  UdpAuthorityServer& operator=(const UdpAuthorityServer&) = delete;

  [[nodiscard]] UdpEndpoint endpoint() const { return sockets_.front().local_endpoint(); }
  [[nodiscard]] std::size_t worker_count() const noexcept { return sockets_.size(); }

  /// Spawn the worker threads; idempotent. Each worker serves its own
  /// socket until stop(). Workers run behind an exception barrier: a
  /// transient serve failure (a throwing decode path, a socket error) is
  /// counted in eum_udp_worker_exceptions_total and the worker keeps
  /// serving — it never escapes to std::terminate.
  void start();

  /// Stop and join the worker threads; idempotent (also run by the
  /// destructor).
  void stop();

  /// Handle at most one batch of requests on worker 0's socket; returns
  /// true if anything was served. Do not mix with start() — workers own
  /// the sockets.
  bool serve_once(std::chrono::milliseconds timeout);

  /// Serve single-threaded until `stop` becomes true (checked between
  /// datagrams).
  void serve_until(const std::atomic<bool>& stop);

  /// This server's workers' sums of the three counters above. Kept for
  /// perfbench, which reads exactly these; other readers use registry().
  [[nodiscard]] UdpServerStats stats() const;

  /// The registry the front end records into (the engine's unless one
  /// was injected via UdpServerConfig).
  [[nodiscard]] obs::MetricsRegistry& registry() const noexcept { return *registry_; }

 private:
  /// Per-worker registry counter handles: only the owning worker thread
  /// bumps these, so the relaxed adds never bounce between cores.
  struct WorkerMetrics {
    obs::Counter* queries = nullptr;
    obs::Counter* truncated = nullptr;
    obs::Counter* wire_errors = nullptr;
    obs::Counter* send_errors = nullptr;
    obs::Counter* kernel_drops = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* worker_exceptions = nullptr;
  };

  /// One receive-batch/handle/send-batch round on `socket`, crediting
  /// `worker`. Returns true when any datagram was drained.
  bool serve_on(UdpSocket& socket, std::size_t worker, std::chrono::milliseconds timeout);

  /// Decode/answer one received datagram of `batch` and stage its
  /// response. `version` is the map generation this batch serves under.
  /// `tracer` (may be null) records the datagram's trace spans and is
  /// installed as the thread's current tracer for the duration, so the
  /// engine/mapping/resolver layers can add their own spans.
  void serve_datagram(UdpBatch& batch, std::size_t index, std::size_t worker,
                      std::uint64_t version, AnswerCache* cache, obs::QueryTracer* tracer);

  AuthoritativeServer* engine_;
  UdpServerConfig config_;
  obs::MetricsRegistry* registry_;
  std::vector<UdpSocket> sockets_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stopping_{false};
  std::vector<WorkerMetrics> worker_metrics_;
  /// Last SO_RXQ_OVFL cumulative value already exported per worker; only
  /// the owning worker thread touches its slot (delta -> counter).
  std::vector<std::uint64_t> kernel_drops_seen_;
  std::vector<UdpBatch> batches_;       ///< one preallocated arena per worker
  /// A worker's cache-miss buffers, reused from datagram to datagram.
  struct WorkerScratch {
    dns::Message query;
    dns::Message response;
    std::vector<std::uint8_t> wire;
  };
  std::vector<WorkerScratch> scratch_;  ///< one per worker
  std::vector<AnswerCache> caches_;     ///< empty when the cache is disabled
  /// One trace scratch per worker (empty when no recorder was injected).
  /// unique_ptr keeps the scratch address stable against vector moves.
  std::vector<std::unique_ptr<obs::QueryTracer>> tracers_;
  obs::LatencyHistogram* serve_latency_;  ///< batch received -> responses sent
  obs::LatencyHistogram* rx_batch_size_;  ///< datagrams drained per wakeup
};

/// One-shot DNS-over-UDP client.
class UdpDnsClient {
 public:
  UdpDnsClient();

  /// Send `query` to `server` and await the matching response (by id).
  /// Returns nullopt on timeout.
  [[nodiscard]] std::optional<dns::Message> query(const dns::Message& query_msg,
                                                  const UdpEndpoint& server,
                                                  std::chrono::milliseconds timeout);

 private:
  UdpSocket socket_;
};

/// Resolver upstream speaking real UDP to one authoritative endpoint, so
/// the retry/backoff machinery (and the FaultInjector wrapped around it)
/// exercises the genuine socket path. Each call opens its own ephemeral
/// client socket: concurrent resolver threads never share transport
/// state, and a late response to a lost attempt dies with its socket.
class UdpUpstream : public Upstream {
 public:
  explicit UdpUpstream(UdpEndpoint server,
                       std::chrono::milliseconds timeout = std::chrono::milliseconds{250});

  /// nullopt = no (matching) response before the timeout.
  [[nodiscard]] std::optional<dns::Message> try_forward(const dns::Message& query,
                                                        const net::IpAddr& source) override;
  /// Only the configured endpoint's address is addressable.
  [[nodiscard]] ForwardToResult try_forward_to(const net::IpAddr& server,
                                               const dns::Message& query,
                                               const net::IpAddr& source) override;

  [[nodiscard]] const UdpEndpoint& server() const noexcept { return server_; }

 private:
  UdpEndpoint server_;
  std::chrono::milliseconds timeout_;
};

}  // namespace eum::dnsserver
