#include "dnsserver/udp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace eum::dnsserver {

namespace {

constexpr std::size_t kMaxDatagram = 65535;

/// Receive buffer each server socket asks for. Host stalls of 5-20 ms
/// happen on shared machines; the 212,992-byte default holds ~256 small
/// queries (12.8 ms at 20k QPS) and overflows during one. The kernel caps
/// the request at net.core.rmem_max and doubles it for its bookkeeping,
/// so 1 MiB grants 2 MiB where allowed: ~2,500 queries.
constexpr int kReceiveBufferRequest = 1 << 20;

// SIGPIPE protection: a send on a shutdown/disconnected socket must
// surface as an errno the serve path can count, never a process-killing
// signal.
#if defined(MSG_NOSIGNAL)
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

sockaddr_in to_sockaddr(const UdpEndpoint& endpoint) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(endpoint.port);
  sa.sin_addr.s_addr = htonl(endpoint.address.value());
  return sa;
}

UdpEndpoint from_sockaddr(const sockaddr_in& sa) {
  return UdpEndpoint{net::IpV4Addr{ntohl(sa.sin_addr.s_addr)}, ntohs(sa.sin_port)};
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error{errno, std::generic_category(), what};
}

}  // namespace

UdpSocket::UdpSocket(const UdpEndpoint& endpoint, bool reuse_port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("socket");
  if (reuse_port) {
    const int one = 1;
    if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
      const int saved = errno;
      ::close(fd_);
      fd_ = -1;
      errno = saved;
      throw_errno("setsockopt(SO_REUSEPORT)");
    }
  }
  const sockaddr_in sa = to_sockaddr(endpoint);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("bind");
  }
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {
  mmsg_unavailable_ = other.mmsg_unavailable_;
  rxq_drops_.store(other.rxq_drops_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    mmsg_unavailable_ = other.mmsg_unavailable_;
    rxq_drops_.store(other.rxq_drops_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  }
  return *this;
}

bool UdpSocket::enable_rx_drop_counter() noexcept {
#if defined(__linux__) && defined(SO_RXQ_OVFL)
  const int one = 1;
  return ::setsockopt(fd_, SOL_SOCKET, SO_RXQ_OVFL, &one, sizeof one) == 0;
#else
  return false;
#endif
}

int UdpSocket::request_receive_buffer(int bytes) noexcept {
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof bytes);
  int granted = 0;
  socklen_t len = sizeof granted;
  if (::getsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &granted, &len) != 0) return 0;
  return granted;
}

UdpEndpoint UdpSocket::local_endpoint() const {
  sockaddr_in sa{};
  socklen_t len = sizeof sa;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    throw_errno("getsockname");
  }
  return from_sockaddr(sa);
}

void UdpSocket::send_to(std::span<const std::uint8_t> data, const UdpEndpoint& peer) {
  const sockaddr_in sa = to_sockaddr(peer);
  const ssize_t sent = ::sendto(fd_, data.data(), data.size(), kSendFlags,
                                reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
  if (sent < 0) throw_errno("sendto");
  if (static_cast<std::size_t>(sent) != data.size()) {
    throw std::system_error{EMSGSIZE, std::generic_category(), "sendto: short write"};
  }
}

bool UdpSocket::wait_readable(std::chrono::milliseconds timeout) {
  // The wait is deadline-based: a poll() interrupted by a signal (EINTR)
  // resumes with the time REMAINING, not the caller's full timeout, so a
  // signal storm cannot extend the wait unboundedly. A negative timeout
  // still means "wait forever".
  const bool infinite = timeout.count() < 0;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  pollfd pfd{fd_, POLLIN, 0};
  while (true) {
    int wait_ms = -1;
    if (!infinite) {
      const auto remaining = std::chrono::ceil<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      wait_ms = static_cast<int>(std::max<std::int64_t>(remaining.count(), 0));
    }
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) {
        if (!infinite && std::chrono::steady_clock::now() >= deadline) return false;
        continue;
      }
      throw_errno("poll");
    }
    return ready != 0;
  }
}

std::optional<std::vector<std::uint8_t>> UdpSocket::receive(std::chrono::milliseconds timeout,
                                                            UdpEndpoint& peer) {
  if (!wait_readable(timeout)) return std::nullopt;
  // One reusable receive buffer per thread, so a datagram costs one
  // allocation of its own length, not a zero-filled 64 KiB vector.
  thread_local const std::unique_ptr<std::uint8_t[]> buffer =
      std::make_unique_for_overwrite<std::uint8_t[]>(kMaxDatagram);
  sockaddr_in sa{};
  socklen_t len = sizeof sa;
  ssize_t received;
  do {
    received = ::recvfrom(fd_, buffer.get(), kMaxDatagram, 0, reinterpret_cast<sockaddr*>(&sa),
                          &len);
  } while (received < 0 && errno == EINTR);
  if (received < 0) throw_errno("recvfrom");
  peer = from_sockaddr(sa);
  return std::vector<std::uint8_t>(buffer.get(), buffer.get() + received);
}

UdpBatch::UdpBatch(std::size_t capacity)
    : capacity_(std::clamp<std::size_t>(capacity, 1, kMaxCapacity)),
      rx_storage_(std::make_unique<std::uint8_t[]>(capacity_ * kRxBufferSize)),
      rx_size_(capacity_, 0),
      rx_trunc_(capacity_, 0),
      rx_peer_(capacity_),
      tx_(capacity_),
      tx_peer_(capacity_) {
  for (std::vector<std::uint8_t>& buffer : tx_) buffer.reserve(512);
}

std::vector<std::uint8_t>& UdpBatch::stage(const UdpEndpoint& to) {
  if (staged_ == capacity_) throw std::out_of_range{"UdpBatch::stage: batch full"};
  tx_peer_[staged_] = to;
  std::vector<std::uint8_t>& buffer = tx_[staged_++];
  buffer.clear();  // keeps capacity: no allocation once warmed up
  return buffer;
}

std::size_t UdpSocket::receive_batch(UdpBatch& batch, std::chrono::milliseconds timeout) {
  batch.received_ = 0;
  batch.staged_ = 0;
  if (!wait_readable(timeout)) return 0;
  const std::size_t want = batch.capacity_;
#if defined(__linux__)
  if (!mmsg_unavailable_) {
    mmsghdr headers[UdpBatch::kMaxCapacity];
    iovec iovecs[UdpBatch::kMaxCapacity];
    sockaddr_in addrs[UdpBatch::kMaxCapacity];
    // Per-slot ancillary space for the SO_RXQ_OVFL drop counter; union
    // with a cmsghdr for alignment.
    union CtrlSlot {
      cmsghdr align;
      char buf[CMSG_SPACE(sizeof(std::uint32_t))];
    };
    CtrlSlot controls[UdpBatch::kMaxCapacity];
    std::memset(headers, 0, sizeof(mmsghdr) * want);
    for (std::size_t i = 0; i < want; ++i) {
      iovecs[i] = {batch.rx_storage_.get() + i * UdpBatch::kRxBufferSize,
                   UdpBatch::kRxBufferSize};
      headers[i].msg_hdr.msg_name = &addrs[i];
      headers[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      headers[i].msg_hdr.msg_iov = &iovecs[i];
      headers[i].msg_hdr.msg_iovlen = 1;
      headers[i].msg_hdr.msg_control = controls[i].buf;
      headers[i].msg_hdr.msg_controllen = sizeof controls[i].buf;
    }
    int got;
    do {
      got = ::recvmmsg(fd_, headers, static_cast<unsigned>(want), MSG_DONTWAIT, nullptr);
    } while (got < 0 && errno == EINTR);
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
      if (errno != ENOSYS) throw_errno("recvmmsg");
      mmsg_unavailable_ = true;  // fall through to the single-shot drain
    } else {
      bool saw_drops = false;
      std::uint32_t drops = 0;
      for (int i = 0; i < got; ++i) {
        batch.rx_size_[static_cast<std::size_t>(i)] = headers[i].msg_len;
        batch.rx_trunc_[static_cast<std::size_t>(i)] =
            (headers[i].msg_hdr.msg_flags & MSG_TRUNC) != 0 ? 1 : 0;
        batch.rx_peer_[static_cast<std::size_t>(i)] = from_sockaddr(addrs[i]);
#if defined(SO_RXQ_OVFL)
        for (cmsghdr* cm = CMSG_FIRSTHDR(&headers[i].msg_hdr); cm != nullptr;
             cm = CMSG_NXTHDR(&headers[i].msg_hdr, cm)) {
          if (cm->cmsg_level == SOL_SOCKET && cm->cmsg_type == SO_RXQ_OVFL) {
            // Cumulative per-socket counter; the last datagram carries
            // the most recent value.
            std::memcpy(&drops, CMSG_DATA(cm), sizeof drops);
            saw_drops = true;
          }
        }
#endif
      }
      if (saw_drops) rxq_drops_.store(drops, std::memory_order_relaxed);
      batch.received_ = static_cast<std::size_t>(got);
      return batch.received_;
    }
  }
#endif
  // Portable drain: non-blocking recvfrom until the queue is empty or the
  // batch is full. Without MSG_TRUNC metadata a buffer-filling datagram
  // is conservatively flagged truncated.
  std::size_t count = 0;
  while (count < want) {
    sockaddr_in sa{};
    socklen_t len = sizeof sa;
    ssize_t received;
    do {
      received = ::recvfrom(fd_, batch.rx_storage_.get() + count * UdpBatch::kRxBufferSize,
                            UdpBatch::kRxBufferSize, MSG_DONTWAIT,
                            reinterpret_cast<sockaddr*>(&sa), &len);
    } while (received < 0 && errno == EINTR);
    if (received < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (count > 0) break;  // deliver what we have; next round rethrows
      throw_errno("recvfrom");
    }
    batch.rx_size_[count] = static_cast<std::uint32_t>(received);
    batch.rx_trunc_[count] =
        static_cast<std::size_t>(received) >= UdpBatch::kRxBufferSize ? 1 : 0;
    batch.rx_peer_[count] = from_sockaddr(sa);
    ++count;
  }
  batch.received_ = count;
  return count;
}

UdpSocket::SendBatchResult UdpSocket::send_batch(UdpBatch& batch) noexcept {
  SendBatchResult result;
  std::size_t next = 0;
  // Per-datagram sendto fallback, also used to retry the datagram that
  // stalled a partial sendmmsg so its errno is observable.
  const auto send_one = [&](std::size_t i) {
    const sockaddr_in sa = to_sockaddr(batch.tx_peer_[i]);
    ssize_t sent;
    do {
      sent = ::sendto(fd_, batch.tx_[i].data(), batch.tx_[i].size(), kSendFlags,
                      reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
    } while (sent < 0 && errno == EINTR);
    if (sent < 0 || static_cast<std::size_t>(sent) != batch.tx_[i].size()) {
      ++result.errors;
      result.last_errno = sent < 0 ? errno : EMSGSIZE;
    } else {
      ++result.sent;
    }
  };
#if defined(__linux__)
  if (!mmsg_unavailable_) {
    mmsghdr headers[UdpBatch::kMaxCapacity];
    iovec iovecs[UdpBatch::kMaxCapacity];
    sockaddr_in addrs[UdpBatch::kMaxCapacity];
    std::memset(headers, 0, sizeof(mmsghdr) * batch.staged_);
    for (std::size_t i = 0; i < batch.staged_; ++i) {
      addrs[i] = to_sockaddr(batch.tx_peer_[i]);
      iovecs[i] = {batch.tx_[i].data(), batch.tx_[i].size()};
      headers[i].msg_hdr.msg_name = &addrs[i];
      headers[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      headers[i].msg_hdr.msg_iov = &iovecs[i];
      headers[i].msg_hdr.msg_iovlen = 1;
    }
    while (next < batch.staged_ && !mmsg_unavailable_) {
      const int sent = ::sendmmsg(fd_, headers + next,
                                  static_cast<unsigned>(batch.staged_ - next), kSendFlags);
      if (sent < 0) {
        if (errno == EINTR) continue;
        if (errno == ENOSYS) {
          mmsg_unavailable_ = true;
          break;  // remaining datagrams take the sendto loop below
        }
        // The head datagram was refused; count it and move past it.
        ++result.errors;
        result.last_errno = errno;
        ++next;
        continue;
      }
      result.sent += static_cast<std::size_t>(sent);
      next += static_cast<std::size_t>(sent);
      if (next < batch.staged_) send_one(next++);  // probe the blocker's errno
    }
  }
#endif
  for (; next < batch.staged_; ++next) send_one(next);
  batch.staged_ = 0;
  return result;
}

UdpAuthorityServer::UdpAuthorityServer(AuthoritativeServer* engine, const UdpEndpoint& bind,
                                       UdpServerConfig config)
    : engine_(engine), config_(config), registry_(config.registry) {
  if (engine_ == nullptr) throw std::invalid_argument{"UdpAuthorityServer: null engine"};
  if (config_.workers == 0) throw std::invalid_argument{"UdpAuthorityServer: need >= 1 worker"};
  if (config_.poll_interval.count() <= 0) {
    // A non-positive interval means "poll forever": workers would never
    // re-check the stop flag and stop() would hang on join.
    throw std::invalid_argument{
        "UdpAuthorityServer: poll_interval must be positive (infinite poll makes "
        "stop() hang)"};
  }
  config_.batch = std::clamp<std::size_t>(config_.batch, 1, UdpBatch::kMaxCapacity);
  if (registry_ == nullptr) registry_ = &engine_->registry();
  // Bind the first socket (resolving an ephemeral port), then the rest of
  // the SO_REUSEPORT group onto the resolved endpoint. SO_REUSEPORT must
  // be set on the first socket too or later binds are refused.
  const bool shared = config_.workers > 1;
  sockets_.emplace_back(bind, shared);
  const UdpEndpoint resolved = sockets_.front().local_endpoint();
  for (std::size_t w = 1; w < config_.workers; ++w) {
    sockets_.emplace_back(resolved, true);
  }
  // Best effort: where SO_RXQ_OVFL is unsupported the counter stays 0.
  for (UdpSocket& socket : sockets_) (void)socket.enable_rx_drop_counter();
  scratch_.resize(config_.workers);
  kernel_drops_seen_.assign(config_.workers, 0);
  worker_metrics_.reserve(config_.workers);
  batches_.reserve(config_.workers);
  if (config_.answer_cache_entries > 0) caches_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    const obs::Labels labels{{"worker", std::to_string(w)}};
    WorkerMetrics metrics;
    metrics.queries =
        &registry_->counter("eum_udp_queries_total", "datagrams answered", labels);
    metrics.truncated =
        &registry_->counter("eum_udp_truncated_total", "TC=1 responses sent", labels);
    metrics.wire_errors =
        &registry_->counter("eum_udp_wire_errors_total", "unparseable datagrams", labels);
    metrics.send_errors = &registry_->counter("eum_udp_send_errors_total",
                                              "datagram send failures", labels);
    metrics.kernel_drops = &registry_->counter(
        "eum_udp_kernel_drops_total",
        "datagrams dropped by the kernel receive queue (SO_RXQ_OVFL)", labels);
    metrics.cache_hits = &registry_->counter("eum_udp_cache_hits_total",
                                             "wire answer-cache hits", labels);
    metrics.cache_misses = &registry_->counter(
        "eum_udp_cache_misses_total", "cacheable queries served by the slow path", labels);
    metrics.worker_exceptions = &registry_->counter(
        "eum_udp_worker_exceptions_total", "exceptions absorbed by the worker barrier",
        labels);
    registry_
        ->gauge("eum_udp_rcvbuf_bytes", "receive buffer the kernel granted the socket", labels)
        .set(sockets_[w].request_receive_buffer(kReceiveBufferRequest));
    worker_metrics_.push_back(metrics);
    batches_.emplace_back(config_.batch);
    if (config_.answer_cache_entries > 0) {
      caches_.emplace_back(AnswerCache::Config{config_.answer_cache_entries,
                                               config_.answer_cache_max_wire});
    }
    if (config_.recorder != nullptr) {
      tracers_.push_back(std::make_unique<obs::QueryTracer>(config_.recorder,
                                                            static_cast<std::uint32_t>(w)));
    }
  }
  serve_latency_ = &registry_->histogram(
      "eum_udp_serve_latency_us", "batch received to responses sent, microseconds");
  rx_batch_size_ = &registry_->histogram("eum_udp_rx_batch_size",
                                         "datagrams drained per socket wakeup");
}

UdpAuthorityServer::~UdpAuthorityServer() { stop(); }

void UdpAuthorityServer::start() {
  if (!threads_.empty()) return;
  stopping_.store(false, std::memory_order_relaxed);
  threads_.reserve(sockets_.size());
  for (std::size_t w = 0; w < sockets_.size(); ++w) {
    threads_.emplace_back([this, w] {
      // Exception barrier: a transient serve failure must not reach
      // std::terminate. Anything thrown is counted; the short sleep
      // keeps a persistently-failing socket from hot-spinning the core.
      while (!stopping_.load(std::memory_order_relaxed)) {
        try {
          serve_on(sockets_[w], w, config_.poll_interval);
        } catch (...) {
          worker_metrics_[w].worker_exceptions->add();
          std::this_thread::sleep_for(std::chrono::milliseconds{1});
        }
      }
    });
  }
}

void UdpAuthorityServer::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

bool UdpAuthorityServer::serve_once(std::chrono::milliseconds timeout) {
  return serve_on(sockets_.front(), 0, timeout);
}

bool UdpAuthorityServer::serve_on(UdpSocket& socket, std::size_t worker,
                                  std::chrono::milliseconds timeout) {
  UdpBatch& batch = batches_[worker];
  const std::size_t got = socket.receive_batch(batch, timeout);
  if (got == 0) return false;
  // Serve latency covers decode + handle + encode + send for the whole
  // drained batch — what a client at the batch tail would see past the
  // kernel's receive queue.
  const auto received_at = std::chrono::steady_clock::now();
  WorkerMetrics& metrics = worker_metrics_[worker];
  rx_batch_size_->record(got);
  // Export the kernel's cumulative drop counter as a delta; only the
  // owning worker thread touches its seen-slot.
  const std::uint64_t kernel_total = socket.kernel_drops();
  if (kernel_total > kernel_drops_seen_[worker]) {
    metrics.kernel_drops->add(kernel_total - kernel_drops_seen_[worker]);
    kernel_drops_seen_[worker] = kernel_total;
  }
  // One version read per batch: every answer in the batch is served (and
  // cached) under the same map generation. The acquire pairs with the
  // mapping system's release publish, which stores the snapshot BEFORE
  // the version — so version V here implies the decisions serve >= V.
  const std::uint64_t version =
      config_.map_version != nullptr
          ? config_.map_version->load(std::memory_order_acquire)
          : 0;
  AnswerCache* cache = caches_.empty() ? nullptr : &caches_[worker];
  obs::QueryTracer* tracer = tracers_.empty() ? nullptr : tracers_[worker].get();
  // Deep layers (engine, mapping, resolver) find the tracer through the
  // thread-local slot — no signature changes below this point. Installed
  // once per batch: the worker reuses one tracer for every datagram.
  obs::TracerScope trace_scope{tracer};
  for (std::size_t i = 0; i < got; ++i) {
    if (tracer != nullptr) {
      tracer->begin(received_at);  // one clock read for the whole batch
      tracer->set_client(net::IpAddr{batch.peer(i).address});
    }
    try {
      serve_datagram(batch, i, worker, version, cache, tracer);
    } catch (...) {
      // One poisoned datagram must not take down its batch-mates.
      metrics.worker_exceptions->add();
      if (tracer != nullptr) tracer->note_anomaly(obs::TraceAnomaly::kException);
    }
    // finish() is what guarantees anomaly retention: it runs whether the
    // datagram served cleanly, threw, or was dropped as unparseable.
    if (tracer != nullptr) tracer->finish();
  }
  // One shared-counter flush per drained batch, not per datagram: the
  // tracer coalesced the whole batch's latency observations locally.
  if (tracer != nullptr) tracer->flush_observations();
  const UdpSocket::SendBatchResult sent = socket.send_batch(batch);
  if (sent.errors != 0) {
    metrics.send_errors->add(sent.errors);
    if (config_.recorder != nullptr) {
      // Send errors surface only after the per-datagram traces closed, so
      // retention is via a synthesized record: one per flush, carrying
      // the errno and the refused-datagram count.
      obs::TraceRecord record;
      record.worker = static_cast<std::uint32_t>(worker);
      record.anomalies = obs::TraceAnomaly::kSendError;
      record.span_count = 1;
      record.spans[0].stage = obs::TraceStage::tx;
      record.spans[0].code = sent.last_errno;
      record.spans[0].value = static_cast<std::int64_t>(sent.errors);
      record.spans[0].set_detail("send_batch refused datagrams");
      config_.recorder->commit(record);
    }
  }
  serve_latency_->record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                            received_at)
          .count()));
  return true;
}

void UdpAuthorityServer::serve_datagram(UdpBatch& batch, std::size_t index,
                                        std::size_t worker, std::uint64_t version,
                                        AnswerCache* cache, obs::QueryTracer* tracer) {
  const std::span<const std::uint8_t> datagram = batch.datagram(index);
  const UdpEndpoint peer = batch.peer(index);
  WorkerMetrics& metrics = worker_metrics_[worker];
  if (obs::TraceSpan* rx = tracer != nullptr ? tracer->span(obs::TraceStage::rx) : nullptr) {
    rx->value = static_cast<std::int64_t>(datagram.size());
  }
  if (batch.rx_truncated(index)) {
    // The query overflowed the arena slot; anything we parsed would be a
    // fragment, so drop it as unparseable.
    metrics.wire_errors->add();
    return;
  }
  std::optional<QueryProbe> probe;
  if (cache != nullptr) {
    probe = QueryProbe::parse(datagram, net::IpAddr{peer.address});
    if (probe) {
      if (tracer != nullptr) tracer->set_qname_wire(probe->qname);
      if (const AnswerCache::Entry* hit = cache->find(*probe, version)) {
        std::vector<std::uint8_t>& wire = batch.stage(peer);
        cache->render(*hit, *probe, wire);
        metrics.queries->add();
        metrics.cache_hits->add();
        if (tracer != nullptr) {
          if (obs::TraceSpan* span = tracer->span(obs::TraceStage::cache_probe)) {
            span->code = 1;
            span->value = static_cast<std::int64_t>(version);
            span->set_detail("hit");
          }
          if (obs::TraceSpan* span = tracer->span(obs::TraceStage::tx)) {
            span->value = static_cast<std::int64_t>(wire.size());
          }
        }
        return;
      }
      metrics.cache_misses->add();
      if (obs::TraceSpan* span =
              tracer != nullptr ? tracer->span(obs::TraceStage::cache_probe) : nullptr) {
        span->code = 0;
        span->value = static_cast<std::int64_t>(version);
        span->set_detail("miss");
      }
    } else if (obs::TraceSpan* span =
                   tracer != nullptr ? tracer->span(obs::TraceStage::cache_probe) : nullptr) {
      span->code = -1;
      span->set_detail("unprobeable");
    }
  }
  // The miss path works in the worker's scratch: decode, handle and
  // encode reuse its containers, so a warm worker allocates nothing here.
  WorkerScratch& scratch = scratch_[worker];
  dns::Message& response = scratch.response;
  try {
    dns::Message::decode_into(datagram, scratch.query);
    const dns::Message& query = scratch.query;
    if (tracer != nullptr && !probe && !query.questions.empty()) {
      dns::DnsName::TextBuffer text;
      tracer->set_qname_text(query.questions.front().name.to_text(text));
    }
    engine_->handle_into(query, net::IpAddr{peer.address}, response);
    metrics.queries->add();
    // RFC 1035 / RFC 6891 size discipline: a response larger than the
    // requester's advertised UDP payload (512 octets without EDNS) is
    // truncated — DNS sections dropped and TC set so the client retries
    // over a bigger channel. RFC 6891 §6.2.3: advertised sizes below 512
    // are treated as exactly 512, so a client advertising 0 or 100
    // octets cannot force nonsensical truncation. The OPT pseudo-record
    // (Message::edns) is NOT a droppable section: RFC 6891 §7 / RFC 7871
    // §7.2.2 require the TC=1 response to keep it so the client still
    // learns our payload limit and the answer's ECS scope.
    std::vector<std::uint8_t>& wire = scratch.wire;
    response.encode_into(wire);
    const std::size_t limit = effective_udp_payload_limit(
        query.edns.has_value(), query.edns ? query.edns->udp_payload_size : 0);
    if (wire.size() > limit) {
      response.answers.clear();
      response.authorities.clear();
      response.additionals.clear();
      response.header.truncated = true;
      metrics.truncated->add();
      response.encode_into(wire);
    }
    if (cache != nullptr && probe) cache->store(*probe, version, wire);
    if (obs::TraceSpan* span =
            tracer != nullptr ? tracer->span(obs::TraceStage::tx) : nullptr) {
      span->value = static_cast<std::int64_t>(wire.size());
    }
    // A swap, not a move: the staged slot takes the bytes and the scratch
    // takes the slot's old buffer, so both keep their capacity.
    std::swap(batch.stage(peer), wire);
    return;
  } catch (const dns::WireError&) {
    // Unparseable datagram: best-effort FORMERR if we can extract an id.
    metrics.wire_errors->add();
    if (datagram.size() < 2) return;  // too short even for an id; drop
    response.clear();
    response.header.id = static_cast<std::uint16_t>((datagram[0] << 8) | datagram[1]);
    response.header.is_response = true;
    response.header.rcode = dns::Rcode::form_err;
  }
  std::vector<std::uint8_t>& wire = batch.stage(peer);
  response.encode_into(wire);
  if (obs::TraceSpan* span = tracer != nullptr ? tracer->span(obs::TraceStage::tx) : nullptr) {
    span->code = static_cast<std::int32_t>(response.header.rcode);
    span->value = static_cast<std::int64_t>(wire.size());
    span->set_detail("formerr");
  }
}

void UdpAuthorityServer::serve_until(const std::atomic<bool>& stop) {
  using namespace std::chrono_literals;
  while (!stop.load(std::memory_order_relaxed)) {
    serve_once(50ms);
  }
}

UdpServerStats UdpAuthorityServer::stats() const {
  UdpServerStats snapshot;
  for (const WorkerMetrics& metrics : worker_metrics_) {
    snapshot.queries += metrics.queries->value();
    snapshot.cache_hits += metrics.cache_hits->value();
    snapshot.cache_misses += metrics.cache_misses->value();
  }
  return snapshot;
}

UdpDnsClient::UdpDnsClient() : socket_(UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}) {}

std::optional<dns::Message> UdpDnsClient::query(const dns::Message& query_msg,
                                                const UdpEndpoint& server,
                                                std::chrono::milliseconds timeout) {
  socket_.send_to(query_msg.encode(), server);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) return std::nullopt;
    UdpEndpoint peer;
    const auto datagram = socket_.receive(remaining, peer);
    if (!datagram) return std::nullopt;
    try {
      dns::Message response = dns::Message::decode(*datagram);
      if (response.header.id == query_msg.header.id && response.header.is_response) {
        return response;
      }
    } catch (const dns::WireError&) {
      // Ignore malformed datagrams and keep waiting until the deadline.
    }
  }
}

UdpUpstream::UdpUpstream(UdpEndpoint server, std::chrono::milliseconds timeout)
    : server_(server), timeout_(timeout) {
  if (timeout_.count() <= 0) {
    throw std::invalid_argument{"UdpUpstream: timeout must be positive"};
  }
}

std::optional<dns::Message> UdpUpstream::try_forward(const dns::Message& query,
                                                     const net::IpAddr& source) {
  (void)source;  // the kernel stamps the real source address
  UdpDnsClient client;
  return client.query(query, server_, timeout_);
}

Upstream::ForwardToResult UdpUpstream::try_forward_to(const net::IpAddr& server,
                                                      const dns::Message& query,
                                                      const net::IpAddr& source) {
  if (!server.is_v4() || server.v4().value() != server_.address.value()) {
    return ForwardToResult{std::nullopt, false};
  }
  return ForwardToResult{try_forward(query, source), true};
}

}  // namespace eum::dnsserver
