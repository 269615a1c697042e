#include "obs/trace.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "dns/message.h"
#include "util/strings.h"

namespace eum::obs {

namespace {

thread_local QueryTracer* t_current_tracer = nullptr;

/// Render one span as text for the flat NDJSON "spans" field.
void render_span(const TraceSpan& span, std::string& out) {
  out += to_string(span.stage);
  out += util::format("[code=%d", span.code);
  if (span.value != 0) out += util::format(" value=%lld", static_cast<long long>(span.value));
  if (span.detail[0] != '\0') {
    out += ' ';
    out += span.detail;
  }
  if (span.elapsed_us != 0) out += util::format(" +%uus", span.elapsed_us);
  out += ']';
}

}  // namespace

const char* to_string(AnswerSource source) noexcept {
  switch (source) {
    case AnswerSource::none: return "none";
    case AnswerSource::static_answer: return "static";
    case AnswerSource::dynamic_answer: return "dynamic";
    case AnswerSource::referral: return "referral";
    case AnswerSource::negative: return "negative";
    case AnswerSource::refused: return "refused";
    case AnswerSource::form_error: return "form_error";
    case AnswerSource::cache_hit: return "cache_hit";
    case AnswerSource::cache_hit_scoped: return "cache_hit_scoped";
    case AnswerSource::upstream: return "upstream";
    case AnswerSource::stale: return "stale";
  }
  return "unknown";
}

const char* to_string(TraceStage stage) noexcept {
  switch (stage) {
    case TraceStage::rx: return "rx";
    case TraceStage::cache_probe: return "cache_probe";
    case TraceStage::map_decision: return "map_decision";
    case TraceStage::handle: return "handle";
    case TraceStage::resolver_attempt: return "resolver_attempt";
    case TraceStage::tx: return "tx";
  }
  return "unknown";
}

std::string anomaly_names(std::uint32_t mask) {
  static constexpr struct {
    std::uint32_t flag;
    const char* name;
  } kNames[] = {
      {TraceAnomaly::kSlow, "slow"},
      {TraceAnomaly::kServfail, "servfail"},
      {TraceAnomaly::kStale, "stale"},
      {TraceAnomaly::kException, "exception"},
      {TraceAnomaly::kSendError, "send_error"},
  };
  std::string out;
  for (const auto& entry : kNames) {
    if ((mask & entry.flag) == 0) continue;
    if (!out.empty()) out += '|';
    out += entry.name;
  }
  return out;
}

void TraceSpan::set_detail(std::string_view text) noexcept {
  const std::size_t n = std::min(text.size(), kDetailSize - 1);
  std::memcpy(detail, text.data(), n);
  detail[n] = '\0';
}

// --- FlightRecorder --------------------------------------------------------
// (FlightRecorder::Ring is the extracted lockfree::MpmcRing kernel; the
// protocol formerly defined here is model-checked in mc/protocols.cpp.)

FlightRecorder::FlightRecorder(FlightRecorderConfig config) : config_(config) {
  sampled_ring_.init(config_.capacity);
  anomaly_ring_.init(config_.capacity);
  for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
    latency_buckets_[i].store(0, std::memory_order_relaxed);
  }
  if (config_.fixed_slow_threshold_us != 0) {
    threshold_us_.store(config_.fixed_slow_threshold_us, std::memory_order_relaxed);
  }
}

bool FlightRecorder::sample() noexcept {
  if (config_.sample_every <= 1) return true;
  return claim_sample_ticks(1) % config_.sample_every == 0;
}

std::uint32_t FlightRecorder::slow_threshold_us() const noexcept {
  return threshold_us_.load(std::memory_order_relaxed);
}

void FlightRecorder::observe_latency(std::uint32_t us) noexcept {
  observe_latency_n(us, 1);
}

void FlightRecorder::observe_latency_n(std::uint32_t us, std::uint32_t count) noexcept {
  if (count == 0) return;
  const std::uint32_t bucket = 31U - static_cast<std::uint32_t>(std::countl_zero(us | 1U));
  latency_buckets_[bucket].fetch_add(count, std::memory_order_relaxed);
  const std::uint64_t before = observed_.fetch_add(count, std::memory_order_relaxed);
  // Refresh the threshold whenever a 1024-observation boundary is
  // crossed; any thread may do it (the recompute is a 32-element scan
  // and the store is idempotent).
  if (config_.fixed_slow_threshold_us == 0 && (before >> 10) != ((before + count) >> 10)) {
    recompute_threshold();
  }
}

void FlightRecorder::recompute_threshold() noexcept {
  std::uint64_t counts[kLatencyBuckets];
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
    counts[i] = latency_buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return;
  // p99 rank: the bucket holding the (total - total/100)-th observation.
  const std::uint64_t rank = total - total / 100;
  std::uint64_t cumulative = 0;
  std::size_t p99_bucket = kLatencyBuckets - 1;
  for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) {
      p99_bucket = i;
      break;
    }
  }
  // Bucket i holds [2^i, 2^(i+1)); its upper bound approximates the p99.
  const double p99_us = static_cast<double>(std::uint64_t{2} << p99_bucket);
  double threshold = config_.slow_factor * p99_us;
  if (threshold < static_cast<double>(config_.min_slow_us)) {
    threshold = static_cast<double>(config_.min_slow_us);
  }
  if (threshold > 4294967295.0) threshold = 4294967295.0;
  threshold_us_.store(static_cast<std::uint32_t>(threshold), std::memory_order_relaxed);
}

void FlightRecorder::commit(const TraceRecord& record) noexcept {
  TraceRecord stamped = record;
  stamped.seq = commit_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Wall-clock microseconds since the epoch, only for correlating kept
  // records with external logs; latencies come from steady_clock.
  stamped.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
  const bool anomalous = stamped.anomalies != 0;
  Ring& ring = anomalous ? anomaly_ring_ : sampled_ring_;
  const std::size_t discarded = ring.push(stamped);
  committed_.fetch_add(1, std::memory_order_relaxed);
  if (anomalous) anomalies_.fetch_add(1, std::memory_order_relaxed);
  if (discarded != 0) overwritten_.fetch_add(discarded, std::memory_order_relaxed);
}

std::vector<TraceRecord> FlightRecorder::drain(std::size_t max) {
  std::vector<TraceRecord> out;
  TraceRecord record;
  while (out.size() < max && sampled_ring_.pop(record)) out.push_back(record);
  while (out.size() < max && anomaly_ring_.pop(record)) out.push_back(record);
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) { return a.seq < b.seq; });
  return out;
}

std::string FlightRecorder::to_ndjson(const TraceRecord& record) {
  std::string spans;
  for (std::uint8_t i = 0; i < record.span_count && i < TraceRecord::kMaxSpans; ++i) {
    if (!spans.empty()) spans += "; ";
    render_span(record.spans[i], spans);
  }
  // Addresses, prefixes and DNS mnemonics render as plain ASCII with no
  // quote or backslash, so only qname and spans need escaping.
  std::string out = util::format(
      "{\"seq\":%llu,\"ts_us\":%lld,\"worker\":%u,\"client\":\"%s\",",
      static_cast<unsigned long long>(record.seq), static_cast<long long>(record.ts_us),
      record.worker, record.client.to_string().c_str());
  if (record.ecs) out += "\"ecs\":\"" + record.ecs->to_string() + "\",";
  out += "\"qname\":\"" + util::json_escape(record.qname) + "\",";
  if (record.source != AnswerSource::none) {
    out += util::format("\"qtype\":\"%s\",\"source\":\"%s\",\"rcode\":\"%s\",",
                        dns::to_string(record.qtype).c_str(), to_string(record.source),
                        dns::to_string(record.rcode).c_str());
  }
  out += util::format(
      "\"latency_us\":%u,\"sampled\":%u,\"anomalies\":\"%s\",\"spans\":\"%s\"}",
      record.latency_us, record.sampled, anomaly_names(record.anomalies).c_str(),
      util::json_escape(spans).c_str());
  return out;
}

// --- QueryTracer -----------------------------------------------------------

void QueryTracer::begin(std::chrono::steady_clock::time_point started) noexcept {
  if (recorder_ == nullptr) return;
  scratch_.ts_us = 0;
  scratch_.worker = worker_;
  scratch_.latency_us = 0;
  scratch_.anomalies = 0;
  scratch_.sampled = next_tick_sampled() ? 1 : 0;
  scratch_.span_count = 0;
  scratch_.client = net::IpAddr{};
  scratch_.qname[0] = '\0';
  scratch_.ecs.reset();
  scratch_.qtype = dns::RecordType{};
  scratch_.source = AnswerSource::none;
  scratch_.rcode = dns::Rcode::no_error;
  deferred_qname_ = {};
  started_ = started;
  active_ = true;
}

void QueryTracer::render_qname(std::span<const std::uint8_t> labels) noexcept {
  std::size_t out = 0;
  std::size_t i = 0;
  while (i < labels.size()) {
    const std::uint8_t len = labels[i++];
    if (len == 0 || len > 63 || i + len > labels.size()) break;
    for (std::uint8_t k = 0; k < len && out + 2 < TraceRecord::kQnameSize; ++k) {
      const char c = static_cast<char>(labels[i + k]);
      scratch_.qname[out++] = (c >= 0x21 && c <= 0x7E) ? c : '?';
    }
    if (out + 1 < TraceRecord::kQnameSize) scratch_.qname[out++] = '.';
    i += len;
  }
  if (out == 0) scratch_.qname[out++] = '.';
  scratch_.qname[out] = '\0';
}

void QueryTracer::set_qname_text(std::string_view text) noexcept {
  const std::size_t n = std::min(text.size(), TraceRecord::kQnameSize - 1);
  std::memcpy(scratch_.qname, text.data(), n);
  scratch_.qname[n] = '\0';
}

void QueryTracer::set_answer(const net::IpAddr& client, const dns::Message& query,
                             AnswerSource source, dns::Rcode rcode) noexcept {
  if (!active_) return;
  scratch_.client = client;
  if (const dns::ClientSubnetOption* ecs = query.client_subnet()) {
    scratch_.ecs = ecs->source_block();
  } else {
    scratch_.ecs.reset();
  }
  scratch_.qtype = query.questions.empty() ? dns::RecordType{} : query.questions.front().type;
  scratch_.source = source;
  scratch_.rcode = rcode;
}

TraceSpan* QueryTracer::span(TraceStage stage) noexcept {
  if (!active_ || scratch_.span_count >= TraceRecord::kMaxSpans) return nullptr;
  TraceSpan& slot = scratch_.spans[scratch_.span_count++];
  slot.stage = stage;
  slot.code = 0;
  slot.value = 0;
  slot.detail[0] = '\0';
  slot.elapsed_us = 0;
  if (scratch_.sampled != 0) {
    slot.elapsed_us = static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started_)
            .count());
  }
  return &slot;
}

void QueryTracer::finish() noexcept {
  if (!active_) return;
  active_ = false;
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - started_);
  scratch_.latency_us =
      static_cast<std::uint32_t>(std::min<std::int64_t>(elapsed.count(), 0xFFFFFFFFLL));
  // Coalesce the rolling-estimate feed instead of touching the shared
  // counters per query: consecutive fast-path queries land in the same
  // power-of-two bucket, so one flush per rx batch (or bucket change)
  // carries the whole run and the per-query cost stays plain stores.
  const auto bucket = static_cast<std::uint8_t>(
      31U - static_cast<std::uint32_t>(std::countl_zero(scratch_.latency_us | 1U)));
  if (pending_count_ != 0 && bucket != pending_bucket_) flush_observations();
  pending_bucket_ = bucket;
  pending_us_ = scratch_.latency_us;
  ++pending_count_;
  if (scratch_.latency_us > recorder_->slow_threshold_us()) {
    scratch_.anomalies |= TraceAnomaly::kSlow;
  }
  if (scratch_.sampled == 0 && scratch_.anomalies == 0) return;
  // Work deferred to the 1-in-N commit path: decoding the wire qname
  // (and, in commit(), reading the wall clock) happen only for records
  // actually kept.
  if (scratch_.qname[0] == '\0' && !deferred_qname_.empty()) {
    render_qname(deferred_qname_);
  }
  recorder_->commit(scratch_);
}

bool QueryTracer::next_tick_sampled() noexcept {
  const std::uint32_t every = recorder_->config().sample_every;
  if (every <= 1) return true;
  // Same tick stream as FlightRecorder::sample() (tick t samples iff
  // t % every == 0), claimed in strides so the shared cursor is one
  // fetch_add per kSampleStride queries instead of one per query —
  // cross-worker cache-line traffic is what a per-query claim would
  // cost. The division runs once per stride; the per-query path is a
  // compare and an add.
  if (stride_left_ == 0) {
    stride_base_ = recorder_->claim_sample_ticks(kSampleStride);
    stride_left_ = kSampleStride;
    next_sampled_tick_ = ((stride_base_ + every - 1) / every) * static_cast<std::uint64_t>(every);
  }
  const std::uint64_t tick = stride_base_ + (kSampleStride - stride_left_);
  --stride_left_;
  if (tick != next_sampled_tick_) return false;
  next_sampled_tick_ += every;
  return true;
}

void QueryTracer::flush_observations() noexcept {
  if (pending_count_ == 0 || recorder_ == nullptr) return;
  recorder_->observe_latency_n(pending_us_, pending_count_);
  pending_count_ = 0;
}

// --- thread-local installation ---------------------------------------------

QueryTracer* current_tracer() noexcept { return t_current_tracer; }

void set_current_tracer(QueryTracer* tracer) noexcept { t_current_tracer = tracer; }

}  // namespace eum::obs
