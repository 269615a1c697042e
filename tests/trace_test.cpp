// Query flight recorder: the Vyukov trace rings, the per-worker
// QueryTracer scratch, the anomaly-retention guarantee, the NDJSON
// exposition, and the answer fields the authority and the resolver fill
// in (TraceFields). Every suite here runs under TSan via
// scripts/tsan_check.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dnsserver/transport.h"
#include "dnsserver/udp.h"
#include "ndjson_check.h"
#include "obs/trace.h"
#include "util/sim_clock.h"

namespace eum::obs {
namespace {

using namespace std::chrono_literals;

/// Recorder whose slow threshold is pinned high: latency can never make
/// a test query anomalous by accident.
FlightRecorderConfig quiet_config() {
  FlightRecorderConfig config;
  config.sample_every = 1;
  config.fixed_slow_threshold_us = 0xFFFFFFFEU;
  return config;
}

TraceRecord make_record(std::uint32_t anomalies = 0, std::uint8_t sampled = 1) {
  TraceRecord record;
  record.ts_us = 1722945600000000;
  record.worker = 3;
  record.latency_us = 42;
  record.anomalies = anomalies;
  record.sampled = sampled;
  record.client = net::IpAddr{net::IpV4Addr{192, 0, 2, 53}};
  const char qname[] = "www.g.cdn.example";
  std::copy(qname, qname + sizeof(qname), record.qname);
  record.ecs = net::IpPrefix::parse("10.2.3.0/24");
  record.qtype = dns::RecordType::A;
  record.source = AnswerSource::dynamic_answer;
  record.rcode = dns::Rcode::no_error;
  record.span_count = 2;
  record.spans[0].stage = TraceStage::rx;
  record.spans[0].value = 64;
  record.spans[1].stage = TraceStage::tx;
  record.spans[1].value = 128;
  record.spans[1].set_detail("staged");
  return record;
}

// ---------- FlightRecorder: sampling, routing, drain, overwrite ----------

TEST(FlightRecorderTest, SamplerKeepsEveryNth) {
  FlightRecorderConfig config;
  config.sample_every = 4;
  FlightRecorder recorder{config};
  int sampled = 0;
  for (int i = 0; i < 100; ++i) sampled += recorder.sample() ? 1 : 0;
  EXPECT_EQ(sampled, 25);

  FlightRecorder every{quiet_config()};  // sample_every = 1
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(every.sample());
}

TEST(FlightRecorderTest, ThresholdStartsUnreachableAndFixedPinsIt) {
  FlightRecorder rolling{FlightRecorderConfig{}};
  // No baseline yet: nothing is "slow".
  EXPECT_EQ(rolling.slow_threshold_us(), 0xFFFFFFFFU);

  FlightRecorderConfig pinned;
  pinned.fixed_slow_threshold_us = 500;
  FlightRecorder fixed{pinned};
  EXPECT_EQ(fixed.slow_threshold_us(), 500U);
  // The rolling estimate must not overwrite an operator-pinned value.
  for (int i = 0; i < 5000; ++i) fixed.observe_latency(10);
  EXPECT_EQ(fixed.slow_threshold_us(), 500U);
  EXPECT_EQ(fixed.observed(), 5000U);
}

TEST(FlightRecorderTest, RollingThresholdTracksObservedLatency) {
  FlightRecorderConfig config;
  config.min_slow_us = 1;
  config.slow_factor = 4.0;
  FlightRecorder recorder{config};
  // 100us-ish traffic; after the 1024-observation cadence the threshold
  // must come down from "unreachable" to a few bucket widths above p99.
  for (int i = 0; i < 2048; ++i) recorder.observe_latency(100);
  EXPECT_LT(recorder.slow_threshold_us(), 0xFFFFFFFFU);
  EXPECT_GE(recorder.slow_threshold_us(), 100U);
  EXPECT_LE(recorder.slow_threshold_us(), 4096U);  // 4x the 128..256 bucket's upper bound
}

TEST(FlightRecorderTest, CommitRoutesAnomaliesToTheirOwnRing) {
  FlightRecorder recorder{quiet_config()};
  recorder.commit(make_record());
  recorder.commit(make_record(TraceAnomaly::kServfail));
  EXPECT_EQ(recorder.committed(), 2U);
  EXPECT_EQ(recorder.anomalies_retained(), 1U);

  const std::vector<TraceRecord> drained = recorder.drain();
  ASSERT_EQ(drained.size(), 2U);
  // Drain is ordered by the global commit sequence the recorder stamped.
  EXPECT_LT(drained[0].seq, drained[1].seq);
  EXPECT_EQ(drained[0].anomalies, 0U);
  EXPECT_EQ(drained[1].anomalies, TraceAnomaly::kServfail);
  EXPECT_TRUE(recorder.drain().empty());
}

TEST(FlightRecorderTest, HealthyFloodCannotEvictAnomalies) {
  FlightRecorderConfig config = quiet_config();
  config.capacity = 8;
  FlightRecorder recorder{config};
  // One anomaly, then far more healthy sampled traffic than the ring
  // holds: the sampled ring overwrites its own oldest, the anomaly ring
  // is untouched.
  recorder.commit(make_record(TraceAnomaly::kException));
  for (int i = 0; i < 100; ++i) recorder.commit(make_record());
  EXPECT_EQ(recorder.overwritten(), 100U - 8U);

  const std::vector<TraceRecord> drained = recorder.drain();
  const auto anomalous =
      std::count_if(drained.begin(), drained.end(),
                    [](const TraceRecord& r) { return r.anomalies != 0; });
  EXPECT_EQ(anomalous, 1);
  EXPECT_EQ(drained.size(), 8U + 1U);  // full sampled ring + the retained anomaly
}

TEST(FlightRecorderTest, DrainHonoursMax) {
  FlightRecorder recorder{quiet_config()};
  for (int i = 0; i < 10; ++i) recorder.commit(make_record());
  EXPECT_EQ(recorder.drain(3).size(), 3U);
  EXPECT_EQ(recorder.drain().size(), 7U);
}

TEST(FlightRecorderTest, AnomalyNamesRenderAsPipeList) {
  EXPECT_EQ(anomaly_names(0), "");
  EXPECT_EQ(anomaly_names(TraceAnomaly::kSlow), "slow");
  EXPECT_EQ(anomaly_names(TraceAnomaly::kSlow | TraceAnomaly::kServfail), "slow|servfail");
  EXPECT_EQ(anomaly_names(TraceAnomaly::kStale | TraceAnomaly::kException |
                          TraceAnomaly::kSendError),
            "stale|exception|send_error");
}

// ---------- NDJSON exposition ----------

TEST(FlightRecorderTest, NdjsonIsFlatAndComplete) {
  const std::string line = FlightRecorder::to_ndjson(make_record(TraceAnomaly::kSlow));
  const auto fields = test::parse_ndjson_line(line);
  ASSERT_TRUE(fields.has_value()) << line;
  EXPECT_EQ(fields->at("ts_us"), "1722945600000000");
  EXPECT_EQ(fields->at("worker"), "3");
  EXPECT_EQ(fields->at("client"), "192.0.2.53");
  EXPECT_EQ(fields->at("ecs"), "10.2.3.0/24");
  EXPECT_EQ(fields->at("qname"), "www.g.cdn.example");
  EXPECT_EQ(fields->at("qtype"), "A");
  EXPECT_EQ(fields->at("source"), "dynamic");
  EXPECT_EQ(fields->at("rcode"), "NOERROR");
  EXPECT_EQ(fields->at("latency_us"), "42");
  EXPECT_EQ(fields->at("sampled"), "1");
  EXPECT_EQ(fields->at("anomalies"), "slow");
  // Spans fold into ONE string field so the schema stays flat.
  EXPECT_NE(fields->at("spans").find("rx[code=0 value=64]"), std::string::npos);
  EXPECT_NE(fields->at("spans").find("tx[code=0 value=128 staged]"), std::string::npos);
}

TEST(FlightRecorderTest, NdjsonEscapesHostileDetailText) {
  TraceRecord record = make_record();
  record.span_count = 1;
  record.spans[0].set_detail("quote\" back\\slash");
  const char qname[] = "we\"ird\\name.example";
  std::copy(qname, qname + sizeof(qname), record.qname);
  const std::string line = FlightRecorder::to_ndjson(record);
  const auto fields = test::parse_ndjson_line(line);
  ASSERT_TRUE(fields.has_value()) << line;
  EXPECT_EQ(fields->at("qname"), "we\"ird\\name.example");
  EXPECT_NE(fields->at("spans").find("quote\" back\\slash"), std::string::npos);
}

TEST(FlightRecorderTest, NdjsonOmitsAbsentEcsAndUnansweredFields) {
  TraceRecord record = make_record();
  record.client = *net::IpAddr::parse("2001:db8::53");
  record.ecs.reset();  // the query carried no ECS
  const char qname[] = "we\"ird\\na\nme.example";
  std::copy(qname, qname + sizeof(qname), record.qname);
  auto fields = test::parse_ndjson_line(FlightRecorder::to_ndjson(record));
  ASSERT_TRUE(fields.has_value());
  EXPECT_EQ(fields->at("client"), "2001:db8::53");
  EXPECT_EQ(fields->count("ecs"), 0U);
  EXPECT_EQ(fields->at("source"), "dynamic");
  EXPECT_EQ(fields->at("qname"), "we\"ird\\na\nme.example");

  record.source = AnswerSource::none;  // no answering layer ran
  fields = test::parse_ndjson_line(FlightRecorder::to_ndjson(record));
  ASSERT_TRUE(fields.has_value());
  EXPECT_EQ(fields->count("qtype"), 0U);
  EXPECT_EQ(fields->count("source"), 0U);
  EXPECT_EQ(fields->count("rcode"), 0U);
  EXPECT_NE(fields->find("latency_us"), fields->end());
}

TEST(FlightRecorderTest, CommitStampsSequenceAndWallClock) {
  FlightRecorder recorder{quiet_config()};
  TraceRecord record = make_record();
  record.seq = 0;
  record.ts_us = 0;
  recorder.commit(record);
  recorder.commit(record);
  const std::vector<TraceRecord> drained = recorder.drain();
  ASSERT_EQ(drained.size(), 2U);
  EXPECT_EQ(drained[0].seq, 1U);
  EXPECT_EQ(drained[1].seq, 2U);
  // Microseconds since the Unix epoch, so later than 2020-01-01.
  for (const TraceRecord& stamped : drained) EXPECT_GT(stamped.ts_us, 1577836800000000);
}

// ---------- QueryTracer ----------

TEST(QueryTracerTest, UnsampledHealthyQueryCommitsNothing) {
  FlightRecorderConfig config = quiet_config();
  config.sample_every = 1U << 30;  // only the very first query samples
  FlightRecorder recorder{config};
  QueryTracer tracer{&recorder, 0};
  tracer.begin();  // sampler pick #1: sampled
  tracer.finish();
  tracer.begin();  // unsampled, healthy
  (void)tracer.span(TraceStage::rx);
  tracer.finish();
  EXPECT_EQ(recorder.committed(), 1U);
  const std::vector<TraceRecord> drained = recorder.drain();
  ASSERT_EQ(drained.size(), 1U);
  EXPECT_EQ(drained[0].sampled, 1U);
}

TEST(QueryTracerTest, AnomalyCommitsEvenWhenUnsampled) {
  FlightRecorderConfig config = quiet_config();
  config.sample_every = 1U << 30;
  FlightRecorder recorder{config};
  QueryTracer tracer{&recorder, 7};
  tracer.begin();
  tracer.finish();  // burn the sampled first pick
  tracer.begin();
  tracer.set_client(net::IpAddr{net::IpV4Addr{127, 0, 0, 1}});
  if (TraceSpan* span = tracer.span(TraceStage::handle)) span->code = 2;
  tracer.note_anomaly(TraceAnomaly::kServfail);
  tracer.finish();
  EXPECT_EQ(recorder.anomalies_retained(), 1U);
  const std::vector<TraceRecord> drained = recorder.drain();
  ASSERT_EQ(drained.size(), 2U);
  const TraceRecord& anomaly = drained.back();
  EXPECT_EQ(anomaly.sampled, 0U);
  EXPECT_EQ(anomaly.anomalies, TraceAnomaly::kServfail);
  EXPECT_EQ(anomaly.worker, 7U);
  EXPECT_GT(anomaly.ts_us, 0);  // wall clock stamped at commit
  ASSERT_EQ(anomaly.span_count, 1U);
  EXPECT_EQ(anomaly.spans[0].stage, TraceStage::handle);
  EXPECT_EQ(anomaly.spans[0].code, 2);
}

TEST(QueryTracerTest, SlowThresholdMarksSlowQueries) {
  FlightRecorderConfig config;
  config.sample_every = 1U << 30;
  config.fixed_slow_threshold_us = 1000;
  FlightRecorder recorder{config};
  QueryTracer tracer{&recorder, 0};
  tracer.begin();
  tracer.finish();  // first (sampled) pick, fast
  tracer.begin();
  std::this_thread::sleep_for(5ms);  // well past the 1ms pinned threshold
  tracer.finish();
  const std::vector<TraceRecord> drained = recorder.drain();
  ASSERT_EQ(drained.size(), 2U);
  EXPECT_EQ(drained[1].anomalies, TraceAnomaly::kSlow);
  EXPECT_GE(drained[1].latency_us, 1000U);
  // The fast and slow queries fell into different buckets, so the slow
  // finish flushed the fast run; the slow observation itself is still
  // coalesced in the tracer until the worker's batch-end flush.
  EXPECT_EQ(recorder.observed(), 1U);
  tracer.flush_observations();
  EXPECT_EQ(recorder.observed(), 2U);  // every finish feeds the estimate
}

TEST(QueryTracerTest, FinishIsIdempotent) {
  FlightRecorder recorder{quiet_config()};
  QueryTracer tracer{&recorder, 0};
  tracer.begin();
  tracer.finish();
  tracer.finish();  // the worker loop's unconditional finish after a throw
  EXPECT_EQ(recorder.committed(), 1U);
  tracer.flush_observations();
  EXPECT_EQ(recorder.observed(), 1U);  // the double finish observed once
}

TEST(QueryTracerTest, SpanArrayIsBoundedAndInactiveTracerRefuses) {
  FlightRecorder recorder{quiet_config()};
  QueryTracer tracer{&recorder, 0};
  EXPECT_EQ(tracer.span(TraceStage::rx), nullptr);  // before begin()
  tracer.begin();
  for (std::size_t i = 0; i < TraceRecord::kMaxSpans; ++i) {
    EXPECT_NE(tracer.span(TraceStage::rx), nullptr) << i;
  }
  EXPECT_EQ(tracer.span(TraceStage::rx), nullptr);  // full
  tracer.finish();
  EXPECT_EQ(tracer.span(TraceStage::rx), nullptr);  // after finish()
}

TEST(QueryTracerTest, WireQnameDecodesLabelsWithoutAllocation) {
  FlightRecorder recorder{quiet_config()};
  QueryTracer tracer{&recorder, 0};
  tracer.begin();
  const std::uint8_t labels[] = {3, 'w', 'w', 'w', 1, 'g', 7, 'e',
                                 'x', 'a', 'm', 'p', 'l', 'e', 0};
  tracer.set_qname_wire(labels);
  tracer.finish();
  const std::vector<TraceRecord> drained = recorder.drain();
  ASSERT_EQ(drained.size(), 1U);
  EXPECT_STREQ(drained[0].qname, "www.g.example.");
}

TEST(QueryTracerTest, BeginClearsClientAndAnswerFields) {
  FlightRecorder recorder{quiet_config()};
  QueryTracer tracer{&recorder, 0};
  const auto ecs = dns::ClientSubnetOption::for_query(*net::IpAddr::parse("10.2.3.4"), 24);
  const dns::Message query = dns::Message::make_query(
      1, dns::DnsName::from_text("www.g.cdn.example"), dns::RecordType::AAAA, ecs);
  tracer.begin();
  tracer.set_answer(*net::IpAddr::parse("2001:db8::1"), query, AnswerSource::dynamic_answer,
                    dns::Rcode::refused);
  tracer.finish();
  tracer.begin();  // the next datagram never reaches an answering layer
  tracer.finish();
  const std::vector<TraceRecord> drained = recorder.drain();
  ASSERT_EQ(drained.size(), 2U);
  EXPECT_EQ(drained[0].client, *net::IpAddr::parse("2001:db8::1"));
  EXPECT_EQ(drained[0].ecs, net::IpPrefix::parse("10.2.3.0/24"));
  EXPECT_EQ(drained[0].qtype, dns::RecordType::AAAA);
  EXPECT_EQ(drained[0].source, AnswerSource::dynamic_answer);
  EXPECT_EQ(drained[0].rcode, dns::Rcode::refused);
  EXPECT_EQ(drained[1].client, net::IpAddr{});
  EXPECT_FALSE(drained[1].ecs.has_value());
  EXPECT_EQ(drained[1].qtype, dns::RecordType{});
  EXPECT_EQ(drained[1].source, AnswerSource::none);
  EXPECT_EQ(drained[1].rcode, dns::Rcode::no_error);
}

TEST(QueryTracerTest, TracerScopeInstallsAndRestores) {
  FlightRecorder recorder{quiet_config()};
  QueryTracer outer{&recorder, 0};
  QueryTracer inner{&recorder, 1};
  EXPECT_EQ(current_tracer(), nullptr);
  {
    TracerScope outer_scope{&outer};
    EXPECT_EQ(current_tracer(), &outer);
    {
      TracerScope inner_scope{&inner};
      EXPECT_EQ(current_tracer(), &inner);
    }
    EXPECT_EQ(current_tracer(), &outer);
  }
  EXPECT_EQ(current_tracer(), nullptr);
}

// ---------- Concurrency (TSan-gated) ----------

TEST(TraceConcurrency, WorkersCommitWhileDraining) {
  // N producer threads, each with its own QueryTracer (the production
  // ownership model), share one recorder while the main thread drains
  // concurrently — the admin channel's `traces` against live workers.
  FlightRecorderConfig config;
  config.capacity = 1 << 12;
  config.sample_every = 1;
  config.fixed_slow_threshold_us = 0xFFFFFFFEU;
  FlightRecorder recorder{config};

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&recorder, &go, t] {
      QueryTracer tracer{&recorder, static_cast<std::uint32_t>(t)};
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        tracer.begin();
        tracer.set_client(net::IpAddr{net::IpV4Addr{0x0A000000U + static_cast<std::uint32_t>(i)}});
        if (TraceSpan* span = tracer.span(TraceStage::rx)) span->value = i;
        if (i % 16 == 0) tracer.note_anomaly(TraceAnomaly::kServfail);
        tracer.finish();
      }
    });
  }

  std::vector<TraceRecord> drained;
  go.store(true, std::memory_order_release);
  while (recorder.committed() < static_cast<std::uint64_t>(kThreads) * kPerThread) {
    for (const TraceRecord& record : recorder.drain(64)) drained.push_back(record);
    std::this_thread::yield();
  }
  for (std::thread& worker : workers) worker.join();
  for (const TraceRecord& record : recorder.drain()) drained.push_back(record);

  EXPECT_EQ(recorder.committed(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(recorder.anomalies_retained(),
            static_cast<std::uint64_t>(kThreads) * (kPerThread / 16));
  // Overwrites are possible mid-race; everything NOT overwritten drained
  // exactly once, with distinct sequence numbers and valid NDJSON.
  EXPECT_EQ(drained.size() + recorder.overwritten(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  std::vector<std::uint64_t> seqs;
  seqs.reserve(drained.size());
  for (const TraceRecord& record : drained) seqs.push_back(record.seq);
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(std::adjacent_find(seqs.begin(), seqs.end()), seqs.end());
  for (std::size_t i = 0; i < drained.size(); i += 97) {
    EXPECT_TRUE(test::parse_ndjson_line(FlightRecorder::to_ndjson(drained[i])).has_value());
  }
}

// ---------- End-to-end retention over real UDP (TSan-gated) ----------

TEST(TraceRetention, EveryInjectedAnomalyIsRetained) {
  // The acceptance gate: sampling set so low that healthy traffic is
  // (almost) never traced, yet 100% of the injected anomalies — worker
  // exceptions and slow queries — must come out of the recorder.
  using namespace dnsserver;
  constexpr int kBoom = 12;
  constexpr int kSlow = 12;
  constexpr int kHealthy = 30;

  AuthoritativeServer engine;
  engine.add_dynamic_domain(
      dns::DnsName::from_text("g.cdn.example"),
      [](const DynamicQuery& query) -> std::optional<DynamicAnswer> {
        const std::string qname = query.qname.to_string();
        if (qname.rfind("boom", 0) == 0) throw std::runtime_error{"injected fault"};
        // Far above the pinned threshold, with margin for sanitizer
        // builds where even a healthy query costs a few milliseconds.
        if (qname.rfind("slow", 0) == 0) std::this_thread::sleep_for(60ms);
        DynamicAnswer answer;
        answer.ttl = 20;
        answer.addresses = {net::IpAddr{net::IpV4Addr{203, 0, 113, 1}}};
        return answer;
      });

  FlightRecorderConfig trace_config;
  trace_config.sample_every = 1U << 30;  // sampling alone keeps ~nothing
  trace_config.fixed_slow_threshold_us = 25000;
  FlightRecorder recorder{trace_config};

  UdpServerConfig config;
  config.workers = 2;
  config.recorder = &recorder;
  UdpAuthorityServer server{&engine, UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}, config};
  server.start();

  UdpDnsClient client;
  std::uint16_t id = 0;
  const auto ask = [&](const std::string& qname, std::chrono::milliseconds timeout) {
    return client.query(
        dns::Message::make_query(++id, dns::DnsName::from_text(qname), dns::RecordType::A),
        server.endpoint(), timeout);
  };
  for (int i = 0; i < kHealthy; ++i) {
    EXPECT_TRUE(ask("h" + std::to_string(i) + ".g.cdn.example", 2000ms).has_value());
  }
  for (int i = 0; i < kSlow; ++i) {
    EXPECT_TRUE(ask("slow" + std::to_string(i) + ".g.cdn.example", 2000ms).has_value());
  }
  for (int i = 0; i < kBoom; ++i) {
    // The worker barrier eats the throw; no response comes back.
    EXPECT_FALSE(ask("boom" + std::to_string(i) + ".g.cdn.example", 50ms).has_value());
  }
  server.stop();

  const std::vector<TraceRecord> drained = recorder.drain();
  int exceptions = 0;
  int slow = 0;
  int sampled_healthy = 0;
  for (const TraceRecord& record : drained) {
    if ((record.anomalies & TraceAnomaly::kException) != 0) ++exceptions;
    if ((record.anomalies & TraceAnomaly::kSlow) != 0 &&
        std::string_view{record.qname}.rfind("slow", 0) == 0) {
      ++slow;
    }
    if (record.anomalies == 0) ++sampled_healthy;
    EXPECT_TRUE(test::parse_ndjson_line(FlightRecorder::to_ndjson(record)).has_value());
  }
  // 100% retention of both anomaly families...
  EXPECT_EQ(exceptions, kBoom);
  EXPECT_EQ(slow, kSlow);
  EXPECT_EQ(recorder.anomalies_retained(), static_cast<std::uint64_t>(exceptions + slow));
  // ...while healthy traffic was sampled down to (at most) the first pick
  // of the shared sampler.
  EXPECT_LE(sampled_healthy, 1);
  EXPECT_EQ(recorder.observed(),
            static_cast<std::uint64_t>(kBoom + kSlow + kHealthy));
}

// ---------- Answer fields from the answering layers ----------

dns::Message cdn_query(std::uint16_t id) {
  const auto ecs = dns::ClientSubnetOption::for_query(*net::IpAddr::parse("10.2.3.4"), 24);
  return dns::Message::make_query(id, dns::DnsName::from_text("www.g.cdn.example"),
                                  dns::RecordType::A, ecs);
}

dnsserver::AuthoritativeServer make_cdn_engine() {
  dnsserver::AuthoritativeServer engine;
  engine.add_dynamic_domain(
      dns::DnsName::from_text("g.cdn.example"),
      [](const dnsserver::DynamicQuery&) -> std::optional<dnsserver::DynamicAnswer> {
        dnsserver::DynamicAnswer answer;
        answer.addresses = {net::IpAddr{net::IpV4Addr{203, 0, 113, 1}}};
        answer.ecs_scope_len = 24;
        return answer;
      });
  return engine;
}

std::map<std::string, std::string> ndjson_fields(const TraceRecord& record) {
  const std::string line = FlightRecorder::to_ndjson(record);
  auto fields = test::parse_ndjson_line(line);
  EXPECT_TRUE(fields.has_value()) << line;
  return fields.value_or(std::map<std::string, std::string>{});
}

TEST(TraceFields, AuthorityRecordsAnswerSources) {
  FlightRecorder recorder{quiet_config()};
  QueryTracer tracer{&recorder, 0};
  const TracerScope scope{&tracer};
  dnsserver::AuthoritativeServer engine = make_cdn_engine();
  const net::IpAddr resolver{net::IpV4Addr{192, 0, 2, 53}};
  tracer.begin();
  (void)engine.handle(cdn_query(1), resolver);
  tracer.finish();
  // And one REFUSED (no zone matches).
  tracer.begin();
  (void)engine.handle(dns::Message::make_query(2, dns::DnsName::from_text("other.example"),
                                               dns::RecordType::A),
                      resolver);
  tracer.finish();

  const std::vector<TraceRecord> drained = recorder.drain();
  ASSERT_EQ(drained.size(), 2U);
  const auto dynamic = ndjson_fields(drained[0]);
  EXPECT_EQ(dynamic.at("client"), "192.0.2.53");
  EXPECT_EQ(dynamic.at("source"), "dynamic");
  EXPECT_EQ(dynamic.at("ecs"), "10.2.3.0/24");
  EXPECT_EQ(dynamic.at("qtype"), "A");
  EXPECT_EQ(dynamic.at("rcode"), "NOERROR");
  const auto refused = ndjson_fields(drained[1]);
  EXPECT_EQ(refused.at("source"), "refused");
  EXPECT_EQ(refused.at("rcode"), "REFUSED");
  EXPECT_EQ(refused.count("ecs"), 0U);
}

TEST(TraceFields, ResolverRecordsCacheOutcomes) {
  FlightRecorder recorder{quiet_config()};
  QueryTracer tracer{&recorder, 0};
  const TracerScope scope{&tracer};
  util::SimClock clock;
  dnsserver::AuthoritativeServer engine = make_cdn_engine();
  dnsserver::AuthorityDirectory directory;
  directory.add_authority(dns::DnsName::from_text("g.cdn.example"), &engine);
  dnsserver::ResolverConfig config;
  config.ecs_enabled = true;
  dnsserver::RecursiveResolver resolver{config, &clock, &directory,
                                        *net::IpAddr::parse("198.51.100.1")};
  const net::IpAddr client = *net::IpAddr::parse("10.2.3.4");
  for (std::uint16_t id = 1; id <= 2; ++id) {  // miss -> upstream, then a scoped hit
    tracer.begin();
    (void)resolver.resolve(cdn_query(id), client);
    tracer.finish();
  }

  const std::vector<TraceRecord> drained = recorder.drain();
  ASSERT_EQ(drained.size(), 2U);
  EXPECT_EQ(drained[0].source, AnswerSource::upstream);
  EXPECT_EQ(drained[1].source, AnswerSource::cache_hit_scoped);
  // The resolver writes after the authority it reached: the upstream
  // record is the client's view, not the authority's.
  EXPECT_EQ(drained[0].client, client);
  EXPECT_EQ(ndjson_fields(drained[0]).at("source"), "upstream");
  EXPECT_EQ(ndjson_fields(drained[1]).at("source"), "cache_hit_scoped");
}

TEST(TraceFields, CacheHitAndUndecodableDatagramCarryNoAnswerFields) {
  // A datagram answered from the wire answer cache, or one that never
  // decodes, reaches no answering layer: its record must not inherit the
  // previous datagram's ECS, qtype or answer source from the worker's
  // reused scratch.
  dnsserver::AuthoritativeServer engine = make_cdn_engine();
  FlightRecorder recorder{quiet_config()};
  dnsserver::UdpServerConfig config;
  config.answer_cache_entries = 64;
  config.recorder = &recorder;
  dnsserver::UdpAuthorityServer server{
      &engine, dnsserver::UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}, config};
  server.start();
  dnsserver::UdpDnsClient client;
  EXPECT_TRUE(client.query(cdn_query(1), server.endpoint(), 2000ms).has_value());  // miss
  EXPECT_TRUE(client.query(cdn_query(2), server.endpoint(), 2000ms).has_value());  // hit
  dnsserver::UdpSocket socket{dnsserver::UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}};
  const std::vector<std::uint8_t> garbage{0xAB, 0xCD, 0xFF};
  socket.send_to(garbage, server.endpoint());
  dnsserver::UdpEndpoint peer;
  EXPECT_TRUE(socket.receive(2000ms, peer).has_value());  // FORMERR
  server.stop();

  const std::vector<TraceRecord> drained = recorder.drain();
  ASSERT_EQ(drained.size(), 3U);
  EXPECT_EQ(drained[0].source, AnswerSource::dynamic_answer);
  EXPECT_TRUE(drained[0].ecs.has_value());
  for (std::size_t i = 1; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i].source, AnswerSource::none) << i;
    EXPECT_FALSE(drained[i].ecs.has_value()) << i;
    EXPECT_EQ(drained[i].qtype, dns::RecordType{}) << i;
    const auto fields = ndjson_fields(drained[i]);
    EXPECT_EQ(fields.count("ecs"), 0U) << i;
    EXPECT_EQ(fields.count("qtype"), 0U) << i;
    EXPECT_EQ(fields.count("source"), 0U) << i;
    EXPECT_EQ(fields.at("client"), "127.0.0.1") << i;
  }
  EXPECT_NE(std::string_view{drained[1].qname}.find("www.g.cdn.example"), std::string_view::npos);
}

// ---------- The query log: the recorder's kept records ----------
//
// The records the recorder keeps are the server's query log: one NDJSON
// line per kept query, sampled 1-in-N, bounded with counted overwrites,
// fed by every worker at once.

TEST(QueryLogTest, NdjsonLineIsValidAndComplete) {
  // Recorded the way an answering layer records a query, not built by
  // hand: every query-log field reaches the line.
  FlightRecorder recorder{quiet_config()};
  QueryTracer tracer{&recorder, 0};
  tracer.begin();
  tracer.set_qname_text("www.g.cdn.example");
  tracer.set_answer(net::IpAddr{net::IpV4Addr{192, 0, 2, 53}}, cdn_query(1),
                    AnswerSource::dynamic_answer, dns::Rcode::no_error);
  tracer.finish();

  const std::vector<TraceRecord> drained = recorder.drain();
  ASSERT_EQ(drained.size(), 1U);
  const std::string line = FlightRecorder::to_ndjson(drained[0]);
  const auto fields = test::parse_ndjson_line(line);
  ASSERT_TRUE(fields.has_value()) << line;
  EXPECT_EQ(fields->at("ts_us"), std::to_string(drained[0].ts_us));
  EXPECT_EQ(fields->at("client"), "192.0.2.53");
  EXPECT_EQ(fields->at("ecs"), "10.2.3.0/24");
  EXPECT_EQ(fields->at("qname"), "www.g.cdn.example");
  EXPECT_EQ(fields->at("qtype"), "A");
  EXPECT_EQ(fields->at("source"), "dynamic");
  EXPECT_EQ(fields->at("rcode"), "NOERROR");
  EXPECT_EQ(fields->at("latency_us"), std::to_string(drained[0].latency_us));
}

TEST(QueryLogTest, SamplingKeepsEveryNth) {
  // Two workers' tracers share one sampler and claim its ticks in
  // strides; the log still keeps exactly one healthy query in N.
  FlightRecorderConfig config = quiet_config();
  config.sample_every = 4;
  config.capacity = 512;
  FlightRecorder recorder{config};
  QueryTracer first{&recorder, 0};
  QueryTracer second{&recorder, 1};
  QueryTracer* const tracers[] = {&first, &second};
  for (int i = 0; i < 256; ++i) {
    for (QueryTracer* tracer : tracers) {
      tracer->begin();
      tracer->finish();
    }
  }
  EXPECT_EQ(recorder.committed(), 128U);
  EXPECT_EQ(recorder.overwritten(), 0U);
  EXPECT_EQ(recorder.drain().size(), 128U);
}

TEST(QueryLogTest, RingOverwritesOldestAndCountsDrops) {
  FlightRecorderConfig config = quiet_config();
  config.capacity = 4;
  FlightRecorder recorder{config};
  for (std::uint32_t i = 0; i < 10; ++i) {
    TraceRecord record = make_record();
    record.latency_us = i;  // marks commit order (commit restamps seq and ts_us)
    recorder.commit(record);
  }
  EXPECT_EQ(recorder.committed(), 10U);
  EXPECT_EQ(recorder.overwritten(), 6U);
  const std::vector<TraceRecord> drained = recorder.drain();
  ASSERT_EQ(drained.size(), 4U);
  // Oldest-first, and the survivors are the newest four.
  for (std::size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i].latency_us, 6U + i);
  }
  EXPECT_TRUE(recorder.drain().empty());  // drain empties the ring
}

TEST(QueryLogTest, ConcurrentProducersAllLand) {
  // Every worker logs at once into a ring that holds them all: nothing
  // is lost, and the drain is one log in commit order.
  FlightRecorderConfig config = quiet_config();
  config.capacity = 1 << 12;
  FlightRecorder recorder{config};
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  const dns::Message query = cdn_query(1);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, &query, t] {
      QueryTracer tracer{&recorder, static_cast<std::uint32_t>(t)};
      const net::IpAddr client{net::IpV4Addr{192, 0, 2, static_cast<std::uint8_t>(t)}};
      for (int i = 0; i < kPerThread; ++i) {
        tracer.begin();
        tracer.set_qname_text("q" + std::to_string(i) + ".example");
        tracer.set_answer(client, query, AnswerSource::dynamic_answer, dns::Rcode::no_error);
        tracer.finish();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  constexpr std::size_t kTotal = static_cast<std::size_t>(kThreads) * kPerThread;
  EXPECT_EQ(recorder.committed(), kTotal);
  EXPECT_EQ(recorder.overwritten(), 0U);
  const std::vector<TraceRecord> drained = recorder.drain();
  ASSERT_EQ(drained.size(), kTotal);
  // Drain order is the global commit sequence, one number per record.
  EXPECT_EQ(std::adjacent_find(drained.begin(), drained.end(),
                               [](const TraceRecord& a, const TraceRecord& b) {
                                 return a.seq >= b.seq;
                               }),
            drained.end());
  std::vector<int> per_worker(kThreads, 0);
  for (const TraceRecord& record : drained) {
    ASSERT_LT(record.worker, static_cast<std::uint32_t>(kThreads));
    ++per_worker[record.worker];
    EXPECT_EQ(record.client, (net::IpAddr{net::IpV4Addr{
                                 192, 0, 2, static_cast<std::uint8_t>(record.worker)}}));
    EXPECT_TRUE(test::parse_ndjson_line(FlightRecorder::to_ndjson(record)).has_value());
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_worker[t], kPerThread) << t;
}

}  // namespace
}  // namespace eum::obs
