// Real-socket integration: the authoritative engine served over UDP on
// localhost, queried by the UDP client with and without ECS.
#include <gtest/gtest.h>

#include <csignal>
#include <pthread.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cdn/mapping.h"
#include "dnsserver/udp.h"
#include "ndjson_check.h"
#include "obs/trace.h"
#include "test_world.h"

namespace eum::dnsserver {
namespace {

using namespace std::chrono_literals;
using dns::ClientSubnetOption;
using dns::DnsName;
using dns::Message;
using dns::RecordType;

net::IpAddr v4(const char* text) { return *net::IpAddr::parse(text); }

class UdpFixture : public ::testing::Test {
 protected:
  UdpFixture() {
    engine_.add_dynamic_domain(
        DnsName::from_text("g.cdn.example"),
        [](const DynamicQuery& query) -> std::optional<DynamicAnswer> {
          DynamicAnswer answer;
          answer.ttl = 20;
          answer.ecs_scope_len = 24;
          answer.addresses = {query.client_block ? v4("203.0.0.1") : v4("203.0.9.1")};
          return answer;
        });
    server_ = std::make_unique<UdpAuthorityServer>(
        &engine_, UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0});
    thread_ = std::thread{[this] { server_->serve_until(stop_); }};
  }

  ~UdpFixture() override {
    stop_ = true;
    thread_.join();
  }

  AuthoritativeServer engine_;
  std::unique_ptr<UdpAuthorityServer> server_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST_F(UdpFixture, PlainQueryOverRealSocket) {
  UdpDnsClient client;
  const Message query =
      Message::make_query(0x4242, DnsName::from_text("www.g.cdn.example"), RecordType::A);
  const auto response = client.query(query, server_->endpoint(), 2000ms);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.id, 0x4242);
  EXPECT_TRUE(response->header.is_response);
  ASSERT_EQ(response->answers.size(), 1U);
  EXPECT_EQ(response->answer_addresses()[0], v4("203.0.9.1"));
}

TEST_F(UdpFixture, EcsQueryOverRealSocket) {
  UdpDnsClient client;
  const auto ecs = ClientSubnetOption::for_query(v4("198.51.100.42"), 24);
  const Message query =
      Message::make_query(7, DnsName::from_text("www.g.cdn.example"), RecordType::A, ecs);
  const auto response = client.query(query, server_->endpoint(), 2000ms);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->answer_addresses().at(0), v4("203.0.0.1"));
  const ClientSubnetOption* echoed = response->client_subnet();
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(echoed->scope_prefix_len(), 24);
  EXPECT_EQ(echoed->address(), v4("198.51.100.0"));
}

TEST_F(UdpFixture, SequentialQueriesFromOneClient) {
  UdpDnsClient client;
  for (std::uint16_t id = 1; id <= 5; ++id) {
    const Message query =
        Message::make_query(id, DnsName::from_text("x.g.cdn.example"), RecordType::A);
    const auto response = client.query(query, server_->endpoint(), 2000ms);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->header.id, id);
  }
  EXPECT_EQ(engine_.registry().counter_total("eum_authority_queries_total"), 5U);
}

TEST_F(UdpFixture, MalformedDatagramGetsFormErr) {
  // Send garbage with a valid-looking id; expect a FORMERR response.
  UdpSocket socket{UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}};
  const std::vector<std::uint8_t> garbage{0xAB, 0xCD, 0xFF};
  socket.send_to(garbage, server_->endpoint());
  UdpEndpoint peer;
  const auto datagram = socket.receive(2000ms, peer);
  ASSERT_TRUE(datagram.has_value());
  const Message response = Message::decode(*datagram);
  EXPECT_EQ(response.header.id, 0xABCD);
  EXPECT_EQ(response.header.rcode, dns::Rcode::form_err);
  // wire_errors is per-worker like queries and truncated.
  EXPECT_EQ(server_->registry().counter_total("eum_udp_wire_errors_total", {{"worker", "0"}}),
            1U);
}

TEST_F(UdpFixture, ResetStatsZeroesFrontEndCounters) {
  UdpDnsClient client;
  const Message query =
      Message::make_query(5, DnsName::from_text("www.g.cdn.example"), RecordType::A);
  ASSERT_TRUE(client.query(query, server_->endpoint(), 2000ms).has_value());
  EXPECT_EQ(server_->registry().counter_total("eum_udp_queries_total"), 1U);
  // The worker records serve latency after sending the reply, so the
  // record can land a moment after the client sees the response; wait
  // for it before snapshotting (and before reset, which must not race a
  // late record back into the histogram).
  const auto deadline = std::chrono::steady_clock::now() + 2000ms;
  while (server_->registry().histogram("eum_udp_serve_latency_us").snapshot().count == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GT(server_->registry().histogram("eum_udp_serve_latency_us").snapshot().count, 0U);
  // The front end records into the engine's registry, so one reset
  // zeroes both layers' counters and histograms; gauges survive.
  obs::MetricsRegistry& registry = server_->registry();
  EXPECT_EQ(&registry, &engine_.registry());
  registry.reset();
  EXPECT_EQ(registry.counter_total("eum_udp_queries_total"), 0U);
  EXPECT_EQ(registry.counter_total("eum_udp_truncated_total"), 0U);
  EXPECT_EQ(registry.counter_total("eum_udp_wire_errors_total"), 0U);
  EXPECT_EQ(registry.counter_total("eum_authority_queries_total"), 0U);
  EXPECT_EQ(registry.histogram("eum_udp_serve_latency_us").snapshot().count, 0U);
  const auto gauges = registry.snapshot().gauges;
  EXPECT_TRUE(std::any_of(gauges.begin(), gauges.end(), [](const auto& gauge) {
    return gauge.name == "eum_udp_rcvbuf_bytes" && gauge.value > 0;
  }));
}

TEST(UdpTruncation, Tc1ResponseKeepsEdnsOptAndEcsScope) {
  // RFC 6891 §7 / RFC 7871 §7.2.2: when a response is truncated to fit
  // the client's advertised payload, the DNS sections are dropped but
  // the OPT pseudo-record (with the ECS scope) must survive, so the
  // client learns the payload limit and scope before retrying.
  AuthoritativeServer engine;
  engine.add_dynamic_domain(
      DnsName::from_text("g.cdn.example"),
      [](const DynamicQuery&) -> std::optional<DynamicAnswer> {
        DynamicAnswer answer;
        answer.ttl = 20;
        answer.ecs_scope_len = 24;
        for (std::uint32_t i = 0; i < 60; ++i) {  // far beyond 512 octets
          answer.addresses.push_back(net::IpAddr{net::IpV4Addr{0xCB000000U + i}});
        }
        return answer;
      });
  UdpAuthorityServer server{&engine, UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}};
  std::atomic<bool> stop{false};
  std::thread thread{[&] { server.serve_until(stop); }};

  UdpDnsClient client;
  const auto ecs = ClientSubnetOption::for_query(v4("198.51.100.42"), 24);
  Message query =
      Message::make_query(9, DnsName::from_text("www.g.cdn.example"), RecordType::A, ecs);
  query.edns->udp_payload_size = 512;
  const auto response = client.query(query, server.endpoint(), 2000ms);
  stop = true;
  thread.join();

  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->header.truncated);
  EXPECT_TRUE(response->answers.empty());
  ASSERT_TRUE(response->edns.has_value());  // the OPT must not be dropped
  const ClientSubnetOption* echoed = response->client_subnet();
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(echoed->scope_prefix_len(), 24);
  EXPECT_EQ(echoed->address(), v4("198.51.100.0"));
  // truncated is tracked per worker exactly like queries; with one
  // worker, worker 0 owns the whole count.
  EXPECT_EQ(server.registry().counter_total("eum_udp_truncated_total", {{"worker", "0"}}), 1U);
}

TEST(UdpTruncation, TinyAdvertisedPayloadClampedTo512) {
  // RFC 6891 §6.2.3: advertised payload sizes below 512 are treated as
  // exactly 512. The server used to truncate against the raw value, so
  // a client advertising 100 octets got TC=1 for any answer over 100
  // bytes — even ones that fit comfortably in the 512 every conforming
  // requestor must accept.
  AuthoritativeServer engine;
  engine.add_dynamic_domain(
      DnsName::from_text("g.cdn.example"),
      [](const DynamicQuery&) -> std::optional<DynamicAnswer> {
        DynamicAnswer answer;
        answer.ttl = 20;
        for (std::uint32_t i = 0; i < 10; ++i) {  // ~200-octet response: >100, <512
          answer.addresses.push_back(net::IpAddr{net::IpV4Addr{0xCB000000U + i}});
        }
        return answer;
      });
  UdpAuthorityServer server{&engine, UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}};
  server.start();

  UdpDnsClient client;
  Message query =
      Message::make_query(6, DnsName::from_text("www.g.cdn.example"), RecordType::A);
  query.edns = dns::EdnsRecord{};
  query.edns->udp_payload_size = 100;
  const auto response = client.query(query, server.endpoint(), 2000ms);
  server.stop();

  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->header.truncated);
  EXPECT_EQ(response->answers.size(), 10U);
  EXPECT_EQ(server.registry().counter_total("eum_udp_truncated_total"), 0U);
}

// No served answer can reach the 512-octet floor, so the mapping zone never
// sets TC=1 (and needs no TCP fallback). The worst case: a 255-octet
// qname, servers_per_answer = 4 AAAA records, and an OPT echoing a /128
// IPv6 ECS source — by arithmetic about 420 octets.
TEST(UdpTruncation, LargestDynamicAnswerFitsIn512) {
  const topo::World& world = eum::testing::tiny_world();
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 40);
  cdn::MappingConfig config;
  config.servers_per_answer = cdn::kMaxServersPerAnswer;
  cdn::MappingSystem mapping{&world, &network, &eum::testing::test_latency(), config};
  AuthoritativeServer engine;
  engine.add_dynamic_domain(DnsName::from_text("g.cdn.example"), mapping.dns_handler());

  // Three 63-octet labels and one of 47 above g.cdn.example (15 octets).
  const std::string label63(63, 'a');
  const DnsName qname = DnsName::from_text(label63 + "." + label63 + "." + label63 + "." +
                                           std::string(47, 'b') + ".g.cdn.example");
  ASSERT_EQ(qname.wire_length(), DnsName::kMaxWireLength);
  const auto ecs = ClientSubnetOption::for_query(*net::IpAddr::parse("2001:db8::1"), 128);
  Message query = Message::make_query(7, qname, RecordType::AAAA, ecs);
  query.edns->udp_payload_size = 512;

  const Message response = engine.handle(query, world.ldnses.front().address);
  ASSERT_EQ(response.answers.size(), cdn::kMaxServersPerAnswer);
  for (const auto& record : response.answers) EXPECT_EQ(record.type, RecordType::AAAA);
  ASSERT_NE(response.client_subnet(), nullptr);
  EXPECT_EQ(response.client_subnet()->source_prefix_len(), 128);
  EXPECT_FALSE(response.header.truncated);
  EXPECT_LE(response.encode().size(), 512U);
}

TEST(UdpConcurrency, FourWorkersServeParallelClientsWithoutLoss) {
  // The multithreaded front end: 4 SO_REUSEPORT workers, 8 client
  // threads firing interleaved queries. Every query must come back with
  // its own id and the answer derived from its qname — no lost or
  // cross-wired responses. Run under TSan via scripts/tsan_check.sh.
  AuthoritativeServer engine;
  engine.add_dynamic_domain(
      DnsName::from_text("g.cdn.example"),
      [](const DynamicQuery& query) -> std::optional<DynamicAnswer> {
        // Answer encodes the first qname label's number: qN.g.cdn.example
        // -> 203.0.0.N, so mismatched responses are detectable.
        const std::string label = query.qname.to_string();
        const int n = std::atoi(label.c_str() + 1);
        DynamicAnswer answer;
        answer.ttl = 20;
        answer.addresses = {net::IpAddr{net::IpV4Addr{0xCB000000U + static_cast<std::uint32_t>(n)}}};
        return answer;
      });
  UdpAuthorityServer server{&engine, UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0},
                            UdpServerConfig{4}};
  ASSERT_EQ(server.worker_count(), 4U);
  server.start();

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 40;
  std::atomic<int> answered{0};
  std::atomic<int> mismatched{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      UdpDnsClient client;
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const int n = c * kQueriesPerClient + q;
        const auto id = static_cast<std::uint16_t>(n + 1);
        const Message query = Message::make_query(
            id, DnsName::from_text("q" + std::to_string(n) + ".g.cdn.example"),
            RecordType::A);
        const auto response = client.query(query, server.endpoint(), 5000ms);
        if (!response || response->header.id != id) continue;
        const auto addresses = response->answer_addresses();
        if (addresses.size() == 1 &&
            addresses[0] == net::IpAddr{net::IpV4Addr{0xCB000000U + static_cast<std::uint32_t>(n)}}) {
          ++answered;
        } else {
          ++mismatched;
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  server.stop();

  EXPECT_EQ(mismatched.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(answered.load(std::memory_order_relaxed), kClients * kQueriesPerClient);
  const auto sent = static_cast<std::uint64_t>(kClients * kQueriesPerClient);
  EXPECT_EQ(engine.registry().counter_total("eum_authority_queries_total"), sent);
  EXPECT_EQ(engine.registry().counter_total("eum_udp_queries_total"), sent);
}

TEST(UdpConcurrency, StatsViewEqualsRegistryCounterTotals) {
  // perfbench reads UdpAuthorityServer::stats(): its three fields must
  // stay the worker sums of the eum_udp_* counters they name.
  AuthoritativeServer engine;
  engine.add_dynamic_domain(
      DnsName::from_text("g.cdn.example"),
      [](const DynamicQuery&) -> std::optional<DynamicAnswer> {
        DynamicAnswer answer;
        answer.addresses = {v4("203.0.113.1")};
        return answer;
      });
  UdpServerConfig config{4};
  config.answer_cache_entries = 64;
  UdpAuthorityServer server{&engine, UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}, config};
  server.start();
  for (int c = 0; c < 8; ++c) {
    UdpDnsClient client;
    for (std::uint16_t q = 1; q <= 6; ++q) {  // three names, each asked twice
      const Message query = Message::make_query(
          q, DnsName::from_text("n" + std::to_string(q % 3) + ".g.cdn.example"),
          RecordType::A);
      ASSERT_TRUE(client.query(query, server.endpoint(), 2000ms).has_value());
    }
  }
  server.stop();
  const UdpServerStats stats = server.stats();
  const obs::MetricsRegistry& registry = server.registry();
  EXPECT_EQ(stats.queries, 48U);
  EXPECT_GT(stats.cache_hits, 0U);
  EXPECT_GT(stats.cache_misses, 0U);
  EXPECT_EQ(stats.queries, registry.counter_total("eum_udp_queries_total"));
  EXPECT_EQ(stats.cache_hits, registry.counter_total("eum_udp_cache_hits_total"));
  EXPECT_EQ(stats.cache_misses, registry.counter_total("eum_udp_cache_misses_total"));
}

TEST(UdpConcurrency, TraceRecordsStayValidNdjsonUnderFourWorkerLoad) {
  // Acceptance gate: with 4 workers concurrently committing into one
  // flight recorder, every drained record renders as valid NDJSON with
  // the full answer schema, nothing is lost, and drain order is the
  // commit order.
  AuthoritativeServer engine;
  engine.add_dynamic_domain(
      DnsName::from_text("g.cdn.example"),
      [](const DynamicQuery&) -> std::optional<DynamicAnswer> {
        DynamicAnswer answer;
        answer.ttl = 20;
        answer.ecs_scope_len = 24;
        answer.addresses = {v4("203.0.0.1")};
        return answer;
      });
  obs::FlightRecorderConfig trace_config;
  trace_config.sample_every = 1;
  obs::FlightRecorder recorder{trace_config};
  UdpServerConfig config{4};
  config.recorder = &recorder;
  UdpAuthorityServer server{&engine, UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}, config};
  server.start();

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 25;
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      UdpDnsClient client;
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const int n = c * kQueriesPerClient + q;
        const auto ecs = ClientSubnetOption::for_query(
            net::IpAddr{net::IpV4Addr{0x0A000000U + (static_cast<std::uint32_t>(n) << 8)}}, 24);
        const Message query = Message::make_query(
            static_cast<std::uint16_t>(n + 1),
            DnsName::from_text("q" + std::to_string(n) + ".g.cdn.example"), RecordType::A,
            ecs);
        if (client.query(query, server.endpoint(), 5000ms)) ++answered;
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  server.stop();

  EXPECT_EQ(answered.load(std::memory_order_relaxed), kClients * kQueriesPerClient);
  const std::vector<obs::TraceRecord> drained = recorder.drain();
  ASSERT_EQ(drained.size(), static_cast<std::size_t>(kClients * kQueriesPerClient));
  EXPECT_EQ(recorder.overwritten(), 0U);
  EXPECT_TRUE(std::is_sorted(drained.begin(), drained.end(),
                             [](const obs::TraceRecord& a, const obs::TraceRecord& b) {
                               return a.seq < b.seq;
                             }));
  for (const obs::TraceRecord& record : drained) {
    const std::string line = obs::FlightRecorder::to_ndjson(record);
    const auto fields = test::parse_ndjson_line(line);
    ASSERT_TRUE(fields.has_value()) << line;
    EXPECT_EQ(fields->at("client"), "127.0.0.1");
    EXPECT_EQ(fields->at("source"), "dynamic");
    EXPECT_EQ(fields->at("rcode"), "NOERROR");
    EXPECT_EQ(fields->at("qtype"), "A");
    EXPECT_NE(fields->find("ecs"), fields->end());
    EXPECT_NE(fields->find("latency_us"), fields->end());
  }
}

TEST(UdpConcurrency, StartStopIsIdempotentAndRestartable) {
  AuthoritativeServer engine;
  engine.add_dynamic_domain(DnsName::from_text("g.cdn.example"),
                            [](const DynamicQuery&) -> std::optional<DynamicAnswer> {
                              DynamicAnswer answer;
                              answer.addresses = {v4("203.0.9.1")};
                              return answer;
                            });
  UdpAuthorityServer server{&engine, UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0},
                            UdpServerConfig{2}};
  server.start();
  server.start();  // no-op
  UdpDnsClient client;
  const Message query =
      Message::make_query(3, DnsName::from_text("a.g.cdn.example"), RecordType::A);
  EXPECT_TRUE(client.query(query, server.endpoint(), 2000ms).has_value());
  server.stop();
  server.stop();  // no-op
  server.start();  // restart after stop
  EXPECT_TRUE(client.query(query, server.endpoint(), 2000ms).has_value());
  server.stop();
}

TEST(UdpSocket, BindEphemeralAndQueryTimeout) {
  UdpDnsClient client;
  // Nothing listens on this port (bind a socket, learn its port, use a
  // different one... simplest: an unserved socket we never read from).
  UdpSocket sink{UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}};
  const Message query = Message::make_query(1, DnsName::from_text("a.b"), RecordType::A);
  const auto response = client.query(query, sink.local_endpoint(), 100ms);
  EXPECT_FALSE(response.has_value());
}

TEST(UdpSocket, LocalEndpointReportsBoundPort) {
  UdpSocket socket{UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}};
  EXPECT_NE(socket.local_endpoint().port, 0);
  EXPECT_EQ(socket.local_endpoint().address, (net::IpV4Addr{127, 0, 0, 1}));
}

TEST(UdpSocket, MoveTransfersOwnership) {
  UdpSocket a{UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}};
  const std::uint16_t port = a.local_endpoint().port;
  UdpSocket b{std::move(a)};
  EXPECT_EQ(b.local_endpoint().port, port);
}

TEST(UdpSocket, ReceiveReturnsExactlyTheDatagram) {
  // receive() reads into a buffer it reuses across calls; each call must
  // return its own datagram alone, byte for byte, up to the largest
  // payload IPv4 UDP carries — and a short one after a long one.
  UdpSocket receiver{UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}};
  UdpSocket sender{UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}};
  for (const std::size_t size : {std::size_t{65507}, std::size_t{512}, std::size_t{1}}) {
    std::vector<std::uint8_t> datagram(size);
    for (std::size_t i = 0; i < size; ++i) {
      datagram[i] = static_cast<std::uint8_t>(i * 131 + size);
    }
    sender.send_to(datagram, receiver.local_endpoint());
    UdpEndpoint peer{};
    const auto received = receiver.receive(2000ms, peer);
    ASSERT_TRUE(received.has_value()) << size << " bytes";
    EXPECT_EQ(*received, datagram) << size << " bytes";
    EXPECT_EQ(peer, sender.local_endpoint());
  }
}

TEST(UdpSocket, SignalStormCannotExtendReceiveTimeout) {
  // Regression: receive() restarted its poll() with the FULL timeout on
  // every EINTR, so a signal arriving more often than the timeout kept
  // the wait alive forever. The wait must be deadline-based: signals may
  // interrupt it, but the overall budget is spent exactly once.
  struct sigaction action{};
  action.sa_handler = [](int) {};  // no SA_RESTART: poll() returns EINTR
  struct sigaction previous{};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  UdpSocket socket{UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}};
  const pthread_t receiver = ::pthread_self();
  std::atomic<bool> done{false};
  std::thread pinger{[&] {
    // Signal every ~5ms, far more often than the 200ms timeout.
    while (!done.load(std::memory_order_relaxed)) {
      (void)::pthread_kill(receiver, SIGUSR1);
      std::this_thread::sleep_for(5ms);
    }
  }};

  UdpEndpoint peer{};
  const auto start = std::chrono::steady_clock::now();
  const auto datagram = socket.receive(200ms, peer);  // nothing ever sends
  const auto elapsed = std::chrono::steady_clock::now() - start;
  done = true;
  pinger.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &previous, nullptr), 0);

  EXPECT_FALSE(datagram.has_value());
  EXPECT_GE(elapsed, 190ms);  // the budget was honoured...
  EXPECT_LT(elapsed, 2000ms);  // ...and not restarted per signal
}

TEST(UdpSocket, KernelDropCounterSeesReceiveQueueOverflow) {
  // Shrink the receive queue, blast it without reading, then drain: the
  // SO_RXQ_OVFL cmsg on the surviving datagrams must report the drops.
  UdpSocket receiver{UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}};
  if (!receiver.enable_rx_drop_counter()) {
    GTEST_SKIP() << "SO_RXQ_OVFL unsupported on this platform";
  }
  const int tiny = 2048;
  ASSERT_EQ(::setsockopt(receiver.native_handle(), SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny),
            0);
  UdpSocket sender{UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}};
  const std::vector<std::uint8_t> payload(1024, 0xAB);
  // The drop count rides on datagrams enqueued AFTER drops happened, so
  // overflow and drain must interleave: burst past the queue, drain the
  // survivors, burst again — the second round's survivors carry the
  // cumulative counter.
  UdpBatch batch{UdpBatch::kMaxCapacity};
  std::uint64_t drained = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 128; ++i) {
      try {
        sender.send_to(payload, receiver.local_endpoint());
      } catch (const std::system_error&) {
        // ENOBUFS on a saturated loopback is itself proof of pressure.
      }
    }
    while (receiver.receive_batch(batch, 50ms) > 0) drained += batch.received();
  }
  EXPECT_GT(drained, 0U);
  if (receiver.kernel_drops() == 0) {
    // The kernel rounds SO_RCVBUF up (and some configurations buffer
    // generously); no overflow means nothing to observe.
    GTEST_SKIP() << "kernel absorbed all datagrams; no overflow to count";
  }
  EXPECT_GT(receiver.kernel_drops(), 0U);
}

}  // namespace
}  // namespace eum::dnsserver
