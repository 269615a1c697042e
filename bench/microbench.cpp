// Microbenchmarks of the hot paths (google-benchmark): DNS wire codec,
// name compression, prefix-trie lookups, resolver cache, mapping
// decisions, and the local load balancer — plus the cache-affinity
// ablation called out in DESIGN.md (rendezvous hashing vs random server
// choice and its effect on per-server content spread), and the
// observability layer (counter/histogram recording cost, instrumented
// vs uninstrumented authority handle()).
#include <benchmark/benchmark.h>

#include <set>

#include "cdn/mapping.h"
#include "dnsserver/resolver.h"
#include "dnsserver/zone_file.h"
#include "dnsserver/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topo/world_gen.h"
#include "topo/world_io.h"

#include <sstream>
#include "util/rng.h"

namespace {

using namespace eum;

const topo::World& bench_world() {
  static const topo::World world = [] {
    topo::WorldGenConfig config;
    config.seed = 5;
    config.target_blocks = 8000;
    config.target_ases = 300;
    config.ping_targets = 800;
    config.deployment_universe = 300;
    return topo::generate_world(config);
  }();
  return world;
}

const topo::LatencyModel& bench_latency() {
  static const topo::LatencyModel model{topo::LatencyParams{}, 5};
  return model;
}

dns::Message sample_response() {
  const auto ecs = dns::ClientSubnetOption::for_query(*net::IpAddr::parse("203.0.113.7"), 24);
  dns::Message response = dns::Message::make_response(dns::Message::make_query(
      7, dns::DnsName::from_text("e123.g.cdn.example"), dns::RecordType::A, ecs));
  for (int i = 0; i < 2; ++i) {
    response.answers.push_back(dns::ResourceRecord{
        dns::DnsName::from_text("e123.g.cdn.example"), dns::RecordType::A,
        dns::RecordClass::IN, 20,
        dns::ARecord{net::IpV4Addr{203, 0, 0, static_cast<std::uint8_t>(i + 1)}}});
  }
  response.edns->set_client_subnet(ecs.with_scope(24));
  return response;
}

void BM_DnsEncode(benchmark::State& state) {
  const dns::Message message = sample_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(message.encode());
  }
}
BENCHMARK(BM_DnsEncode);

void BM_DnsDecode(benchmark::State& state) {
  const auto wire = sample_response().encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::Message::decode(wire));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * wire.size()));
}
BENCHMARK(BM_DnsDecode);

void BM_NameCompressionEncode(benchmark::State& state) {
  // A message with many names sharing suffixes: compression-heavy.
  dns::Message message;
  message.header.is_response = true;
  for (int i = 0; i < 12; ++i) {
    message.answers.push_back(dns::ResourceRecord{
        dns::DnsName::from_text("e" + std::to_string(i) + ".g.cdn.example"),
        dns::RecordType::CNAME, dns::RecordClass::IN, 60,
        dns::CnameRecord{dns::DnsName::from_text("target.g.cdn.example")}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(message.encode());
  }
}
BENCHMARK(BM_NameCompressionEncode);

void BM_TrieLongestMatch(benchmark::State& state) {
  const topo::World& world = bench_world();
  util::Rng rng{11};
  std::vector<net::IpAddr> probes;
  for (int i = 0; i < 1024; ++i) {
    const auto& block = world.blocks[rng.below(world.blocks.size())];
    probes.emplace_back(net::IpV4Addr{block.prefix.address().v4().value() + 5});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.geodb.lookup(probes[i++ & 1023]));
  }
}
BENCHMARK(BM_TrieLongestMatch);

void BM_MappingDecisionEndUser(benchmark::State& state) {
  const topo::World& world = bench_world();
  static cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 200);
  static cdn::MappingSystem mapping{&world, &network, &bench_latency(), cdn::MappingConfig{}};
  util::Rng rng{12};
  std::size_t i = 0;
  for (auto _ : state) {
    const auto block = static_cast<topo::BlockId>((i++ * 2654435761U) % world.blocks.size());
    benchmark::DoNotOptimize(mapping.map_block(block, "www.shop.example"));
  }
}
BENCHMARK(BM_MappingDecisionEndUser);

void BM_MappingDecisionNsBased(benchmark::State& state) {
  const topo::World& world = bench_world();
  static cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 200);
  static cdn::MappingSystem mapping{&world, &network, &bench_latency(), cdn::MappingConfig{}};
  std::size_t i = 0;
  for (auto _ : state) {
    const auto ldns = static_cast<topo::LdnsId>((i++ * 2654435761U) % world.ldnses.size());
    benchmark::DoNotOptimize(mapping.map_ldns(ldns, "www.shop.example"));
  }
}
BENCHMARK(BM_MappingDecisionNsBased);

void BM_ResolverCacheHit(benchmark::State& state) {
  const topo::World& world = bench_world();
  static cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 200);
  static cdn::MappingSystem mapping{&world, &network, &bench_latency(), cdn::MappingConfig{}};
  static dnsserver::AuthoritativeServer authority;
  static const bool authority_init = [] {
    authority.add_dynamic_domain(dns::DnsName::from_text("g.cdn.example"), mapping.dns_handler());
    return true;
  }();
  (void)authority_init;
  static dnsserver::AuthorityDirectory directory = [] {
    dnsserver::AuthorityDirectory d;
    d.add_authority(dns::DnsName::from_text("g.cdn.example"), &authority);
    return d;
  }();
  util::SimClock clock;
  dnsserver::ResolverConfig config;
  config.ecs_enabled = true;
  dnsserver::RecursiveResolver resolver{config, &clock, &directory,
                                        world.ldnses.front().address};
  const auto query =
      dns::Message::make_query(1, dns::DnsName::from_text("www.g.cdn.example"),
                               dns::RecordType::A);
  const net::IpAddr client{net::IpV4Addr{world.blocks.front().prefix.address().v4().value() + 1}};
  (void)resolver.resolve(query, client);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.resolve(query, client));
  }
}
BENCHMARK(BM_ResolverCacheHit);

/// An authority with a constant-cost dynamic handler, for measuring the
/// observability overhead of handle() itself. One shared engine: the
/// instrumented/uninstrumented benches toggle its knobs, so both measure
/// the exact same zone/domain configuration.
dnsserver::AuthoritativeServer& obs_bench_authority() {
  static dnsserver::AuthoritativeServer server;
  static const bool initialized = [] {
    server.add_dynamic_domain(
        dns::DnsName::from_text("g.cdn.example"),
        [](const dnsserver::DynamicQuery&) -> std::optional<dnsserver::DynamicAnswer> {
          dnsserver::DynamicAnswer answer;
          answer.ttl = 20;
          answer.ecs_scope_len = 24;
          answer.addresses = {net::IpAddr{net::IpV4Addr{203, 0, 0, 1}},
                              net::IpAddr{net::IpV4Addr{203, 0, 0, 2}}};
          return answer;
        });
    return true;
  }();
  (void)initialized;
  return server;
}

dns::Message obs_bench_query() {
  const auto ecs = dns::ClientSubnetOption::for_query(*net::IpAddr::parse("10.1.2.0"), 24);
  return dns::Message::make_query(9, dns::DnsName::from_text("www.g.cdn.example"),
                                  dns::RecordType::A, ecs);
}

/// Fully instrumented serving path: 1-in-16-sampled latency histogram
/// recording, plus a flight-recorder QueryTracer around each query that
/// keeps 1 in 128. Compare with BM_AuthHandleUninstrumented; the tracer
/// here reads the clock in both begin() and finish(), where the UDP
/// worker shares one begin() timestamp per rx batch.
void BM_AuthHandleInstrumented(benchmark::State& state) {
  dnsserver::AuthoritativeServer& authority = obs_bench_authority();
  static obs::FlightRecorder recorder{[] {
    obs::FlightRecorderConfig config;
    config.sample_every = 128;
    return config;
  }()};
  obs::QueryTracer tracer{&recorder, 0};
  const obs::TracerScope trace_scope{&tracer};
  authority.set_latency_tracking(true);
  const dns::Message query = obs_bench_query();
  const net::IpAddr resolver{net::IpV4Addr{192, 0, 2, 53}};
  for (auto _ : state) {
    tracer.begin();
    benchmark::DoNotOptimize(authority.handle(query, resolver));
    tracer.finish();
  }
}
BENCHMARK(BM_AuthHandleInstrumented);

/// Same engine with latency tracking and tracing off: the clock reads,
/// the sampling tick, and the histogram record are skipped entirely
/// (counters stay on — they are single relaxed atomics).
void BM_AuthHandleUninstrumented(benchmark::State& state) {
  dnsserver::AuthoritativeServer& authority = obs_bench_authority();
  authority.set_latency_tracking(false);
  const dns::Message query = obs_bench_query();
  const net::IpAddr resolver{net::IpV4Addr{192, 0, 2, 53}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(authority.handle(query, resolver));
  }
  authority.set_latency_tracking(true);
}
BENCHMARK(BM_AuthHandleUninstrumented);

void BM_ObsCounterAdd(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("bench_counter_total");
  for (auto _ : state) {
    counter.add();
  }
}
BENCHMARK(BM_ObsCounterAdd);

/// Wait-free histogram recording; Threads(4) shows the per-thread shard
/// assignment keeping concurrent recorders off each other's cache lines.
void BM_ObsHistogramRecord(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  obs::LatencyHistogram& histogram = registry.histogram("bench_latency_us");
  std::uint64_t v = static_cast<std::uint64_t>(state.thread_index()) * 2654435761U;
  for (auto _ : state) {
    histogram.record(v++ & 0xFFFF);
  }
}
BENCHMARK(BM_ObsHistogramRecord)->Threads(1)->Threads(4);

/// Full registry snapshot + percentile estimation, the exposition path
/// (periodic dumps / SIGUSR1 — not the hot path, but worth tracking).
void BM_ObsSnapshotPercentiles(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  static const bool initialized = [] {
    obs::LatencyHistogram& histogram = registry.histogram("bench_snapshot_latency_us");
    for (std::uint64_t v = 0; v < 100'000; ++v) histogram.record(v & 0x3FFF);
    for (int i = 0; i < 8; ++i) {
      registry.counter("bench_snapshot_total", "", {{"worker", std::to_string(i)}})
          .add(static_cast<std::uint64_t>(i));
    }
    return true;
  }();
  (void)initialized;
  for (auto _ : state) {
    const obs::MetricsSnapshot snapshot = registry.snapshot();
    benchmark::DoNotOptimize(snapshot.histograms.front().hist.percentile(99));
  }
}
BENCHMARK(BM_ObsSnapshotPercentiles);

dnsserver::ScopedEcsCache::Entry cache_bench_entry(std::uint32_t answer,
                                                   std::optional<net::IpPrefix> scope) {
  dnsserver::ScopedEcsCache::Entry entry;
  entry.scope = scope;
  entry.answers.push_back(dns::ResourceRecord{
      dns::DnsName::from_text("www.g.cdn.example"), dns::RecordType::A,
      dns::RecordClass::IN, 300, dns::ARecord{net::IpV4Addr{answer}}});
  entry.inserted = util::SimTime{0};
  entry.expires = util::SimTime{300};
  return entry;
}

/// Longest-scope-match lookup against a key holding `Arg` scoped slots
/// (the per-name entry counts ECS multiplies, paper §5.2).
void BM_ScopedCacheLookupHit(benchmark::State& state) {
  dnsserver::ScopedEcsCache cache{dnsserver::ScopedCacheConfig{1 << 16, 8}};
  const dnsserver::ScopedEcsCache::Key key{dns::DnsName::from_text("www.g.cdn.example"),
                                           dns::RecordType::A};
  const auto slots = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < slots; ++i) {
    cache.store(key, cache_bench_entry(0xCB000000U + i,
                                       net::IpPrefix{net::IpAddr{net::IpV4Addr{0x0A000000U + (i << 8)}}, 24}));
  }
  const net::IpAddr client{net::IpV4Addr{0x0A000000U + ((slots - 1) << 8) + 9}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(key, client, util::SimTime{1}));
  }
}
BENCHMARK(BM_ScopedCacheLookupHit)->Arg(1)->Arg(16)->Arg(64);

/// Steady-state store into a full cache: every insert evicts the LRU
/// tail, exercising the unlink/reap path.
void BM_ScopedCacheStoreEvict(benchmark::State& state) {
  dnsserver::ScopedEcsCache cache{dnsserver::ScopedCacheConfig{4096, 8}};
  std::uint32_t i = 0;
  for (auto _ : state) {
    const dnsserver::ScopedEcsCache::Key key{
        dns::DnsName::from_text("h" + std::to_string(i & 0x3FFF) + ".g.cdn.example"),
        dns::RecordType::A};
    cache.store(key, cache_bench_entry(0xCB000000U + i, std::nullopt));
    ++i;
  }
}
BENCHMARK(BM_ScopedCacheStoreEvict);

/// Shard contention: parallel threads hitting a shared cache, mostly
/// lookups. Compare Threads(1) vs Threads(4) to see sharding pay off.
void BM_ScopedCacheParallelMixed(benchmark::State& state) {
  static dnsserver::ScopedEcsCache cache{dnsserver::ScopedCacheConfig{1 << 14, 8}};
  if (state.thread_index() == 0) {
    cache.clear();
    for (std::uint32_t i = 0; i < 1024; ++i) {
      const dnsserver::ScopedEcsCache::Key key{
          dns::DnsName::from_text("h" + std::to_string(i) + ".g.cdn.example"),
          dns::RecordType::A};
      cache.store(key, cache_bench_entry(0xCB000000U + i, std::nullopt));
    }
  }
  std::uint32_t i = static_cast<std::uint32_t>(state.thread_index()) * 2654435761U;
  const net::IpAddr client{net::IpV4Addr{0x0A000009U}};
  for (auto _ : state) {
    const dnsserver::ScopedEcsCache::Key key{
        dns::DnsName::from_text("h" + std::to_string(i++ & 1023) + ".g.cdn.example"),
        dns::RecordType::A};
    if ((i & 15U) == 0) {
      cache.store(key, cache_bench_entry(i, std::nullopt));
    } else {
      benchmark::DoNotOptimize(cache.lookup(key, client, util::SimTime{1}));
    }
  }
}
BENCHMARK(BM_ScopedCacheParallelMixed)->Threads(1)->Threads(4);

void BM_WorldGeneration(benchmark::State& state) {
  for (auto _ : state) {
    topo::WorldGenConfig config;
    config.seed = 77;
    config.target_blocks = static_cast<std::size_t>(state.range(0));
    config.target_ases = std::max<std::size_t>(50, config.target_blocks / 33);
    config.ping_targets = 300;
    config.deployment_universe = 100;
    benchmark::DoNotOptimize(topo::generate_world(config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WorldGeneration)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_PingMesh(benchmark::State& state) {
  const topo::World& world = bench_world();
  const cdn::CdnNetwork network = cdn::CdnNetwork::build(world, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdn::PingMesh::measure(world, network, bench_latency()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(world.ping_targets.size()));
}
BENCHMARK(BM_PingMesh)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

// Ablation: rendezvous hashing vs random-2 server choice. The metric that
// matters for a CDN cluster is how many distinct servers a domain's
// objects land on (cache duplication); rendezvous keeps it at 2. The
// rendezvous arm is the mapping decision itself, on a one-cluster network.
void BM_LocalLbRendezvousSpread(benchmark::State& state) {
  static cdn::CdnNetwork network = cdn::CdnNetwork::build(bench_world(), 1, 16);
  static const cdn::MappingSystem mapping{&bench_world(), &network, &bench_latency(),
                                          cdn::MappingConfig{}};
  std::size_t spread_total = 0;
  std::size_t rounds = 0;
  for (auto _ : state) {
    std::set<std::uint32_t> servers;
    for (int rep = 0; rep < 50; ++rep) {  // 50 requests for the same domain
      const auto result = mapping.map_block(0, "assets.media.example");
      if (!result) continue;
      for (const auto& addr : result->servers) servers.insert(addr.v4().value());
    }
    spread_total += servers.size();
    ++rounds;
    benchmark::DoNotOptimize(servers);
  }
  state.counters["servers_per_domain"] =
      static_cast<double>(spread_total) / static_cast<double>(rounds);
}
BENCHMARK(BM_LocalLbRendezvousSpread);

void BM_LocalLbRandomSpread(benchmark::State& state) {
  cdn::CdnNetwork network = cdn::CdnNetwork::build(bench_world(), 1, 16);
  cdn::Deployment& cluster = network.deployments()[0];
  util::Rng rng{13};
  std::size_t spread_total = 0;
  std::size_t rounds = 0;
  for (auto _ : state) {
    std::set<std::uint32_t> servers;
    for (int rep = 0; rep < 50; ++rep) {
      for (int k = 0; k < 2; ++k) {
        servers.insert(cluster.servers[rng.below(cluster.servers.size())].address.value());
      }
    }
    spread_total += servers.size();
    ++rounds;
    benchmark::DoNotOptimize(servers);
  }
  state.counters["servers_per_domain"] =
      static_cast<double>(spread_total) / static_cast<double>(rounds);
}
BENCHMARK(BM_LocalLbRandomSpread);

void BM_ZoneFileParse(benchmark::State& state) {
  std::string text = "$ORIGIN perf.example.\n$TTL 300\n@ SOA ns1 host 1 3600 600 86400 30\n";
  for (int i = 0; i < 200; ++i) {
    text += "h" + std::to_string(i) + " A 10.0." + std::to_string(i / 250) + "." +
            std::to_string(i % 250 + 1) + "\n";
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dnsserver::parse_zone_file(text));
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_ZoneFileParse);

void BM_TwoTierResolution(benchmark::State& state) {
  const topo::World& world = bench_world();
  static cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 200);
  static cdn::MappingSystem mapping{&world, &network, &bench_latency(), cdn::MappingConfig{}};
  static dnsserver::AuthoritativeServer top;
  static dnsserver::AuthoritativeServer low;
  static dnsserver::AuthorityDirectory directory = [] {
    dnsserver::AuthorityDirectory d;
    mapping.install_two_tier(d, top, low, dns::DnsName::from_text("b.cdn.example"));
    return d;
  }();
  util::SimClock clock;
  dnsserver::ResolverConfig config;
  dnsserver::RecursiveResolver resolver{config, &clock, &directory,
                                        world.ldnses.front().address};
  const net::IpAddr client{net::IpV4Addr{world.blocks.front().prefix.address().v4().value() + 1}};
  std::uint64_t serial = 0;
  for (auto _ : state) {
    // Fresh name each iteration: full delegation chase, no cache hit.
    const auto query = dns::Message::make_query(
        1, dns::DnsName::from_text("e" + std::to_string(serial++) + ".b.cdn.example"),
        dns::RecordType::A);
    benchmark::DoNotOptimize(resolver.resolve(query, client));
  }
}
BENCHMARK(BM_TwoTierResolution);

void BM_WorldSaveLoad(benchmark::State& state) {
  const topo::World& world = bench_world();
  for (auto _ : state) {
    std::stringstream stream;
    topo::save_world(world, stream);
    benchmark::DoNotOptimize(topo::load_world(stream));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(world.blocks.size()));
}
BENCHMARK(BM_WorldSaveLoad)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
