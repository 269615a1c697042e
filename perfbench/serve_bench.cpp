// Serving benchmark for the UDP authority stack (see README.md).
//
//   serve_bench --workload ecs_miss|hot_hit|failover_churn --seed N
//               --seconds S --trace 0|1
//
// A live UdpAuthorityServer (one worker pinned to the server CPU) answers
// g.cdn.example from the real mapping stack behind a running MapMaker.
// One open-loop flow (Poisson arrivals, latency charged from each query's
// scheduled send) loads it from the generator CPUs; a canary on the
// control CPU checks live answers against AuthoritativeServer::handle +
// encode and the RFC invariants, and drives cluster kills.
//
// --trace 0 prints the end-to-end metrics; --trace 1 reruns the workload
// with the dynamic-domain wrapper timed, replays the same query stream
// in-process through the public per-layer calls, and prints the per-layer
// metrics. The last stdout line is the result object.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "cdn/liveness.h"
#include "cdn/mapping.h"
#include "control/map_maker.h"
#include "dnsserver/answer_cache.h"
#include "dnsserver/authoritative.h"
#include "dnsserver/udp.h"
#include "load/driver.h"
#include "load/schedule.h"
#include "load/traffic.h"
#include "obs/metrics.h"
#include "topo/latency.h"
#include "topo/world_gen.h"
#include "util/rng.h"
#include "util/sim_clock.h"

// ---------------------------------------------------------------------------
// Heap-allocation counting: every operator new on a thread bumps that
// thread's counter, so a single-threaded replay can charge allocations to
// the call that made them.

namespace {
thread_local std::uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace eum;
using namespace std::chrono_literals;
namespace pb = perfbench;
using Clock = std::chrono::steady_clock;

// --- fixed configuration ---------------------------------------------------

constexpr std::uint64_t kWorldSeed = 42;
constexpr std::size_t kBlocks = 200'000;
constexpr std::size_t kClusters = 300;
constexpr std::size_t kSetups = 7;  ///< set-ups per run; setup_s is their median
constexpr std::size_t kCacheEntries = 4096;
constexpr std::size_t kCacheMaxWire = 4096;
constexpr const char* kZone = "g.cdn.example";
/// The fixed-rate phase is cut into windows this long, and latency is taken
/// per window, so the windows a host stall spoils can be outvoted.
constexpr double kSubWindowS = 0.25;
constexpr double kSearchPointS = 0.2;    ///< one offered-rate search window
constexpr double kCoarseStep = 2.0;
constexpr double kFineStep = 1.05;       ///< the search's resolution
constexpr double kMaxSearchQps = 400'000.0;
constexpr double kCanaryQps = 500.0;
constexpr auto kMapMakerInterval = 1000ms;

// CPU roles, as indexes into the CPUs this process may use. The server
// stays off CPU 0: the VM's init and monitor processes are pinned there
// and stall it for up to ~14 ms, against well under 1 ms on CPU 2.
constexpr int kServerCpu = 2;
constexpr int kGeneratorCpus[] = {1, 3};  ///< sender, receiver
constexpr int kControlCpu = 0;

/// The fixed offered rate: well below what the stack serves under the SLO,
/// so the fixed phase measures an unsaturated server.
constexpr double kFixedQps = 20'000.0;
/// failover_churn: the busiest cluster is dead, then alive, this long each.
constexpr auto kChurnHalfPeriod = 100ms;
/// ecs_miss and hot_hit end with unloaded kills this far apart, for remap_ms.
constexpr auto kProbeHalfPeriod = 15ms;

struct Workload {
  std::string name;
  bool hot = false;    ///< tiny working set: nearly every answer is a cache hit
  bool churn = false;  ///< kill/revive the busiest cluster while serving
};

std::optional<Workload> workload_named(std::string_view name) {
  if (name == "ecs_miss") return Workload{"ecs_miss", false, false};
  if (name == "hot_hit") return Workload{"hot_hit", true, false};
  if (name == "failover_churn") return Workload{"failover_churn", false, true};
  return std::nullopt;
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// num / den, or 0 when there is nothing to divide by.
double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// --- CPU placement -----------------------------------------------------------

class Placement {
 public:
  Placement() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
      }
    }
    if (cpus_.empty()) cpus_.push_back(0);
  }

  [[nodiscard]] cpu_set_t set_of(std::initializer_list<int> roles) const {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int role : roles) CPU_SET(cpu(role), &set);
    return set;
  }
  [[nodiscard]] cpu_set_t server() const { return set_of({kServerCpu}); }
  [[nodiscard]] cpu_set_t generator() const {
    return set_of({kGeneratorCpus[0], kGeneratorCpus[1]});
  }
  [[nodiscard]] cpu_set_t control() const { return set_of({kControlCpu}); }

  /// Every CPU a role maps to.
  [[nodiscard]] std::vector<int> used() const {
    std::vector<int> cpus;
    for (const int role : {kServerCpu, kGeneratorCpus[0], kGeneratorCpus[1], kControlCpu}) {
      if (std::find(cpus.begin(), cpus.end(), cpu(role)) == cpus.end()) cpus.push_back(cpu(role));
    }
    return cpus;
  }

  /// The CPUs whose stalls show up in the latency: server and generator.
  [[nodiscard]] std::vector<int> measured() const {
    return {cpu(kServerCpu), cpu(kGeneratorCpus[0]), cpu(kGeneratorCpus[1])};
  }

  [[nodiscard]] int cpu(int role) const {
    return cpus_[static_cast<std::size_t>(role) % cpus_.size()];
  }

  [[nodiscard]] std::string describe() const {
    std::ostringstream out;
    out << "{\"cpus\": " << cpus_.size() << ", \"server\": [" << cpu(kServerCpu)
        << "], \"generator\": [" << cpu(kGeneratorCpus[0]) << ", " << cpu(kGeneratorCpus[1])
        << "], \"control\": [" << cpu(kControlCpu) << "]}";
    return out.str();
  }

 private:
  std::vector<int> cpus_;
};

/// One SCHED_IDLE spinner per CPU the benchmark uses, for the whole run.
/// The serve path sleeps and wakes per datagram; on a VM every such halt
/// and wake-up is a hypervisor exit, and on a busy host the vCPU then waits
/// to be scheduled again. Measured over ten-minute batches, runs without
/// spinners lost 4-10% of each CPU to steal and read p50 from 29 to 880 us;
/// four plain spinning vCPUs lost ~0.3%. A spinner keeps its vCPU from
/// halting and yields at once to any normal thread that wakes on its CPU,
/// and the server's on-CPU time counts only the server's thread.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus) {
    for (const int cpu : cpus) {
      threads_.emplace_back([this, cpu] {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        sched_param param{};
        if (pthread_setaffinity_np(pthread_self(), sizeof set, &set) != 0 ||
            pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
          return;  // without the idle class a spinner would compete; do without
        }
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Pin the calling thread; threads it starts afterwards inherit the set.
void pin_self(const cpu_set_t& set) {
  if (const int rc = pthread_setaffinity_np(pthread_self(), sizeof set, &set); rc != 0) {
    throw std::system_error{rc, std::generic_category(), "pthread_setaffinity_np"};
  }
}

/// On-CPU ns of this process's threads whose affinity is exactly `set`.
/// This process's thread ids, ascending.
std::vector<int> task_ids() {
  std::vector<int> tids;
  for (const auto& entry : std::filesystem::directory_iterator{"/proc/self/task"}) {
    if (const int tid = std::atoi(entry.path().filename().c_str()); tid > 0) tids.push_back(tid);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

/// On-CPU ns of the given threads, from /proc/self/task/<tid>/schedstat.
pb::CpuReading read_cpu(const std::vector<int>& tids) {
  pb::CpuReading reading;
  for (const int tid : tids) {
    std::ifstream in{"/proc/self/task/" + std::to_string(tid) + "/schedstat"};
    std::string line;
    if (!std::getline(in, line)) continue;
    if (const auto ns = pb::parse_schedstat(line)) reading[tid] = *ns;
  }
  return reading;
}

/// The pinned generator flow. run_open_loop starts its receiver, then its
/// sender, both inheriting the caller's generator CPU set; left to the
/// scheduler they sometimes share one CPU, where the sender's spin-wait
/// delays every receive. This thread waits for the two to appear and pins
/// the receiver and the sender to one generator CPU each. It polls until
/// they exist: run_open_loop encodes the whole window (tens of ms at high
/// rates) before it starts them.
class FlowPinner {
 public:
  explicit FlowPinner(const Placement& placement) : known_(task_ids()) {
    thread_ = std::thread{[this, &placement] {
      const cpu_set_t own = placement.control();
      (void)pthread_setaffinity_np(pthread_self(), sizeof own, &own);
      const cpu_set_t generator = placement.generator();
      while (!done_.load(std::memory_order_relaxed)) {
        std::vector<int> fresh;
        for (const int tid : task_ids()) {
          cpu_set_t affinity;
          CPU_ZERO(&affinity);
          if (std::binary_search(known_.begin(), known_.end(), tid) ||
              sched_getaffinity(tid, sizeof affinity, &affinity) != 0 ||
              !CPU_EQUAL(&affinity, &generator)) {
            continue;
          }
          fresh.push_back(tid);
        }
        if (fresh.size() >= 2) {  // ascending: the receiver was started first
          const cpu_set_t rx = placement.set_of({kGeneratorCpus[1]});
          const cpu_set_t tx = placement.set_of({kGeneratorCpus[0]});
          (void)sched_setaffinity(fresh[0], sizeof rx, &rx);
          (void)sched_setaffinity(fresh[1], sizeof tx, &tx);
          return;
        }
        std::this_thread::sleep_for(500us);
      }
    }};
  }
  ~FlowPinner() {
    done_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  FlowPinner(const FlowPinner&) = delete;
  FlowPinner& operator=(const FlowPinner&) = delete;

 private:
  std::vector<int> known_;  ///< threads that existed before the flow
  std::atomic<bool> done_{false};
  std::thread thread_;
};

/// Ticks (1/100 s) the hypervisor stole from `cpus`, from /proc/stat. On
/// a shared host this runs from ~0 to ~5% of each CPU; a window during
/// which a measured CPU lost a tick measures the host, not the server.
std::uint64_t steal_ticks(const std::vector<int>& cpus) {
  std::ifstream in{"/proc/stat"};
  std::string line;
  std::uint64_t total = 0;
  while (std::getline(in, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || line[3] == ' ') continue;
    std::istringstream fields{line};
    std::string name;
    std::uint64_t value = 0;
    fields >> name;
    const int cpu = std::atoi(name.c_str() + 3);
    if (std::find(cpus.begin(), cpus.end(), cpu) == cpus.end()) continue;
    for (int i = 0; i < 8 && fields >> value; ++i) {
    }
    total += value;  // the 8th field: steal
  }
  return total;
}

double peak_rss_mb() {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

// --- the serving stack -------------------------------------------------------

/// Counters of the benchmark's dynamic-domain wrapper around
/// MappingSystem::dns_handler. Timing is switched on only in traced runs.
struct MapTap {
  std::atomic<bool> timing{false};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> eu{0};
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> allocs{0};

  void reset() {
    calls.store(0, std::memory_order_relaxed);
    eu.store(0, std::memory_order_relaxed);
    ns.store(0, std::memory_order_relaxed);
    allocs.store(0, std::memory_order_relaxed);
  }
};

struct Stack {
  obs::MetricsRegistry registry;
  topo::World world;
  std::unique_ptr<topo::LatencyModel> latency;
  std::unique_ptr<cdn::CdnNetwork> network;
  std::unique_ptr<cdn::MappingSystem> mapping;
  util::SimClock clock;
  std::atomic<int> dead_cluster{-1};  ///< the health oracle's ground truth
  std::unique_ptr<cdn::LivenessMonitor> monitor;
  std::unique_ptr<control::MapMaker> maker;
  MapTap tap;
  const Placement* placement = nullptr;
  const topo::Ldns* fallback = nullptr;  ///< stands in for loopback peers
  std::unique_ptr<dnsserver::AuthoritativeServer> engine;     ///< served
  std::unique_ptr<dnsserver::AuthoritativeServer> reference;  ///< cache-off oracle
  std::unique_ptr<dnsserver::UdpAuthorityServer> server;
  std::vector<int> server_tids;  ///< the worker threads start() created
};

/// The served dynamic domain: the mapping handler, with loopback peers
/// (every generator and canary socket) patched to one fallback LDNS, and
/// the mapping call timed when the tap says so.
dnsserver::DynamicAnswerFn tapped_handler(Stack& s) {
  return [&s, inner = s.mapping->dns_handler()](const dnsserver::DynamicQuery& query)
             -> std::optional<dnsserver::DynamicAnswer> {
    std::optional<dnsserver::DynamicQuery> patched;
    if (s.world.ldns_by_address(query.resolver) == nullptr) {
      patched = query;
      patched->resolver = s.fallback->address;
    }
    if (!s.tap.timing.load(std::memory_order_relaxed)) return inner(patched ? *patched : query);
    const std::uint64_t allocs_before = t_allocs;
    const auto t0 = Clock::now();
    std::optional<dnsserver::DynamicAnswer> answer = inner(patched ? *patched : query);
    s.tap.ns.fetch_add(ns_between(t0, Clock::now()), std::memory_order_relaxed);
    s.tap.allocs.fetch_add(t_allocs - allocs_before, std::memory_order_relaxed);
    s.tap.calls.fetch_add(1, std::memory_order_relaxed);
    if (answer && answer->ecs_scope_len > 0) s.tap.eu.fetch_add(1, std::memory_order_relaxed);
    return answer;
  };
}

/// Build the world, mapping system and map maker, and start the server.
std::unique_ptr<Stack> build_stack(const Placement& placement) {
  auto s = std::make_unique<Stack>();
  s->placement = &placement;
  topo::WorldGenConfig world_config;
  world_config.seed = kWorldSeed;
  world_config.target_blocks = kBlocks;
  world_config.build_geodb = false;
  s->world = topo::generate_world(world_config);
  // The Fig. 23 regime: every resolver sends ECS.
  for (topo::Ldns& ldns : s->world.ldnses) ldns.supports_ecs = true;
  s->fallback = &s->world.ldnses.front();
  s->latency = std::make_unique<topo::LatencyModel>(topo::LatencyParams{}, world_config.seed);
  s->network = std::make_unique<cdn::CdnNetwork>(cdn::CdnNetwork::build(s->world, kClusters));
  cdn::MappingConfig mapping_config;
  mapping_config.precompute_cluster_scores = false;
  s->mapping = std::make_unique<cdn::MappingSystem>(&s->world, s->network.get(), s->latency.get(),
                                                    mapping_config);
  cdn::LivenessConfig liveness;
  // One probe round per advance of the benchmark's SimClock; one missed
  // (or answered) probe flips a server.
  liveness.probe_interval_s = 1;
  liveness.down_threshold = 1;
  liveness.up_threshold = 1;
  s->monitor = std::make_unique<cdn::LivenessMonitor>(
      s->network.get(), &s->clock,
      [dead = &s->dead_cluster](cdn::DeploymentId d, std::size_t) {
        return static_cast<int>(d) != dead->load(std::memory_order_relaxed);
      },
      liveness);
  control::MapMakerConfig maker_config;
  maker_config.scoring_shards = 1;
  maker_config.registry = &s->registry;
  s->maker = std::make_unique<control::MapMaker>(s->mapping.get(), nullptr, maker_config);
  s->maker->watch(s->monitor.get());
  s->maker->install_fast_path();

  const dns::DnsName zone = dns::DnsName::from_text(kZone);
  s->engine = std::make_unique<dnsserver::AuthoritativeServer>(&s->registry);
  s->engine->add_dynamic_domain(zone, tapped_handler(*s));
  s->reference = std::make_unique<dnsserver::AuthoritativeServer>();
  s->reference->add_dynamic_domain(zone, s->mapping->dns_handler());

  dnsserver::UdpServerConfig server_config;
  server_config.workers = 1;
  server_config.batch = 32;
  server_config.answer_cache_entries = kCacheEntries;
  server_config.answer_cache_max_wire = kCacheMaxWire;
  server_config.map_version = &s->maker->version_cell();
  s->server = std::make_unique<dnsserver::UdpAuthorityServer>(
      s->engine.get(), dnsserver::UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}, server_config);
  pin_self(placement.server());
  const std::vector<int> before = task_ids();
  s->server->start();
  for (const int tid : task_ids()) {
    if (!std::binary_search(before.begin(), before.end(), tid)) s->server_tids.push_back(tid);
  }
  pin_self(placement.control());
  s->maker->start(kMapMakerInterval);
  return s;
}

// --- traffic -----------------------------------------------------------------

load::TrafficConfig traffic_config(const Workload& w, std::uint64_t seed) {
  load::TrafficConfig config;
  config.seed = seed;
  config.zone = kZone;
  if (w.hot) {
    // Top 3 resolvers x 3 qnames x 2 client blocks each: 18 cache keys.
    config.qnames = 3;
    config.max_ldnses = 3;
    config.edns_fraction = 1.0;
    config.ecs_fraction = 1.0;
    config.ecs_host_fraction = 0.0;
    config.ecs_wide_fraction = 0.0;
  }
  return config;
}

/// One continuing seeded query stream: every window draws its queries
/// from the same generator state, so a run's inputs are fixed by its seed.
class QueryStream {
 public:
  QueryStream(const topo::World& world, const Workload& w, std::uint64_t seed)
      : model_(load::LdnsPopulation::from_world(world, traffic_config(w, seed)),
               traffic_config(w, seed)),
        hot_(w.hot),
        rng_(seed) {
    if (hot_) {
      for (const load::LdnsSource& source : model_.population().sources()) {
        const std::size_t n = std::min<std::size_t>(2, source.blocks.size());
        hot_blocks_.emplace_back(source.blocks.begin(),
                                 source.blocks.begin() + static_cast<std::ptrdiff_t>(n));
      }
    }
  }

  [[nodiscard]] load::QuerySpec draw(util::Rng& rng) const {
    load::QuerySpec spec = model_.draw(rng);
    if (hot_ && !hot_blocks_[spec.ldns].empty()) {
      const auto& blocks = hot_blocks_[spec.ldns];
      spec.ecs = dns::ClientSubnetOption::for_query(blocks[rng.below(blocks.size())].address(), 24);
    }
    return spec;
  }

  [[nodiscard]] std::vector<load::QuerySpec> next(std::size_t n) {
    std::vector<load::QuerySpec> specs;
    specs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) specs.push_back(draw(rng_));
    return specs;
  }

  [[nodiscard]] const load::TrafficModel& model() const noexcept { return model_; }

 private:
  load::TrafficModel model_;
  bool hot_;
  std::vector<std::vector<net::IpPrefix>> hot_blocks_;
  util::Rng rng_;
};

// --- answers and their checks --------------------------------------------------

/// What the serve path would send for `query` with the cache off:
/// AuthoritativeServer::handle + encode, truncated per RFC 1035/6891.
struct Reference {
  std::vector<std::uint8_t> wire;
  std::size_t full_size = 0;  ///< before truncation
  std::size_t limit = 0;
};

Reference reference_answer(dnsserver::AuthoritativeServer& engine, const dns::Message& query,
                           const net::IpAddr& source) {
  dns::Message response = engine.handle(query, source);
  Reference ref;
  ref.wire = response.encode();
  ref.full_size = ref.wire.size();
  ref.limit = dnsserver::effective_udp_payload_limit(
      query.edns.has_value(), query.edns ? query.edns->udp_payload_size : 0);
  if (ref.full_size > ref.limit) {
    response.answers.clear();
    response.authorities.clear();
    response.additionals.clear();
    response.header.truncated = true;
    ref.wire = response.encode();
  }
  return ref;
}

bool equal_but_id(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  return a.size() == b.size() && a.size() >= 2 && std::equal(a.begin() + 2, a.end(), b.begin() + 2);
}

/// Check one live answer; returns the failed check's name, empty when all
/// pass. `stable` = no map publish between the query and the reference.
std::string verify(const dns::Message& query, std::span<const std::uint8_t> live_wire,
                   const Reference& ref, bool stable, dns::Message& live) {
  try {
    live = dns::Message::decode(live_wire);
  } catch (const dns::WireError&) {
    return "undecodable answer";
  }
  if (!live.header.is_response || live.header.id != query.header.id) return "id not echoed";
  if (live.questions != query.questions) return "question not echoed";
  if (const dns::ClientSubnetOption* asked = query.client_subnet()) {
    const dns::ClientSubnetOption* echoed = live.client_subnet();
    if (echoed == nullptr) return "ECS not echoed";
    if (echoed->family() != asked->family() ||
        echoed->source_prefix_len() != asked->source_prefix_len() ||
        echoed->address() != asked->address()) {
      return "ECS family/source not echoed";
    }
    if (echoed->scope_prefix_len() > echoed->source_prefix_len()) return "ECS scope > source";
  }
  if (live_wire.size() > ref.limit) return "answer exceeds payload limit";
  if (stable) {
    if (live.header.truncated != (ref.full_size > ref.limit)) return "TC does not match size";
    if (!equal_but_id(live_wire, ref.wire)) return "cache-on answer != handle+encode";
  }
  return {};
}

/// Deployments of every A/AAAA address in an answer.
std::vector<cdn::DeploymentId> answer_clusters(const Stack& s, const dns::Message& answer) {
  std::vector<cdn::DeploymentId> clusters;
  for (const net::IpAddr& addr : answer.answer_addresses()) {
    if (const cdn::Deployment* d = s.network->deployment_of(addr)) clusters.push_back(d->id);
  }
  return clusters;
}

/// Ping-mesh RTT from the answered cluster to the query's mapping unit:
/// the client block's ping target for an end-user answer, else the LDNS's.
std::optional<double> mapped_rtt_ms(const Stack& s, const dns::Message& answer) {
  const std::vector<cdn::DeploymentId> clusters = answer_clusters(s, answer);
  if (clusters.empty()) return std::nullopt;
  topo::PingTargetId unit = s.fallback->ping_target;
  const dns::ClientSubnetOption* echoed = answer.client_subnet();
  if (echoed != nullptr && echoed->scope_prefix_len() > 0) {
    const net::IpPrefix block24{echoed->address(), 24};
    if (const topo::ClientBlock* block = s.world.block_by_prefix(block24)) {
      unit = block->ping_target;
    }
  }
  return static_cast<double>(s.mapping->mesh().rtt_ms(clusters.front(), unit));
}

/// The cluster the kills target and a query that is answered from it.
struct FailoverTarget {
  int cluster = -1;
  load::QuerySpec probe;
};

FailoverTarget find_busiest(Stack& s, const QueryStream& stream, std::uint64_t seed) {
  util::Rng rng{seed ^ 0xb5c0fbcfec4d3b2fULL};
  std::vector<std::uint64_t> hits(s.network->size(), 0);
  std::vector<std::pair<load::QuerySpec, cdn::DeploymentId>> sampled;
  for (int i = 0; i < 4000; ++i) {
    const load::QuerySpec spec = stream.draw(rng);
    const dns::Message query = stream.model().to_message(spec, 1);
    const dns::Message answer = dns::Message::decode(
        reference_answer(*s.reference, query, s.fallback->address).wire);
    const std::vector<cdn::DeploymentId> clusters = answer_clusters(s, answer);
    if (clusters.empty()) continue;
    hits[clusters.front()] += 1;
    sampled.emplace_back(spec, clusters.front());
  }
  FailoverTarget target;
  target.cluster = static_cast<int>(std::max_element(hits.begin(), hits.end()) - hits.begin());
  for (const auto& [spec, cluster] : sampled) {
    if (static_cast<int>(cluster) == target.cluster) {
      target.probe = spec;
      break;
    }
  }
  return target;
}

// --- the control CPU: canary checks and cluster kills --------------------------

struct ControlPlan {
  double canary_qps = kCanaryQps;
  bool churn = false;
  std::chrono::milliseconds half_period = kChurnHalfPeriod;
};

struct ControlResult {
  std::uint64_t sent = 0;
  std::uint64_t checks = 0;
  std::uint64_t failed = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t lost = 0;      ///< canary queries unanswered on the retry too
  std::uint64_t compared = 0;  ///< checks made at a stable map version
  double rtt_sum_ms = 0.0;
  std::uint64_t rtt_samples = 0;
  std::uint64_t kills = 0;
  std::uint64_t remap_timeouts = 0;
  std::vector<double> remap_ms;
  std::vector<std::string> failures;  ///< first few failed checks

  void merge(const ControlResult& o) {
    sent += o.sent;
    checks += o.checks;
    failed += o.failed;
    unanswered += o.unanswered;
    lost += o.lost;
    compared += o.compared;
    rtt_sum_ms += o.rtt_sum_ms;
    rtt_samples += o.rtt_samples;
    kills += o.kills;
    remap_timeouts += o.remap_timeouts;
    remap_ms.insert(remap_ms.end(), o.remap_ms.begin(), o.remap_ms.end());
    for (const std::string& f : o.failures) {
      if (failures.size() < 8) failures.push_back(f);
    }
  }
};

/// Runs on the control CPU until `stop`: canary checks at a low rate and,
/// with churn, kill/revive of the target cluster every half period. After
/// each kill the failover probe is polled until an answer avoids the dead
/// cluster; that delay from the oracle flip is one remap sample.
class ControlThread {
 public:
  ControlThread(Stack& s, const QueryStream& stream, const FailoverTarget& target,
                const Placement& placement, ControlPlan plan, std::uint64_t seed)
      : s_(s), stream_(stream), target_(target), plan_(plan), rng_(seed) {
    thread_ = std::thread{[this, set = placement.control()] {
      try {
        pin_self(set);
        run();
      } catch (const std::exception& e) {
        result_.failed += 1;
        result_.failures.push_back(std::string{"control thread: "} + e.what());
      }
    }};
  }
  ~ControlThread() { (void)finish(); }
  ControlThread(const ControlThread&) = delete;
  ControlThread& operator=(const ControlThread&) = delete;

  ControlResult finish() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    return result_;
  }

 private:
  std::optional<std::vector<std::uint8_t>> exchange(
      std::vector<std::uint8_t> wire, std::uint16_t id,
      std::chrono::milliseconds timeout = std::chrono::milliseconds{100}) {
    wire[0] = static_cast<std::uint8_t>(id >> 8);
    wire[1] = static_cast<std::uint8_t>(id & 0xff);
    result_.sent += 1;
    try {
      socket_.send_to(wire, s_.server->endpoint());
    } catch (const std::system_error&) {
      return std::nullopt;
    }
    const auto deadline = Clock::now() + timeout;
    for (;;) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
      if (left.count() <= 0) return std::nullopt;
      dnsserver::UdpEndpoint peer;
      auto datagram = socket_.receive(left, peer);
      if (!datagram) return std::nullopt;
      if (datagram->size() >= 2 && ((*datagram)[0] << 8 | (*datagram)[1]) == id) return datagram;
    }
  }

  void canary_check() {
    const load::QuerySpec spec = stream_.draw(rng_);
    const std::uint16_t id = next_id_++;
    const dns::Message query = stream_.model().to_message(spec, id);
    const std::uint64_t v0 = s_.maker->version();
    const std::uint64_t snap0 = s_.maker->current()->version();
    auto live = exchange(query.encode(), id);
    if (!live) {
      // Counted in the error rate; resent once, with a resolver's
      // patience, since a host stall may hold the server for a while.
      result_.unanswered += 1;
      live = exchange(query.encode(), id, 1000ms);
      if (!live) {
        result_.lost += 1;
        return;
      }
    }
    const Reference ref = reference_answer(*s_.reference, query, s_.fallback->address);
    const bool stable = v0 == snap0 && s_.maker->current()->version() == v0 &&
                        s_.maker->version() == v0;
    dns::Message answer;
    const std::string why = verify(query, *live, ref, stable, answer);
    result_.checks += 1;
    result_.compared += stable ? 1 : 0;
    if (!why.empty()) {
      result_.failed += 1;
      if (result_.failures.size() < 8) result_.failures.push_back(why);
      return;
    }
    if (const auto rtt = mapped_rtt_ms(s_, answer)) {
      result_.rtt_sum_ms += *rtt;
      result_.rtt_samples += 1;
    }
  }

  /// Poll the failover probe until its answer avoids the dead cluster; a
  /// second without one is a failed remap. A stop request ends the poll
  /// without a sample.
  void await_remap(Clock::time_point flipped) {
    const std::vector<std::uint8_t> wire = stream_.model().encode(target_.probe, 0);
    while (seconds_since(flipped) < 1.0) {
      if (stop_.load(std::memory_order_relaxed)) return;
      const std::uint16_t id = next_id_++;
      if (const auto live = exchange(wire, id)) {
        try {
          const dns::Message answer = dns::Message::decode(*live);
          const std::vector<cdn::DeploymentId> clusters = answer_clusters(s_, answer);
          if (!clusters.empty() &&
              std::none_of(clusters.begin(), clusters.end(), [&](cdn::DeploymentId d) {
                return static_cast<int>(d) == target_.cluster;
              })) {
            result_.remap_ms.push_back(seconds_since(flipped) * 1000.0);
            return;
          }
        } catch (const dns::WireError&) {
        }
      }
      std::this_thread::sleep_for(50us);
    }
    result_.remap_timeouts += 1;
  }

  void run() {
    const auto start = Clock::now();
    const auto canary_gap = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(plan_.canary_qps > 0 ? 1.0 / plan_.canary_qps : 1e9));
    auto next_canary = start;
    auto next_flip = start + plan_.half_period;
    bool killed = false;
    while (!stop_.load(std::memory_order_relaxed)) {
      const auto now = Clock::now();
      if (plan_.churn && now >= next_flip) {
        killed = !killed;
        s_.dead_cluster.store(killed ? target_.cluster : -1, std::memory_order_relaxed);
        s_.clock.advance(1);  // the monitor's next probe round is due
        next_flip += plan_.half_period;
        if (killed) {
          result_.kills += 1;
          await_remap(now);
        }
        continue;
      }
      if (plan_.canary_qps > 0 && now >= next_canary) {
        canary_check();
        next_canary += canary_gap;
        continue;
      }
      const bool canary = plan_.canary_qps > 0;
      auto wake = plan_.churn && canary ? std::min(next_flip, next_canary)
                  : plan_.churn         ? next_flip
                                        : next_canary;
      wake = std::min(wake, Clock::now() + 2ms);
      std::this_thread::sleep_until(wake);
    }
    if (killed) {
      s_.dead_cluster.store(-1, std::memory_order_relaxed);
      s_.clock.advance(1);
    }
  }

  Stack& s_;
  const QueryStream& stream_;
  FailoverTarget target_;
  ControlPlan plan_;
  util::Rng rng_;
  dnsserver::UdpSocket socket_{dnsserver::UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}};
  std::uint16_t next_id_ = 1;
  ControlResult result_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after every member it uses exists
};

// --- open-loop windows ------------------------------------------------------------

const pb::Slo kSlo{};

struct Window {
  load::LoadReport report;
  std::vector<load::QuerySpec> specs;
  pb::JudgedPoint judged;
  bool stolen = false;  ///< the hypervisor stole time from a measured CPU
};

Window run_window(const Stack& s, QueryStream& stream, double qps, double seconds,
                  std::uint64_t schedule_seed) {
  // DNS ids are 16 bits: keep a window's queries inside one id space.
  const auto n = std::min<std::size_t>(static_cast<std::size_t>(qps * seconds), 60'000);
  Window w;
  w.specs = stream.next(n);
  const load::OpenLoopSchedule schedule =
      load::OpenLoopSchedule::make(load::Arrivals::poisson, qps, n, schedule_seed);
  load::DriverConfig flow;
  flow.server = s.server->endpoint();
  flow.flows = 1;
  flow.timeout = 200ms;
  flow.drain_slack = 20ms;
  const std::uint64_t steal_before = steal_ticks(s.placement->measured());
  {
    const FlowPinner pinner{*s.placement};
    w.report = load::run_open_loop(stream.model(), w.specs, schedule, flow);
  }
  w.stolen = steal_ticks(s.placement->measured()) != steal_before;
  pb::RatePoint& p = w.judged.point;
  p.offered_qps = qps;
  p.samples = w.report.latency_us.count;
  p.p99_us = w.report.latency_us.percentile(99);
  p.error_rate = w.report.drop_rate();
  const double span_s = static_cast<double>(schedule.span_ns()) / 1e9;
  p.drain_ms = std::max(0.0, w.report.seconds - span_s) * 1e3;
  p.send_lag_p99_us = w.report.send_lag_us.percentile(99);
  w.judged.verdict = pb::judge(p, kSlo);
  return w;
}

/// One offered-rate search point. The point passes when any window at the
/// rate passes, and fails after three failing windows without stolen time
/// (or four windows in all); the best verdict seen counts (pass, then
/// server_failed, then the rest). The host stalls every CPU for 5-20 ms a
/// few times a minute, and one such stall must not end the passing prefix.
pb::JudgedPoint search_point(const Stack& s, QueryStream& stream, double qps,
                             std::uint64_t& schedule_seed) {
  const auto rank = [](pb::Verdict v) {
    return v == pb::Verdict::pass ? 0 : v == pb::Verdict::server_failed ? 1 : 2;
  };
  std::optional<pb::JudgedPoint> best;
  int clean_failures = 0;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const Window w = run_window(s, stream, qps, kSearchPointS, ++schedule_seed);
    if (w.judged.verdict == pb::Verdict::pass) return w.judged;
    if (!best || rank(w.judged.verdict) < rank(best->verdict)) best = w.judged;
    if (!w.stolen && ++clean_failures == 3) break;
  }
  return *best;
}

/// Resend `specs` closed loop, one in flight, and return how many go
/// unanswered again. A host stall of a few tens of ms overflows a socket
/// queue at the fixed rate and drops a burst; those drops count in the
/// error rate, but a query fails only when a resolver's retry is lost too.
/// The report does not say which queries were dropped, so every query of
/// a window with drops is resent.
std::uint64_t lost_on_retry(const Stack& s, const QueryStream& stream,
                            const std::vector<load::QuerySpec>& specs) {
  if (specs.empty()) return 0;
  load::DriverConfig flow;
  flow.server = s.server->endpoint();
  flow.flows = 1;
  flow.timeout = 1000ms;
  return load::run_closed_loop(stream.model(), specs, flow).timeouts;
}

// --- registry deltas ------------------------------------------------------------------

std::uint64_t counter_sum(const obs::MetricsSnapshot& snap, std::string_view name) {
  std::uint64_t total = 0;
  for (const auto& c : snap.counters) {
    if (c.name == name) total += c.value;
  }
  return total;
}

obs::HistogramSnapshot histogram(const obs::MetricsSnapshot& snap, std::string_view name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return h.hist;
  }
  return {};
}

obs::HistogramSnapshot histogram_delta(const obs::MetricsSnapshot& after,
                                       const obs::MetricsSnapshot& before, std::string_view name) {
  obs::HistogramSnapshot a = histogram(after, name);
  const obs::HistogramSnapshot b = histogram(before, name);
  for (std::size_t i = 0; i < b.buckets.size() && i < a.buckets.size(); ++i) {
    a.buckets[i] -= b.buckets[i];
  }
  a.count -= b.count;
  a.sum -= b.sum;
  return a;
}

// --- in-process replay -------------------------------------------------------------------

struct Stage {
  std::uint64_t ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t count = 0;

  void add(Clock::time_point from, Clock::time_point to, std::uint64_t allocs_from,
           std::uint64_t allocs_to) {
    ns += ns_between(from, to);
    allocs += allocs_to - allocs_from;
    count += 1;
  }
  [[nodiscard]] double ns_per() const {
    return ratio(static_cast<double>(ns), static_cast<double>(count));
  }
  [[nodiscard]] double allocs_per() const {
    return ratio(static_cast<double>(allocs), static_cast<double>(count));
  }
};

struct ReplayResult {
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t unprobeable = 0;
  Stage probe, render, decode, handle, encode, store;
  std::uint64_t map_ns = 0, map_allocs = 0, map_calls = 0, map_eu = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t mismatches = 0;  ///< cache hits whose answer differs from cache-off
};

/// Serve `specs` in order on this thread through the public calls the UDP
/// serve path makes, with each query's real LDNS as its source. Every
/// cache hit is also answered cache-off, outside the timed spans, and
/// compared.
ReplayResult replay(Stack& s, const QueryStream& stream, const std::vector<load::QuerySpec>& specs,
                    const Placement& placement) {
  pin_self(placement.server());
  const load::TrafficModel& model = stream.model();
  std::vector<std::vector<std::uint8_t>> wires;
  std::vector<net::IpAddr> sources;
  wires.reserve(specs.size());
  sources.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    wires.push_back(model.encode(specs[i], static_cast<std::uint16_t>(i)));
    sources.push_back(model.population().sources()[specs[i].ldns].address);
  }
  dnsserver::AnswerCache cache{dnsserver::AnswerCache::Config{kCacheEntries, kCacheMaxWire}};
  const std::uint64_t version = s.maker->version();
  ReplayResult r;
  dns::Message query;
  dns::Message response;
  std::vector<std::uint8_t> encoded;
  std::vector<std::uint8_t> rendered;
  std::uint64_t check_ns = 0;
  s.tap.reset();
  s.tap.timing.store(true, std::memory_order_relaxed);
  const auto begin = Clock::now();
  for (std::size_t i = 0; i < wires.size(); ++i) {
    const std::span<const std::uint8_t> wire{wires[i]};
    const std::uint64_t a0 = t_allocs;
    const auto t0 = Clock::now();
    const std::optional<dnsserver::QueryProbe> probe = dnsserver::QueryProbe::parse(wire);
    const dnsserver::AnswerCache::Entry* hit = probe ? cache.find(*probe, version) : nullptr;
    const std::uint64_t a1 = t_allocs;
    const auto t1 = Clock::now();
    r.probe.add(t0, t1, a0, a1);
    r.queries += 1;
    r.unprobeable += probe ? 0 : 1;
    if (hit != nullptr) {
      cache.render(*hit, *probe, rendered);
      const auto rendered_at = Clock::now();
      r.render.add(t1, rendered_at, a1, t_allocs);
      r.hits += 1;
      // Cache-off answer for the same query and source, untimed.
      s.tap.timing.store(false, std::memory_order_relaxed);
      const dns::Message again = dns::Message::decode(wire);
      const Reference ref = reference_answer(*s.reference, again, sources[i]);
      r.mismatches += equal_but_id(rendered, ref.wire) ? 0 : 1;
      s.tap.timing.store(true, std::memory_order_relaxed);
      check_ns += ns_between(rendered_at, Clock::now());
      continue;
    }
    // Each stage also frees what the same stage made for the previous query.
    query = dns::Message::decode(wire);
    const std::uint64_t a2 = t_allocs;
    const auto t2 = Clock::now();
    r.decode.add(t1, t2, a1, a2);
    response = s.engine->handle(query, sources[i]);
    const std::uint64_t a3 = t_allocs;
    const auto t3 = Clock::now();
    r.handle.add(t2, t3, a2, a3);
    encoded = response.encode();
    const std::size_t limit = dnsserver::effective_udp_payload_limit(
        query.edns.has_value(), query.edns ? query.edns->udp_payload_size : 0);
    if (encoded.size() > limit) {
      response.answers.clear();
      response.authorities.clear();
      response.additionals.clear();
      response.header.truncated = true;
      encoded = response.encode();
    }
    const std::uint64_t a4 = t_allocs;
    const auto t4 = Clock::now();
    r.encode.add(t3, t4, a3, a4);
    if (probe) {
      cache.store(*probe, version, encoded);
      r.store.add(t4, Clock::now(), a4, t_allocs);
    }
  }
  r.total_ns = ns_between(begin, Clock::now()) - check_ns;
  s.tap.timing.store(false, std::memory_order_relaxed);
  r.map_ns = s.tap.ns.load(std::memory_order_relaxed);
  r.map_allocs = s.tap.allocs.load(std::memory_order_relaxed);
  r.map_calls = s.tap.calls.load(std::memory_order_relaxed);
  r.map_eu = s.tap.eu.load(std::memory_order_relaxed);
  return r;
}

// --- output ------------------------------------------------------------------------------

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(value) ? value : 0.0);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  [[nodiscard]] std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::string_view{value} == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || !(args.seconds > 0.0)) return std::nullopt;
  return args;
}

/// Shared by both modes: what the run realised, for the details line.
struct Realised {
  std::uint64_t queries = 0;
  std::uint64_t ecs_queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_probed = 0;
  std::uint64_t answered = 0;
  std::uint64_t cpu_ns = 0;  ///< on-CPU time of the server's threads

  void count(const std::vector<load::QuerySpec>& specs) {
    queries += specs.size();
    for (const auto& spec : specs) ecs_queries += spec.ecs ? 1 : 0;
  }
  [[nodiscard]] double ecs_share() const {
    return ratio(static_cast<double>(ecs_queries), static_cast<double>(queries));
  }
  [[nodiscard]] double hit_ratio() const {
    return ratio(static_cast<double>(cache_hits), static_cast<double>(cache_probed));
  }
};

struct ServeDelta {
  dnsserver::UdpServerStats before;
  void add_to(const Stack& s, Realised& realised) const {
    const dnsserver::UdpServerStats after = s.server->stats();
    realised.cache_hits += after.cache_hits - before.cache_hits;
    realised.cache_probed += (after.cache_hits + after.cache_misses) -
                             (before.cache_hits + before.cache_misses);
    realised.answered += after.queries - before.queries;
  }
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.json().c_str());
  std::fflush(stdout);
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", \"" : "\"") + items[i] + "\"";
  }
  return out + "]";
}

std::string fmt_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) out += (i ? ", " : "") + fmt(values[i]);
  return out + "]";
}

// --- the two modes -------------------------------------------------------------------------

int run_untraced(const Workload& w, const Args& args, const Placement& placement) {
  // Set-up, several times; setup_s is the median, the last stack serves.
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (std::size_t i = 0; i < kSetups; ++i) {
    stack.reset();
    pin_self(placement.control());
    const auto t0 = Clock::now();
    stack = build_stack(placement);
    setups.push_back(seconds_since(t0));
  }
  Stack& s = *stack;
  QueryStream stream{s.world, w, args.seed};
  const FailoverTarget target = find_busiest(s, stream, args.seed);
  pin_self(placement.generator());

  std::uint64_t schedule_seed = args.seed * 1000;
  (void)run_window(s, stream, kFixedQps, 1.0, ++schedule_seed);  // warm the cache and sockets

  // Fixed-rate phase: sub-windows, canary (and churn) on the control CPU.
  const std::size_t subs =
      std::max<std::size_t>(8, static_cast<std::size_t>(0.3 * args.seconds / kSubWindowS + 0.5));
  Realised realised;
  // Latency comes from the windows without stolen time, unless fewer than
  // a quarter of them are clean. Stalls too short to register as steal
  // still spoil some windows' p99, so p99 is the lower quartile over
  // windows and p50 the median.
  struct Latencies {
    std::vector<double> p50, p99;
  } clean, stolen;
  obs::HistogramSnapshot samples;
  std::size_t stolen_windows = 0;
  std::uint64_t offered = 0, unanswered = 0;
  std::vector<load::QuerySpec> retry;  ///< the queries of windows with drops
  // The fixed rate is one point, judged on the send lag of the whole
  // phase. A host stall of a few ms lifts one 0.25 s window's lag p99 over
  // the limit; such windows are counted, not taken for a generator that
  // cannot hold the rate.
  obs::HistogramSnapshot send_lag;
  std::size_t lagging_windows = 0;
  ControlPlan plan;
  plan.churn = w.churn;
  plan.half_period = kChurnHalfPeriod;
  ControlResult control;
  const std::uint64_t publishes0 = s.maker->publishes();
  std::uint64_t kills = 0;
  {
    const ServeDelta delta{s.server->stats()};
    const pb::CpuReading cpu0 = read_cpu(s.server_tids);
    ControlThread canary{s, stream, target, placement, plan, args.seed + 1};
    for (std::size_t i = 0; i < subs; ++i) {
      Window win = run_window(s, stream, kFixedQps, kSubWindowS, ++schedule_seed);
      realised.count(win.specs);
      stolen_windows += win.stolen ? 1 : 0;
      Latencies& into = win.stolen ? stolen : clean;
      into.p50.push_back(win.report.latency_us.percentile(50));
      into.p99.push_back(win.report.latency_us.percentile(99));
      samples.merge(win.report.latency_us);
      send_lag.merge(win.report.send_lag_us);
      lagging_windows += win.judged.verdict == pb::Verdict::generator_invalid ? 1 : 0;
      offered += win.report.offered;
      unanswered += win.report.dropped;
      if (win.report.dropped > 0) retry.insert(retry.end(), win.specs.begin(), win.specs.end());
    }
    control = canary.finish();
    kills += control.kills;
    const pb::CpuReading cpu1 = read_cpu(s.server_tids);
    delta.add_to(s, realised);
    realised.cpu_ns = pb::cpu_ns_between(cpu0, cpu1);
  }
  // After the server deltas, so the resent queries leave them alone.
  const std::uint64_t lost = lost_on_retry(s, stream, retry);
  const double send_lag_p99 = send_lag.percentile(99);
  const bool generator_invalid = send_lag_p99 > kSlo.max_send_lag_share * kSlo.p99_us;
  if (clean.p50.size() * 4 < subs) {
    clean.p50.insert(clean.p50.end(), stolen.p50.begin(), stolen.p50.end());
    clean.p99.insert(clean.p99.end(), stolen.p99.begin(), stolen.p99.end());
  }
  const double cpu_us = pb::cpu_us_per_query(realised.cpu_ns, realised.answered);
  const double error_rate =
      static_cast<double>(unanswered + control.unanswered + control.failed) /
      static_cast<double>(std::max<std::uint64_t>(1, offered + control.sent));

  // Max-QPS search, repeated while the budget lasts; the median counts.
  // A search the server ended measures its capacity; one a late generator
  // ended gives only a lower bound, used when no search measured it. A
  // search that fails its first point, the rate the fixed phase just
  // served, ran through a host stall and measured nothing.
  std::vector<double> maxima, bounds;
  std::vector<std::string> curves;
  std::vector<std::string> stops;
  {
    // The search overloads the server on purpose, and an overloaded server
    // drops queries, the canary's too: the churn runs on without it.
    ControlPlan churn_plan = plan;
    churn_plan.canary_qps = 0.0;
    std::optional<ControlThread> churn;
    if (w.churn) churn.emplace(s, stream, target, placement, churn_plan, args.seed + 2);
    const auto search_start = Clock::now();
    const double budget = 0.5 * args.seconds;
    do {
      const std::vector<pb::JudgedPoint> points = pb::search_rates(
          kFixedQps, kCoarseStep, kFineStep, kMaxSearchQps,
          [&](double qps) { return search_point(s, stream, qps, schedule_seed); });
      const pb::PrefixTop top = pb::passing_prefix_top(points);
      if (top.qps > 0.0) {
        const bool measured =
            top.breaker == pb::Verdict::server_failed || top.breaker == pb::Verdict::pass;
        (measured ? maxima : bounds).push_back(top.qps);
      }
      stops.push_back(pb::to_string(top.breaker));
      std::string curve;
      for (const pb::JudgedPoint& p : points) {
        curve += (curve.empty() ? "" : " ") + fmt(p.point.offered_qps) + ":" + fmt(p.point.p99_us) +
                 ":" + pb::to_string(p.verdict);
      }
      curves.push_back(curve);
    } while (seconds_since(search_start) <
             budget * (1.0 - 1.0 / static_cast<double>(curves.size() + 1)));
    if (churn) {
      const ControlResult more = churn->finish();
      kills += more.kills;
      control.merge(more);
    }
  }

  // Failover probe for the workloads without churn: kills with no load.
  if (!w.churn) {
    ControlPlan probe_plan;
    probe_plan.churn = true;
    probe_plan.half_period = kProbeHalfPeriod;
    ControlThread failover{s, stream, target, placement, probe_plan, args.seed + 3};
    std::this_thread::sleep_for(std::chrono::duration<double>(std::max(1.0, 0.1 * args.seconds)));
    const ControlResult more = failover.finish();
    kills += more.kills;
    control.merge(more);
  }
  const std::uint64_t publishes = s.maker->publishes() - publishes0;
  const double remap = pb::median(control.remap_ms);
  const double rtt = ratio(control.rtt_sum_ms, static_cast<double>(control.rtt_samples));

  const bool hit_ratio_ok = w.hot ? realised.hit_ratio() >= 0.99 : realised.hit_ratio() <= 0.35;
  const bool publishes_ok = publishes >= kills;
  const bool correct = control.failed == 0 && control.remap_timeouts == 0 && hit_ratio_ok &&
                       publishes_ok && control.rtt_samples > 0 && !control.remap_ms.empty();

  // The tail and the capacity are reported here, without a bound: on a
  // shared host their run-to-run spread is wider than any bound a
  // regression gate could use (see README.md).
  const double latency_p99 = pb::quantile(clean.p99, 0.25);
  const double max_qps = !maxima.empty()  ? pb::median(maxima)
                         : !bounds.empty() ? *std::max_element(bounds.begin(), bounds.end())
                                           : 0.0;
  std::printf(
      "details {\"workload\": \"%s\", \"seed\": %llu, \"placement\": %s, \"setup_s\": %s, "
      "\"fixed_qps\": %s, \"sub_windows\": %zu, \"stolen_windows\": %zu, \"ecs_share\": %s, "
      "\"hit_ratio\": %s, \"latency_p99_us\": %s, \"max_qps_under_slo\": %s, "
      "\"p99_us_by_window\": %s, \"p999_us_diagnostic\": %s, \"send_lag_p99_us\": %s, "
      "\"generator_invalid_at_fixed_rate\": %s, \"lagging_windows\": %zu, "
      "\"search_max_qps\": %s, "
      "\"search_lower_bounds\": %s, "
      "\"search_stopped_by\": %s, "
      "\"search_curves\": %s, \"canary\": {\"sent\": %llu, \"checks\": %llu, \"compared\": %llu, "
      "\"failed\": %llu, \"unanswered\": %llu, \"lost\": %llu, \"failures\": %s}, "
      "\"dropped\": %llu, \"resent\": %zu, \"lost_on_retry\": %llu, \"kills\": %llu, "
      "\"publishes\": %llu, \"remap_samples\": %zu, \"remap_timeouts\": %llu, "
      "\"error_rate\": %s}\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed), placement.describe().c_str(),
      fmt_list(setups).c_str(),
      fmt(kFixedQps).c_str(), subs, stolen_windows, fmt(realised.ecs_share()).c_str(),
      fmt(realised.hit_ratio()).c_str(), fmt(latency_p99).c_str(), fmt(max_qps).c_str(),
      fmt_list(clean.p99).c_str(),
      fmt(samples.percentile(99.9)).c_str(),
      fmt(send_lag_p99).c_str(), generator_invalid ? "true" : "false", lagging_windows,
      fmt_list(maxima).c_str(), fmt_list(bounds).c_str(),
      json_list(stops).c_str(), json_list(curves).c_str(),
      static_cast<unsigned long long>(control.sent),
      static_cast<unsigned long long>(control.checks),
      static_cast<unsigned long long>(control.compared),
      static_cast<unsigned long long>(control.failed),
      static_cast<unsigned long long>(control.unanswered),
      static_cast<unsigned long long>(control.lost), json_list(control.failures).c_str(),
      static_cast<unsigned long long>(unanswered), retry.size(),
      static_cast<unsigned long long>(lost),
      static_cast<unsigned long long>(kills), static_cast<unsigned long long>(publishes),
      control.remap_ms.size(), static_cast<unsigned long long>(control.remap_timeouts),
      fmt(error_rate).c_str());

  Metrics m;
  m.add("setup_s", pb::median(setups), "s");
  m.add("latency_p50_us", pb::median(clean.p50), "us");
  m.add("cpu_us_per_query", cpu_us, "us");
  m.add("success_ratio", 1.0 - error_rate, "ratio");
  m.add("mapped_rtt_ms", rtt, "ms");
  m.add("remap_ms", remap, "ms");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  print_result(correct, offered + control.sent, lost + control.lost + control.failed, m);
  return correct ? 0 : 1;
}

int run_traced(const Workload& w, const Args& args, const Placement& placement) {
  pin_self(placement.control());
  std::unique_ptr<Stack> stack = build_stack(placement);
  Stack& s = *stack;
  QueryStream stream{s.world, w, args.seed};
  const FailoverTarget target = find_busiest(s, stream, args.seed);
  pin_self(placement.generator());
  std::uint64_t schedule_seed = args.seed * 1000;
  (void)run_window(s, stream, kFixedQps, 1.0, ++schedule_seed);

  ControlPlan plan;
  plan.churn = w.churn;
  plan.half_period = kChurnHalfPeriod;
  const double window_s = std::clamp(0.1 * args.seconds, 0.5, 3.0);
  std::vector<double> untraced_p50, traced_p50, traced_p99, lags;
  std::vector<load::QuerySpec> traced_specs;
  std::vector<load::QuerySpec> retry;  ///< the queries of windows with drops
  Realised realised;
  std::uint64_t offered = 0, unanswered = 0;
  ControlResult control;
  obs::MetricsSnapshot before, after;
  std::uint64_t publishes0 = 0, publishes = 0, skipped0 = 0, skipped = 0;
  {
    ControlThread canary{s, stream, target, placement, plan, args.seed + 1};
    for (int round = 0; round < 2; ++round) {
      Window u = run_window(s, stream, kFixedQps, window_s, ++schedule_seed);
      untraced_p50.push_back(u.report.latency_us.percentile(50));
      offered += u.report.offered;
      unanswered += u.report.dropped;
      if (u.report.dropped > 0) retry.insert(retry.end(), u.specs.begin(), u.specs.end());

      s.tap.reset();
      const obs::MetricsSnapshot b = s.registry.snapshot();
      if (round == 0) {
        before = b;
        publishes0 = s.maker->publishes();
        skipped0 = s.maker->skipped_publishes();
      }
      const ServeDelta delta{s.server->stats()};
      s.tap.timing.store(true, std::memory_order_relaxed);
      Window t = run_window(s, stream, kFixedQps, window_s, ++schedule_seed);
      s.tap.timing.store(false, std::memory_order_relaxed);
      delta.add_to(s, realised);
      realised.count(t.specs);
      traced_p50.push_back(t.report.latency_us.percentile(50));
      traced_p99.push_back(t.report.latency_us.percentile(99));
      lags.push_back(t.judged.point.send_lag_p99_us);
      offered += t.report.offered;
      unanswered += t.report.dropped;
      if (t.report.dropped > 0) retry.insert(retry.end(), t.specs.begin(), t.specs.end());
      traced_specs.insert(traced_specs.end(), t.specs.begin(), t.specs.end());
    }
    after = s.registry.snapshot();
    publishes = s.maker->publishes() - publishes0;
    skipped = s.maker->skipped_publishes() - skipped0;
    control = canary.finish();
  }
  const std::uint64_t lost = lost_on_retry(s, stream, retry);
  const std::uint64_t live_calls = s.tap.calls.load(std::memory_order_relaxed);
  const double live_map_ns = ratio(static_cast<double>(s.tap.ns.load(std::memory_order_relaxed)),
                                   static_cast<double>(live_calls));

  const obs::HistogramSnapshot serve = histogram_delta(after, before, "eum_udp_serve_latency_us");
  const obs::HistogramSnapshot rx_batch = histogram_delta(after, before, "eum_udp_rx_batch_size");
  const obs::HistogramSnapshot rebuild =
      histogram_delta(after, before, "eum_control_rebuild_latency_us");
  const auto counter_delta = [&](std::string_view name) {
    return static_cast<double>(counter_sum(after, name) - counter_sum(before, name));
  };
  const double rebuilds = counter_delta("eum_control_rebuilds_total");
  const double probed_live = static_cast<double>(realised.cache_probed);
  const double unprobeable_live =
      realised.answered == 0 ? 0.0
                             : std::max(0.0, static_cast<double>(realised.answered) - probed_live) /
                                   static_cast<double>(realised.answered);

  const ReplayResult r = replay(s, stream, traced_specs, placement);
  const double n = static_cast<double>(std::max<std::uint64_t>(1, r.queries));
  const double self_sum = static_cast<double>(r.probe.ns + r.render.ns + r.decode.ns + r.handle.ns +
                                              r.encode.ns + r.store.ns);
  const double total = static_cast<double>(r.total_ns);
  const double map_calls = static_cast<double>(std::max<std::uint64_t>(1, r.map_calls));
  const double handled = static_cast<double>(std::max<std::uint64_t>(1, r.handle.count));
  const double latency_p99 = pb::median(traced_p99);
  const double serve_p99 = serve.percentile(99);

  const bool hit_ratio_ok = w.hot ? realised.hit_ratio() >= 0.99 : realised.hit_ratio() <= 0.35;
  const bool correct = control.failed == 0 && control.remap_timeouts == 0 && hit_ratio_ok;

  std::printf(
      "details {\"workload\": \"%s\", \"seed\": %llu, \"placement\": %s, \"fixed_qps\": %s, "
      "\"traced_window_s\": %s, \"ecs_share\": %s, \"hit_ratio\": %s, \"replay_queries\": %llu, "
      "\"replay_hits\": %llu, \"replay_hit_ratio\": %s, \"untraced_p50_us\": %s, "
      "\"traced_p50_us\": %s, \"canary\": {\"checks\": %llu, \"failed\": %llu, \"failures\": %s}, "
      "\"dropped\": %llu, \"lost_on_retry\": %llu, \"rebuilds\": %s}\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed), placement.describe().c_str(),
      fmt(kFixedQps).c_str(), fmt(window_s).c_str(), fmt(realised.ecs_share()).c_str(),
      fmt(realised.hit_ratio()).c_str(), static_cast<unsigned long long>(r.queries),
      static_cast<unsigned long long>(r.hits),
      fmt(static_cast<double>(r.hits) / n).c_str(), fmt(pb::median(untraced_p50)).c_str(),
      fmt(pb::median(traced_p50)).c_str(), static_cast<unsigned long long>(control.checks),
      static_cast<unsigned long long>(control.failed), json_list(control.failures).c_str(),
      static_cast<unsigned long long>(unanswered), static_cast<unsigned long long>(lost),
      fmt(rebuilds).c_str());

  Metrics m;
  m.add("dns.decode_ns", r.decode.ns_per(), "ns");
  m.add("dns.decode_allocs", r.decode.allocs_per(), "count");
  m.add("dns.encode_ns", r.encode.ns_per(), "ns");
  m.add("dns.encode_allocs", r.encode.allocs_per(), "count");
  m.add("auth.handle_self_ns",
        (static_cast<double>(r.handle.ns) - static_cast<double>(r.map_ns)) / handled, "ns");
  m.add("auth.handle_self_allocs",
        (static_cast<double>(r.handle.allocs) - static_cast<double>(r.map_allocs)) / handled,
        "count");
  m.add("map.decision_ns", static_cast<double>(r.map_ns) / map_calls, "ns");
  m.add("map.decision_allocs", static_cast<double>(r.map_allocs) / map_calls, "count");
  m.add("map.eu_share", static_cast<double>(r.map_eu) / map_calls, "ratio");
  m.add("map.live_decision_ns", live_map_ns, "ns");
  m.add("cache.probe_ns", r.probe.ns_per(), "ns");
  m.add("cache.render_ns", r.render.ns_per(), "ns");
  m.add("cache.store_ns", r.store.ns_per(), "ns");
  m.add("cache.hit_ratio", realised.hit_ratio(), "ratio");
  m.add("cache.unprobeable_ratio", unprobeable_live, "ratio");
  m.add("cache.cross_resolver_mismatch", static_cast<double>(r.mismatches), "count");
  m.add("udp.rx_batch_mean", rx_batch.mean(), "count");
  m.add("udp.serve_batch_p50_us", serve.percentile(50), "us");
  m.add("udp.serve_batch_p99_us", serve_p99, "us");
  m.add("udp.kernel_drops", counter_delta("eum_udp_kernel_drops_total"), "count");
  m.add("udp.send_errors", counter_delta("eum_udp_send_errors_total"), "count");
  m.add("udp.truncated", counter_delta("eum_udp_truncated_total"), "count");
  m.add("udp.wire_errors", counter_delta("eum_udp_wire_errors_total"), "count");
  m.add("udp.outside_server_p99_us", std::max(0.0, latency_p99 - serve_p99), "us");
  m.add("mapmaker.rebuild_ms", rebuild.mean() / 1000.0, "ms");
  m.add("mapmaker.units_rescored",
        ratio(counter_delta("eum_control_units_rescored_total"), rebuilds), "count");
  m.add("mapmaker.publishes", static_cast<double>(publishes), "count");
  m.add("mapmaker.skipped_publishes", static_cast<double>(skipped), "count");
  m.add("load.send_lag_p99_us", pb::median(lags), "us");
  m.add("replay.total_ns", total / n, "ns");
  m.add("replay.unaccounted_ns", (total - self_sum) / n, "ns");
  m.add("replay.unaccounted_share", total == 0 ? 0.0 : (total - self_sum) / total, "ratio");
  m.add("trace.overhead_p50_us", pb::median(traced_p50) - pb::median(untraced_p50), "us");
  print_result(correct, offered + control.sent, lost + control.lost + control.failed, m);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  const std::optional<Workload> workload = args ? workload_named(args->workload) : std::nullopt;
  if (!args || !workload) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload ecs_miss|hot_hit|failover_churn --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  try {
    const Placement placement;
    const IdleSpinners spinners{placement.used()};
    return args->trace ? run_traced(*workload, *args, placement)
                       : run_untraced(*workload, *args, placement);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 1;
  }
}
