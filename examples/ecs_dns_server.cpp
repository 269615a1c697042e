// ecs_dns_server: a real, ECS-aware authoritative DNS server over UDP.
//
// It stands up the full mapping system over a synthetic world and serves
// the CDN domain `g.cdn.example` on localhost. Queries carrying an EDNS0
// client-subnet option are answered with end-user mapping (servers near
// the announced client block, ECS scope echoed); queries without ECS get
// NS-based mapping keyed on... the source address, which for a real
// socket is 127.0.0.1, so the server also answers TXT queries for
// `whoami.g.cdn.example` reporting what it saw — the same trick as
// Akamai's whoami.akamai.net (paper §3.1).
//
// Usage: ecs_dns_server [port] [workers] [--metrics] [--cache=N]
//                       [--rescore-interval=MS] [--rollout=SECONDS]
//                       [--fault-drop=P] [--fault-servfail=P]
//                       [--fault-delay-ms=MS] [--admin-port=N]
//                       [--trace-sample=N]
//   (port 0 = ephemeral; the bound port is printed. workers > 1 serves
//   through that many SO_REUSEPORT sockets, one thread each. --cache=N
//   sizes the per-worker wire answer cache, default 4096 entries; 0
//   disables it so every query runs the full mapping path.)
//
// --admin-port=N opens the operator introspection channel on
// 127.0.0.1:N (0 = ephemeral; the bound port is printed). It speaks a
// line protocol — try `printf 'help\n' | nc 127.0.0.1 <port>` — with
// `stats`, `metrics`, `traces [n]`, `snapshot.info`, `health`, and
// `explain <client-ip> [qname] [resolver-ip]`, which
// replays the live mapping decision (policy, roll-out cohort verdict,
// ECS scope, candidate cluster scores, chosen servers) against the
// currently published map snapshot.
//
// --trace-sample=N records every Nth query into the flight recorder —
// client, ECS source prefix, qname, qtype, answer source, rcode, latency
// and trace spans (default 64; 1 = every query; negative disables
// tracing). Anomalous queries — slow, SERVFAIL, stale-served, worker
// exception, send error — are always retained regardless of sampling;
// drain them with the admin channel's `traces` command as NDJSON.
//
// The --fault-* flags wrap the demo recursive resolver's upstream in a
// FaultInjector: P is a probability in [0,1] of dropping (or answering
// SERVFAIL to) each upstream query, and --fault-delay-ms holds every
// response for that long. The resolver rides through the faults with
// its retry/backoff budget (watch eum_resolver_retries_total and
// eum_fault_injected_total climb in the --metrics dumps) — the same
// machinery the fault_sweep bench gates on.
//
// The serving path runs through the control plane: a control::MapMaker
// publishes immutable map snapshots and every query is answered from the
// current snapshot, lock-free, so the UDP workers no longer serialize on
// the mapping system. With --rescore-interval=MS the map maker
// republishes on that cadence in the background (watch
// eum_control_map_version climb in the metrics dumps). With
// --rollout=SECONDS a staged end-user mapping roll-out ramps from 0% to
// 100% of resolver cohorts over that many wall-clock seconds — before a
// resolver's cohort flips, its ECS queries get NS-based answers with a
// client-independent scope (/0), reproducing the paper's §4 staging on
// the live DNS path.
//
// With --metrics the full obs::MetricsRegistry — authority, resolver,
// scoped-cache, control-plane, and per-worker UDP counters plus
// latency-percentile histograms — is dumped every 10 seconds in both
// Prometheus text format and as a stats::Table, and the flight recorder
// is drained to stderr as NDJSON (the same records the admin `traces`
// command drains; whichever drains first gets them). Sending SIGUSR1
// triggers one extra dump on demand (with or without --metrics):
//   kill -USR1 $(pidof ecs_dns_server)
//
// Try it with dig:
//   dig @127.0.0.1 -p <port> www.g.cdn.example A +subnet=1.0.3.0/24
//   dig @127.0.0.1 -p <port> whoami.g.cdn.example TXT
//
// If no query arrives for 30 seconds the server exits (so the example is
// safe to run unattended); it first demonstrates itself by sending two
// queries through its own UdpDnsClient plus a short recursive-resolver
// session (populating the scoped-cache metrics), and prints the
// per-worker counter table on the way out.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "cdn/mapping.h"
#include "control/explain.h"
#include "control/map_maker.h"
#include "control/rollout_controller.h"
#include "dnsserver/fault.h"
#include "dnsserver/transport.h"
#include "dnsserver/udp.h"
#include "obs/admin.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/table.h"
#include "topo/world_gen.h"
#include "util/sim_clock.h"

using namespace eum;
using namespace std::chrono_literals;

namespace {

volatile std::sig_atomic_t g_dump_requested = 0;

void on_sigusr1(int) { g_dump_requested = 1; }

/// One full observability dump: Prometheus exposition + table to stdout,
/// freshly recorded per-query records to stderr as NDJSON.
void dump_observability(const obs::MetricsRegistry& registry, obs::FlightRecorder& recorder) {
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  std::printf("--- metrics (prometheus) ---\n%s", obs::render_prometheus(snapshot).c_str());
  std::printf("--- metrics (table) ---\n%s\n", obs::render_table(snapshot).render().c_str());
  const std::vector<obs::TraceRecord> records = recorder.drain();
  for (const obs::TraceRecord& record : records) {
    std::fprintf(stderr, "%s\n", obs::FlightRecorder::to_ndjson(record).c_str());
  }
  std::fflush(stderr);
  std::printf("--- flight recorder: %zu record%s drained to stderr (%llu overwritten) ---\n",
              records.size(), records.size() == 1 ? "" : "s",
              static_cast<unsigned long long>(recorder.overwritten()));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool metrics = false;
  long cache_entries = 4096;     // per-worker wire answer cache; 0 = off
  long rescore_interval_ms = 0;  // 0 = no background republishing
  long rollout_ramp_s = -1;      // < 0 = roll-out complete (EU for everyone)
  long admin_port = -1;          // < 0 = admin channel off; 0 = ephemeral
  long trace_sample = 64;        // trace 1 in N queries; < 0 = tracing off
  dnsserver::FaultSpec faults;   // all-zero default: clean upstream
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strncmp(argv[i], "--admin-port=", 13) == 0) {
      admin_port = std::atol(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--trace-sample=", 15) == 0) {
      trace_sample = std::atol(argv[i] + 15);
    } else if (std::strncmp(argv[i], "--cache=", 8) == 0) {
      cache_entries = std::max(0L, std::atol(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--rescore-interval=", 19) == 0) {
      rescore_interval_ms = std::atol(argv[i] + 19);
    } else if (std::strncmp(argv[i], "--rollout=", 10) == 0) {
      rollout_ramp_s = std::atol(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--fault-drop=", 13) == 0) {
      faults.drop = std::atof(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--fault-servfail=", 17) == 0) {
      faults.servfail = std::atof(argv[i] + 17);
    } else if (std::strncmp(argv[i], "--fault-delay-ms=", 17) == 0) {
      faults.delay = std::chrono::milliseconds{std::atol(argv[i] + 17)};
    } else {
      positional.push_back(argv[i]);
    }
  }
  const auto port =
      static_cast<std::uint16_t>(!positional.empty() ? std::atoi(positional[0]) : 0);
  const auto workers = static_cast<std::size_t>(
      positional.size() > 1 ? std::max(1, std::atoi(positional[1])) : 2);

  // World + CDN + mapping system.
  topo::WorldGenConfig world_config;
  world_config.target_blocks = 20'000;
  world_config.target_ases = 900;
  world_config.ping_targets = 1500;
  const topo::World world = topo::generate_world(world_config);
  const topo::LatencyModel latency{topo::LatencyParams{}, world_config.seed};
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 400);
  cdn::MappingSystem mapping{&world, &network, &latency, cdn::MappingConfig{}};

  // One registry for the whole serving stack: the authoritative engine,
  // the demo recursive resolver (and its scoped cache), and the UDP
  // front end all record into it, so one snapshot covers everything.
  obs::MetricsRegistry registry;

  // Control plane: the map maker rebuilds and publishes the mapping
  // system's immutable map snapshots, counted in the shared registry's
  // eum_control_* metrics; the mapping system's handlers resolve every
  // query against the published snapshot — lock-free, so the UDP workers
  // need no mapping mutex.
  control::MapMakerConfig maker_config;
  maker_config.publish_unchanged = true;  // visible version bumps for the demo
  maker_config.registry = &registry;
  control::MapMaker maker{&mapping, nullptr, maker_config};

  // Staged roll-out: resolvers flip to end-user mapping cohort by cohort
  // as the ramp fraction climbs (driven from the idle loop below).
  control::RolloutController rollout;
  if (rollout_ramp_s >= 0) {
    rollout.set_fraction(rollout_ramp_s == 0 ? 1.0 : 0.0);
    mapping.set_end_user_gate(rollout.gate());
  }

  // Authoritative engine: the mapping system behind g.cdn.example, plus a
  // whoami TXT responder. Unknown resolvers (like 127.0.0.1) fall back to
  // a default LDNS so interactive dig queries still get answers.
  dnsserver::AuthoritativeServer engine{&registry};
  const topo::Ldns& fallback_ldns = world.ldnses.front();
  auto inner = mapping.dns_handler();
  engine.add_dynamic_domain(
      dns::DnsName::from_text("g.cdn.example"),
      [&, inner](const dnsserver::DynamicQuery& query)
          -> std::optional<dnsserver::DynamicAnswer> {
        dnsserver::DynamicQuery patched = query;
        if (world.ldns_by_address(query.resolver) == nullptr) {
          patched.resolver = fallback_ldns.address;
        }
        return inner(patched);
      });
  // Demo server: time every query so even a handful of digs shows real
  // percentiles (production keeps the 1-in-16 sampling default).
  engine.set_latency_sampling(1);
  engine.add_zone([&] {
    dns::SoaRecord soa;
    soa.mname = dns::DnsName::from_text("ns1.whoami.example");
    soa.minimum = 0;
    return dnsserver::Zone{dns::DnsName::from_text("whoami.example"), soa};
  }());

  // Build provenance in the shared registry (and in `snapshot.info`),
  // labeled with the runtime shape so a metrics dump is self-describing.
  obs::register_build_info(registry, {{"workers", std::to_string(workers)},
                                      {"cache_entries", std::to_string(cache_entries)}});

  // Per-query flight recorder: 1-in-N sampling plus unconditional
  // retention of anomalous queries. Drained via the admin channel.
  obs::FlightRecorderConfig recorder_config;
  recorder_config.capacity = 2048;
  recorder_config.sample_every = static_cast<std::uint32_t>(std::max(0L, trace_sample));
  obs::FlightRecorder recorder{recorder_config};

  // The wire answer cache keys on (qname, qtype, ECS scope prefix, map
  // version); the MapMaker's version cell invalidates every entry the
  // instant a new snapshot publishes, so dig never sees a stale map.
  dnsserver::UdpServerConfig server_config{workers, std::chrono::milliseconds{50},
                                           &registry};
  server_config.answer_cache_entries = static_cast<std::size_t>(cache_entries);
  server_config.map_version = &maker.version_cell();
  if (trace_sample >= 0) server_config.recorder = &recorder;
  dnsserver::UdpAuthorityServer server{
      &engine, dnsserver::UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, port}, server_config};
  const auto endpoint = server.endpoint();
  std::signal(SIGUSR1, on_sigusr1);
  std::printf("ecs_dns_server listening on 127.0.0.1:%u (%zu worker%s, %ld-entry wire "
              "cache per worker)\n",
              endpoint.port, server.worker_count(),
              server.worker_count() == 1 ? "" : "s", cache_entries);
  std::printf("try: dig @127.0.0.1 -p %u www.g.cdn.example A +subnet=1.0.3.0/24\n\n",
              endpoint.port);
  // Operator introspection channel (localhost TCP line protocol).
  control::DecisionExplainer explainer{&world, &mapping, &maker,
                                       rollout_ramp_s >= 0 ? &rollout : nullptr};
  explainer.set_fallback_ldns(fallback_ldns.id);
  obs::AdminServerConfig admin_config;
  admin_config.port = static_cast<std::uint16_t>(std::max(0L, admin_port));
  admin_config.registry = &registry;
  admin_config.recorder = &recorder;
  obs::AdminServer admin{admin_config};
  admin.register_command("snapshot.info",
                         "published map identity, rebuild reasons, build provenance",
                         [&maker](const std::vector<std::string>&) {
                           return control::snapshot_info(maker);
                         });
  admin.register_command(
      "health", "one-line liveness summary",
      [&registry, &maker](const std::vector<std::string>&) {
        const auto udp = [&registry](const char* name) {
          return static_cast<unsigned long long>(registry.counter_total(name));
        };
        char line[192];
        std::snprintf(line, sizeof line,
                      "ok queries=%llu send_errors=%llu kernel_drops=%llu "
                      "worker_exceptions=%llu map_version=%llu",
                      udp("eum_udp_queries_total"), udp("eum_udp_send_errors_total"),
                      udp("eum_udp_kernel_drops_total"), udp("eum_udp_worker_exceptions_total"),
                      static_cast<unsigned long long>(maker.version()));
        return std::string{line};
      });
  admin.register_command("explain",
                         "explain <client-ip> [qname] [resolver-ip]: replay the mapping "
                         "decision against the current snapshot",
                         [&explainer](const std::vector<std::string>& args) {
                           return explainer.command(args);
                         });
  if (admin_port >= 0) {
    admin.start();
    std::printf("admin channel on 127.0.0.1:%u (try: printf 'help\\n' | nc 127.0.0.1 %u)\n",
                admin.port(), admin.port());
  }

  server.start();
  if (rescore_interval_ms > 0) {
    maker.start(std::chrono::milliseconds{rescore_interval_ms});
    std::printf("map maker republishing every %ld ms (map version %llu published)\n",
                rescore_interval_ms, static_cast<unsigned long long>(maker.version()));
  }
  if (rollout_ramp_s > 0) {
    std::printf("staged roll-out: 0%% -> 100%% of %u resolver cohorts over %ld s\n",
                rollout.config().cohorts, rollout_ramp_s);
  }

  // Self-demonstration: one plain and one ECS query over the real socket.
  {
    dnsserver::UdpDnsClient client;
    const auto qname = dns::DnsName::from_text("www.g.cdn.example");

    const auto plain = client.query(dns::Message::make_query(1, qname, dns::RecordType::A),
                                    endpoint, 2000ms);
    if (plain && !plain->answers.empty()) {
      std::printf("plain query      -> %s (NS-based mapping for fallback LDNS %s)\n",
                  plain->answer_addresses()[0].to_string().c_str(),
                  fallback_ldns.address.to_string().c_str());
    }

    // Announce the first client block of the world via ECS.
    const net::IpAddr some_client{
        net::IpV4Addr{world.blocks[123].prefix.address().v4().value() + 9}};
    const auto ecs = dns::ClientSubnetOption::for_query(some_client, 24);
    const auto scoped = client.query(
        dns::Message::make_query(2, qname, dns::RecordType::A, ecs), endpoint, 2000ms);
    if (scoped && !scoped->answers.empty()) {
      const auto* echoed = scoped->client_subnet();
      const int scope = echoed != nullptr ? echoed->scope_prefix_len() : -1;
      // Under --rollout the gate starts at 0%: the resolver's cohort has
      // not flipped yet, so even the ECS query gets an NS-based /0 answer.
      std::printf("ECS %s/24 query -> %s (%s mapping; scope /%d echoed)\n",
                  some_client.to_string().c_str(),
                  scoped->answer_addresses()[0].to_string().c_str(),
                  scope > 0 ? "end-user" : "NS-based (cohort not yet flipped)", scope);
    }
  }

  // A short recursive-resolver session through the in-memory transport:
  // an ECS-forwarding LDNS resolving for a few client blocks populates
  // the eum_resolver_* and scoped-cache (eum_cache_*) metric families in
  // the shared registry — repeated clients in the same /24 hit the
  // scoped entry cached from the first answer.
  {
    util::SimClock clock;
    dnsserver::AuthorityDirectory directory;
    directory.add_authority(dns::DnsName::from_text("g.cdn.example"), &engine);
    // --fault-* wraps the upstream path: the resolver's retry budget (and
    // serve-stale window) must carry the demo through the injected loss.
    dnsserver::FaultInjectorConfig fault_config;
    fault_config.faults = faults;
    fault_config.registry = &registry;
    dnsserver::FaultInjector injector{&directory, fault_config};
    dnsserver::ResolverConfig resolver_config;
    resolver_config.ecs_enabled = true;
    resolver_config.registry = &registry;
    resolver_config.serve_stale_window = 300;
    dnsserver::RecursiveResolver resolver{resolver_config, &clock, &injector,
                                          world.ldnses.front().address};
    // Each resolution is one flight-recorder record, traced like a UDP
    // datagram; the worker id past the UDP workers' marks its records.
    obs::QueryTracer tracer{trace_sample >= 0 ? &recorder : nullptr,
                            static_cast<std::uint32_t>(workers)};
    const obs::TracerScope trace_scope{&tracer};
    const auto qname = dns::DnsName::from_text("www.g.cdn.example");
    for (int round = 0; round < 3; ++round) {
      for (std::size_t b = 100; b < 108; ++b) {
        const net::IpAddr client{net::IpV4Addr{
            world.blocks[b].prefix.address().v4().value() + 7 + static_cast<std::uint32_t>(round)}};
        const auto query = dns::Message::make_query(
            static_cast<std::uint16_t>(1000 + round * 16 + static_cast<int>(b)), qname,
            dns::RecordType::A);
        tracer.begin();
        tracer.set_qname_text(qname.to_string());
        (void)resolver.resolve(query, client);
        tracer.finish();
      }
    }
    const auto count = [&registry](const char* name, const obs::Labels& match = {}) {
      return static_cast<unsigned long long>(registry.counter_total(name, match));
    };
    std::printf("resolver demo    -> %llu client queries, %llu scoped-cache hits\n",
                count("eum_resolver_client_queries_total"), count("eum_cache_hits_total"));
    if (faults.active()) {
      const auto injected = [&count](const char* fault) {
        return count("eum_fault_injected_total", {{"fault", fault}});
      };
      std::printf(
          "fault injection  -> %llu dropped, %llu servfails, %llu delayed; resolver "
          "retried %llu, served stale %llu, failed %llu\n",
          injected("drop"), injected("servfail"), injected("delay"),
          count("eum_resolver_retries_total"), count("eum_resolver_stale_served_total"),
          count("eum_resolver_upstream_failures_total"));
    }
  }

  if (metrics) {
    maker.refresh_gauges();
    dump_observability(registry, recorder);
  }

  // Exit after 30 seconds without a new query; with --metrics the full
  // registry is dumped every 10 s, and SIGUSR1 forces a dump either way.
  // The same 50 ms poll drives the wall-clock roll-out ramp.
  std::printf("\nserving until 30 s of idle time pass (Ctrl-C to quit sooner)...\n");
  const auto serve_start = std::chrono::steady_clock::now();
  std::uint64_t last_seen = 0;
  int idle_polls = 0;
  int polls_since_dump = 0;
  while (idle_polls < 600) {
    std::this_thread::sleep_for(50ms);
    if (rollout_ramp_s > 0) {
      const double elapsed_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - serve_start)
              .count();
      const double before = rollout.fraction();
      rollout.set_fraction(std::min(1.0, elapsed_s / static_cast<double>(rollout_ramp_s)));
      if (rollout.fraction() >= 1.0 && before < 1.0) {
        std::printf("roll-out complete: all %zu cohorts on end-user mapping\n",
                    static_cast<std::size_t>(rollout.config().cohorts));
      }
    }
    const std::uint64_t seen = registry.counter_total("eum_udp_queries_total");
    idle_polls = seen == last_seen ? idle_polls + 1 : 0;
    last_seen = seen;
    if (g_dump_requested != 0 || (metrics && ++polls_since_dump >= 200)) {
      g_dump_requested = 0;
      polls_since_dump = 0;
      maker.refresh_gauges();
      dump_observability(registry, recorder);
    }
  }
  admin.stop();
  maker.stop();
  server.stop();

  // Datagrams answered over UDP, cache hits included; the resolver
  // demo's in-process upstream queries never arrive here.
  const std::uint64_t hits = registry.counter_total("eum_udp_cache_hits_total");
  const std::uint64_t probed = hits + registry.counter_total("eum_udp_cache_misses_total");
  // The per-worker counter table: every eum_udp_* counter series.
  obs::MetricsSnapshot udp = registry.snapshot();
  std::erase_if(udp.counters, [](const obs::MetricsSnapshot::CounterSample& sample) {
    return !sample.name.starts_with("eum_udp_");
  });
  udp.gauges.clear();
  udp.histograms.clear();
  std::printf("server exiting; %llu queries handled (map version %llu, answer-cache "
              "hit ratio %.3f)\n\n%s\n",
              static_cast<unsigned long long>(registry.counter_total("eum_udp_queries_total")),
              static_cast<unsigned long long>(maker.version()),
              probed == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(probed),
              obs::render_table(udp).render().c_str());
  if (metrics) {
    maker.refresh_gauges();
    dump_observability(registry, recorder);
  }
  return 0;
}
