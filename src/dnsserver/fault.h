// Fault-injection upstream decorator.
//
// The paper's mapping roll-out was gated on not regressing availability
// (§4): the LDNS must keep answering through nameserver loss, slow
// authorities, and damaged wire images. Nothing in a clean in-process
// test exercises those paths, so `FaultInjector` wraps any `Upstream`
// (the in-memory `AuthorityDirectory`, the real-socket `UdpUpstream`,
// the simulator) and injects a configurable fault mix driven by the
// deterministic `util::Rng` — the same seed always produces the same
// fault sequence, so failure tests and the fault-sweep bench are
// reproducible.
//
// Fault taxonomy (per query, evaluated in this order):
//   drop      the query vanishes; the inner upstream is never called and
//             the attempt reports as lost (nullopt).
//   servfail  the authority is overloaded: a SERVFAIL response is
//             synthesized without consulting the inner upstream.
//   delay     the response is held for `delay + U[0, delay_jitter)`.
//   corrupt   1-4 random bytes of the encoded response are flipped; if
//             the result no longer parses the attempt reports as lost,
//             otherwise the damaged message (likely a mismatched ID) is
//             delivered for the resolver's validation to catch.
//   truncate  the response loses its sections and comes back TC=1 (the
//             EDNS OPT, a non-droppable pseudo-section, survives).
//   duplicate the network duplicates the query datagram: the inner
//             upstream handles it twice and the second response is
//             discarded — amplified authority load, single delivery.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "dnsserver/resolver.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace eum::dnsserver {

/// Per-authority fault mix. Probabilities in [0, 1]; delays are added to
/// every non-dropped response.
struct FaultSpec {
  double drop = 0.0;
  double servfail = 0.0;
  double truncate = 0.0;
  double duplicate = 0.0;
  double corrupt = 0.0;
  std::chrono::microseconds delay{0};
  std::chrono::microseconds delay_jitter{0};

  /// Whether this spec can ever fire (used to skip the RNG on the
  /// all-zero default).
  [[nodiscard]] bool active() const noexcept {
    return drop > 0.0 || servfail > 0.0 || truncate > 0.0 || duplicate > 0.0 || corrupt > 0.0 ||
           delay.count() > 0 || delay_jitter.count() > 0;
  }
};

struct FaultInjectorConfig {
  /// Default mix applied to try_forward() and to servers without an override.
  FaultSpec faults;
  /// Seed for the fault stream; same seed = same fault sequence.
  std::uint64_t seed = 0xFA017EEDULL;
  /// Registry for eum_fault_* counters (borrowed; must outlive the
  /// injector). nullptr = private registry.
  obs::MetricsRegistry* registry = nullptr;
};

/// Injected-fault counters — a thin view over the registry counters.
struct FaultStats {
  std::uint64_t drops = 0;
  std::uint64_t servfails = 0;
  std::uint64_t truncations = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t delays = 0;
  std::uint64_t forwards = 0;  ///< queries the inner upstream actually saw
};

class FaultInjector : public Upstream {
 public:
  /// `inner` is borrowed and must outlive the injector.
  explicit FaultInjector(Upstream* inner, FaultInjectorConfig config = {});

  /// Replace the default fault mix (thread-safe; applies to subsequent
  /// queries).
  void set_faults(FaultSpec spec);
  /// Override the mix for one authority address (matched by the
  /// try_forward_to target).
  void set_faults_for(const net::IpAddr& server, FaultSpec spec);

  [[nodiscard]] std::optional<dns::Message> try_forward(const dns::Message& query,
                                                        const net::IpAddr& source) override;
  [[nodiscard]] ForwardToResult try_forward_to(const net::IpAddr& server,
                                               const dns::Message& query,
                                               const net::IpAddr& source) override;

  [[nodiscard]] FaultStats stats() const;

  /// Reset contract: zero the injected-fault counters.
  void reset_stats();

 private:
  /// Outcome of one fault draw, taken under the mutex so concurrent
  /// callers see a single deterministic stream.
  struct Decision {
    bool drop = false;
    bool servfail = false;
    bool truncate = false;
    bool duplicate = false;
    bool corrupt = false;
    std::chrono::microseconds delay{0};
    std::uint64_t corrupt_seed = 0;
  };

  [[nodiscard]] Decision draw(const FaultSpec& spec);
  [[nodiscard]] FaultSpec spec_for(const net::IpAddr& server) const;

  /// Apply post-response faults (delay/corrupt/truncate) to `response`.
  [[nodiscard]] std::optional<dns::Message> mangle(const Decision& decision,
                                                   std::optional<dns::Message> response);

  Upstream* inner_;
  mutable std::mutex mutex_;  ///< guards rng_, default_spec_, per_server_
  FaultSpec default_spec_;
  std::unordered_map<std::string, FaultSpec> per_server_;
  util::Rng rng_;
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;  ///< when none injected
  obs::MetricsRegistry* registry_;
  obs::Counter* drops_;
  obs::Counter* servfails_;
  obs::Counter* truncations_;
  obs::Counter* duplicates_;
  obs::Counter* corruptions_;
  obs::Counter* delays_;
  obs::Counter* forwards_;
};

}  // namespace eum::dnsserver
