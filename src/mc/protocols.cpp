#include "mc/protocols.h"

#include <array>
#include <cstdint>
#include <memory>

#include "lockfree/mpmc_ring.h"
#include "lockfree/pending_table.h"
#include "lockfree/versioned_rcu.h"
#include "mc/atomic.h"
#include "mc/policy.h"

namespace eum::mc {

namespace {

using lockfree::Site;

Options exhaustive(int preemption_bound = -1, int spurious = 1, int stale_depth = -1,
                   int stale_budget = -1) {
  Options options;
  options.mode = Options::Mode::exhaustive;
  options.preemption_bound = preemption_bound;
  options.spurious_cas_budget = spurious;
  options.stale_depth = stale_depth;
  options.stale_budget = stale_budget;
  return options;
}

// ---------------------------------------------------------------------------
// versioned_rcu — MapMaker publish / serve-path read / cache invalidation
// ---------------------------------------------------------------------------

/// A two-field snapshot payload: torn visibility shows up as a != b, and
/// missing ordering shows up as a data race on the racy fields.
struct Snap {
  mc::racy<std::uint64_t> a{0};
  mc::racy<std::uint64_t> b{0};
};

/// One writer publishes generation 2 while two serve threads take the
/// RCU read path (MapMaker::current() -> MapSnapshot::map()).
void rcu_read_path_body(Sim& sim) {
  struct World {
    std::array<Snap, 2> snaps;
    lockfree::VersionedRcu<McAtomicsPolicy, const Snap*> rcu;
  };
  auto w = std::make_shared<World>();
  w->snaps[0].a.set(1);
  w->snaps[0].b.set(1);
  w->rcu.publish(&w->snaps[0], 1);

  sim.thread([w] {
    w->snaps[1].a.set(2);
    w->snaps[1].b.set(2);
    w->rcu.publish(&w->snaps[1], 2);
  });
  for (int r = 0; r < 2; ++r) {
    sim.thread([w] {
      const Snap* snap = w->rcu.snapshot();
      const std::uint64_t a = snap->a.get();
      const std::uint64_t b = snap->b.get();
      MC_ASSERT(a == b);  // never a torn / half-built snapshot
    });
  }
}

/// The AnswerCache invalidation contract: a consumer that observes
/// version V via the acquire read then load()s must get generation >= V
/// (PR 6 shipped the two publish stores swapped; see the
/// rcu_version_before_snapshot mutation).
void rcu_invalidation_body(Sim& sim) {
  struct World {
    std::array<Snap, 2> snaps;
    lockfree::VersionedRcu<McAtomicsPolicy, const Snap*> rcu;
  };
  auto w = std::make_shared<World>();
  w->snaps[0].a.set(1);  // snap[g].a doubles as the generation marker
  w->rcu.publish(&w->snaps[0], 1);

  sim.thread([w] {
    w->snaps[1].a.set(2);
    w->rcu.publish(&w->snaps[1], 2);
  });
  sim.thread([w] {
    const std::uint64_t version = w->rcu.version_sync();
    const Snap* snap = w->rcu.snapshot();
    MC_ASSERT(snap->a.get() >= version);
  });
  sim.thread([w] {
    // The monitoring read carries no ordering obligations; pair it with
    // the synced path so both version sites run in one scenario.
    const std::uint64_t monitor = w->rcu.version();
    MC_ASSERT(monitor <= 2);
    const std::uint64_t version = w->rcu.version_sync();
    const Snap* snap = w->rcu.snapshot();
    MC_ASSERT(snap->a.get() >= version);
  });
}

// ---------------------------------------------------------------------------
// mpmc_ring — FlightRecorder bounded ring (push / pop / eviction)
// ---------------------------------------------------------------------------

using McRing = lockfree::MpmcRing<McAtomicsPolicy, std::uint64_t>;

struct RingWorld {
  McRing ring;
  std::array<std::uint64_t, 8> got{};  ///< popped values, in claim order
  std::size_t npop = 0;
  std::size_t discarded = 0;

  void drain() {
    std::uint64_t value = 0;
    while (ring.pop(value)) got[npop++] = value;
  }

  /// Popped values must be distinct members of [lo, hi], and every push
  /// must be accounted for as either popped or evicted.
  void check(std::uint64_t lo, std::uint64_t hi, std::size_t pushes) const {
    MC_ASSERT(npop + discarded == pushes);
    for (std::size_t i = 0; i < npop; ++i) {
      MC_ASSERT(got[i] >= lo && got[i] <= hi);
      for (std::size_t j = i + 1; j < npop; ++j) MC_ASSERT(got[i] != got[j]);
    }
  }
};

/// Two producers race for cells while a consumer pops concurrently.
void ring_mpmc_basic_body(Sim& sim) {
  auto w = std::make_shared<RingWorld>();
  w->ring.init(2);
  for (std::uint64_t p = 1; p <= 2; ++p) {
    sim.thread([w, p] { w->discarded += w->ring.push(100 + p); });
  }
  sim.thread([w] {
    std::uint64_t value = 0;
    while (w->ring.pop(value)) w->got[w->npop++] = value;
  });
  sim.after([w] { w->drain(); w->check(101, 102, 2); });
}

/// Single producer wraps a capacity-2 ring while the consumer pops: cell
/// reuse means the consumer's release store on the cell sequence is what
/// keeps the producer's fresh payload write ordered after the consumer's
/// read of the old one.
void ring_spsc_wrap_body(Sim& sim) {
  auto w = std::make_shared<RingWorld>();
  w->ring.init(2);
  sim.thread([w] {
    for (std::uint64_t i = 1; i <= 3; ++i) w->discarded += w->ring.push(i);
  });
  sim.thread([w] {
    std::uint64_t value = 0;
    for (int attempt = 0; attempt < 3; ++attempt) {
      if (w->ring.pop(value)) w->got[w->npop++] = value;
    }
  });
  sim.after([w] { w->drain(); w->check(1, 3, 3); });
}

/// Full-ring eviction with cross-thread cell reuse: producer P fills the
/// ring, A evicts the oldest record, and B (not A) may claim the freed
/// cell — B's payload write is ordered after P's only through A's
/// release store on the evicted cell's sequence.
void ring_evict_reuse_body(Sim& sim) {
  auto w = std::make_shared<RingWorld>();
  w->ring.init(2);
  sim.thread([w] {
    w->discarded += w->ring.push(1);
    w->discarded += w->ring.push(2);
  });
  sim.thread([w] { w->discarded += w->ring.push(3); });
  sim.thread([w] { w->discarded += w->ring.push(4); });
  sim.after([w] { w->drain(); w->check(1, 4, 4); });
}

// ---------------------------------------------------------------------------
// pending_table — load generator outstanding-query slot lifecycle
// ---------------------------------------------------------------------------

/// One sender wraps an id onto the same slot (arm 100, then arm 200)
/// while two receivers race to claim. A claim must return exactly the
/// sched of the arm it retired — the property the seed's two-cell
/// protocol violated (see the pending_split_sched_state mutation).
void pending_lifecycle_body(Sim& sim) {
  struct World {
    lockfree::PendingSlot<McAtomicsPolicy> slot;
    std::array<std::uint64_t, 2> scheds{};
    std::size_t claims = 0;
    bool overwrote = false;
    bool swept = false;
  };
  auto w = std::make_shared<World>();
  sim.thread([w] {
    MC_ASSERT(!w->slot.arm(100));  // fresh slot: no overwrite
    w->overwrote = w->slot.arm(200);
  });
  for (int r = 0; r < 2; ++r) {
    sim.thread([w] {
      std::uint64_t sched = 0;
      if (w->slot.claim(sched)) w->scheds[w->claims++] = sched;
    });
  }
  sim.after([w] {
    w->swept = w->slot.swept_unanswered();
    MC_ASSERT(w->claims <= 2);
    for (std::size_t i = 0; i < w->claims; ++i) {
      MC_ASSERT(w->scheds[i] == 100 || w->scheds[i] == 200);
      // An overwrite means arm(100) was never claimed.
      MC_ASSERT(!(w->scheds[i] == 100 && w->overwrote));
      for (std::size_t j = i + 1; j < w->claims; ++j) {
        MC_ASSERT(w->scheds[i] != w->scheds[j]);  // each arm claimed once
      }
    }
    // Every arm is claimed, charged as an overwrite, or swept.
    MC_ASSERT(w->claims + (w->overwrote ? 1U : 0U) + (w->swept ? 1U : 0U) == 2);
  });
}


// ---------------------------------------------------------------------------
// Hand-built broken variants (mutations without a site override)
// ---------------------------------------------------------------------------

/// The PR 6 bug class: version published BEFORE the snapshot, so a
/// cache that observes the new version can still load the old map.
void version_before_snapshot_body(Sim& sim) {
  struct World {
    std::array<Snap, 2> snaps;
    mc::atomic<const Snap*> current{nullptr};
    mc::atomic<std::uint64_t> version{0};
  };
  auto w = std::make_shared<World>();
  w->snaps[0].a.set(1);
  w->current.store(&w->snaps[0], std::memory_order_release);
  w->version.store(1, std::memory_order_release);

  sim.thread([w] {
    w->snaps[1].a.set(2);
    w->version.store(2, std::memory_order_release);  // WRONG ORDER
    w->current.store(&w->snaps[1], std::memory_order_release);
  });
  sim.thread([w] {
    const std::uint64_t version = w->version.load(std::memory_order_acquire);
    const Snap* snap = w->current.load(std::memory_order_acquire);
    MC_ASSERT(snap->a.get() >= version);
  });
}

/// Fence-based message passing with the release fence dropped: the
/// relaxed flag store publishes nothing, so the reader's payload read is
/// a data race.
void missing_release_fence_body(Sim& sim) {
  struct World {
    mc::racy<int> data{0};
    mc::atomic<int> flag{0};
  };
  auto w = std::make_shared<World>();
  sim.thread([w] {
    w->data.set(42);
    // MISSING: mc::fence(std::memory_order_release);
    w->flag.store(1, std::memory_order_relaxed);
  });
  sim.thread([w] {
    if (w->flag.load(std::memory_order_acquire) == 1) {
      MC_ASSERT(w->data.get() == 42);
    }
  });
}

/// Relaxed failure order on a weak CAS whose failure path consumes the
/// observed value: a spurious failure still reports expected == 1, but
/// without acquire the payload read is unordered.
void cas_failure_order_relaxed_body(Sim& sim) {
  struct World {
    mc::racy<int> data{0};
    mc::atomic<int> flag{0};
  };
  auto w = std::make_shared<World>();
  sim.thread([w] {
    w->data.set(42);
    w->flag.store(1, std::memory_order_release);
  });
  sim.thread([w] {
    int expected = 1;
    if (w->flag.compare_exchange_weak(expected, 2, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      MC_ASSERT(w->data.get() == 42);
    } else if (expected == 1) {
      // Spurious failure: we DID observe flag == 1, but through the
      // relaxed failure order — this read races with the writer.
      MC_ASSERT(w->data.get() == 42);
    }
  });
}

/// The seed's pending-slot protocol, verbatim shape: state machine and
/// sched_ns in separate cells, receiver reads sched AFTER winning the
/// claim CAS. A wrapping re-arm overwrites sched under that read, so a
/// response gets charged against the wrong scheduled send time.
void pending_split_sched_state_body(Sim& sim) {
  constexpr std::uint64_t kArmed = 1;
  constexpr std::uint64_t kDone = 2;
  struct World {
    mc::atomic<std::uint64_t> state{0};
    mc::atomic<std::uint64_t> sched{0};
    bool overwrote = false;
    bool claimed = false;
    std::uint64_t got = 0;
  };
  auto w = std::make_shared<World>();
  sim.thread([w] {
    const auto arm = [&](std::uint64_t sched_ns) {
      const bool prior = w->state.load(std::memory_order_relaxed) == kArmed;
      w->sched.store(sched_ns, std::memory_order_relaxed);
      w->state.store(kArmed, std::memory_order_release);
      return prior;
    };
    (void)arm(100);
    w->overwrote = arm(200);  // the id wrap
  });
  sim.thread([w] {
    std::uint64_t expected = kArmed;
    if (w->state.compare_exchange_strong(expected, kDone, std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      w->claimed = true;
      w->got = w->sched.load(std::memory_order_relaxed);
    }
  });
  sim.after([w] {
    if (w->claimed && !w->overwrote) {
      // No overwrite means the claim retired arm(100) — yet the re-arm
      // can slip its sched store under the post-CAS read.
      MC_ASSERT(w->got == 100);
    }
  });
}

/// Dekker's mutual exclusion demoted from seq_cst to release/acquire:
/// both threads can miss each other's flag and enter together.
void dekker_store_release_body(Sim& sim) {
  struct World {
    mc::atomic<int> fa{0};
    mc::atomic<int> fb{0};
    int critical = 0;
  };
  auto w = std::make_shared<World>();
  sim.thread([w] {
    w->fa.store(1, std::memory_order_release);  // WRONG: needs seq_cst
    if (w->fb.load(std::memory_order_acquire) == 0) w->critical += 1;
  });
  sim.thread([w] {
    w->fb.store(1, std::memory_order_release);  // WRONG: needs seq_cst
    if (w->fa.load(std::memory_order_acquire) == 0) w->critical += 1;
  });
  sim.after([w] { MC_ASSERT(w->critical <= 1); });
}

}  // namespace

const std::vector<ProtocolCheck>& protocol_checks() {
  static const std::vector<ProtocolCheck> checks = [] {
    std::vector<ProtocolCheck> v;
    v.push_back({"rcu_read_path", "versioned_rcu", exhaustive(), rcu_read_path_body});
    v.push_back({"rcu_invalidation", "versioned_rcu", exhaustive(), rcu_invalidation_body});
    // Ring state spaces are bounded three ways (all disclosed in the
    // trace header): CHESS preemption bound 2, read-from staleness depth
    // 2 (every ring ordering bug manifests within two writes of the
    // newest entry — old payload / reused cell are one step back), and a
    // per-thread stale-read budget of 2 (memory fairness; unbounded
    // stale retries make CAS loops — and DFS — diverge).
    v.push_back({"ring_spsc_wrap", "mpmc_ring", exhaustive(2, 0, 2, 2), ring_spsc_wrap_body});
    v.push_back({"ring_mpmc_basic", "mpmc_ring", exhaustive(2, 1, 2, 2), ring_mpmc_basic_body});
    // Tighter staleness (1/1) than the two-thread scenarios: the evict
    // ordering bugs manifest on all-latest reads, and three pushing
    // threads multiply the schedule count.
    v.push_back({"ring_evict_reuse", "mpmc_ring", exhaustive(2, 0, 1, 1), ring_evict_reuse_body});
    v.push_back({"pending_lifecycle", "pending_table", exhaustive(), pending_lifecycle_body});
    return v;
  }();
  return checks;
}

std::vector<const ProtocolCheck*> checks_for_kernel(std::string_view kernel) {
  std::vector<const ProtocolCheck*> out;
  for (const ProtocolCheck& check : protocol_checks()) {
    if (check.kernel == kernel) out.push_back(&check);
  }
  return out;
}

const std::vector<MutationCheck>& mutations() {
  static const std::vector<MutationCheck> all = [] {
    std::vector<MutationCheck> v;
    v.push_back({"rcu_publish_dropped_release",
                 "snapshot publish store demoted to relaxed: serve threads race the builder",
                 exhaustive(), rcu_read_path_body,
                 {{Site::rcu_snapshot_publish, std::memory_order_relaxed}}});
    v.push_back({"rcu_version_before_snapshot",
                 "publish stores swapped (the PR 6 bug): new version, old map",
                 exhaustive(), version_before_snapshot_body, {}});
    v.push_back({"ring_pop_seq_store_relaxed",
                 "consumer's cell-release store demoted: producer reuses the cell while "
                 "the consumer still reads it",
                 exhaustive(2, 0, 2, 2), ring_spsc_wrap_body,
                 {{Site::ring_pop_seq_store, std::memory_order_relaxed}}});
    v.push_back({"mp_missing_release_fence",
                 "fence-based message passing with the release fence dropped",
                 exhaustive(), missing_release_fence_body, {}});
    v.push_back({"cas_failure_order_relaxed",
                 "weak CAS failure order relaxed where the failure path consumes the value",
                 exhaustive(), cas_failure_order_relaxed_body, {}});
    v.push_back({"pending_split_sched_state",
                 "the seed's two-cell pending slot: wrapping re-arm races the claimed "
                 "sched read, charging the wrong send time",
                 exhaustive(), pending_split_sched_state_body, {}});
    v.push_back({"dekker_store_release",
                 "Dekker flags demoted below seq_cst: mutual exclusion fails",
                 exhaustive(), dekker_store_release_body, {}});
    return v;
  }();
  return all;
}

Result run_mutation(const MutationCheck& mutation) {
  if (mutation.weaken.has_value()) {
    const ScopedOrderOverride weaken{mutation.weaken->first, mutation.weaken->second};
    return check(mutation.options, mutation.body);
  }
  return check(mutation.options, mutation.body);
}

}  // namespace eum::mc
