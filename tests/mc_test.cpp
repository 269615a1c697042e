// Model checker (src/mc) tests: the checker core exhibits the classic
// memory-model bugs and replays them byte-for-byte; the real-kernel
// protocol scenarios pass exhaustively; every deliberately-broken
// mutation variant is caught; and the memory-orders the auditor proved
// load-bearing stay load-bearing (downgrade-pin regressions).
//
// The full minimality sweep (every site x every one-step weakening)
// lives in bench/mc_audit.cpp behind scripts/check.sh's [mc] gate; here
// we keep tier-1 fast and pin the interesting edges.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string_view>

#include "lockfree/sites.h"
#include "mc/atomic.h"
#include "mc/policy.h"
#include "mc/protocols.h"
#include "mc/sim.h"

namespace eum::mc {
namespace {

constexpr std::memory_order kRlx = std::memory_order_relaxed;
constexpr std::memory_order kAcq = std::memory_order_acquire;
constexpr std::memory_order kRel = std::memory_order_release;
constexpr std::memory_order kSeq = std::memory_order_seq_cst;

// ---- checker core ----------------------------------------------------

/// Message passing: writer publishes plain data behind a flag store,
/// reader conditions on the flag. Correct with release/acquire; a data
/// race with anything weaker.
void mp_body(std::memory_order store_order, std::memory_order load_order, Sim& sim) {
  struct World {
    atomic<int> flag{0};
    racy<int> data{0};
  };
  auto w = std::make_shared<World>();
  sim.thread([w, store_order] {
    w->data.set(42);
    w->flag.store(1, store_order);
  });
  sim.thread([w, load_order] {
    if (w->flag.load(load_order) == 1) {
      MC_ASSERT(w->data.get() == 42);
    }
  });
}

TEST(McChecker, MessagePassingReleaseAcquirePasses) {
  const Result result =
      check(Options{}, [](Sim& sim) { mp_body(kRel, kAcq, sim); });
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_GT(result.executions, 1U);
}

TEST(McChecker, MessagePassingRelaxedIsARace) {
  const Result result =
      check(Options{}, [](Sim& sim) { mp_body(kRlx, kRlx, sim); });
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure.find("data race"), std::string::npos) << result.failure;
  EXPECT_FALSE(result.trace.empty());
}

TEST(McChecker, FailingScheduleReplaysByteIdentically) {
  const Result found =
      check(Options{}, [](Sim& sim) { mp_body(kRlx, kRlx, sim); });
  ASSERT_FALSE(found.ok);
  const auto body = [](Sim& sim) { mp_body(kRlx, kRlx, sim); };
  const Result first = replay(found.trace, body);
  const Result second = replay(found.trace, body);
  EXPECT_FALSE(first.ok);
  EXPECT_EQ(first.failure, found.failure);
  ASSERT_FALSE(first.events.empty());
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.trace, found.trace);
}

/// Store buffering (Dekker's mutual-exclusion core): both threads store
/// their intent then check the peer. seq_cst forbids both reading the
/// peer's initial value; release/acquire does not.
void dekker_body(std::memory_order store_order, std::memory_order load_order,
                 Sim& sim) {
  struct World {
    atomic<int> a{0};
    atomic<int> b{0};
    racy<int> critical{0};
  };
  auto w = std::make_shared<World>();
  sim.thread([w, store_order, load_order] {
    w->a.store(1, store_order);
    if (w->b.load(load_order) == 0) w->critical.set(w->critical.get() + 1);
  });
  sim.thread([w, store_order, load_order] {
    w->b.store(1, store_order);
    if (w->a.load(load_order) == 0) w->critical.set(w->critical.get() + 1);
  });
  sim.after([w] { MC_ASSERT(w->critical.get() <= 1); });
}

TEST(McChecker, DekkerSeqCstPasses) {
  const Result result =
      check(Options{}, [](Sim& sim) { dekker_body(kSeq, kSeq, sim); });
  EXPECT_TRUE(result.ok) << result.summary();
}

TEST(McChecker, DekkerReleaseAcquireFails) {
  const Result result =
      check(Options{}, [](Sim& sim) { dekker_body(kRel, kAcq, sim); });
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.trace.empty());
}

TEST(McChecker, FenceMessagePassingPasses) {
  const Result result = check(Options{}, [](Sim& sim) {
    struct World {
      atomic<int> flag{0};
      racy<int> data{0};
    };
    auto w = std::make_shared<World>();
    sim.thread([w] {
      w->data.set(7);
      fence(kRel);
      w->flag.store(1, kRlx);
    });
    sim.thread([w] {
      if (w->flag.load(kRlx) == 1) {
        fence(kAcq);
        MC_ASSERT(w->data.get() == 7);
      }
    });
  });
  EXPECT_TRUE(result.ok) << result.summary();
}

TEST(McChecker, SpuriousWeakCasFailureIsEnumerated) {
  bool saw_success = false;
  bool saw_spurious = false;
  Options options;
  options.spurious_cas_budget = 1;
  const Result result = check(options, [&](Sim& sim) {
    auto w = std::make_shared<atomic<int>>(0);
    sim.thread([w, &saw_success, &saw_spurious] {
      int expected = 0;
      if (w->compare_exchange_weak(expected, 1, std::memory_order_relaxed,
                                   std::memory_order_relaxed)) {
        saw_success = true;
      } else {
        MC_ASSERT(expected == 0);  // spurious: value unchanged
        saw_spurious = true;
      }
    });
  });
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_EQ(result.executions, 2U);  // one clean run + one spurious-failure run
  EXPECT_TRUE(saw_success);
  EXPECT_TRUE(saw_spurious);
}

TEST(McChecker, RandomWalkFindsTheRelaxedRace) {
  Options options;
  options.mode = Options::Mode::random;
  options.iterations = 5000;
  options.seed = 7;
  const Result result =
      check(options, [](Sim& sim) { mp_body(kRlx, kRlx, sim); });
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.trace.empty());
}

TEST(McChecker, ExplorationCapOverflowFailsTheCheck) {
  Options options;
  options.max_executions = 1;
  const Result result =
      check(options, [](Sim& sim) { mp_body(kRel, kAcq, sim); });
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure.find("exploration cap"), std::string::npos)
      << result.failure;
}

// ---- real-kernel protocol scenarios ----------------------------------

TEST(McProtocol, AllScenariosPassExhaustively) {
  for (const auto& scenario : protocol_checks()) {
    // ring_evict_reuse enumerates ~27k executions (~15 s on one core);
    // it runs in the [mc] gate via bench/mc_audit, not in tier-1.
    if (scenario.name == "ring_evict_reuse") continue;
    const Result result = check(scenario.options, scenario.body);
    EXPECT_TRUE(result.ok) << scenario.name << ": " << result.summary();
    EXPECT_GT(result.executions, 1U) << scenario.name;
  }
}

TEST(McProtocol, KernelIndexCoversAllFiveKernels) {
  EXPECT_EQ(checks_for_kernel("versioned_rcu").size(), 2U);
  EXPECT_EQ(checks_for_kernel("mpmc_ring").size(), 3U);
  EXPECT_EQ(checks_for_kernel("pending_table").size(), 1U);
  EXPECT_TRUE(checks_for_kernel("no_such_kernel").empty());
}

// ---- mutation self-test ----------------------------------------------

TEST(McMutation, EveryBrokenVariantIsCaughtAndReplays) {
  const auto& all = mutations();
  ASSERT_GE(all.size(), 5U);
  for (const auto& mutation : all) {
    const Result result = run_mutation(mutation);
    EXPECT_FALSE(result.ok) << mutation.name << " was not caught";
    ASSERT_FALSE(result.trace.empty()) << mutation.name;
    // Replaying the recorded schedule (under the same site override, if
    // any) must reproduce the identical failure.
    std::optional<ScopedOrderOverride> weaken;
    if (mutation.weaken.has_value()) {
      weaken.emplace(mutation.weaken->first, mutation.weaken->second);
    }
    const Result again = replay(result.trace, mutation.body);
    EXPECT_FALSE(again.ok) << mutation.name;
    EXPECT_EQ(again.failure, result.failure) << mutation.name;
  }
}

// ---- auditor downgrade pins ------------------------------------------

/// Re-run the named scenario at shipped orders with one site weakened;
/// the auditor proved these sites load-bearing, so the weakened run must
/// fail. If one of these starts passing, either the scenario lost its
/// teeth or someone weakened the shipped order without re-auditing.
Result run_scenario_weakened(std::string_view name, lockfree::Site site,
                             std::memory_order order) {
  for (const auto& scenario : protocol_checks()) {
    if (scenario.name == name) {
      ScopedOrderOverride weaken{site, order};
      return check(scenario.options, scenario.body);
    }
  }
  ADD_FAILURE() << "no protocol scenario named " << name;
  return {};
}

TEST(McAudit, RcuSnapshotPublishReleaseIsLoadBearing) {
  const Result result =
      run_scenario_weakened("rcu_read_path", lockfree::Site::rcu_snapshot_publish, kRlx);
  EXPECT_FALSE(result.ok);
}

TEST(McAudit, RcuVersionSyncAcquireIsLoadBearing) {
  const Result result =
      run_scenario_weakened("rcu_invalidation", lockfree::Site::rcu_version_sync, kRlx);
  EXPECT_FALSE(result.ok);
}

TEST(McAudit, RingPushSeqStoreReleaseIsLoadBearing) {
  const Result result =
      run_scenario_weakened("ring_spsc_wrap", lockfree::Site::ring_push_seq_store, kRlx);
  EXPECT_FALSE(result.ok);
}

TEST(McAudit, RingPopSeqStoreReleaseIsLoadBearing) {
  const Result result =
      run_scenario_weakened("ring_spsc_wrap", lockfree::Site::ring_pop_seq_store, kRlx);
  EXPECT_FALSE(result.ok);
}

}  // namespace
}  // namespace eum::mc
