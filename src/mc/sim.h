// Deterministic model checker for the repo's lock-free protocols.
//
// The serve path answers queries off hand-rolled atomic protocols (RCU
// snapshot publish, Vyukov MPMC rings, the loadgen pending table). TSan
// only sees interleavings that happen to occur on the test machine; this
// module *enumerates* them. A protocol test body
// builds shared state, spawns a handful of virtual threads, and asserts
// invariants; mc::check() then runs that body under every schedule (DFS
// with a configurable preemption bound) or under a seeded random walk,
// simulating the C++ memory model closely enough to exhibit the bugs a
// wrong memory_order admits:
//
//   - every mc::atomic keeps its full modification-order history; a load
//     may read any coherence-admissible stale value, enumerated as an
//     explicit choice point (this is how a missing release/acquire pair
//     becomes a *visible* wrong value, not a latent one);
//   - vector clocks track happens-before; plain data wrapped in
//     mc::racy<T> reports a data race the moment two unordered accesses
//     touch it (torn publishes, reads of half-built snapshots);
//   - seq_cst operations additionally respect the single total order
//     (execution order), so Dekker-style protocols fail when demoted to
//     acq_rel; release/acquire/seq_cst fences are modeled;
//   - weak CAS can fail spuriously (bounded per execution, enumerated).
//
// Any failing schedule is replayable byte-for-byte: Result::trace is the
// exact choice sequence, and mc::replay(trace, body) re-executes it,
// producing the same event log every time.
//
// The model is operational (relacy-class): executions are interleavings
// plus stale-read choices. It exhibits message-passing, coherence, RMW
// atomicity, release-sequence, fence, and SC-order violations; it does
// not generate out-of-thin-air or load-buffering behaviors. Exploration
// can additionally be bounded in how stale a read may be (stale_depth)
// and how often a thread may read stale at all (stale_budget — the
// memory-fairness assumption real machines satisfy; without it a
// CAS-retry loop fed adversarially stale values never terminates and
// neither does DFS). Every bound rides in the trace header. Verdicts that
// *weaken* an order on the strength of an exhaustive pass (the auditor,
// audit.h) are therefore proofs within this model, and are documented as
// such.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace eum::mc {

class Sim;

/// Exploration configuration.
struct Options {
  enum class Mode : std::uint8_t {
    exhaustive,  ///< DFS over every schedule + read-from + spurious choice
    random,      ///< seeded random walk, `iterations` executions
  };
  Mode mode = Mode::exhaustive;
  /// Hard cap on exhaustive executions. Exceeding it FAILS the check
  /// (the state space was not exhausted, so "no bug found" means
  /// nothing) — shrink the protocol or lower the preemption bound.
  std::size_t max_executions = 2'000'000;
  /// Executions in random mode.
  std::size_t iterations = 20'000;
  /// Max context switches away from a still-runnable thread (-1 =
  /// unbounded). Bound 2-3 catches almost all real interleaving bugs
  /// (CHESS) while keeping exhaustive DFS tractable.
  int preemption_bound = -1;
  /// Spurious weak-CAS failures allowed per execution (each one is an
  /// enumerated branch; unbounded would make DFS infinite).
  int spurious_cas_budget = 1;
  /// Max stale entries (behind the newest) a load's read-from choice may
  /// reach back, -1 = unlimited. Bounding this is the staleness analogue
  /// of the preemption bound: real relaxed-ordering bugs manifest within
  /// a couple of writes, while full enumeration makes every relaxed load
  /// a multiplicative branch. Like the other bounds it is recorded in
  /// the trace header ("k..."), so failing schedules replay exactly.
  int stale_depth = -1;
  /// Max non-latest (stale) reads each virtual thread may take per
  /// execution, -1 = unlimited. C++ promises no read fairness, so a
  /// CAS-retry loop fed adversarially stale values can spin forever —
  /// and DFS would faithfully enumerate those unbounded executions. A
  /// small budget is the memory-fairness assumption every real machine
  /// satisfies (stores become visible eventually), and it makes retry
  /// loops terminate. Recorded in the trace header ("f...").
  int stale_budget = -1;
  std::uint64_t seed = 1;
};

/// Outcome of a check() / replay() run.
struct Result {
  bool ok = true;
  std::size_t executions = 0;
  /// Human-readable description of the first failure (assert text, race
  /// report, or exploration-cap overflow); empty when ok.
  std::string failure;
  /// Replayable choice sequence of the failing schedule; empty when ok.
  std::string trace;
  /// Per-step event log of the failing schedule (replay of `trace` with
  /// logging on). Deterministic: replaying the same trace yields a
  /// byte-identical log.
  std::vector<std::string> events;

  [[nodiscard]] std::string summary() const;
};

/// Explore every schedule of `body` under `options`. The body runs once
/// per execution: it constructs fresh shared state, registers virtual
/// threads via Sim::thread(), and optionally a post-join invariant via
/// Sim::after().
Result check(const Options& options, const std::function<void(Sim&)>& body);

/// Re-execute one recorded schedule with event logging. The trace must
/// come from a Result produced by the same body (a divergent body fails
/// with a determinism error).
Result replay(std::string_view trace, const std::function<void(Sim&)>& body);

namespace detail {

/// Thrown by MC_ASSERT / race detection inside a virtual thread; caught
/// by the scheduler, never by user code.
struct McFailure {
  std::string message;
};

/// Thrown into still-running threads once the execution is being torn
/// down after a failure.
struct AbortExecution {};

[[noreturn]] void fail(std::string message);

}  // namespace detail

/// Protocol invariant assertion: records the failure (with the failing
/// schedule) and aborts the current execution.
#define MC_ASSERT(cond)                                                         \
  do {                                                                          \
    if (!(cond)) {                                                              \
      ::eum::mc::detail::fail(std::string{"MC_ASSERT failed: "} + #cond + " (" + \
                              __FILE__ + ":" + std::to_string(__LINE__) + ")"); \
    }                                                                           \
  } while (0)

/// The execution-scoped world. Test bodies receive it; mc::atomic /
/// mc::racy find it through a thread-local set for the body's duration.
class Sim {
 public:
  /// Register a virtual thread. Threads start only after the body
  /// returns; at most kMaxThreads.
  void thread(std::function<void()> fn);

  /// Register the post-join invariant check. Runs after every virtual
  /// thread finished, with full happens-before visibility (reads there
  /// never race).
  void after(std::function<void()> fn);

  static constexpr std::size_t kMaxThreads = 8;

  // ---- internal API (mc::atomic / mc::racy / fence) -------------------
  struct Impl;
  [[nodiscard]] Impl& impl() noexcept { return *impl_; }

  /// The Sim the calling thread is executing under (nullptr outside a
  /// check() body / virtual thread).
  [[nodiscard]] static Sim* current() noexcept;

 private:
  friend Result check(const Options&, const std::function<void(Sim&)>&);
  friend Result replay(std::string_view, const std::function<void(Sim&)>&);
  explicit Sim(Impl* impl) : impl_(impl) {}
  Impl* impl_;
};

}  // namespace eum::mc
