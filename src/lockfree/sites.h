// Registry of every atomic operation site in the extracted lock-free
// kernels (src/lockfree/*.h).
//
// Each kernel names each of its atomic operations with a Site and routes
// the operation's memory order through its atomics policy:
//
//   P::template order<Site::rcu_version_publish>(std::memory_order_release)
//
// In production (StdAtomicsPolicy) that call is a constexpr passthrough
// of the default — identical codegen to writing the order literally. The
// model checker's policy (mc/policy.h) instead resolves through a
// mutable override table, which is how the memory-order minimality
// auditor weakens exactly one site at a time and asks the checker for a
// violating schedule. AUDIT_memory_orders.json is keyed by these names;
// a compare_exchange contributes TWO sites (success + failure order),
// audited independently.
#pragma once

#include <atomic>
#include <cstddef>

namespace eum::lockfree {

enum class Site : int {
  // VersionedRcu — MapMaker snapshot/version publish + serve-path reads.
  rcu_snapshot_publish,
  rcu_version_publish,
  rcu_snapshot_load,
  rcu_version_load,
  rcu_version_sync,
  // MpmcRing — FlightRecorder bounded MPMC ring (Vyukov).
  ring_push_pos_load,
  ring_push_seq_load,
  ring_push_claim_cas_ok,
  ring_push_claim_cas_fail,
  ring_push_seq_store,
  ring_evict_tail_load,
  ring_evict_seq_load,
  ring_evict_claim_cas_ok,
  ring_evict_claim_cas_fail,
  ring_evict_seq_store,
  ring_pop_pos_load,
  ring_pop_seq_load,
  ring_pop_claim_cas_ok,
  ring_pop_claim_cas_fail,
  ring_pop_seq_store,
  // PendingTable — loadgen packed sched/state slot lifecycle.
  pending_arm_xchg,
  pending_claim_load,
  pending_claim_cas_ok,
  pending_claim_cas_fail,
  pending_sweep_load,
  kCount,
};

inline constexpr std::size_t kSiteCount = static_cast<std::size_t>(Site::kCount);

/// Operation shape at a site; decides the auditor's weakening ladder
/// (e.g. a store weakens release->relaxed, an RMW acq_rel->acquire and
/// acq_rel->release).
enum class SiteOp : int { load, store, rmw, cas_fail };

struct SiteInfo {
  const char* name;    ///< stable key used in AUDIT_memory_orders.json
  const char* kernel;  ///< owning kernel ("versioned_rcu", "mpmc_ring", ...)
  SiteOp op;
  std::memory_order default_order;  ///< the order shipped in production
};

[[nodiscard]] constexpr SiteInfo site_info(Site site) noexcept {
  constexpr std::memory_order rlx = std::memory_order_relaxed;
  constexpr std::memory_order acq = std::memory_order_acquire;
  constexpr std::memory_order rel = std::memory_order_release;
  switch (site) {
    case Site::rcu_snapshot_publish:
      return {"rcu_snapshot_publish", "versioned_rcu", SiteOp::store, rel};
    case Site::rcu_version_publish:
      return {"rcu_version_publish", "versioned_rcu", SiteOp::store, rel};
    case Site::rcu_snapshot_load:
      return {"rcu_snapshot_load", "versioned_rcu", SiteOp::load, acq};
    case Site::rcu_version_load:
      return {"rcu_version_load", "versioned_rcu", SiteOp::load, rlx};
    case Site::rcu_version_sync:
      return {"rcu_version_sync", "versioned_rcu", SiteOp::load, acq};
    case Site::ring_push_pos_load:
      return {"ring_push_pos_load", "mpmc_ring", SiteOp::load, rlx};
    case Site::ring_push_seq_load:
      return {"ring_push_seq_load", "mpmc_ring", SiteOp::load, acq};
    case Site::ring_push_claim_cas_ok:
      return {"ring_push_claim_cas_ok", "mpmc_ring", SiteOp::rmw, rlx};
    case Site::ring_push_claim_cas_fail:
      return {"ring_push_claim_cas_fail", "mpmc_ring", SiteOp::cas_fail, rlx};
    case Site::ring_push_seq_store:
      return {"ring_push_seq_store", "mpmc_ring", SiteOp::store, rel};
    case Site::ring_evict_tail_load:
      return {"ring_evict_tail_load", "mpmc_ring", SiteOp::load, rlx};
    case Site::ring_evict_seq_load:
      return {"ring_evict_seq_load", "mpmc_ring", SiteOp::load, acq};
    case Site::ring_evict_claim_cas_ok:
      return {"ring_evict_claim_cas_ok", "mpmc_ring", SiteOp::rmw, rlx};
    case Site::ring_evict_claim_cas_fail:
      return {"ring_evict_claim_cas_fail", "mpmc_ring", SiteOp::cas_fail, rlx};
    case Site::ring_evict_seq_store:
      return {"ring_evict_seq_store", "mpmc_ring", SiteOp::store, rel};
    case Site::ring_pop_pos_load:
      return {"ring_pop_pos_load", "mpmc_ring", SiteOp::load, rlx};
    case Site::ring_pop_seq_load:
      return {"ring_pop_seq_load", "mpmc_ring", SiteOp::load, acq};
    case Site::ring_pop_claim_cas_ok:
      return {"ring_pop_claim_cas_ok", "mpmc_ring", SiteOp::rmw, rlx};
    case Site::ring_pop_claim_cas_fail:
      return {"ring_pop_claim_cas_fail", "mpmc_ring", SiteOp::cas_fail, rlx};
    case Site::ring_pop_seq_store:
      return {"ring_pop_seq_store", "mpmc_ring", SiteOp::store, rel};
    case Site::pending_arm_xchg:
      return {"pending_arm_xchg", "pending_table", SiteOp::rmw, rlx};
    case Site::pending_claim_load:
      return {"pending_claim_load", "pending_table", SiteOp::load, rlx};
    case Site::pending_claim_cas_ok:
      return {"pending_claim_cas_ok", "pending_table", SiteOp::rmw, rlx};
    case Site::pending_claim_cas_fail:
      return {"pending_claim_cas_fail", "pending_table", SiteOp::cas_fail, rlx};
    case Site::pending_sweep_load:
      return {"pending_sweep_load", "pending_table", SiteOp::load, rlx};
    case Site::kCount: break;
  }
  return {"?", "?", SiteOp::load, std::memory_order_seq_cst};
}

}  // namespace eum::lockfree
