#!/usr/bin/env python3
"""Self-tests for scripts/lint_invariants.py.

Each case plants a known-bad (or known-good) snippet in a scratch tree
laid out like the repo, runs the linter against it, and asserts the rule
fires — or that an allowlist entry suppresses it. Runs with the standard
library only (no pytest dependency), one line per case, non-zero exit on
any failure; wired into ctest as `lint_invariants_selftest`.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

LINTER = Path(__file__).resolve().parent / "lint_invariants.py"

PASS = 0
FAIL = 0


def run_linter(root: Path, allowlist: str | None = None) -> tuple[int, str]:
    allow = root / "allow.txt"
    allow.write_text(allowlist if allowlist is not None else "")
    proc = subprocess.run(
        [sys.executable, str(LINTER), "--root", str(root), "--allowlist", str(allow)],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


def case(name: str, rel_path: str, code: str, *, expect_rule: str | None,
         allowlist: str | None = None, expect_stale: bool = False,
         extra_files: dict[str, str] | None = None) -> None:
    """Write `code` at `rel_path` in a scratch tree and check the outcome."""
    global PASS, FAIL
    with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
        root = Path(tmp)
        target = root / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(code)
        for extra_rel, extra_code in (extra_files or {}).items():
            extra = root / extra_rel
            extra.parent.mkdir(parents=True, exist_ok=True)
            extra.write_text(extra_code)
        code_rc, output = run_linter(root, allowlist)
        ok = True
        if expect_rule is None:
            if code_rc != 0 and not expect_stale:
                ok = False
        else:
            if code_rc == 0 or f"[{expect_rule}]" not in output:
                ok = False
        if expect_stale and "stale allowlist entry" not in output:
            ok = False
        if not expect_stale and "stale allowlist entry" in output:
            ok = False
        if ok:
            PASS += 1
            print(f"  ok: {name}")
        else:
            FAIL += 1
            print(f"FAIL: {name}\n--- linter output ---\n{output}---------------------")


def main() -> int:
    # --- atomic-order: each flavour of implicit ordering fires ---
    case(
        "atomic load() with no order fires",
        "src/dns/thing.cpp",
        "void f(std::atomic<int>& a) { int x = a.load(); (void)x; }\n",
        expect_rule="atomic-order",
    )
    case(
        "atomic store(value) with no order fires",
        "src/dns/thing.cpp",
        "void f(std::atomic<int>& a) { a.store(1); }\n",
        expect_rule="atomic-order",
    )
    case(
        "fetch_add with no order fires",
        "src/obs/thing.cpp",
        "void f(std::atomic<int>& a) { a.fetch_add(1); }\n",
        expect_rule="atomic-order",
    )
    case(
        "compare_exchange_weak with no order fires",
        "src/control/thing.cpp",
        "void f(std::atomic<int>& a, int& e) { a.compare_exchange_weak(e, 2); }\n",
        expect_rule="atomic-order",
    )
    case(
        "explicit memory order is clean",
        "src/dns/thing.cpp",
        "void f(std::atomic<int>& a) {\n"
        "  a.store(1, std::memory_order_release);\n"
        "  (void)a.load(std::memory_order_acquire);\n"
        "  a.fetch_add(1, std::memory_order_relaxed);\n"
        "}\n",
        expect_rule=None,
    )
    case(
        "memory order on a continuation line is clean",
        "src/control/thing.cpp",
        "void f(std::atomic<long>& a, long v) {\n"
        "  a.store(v,\n"
        "          std::memory_order_release);\n"
        "}\n",
        expect_rule=None,
    )
    case(
        "non-atomic two-argument store() is not flagged",
        "src/dnsserver/thing.cpp",
        "void f(Cache& cache, Key k, Entry e) { cache.store(k, std::move(e)); }\n",
        expect_rule=None,
    )
    case(
        "non-atomic load(arg) is not flagged",
        "src/control/thing.cpp",
        "double f(const Ledger& l, Id id) { return l.loads().load(id); }\n",
        expect_rule=None,
    )
    case(
        "atomic call in a comment is not flagged",
        "src/dns/thing.cpp",
        "// previously: a.load() with default ordering\nvoid f() {}\n",
        expect_rule=None,
    )

    # --- cas-orders: combined-order compare_exchange fires ---
    case(
        "compare_exchange_weak with a combined order fires",
        "src/control/thing.cpp",
        "void f(std::atomic<int>& a, int& e) "
        "{ a.compare_exchange_weak(e, 2, std::memory_order_acq_rel); }\n",
        expect_rule="cas-orders",
    )
    case(
        "compare_exchange_strong with a combined order fires",
        "src/obs/thing.cpp",
        "void f(std::atomic<int>& a, int& e) "
        "{ a.compare_exchange_strong(e, 2, std::memory_order_seq_cst); }\n",
        expect_rule="cas-orders",
    )
    case(
        "compare_exchange with both orders is clean",
        "src/control/thing.cpp",
        "void f(std::atomic<int>& a, int& e) {\n"
        "  a.compare_exchange_weak(e, 2, std::memory_order_acq_rel,\n"
        "                          std::memory_order_acquire);\n"
        "}\n",
        expect_rule=None,
    )
    case(
        "policy-routed orders count as both orders",
        "src/lockfree/thing.h",
        "template <class P> bool f(typename P::template Atomic<int>& a, int& e) {\n"
        "  return a.compare_exchange_weak(\n"
        "      e, 2, P::template order<Site::x>(std::memory_order_relaxed),\n"
        "      P::template order<Site::y>(std::memory_order_relaxed));\n"
        "}\n",
        expect_rule=None,
    )

    # --- tsan-suppression: justification annotations ---
    live_supp = (
        "# libstdc++ workaround, justified below.\n"
        "# needs: NeedleStillPresent\n"
        "race:_Sp_atomic\n"
    )
    case(
        "justified tsan suppression is clean",
        "src/dns/thing.cpp",
        "struct NeedleStillPresent {};\n",
        expect_rule=None,
        extra_files={"scripts/tsan_suppressions.txt": live_supp},
    )
    case(
        "stale tsan suppression fires",
        "src/dns/thing.cpp",
        "void f() {}\n",
        expect_rule="tsan-suppression",
        extra_files={"scripts/tsan_suppressions.txt": live_supp},
    )
    case(
        "tsan suppression without a needs annotation fires",
        "src/dns/thing.cpp",
        "void f() {}\n",
        expect_rule="tsan-suppression",
        extra_files={
            "scripts/tsan_suppressions.txt": "# no justification here\nrace:_Sp_atomic\n"
        },
    )
    case(
        "a needs annotation does not leak onto later entries",
        "src/dns/thing.cpp",
        "struct NeedleStillPresent {};\n",
        expect_rule="tsan-suppression",
        extra_files={
            "scripts/tsan_suppressions.txt":
                "# needs: NeedleStillPresent\n"
                "race:_Sp_atomic\n"
                "race:another_symbol\n"  # second entry has no justification
        },
    )
    case(
        "no suppressions file at all is clean",
        "src/dns/thing.cpp",
        "void f() {}\n",
        expect_rule=None,
    )

    # --- wall-clock: each pattern fires outside util/sim, is exempt inside ---
    case(
        "system_clock in src/dns fires",
        "src/dns/thing.cpp",
        "auto f() { return std::chrono::system_clock::now(); }\n",
        expect_rule="wall-clock",
    )
    case(
        "C time() fires",
        "src/cdn/thing.cpp",
        "#include <ctime>\nlong f() { return time(nullptr); }\n",
        expect_rule="wall-clock",
    )
    case(
        "rand() fires",
        "src/net/thing.cpp",
        "int f() { return rand(); }\n",
        expect_rule="wall-clock",
    )
    case(
        "random_device fires",
        "src/measure/thing.cpp",
        "#include <random>\nauto f() { std::random_device rd; return rd(); }\n",
        expect_rule="wall-clock",
    )
    case(
        "default-constructed mt19937 fires",
        "src/topo/thing.cpp",
        "#include <random>\nint f() { std::mt19937 gen; return (int)gen(); }\n",
        expect_rule="wall-clock",
    )
    case(
        "system_clock inside src/util is exempt",
        "src/util/wall.cpp",
        "auto f() { return std::chrono::system_clock::now(); }\n",
        expect_rule=None,
    )
    case(
        "system_clock inside src/sim is exempt",
        "src/sim/wall.cpp",
        "auto f() { return std::chrono::system_clock::now(); }\n",
        expect_rule=None,
    )
    case(
        "steady_clock is always clean",
        "src/dnsserver/thing.cpp",
        "auto f() { return std::chrono::steady_clock::now(); }\n",
        expect_rule=None,
    )
    case(
        "seeded mt19937 is clean",
        "src/geo/thing.cpp",
        "#include <random>\nint f() { std::mt19937 gen{42}; return (int)gen(); }\n",
        expect_rule=None,
    )
    case(
        "time_since_epoch() is not mistaken for time()",
        "src/stats/thing.cpp",
        "auto f(std::chrono::steady_clock::time_point t) "
        "{ return t.time_since_epoch(); }\n",
        expect_rule=None,
    )

    # --- serve-path-lock: designated files only ---
    case(
        "mutex in the UDP worker file fires",
        "src/dnsserver/udp.cpp",
        "#include <mutex>\nstd::mutex m;\n",
        expect_rule="serve-path-lock",
    )
    case(
        "lock_guard in the map snapshot fires",
        "src/cdn/map_snapshot.cpp",
        "void f(std::mutex& m) { std::lock_guard<std::mutex> g{m}; }\n",
        expect_rule="serve-path-lock",
    )
    case(
        ".lock() in the mapping fast path fires",
        "src/cdn/mapping.cpp",
        "void f(SomeLock& l) { l.lock(); }\n",
        expect_rule="serve-path-lock",
    )
    case(
        "condition_variable in the answer cache fires",
        "src/dnsserver/answer_cache.cpp",
        "#include <condition_variable>\nstd::condition_variable cv;\n",
        expect_rule="serve-path-lock",
    )
    case(
        "shared_lock in the answer cache header fires",
        "src/dnsserver/answer_cache.h",
        "void f(std::shared_mutex& m) { std::shared_lock<std::shared_mutex> g{m}; }\n",
        expect_rule="serve-path-lock",
    )
    case(
        "mutex in the flight recorder fires",
        "src/obs/trace.cpp",
        "#include <mutex>\nstd::mutex m;\n",
        expect_rule="serve-path-lock",
    )
    case(
        ".lock() in the trace header fires",
        "src/obs/trace.h",
        "void f(SomeLock& l) { l.lock(); }\n",
        expect_rule="serve-path-lock",
    )
    case(
        "mutex in a non-designated file is allowed",
        "src/dnsserver/resolver.cpp",
        "#include <mutex>\nstd::mutex m;\n",
        expect_rule=None,
    )
    case(
        "mutex in the admin channel (off the serve path) is allowed",
        "src/obs/admin.cpp",
        "#include <mutex>\nstd::mutex m;\n",
        expect_rule=None,
    )

    # --- iostream-include: src/ only ---
    case(
        "<iostream> in library code fires",
        "src/topo/thing.cpp",
        "#include <iostream>\n",
        expect_rule="iostream-include",
    )
    case(
        "<iostream> in examples is allowed",
        "examples/demo.cpp",
        "#include <iostream>\nint main() {}\n",
        expect_rule=None,
    )
    case(
        "<ostream> in library code is clean",
        "src/topo/thing.cpp",
        "#include <ostream>\n",
        expect_rule=None,
    )

    # --- allowlist behaviour ---
    case(
        "allowlist entry suppresses a finding",
        "src/dns/thing.cpp",
        "void f(std::atomic<int>& a) { a.store(1); }\n",
        expect_rule=None,
        allowlist="atomic-order src/dns/thing.cpp\n",
    )
    case(
        "allowlist substring must match the excerpt",
        "src/dns/thing.cpp",
        "void f(std::atomic<int>& a) { a.store(1); }\n",
        expect_rule="atomic-order",
        allowlist="atomic-order src/dns/thing.cpp some_other_excerpt\n",
        expect_stale=True,
    )
    case(
        "allowlist is per-rule, not per-file",
        "src/dns/thing.cpp",
        "#include <iostream>\nvoid f(std::atomic<int>& a) { a.store(1); }\n",
        expect_rule="iostream-include",
        allowlist="atomic-order src/dns/thing.cpp\n",
    )
    case(
        "stale allowlist entry fails the run",
        "src/dns/clean.cpp",
        "void f() {}\n",
        expect_rule=None,
        allowlist="wall-clock src/dns/clean.cpp\n",
        expect_stale=True,
    )

    print(f"\nlint selftest: {PASS} passed, {FAIL} failed")
    return 1 if FAIL else 0


if __name__ == "__main__":
    sys.exit(main())
