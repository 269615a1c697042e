#!/usr/bin/env python3
"""Repo-invariant linter: mechanical enforcement of the correctness rules
the fast path depends on (see DESIGN.md "Correctness tooling").

Rules
-----
atomic-order      Atomic load/store/exchange/fetch_*/compare_exchange_* calls
                  must spell out a std::memory_order. The RCU snapshot publish
                  and the wait-free metrics path are correct *because* of their
                  orderings; an implicit seq_cst either hides a needed ordering
                  or taxes the fast path for nothing. Heuristics (documented so
                  false-positive risk is reviewable):
                    - fetch_add/fetch_sub/fetch_or/fetch_and/fetch_xor,
                      compare_exchange_weak/strong, .exchange(x): these method
                      names are treated as atomic; flagged whenever the
                      argument list carries no memory_order.
                    - .load(): flagged when called with zero arguments (an
                      atomic load's only parameter is the order; anything with
                      real arguments, e.g. LoadLedger::load(id), is not ours).
                    - .store(x): flagged when called with exactly one
                      top-level argument (atomic stores take (value, order);
                      multi-argument stores such as cache.store(key, entry)
                      are ordinary methods).
wall-clock        Wall-clock or unseeded randomness outside src/util and
                  src/sim: std::chrono::system_clock, C time()/rand()/srand(),
                  std::random_device, and default-constructed std::mt19937.
                  Everything in the engine must run off SimClock or an
                  explicit util::Rng seed so simulations replay exactly and
                  tests cannot flake on the machine's clock. steady_clock is
                  deliberately allowed: monotonic deadlines are not wall time.
serve-path-lock   Mutexes, condition variables, or blocking lock acquisition
                  in the designated lock-free serve-path files (the UDP worker
                  loop, the RCU map snapshot, and the mapping fast path).
                  PR 3 removed the last mapping mutex; a reintroduced lock
                  would serialize every query of every worker.
iostream-include  #include <iostream> in library code (src/). <iostream>
                  drags the std::cin/cout static constructors into every
                  translation unit; library code takes <ostream>/<istream>
                  (or <cstdio>) and lets binaries own the globals.
cas-orders        compare_exchange_{weak,strong} with a single (combined)
                  memory order. The one-order overload derives the failure
                  order implicitly, which is exactly the kind of implicit
                  ordering the memory-order minimality audit
                  (AUDIT_memory_orders.json) cannot see: it audits the
                  success and failure orders as separate sites. Spell out
                  both.
metric-name       A string-literal metric name registered in src/ through
                  .counter( / .gauge( / .histogram( (or the -> forms) that
                  breaks DESIGN.md's naming scheme: it must match
                  ^eum_[a-z0-9_]+$, counters must end in _total, gauges and
                  histograms must not. Tests and tools read metrics by these
                  exported names (MetricsRegistry::counter_total), so the
                  scheme is the read API. Checked on raw lines, because the
                  code view blanks literals; the name may sit on the line
                  after the call. Non-literal names are not checked.
tsan-suppression  Unjustified or stale entries in scripts/
                  tsan_suppressions.txt. Every suppression must carry a
                  `# needs: <regex>` annotation in the comment block above
                  it naming the repo construct that makes the suppression
                  necessary; the linter greps the tree for that regex. A
                  suppression whose justification no longer matches
                  anything is dead weight that could mask a real race —
                  remove it (checked on full-tree runs only, like stale
                  allowlist entries).

Any finding can be suppressed by an allowlist entry (scripts/
lint_allowlist.txt); entries that no longer suppress anything are reported
as stale and fail the run, so exceptions stay explicit and reviewed.

Usage: lint_invariants.py [--root DIR] [--allowlist FILE] [paths...]
Exit codes: 0 clean, 1 findings (or stale allowlist entries), 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Directories scanned when no explicit paths are given, relative to --root.
DEFAULT_SCAN_DIRS = ("src", "bench", "examples", "tests", "fuzz")
SOURCE_SUFFIXES = {".cpp", ".h", ".hpp", ".cc"}

# Files that must stay lock-free end to end (serve-path-lock rule).
SERVE_PATH_FILES = {
    "src/dnsserver/udp.cpp",
    "src/dnsserver/answer_cache.h",
    "src/dnsserver/answer_cache.cpp",
    "src/cdn/map_snapshot.cpp",
    "src/cdn/mapping.cpp",
    "src/obs/trace.h",
    "src/obs/trace.cpp",
    # The extracted lock-free kernels (PR 10): these ARE the protocols
    # the serve path runs on; a mutex here defeats the model checking.
    "src/lockfree/versioned_rcu.h",
    "src/lockfree/mpmc_ring.h",
    "src/lockfree/pending_table.h",
    "src/lockfree/job_claim.h",
}

# The TSan suppression file checked by the tsan-suppression rule.
TSAN_SUPPRESSIONS = "scripts/tsan_suppressions.txt"
TSAN_NEEDS = re.compile(r"#\s*needs:\s*(\S.*?)\s*$")

# Directories exempt from the wall-clock rule (the clock/rng abstractions
# themselves live here).
WALL_CLOCK_EXEMPT_PREFIXES = ("src/util/", "src/sim/")

ATOMIC_ALWAYS = (
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "compare_exchange_weak",
    "compare_exchange_strong",
)

WALL_CLOCK_PATTERNS = (
    (re.compile(r"system_clock"), "std::chrono::system_clock is wall time"),
    (re.compile(r"(?<![\w.>])time\s*\("), "C time() reads the wall clock"),
    (re.compile(r"(?<![\w.>])srand\s*\("), "srand() seeds the C PRNG globally"),
    (re.compile(r"(?<![\w.>])rand\s*\("), "rand() is unseeded global randomness"),
    (re.compile(r"random_device"), "std::random_device is nondeterministic"),
    (
        re.compile(r"std::mt19937(?:_64)?\s+\w+\s*(?:;|\{\s*\}|\(\s*\))"),
        "default-constructed std::mt19937 has a fixed, implicit seed",
    ),
)

SERVE_PATH_PATTERNS = (
    (re.compile(r"#\s*include\s*<(mutex|shared_mutex|condition_variable)>"),
     "lock header included in a lock-free serve-path file"),
    (re.compile(r"\bstd::(mutex|shared_mutex|timed_mutex|recursive_mutex)\b"),
     "mutex in a lock-free serve-path file"),
    (re.compile(r"\bstd::(lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
     "lock acquisition in a lock-free serve-path file"),
    (re.compile(r"\bcondition_variable\b"),
     "condition variable in a lock-free serve-path file"),
    (re.compile(r"(?:\.|->)lock\s*\(\s*\)"),
     "blocking .lock() in a lock-free serve-path file"),
)

IOSTREAM_PATTERN = re.compile(r"#\s*include\s*<iostream>")

ATOMIC_CALL = re.compile(
    r"(?:\.|->)(load|store|exchange|" + "|".join(ATOMIC_ALWAYS) + r")\s*\("
)

LINE_COMMENT = re.compile(r"//[^\n]*")

METRIC_CALL = re.compile(r"(?:\.|->)(counter|gauge|histogram)\s*\(")
METRIC_NAME = re.compile(r"^eum_[a-z0-9_]+$")
# A string literal as the first argument; \s spans the newline when the
# name sits on the line after the call.
LITERAL_ARG = re.compile(r'\s*"((?:[^"\\\n]|\\.)*)"')


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str, excerpt: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.excerpt = excerpt.strip()

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}: `{self.excerpt}`"


class AllowEntry:
    """One allowlist line: `rule<TAB or spaces>path[<spaces>substring]`."""

    def __init__(self, rule: str, path: str, substring: str | None, line_no: int):
        self.rule = rule
        self.path = path
        self.substring = substring
        self.line_no = line_no
        self.hits = 0

    def matches(self, finding: Finding) -> bool:
        if self.rule != finding.rule or self.path != finding.path:
            return False
        if self.substring is not None and self.substring not in finding.excerpt:
            return False
        return True


def strip_comments_and_strings(line: str) -> str:
    """Blank out string/char literals, then drop // comments. Block comments
    are handled by the caller (per-file state)."""
    out = []
    i = 0
    quote = None
    while i < len(line):
        c = line[i]
        if quote is not None:
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                quote = None
            out.append(" ")
            i += 1
            continue
        if c in ('"', "'"):
            quote = c
            out.append(" ")
            i += 1
            continue
        out.append(c)
        i += 1
    return LINE_COMMENT.sub("", "".join(out))


def preprocess(text: str) -> list[str]:
    """Return code lines with comments and literals blanked, preserving
    line structure so findings carry real line numbers."""
    lines = []
    in_block = False
    for raw in text.split("\n"):
        line = raw
        if in_block:
            end = line.find("*/")
            if end < 0:
                lines.append("")
                continue
            line = " " * (end + 2) + line[end + 2 :]
            in_block = False
        # Remove any block comments that open (and maybe close) on this line.
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " * (end + 2 - start) + line[end + 2 :]
        lines.append(strip_comments_and_strings(line))
    return lines


def extract_call_args(lines: list[str], line_idx: int, open_col: int) -> str | None:
    """Return the text between the '(' at (line_idx, open_col) and its
    matching ')', spanning lines if needed. None if unbalanced (e.g. macro
    soup) — such calls are skipped rather than guessed at."""
    depth = 0
    out = []
    for li in range(line_idx, min(line_idx + 20, len(lines))):
        col = open_col if li == line_idx else 0
        text = lines[li]
        while col < len(text):
            c = text[col]
            if c == "(":
                depth += 1
                if depth > 1:
                    out.append(c)
            elif c == ")":
                depth -= 1
                if depth == 0:
                    return "".join(out)
                out.append(c)
            else:
                if depth >= 1:
                    out.append(c)
            col += 1
        out.append(" ")
    return None


def top_level_arg_count(args: str) -> int:
    if not args.strip():
        return 0
    depth = 0
    count = 1
    for c in args:
        if c in "([{<" and c != "<":
            depth += 1
        elif c in ")]}" :
            depth -= 1
        elif c == "," and depth == 0:
            count += 1
    return count


def check_atomic_order(rel: str, lines: list[str]) -> list[Finding]:
    findings = []
    for idx, line in enumerate(lines):
        for m in ATOMIC_CALL.finditer(line):
            method = m.group(1)
            open_col = m.end() - 1
            args = extract_call_args(lines, idx, open_col)
            if args is None:
                continue
            if "memory_order" in args:
                continue
            nargs = top_level_arg_count(args)
            if method == "load" and nargs != 0:
                continue  # load with real arguments is not an atomic load
            if method in ("store", "exchange") and nargs != 1:
                continue  # multi-arg store/exchange is an ordinary method
            findings.append(
                Finding(
                    rel,
                    idx + 1,
                    "atomic-order",
                    f"atomic {method}() without explicit std::memory_order",
                    line,
                )
            )
    return findings


CAS_METHODS = ("compare_exchange_weak", "compare_exchange_strong")


def check_cas_orders(rel: str, lines: list[str]) -> list[Finding]:
    """compare_exchange with one order instead of (success, failure).

    Call shapes and who flags them:
      (expected, desired)                 -> atomic-order (no order at all)
      (expected, desired, order)         -> cas-orders (combined order)
      (expected, desired, succ, fail)    -> clean
    """
    findings = []
    for idx, line in enumerate(lines):
        for m in ATOMIC_CALL.finditer(line):
            method = m.group(1)
            if method not in CAS_METHODS:
                continue
            args = extract_call_args(lines, idx, m.end() - 1)
            if args is None or "memory_order" not in args:
                continue  # order-less calls are atomic-order findings
            if top_level_arg_count(args) == 3:
                findings.append(
                    Finding(
                        rel,
                        idx + 1,
                        "cas-orders",
                        f"{method}() with a combined memory order — spell out "
                        "success AND failure orders",
                        line,
                    )
                )
    return findings


def check_wall_clock(rel: str, lines: list[str]) -> list[Finding]:
    if any(rel.startswith(p) for p in WALL_CLOCK_EXEMPT_PREFIXES):
        return []
    findings = []
    for idx, line in enumerate(lines):
        for pattern, why in WALL_CLOCK_PATTERNS:
            if pattern.search(line):
                findings.append(Finding(rel, idx + 1, "wall-clock", why, line))
    return findings


def check_serve_path(rel: str, lines: list[str]) -> list[Finding]:
    if rel not in SERVE_PATH_FILES:
        return []
    findings = []
    for idx, line in enumerate(lines):
        for pattern, why in SERVE_PATH_PATTERNS:
            if pattern.search(line):
                findings.append(Finding(rel, idx + 1, "serve-path-lock", why, line))
    return findings


def check_iostream(rel: str, lines: list[str]) -> list[Finding]:
    if not rel.startswith("src/"):
        return []
    findings = []
    for idx, line in enumerate(lines):
        if IOSTREAM_PATTERN.search(line):
            findings.append(
                Finding(
                    rel,
                    idx + 1,
                    "iostream-include",
                    "<iostream> in library code (use <ostream>/<istream>/<cstdio>)",
                    line,
                )
            )
    return findings


def check_metric_names(rel: str, lines: list[str], raw: str) -> list[Finding]:
    """Call sites come from the code view (so commented-out calls do not
    count); the name is read from the raw text at the same offset."""
    if not rel.startswith("src/"):
        return []
    raw_lines = raw.split("\n")
    starts = [0]
    for raw_line in raw_lines:
        starts.append(starts[-1] + len(raw_line) + 1)
    findings = []
    for idx, line in enumerate(lines):
        for m in METRIC_CALL.finditer(line):
            literal = LITERAL_ARG.match(raw, starts[idx] + m.end())
            if literal is None:
                continue  # the name is not a literal
            kind, name = m.group(1), literal.group(1)
            if not METRIC_NAME.match(name):
                why = "must match ^eum_[a-z0-9_]+$"
            elif kind == "counter" and not name.endswith("_total"):
                why = "counter names end in _total"
            elif kind != "counter" and name.endswith("_total"):
                why = f"{kind} names do not end in _total"
            else:
                continue
            findings.append(
                Finding(rel, idx + 1, "metric-name", f'metric "{name}": {why}', raw_lines[idx])
            )
    return findings


def check_tsan_suppressions(root: Path, files: list[Path]) -> list[Finding]:
    """Every `type:pattern` entry in scripts/tsan_suppressions.txt must be
    preceded by a `# needs: <regex>` annotation whose regex still matches
    some scanned source file. No annotation, or a justification that
    matches nothing, is a finding."""
    supp_path = root / TSAN_SUPPRESSIONS
    if not supp_path.exists():
        return []
    texts: list[str] | None = None  # lazily read, only if there are entries
    findings = []
    needs: str | None = None
    for line_no, raw in enumerate(supp_path.read_text(encoding="utf-8").split("\n"), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = TSAN_NEEDS.search(line)
            if m:
                needs = m.group(1)
            continue
        # A suppression entry; consume the pending justification.
        justification, needs = needs, None
        if justification is None:
            findings.append(
                Finding(
                    TSAN_SUPPRESSIONS,
                    line_no,
                    "tsan-suppression",
                    "suppression without a `# needs: <regex>` justification",
                    line,
                )
            )
            continue
        try:
            pattern = re.compile(justification)
        except re.error as error:
            findings.append(
                Finding(
                    TSAN_SUPPRESSIONS,
                    line_no,
                    "tsan-suppression",
                    f"unparseable `# needs:` regex ({error})",
                    line,
                )
            )
            continue
        if texts is None:
            texts = []
            for path in files:
                try:
                    texts.append(path.read_text(encoding="utf-8", errors="replace"))
                except OSError:
                    pass
        if not any(pattern.search(text) for text in texts):
            findings.append(
                Finding(
                    TSAN_SUPPRESSIONS,
                    line_no,
                    "tsan-suppression",
                    f"stale suppression: justification /{justification}/ matches "
                    "nothing in the tree — remove the entry",
                    line,
                )
            )
    return findings


def lint_file(root: Path, path: Path) -> list[Finding]:
    rel = path.relative_to(root).as_posix()
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as error:
        print(f"lint_invariants: cannot read {rel}: {error}", file=sys.stderr)
        return []
    lines = preprocess(text)
    findings = []
    findings += check_atomic_order(rel, lines)
    findings += check_cas_orders(rel, lines)
    findings += check_wall_clock(rel, lines)
    findings += check_serve_path(rel, lines)
    findings += check_iostream(rel, lines)
    findings += check_metric_names(rel, lines, text)
    return findings


def parse_allowlist(path: Path) -> list[AllowEntry]:
    entries = []
    if not path.exists():
        return entries
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 2)
        if len(parts) < 2:
            print(
                f"lint_invariants: {path.name}:{line_no}: malformed entry "
                "(want: rule path [substring])",
                file=sys.stderr,
            )
            sys.exit(2)
        rule, file_path = parts[0], parts[1]
        substring = parts[2] if len(parts) == 3 else None
        entries.append(AllowEntry(rule, file_path, substring, line_no))
    return entries


def collect_files(root: Path, paths: list[str]) -> list[Path]:
    files: list[Path] = []
    if paths:
        candidates = [Path(p) if Path(p).is_absolute() else root / p for p in paths]
    else:
        candidates = [root / d for d in DEFAULT_SCAN_DIRS]
    for candidate in candidates:
        if candidate.is_file():
            if candidate.suffix in SOURCE_SUFFIXES:
                files.append(candidate)
        elif candidate.is_dir():
            files.extend(
                p
                for p in sorted(candidate.rglob("*"))
                if p.is_file() and p.suffix in SOURCE_SUFFIXES
            )
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--root", default=None, help="repo root (default: script's parent)")
    parser.add_argument("--allowlist", default=None, help="allowlist file path")
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    args = parser.parse_args()

    root = Path(args.root).resolve() if args.root else Path(__file__).resolve().parent.parent
    allowlist_path = (
        Path(args.allowlist) if args.allowlist else root / "scripts" / "lint_allowlist.txt"
    )
    entries = parse_allowlist(allowlist_path)

    files = collect_files(root, args.paths)
    findings = []
    for path in files:
        findings.extend(lint_file(root, path))
    # Suppression hygiene only on full-tree runs: a path-restricted run
    # does not see the files that justify the suppressions.
    if not args.paths:
        findings.extend(check_tsan_suppressions(root, files))

    reported = []
    for finding in findings:
        suppressed = False
        for entry in entries:
            if entry.matches(finding):
                entry.hits += 1
                suppressed = True
                break
        if not suppressed:
            reported.append(finding)

    for finding in reported:
        print(finding)

    # Only flag stale entries on full-tree runs: a path-restricted run
    # (incremental mode) legitimately never visits most allowlisted files.
    stale = [e for e in entries if e.hits == 0] if not args.paths else []
    for entry in stale:
        print(
            f"{allowlist_path.name}:{entry.line_no}: stale allowlist entry "
            f"({entry.rule} {entry.path}) suppresses nothing — remove it"
        )

    if reported or stale:
        print(
            f"lint_invariants: {len(reported)} finding(s), {len(stale)} stale "
            "allowlist entrie(s)",
            file=sys.stderr,
        )
        return 1
    print("lint_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
