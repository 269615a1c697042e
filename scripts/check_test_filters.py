#!/usr/bin/env python3
"""Fail when a sanitizer gate's --gtest_filter names no test.

scripts/tsan_check.sh and scripts/asan_check.sh each run eum_tests under a
sanitizer with a --gtest_filter. gtest runs whatever a filter matches and
passes, so a renamed or deleted suite drops out of a gate silently. This
check lists the binary's tests and fails, naming the pattern, when any
positive pattern of either filter matches none of them.

Usage: check_test_filters.py <eum_tests binary> [script...]
       (no scripts: tsan_check.sh and asan_check.sh next to this file)
Exit codes: 0 OK, 1 a pattern matches no test, 2 usage/IO error.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

FILTER = re.compile(r"--gtest_filter='([^']*)'")


def list_tests(binary: str) -> list[str]:
    """Full names ("Suite.Test", "Prefix/Suite.Test/0") the binary runs."""
    listing = subprocess.run([binary, "--gtest_list_tests"], capture_output=True, text=True,
                             check=True).stdout
    names: list[str] = []
    suite = ""
    for line in listing.splitlines():
        name = line.split("#", 1)[0].strip()  # drop "# GetParam() = ..." notes
        if not name:
            continue
        if line.startswith(" "):
            names.append(suite + name)
        else:
            suite = name
    return names


def matcher(pattern: str) -> re.Pattern[str]:
    """gtest's wildcards: '*' any string, '?' any one character."""
    return re.compile(re.escape(pattern).replace(r"\*", ".*").replace(r"\?", "."))


def positive_patterns(filter_text: str) -> list[str]:
    """The patterns before the first '-' (the negative half excludes)."""
    return [p for p in filter_text.split("-", 1)[0].split(":") if p]


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    here = Path(__file__).resolve().parent
    scripts = [Path(p) for p in argv[2:]] or [here / "tsan_check.sh", here / "asan_check.sh"]
    try:
        tests = list_tests(argv[1])
        texts = {script: script.read_text() for script in scripts}
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"check_test_filters: {error}", file=sys.stderr)
        return 2

    stale = 0
    for script, text in texts.items():
        filters = FILTER.findall(text)
        if not filters:
            print(f"check_test_filters: {script.name}: no --gtest_filter='...' found",
                  file=sys.stderr)
            return 2
        patterns = [p for f in filters for p in positive_patterns(f)]
        matched = 0
        for pattern in patterns:
            regex = matcher(pattern)
            hits = [t for t in tests if regex.fullmatch(t)]
            if not hits:
                print(f"check_test_filters: {script.name}: pattern '{pattern}' matches no test")
                stale += 1
            matched += len(hits)
        print(f"check_test_filters: {script.name}: {len(patterns)} patterns, "
              f"{matched} test matches")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
