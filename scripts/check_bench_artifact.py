#!/usr/bin/env python3
"""Sanity-check the committed BENCH_*.json perf artifacts.

The bench binaries regenerate these files on every run; CI
(scripts/check.sh and the lint job) gates on the committed copies
staying well-formed so a hand edit, a merge scar, or a bench writer bug
cannot silently ship a broken perf record. Each artifact self-identifies
via its top-level "bench" field and is checked against the matching
schema below.

udp_throughput (closed-loop, BENCH_udp_throughput.json)
-------------------------------------------------------
- "closed_loop" is true — the artifact must label its rates as
  wait-for-the-answer measurements (subject to coordinated omission);
- "configs" is a non-empty list and every entry carries
  workers/attempted/answered/achieved_qps with answered <= attempted;
- "answer_cache" exists with a numeric "hit_ratio" in [0, 1], a "runs"
  list covering both cache-off and cache-on rows, and positive
  best_cache_on_qps / best_cache_off_qps / speedup_vs_seed numbers;
- "tracing" reports the flight-recorder overhead arm: sampling actually
  on (sample_every >= 2), both p99s positive, at least one trace record
  committed, and p99_ratio (traced / untraced) at most 1.05;
- "churn" reports both phases.

loadgen (open-loop, BENCH_loadgen.json)
---------------------------------------
- "open_loop" is true and "slo_p999_us" is positive;
- "curve" has >= 5 points with strictly increasing offered_qps, each
  carrying achieved_qps, sent/received/dropped counts, a drop_rate in
  [0, 1], and ordered percentiles p50 <= p99 <= p999;
- "max_qps_under_slo" >= 1 — the serving stack must hold the SLO at at
  least one measured point (the PR's latency-under-load gate) — and it
  equals the top of the curve's passing prefix: the offered_qps of the
  last point before the first one with meets_slo false (a point that
  passes after a failure does not count);
- "kernel_drops" is present (SO_RXQ_OVFL receive-queue overflow total);
- "open_vs_closed" reports the coordinated-omission comparison arm:
  matched_qps and both p999s positive, delta and ratio present.

mc_audit (model check + memory-order audit, AUDIT_memory_orders.json)
---------------------------------------------------------------------
- "ok" is true and "problems" is empty — the audit gate itself passed;
- "checks" lists >= 5 protocol scenarios, every one ok with >= 2
  executions (an exhaustive pass that ran once explored nothing);
- "mutations" lists >= 5 deliberately-broken variants, every one caught
  with a non-empty replayable trace;
- "sites" covers every kernel site: verdict is "load_bearing" (every
  one-step weakening has a violated=true entry with a non-empty trace)
  or "minimal" (the site already runs relaxed, no weakenings). Any
  "over_strong"/"unknown" verdict is a problem by construction.

mapmaker (rebuild scale, BENCH_mapmaker.json)
---------------------------------------------
- "arms" is a non-empty list; every arm carries blocks/targets/units/
  rebuild_ms/publish_rate_hz/rss_mb as numbers;
- every arm carries the cold-start stage times mesh_measure_ms/
  units_ms/ranking_ms as positive numbers;
- every arm's "differential_equal" is true — the republished map must
  serve a seeded sample of blocks and LDNSes the brute-force best live
  cluster;
- at >= 1,000,000 blocks a single-cluster flap's rebuild must be
  strictly faster than the unit ranking — a republish must not re-rank.

Usage: check_bench_artifact.py [path...]
       (no args: all committed artifacts next to the repo root)
Exit codes: 0 OK, 1 malformed artifact, 2 usage/IO error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PROBLEMS: list[str] = []


def problem(message: str) -> None:
    PROBLEMS.append(message)


def require_number(obj: dict, key: str, where: str, lo: float | None = None,
                   hi: float | None = None) -> float | None:
    value = obj.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        problem(f"{where}.{key} is not a number (got {value!r})")
        return None
    if lo is not None and value < lo:
        problem(f"{where}.{key} = {value} below {lo}")
    if hi is not None and value > hi:
        problem(f"{where}.{key} = {value} above {hi}")
    return float(value)


def check_udp_throughput(doc: dict) -> None:
    if doc.get("closed_loop") is not True:
        problem("closed_loop must be true (this bench's clients wait for answers)")

    configs = doc.get("configs")
    if not isinstance(configs, list) or not configs:
        problem("configs is missing or empty")
    else:
        for i, config in enumerate(configs):
            if not isinstance(config, dict):
                problem(f"configs[{i}] is not an object")
                continue
            require_number(config, "workers", f"configs[{i}]", lo=1)
            attempted = require_number(config, "attempted", f"configs[{i}]", lo=1)
            answered = require_number(config, "answered", f"configs[{i}]", lo=0)
            require_number(config, "achieved_qps", f"configs[{i}]", lo=0)
            if attempted is not None and answered is not None and answered > attempted:
                problem(f"configs[{i}]: answered {answered} exceeds attempted {attempted}")

    cache = doc.get("answer_cache")
    if not isinstance(cache, dict):
        problem("answer_cache section is missing")
    else:
        require_number(cache, "hit_ratio", "answer_cache", lo=0.0, hi=1.0)
        require_number(cache, "best_cache_on_qps", "answer_cache", lo=1)
        require_number(cache, "best_cache_off_qps", "answer_cache", lo=1)
        require_number(cache, "speedup_vs_seed", "answer_cache", lo=0)
        runs = cache.get("runs")
        if not isinstance(runs, list) or not runs:
            problem("answer_cache.runs is missing or empty")
        else:
            states = {run.get("cache") for run in runs if isinstance(run, dict)}
            if states != {True, False}:
                problem(f"answer_cache.runs must cover cache on AND off (got {states})")
            for i, run in enumerate(runs):
                if not isinstance(run, dict):
                    problem(f"answer_cache.runs[{i}] is not an object")
                    continue
                require_number(run, "qps", f"answer_cache.runs[{i}]", lo=0)
                require_number(run, "hit_ratio", f"answer_cache.runs[{i}]", lo=0.0,
                               hi=1.0)

    tracing = doc.get("tracing")
    if not isinstance(tracing, dict):
        problem("tracing section is missing")
    else:
        require_number(tracing, "sample_every", "tracing", lo=2)
        require_number(tracing, "untraced_p99_us", "tracing", lo=0.001)
        require_number(tracing, "traced_p99_us", "tracing", lo=0.001)
        require_number(tracing, "committed", "tracing", lo=1)
        # The tracing PR's overhead budget: sampled tracing may cost at
        # most 5% of fast-path p99. A ratio of 0 means the bench never
        # measured.
        require_number(tracing, "p99_ratio", "tracing", lo=0.001, hi=1.05)

    churn = doc.get("churn")
    if not isinstance(churn, dict):
        problem("churn section is missing")
    else:
        for phase in ("steady", "under_churn"):
            if not isinstance(churn.get(phase), dict):
                problem(f"churn.{phase} phase is missing")


def check_loadgen(doc: dict) -> None:
    if doc.get("open_loop") is not True:
        problem("open_loop must be true (latency is charged from scheduled send time)")
    require_number(doc, "slo_p999_us", "$", lo=1)

    curve = doc.get("curve")
    if not isinstance(curve, list) or len(curve) < 5:
        got = len(curve) if isinstance(curve, list) else curve
        problem(f"curve must be a list of >= 5 offered-QPS points (got {got!r})")
        curve = []
    previous_offered = 0.0
    prefix_top = 0.0
    prefix_passing = True
    for i, point in enumerate(curve):
        where = f"curve[{i}]"
        if not isinstance(point, dict):
            problem(f"{where} is not an object")
            continue
        offered = require_number(point, "offered_qps", where, lo=1)
        require_number(point, "achieved_qps", where, lo=0)
        require_number(point, "sent", where, lo=1)
        require_number(point, "received", where, lo=0)
        require_number(point, "dropped", where, lo=0)
        require_number(point, "drop_rate", where, lo=0.0, hi=1.0)
        p50 = require_number(point, "p50_us", where, lo=0)
        p99 = require_number(point, "p99_us", where, lo=0)
        p999 = require_number(point, "p999_us", where, lo=0)
        if None not in (p50, p99, p999) and not p50 <= p99 <= p999:
            problem(f"{where}: percentiles out of order (p50 {p50}, p99 {p99}, "
                    f"p999 {p999})")
        if not isinstance(point.get("meets_slo"), bool):
            problem(f"{where}.meets_slo is not a bool")
        prefix_passing = prefix_passing and point.get("meets_slo") is True
        if prefix_passing and offered is not None:
            prefix_top = offered
        if offered is not None:
            if offered <= previous_offered:
                problem(f"{where}.offered_qps {offered} does not increase over "
                        f"{previous_offered} — the sweep must be strictly increasing")
            previous_offered = offered

    # The latency-under-load gate: some measured point held the SLO, and
    # the headline is the top of the passing prefix.
    max_qps = require_number(doc, "max_qps_under_slo", "$", lo=1)
    if max_qps is not None and curve and max_qps != prefix_top:
        problem(f"max_qps_under_slo {max_qps} is not the top of the curve's passing "
                f"prefix ({prefix_top})")
    require_number(doc, "kernel_drops", "$", lo=0)

    arm = doc.get("open_vs_closed")
    if not isinstance(arm, dict):
        problem("open_vs_closed comparison arm is missing")
    else:
        require_number(arm, "matched_qps", "open_vs_closed", lo=1)
        require_number(arm, "closed_loop_p999_us", "open_vs_closed", lo=0.001)
        require_number(arm, "open_loop_p999_us", "open_vs_closed", lo=0.001)
        require_number(arm, "p999_delta_us", "open_vs_closed")
        require_number(arm, "p999_ratio", "open_vs_closed", lo=0.001)


def check_mapmaker(doc: dict) -> None:
    arms = doc.get("arms")
    if not isinstance(arms, list) or not arms:
        problem("arms is missing or empty")
        return
    for i, arm in enumerate(arms):
        where = f"arms[{i}]"
        if not isinstance(arm, dict):
            problem(f"{where} is not an object")
            continue
        blocks = require_number(arm, "blocks", where, lo=1)
        require_number(arm, "targets", where, lo=1)
        require_number(arm, "units", where, lo=1)
        rebuild_ms = require_number(arm, "rebuild_ms", where, lo=0.001)
        require_number(arm, "publish_rate_hz", where, lo=0.001)
        require_number(arm, "rss_mb", where, lo=0.001)
        for stage in ("mesh_measure_ms", "units_ms"):
            require_number(arm, stage, where, lo=0.001)
        ranking_ms = require_number(arm, "ranking_ms", where, lo=0.001)
        if arm.get("differential_equal") is not True:
            problem(f"{where}: differential_equal must be true — the republished map "
                    f"may never drift from the brute-force reference")
        if (None not in (blocks, ranking_ms, rebuild_ms) and blocks >= 1_000_000
                and rebuild_ms >= ranking_ms):
            problem(f"{where}: at {blocks:.0f} blocks the flap rebuild "
                    f"({rebuild_ms} ms) must be strictly faster than the unit ranking "
                    f"({ranking_ms} ms)")


def check_mc_audit(doc: dict) -> None:
    if doc.get("ok") is not True:
        problem("ok must be true — the model-check/audit gate failed")
    problems = doc.get("problems")
    if not isinstance(problems, list):
        problem("problems is missing")
    elif problems:
        problem(f"problems is non-empty: {problems[:3]}")

    checks = doc.get("checks")
    if not isinstance(checks, list) or len(checks) < 5:
        got = len(checks) if isinstance(checks, list) else checks
        problem(f"checks must list >= 5 protocol scenarios (got {got!r})")
        checks = []
    for i, check in enumerate(checks):
        where = f"checks[{i}]"
        if not isinstance(check, dict):
            problem(f"{where} is not an object")
            continue
        if not isinstance(check.get("name"), str) or not check.get("name"):
            problem(f"{where}.name is missing")
        if check.get("ok") is not True:
            problem(f"{where} ({check.get('name')}): scenario did not pass")
        require_number(check, "executions", where, lo=2)

    mutations = doc.get("mutations")
    if not isinstance(mutations, list) or len(mutations) < 5:
        got = len(mutations) if isinstance(mutations, list) else mutations
        problem(f"mutations must list >= 5 broken variants (got {got!r})")
        mutations = []
    for i, mutation in enumerate(mutations):
        where = f"mutations[{i}]"
        if not isinstance(mutation, dict):
            problem(f"{where} is not an object")
            continue
        name = mutation.get("name")
        if mutation.get("caught") is not True:
            problem(f"{where} ({name}): broken variant was NOT caught")
        elif not (isinstance(mutation.get("trace"), str) and mutation["trace"]):
            problem(f"{where} ({name}): caught but no replayable trace recorded")

    sites = doc.get("sites")
    if not isinstance(sites, list) or not sites:
        problem("sites is missing or empty")
        sites = []
    for i, site in enumerate(sites):
        where = f"sites[{i}]"
        if not isinstance(site, dict):
            problem(f"{where} is not an object")
            continue
        name = site.get("site")
        for key in ("site", "kernel", "op", "order"):
            if not isinstance(site.get(key), str) or not site.get(key):
                problem(f"{where}.{key} is missing")
        verdict = site.get("verdict")
        weakenings = site.get("weakenings")
        if not isinstance(weakenings, list):
            problem(f"{where} ({name}).weakenings is missing")
            weakenings = []
        if verdict == "minimal":
            if site.get("order") != "rlx":
                problem(f"{where} ({name}): minimal verdict on a non-relaxed "
                        f"order {site.get('order')!r}")
        elif verdict == "load_bearing":
            if not weakenings:
                problem(f"{where} ({name}): load_bearing with no weakenings tried")
            for j, weakening in enumerate(weakenings):
                if not isinstance(weakening, dict):
                    problem(f"{where}.weakenings[{j}] is not an object")
                    continue
                if weakening.get("violated") is not True:
                    problem(f"{where} ({name}) -> {weakening.get('to')}: weakening "
                            "not violated — the order is not proven load-bearing")
                elif not (isinstance(weakening.get("trace"), str)
                          and weakening["trace"]):
                    problem(f"{where} ({name}) -> {weakening.get('to')}: violated "
                            "but no violating schedule recorded")
        else:
            problem(f"{where} ({name}): verdict {verdict!r} "
                    "(want load_bearing or minimal)")


CHECKERS = {
    "udp_throughput": check_udp_throughput,
    "loadgen": check_loadgen,
    "mapmaker": check_mapmaker,
    "mc_audit": check_mc_audit,
}


def check_file(path: Path) -> int:
    """Returns 0 OK, 1 malformed, 2 IO error; appends to PROBLEMS."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        print(f"check_bench_artifact: cannot read {path}: {error}", file=sys.stderr)
        return 2
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as error:
        print(f"check_bench_artifact: {path.name} is not valid JSON: {error}",
              file=sys.stderr)
        return 1

    bench = doc.get("bench")
    checker = CHECKERS.get(bench)
    if checker is None:
        problem(f"unknown bench kind {bench!r} (expected one of "
                f"{sorted(CHECKERS)})")
    else:
        checker(doc)

    if PROBLEMS:
        for entry in PROBLEMS:
            print(f"check_bench_artifact: {path.name}: {entry}")
        print(f"check_bench_artifact: {path.name}: {len(PROBLEMS)} problem(s)",
              file=sys.stderr)
        PROBLEMS.clear()
        return 1
    print(f"check_bench_artifact: {path.name} OK")
    return 0


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    if len(sys.argv) > 1:
        paths = [Path(arg) for arg in sys.argv[1:]]
    else:
        paths = [root / "BENCH_udp_throughput.json", root / "BENCH_loadgen.json",
                 root / "BENCH_mapmaker.json", root / "AUDIT_memory_orders.json"]
    status = 0
    for path in paths:
        status = max(status, check_file(path))
    return status


if __name__ == "__main__":
    sys.exit(main())
