#!/usr/bin/env python3
"""Compare two BENCH_*.json reports and fail on regressions.

Usage:
    scripts/bench_compare.py BASELINE.json CANDIDATE.json [options]

Both files must be makalu.bench.v1 documents produced by running a bench
with --json (see EXPERIMENTS.md). The tool diffs the metrics sections and
exits non-zero when any metric moved by more than the threshold, which
makes it usable as a CI gate:

    build/bench/bench_sec43_flood_efficiency --json new.json
    scripts/bench_compare.py baseline.json new.json --threshold 0.05

What is compared
  * counters and gauges: relative change |new - old| / max(|old|, eps).
  * histograms: relative change of `count` and of the mean (sum/count);
    per-bucket counts are reported in --verbose mode but never gate.
  * timings: wall_ms, per-phase timings, and every metric whose name
    says it measures time (see is_timing: q/s, speedups, *_per_sec,
    *_wall_*, and *_ms / *_us / *_s values) are reported, but only gate
    with --include-timings (wall clock is noisy across runs and
    machines; the deterministic metrics are the reliable signal). The
    rule goes by name only, so a virtual-time value such as
    proto.converged_ms is treated as a timing too.

A metric present on one side only is a structural change and always
fails (unless --allow-missing). Comparing reports from different benches
is almost certainly a mistake and fails immediately.

Absolute floors/ceilings (--require) gate the candidate alone, so wins
measured *inside* one run can be locked in against regression without a
stored baseline. The arena/batching speedup gauges use this:

    scripts/bench_compare.py base.json new.json \
        --require 'micro_flood.speedup>=5' \
        --require 'micro_abf.speedup>=1.5'

fails whenever the candidate's gauge drops below the floor (or rises
above a '<=' ceiling), whatever the baseline said. --require gates
timing metrics too, with or without --include-timings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

SCHEMA = "makalu.bench.v1"
EPS = 1e-12


def load_report(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read {path}: {exc}")
    if doc.get("schema") != SCHEMA:
        sys.exit(
            f"error: {path}: schema {doc.get('schema')!r}, expected {SCHEMA!r}"
        )
    return doc


# Name tokens (split on '.' and '_') that mark a metric as derived from
# wall-clock time: rates, speedups, and time units.
TIMING_TOKENS = frozenset({"qps", "speedup", "wall", "sec", "ms", "us", "s"})


def is_timing(name: str) -> bool:
    """True if metric `name` is a wall-clock measurement by its name."""
    return not TIMING_TOKENS.isdisjoint(name.replace(".", "_").split("_"))


def rel_change(old: float, new: float) -> float:
    if math.isclose(old, new, rel_tol=1e-9, abs_tol=EPS):
        return 0.0
    return abs(new - old) / max(abs(old), EPS)


def scalar_value(metric: dict) -> float | None:
    if metric.get("kind") in ("counter", "gauge"):
        return float(metric["value"])
    return None


def compare_metrics(base: dict, cand: dict, args) -> list[str]:
    """Returns the list of human-readable regression lines."""
    regressions: list[str] = []
    names = sorted(set(base) | set(cand))
    for name in names:
        if name not in base or name not in cand:
            side = "candidate" if name not in cand else "baseline"
            line = f"metric {name!r} missing from {side}"
            if args.allow_missing:
                if args.verbose:
                    print(f"  note: {line}")
            else:
                regressions.append(line)
            continue
        b, c = base[name], cand[name]
        gated = args.include_timings or not is_timing(name)
        note = "" if gated else " [timing, not gated]"
        if b.get("kind") != c.get("kind"):
            regressions.append(
                f"metric {name!r} changed kind: "
                f"{b.get('kind')} -> {c.get('kind')}"
            )
            continue
        if b.get("kind") == "histogram":
            pairs = [("count", b["count"], c["count"])]
            b_mean = b["sum"] / b["count"] if b["count"] else 0.0
            c_mean = c["sum"] / c["count"] if c["count"] else 0.0
            pairs.append(("mean", b_mean, c_mean))
            for label, old, new in pairs:
                change = rel_change(old, new)
                if args.verbose or change > args.threshold:
                    print(
                        f"  {name}.{label}: {old:g} -> {new:g} "
                        f"({change * 100.0:+.1f}%){note}"
                    )
                if gated and change > args.threshold:
                    regressions.append(
                        f"{name}.{label}: {old:g} -> {new:g} "
                        f"exceeds {args.threshold * 100.0:.1f}%"
                    )
        else:
            old, new = scalar_value(b), scalar_value(c)
            if old is None or new is None:
                regressions.append(f"metric {name!r} has unknown kind")
                continue
            change = rel_change(old, new)
            if args.verbose or change > args.threshold:
                print(f"  {name}: {old:g} -> {new:g} "
                      f"({change * 100.0:+.1f}%){note}")
            if gated and change > args.threshold:
                regressions.append(
                    f"{name}: {old:g} -> {new:g} "
                    f"exceeds {args.threshold * 100.0:.1f}%"
                )
    return regressions


def parse_requirement(spec: str, flag: str = "--require"
                      ) -> tuple[str, str, float]:
    """Splits 'name>=value' / 'name<=value' into (name, op, value)."""
    for op in (">=", "<="):
        if op in spec:
            name, _, raw = spec.partition(op)
            try:
                return name.strip(), op, float(raw)
            except ValueError:
                break
    sys.exit(f"error: bad {flag} {spec!r} (expected NAME>=VALUE "
             "or NAME<=VALUE)")


def parse_ceiling(spec: str) -> tuple[str, str, float]:
    """--require-max: 'name<=value' (the memory-ceiling gate). A bare
    'name=value' is accepted as shorthand for '<='; '>=' is rejected —
    floors belong to --require."""
    if ">=" in spec:
        sys.exit(f"error: --require-max {spec!r} is a ceiling gate; "
                 "use --require for NAME>=VALUE floors")
    if "<=" not in spec and "=" in spec:
        name, _, raw = spec.partition("=")
        spec = f"{name}<={raw}"
    return parse_requirement(spec, flag="--require-max")


def check_requirements(cand: dict,
                       specs: list[tuple[str, tuple[str, str, float]]],
                       verbose: bool) -> list[str]:
    """Absolute gates on candidate counters/gauges, baseline-independent."""
    failures: list[str] = []
    for spec, (name, op, bound) in specs:
        metric = cand.get(name)
        value = scalar_value(metric) if isinstance(metric, dict) else None
        if value is None:
            failures.append(
                f"{spec}: metric {name!r} missing from "
                "candidate (or not a counter/gauge)"
            )
            continue
        ok = value >= bound if op == ">=" else value <= bound
        if verbose or not ok:
            print(f"  require {name} {op} {bound:g}: measured {value:g} "
                  f"[{'ok' if ok else 'FAIL'}]")
        if not ok:
            failures.append(
                f"{spec}: measured {value:g}"
            )
    return failures


def compare_timings(base: dict, cand: dict, args) -> list[str]:
    regressions: list[str] = []
    entries = [("wall_ms", base.get("wall_ms", 0.0), cand.get("wall_ms", 0.0))]
    base_phases = {p["name"]: p["ms"] for p in base.get("phases", [])}
    cand_phases = {p["name"]: p["ms"] for p in cand.get("phases", [])}
    for name in sorted(set(base_phases) | set(cand_phases)):
        entries.append(
            (f"phase[{name}]", base_phases.get(name, 0.0),
             cand_phases.get(name, 0.0))
        )
    for label, old, new in entries:
        change = rel_change(old, new)
        if args.verbose:
            print(f"  {label}: {old:.1f}ms -> {new:.1f}ms "
                  f"({change * 100.0:+.1f}%)")
        if args.include_timings and change > args.threshold:
            regressions.append(
                f"{label}: {old:.1f}ms -> {new:.1f}ms "
                f"exceeds {args.threshold * 100.0:.1f}%"
            )
    return regressions


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("candidate", help="candidate BENCH_*.json")
    parser.add_argument(
        "--threshold", type=float, default=0.10,
        help="max allowed relative change per metric (default 0.10 = 10%%)",
    )
    parser.add_argument(
        "--include-timings", action="store_true",
        help="also gate on wall_ms, phase timings and timing metrics "
             "(noisy across runs and machines)",
    )
    parser.add_argument(
        "--allow-missing", action="store_true",
        help="metrics present on only one side warn instead of failing",
    )
    parser.add_argument(
        "--require", action="append", default=[], metavar="NAME>=VALUE",
        help="absolute floor (>=) or ceiling (<=) on a candidate counter/"
             "gauge; repeatable; fails independent of the baseline",
    )
    parser.add_argument(
        "--require-max", action="append", default=[], metavar="NAME<=VALUE",
        help="absolute ceiling on a candidate counter/gauge (memory gate: "
             "e.g. 'scale.bytes_per_node<=64' or 'peak_rss_mb<=16384'); "
             "repeatable; rejects '>=' specs",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="print every compared value, not just regressions",
    )
    args = parser.parse_args()

    base = load_report(args.baseline)
    cand = load_report(args.candidate)
    if base.get("bench") != cand.get("bench"):
        sys.exit(
            f"error: comparing different benches: "
            f"{base.get('bench')!r} vs {cand.get('bench')!r}"
        )
    for key in ("n", "runs", "queries", "seed"):
        if base.get("config", {}).get(key) != cand.get("config", {}).get(key):
            print(
                f"warning: config.{key} differs "
                f"({base.get('config', {}).get(key)} vs "
                f"{cand.get('config', {}).get(key)}) — "
                "metric deltas reflect the config change, not a regression"
            )

    print(f"bench: {base['bench']}  threshold: {args.threshold * 100.0:.1f}%")
    regressions = compare_metrics(
        base.get("metrics", {}), cand.get("metrics", {}), args
    )
    regressions += compare_timings(base, cand, args)
    gates = [(f"--require {spec!r}", parse_requirement(spec))
             for spec in args.require]
    gates += [(f"--require-max {spec!r}", parse_ceiling(spec))
              for spec in args.require_max]
    regressions += check_requirements(
        cand.get("metrics", {}), gates, args.verbose
    )

    if regressions:
        print(f"\nFAIL: {len(regressions)} regression(s):")
        for line in regressions:
            print(f"  - {line}")
        return 1
    print("OK: no metric moved beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
