#!/usr/bin/env python3
"""Validate a BENCH_*.json report against the makalu.bench.v1 schema.

Usage:
    scripts/check_bench_json.py BENCH_foo.json [BENCH_bar.json ...]

Used by the bench_smoke ctest label: every bench runs at a tiny --n with
--json, then this script asserts the emitted document carries the full
run-metadata contract. Exits non-zero (with one line per problem) on the
first malformed file. Intentionally dependency-free — stdlib json only.
"""

from __future__ import annotations

import json
import sys

SCHEMA = "makalu.bench.v1"
REQUIRED_TOP = ("schema", "bench", "git", "config", "host", "wall_ms",
                "phases", "metrics")
REQUIRED_CONFIG = ("n", "runs", "queries", "seed", "threads", "paper")
# The host block: which machine and build measured the timings, so gates
# stay same-host comparisons.
HOST_STRINGS = ("cpu_model", "build_type", "match_kernel")
HOST_COUNTS = ("nproc", "driver_threads")


def check_file(path: str) -> list[str]:
    problems: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot parse: {exc}"]

    for key in REQUIRED_TOP:
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    if problems:
        return problems

    if doc["schema"] != SCHEMA:
        problems.append(f"schema is {doc['schema']!r}, expected {SCHEMA!r}")
    if not isinstance(doc["bench"], str) or not doc["bench"]:
        problems.append("bench must be a non-empty string")
    if not isinstance(doc["git"], str) or not doc["git"]:
        problems.append("git must be a non-empty string")

    config = doc["config"]
    for key in REQUIRED_CONFIG:
        if key not in config:
            problems.append(f"missing config.{key}")
    if isinstance(config.get("n"), int) and config["n"] <= 0:
        problems.append("config.n must be positive")

    problems.extend(check_host(doc["host"]))

    if not isinstance(doc["wall_ms"], (int, float)) or doc["wall_ms"] < 0:
        problems.append("wall_ms must be a non-negative number")

    if not isinstance(doc["phases"], list):
        problems.append("phases must be a list")
    else:
        for i, phase in enumerate(doc["phases"]):
            if not isinstance(phase, dict) or "name" not in phase \
                    or "ms" not in phase:
                problems.append(f"phases[{i}] must have 'name' and 'ms'")

    metrics = doc["metrics"]
    if not isinstance(metrics, dict):
        problems.append("metrics must be an object")
        return problems
    for name, metric in metrics.items():
        kind = metric.get("kind")
        if kind in ("counter", "gauge"):
            if "value" not in metric:
                problems.append(f"metrics[{name!r}] missing 'value'")
            elif not _is_finite_number(metric["value"]):
                problems.append(
                    f"metrics[{name!r}] value {metric['value']!r} is not a "
                    f"finite number"
                )
        elif kind == "histogram":
            for key in ("count", "sum", "buckets"):
                if key not in metric:
                    problems.append(f"metrics[{name!r}] missing {key!r}")
            bucket_total = sum(
                b.get("count", 0) for b in metric.get("buckets", [])
            )
            if bucket_total != metric.get("count"):
                problems.append(
                    f"metrics[{name!r}] bucket counts sum to {bucket_total}, "
                    f"count says {metric.get('count')}"
                )
        else:
            problems.append(f"metrics[{name!r}] has unknown kind {kind!r}")
    problems.extend(check_workload_metrics(metrics))
    problems.extend(check_mem_metrics(metrics))
    return problems


def check_host(host) -> list[str]:
    if not isinstance(host, dict):
        return ["host must be an object"]
    problems: list[str] = []
    for key in HOST_STRINGS:
        if not isinstance(host.get(key), str) or not host[key]:
            problems.append(f"host.{key} must be a non-empty string")
    for key in HOST_COUNTS:
        value = host.get(key)
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < 0:
            problems.append(f"host.{key} must be a non-negative integer")
    if isinstance(host.get("nproc"), int) and host["nproc"] == 0:
        problems.append("host.nproc must be positive")
    return problems


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return value == value and value not in (float("inf"), float("-inf"))


# The workload.* namespace (bench_ext_workload and the open-loop engine)
# carries a typed contract on top of the generic schema: percentile
# gauges must be histogram-derived and monotone, the engine's two raw
# histograms must actually be histograms, and the headline saturation /
# wave gauges must be present as gauges whenever any of the namespace is,
# and so must the serving driver's resident state (mem.workspaces_mb).
WORKLOAD_HISTOGRAMS = ("workload.sojourn_ms", "workload.queue_depth")
WORKLOAD_GAUGES = (
    "workload.saturation_qps",
    "workload.p50_ms",
    "workload.p99_ms",
    "workload.p999_ms",
    "workload.abf_update_wave_us",
    "mem.workspaces_mb",
)


def check_workload_metrics(metrics: dict) -> list[str]:
    problems: list[str] = []
    if not any(name.startswith("workload.") for name in metrics):
        return problems
    for name in WORKLOAD_HISTOGRAMS:
        metric = metrics.get(name)
        if metric is not None and metric.get("kind") != "histogram":
            problems.append(f"metrics[{name!r}] must be a histogram")
    for name in WORKLOAD_GAUGES:
        metric = metrics.get(name)
        if metric is None:
            problems.append(f"workload.* namespace present but {name!r} "
                            f"is missing")
        elif metric.get("kind") != "gauge":
            problems.append(f"metrics[{name!r}] must be a gauge")
    # Percentile triples (workload.p50_ms / <profile>_p50_ms etc.) must
    # be monotone: p50 <= p99 <= p999.
    for name, metric in metrics.items():
        if not name.startswith("workload.") or not name.endswith("p50_ms"):
            continue
        prefix = name[: -len("p50_ms")]
        p50 = metric.get("value")
        p99 = metrics.get(f"{prefix}p99_ms", {}).get("value")
        p999 = metrics.get(f"{prefix}p999_ms", {}).get("value")
        for hi_name, lo, hi in ((f"{prefix}p99_ms", p50, p99),
                                (f"{prefix}p999_ms", p99, p999)):
            if (_is_finite_number(lo) and _is_finite_number(hi)
                    and hi < lo):
                problems.append(
                    f"metrics[{hi_name!r}] = {hi} is below its lower "
                    f"percentile {lo} (non-monotone percentiles)"
                )
    return problems


# Memory attribution gauges (mem.*): resident bytes of one component, in
# MB. Each must be a finite, non-negative gauge.
MEM_GAUGES = ("mem.workspaces_mb",)


def check_mem_metrics(metrics: dict) -> list[str]:
    problems: list[str] = []
    for name in MEM_GAUGES:
        metric = metrics.get(name)
        if metric is None:
            continue
        if metric.get("kind") != "gauge":
            problems.append(f"metrics[{name!r}] must be a gauge")
        elif _is_finite_number(metric.get("value")) and metric["value"] < 0:
            problems.append(f"metrics[{name!r}] must be non-negative")
    return problems


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    status = 0
    for path in sys.argv[1:]:
        problems = check_file(path)
        if problems:
            status = 1
            for line in problems:
                print(f"{path}: {line}")
        else:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
            print(f"{path}: ok ({doc['bench']}, {len(doc['metrics'])} metrics,"
                  f" {len(doc['phases'])} phases)")
    return status


if __name__ == "__main__":
    sys.exit(main())
