#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of the same code.

    python3 perfbench/steadiness.py [--runs 4] [--seeds 1,2,3,4]
                                    [--workloads a,b] [--seconds 20]

Runs set A and set B alternately (A B A B ...), each run of every
workload through perfbench/run.py, with the i-th run of both sets on the
i-th seed. For each workload and end-to-end metric it prints each set's
median and quartiles, the set-to-set delta of the medians, the spread
(interquartile range over median, all runs) and the metric's bound from
BENCHMARK.json. The host probe is reported the same way, so host drift
shows as host drift rather than as a change in the code.

Exit status 1 when a delta or a spread exceeds its bound (setup_s
included, although the benchmark contract itself gates only the drift of
setup_s's median, not its spread), or when a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    host = next(json.loads(l[len("host: "):]) for l in lines
                if l.startswith("host: "))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for when in ("start", "end"):
        for k, v in host[f"host_probe_{when}"].items():
            values.setdefault(k, [])
            values[k].append(v)
    for k in ("host.ref_cpu_ms", "host.ref_mem_ms"):
        values[k] = statistics.mean(values[k])
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    p.add_argument("--runs", type=int, default=4, help="runs per set")
    p.add_argument("--seeds", default="",
                   help="comma-separated seeds (default 1..runs)")
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else \
        list(range(1, args.runs + 1))
    workloads = args.workloads.split(",")

    samples = {(w, s): [] for w in workloads for s in "AB"}
    ok = True
    for i, seed in enumerate(seeds):
        for label in "AB":
            for w in workloads:
                values = run_once(w, seed, args.seconds)
                print(f"run {i + 1}/{len(seeds)} set {label} {w} seed {seed}: "
                      f"{'ok' if values else 'FAILED'}", flush=True)
                if values is None:
                    ok = False
                    continue
                samples[(w, label)].append(values)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    metrics = list(bounds) + ["host.ref_cpu_ms", "host.ref_mem_ms"]
    print(f"\n{'workload':22s} {'metric':20s} {'A p25/med/p75':>30s} "
          f"{'B p25/med/p75':>30s} {'delta':>8s} {'spread':>7s} {'bound':>6s}")
    for w in workloads:
        for m in metrics:
            a = [v[m] for v in samples[(w, "A")]]
            b = [v[m] for v in samples[(w, "B")]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            delta = qb[1] / qa[1] - 1.0 if qa[1] else 0.0
            q = quartiles(a + b)
            spread = (q[2] - q[0]) / q[1] if q[1] else 0.0
            bound = bounds.get(m)
            verdict = ""
            if bound is not None:
                bad = abs(delta) > bound or spread > bound
                verdict = "FAIL" if bad else "ok"
                ok = ok and not bad
            fmt = lambda t: "/".join(f"{x:.4g}" for x in t)
            print(f"{w:22s} {m:20s} {fmt(qa):>30s} {fmt(qb):>30s} "
                  f"{delta:+8.3f} {spread:7.3f} "
                  f"{'' if bound is None else bound:>6} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
