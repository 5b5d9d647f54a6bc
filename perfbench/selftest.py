#!/usr/bin/env python3
"""Tiny-size self-test of every workload, correctness checks on.

    python3 perfbench/selftest.py

Runs each workload of BENCHMARK.json at self-test sizes through
perfbench/run.py, untraced and traced, on the default seed (whose
deterministic outputs are checked against perfbench/golden.json) and on
the hold-out seed (invariants only). Takes well under a minute once the
build exists. Exit status 0 only if every run is correct.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    golden = json.load(open(os.path.join(HERE, "golden.json")))
    failures = 0
    for w in (w["name"] for w in spec["workloads"]):
        for seed in (golden["default_seed"], golden["holdout_seed"]):
            for trace in (0, 1):
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", w, "--seed", str(seed), "--seconds",
                       str(spec["run_seconds"]), "--trace", str(trace),
                       "--tiny"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else {}
                want = spec["per_layer"] if trace else spec["end_to_end"]
                good = (proc.returncode == 0 and result.get("correct") is True
                        and set(result.get("metrics", {})) ==
                        {m["name"] for m in want})
                print(f"{'ok  ' if good else 'FAIL'} {w} seed {seed} "
                      f"trace {trace}", flush=True)
                if not good:
                    failures += 1
                    sys.stdout.write(proc.stdout[-3000:] + proc.stderr[-2000:])
    print(f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
