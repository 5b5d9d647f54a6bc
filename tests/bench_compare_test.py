#!/usr/bin/env python3
"""Checks scripts/bench_compare.py on tiny makalu.bench.v1 reports:
  * a metric present on one side only names the side that lacks it;
  * a changed deterministic counter fails the compare;
  * a changed wall-clock gauge (q/s) is reported but passes, unless
    --include-timings is given; --require still gates it.
Run: python3 tests/bench_compare_test.py
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "scripts", "bench_compare.py")


def write_report(path: str, metrics: dict) -> None:
    """`metrics` maps a name to (kind, value)."""
    doc = {"schema": "makalu.bench.v1", "bench": "compare_test",
           "config": {"n": 1, "runs": 1, "queries": 1, "seed": 1},
           "metrics": {name: {"kind": kind, "value": value}
                       for name, (kind, value) in metrics.items()}}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def compare(base: str, cand: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, SCRIPT, base, cand, *flags],
                          capture_output=True, text=True, check=False)


def expect(run: subprocess.CompletedProcess, code: int, want: list[str],
           what: str) -> bool:
    if run.returncode == code and all(w in run.stdout for w in want):
        return True
    print(f"FAIL ({what}): expected exit {code} and {want}\n"
          f"{run.stdout}{run.stderr}")
    return False


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        old, new = os.path.join(tmp, "old.json"), os.path.join(tmp, "new.json")
        gauge = ("gauge", 1.0)
        write_report(old, {"shared": gauge, "retired": gauge})
        write_report(new, {"shared": gauge, "added": gauge})
        for base, cand, missing_from in ((old, new, ("candidate", "baseline")),
                                         (new, old, ("baseline", "candidate"))):
            ok &= expect(compare(base, cand), 1,
                         [f"metric 'retired' missing from {missing_from[0]}",
                          f"metric 'added' missing from {missing_from[1]}"],
                         "missing metric")

        write_report(old, {"driver.messages": ("counter", 100),
                           "abf_match.qps": ("gauge", 1000.0)})
        write_report(new, {"driver.messages": ("counter", 150),
                           "abf_match.qps": ("gauge", 1000.0)})
        ok &= expect(compare(old, new), 1, ["driver.messages: 100 -> 150"],
                     "changed deterministic counter")

        write_report(new, {"driver.messages": ("counter", 100),
                           "abf_match.qps": ("gauge", 1900.0)})
        ok &= expect(compare(old, new), 0,
                     ["abf_match.qps: 1000 -> 1900", "OK"],
                     "changed q/s gauge without --include-timings")
        ok &= expect(compare(old, new, "--include-timings"), 1,
                     ["abf_match.qps: 1000 -> 1900 exceeds"],
                     "changed q/s gauge with --include-timings")
        ok &= expect(compare(old, new, "--require", "abf_match.qps>=2000"), 1,
                     ["abf_match.qps>=2000"],
                     "--require floor on a q/s gauge")
    if not ok:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
