#!/usr/bin/env python3
"""Checks that scripts/bench_compare.py names the side that lacks a metric:
writes two tiny makalu.bench.v1 reports, each with a gauge the other lacks,
and compares them both ways. Run: python3 tests/bench_compare_test.py
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "scripts", "bench_compare.py")


def write_report(path: str, metrics: list[str]) -> None:
    doc = {"schema": "makalu.bench.v1", "bench": "compare_test",
           "config": {"n": 1, "runs": 1, "queries": 1, "seed": 1},
           "metrics": {name: {"kind": "gauge", "value": 1.0}
                       for name in metrics}}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        old, new = os.path.join(tmp, "old.json"), os.path.join(tmp, "new.json")
        write_report(old, ["shared", "retired"])
        write_report(new, ["shared", "added"])
        for base, cand, missing_from in ((old, new, ("candidate", "baseline")),
                                         (new, old, ("baseline", "candidate"))):
            run = subprocess.run([sys.executable, SCRIPT, base, cand],
                                 capture_output=True, text=True, check=False)
            want = [f"metric 'retired' missing from {missing_from[0]}",
                    f"metric 'added' missing from {missing_from[1]}"]
            if run.returncode != 1 or not all(w in run.stdout for w in want):
                print(f"FAIL: expected exit 1 and {want}\n{run.stdout}"
                      f"{run.stderr}")
                return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
