#!/usr/bin/env python3
"""Builds and runs one perfbench workload; prints its result as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload abf-zipf-openloop --seed 42 \
        --seconds 20 --trace 0

The first run configures and builds the library sources and the driver
into .bench_build/ (CMake, RelWithDebInfo). Each run then:

  1. records the host probe (host.ref_cpu_ms, host.ref_mem_ms);
  2. runs the workload in its own process with one service thread;
  3. records the host probe again;
  4. checks the deterministic outputs against perfbench/golden.json when
     the seed and run length are the recorded ones;
  5. prints the host and build block, then, as the last line, one JSON
     object with "correct", "attempted", "failed" and "metrics".

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports its per-layer metrics (from a separate traced run). Exit status
is 0 only when every correctness check passed.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("abf-zipf-openloop", "flood-makalu-churn", "proto-lossy-loopback")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool bring the binary up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def host_probe():
    out = subprocess.run([BINARY, "--host-probe"], capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def read_first(path, default="unknown"):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cache_size(level):
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            d = os.path.join(base, entry)
            if read_first(os.path.join(d, "level")) == str(level) and \
                    read_first(os.path.join(d, "type")) in ("Unified", "Data"):
                return read_first(os.path.join(d, "size"))
    except OSError:
        pass
    return "unknown"


def git_state():
    """Commit and dirty flag when the checkout is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return {"commit": "none (not a git checkout)", "dirty": None}
    run = lambda *a: subprocess.run(["git", "-C", ROOT, *a], capture_output=True,
                                    text=True).stdout.strip()
    return {"commit": run("rev-parse", "HEAD") or "unknown",
            "dirty": bool(run("status", "--porcelain", "--untracked-files=no"))}


def source_digest():
    """sha256 over the library and benchmark sources: names the measured code
    even where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def load_json(path):
    with open(path) as f:
        return json.load(f)


def golden_failures(result, args):
    """Deterministic outputs must equal the values recorded for this
    (workload, seed, seconds, size)."""
    golden = load_json(os.path.join(HERE, "golden.json"))
    key = "tiny" if args.tiny else "full"
    if args.seed != golden["default_seed"] or \
            (not args.tiny and args.seconds != golden["seconds"]):
        return [], False
    want = golden["values"][key].get(args.workload)
    if want is None:
        return [], False
    got = result["exact"]
    bad = [f"{name}: got {got.get(name)!r}, recorded {value!r}"
           for name, value in want.items() if got.get(name) != value]
    return bad, True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes (seconds per workload)")
    p.add_argument("--print-exact", action="store_true",
                   help="print the deterministic outputs as JSON (for "
                        "recording golden.json)")
    args = p.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if not build():
        log("perfbench: build failed")
        return 1

    probe_start = host_probe()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD_DIR, f"spans-{args.workload}-{args.seed}.json")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    result_lines = [l for l in lines if l.startswith("PERFBENCH ")]
    if not result_lines:
        log(f"perfbench: workload exited {proc.returncode} without a result")
        return 1
    result = json.loads(result_lines[-1][len("PERFBENCH "):])
    probe_end = host_probe()
    for line in lines:
        if not line.startswith("PERFBENCH "):
            print(line)

    failures = list(result["failures"])
    bad, checked = golden_failures(result, args)
    failures += ["recorded value mismatch: " + b for b in bad]
    if args.print_exact:
        print("exact: " + json.dumps(result["exact"], sort_keys=True))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, not_exercised = {}, []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                failures.append(f"metric {m['name']} missing")
                continue
            # A layer this workload bypasses did no work.
            not_exercised.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            failures.append(f"metric {m['name']} unit {got['unit']} != "
                            f"{m['unit']}")
        if got["value"] is None:
            failures.append(f"metric {m['name']} is not finite")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if not_exercised:
        print("  not exercised by this workload (reported as 0): " +
              ", ".join(not_exercised))

    host = {
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "l2": cache_size(2), "l3": cache_size(3),
        "build_type": result["build"]["type"],
        "compiler": result["build"]["compiler"],
        **git_state(), "source_digest": source_digest(),
        "service_threads": result["service_threads"], "seed": args.seed,
        "seconds": args.seconds, "workload": args.workload,
        "trace": bool(args.trace), "checks": result["checks"],
        "recorded_values_checked": checked,
        "host_probe_start": probe_start, "host_probe_end": probe_end,
    }
    print("host: " + json.dumps(host))
    for f in failures:
        print("  CHECK FAILED: " + f)
    correct = not failures and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
