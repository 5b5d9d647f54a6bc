#!/usr/bin/env bash
# Sanitizer job: build the library + tests under a sanitizer configuration
# and run ctest. Used locally and as the CI sanitize step.
#
#   scripts/sanitize.sh [asan|tsan] [extra cmake args...]
#
# asan (default): ASan+UBSan over the full suite — memory errors, UB,
#                 leaks.
# tsan:           ThreadSanitizer over the concurrency-heavy tests
#                 (thread pool, deterministic parallel sweeps, per-slot
#                 scratch engines) — data races in the parallel
#                 maintenance path. TSan and ASan cannot be combined in
#                 one binary, hence the separate mode and build tree.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=asan
if [[ $# -gt 0 && ( "$1" == "asan" || "$1" == "tsan" ) ]]; then
  MODE=$1
  shift
fi

if [[ "${MODE}" == "tsan" ]]; then
  BUILD_DIR=${BUILD_DIR:-build-tsan}
  SANITIZERS=${SANITIZERS:-thread}
  # The races TSan can find live in the threaded code paths; default to
  # the tests that exercise them so the job stays fast. Fault and proto
  # tests ride along: the fault-injected churn runs drive the parallel
  # maintenance sweeps, and the timer/retry/keepalive machinery must stay
  # clean under the threaded build. Obs covers the sharded metrics
  # registry, whose whole design claim is "no cross-thread writes in the
  # hot path" — TSan is the referee for that claim. Override with
  # TSAN_TEST_FILTER='.*' for a full-suite run.
  # Batched covers the shared-frontier batched driver/differential tests
  # (BatchedDriverDifferential runs the 64-wide kernel under 2/8-thread
  # pools; the arena match kernels ride along in the same binary).
  # TableDifferential runs the blocked/pooled ABF routers under 2/8-thread
  # driver pools; the counting-maintenance suites ride in the same binary.
  # CrashSchedule and SimulatorWire cover the simulator's crash oracle
  # and its codec + hub + shim wire.
  # The live-transport stack (Codec framing, TimerWheel, Loopback hub,
  # UdpTransport poll loop, FaultShim, Cluster harness incl. the spawned
  # TSan-built makalu_node processes) is single-threaded by design but
  # signal- and poll-driven; keeping it in the TSan job guards the
  # "no hidden threads" claim as the net/ layer grows.
  # Workload/Arrival/Catalog/Saturation cover the open-loop engine: the
  # thread-count-invariance suites drive ParallelQueryDriver at 2/8
  # threads through the workload admission path. OverlayGolden runs the
  # sharded build on a 4-thread pool and churn with pooled sweeps.
  TSAN_TEST_FILTER=${TSAN_TEST_FILTER:-'ThreadPool|Determinism|OverlayGolden|Parallel|Churn|Fault|CrashSchedule|SimulatorWire|SeenQuery|ProtoNetwork|Obs|Batched|BatchStamp|CompactGraph|Storage|Scale|TableDifferential|BlockedDelta|CountingAbf|Codec|TimerWheel|Loopback|UdpTransport|FaultShim|Cluster|Workload|Arrival|Catalog|Saturation'}
else
  BUILD_DIR=${BUILD_DIR:-build-sanitize}
  SANITIZERS=${SANITIZERS:-address,undefined}
fi

cmake -B "${BUILD_DIR}" -S . \
  -DMAKALU_SANITIZE="${SANITIZERS}" \
  -DMAKALU_BUILD_BENCH=OFF \
  -DMAKALU_BUILD_EXAMPLES=OFF \
  "$@"
cmake --build "${BUILD_DIR}" -j "$(nproc)"

# halt_on_error makes sanitizer findings fail the job instead of just
# logging.
if [[ "${MODE}" == "tsan" ]]; then
  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" \
    -R "${TSAN_TEST_FILTER}"
else
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
  export ASAN_OPTIONS="detect_leaks=1"
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"
fi
