// Process memory introspection for the observability layer.
//
// The scale benches' acceptance criteria are memory ceilings ("a 1M-node
// overlay in < 16 GB RSS", "≤ 100 bytes/node"), so memory must be a
// first-class measured quantity, not a claim: BenchRun samples peak RSS
// into every makalu.bench.v1 JSON it writes, and bench_scale divides
// structure footprints (Graph::memory_footprint) into bytes/node gauges
// that bench_compare.py gates with --require-max.
//
// Linux: parsed from /proc/self/status (VmRSS/VmHWM), with a
// getrusage(RUSAGE_SELF) fallback for the peak. Both return 0 when the
// platform offers neither — callers treat 0 as "unavailable" and skip the
// gauge rather than emit a lie.
#pragma once

#include <cstddef>

namespace makalu::obs {

/// Current resident set size in bytes (0 if unavailable).
[[nodiscard]] std::size_t current_rss_bytes();

/// Peak (high-water) resident set size in bytes (0 if unavailable).
[[nodiscard]] std::size_t peak_rss_bytes();

}  // namespace makalu::obs
