// Scheduled crash-stop failures for the simulators.
//
// A crashed node stops sending, receiving, and processing at its crash
// time and never recovers (the paper's §3.4 adversary, lifted from
// instantaneous snapshots into simulated time so crashes land
// mid-handshake and mid-query). proto::ProtocolNetwork consults the
// schedule as its crash oracle; simulate_churn turns each crash into a
// permanent ungraceful departure. Victims and times drawn by
// schedule_random_crashes come from the schedule's own seeded Rng, so
// every crashy run is reproducible, and an empty schedule (the default)
// changes nothing.
//
// Link faults (loss, jitter, reordering, duplication) are not part of
// this schedule: they are net::FaultShimOptions on the wire
// (net/fault_shim.hpp).
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace makalu {

/// One scheduled crash-stop failure.
struct CrashEvent {
  NodeId node = kInvalidNode;
  double time_ms = 0.0;
};

class CrashSchedule {
 public:
  /// Empty schedule: no crashes.
  CrashSchedule() = default;

  /// Empty schedule whose random crashes draw from `seed`.
  explicit CrashSchedule(std::uint64_t seed) : rng_(splitmix_seed(seed)) {}

  /// Schedules `node` to crash-stop at `time_ms`. The earliest scheduled
  /// time wins if a node is scheduled twice.
  void schedule_crash(NodeId node, double time_ms);

  /// Schedules ceil(fraction * node_count) distinct nodes to crash at
  /// times drawn uniformly from [window_begin_ms, window_end_ms).
  /// Node choice and times come from the schedule's Rng (deterministic).
  void schedule_random_crashes(std::size_t node_count, double fraction,
                               double window_begin_ms, double window_end_ms);

  [[nodiscard]] bool crashed(NodeId node, double now_ms) const {
    if (crash_time_.empty()) return false;
    const auto it = crash_time_.find(node);
    return it != crash_time_.end() && now_ms >= it->second;
  }
  /// Scheduled crash time, or +infinity if the node never crashes.
  [[nodiscard]] double crash_time(NodeId node) const {
    const auto it = crash_time_.find(node);
    return it != crash_time_.end()
               ? it->second
               : std::numeric_limits<double>::infinity();
  }
  [[nodiscard]] const std::vector<CrashEvent>& crashes() const noexcept {
    return crashes_;
  }

 private:
  static std::uint64_t splitmix_seed(std::uint64_t seed) {
    std::uint64_t s = seed;
    return splitmix64(s);
  }

  Rng rng_{0xfa017u};
  std::vector<CrashEvent> crashes_;
  std::unordered_map<NodeId, double> crash_time_;
};

}  // namespace makalu
