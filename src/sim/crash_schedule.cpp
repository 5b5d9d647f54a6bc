#include "sim/crash_schedule.hpp"

#include <algorithm>
#include <cmath>

#include "support/contracts.hpp"

namespace makalu {

void CrashSchedule::schedule_crash(NodeId node, double time_ms) {
  MAKALU_EXPECTS(node != kInvalidNode);
  MAKALU_EXPECTS(time_ms >= 0.0);
  const auto [it, inserted] = crash_time_.emplace(node, time_ms);
  if (!inserted) {
    it->second = std::min(it->second, time_ms);
    for (auto& crash : crashes_) {
      if (crash.node == node) crash.time_ms = it->second;
    }
    return;
  }
  crashes_.push_back({node, time_ms});
}

void CrashSchedule::schedule_random_crashes(std::size_t node_count,
                                            double fraction,
                                            double window_begin_ms,
                                            double window_end_ms) {
  MAKALU_EXPECTS(fraction >= 0.0 && fraction <= 1.0);
  MAKALU_EXPECTS(window_begin_ms >= 0.0 && window_end_ms >= window_begin_ms);
  const auto victims = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(node_count)));
  if (victims == 0) return;
  MAKALU_EXPECTS(victims <= node_count);
  // Partial Fisher-Yates over the id range: the first `victims` slots of
  // a seeded permutation, so victim choice is unbiased and deterministic.
  std::vector<NodeId> ids(node_count);
  for (NodeId v = 0; v < node_count; ++v) ids[v] = v;
  for (std::size_t i = 0; i < victims; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng_.uniform_below(node_count - i));
    std::swap(ids[i], ids[j]);
    schedule_crash(ids[i], rng_.uniform(window_begin_ms, window_end_ms));
  }
}

}  // namespace makalu
