// The rating context that overlay maintenance carries from sweep to sweep.
//
// Every management decision rates a node's neighbours through
// RatingEngine::rate_node (core/rating.hpp) on the current graph; nothing
// is memoised. A memo of per-node ratings cannot pay off here: overlay
// management only rates a node whose degree exceeds its capacity, a node
// only gets there by gaining an edge, and that edge changes the very
// neighbourhood the rating reads (DESIGN.md §13). What a sweep does need
// across calls is a context:
//  - the graph it manages, the latency model and the rating weights;
//  - engine(), one long-lived serial RatingEngine. The inline sweep rates
//    through it, so its O(n) timestamped scratch is allocated once per
//    run instead of once per sweep;
//  - make_scratch(), one more engine per worker slot of a pooled sweep.
//
// The context does not watch the graph: the graph may change freely
// between sweeps (departures, joins) because every rating reads the graph
// as it is at that moment.
//
// The class keeps its historical name because the perfbench flood
// workload constructs it; renaming it is queued for the next benchmark
// change (ROADMAP).
#pragma once

#include <cstddef>

#include "core/rating.hpp"
#include "graph/graph.hpp"
#include "net/latency_model.hpp"

namespace makalu {

class CachedRatingEngine {
 public:
  /// Holds references: graph and model must outlive the context.
  CachedRatingEngine(Graph& graph, const LatencyModel& latency,
                     RatingWeights weights = {})
      : graph_(graph), latency_(latency), engine_(graph, latency, weights) {}

  CachedRatingEngine(const CachedRatingEngine&) = delete;
  CachedRatingEngine& operator=(const CachedRatingEngine&) = delete;

  /// The serial engine. Single-threaded use only.
  [[nodiscard]] RatingEngine& engine() noexcept { return engine_; }

  /// A fresh engine over the same graph, latency and weights, for one
  /// worker slot of a parallel sweep.
  [[nodiscard]] RatingEngine make_scratch() const {
    return RatingEngine(graph_, latency_, engine_.weights());
  }

  /// True iff this context serves `g` — precondition checks.
  [[nodiscard]] bool observes(const Graph& g) const noexcept {
    return &graph_ == &g;
  }

  /// Bytes held by the serial engine's scratch.
  [[nodiscard]] std::size_t memory_footprint() const noexcept {
    return engine_.memory_footprint();
  }

 private:
  const Graph& graph_;
  const LatencyModel& latency_;
  RatingEngine engine_;
};

}  // namespace makalu
