// The Makalu peer rating function (paper §2.1) — the heart of the system.
//
// Node u rates each neighbor v with the utility
//
//   F(u,v) = alpha * |R(u,v)| / |∂Γ(u)|  +  beta * d_max / d(u,v)
//
// where
//   Γ(u)    = u's neighborhood (direct neighbors),
//   ∂Γ(u)   = node boundary of Γ(u): the union of the neighborhoods of
//             u's neighbors, minus Γ(u) itself (and minus u),
//   R(u,v)  = unique reachable set: members of Γ(v) reachable from u
//             through v and through *no other* neighbor of u,
//   d(u,v)  = link latency, d_max = max latency among u's neighbors.
//
// The connectivity term rewards neighbors that contribute nodes nobody
// else provides (expansion); the proximity term rewards low latency.
// Everything is computable from information local to u: each neighbor's
// adjacency list (peers exchange routing tables on connect) and measured
// link latencies.
//
// RatingEngine evaluates F against a Graph + LatencyModel. It keeps
// timestamped scratch arrays sized to the node count, so repeated calls
// allocate nothing and cost O(sum of neighbor degrees).
//
// This is the one rating path: every overlay-management decision (join,
// maintenance round, deterministic sweep) rates through rate_node on the
// graph as it is at that moment. Nothing is memoised between calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "net/latency_model.hpp"

namespace makalu {

/// How the proximity ratio is scaled before weighting.
///
/// The paper's literal formula uses d_max/d(u,v), which is unbounded above
/// (a single very-near neighbor can score orders of magnitude higher than
/// the connectivity term's [0,1] range, collapsing the overlay into
/// latency clusters). kNormalized instead uses d_min/d(u,v) ∈ (0,1] — the
/// same per-node ordering of neighbors by proximity (the two differ by the
/// per-node constant d_min/d_max), but commensurate with the connectivity
/// ratio so that alpha = beta = 1 weights the two criteria equally, as the
/// paper intends ("equal weight to both connectivity and proximity").
/// kNormalized is the default and is what reproduces the paper's spectra.
enum class ProximityScaling {
  kNormalized,    ///< d_min / d(u,v) in (0, 1]
  kPaperLiteral,  ///< d_max / d(u,v) in [1, inf)
};

struct RatingWeights {
  double alpha = 1.0;  ///< connectivity weight
  double beta = 1.0;   ///< proximity weight
  ProximityScaling scaling = ProximityScaling::kNormalized;
};

struct NeighborRating {
  NodeId neighbor = kInvalidNode;
  std::uint32_t unique_reachable = 0;  ///< |R(u,v)| (fits: < node count)
  double score = 0.0;         ///< F(u, v)
  double connectivity = 0.0;  ///< |R(u,v)| / |∂Γ(u)|
  double proximity = 0.0;     ///< d_max / d(u,v)
};
static_assert(sizeof(NeighborRating) == 32,
              "packed: half a cache line per rated neighbor");

/// Everything one node's management step needs, produced in a single pass:
/// the per-neighbor ratings (in adjacency order), the boundary size, and
/// the eviction candidate.
struct NodeRatings {
  std::vector<NeighborRating> ratings;
  std::size_t boundary = 0;       ///< |∂Γ(u)|
  NodeId worst = kInvalidNode;    ///< lowest score, ties to smaller id
};

class RatingEngine {
 public:
  /// The engine holds references; graph and model must outlive it. The
  /// graph may mutate between calls (that is the whole point — ratings are
  /// recomputed as the overlay evolves).
  RatingEngine(const Graph& graph, const LatencyModel& latency,
               RatingWeights weights = {});

  /// Ratings for every current neighbor of u, unsorted. Empty if u has no
  /// neighbors.
  [[nodiscard]] std::vector<NeighborRating> rate_neighbors(NodeId u);

  /// Single-pass combined evaluation: fills `out` with ratings, boundary
  /// size, and the worst neighbor, reusing `out`'s capacity. Exactly the
  /// same arithmetic as rate_neighbors/boundary_size/worst_neighbor (the
  /// convenience accessors are implemented on top of it), so results are
  /// bitwise identical.
  void rate_node(NodeId u, NodeRatings& out);

  /// rate_node into an engine-owned scratch: the reference stays valid
  /// until the next rate_node/rate_neighbors call on this engine. Overlay
  /// management rates through this, so pruning allocates nothing (each
  /// worker's scratch engine brings its own buffer).
  const NodeRatings& rate_node(NodeId u) {
    rate_node(u, scratch_ratings_);
    return scratch_ratings_;
  }

  /// Convenience: the current lowest-rated neighbor of u (ties broken by
  /// smaller id for determinism); kInvalidNode if u is isolated.
  [[nodiscard]] NodeId worst_neighbor(NodeId u);

  /// Size of the node boundary ∂Γ(u) (0 for isolated u). Exposed for
  /// analysis and tests.
  [[nodiscard]] std::size_t boundary_size(NodeId u);

  [[nodiscard]] const RatingWeights& weights() const noexcept {
    return weights_;
  }

  /// Bytes held by the reusable scratch: the per-node marks and counts
  /// (allocated on first use) and the rate_node(u) buffer.
  [[nodiscard]] std::size_t memory_footprint() const noexcept {
    return (mark_epoch_.capacity() + seen_count_.capacity()) *
               sizeof(std::uint32_t) +
           scratch_ratings_.ratings.capacity() * sizeof(NeighborRating);
  }

 private:
  void prepare_marks(NodeId u);

  const Graph& graph_;
  const LatencyModel& latency_;
  RatingWeights weights_;

  // Timestamped scratch: marks_[x] == stamp_ means "x seen this round".
  // counts_[x] = number of u's neighbors whose neighborhood contains x.
  std::vector<std::uint32_t> mark_epoch_;
  std::vector<std::uint32_t> seen_count_;
  std::uint32_t stamp_ = 0;
  NodeRatings scratch_ratings_;  // backing for rate_node(u)
};

}  // namespace makalu
