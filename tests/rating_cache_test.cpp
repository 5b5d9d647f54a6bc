// Differential property tests for the rating context overlay maintenance
// carries (CachedRatingEngine).
//
// The context's serial engine lives for a whole churn run: its timestamped
// scratch is reused across every sweep while the graph mutates and grows
// underneath it. Its contract is "bitwise indistinguishable from a fresh
// engine". These tests drive random mutation sequences (edge adds, edge
// removals, node arrivals) over mixed topologies and, after EVERY step,
// compare the long-lived engine's answer for EVERY node against a fresh
// RatingEngine: per-neighbor scores and components, boundary sizes, and
// eviction candidates, with exact double equality, in both
// ProximityScaling modes. Across the suite the sequences total 10k
// mutations.
#include <cstdint>

#include <gtest/gtest.h>

#include "core/rating.hpp"
#include "core/rating_cache.hpp"
#include "graph/graph.hpp"
#include "net/latency_model.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace makalu {
namespace {

// Every observable of the carried engine must match a from-scratch
// evaluation, exactly: stale scratch must never leak into a rating.
void expect_engine_matches_fresh(CachedRatingEngine& context, const Graph& g,
                                 const LatencyModel& latency,
                                 const RatingWeights& weights,
                                 std::size_t step) {
  RatingEngine fresh(g, latency, weights);
  NodeRatings expected;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    fresh.rate_node(u, expected);
    const NodeRatings& got = context.engine().rate_node(u);
    ASSERT_EQ(got.ratings.size(), expected.ratings.size())
        << "step " << step << " node " << u;
    for (std::size_t i = 0; i < expected.ratings.size(); ++i) {
      const NeighborRating& e = expected.ratings[i];
      const NeighborRating& a = got.ratings[i];
      ASSERT_EQ(a.neighbor, e.neighbor) << "step " << step << " node " << u;
      ASSERT_EQ(a.score, e.score)
          << "step " << step << " node " << u << " neighbor " << e.neighbor;
      ASSERT_EQ(a.connectivity, e.connectivity)
          << "step " << step << " node " << u << " neighbor " << e.neighbor;
      ASSERT_EQ(a.proximity, e.proximity)
          << "step " << step << " node " << u << " neighbor " << e.neighbor;
      ASSERT_EQ(a.unique_reachable, e.unique_reachable)
          << "step " << step << " node " << u << " neighbor " << e.neighbor;
    }
    ASSERT_EQ(got.boundary, expected.boundary)
        << "step " << step << " node " << u;
    ASSERT_EQ(got.worst, expected.worst) << "step " << step << " node " << u;
    // Cross-check the independent boundary-only path on the same scratch.
    ASSERT_EQ(context.engine().boundary_size(u), fresh.boundary_size(u))
        << "step " << step << " node " << u;
  }
}

// Runs `steps` random mutations over `g`, validating after every one.
// When `grow` is set, a few steps add brand-new nodes (exercising the
// scratch's growth path) until the latency model's capacity is reached.
void run_differential(Graph g, const LatencyModel& latency,
                      const RatingWeights& weights, std::size_t steps,
                      std::uint64_t seed, bool grow = false) {
  CachedRatingEngine context(g, latency, weights);
  Rng rng(seed);
  expect_engine_matches_fresh(context, g, latency, weights, 0);
  for (std::size_t step = 1; step <= steps; ++step) {
    const bool can_grow = grow && g.node_count() < latency.node_count();
    if (can_grow && rng.chance(0.05)) {
      const NodeId fresh_id = g.add_node();
      const auto peer =
          static_cast<NodeId>(rng.uniform_below(g.node_count()));
      if (peer != fresh_id) g.add_edge(fresh_id, peer);
    } else if (g.edge_count() > 0 && rng.chance(0.4)) {
      // Remove a random incident edge of a random connected node.
      NodeId u;
      do {
        u = static_cast<NodeId>(rng.uniform_below(g.node_count()));
      } while (g.degree(u) == 0);
      const auto nbrs = g.neighbors(u);
      g.remove_edge(u, nbrs[rng.uniform_below(nbrs.size())]);
    } else {
      // Random add; self/duplicate picks are no-op mutations and still a
      // valid (if trivial) differential step.
      const auto u = static_cast<NodeId>(rng.uniform_below(g.node_count()));
      const auto v = static_cast<NodeId>(rng.uniform_below(g.node_count()));
      if (u != v) g.add_edge(u, v);
    }
    expect_engine_matches_fresh(context, g, latency, weights, step);
  }
  // The scratch kept up with the grown graph: marks and counts for every
  // node, and that is what the footprint reports.
  EXPECT_GE(context.memory_footprint(),
            2 * g.node_count() * sizeof(std::uint32_t));
}

Graph random_graph(std::size_t n, std::size_t extra_edges,
                   std::uint64_t seed) {
  Graph g = testing::make_cycle(n);  // connected backbone
  Rng rng(seed);
  for (std::size_t i = 0; i < extra_edges; ++i) {
    const auto u = static_cast<NodeId>(rng.uniform_below(n));
    const auto v = static_cast<NodeId>(rng.uniform_below(n));
    if (u != v) g.add_edge(u, v);
  }
  return g;
}

RatingWeights weights_for(ProximityScaling scaling) {
  RatingWeights w;
  w.scaling = scaling;
  return w;
}

class RatingCacheDifferential
    : public ::testing::TestWithParam<ProximityScaling> {};

TEST_P(RatingCacheDifferential, RandomGraphMutations) {
  const EuclideanModel latency(48, 101);
  run_differential(random_graph(48, 100, 7), latency,
                   weights_for(GetParam()), 2000, 11);
}

TEST_P(RatingCacheDifferential, SparseCycleWithChords) {
  const EuclideanModel latency(40, 103);
  run_differential(random_graph(40, 12, 9), latency,
                   weights_for(GetParam()), 1500, 13);
}

TEST_P(RatingCacheDifferential, BarbellCommunities) {
  const EuclideanModel latency(24, 107);
  run_differential(testing::make_barbell(12), latency,
                   weights_for(GetParam()), 1000, 17);
}

TEST_P(RatingCacheDifferential, GrowingNetwork) {
  // Start well below the latency model's capacity and let ~5% of steps
  // add nodes: exercises scratch growth mid-sequence.
  const EuclideanModel latency(64, 109);
  run_differential(random_graph(24, 30, 19), latency,
                   weights_for(GetParam()), 500, 23,
                   /*grow=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    BothScalings, RatingCacheDifferential,
    ::testing::Values(ProximityScaling::kNormalized,
                      ProximityScaling::kPaperLiteral),
    [](const ::testing::TestParamInfo<ProximityScaling>& param_info) {
      return param_info.param == ProximityScaling::kNormalized
                 ? "Normalized"
                 : "PaperLiteral";
    });

// A worker's scratch engine (the parallel sweep path) produces the same
// bits as the context's serial engine, weights included.
TEST(RatingCache, ScratchRecomputeMatchesSerial) {
  const std::size_t n = 60;
  const EuclideanModel latency(n, 127);
  Graph g = random_graph(n, 150, 29);
  RatingWeights weights;
  weights.alpha = 2.0;
  weights.scaling = ProximityScaling::kPaperLiteral;
  CachedRatingEngine context(g, latency, weights);
  RatingEngine scratch = context.make_scratch();
  EXPECT_EQ(scratch.weights().alpha, weights.alpha);
  EXPECT_EQ(scratch.weights().scaling, weights.scaling);
  NodeRatings a;
  for (NodeId u = 0; u < n; ++u) {
    scratch.rate_node(u, a);
    const NodeRatings& b = context.engine().rate_node(u);
    ASSERT_EQ(a.ratings.size(), b.ratings.size());
    for (std::size_t i = 0; i < a.ratings.size(); ++i) {
      ASSERT_EQ(a.ratings[i].score, b.ratings[i].score);
    }
    ASSERT_EQ(a.boundary, b.boundary);
    ASSERT_EQ(a.worst, b.worst);
  }
}

}  // namespace
}  // namespace makalu
