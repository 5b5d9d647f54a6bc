// Contract and edge-case coverage: the library promises to catch misuse
// loudly (MAKALU_EXPECTS aborts, loaders throw). These tests pin the
// precondition surface so refactors cannot silently weaken it, plus a few
// boundary behaviours not covered elsewhere.
#include <cstdlib>

#include <gtest/gtest.h>

#include "bloom/bloom_filter.hpp"
#include "graph/graph.hpp"
#include "net/latency_model.hpp"
#include "core/overlay_builder.hpp"
#include "proto/node.hpp"
#include "support/event_queue.hpp"
#include "sim/replica_placement.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "test_util.hpp"

namespace makalu {
namespace {

TEST(Contracts, GraphOutOfRangeNodeAborts) {
  Graph g(3);
  EXPECT_DEATH((void)g.add_edge(0, 7), "precondition");
  EXPECT_DEATH((void)g.neighbors(9), "precondition");
  EXPECT_DEATH((void)g.degree(3), "precondition");
}

TEST(Contracts, CsrWeightsRequireWeightedGraph) {
  const CsrGraph csr = CsrGraph::from_graph(testing::make_path(3));
  EXPECT_DEATH((void)csr.weights(0), "precondition");
}

TEST(Contracts, BloomRejectsDegenerateParameters) {
  EXPECT_DEATH(BloomFilter({0, 4}), "precondition");
  EXPECT_DEATH(BloomFilter({64, 0}), "precondition");
  BloomFilter ok({64, 1});
  EXPECT_DEATH(ok.set_bit(64), "precondition");
}

TEST(Contracts, BloomMergeRequiresMatchingParameters) {
  BloomFilter a({128, 2});
  BloomFilter b({256, 2});
  EXPECT_DEATH(a.merge(b), "precondition");
}

TEST(Contracts, EventQueueRejectsPastAndNull) {
  EventQueue q;
  q.schedule(5.0, [] {});
  q.run();
  EXPECT_DEATH(q.schedule(1.0, [] {}), "precondition");  // now() == 5
  EXPECT_DEATH(q.schedule(10.0, nullptr), "precondition");
}

TEST(Contracts, CatalogBoundsChecked) {
  const ObjectCatalog catalog(10, 2, 0.1, 1);
  EXPECT_DEATH((void)catalog.holders(5), "precondition");
  EXPECT_DEATH((void)catalog.objects_on(99), "precondition");
  EXPECT_DEATH(ObjectCatalog(10, 1, 0.0, 1), "precondition");
  EXPECT_DEATH(ObjectCatalog(10, 1, 1.5, 1), "precondition");
}

TEST(Contracts, ProtocolNodeForbidsDuplicateAndSelfNeighbors) {
  proto::ProtocolNode node(0, 4, RatingWeights{});
  node.add_neighbor(1, 1.0, {});
  EXPECT_DEATH(node.add_neighbor(1, 1.0, {}), "precondition");
  EXPECT_DEATH(node.add_neighbor(0, 1.0, {}), "precondition");
}

TEST(Contracts, RngUniformBelowZeroAborts) {
  Rng rng(1);
  EXPECT_DEATH((void)rng.uniform_below(0), "precondition");
}

TEST(Contracts, PercentileRequiresSamples) {
  SampleStats empty;
  EXPECT_DEATH((void)empty.percentile(50.0), "precondition");
  SampleStats one;
  one.add(3.0);
  EXPECT_DEATH((void)one.percentile(101.0), "precondition");
}

// --- environment-variable fallbacks of the CLI -----------------------------

class CliEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("MAKALU_N");
    unsetenv("MAKALU_SEED");
    unsetenv("MAKALU_RUNS");
    unsetenv("MAKALU_QUERIES");
  }
};

TEST_F(CliEnvTest, EnvProvidesDefaults) {
  setenv("MAKALU_N", "777", 1);
  setenv("MAKALU_SEED", "123", 1);
  const char* argv[] = {"prog"};
  CliOptions options(1, argv);
  EXPECT_EQ(options.nodes(10), 777u);
  EXPECT_EQ(options.seed(1), 123u);
  EXPECT_EQ(options.runs(4), 4u);  // not set: fallback
}

TEST_F(CliEnvTest, FlagBeatsEnvironment) {
  setenv("MAKALU_N", "777", 1);
  const char* argv[] = {"prog", "--n=55"};
  CliOptions options(2, argv);
  EXPECT_EQ(options.nodes(10), 55u);
}

// --- boundary behaviours -----------------------------------------------------

TEST(Boundaries, TwoNodeOverlay) {
  const EuclideanModel latency(2, 1);
  const MakaluOverlay overlay = OverlayBuilder().build(latency, 1);
  EXPECT_EQ(overlay.graph.edge_count(), 1u);
}

TEST(Boundaries, FullReplicationEverywhereSucceedsAtTtlZero) {
  const ObjectCatalog catalog(20, 1, 1.0, 3);
  EXPECT_EQ(catalog.replicas_per_object(), 20u);
  for (NodeId v = 0; v < 20; ++v) {
    EXPECT_TRUE(catalog.node_has_object(v, 0));
  }
}

TEST(Boundaries, ZipfSingleObject) {
  ZipfSampler zipf(1, 1.0);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf(rng), 0u);
}

TEST(Boundaries, HistogramSingleBin) {
  Histogram h(0.0, 1.0, 1);
  h.add(0.5);
  h.add(2.0);
  EXPECT_EQ(h.count_in_bin(0), 2u);
}

}  // namespace
}  // namespace makalu
