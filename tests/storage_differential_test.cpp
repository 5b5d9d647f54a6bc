// The storage-policy differential suite: GraphStorage::kAdjacencySet and
// GraphStorage::kCompact must be pure representation choices. Every build
// path (serial, sharded), maintenance sweep,
// churn episode, and search engine must produce results that are
// bit-identical between the two storages — and, for the parallel paths,
// across thread counts (inline, 1, 2, 8). The comparisons are
// element-for-element over raw neighbor sequences, not just edge sets:
// both storages promise append-on-add / swap-with-last-on-remove, which
// is what makes every downstream RNG draw and victim choice line up.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/overlay_builder.hpp"
#include "core/rating_cache.hpp"
#include "net/latency_model.hpp"
#include "search/flood_search.hpp"
#include "search/random_walk_search.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace makalu {
namespace {

constexpr std::size_t kThreadCounts[] = {0, 1, 2, 8};  // 0 = inline

// Raw neighbor sequences: the strongest equivalence — identical element
// order, not merely identical edge sets.
std::vector<std::vector<NodeId>> sequences(const Graph& g) {
  std::vector<std::vector<NodeId>> rows(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto nbrs = g.neighbors(u);
    rows[u].assign(nbrs.begin(), nbrs.end());
  }
  return rows;
}

void expect_identical(const MakaluOverlay& a, const MakaluOverlay& b,
                      const char* what) {
  EXPECT_EQ(a.capacity, b.capacity) << what;
  ASSERT_EQ(a.graph.node_count(), b.graph.node_count()) << what;
  EXPECT_EQ(a.graph.edge_count(), b.graph.edge_count()) << what;
  EXPECT_EQ(sequences(a.graph), sequences(b.graph)) << what;
}

OverlayBuilder builder_for(GraphStorage storage) {
  MakaluParameters params;
  params.storage = storage;
  return OverlayBuilder(params);
}

TEST(StorageDifferential, SerialBuildBitIdentical) {
  const EuclideanModel latency(300, 17);
  const MakaluOverlay adj =
      builder_for(GraphStorage::kAdjacencySet).build(latency, 99);
  const MakaluOverlay cmp =
      builder_for(GraphStorage::kCompact).build(latency, 99);
  EXPECT_EQ(adj.graph.storage(), GraphStorage::kAdjacencySet);
  EXPECT_EQ(cmp.graph.storage(), GraphStorage::kCompact);
  expect_identical(adj, cmp, "serial build");
}

TEST(StorageDifferential, ShardedBuildBitIdenticalAcrossThreads) {
  const EuclideanModel latency(400, 31);
  MakaluOverlay reference;
  bool have_reference = false;
  for (const GraphStorage storage :
       {GraphStorage::kAdjacencySet, GraphStorage::kCompact}) {
    const OverlayBuilder builder = builder_for(storage);
    for (const std::size_t threads : kThreadCounts) {
      ThreadPool pool(threads == 0 ? 1 : threads);
      const MakaluOverlay overlay = builder.build_sharded(
          latency, 41, threads == 0 ? nullptr : &pool);
      if (!have_reference) {
        reference = overlay;
        have_reference = true;
        // The sharded path must produce a usable overlay, not a stub.
        EXPECT_GT(overlay.graph.edge_count(), overlay.node_count());
      } else {
        expect_identical(reference, overlay,
                         "sharded build, storage x threads");
      }
    }
  }
}

TEST(StorageDifferential, ChurnAndSweepBitIdenticalAcrossThreads) {
  // Fail 15% of a built overlay, repair among survivors, then rejoin —
  // the bench_scale churn episode in miniature, across both storages and
  // every thread count.
  const EuclideanModel latency(250, 37);
  std::vector<bool> online(250, true);
  Rng fault_rng(71);
  for (std::size_t u = 0; u < online.size(); ++u) {
    if (fault_rng.chance(0.15)) online[u] = false;
  }

  MakaluOverlay reference;
  bool have_reference = false;
  for (const GraphStorage storage :
       {GraphStorage::kAdjacencySet, GraphStorage::kCompact}) {
    const OverlayBuilder builder = builder_for(storage);
    for (const std::size_t threads : kThreadCounts) {
      ThreadPool pool(threads == 0 ? 1 : threads);
      ThreadPool* p = threads == 0 ? nullptr : &pool;
      MakaluOverlay overlay = builder.build_sharded(latency, 43, p);
      CachedRatingEngine context(overlay.graph, latency,
                                 builder.parameters().weights);
      for (NodeId u = 0; u < overlay.node_count(); ++u) {
        if (!online[u]) overlay.graph.isolate(u);
      }
      SweepOptions repair;
      repair.seed = 0xabcdULL;
      repair.active = &online;
      repair.pool = p;
      builder.deterministic_sweep(overlay, context, repair);
      SweepOptions rejoin;
      rejoin.seed = 0xef01ULL;
      rejoin.pool = p;
      builder.deterministic_sweep(overlay, context, rejoin);
      if (!have_reference) {
        reference = overlay;
        have_reference = true;
      } else {
        expect_identical(reference, overlay, "churn, storage x threads");
      }
    }
  }
}

TEST(StorageDifferential, SearchEnginesIdenticalOnBothBuilds) {
  // The engines consume an immutable CsrGraph snapshot; from_graph sorts
  // rows, so identical overlays must yield per-query-identical searches.
  // This closes the loop from storage policy to end-to-end results.
  const EuclideanModel latency(300, 47);
  const MakaluOverlay adj =
      builder_for(GraphStorage::kAdjacencySet).build_sharded(latency, 53,
                                                             nullptr);
  const MakaluOverlay cmp =
      builder_for(GraphStorage::kCompact).build_sharded(latency, 53,
                                                        nullptr);
  const CsrGraph csr_adj = CsrGraph::from_graph(adj.graph);
  const CsrGraph csr_cmp = CsrGraph::from_graph(cmp.graph);
  const std::size_t n = csr_adj.node_count();
  const ObjectCatalog catalog(n, 16, 0.01, 59);

  const auto compare_engine = [&](const SearchEngine& ea,
                                  const SearchEngine& eb) {
    QueryWorkspace wa(n);
    QueryWorkspace wb(n);
    Rng pick(61);
    for (std::size_t q = 0; q < 50; ++q) {
      const auto source = static_cast<NodeId>(pick.uniform_below(n));
      const auto object = static_cast<ObjectId>(pick.uniform_below(16));
      wa.seed_rng(67, q);
      wb.seed_rng(67, q);
      const QueryResult ra = ea.run(source, object, catalog, wa);
      const QueryResult rb = eb.run(source, object, catalog, wb);
      ASSERT_EQ(ra.success, rb.success) << ea.name() << " query " << q;
      ASSERT_EQ(ra.messages, rb.messages) << ea.name() << " query " << q;
      ASSERT_EQ(ra.duplicates, rb.duplicates) << ea.name() << " query " << q;
      ASSERT_EQ(ra.nodes_visited, rb.nodes_visited)
          << ea.name() << " query " << q;
      ASSERT_EQ(ra.replicas_found, rb.replicas_found)
          << ea.name() << " query " << q;
      ASSERT_EQ(ra.first_hit_hop, rb.first_hit_hop)
          << ea.name() << " query " << q;
    }
  };
  compare_engine(FloodEngine(csr_adj), FloodEngine(csr_cmp));
  compare_engine(RandomWalkEngine(csr_adj), RandomWalkEngine(csr_cmp));
}

}  // namespace
}  // namespace makalu
