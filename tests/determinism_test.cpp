// Thread-count determinism regressions for the deterministic maintenance
// path: a standalone deterministic_sweep and a full simulate_churn run
// must produce bit-identical results at 1, 2, and 8 worker threads (and
// inline with no pool at all). These are the guarantees the parallel
// sweep was designed around — any divergence means a scheduling or
// sharing bug. build_sharded's thread-count invariance is pinned in
// storage_differential_test, its golden digest in overlay_golden_test.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/overlay_builder.hpp"
#include "core/rating_cache.hpp"
#include "graph/algorithms.hpp"
#include "net/latency_model.hpp"
#include "search/churn.hpp"
#include "support/thread_pool.hpp"

namespace makalu {
namespace {

// Sorted adjacency lists: equal iff the graphs have identical edge sets
// (neighbor-list order is not meaningful).
std::vector<std::vector<NodeId>> canonical(const Graph& g) {
  std::vector<std::vector<NodeId>> adj(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto nbrs = g.neighbors(u);
    adj[u].assign(nbrs.begin(), nbrs.end());
    std::sort(adj[u].begin(), adj[u].end());
  }
  return adj;
}

void expect_same_overlay(const MakaluOverlay& a, const MakaluOverlay& b,
                         const char* what) {
  EXPECT_EQ(a.capacity, b.capacity) << what;
  EXPECT_EQ(canonical(a.graph), canonical(b.graph)) << what;
}

TEST(Determinism, DeterministicBuildIsSeedSensitive) {
  // Guard against the degenerate way to pass the thread-count tests: a
  // build that ignored its seed would also be "deterministic".
  const EuclideanModel latency(200, 19);
  const OverlayBuilder builder;
  const MakaluOverlay a = builder.build_sharded(latency, 1, nullptr);
  const MakaluOverlay b = builder.build_sharded(latency, 2, nullptr);
  EXPECT_NE(canonical(a.graph), canonical(b.graph));
}

TEST(Determinism, SweepIdenticalAcrossThreadCounts) {
  // Damage a built overlay, then repair it with one deterministic sweep
  // under every thread count; graphs and change counts must agree.
  const EuclideanModel latency(250, 23);
  const OverlayBuilder builder;
  const MakaluOverlay base = builder.build(latency, 7);
  std::vector<bool> active(base.node_count(), true);
  Rng damage_rng(31);
  MakaluOverlay damaged = base;
  for (NodeId v = 0; v < damaged.node_count(); ++v) {
    if (damage_rng.chance(0.15)) damaged.graph.isolate(v);
  }

  MakaluOverlay reference;
  std::size_t reference_changes = 0;
  bool have_reference = false;
  for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
    MakaluOverlay overlay = damaged;
    CachedRatingEngine context(overlay.graph, latency,
                               builder.parameters().weights);
    ThreadPool pool(threads == 0 ? 1 : threads);
    SweepOptions sweep;
    sweep.seed = 0xfeedULL;
    sweep.active = &active;
    sweep.pool = threads == 0 ? nullptr : &pool;
    const std::size_t changes =
        builder.deterministic_sweep(overlay, context, sweep);
    EXPECT_GT(changes, 0u);  // the damage is real; repairs must happen
    if (!have_reference) {
      reference = overlay;
      reference_changes = changes;
      have_reference = true;
    } else {
      expect_same_overlay(reference, overlay, "sweep across thread counts");
      EXPECT_EQ(reference_changes, changes);
    }
  }
}

TEST(Determinism, ChurnReportIdenticalAcrossThreadCounts) {
  const EuclideanModel latency(150, 29);
  const OverlayBuilder builder;
  ChurnOptions options;
  options.duration_ms = 40'000.0;
  options.seed = 5;

  ChurnReport reference;
  bool have_reference = false;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    options.maintenance_threads = threads;
    const ChurnReport report = simulate_churn(builder, latency, options);
    ASSERT_FALSE(report.samples.empty());
    if (!have_reference) {
      reference = report;
      have_reference = true;
      continue;
    }
    EXPECT_EQ(report.departures, reference.departures);
    EXPECT_EQ(report.arrivals, reference.arrivals);
    ASSERT_EQ(report.samples.size(), reference.samples.size());
    for (std::size_t i = 0; i < report.samples.size(); ++i) {
      const ChurnSample& a = report.samples[i];
      const ChurnSample& b = reference.samples[i];
      EXPECT_EQ(a.time_ms, b.time_ms) << "sample " << i;
      EXPECT_EQ(a.online, b.online) << "sample " << i;
      EXPECT_EQ(a.online_components, b.online_components) << "sample " << i;
      EXPECT_EQ(a.giant_fraction, b.giant_fraction) << "sample " << i;
      EXPECT_EQ(a.mean_degree, b.mean_degree) << "sample " << i;
      EXPECT_EQ(a.isolated_online, b.isolated_online) << "sample " << i;
    }
  }
}

TEST(Determinism, TwoHopColorClassesAreIndependentSets) {
  // Structural invariant behind the parallel prune: any two same-class
  // nodes are at graph distance >= 3.
  const EuclideanModel latency(180, 43);
  const MakaluOverlay overlay = OverlayBuilder().build(latency, 13);
  const Graph& g = overlay.graph;
  std::vector<NodeId> nodes;
  for (NodeId u = 0; u < g.node_count(); u += 2) nodes.push_back(u);
  const auto classes = two_hop_color_classes(g, nodes);
  std::size_t total = 0;
  for (const auto& cls : classes) {
    total += cls.size();
    for (const NodeId u : cls) {
      for (const NodeId v : cls) {
        if (u == v) continue;
        EXPECT_FALSE(g.has_edge(u, v)) << u << "," << v;
        for (const NodeId w : g.neighbors(u)) {
          EXPECT_FALSE(g.has_edge(w, v))
              << "distance-2 pair in one class: " << u << "," << v;
        }
      }
    }
  }
  EXPECT_EQ(total, nodes.size());
}

}  // namespace
}  // namespace makalu
