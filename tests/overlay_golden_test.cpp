// Golden digests of overlay management on the surviving rating path.
//
// Every overlay-management decision — which neighbour to prune — depends
// only on RatingEngine::rate_node and the RNG draws. These tests fold the
// complete outcome of each build and repair path into one FNV-1a word
// (neighbour rows in storage order, capacities, churn samples) and pin
// it, so any change to a decision, a tie-break or an RNG draw shows up as
// a digest mismatch rather than as a drift in some aggregate.
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/overlay_builder.hpp"
#include "net/latency_model.hpp"
#include "search/churn.hpp"
#include "sim/replica_placement.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"

namespace makalu {
namespace {

std::uint64_t fold(std::uint64_t digest, std::uint64_t word) {
  return (digest ^ word) * 0x100000001b3ULL;
}

std::uint64_t fold(std::uint64_t digest, double value) {
  return fold(digest, std::bit_cast<std::uint64_t>(value));
}

/// Capacities, then every neighbour row in storage order: equal digests
/// mean element-identical rows, not just equal edge sets.
std::uint64_t overlay_digest(const MakaluOverlay& overlay) {
  std::uint64_t digest = testing::kDigestSeed;
  digest = fold(digest, std::uint64_t{overlay.node_count()});
  for (const std::size_t cap : overlay.capacity) {
    digest = fold(digest, std::uint64_t{cap});
  }
  for (NodeId u = 0; u < overlay.node_count(); ++u) {
    const auto row = overlay.graph.neighbors(u);
    digest = fold(digest, std::uint64_t{row.size()});
    for (const NodeId v : row) digest = fold(digest, std::uint64_t{v});
  }
  return digest;
}

std::uint64_t churn_digest(const ChurnReport& report) {
  std::uint64_t digest = testing::kDigestSeed;
  for (const std::uint64_t count :
       {report.departures, report.arrivals, report.crashes,
        report.failed_joins, std::uint64_t{report.samples.size()}}) {
    digest = fold(digest, count);
  }
  for (const ChurnSample& s : report.samples) {
    digest = fold(digest, s.time_ms);
    digest = fold(digest, std::uint64_t{s.online});
    digest = fold(digest, std::uint64_t{s.online_components});
    digest = fold(digest, s.giant_fraction);
    digest = fold(digest, s.mean_degree);
    digest = fold(digest, std::uint64_t{s.isolated_online});
    digest = fold(digest, s.search_success);
  }
  return digest;
}

OverlayBuilder builder_for(GraphStorage storage) {
  MakaluParameters params;
  params.storage = storage;
  return OverlayBuilder(params);
}

TEST(OverlayGolden, SerialBuild) {
  const EuclideanModel latency(300, 17);
  struct Case {
    std::uint64_t seed;
    std::uint64_t digest;
  };
  for (const Case c : {Case{99, 0x648cec422c0a6ee2ULL},
                       Case{4242, 0x03a6ba302b13a539ULL}}) {
    for (const GraphStorage storage :
         {GraphStorage::kAdjacencySet, GraphStorage::kCompact}) {
      const MakaluOverlay overlay =
          builder_for(storage).build(latency, c.seed);
      EXPECT_EQ(overlay_digest(overlay), c.digest)
          << "seed " << c.seed << " storage "
          << static_cast<int>(storage);
    }
  }
}

TEST(OverlayGolden, ShardedBuild) {
  const EuclideanModel latency(400, 31);
  constexpr std::uint64_t kGolden = 0xe436b36c25e0431fULL;
  ThreadPool pool(4);
  for (const GraphStorage storage :
       {GraphStorage::kAdjacencySet, GraphStorage::kCompact}) {
    const OverlayBuilder builder = builder_for(storage);
    EXPECT_EQ(overlay_digest(builder.build_sharded(latency, 41, nullptr)),
              kGolden)
        << "inline, storage " << static_cast<int>(storage);
    EXPECT_EQ(overlay_digest(builder.build_sharded(latency, 41, &pool)),
              kGolden)
        << "4 threads, storage " << static_cast<int>(storage);
  }
}

TEST(OverlayGolden, ChurnBothMaintenanceModes) {
  // Default adjacency-set storage; 0 runs the serial maintenance round,
  // 2 the deterministic sweep on a 2-thread pool.
  const EuclideanModel latency(150, 29);
  const OverlayBuilder builder;
  const ObjectCatalog catalog(150, 8, 0.05, 3);
  ChurnOptions options;
  options.duration_ms = 40'000.0;
  options.seed = 5;
  options.catalog = &catalog;
  options.queries_per_sample = 8;
  struct Case {
    std::size_t threads;
    std::uint64_t digest;
  };
  for (const Case c : {Case{0, 0xa5244ff2c8bf33b1ULL},
                       Case{2, 0x56dc60b7c6f57805ULL}}) {
    options.maintenance_threads = c.threads;
    const ChurnReport report = simulate_churn(builder, latency, options);
    ASSERT_FALSE(report.samples.empty());
    EXPECT_EQ(churn_digest(report), c.digest)
        << "maintenance_threads " << c.threads;
  }
}

TEST(OverlayGolden, JoinAndMaintenanceRepair) {
  // Damage a built overlay, re-join some of the isolated nodes one by one,
  // then let a serial maintenance round repair the rest.
  const EuclideanModel latency(250, 23);
  const OverlayBuilder builder;
  MakaluOverlay overlay = builder.build(latency, 7);
  Rng rng(31);
  std::vector<NodeId> isolated;
  for (NodeId v = 0; v < overlay.node_count(); ++v) {
    if (rng.chance(0.15)) {
      overlay.graph.isolate(v);
      isolated.push_back(v);
    }
  }
  ASSERT_FALSE(isolated.empty());
  for (std::size_t i = 0; i < isolated.size(); i += 2) {
    builder.join_node(overlay, latency, isolated[i], rng);
  }
  const std::size_t changes = builder.maintenance_round(overlay, latency, rng);
  EXPECT_GT(changes, 0u);
  std::uint64_t digest = overlay_digest(overlay);
  digest = fold(digest, std::uint64_t{changes});
  digest = fold(digest, rng());  // the RNG advanced by the same draws
  EXPECT_EQ(digest, 0x94ddd9061e30a571ULL);
}

}  // namespace
}  // namespace makalu
