// Tests for ParallelQueryDriver: bit-identical aggregates at any thread
// count (the driver's core guarantee), trace-sink ordering, engine
// polymorphism through the SearchEngine interface, and reuse of one
// driver's persistent workspaces across calls, slicings and graphs.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "analysis/parallel_query_driver.hpp"
#include "search/abf_search.hpp"
#include "search/flood_search.hpp"
#include "search/random_walk_search.hpp"
#include "test_util.hpp"

namespace makalu {
namespace {

using testing::make_cycle;

// Exact double comparisons are intentional throughout: the driver promises
// results that are bit-identical across thread counts, not merely close.
void expect_identical(const QueryAggregate& a, const QueryAggregate& b) {
  EXPECT_EQ(a.queries(), b.queries());
  EXPECT_EQ(a.success_rate(), b.success_rate());
  EXPECT_EQ(a.mean_messages(), b.mean_messages());
  EXPECT_EQ(a.mean_duplicates(), b.mean_duplicates());
  EXPECT_EQ(a.duplicate_fraction(), b.duplicate_fraction());
  EXPECT_EQ(a.mean_nodes_visited(), b.mean_nodes_visited());
  EXPECT_EQ(a.mean_replicas_found(), b.mean_replicas_found());
  EXPECT_EQ(a.mean_messages_per_forwarder(), b.mean_messages_per_forwarder());
  ASSERT_EQ(a.hit_hops().count(), b.hit_hops().count());
  if (!a.hit_hops().empty()) {
    EXPECT_EQ(a.hit_hops().median(), b.hit_hops().median());
    EXPECT_EQ(a.hit_hops().percentile(95.0), b.hit_hops().percentile(95.0));
    EXPECT_EQ(a.hit_hops().mean(), b.hit_hops().mean());
  }
}

TEST(ParallelQueryDriver, FloodAggregateIdenticalAcrossThreadCounts) {
  const std::size_t n = 300;
  const CsrGraph csr = CsrGraph::from_graph(make_cycle(n));
  const ObjectCatalog catalog(n, 12, 0.03, 7);
  FloodOptions fopts;
  fopts.ttl = 8;
  const FloodEngine engine(csr, fopts);

  BatchQueryOptions batch;
  batch.queries = 160;
  batch.seed = 99;

  const QueryAggregate serial =
      ParallelQueryDriver(1).run_batch(engine, catalog, batch);
  EXPECT_EQ(serial.queries(), batch.queries);
  EXPECT_GT(serial.success_rate(), 0.0);  // non-degenerate workload

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const QueryAggregate parallel =
        ParallelQueryDriver(threads).run_batch(engine, catalog, batch);
    expect_identical(serial, parallel);
  }
  // threads = 0 (shared pool) must agree too.
  expect_identical(serial,
                   ParallelQueryDriver(0).run_batch(engine, catalog, batch));
}

TEST(ParallelQueryDriver, RandomWalkAggregateIdenticalAcrossThreadCounts) {
  // Random walks consume the per-query RNG heavily — the stronger check
  // that per-query seeding, not luck, provides the determinism.
  const std::size_t n = 200;
  const CsrGraph csr = CsrGraph::from_graph(make_cycle(n));
  const ObjectCatalog catalog(n, 8, 0.05, 3);
  RandomWalkOptions wopts;
  wopts.walkers = 8;
  wopts.ttl = 30;
  const RandomWalkEngine engine(csr, wopts);

  BatchQueryOptions batch;
  batch.queries = 120;
  batch.seed = 2024;

  const QueryAggregate serial =
      ParallelQueryDriver(1).run_batch(engine, catalog, batch);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    expect_identical(serial, ParallelQueryDriver(threads).run_batch(
                                 engine, catalog, batch));
  }
}

TEST(ParallelQueryDriver, TraceSinkSeesEveryQueryInOrder) {
  const std::size_t n = 100;
  const CsrGraph csr = CsrGraph::from_graph(make_cycle(n));
  const ObjectCatalog catalog(n, 5, 0.1, 1);
  const FloodEngine engine(csr);

  BatchQueryOptions batch;
  batch.queries = 64;
  batch.seed = 5;
  std::vector<QueryTrace> seen;
  batch.trace_sink = [&](const QueryTrace& trace) { seen.push_back(trace); };

  const QueryAggregate agg =
      ParallelQueryDriver(4).run_batch(engine, catalog, batch);
  ASSERT_EQ(seen.size(), batch.queries);
  EXPECT_EQ(agg.queries(), batch.queries);
  std::uint64_t messages = 0;
  for (std::size_t q = 0; q < seen.size(); ++q) {
    EXPECT_EQ(seen[q].query_index, q);
    EXPECT_LT(seen[q].source, n);
    EXPECT_LT(seen[q].object, catalog.object_count());
    messages += seen[q].result.messages;
  }
  // The sink's stream reconciles with the aggregate (NEAR: the aggregate
  // uses Welford accumulation, not a plain sum).
  EXPECT_NEAR(static_cast<double>(messages) /
                  static_cast<double>(batch.queries),
              agg.mean_messages(), 1e-9);
}

TEST(ParallelQueryDriver, AppendVariantAccumulatesAcrossBatches) {
  const std::size_t n = 80;
  const CsrGraph csr = CsrGraph::from_graph(make_cycle(n));
  const ObjectCatalog catalog(n, 4, 0.1, 2);
  const FloodEngine engine(csr);

  BatchQueryOptions batch;
  batch.queries = 30;
  batch.seed = 8;

  ParallelQueryDriver driver(2);
  QueryAggregate total;
  driver.run_batch(engine, catalog, batch, total);
  driver.run_batch(engine, catalog, batch, total);
  EXPECT_EQ(total.queries(), 2 * batch.queries);
}

TEST(ParallelQueryDriver, EmptyBatchIsANoOp) {
  const CsrGraph csr = CsrGraph::from_graph(make_cycle(10));
  const ObjectCatalog catalog(10, 2, 0.5, 1);
  const FloodEngine engine(csr);
  BatchQueryOptions batch;  // queries = 0
  const QueryAggregate agg =
      ParallelQueryDriver(1).run_batch(engine, catalog, batch);
  EXPECT_EQ(agg.queries(), 0u);
}

// --- reuse of one driver's persistent serving state -------------------------

Graph random_graph(std::size_t n, std::size_t extra_edges, Rng& rng) {
  Graph g(n);
  for (NodeId v = 0; v < n; ++v) {
    g.add_edge(v, static_cast<NodeId>((v + 1) % n));  // connected ring
  }
  for (std::size_t i = 0; i < extra_edges; ++i) {
    g.add_edge(static_cast<NodeId>(rng.uniform_below(n)),
               static_cast<NodeId>(rng.uniform_below(n)));
  }
  return g;
}

void expect_same_traces(const std::vector<QueryTrace>& a,
                        const std::vector<QueryTrace>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < a.size(); ++q) {
    EXPECT_EQ(a[q].query_index, b[q].query_index) << "query " << q;
    EXPECT_EQ(a[q].source, b[q].source) << "query " << q;
    EXPECT_EQ(a[q].object, b[q].object) << "query " << q;
    const QueryResult& x = a[q].result;
    const QueryResult& y = b[q].result;
    EXPECT_EQ(x.success, y.success) << "query " << q;
    EXPECT_EQ(x.messages, y.messages) << "query " << q;
    EXPECT_EQ(x.duplicates, y.duplicates) << "query " << q;
    EXPECT_EQ(x.nodes_visited, y.nodes_visited) << "query " << q;
    EXPECT_EQ(x.first_hit_hop, y.first_hit_hop) << "query " << q;
    EXPECT_EQ(x.replicas_found, y.replicas_found) << "query " << q;
    EXPECT_EQ(x.forwarders, y.forwarders) << "query " << q;
    EXPECT_EQ(x.truncated, y.truncated) << "query " << q;
  }
}

/// One run_batch call on `driver`, appending its traces and aggregate.
void serve(ParallelQueryDriver& driver, const SearchEngine& engine,
           const ObjectCatalog& catalog, BatchQueryOptions options,
           std::vector<QueryTrace>& traces, QueryAggregate& aggregate) {
  options.trace_sink = [&](const QueryTrace& t) { traces.push_back(t); };
  driver.run_batch(engine, catalog, options, aggregate);
}

// The open-loop engine's use: one driver serves a stream slice by slice.
// Whatever its workspaces kept from earlier slices, the stream must come
// out bit-identical to one batch of the whole stream.
TEST(ParallelQueryDriverReuse, SlicedStreamMatchesOneBatch) {
  Rng topo_rng(31);
  const std::size_t n = 400;
  const CsrGraph csr = CsrGraph::from_graph(random_graph(n, 600, topo_rng));
  const ObjectCatalog catalog(n, 8, 0.02, 11);
  const FloodEngine flood(csr, FloodOptions{.ttl = 3});
  AbfOptions abf_options;
  abf_options.level_params = {/*bits=*/256, /*hashes=*/3};
  const AbfRouter abf(csr, catalog, abf_options);

  // 20 slices of uneven sizes (5..57 queries).
  std::vector<std::size_t> slices;
  std::size_t stream = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    slices.push_back(5 + (i * 37) % 53);
    stream += slices.back();
  }

  BatchQueryOptions options;
  options.seed = 404;
  for (const SearchEngine* engine :
       {static_cast<const SearchEngine*>(&flood),
        static_cast<const SearchEngine*>(&abf)}) {
    SCOPED_TRACE(engine->name());
    std::vector<QueryTrace> want_traces;
    QueryAggregate want;
    options.queries = stream;
    options.batch = false;
    ParallelQueryDriver reference(1);
    serve(reference, *engine, catalog, options, want_traces, want);
    EXPECT_GT(want.success_rate(), 0.0);  // non-degenerate workload

    for (const bool batch : {false, true}) {
      for (const std::size_t threads :
           {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        SCOPED_TRACE(::testing::Message()
                     << "batch=" << batch << " threads=" << threads);
        ParallelQueryDriver driver(threads);
        std::vector<QueryTrace> got_traces;
        QueryAggregate got;
        options.batch = batch;
        options.first_query_index = 0;
        for (const std::size_t size : slices) {
          options.queries = size;
          serve(driver, *engine, catalog, options, got_traces, got);
          options.first_query_index += size;
        }
        expect_same_traces(want_traces, got_traces);
        expect_identical(want, got);
      }
    }
    options.first_query_index = 0;
  }
}

// One driver moves between graphs of different sizes: the workspaces
// take the resize path in begin_query/begin_batch and must give what a
// fresh driver gives on each graph.
TEST(ParallelQueryDriverReuse, ResizesAcrossGraphSizes) {
  Rng topo_rng(77);
  const CsrGraph small =
      CsrGraph::from_graph(random_graph(1000, 1500, topo_rng));
  const CsrGraph large =
      CsrGraph::from_graph(random_graph(2000, 3000, topo_rng));
  const ObjectCatalog small_catalog(1000, 6, 0.01, 5);
  const ObjectCatalog large_catalog(2000, 6, 0.01, 6);
  const FloodEngine small_flood(small, FloodOptions{.ttl = 4});
  const FloodEngine large_flood(large, FloodOptions{.ttl = 4});

  BatchQueryOptions options;
  options.queries = 150;
  options.seed = 9;
  for (const bool batch : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE(::testing::Message()
                   << "batch=" << batch << " threads=" << threads);
      options.batch = batch;
      ParallelQueryDriver reused(threads);
      const auto check = [&](const FloodEngine& engine,
                             const ObjectCatalog& catalog) {
        std::vector<QueryTrace> want_traces;
        std::vector<QueryTrace> got_traces;
        QueryAggregate want;
        QueryAggregate got;
        ParallelQueryDriver fresh(threads);
        serve(fresh, engine, catalog, options, want_traces, want);
        serve(reused, engine, catalog, options, got_traces, got);
        expect_same_traces(want_traces, got_traces);
        expect_identical(want, got);
      };
      check(small_flood, small_catalog);
      check(large_flood, large_catalog);
      // Resident state now covers the 2k graph: with batching, each used
      // slot's workspace holds its ~36 B/node batched arrays.
      if (batch) {
        EXPECT_GE(reused.memory_bytes(), 36u * 2000u);
      }
      check(small_flood, small_catalog);
    }
  }
}

// A persistent workspace must not keep writing to the registry of an
// earlier call: registry A is destroyed, the next call has none, and
// (under ASan) any hop observation through A's shard is a use after
// free. Results must match a fresh driver's.
TEST(ParallelQueryDriverReuse, DetachesMetricsFromDestroyedRegistry) {
  Rng topo_rng(5);
  const std::size_t n = 300;
  const CsrGraph csr = CsrGraph::from_graph(random_graph(n, 450, topo_rng));
  const ObjectCatalog catalog(n, 6, 0.02, 3);
  const FloodEngine engine(csr, FloodOptions{.ttl = 3});

  for (const bool batch : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE(::testing::Message()
                   << "batch=" << batch << " threads=" << threads);
      BatchQueryOptions options;
      options.queries = 120;
      options.seed = 21;
      options.batch = batch;
      ParallelQueryDriver driver(threads);
      auto registry = std::make_unique<obs::MetricsRegistry>();
      options.metrics = registry.get();
      std::ignore = driver.run_batch(engine, catalog, options);
      registry.reset();

      options.metrics = nullptr;
      options.seed = 22;
      const QueryAggregate got = driver.run_batch(engine, catalog, options);
      const QueryAggregate want =
          ParallelQueryDriver(threads).run_batch(engine, catalog, options);
      expect_identical(want, got);
    }
  }
}

TEST(ParallelQueryDriver, SlotsMatchWorkerThreads) {
  EXPECT_EQ(ParallelQueryDriver(1).slots(), 1u);
  EXPECT_EQ(ParallelQueryDriver(3).slots(), 3u);
  EXPECT_EQ(ParallelQueryDriver(0).slots(),
            ThreadPool::shared().thread_count());
  // Nothing is resident before the first batch.
  EXPECT_EQ(ParallelQueryDriver(2).memory_bytes(), 0u);
}

}  // namespace
}  // namespace makalu
