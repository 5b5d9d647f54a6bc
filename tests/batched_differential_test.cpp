// Differential suite for the filter-arena match kernels and the batched
// shared-frontier flood path (bloom/filter_arena, search/batched_flood).
//
// The optimisation contract is bit-identity, not approximation: every
// match kernel (reference / portable / AVX2) must produce the same
// level-match bitmasks — hence the same scores, the same neighbor
// ranking, the same tie-breaks — and the batched flood must reproduce
// the scalar engine's QueryResult field for field, at any batch
// partitioning and thread count. These tests pin that contract over ~1k
// seeded random topologies (ISSUE: hot-path correctness sweep).
#include <gtest/gtest.h>

#include <vector>

#include "analysis/parallel_query_driver.hpp"
#include "bloom/filter_arena.hpp"
#include "search/abf_search.hpp"
#include "search/flood_search.hpp"
#include "search/gossip_flood.hpp"
#include "test_util.hpp"

namespace makalu {
namespace {

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

void expect_same_result(const QueryResult& a, const QueryResult& b,
                        const char* what, std::uint64_t seed) {
  EXPECT_EQ(a.success, b.success) << what << " seed=" << seed;
  EXPECT_EQ(a.messages, b.messages) << what << " seed=" << seed;
  EXPECT_EQ(a.duplicates, b.duplicates) << what << " seed=" << seed;
  EXPECT_EQ(a.nodes_visited, b.nodes_visited) << what << " seed=" << seed;
  EXPECT_EQ(a.first_hit_hop, b.first_hit_hop) << what << " seed=" << seed;
  EXPECT_EQ(a.replicas_found, b.replicas_found) << what << " seed=" << seed;
  EXPECT_EQ(a.forwarders, b.forwarders) << what << " seed=" << seed;
  EXPECT_EQ(a.truncated, b.truncated) << what << " seed=" << seed;
}

class SeededDifferential : public ::testing::TestWithParam<std::uint64_t> {};

// --- match kernels: reference vs portable vs AVX2 --------------------------

// Every match kernel must route every query identically: the greedy
// neighbor choice compares scores with strict >, so a single differing
// mask bit anywhere would change the route, the message count, or the
// RNG-fallback stream. Equality of full QueryResults over random
// topologies is therefore a sharp test of kernel equivalence.
TEST_P(SeededDifferential, MatchKernelsRouteIdentically) {
  const std::uint64_t seed = GetParam();
  Rng topo_rng(seed * 7919 + 1);
  for (int t = 0; t < 25; ++t) {
    const std::size_t n = 24 + topo_rng.uniform_below(32);
    const Graph g = random_graph(n, topo_rng.uniform_below(40), topo_rng);
    const CsrGraph csr = CsrGraph::from_graph(g);
    const ObjectCatalog catalog(n, 4, 0.08, seed + t);
    AbfOptions options;
    options.depth = 3;
    options.level_params = {/*bits=*/256, /*hashes=*/3};
    const AbfRouter router(csr, catalog, options);

    std::vector<MatchKernel> modes = {MatchKernel::kReference,
                                      MatchKernel::kPortable,
                                      MatchKernel::kAuto};
    if (resolved_match_kernel() == MatchKernel::kAvx2) {
      modes.push_back(MatchKernel::kAvx2);
    }
    for (std::uint64_t q = 0; q < 4; ++q) {
      const NodeId source =
          static_cast<NodeId>(topo_rng.uniform_below(n));
      const ObjectId object =
          static_cast<ObjectId>(topo_rng.uniform_below(4));
      QueryResult baseline;
      for (std::size_t m = 0; m < modes.size(); ++m) {
        const testing::KernelOverride forced(modes[m]);
        QueryWorkspace ws;
        ws.seed_rng(seed, q);  // identical fallback RNG stream per mode
        const QueryResult r = router.route(source, object, 30, ws);
        if (m == 0) {
          baseline = r;
        } else {
          expect_same_result(r, baseline, "abf-kernel", seed);
        }
      }
    }
  }
}

// Digests of the routes below, one per seed, recorded when this test still
// compared the arena with a heap-filter replay of the table (one
// AttenuatedBloomFilter per arc) query by query and found them equal.
constexpr std::uint64_t kReplayRouteDigest[8] = {
    0xc972889d38620972ULL, 0x10049100d273d093ULL, 0xc61d958b5a8cc3b2ULL,
    0x1560ddcb7aee6f0aULL, 0xd5ab691aa4de83c5ULL, 0x2a17bea3e1dfe150ULL,
    0x270d46738fbf5a82ULL, 0xdec3bbc0af6a1eb6ULL};

TEST_P(SeededDifferential, LegacyReplayRoutesIdentically) {
  const std::uint64_t seed = GetParam();
  Rng topo_rng(seed * 6151 + 5);
  std::uint64_t digest = testing::kDigestSeed;
  for (int t = 0; t < 10; ++t) {
    const std::size_t n = 24 + topo_rng.uniform_below(32);
    const Graph g = random_graph(n, topo_rng.uniform_below(40), topo_rng);
    const CsrGraph csr = CsrGraph::from_graph(g);
    const ObjectCatalog catalog(n, 4, 0.08, seed + 100 + t);
    AbfOptions options;
    options.depth = 3;
    options.level_params = {/*bits=*/256, /*hashes=*/3};
    AbfRouter router(csr, catalog, options);

    for (std::uint64_t q = 0; q < 4; ++q) {
      const NodeId source =
          static_cast<NodeId>(topo_rng.uniform_below(n));
      const ObjectId object =
          static_cast<ObjectId>(topo_rng.uniform_below(4));
      QueryWorkspace ws;
      ws.seed_rng(seed, q);
      digest = testing::fold_result(digest,
                                    router.route(source, object, 30, ws));
    }

    // Content churn: the arena wave of notify_insert.
    const auto holder = static_cast<NodeId>(topo_rng.uniform_below(n));
    router.notify_insert(holder, /*object=*/2);
    QueryWorkspace ws;
    ws.seed_rng(seed, 99);
    const auto source = static_cast<NodeId>(topo_rng.uniform_below(n));
    digest = testing::fold_result(digest,
                                  router.route(source, /*object=*/2, 30, ws));
  }
  EXPECT_EQ(digest, kReplayRouteDigest[seed - 1]) << "seed=" << seed;
}

// The interleaved-walker batched ABF path must reproduce the scalar
// route() exactly: each walker owns one visited bit and its own RNG
// stream, so co-scheduling is a pure instruction reordering. Exercised
// under the dispatched and the reference kernel, and at partitionings
// above and below kBatchWidth.
TEST_P(SeededDifferential, BatchedAbfWalkersMatchScalarRoutes) {
  const std::uint64_t seed = GetParam();
  Rng topo_rng(seed * 4409 + 11);
  for (int t = 0; t < 12; ++t) {
    const std::size_t n = 48 + topo_rng.uniform_below(48);
    const Graph g = random_graph(n, topo_rng.uniform_below(60), topo_rng);
    const CsrGraph csr = CsrGraph::from_graph(g);
    const ObjectCatalog catalog(n, 5, 0.06, seed + 300 + t);
    AbfOptions options;
    options.depth = 3;
    options.level_params = {/*bits=*/256, /*hashes=*/3};
    options.ttl = 20;
    const AbfRouter router(csr, catalog, options);
    ASSERT_TRUE(router.supports_query_batching());

    // 70 jobs > kBatchWidth forces the chunking path once per topology.
    const std::size_t jobs_n = (t == 0) ? 70 : 9;
    std::vector<BatchQueryJob> jobs(jobs_n);
    for (std::size_t q = 0; q < jobs_n; ++q) {
      jobs[q].source = static_cast<NodeId>(topo_rng.uniform_below(n));
      jobs[q].object = static_cast<ObjectId>(topo_rng.uniform_below(5));
      jobs[q].rng = Rng(seed * 131 + q);
    }

    for (const MatchKernel mode :
         {MatchKernel::kAuto, MatchKernel::kReference}) {
      const testing::KernelOverride forced(mode);
      std::vector<QueryResult> batched(jobs_n);
      QueryWorkspace batch_ws;
      router.run_many(jobs, catalog, batch_ws, batched.data());

      for (std::size_t q = 0; q < jobs_n; ++q) {
        QueryWorkspace scalar_ws;
        scalar_ws.rng() = jobs[q].rng;
        const QueryResult scalar =
            router.run(jobs[q].source, jobs[q].object, catalog, scalar_ws);
        expect_same_result(batched[q], scalar, "batched-abf", seed);
      }
    }
  }
}

// Probe sets overflow when hashes > BloomProbeSet::kMaxWords; every
// kernel then falls back to the per-hash probe loop. Its masks must equal
// the per-level membership FilterArena::maybe_contains reports, bit for
// bit, whichever kernel was asked for.
TEST(SimdMatchDifferential, OverflowProbeSetFallsBackIdentically) {
  constexpr std::size_t kArcs = 24;
  constexpr std::size_t kDepth = 3;
  FilterArena arena(kArcs, kDepth,
                    {/*bits=*/512, /*hashes=*/BloomProbeSet::kMaxWords + 4});
  Rng rng(99);
  std::vector<std::uint64_t> keys;
  for (std::size_t arc = 0; arc < kArcs; ++arc) {
    for (std::size_t level = 0; level < kDepth; ++level) {
      for (std::size_t i = 0; i < (std::size_t{2} << level); ++i) {
        keys.push_back(rng());
        arena.insert(arc, level, keys.back());
      }
    }
  }
  std::vector<MatchKernel> modes = {MatchKernel::kReference,
                                    MatchKernel::kPortable,
                                    MatchKernel::kAuto};
  if (resolved_match_kernel() == MatchKernel::kAvx2) {
    modes.push_back(MatchKernel::kAvx2);
  }
  for (std::size_t q = 0; q < 32; ++q) {
    // Half stored keys (some arcs match), half fresh ones.
    const std::uint64_t key =
        q % 2 == 0 ? keys[rng.uniform_below(keys.size())] : rng();
    const BloomProbeSet probes = arena.make_probe_set(key);
    ASSERT_TRUE(probes.overflow);
    std::vector<std::uint32_t> want(kArcs, 0);
    for (std::size_t arc = 0; arc < kArcs; ++arc) {
      for (std::size_t level = 0; level < kDepth; ++level) {
        if (arena.maybe_contains(arc, level, key)) {
          want[arc] |= std::uint32_t{1} << level;
        }
      }
    }
    for (const MatchKernel mode : modes) {
      std::vector<std::uint32_t> got(kArcs, 0xFFu);
      arena.match_many(0, kArcs, probes, got.data(), mode);
      EXPECT_EQ(got, want) << "q=" << q
                           << " kernel=" << match_kernel_name(mode);
    }
  }
}

// Runtime-dispatch seam: forcing the portable kernel must (a) be visible
// through resolved_match_kernel and (b) leave results unchanged — the
// dispatch layer selects an implementation, never a behaviour.
TEST(SimdMatchDifferential, ForcedPortableDispatchMatchesReference) {
  Rng topo_rng(17);
  const std::size_t n = 40;
  const Graph g = random_graph(n, 30, topo_rng);
  const CsrGraph csr = CsrGraph::from_graph(g);
  const ObjectCatalog catalog(n, 4, 0.1, 11);
  const AbfRouter router(csr, catalog, AbfOptions{});

  for (std::uint64_t q = 0; q < 8; ++q) {
    const NodeId source = static_cast<NodeId>(topo_rng.uniform_below(n));
    QueryResult ref;
    {
      const testing::KernelOverride forced(MatchKernel::kReference);
      QueryWorkspace ws_ref;
      ws_ref.seed_rng(3, q);
      ref = router.route(source, 0, 30, ws_ref);
    }
    const testing::KernelOverride forced(MatchKernel::kPortable);
    EXPECT_EQ(resolved_match_kernel(), MatchKernel::kPortable);
    QueryWorkspace ws_forced;
    ws_forced.seed_rng(3, q);
    expect_same_result(router.route(source, 0, 30, ws_forced), ref,
                       "forced-portable", q);
  }
}

// --- batched flood vs scalar flood -----------------------------------------

// The shared-frontier kernel must reproduce the scalar FloodEngine result
// for every query of the batch — including duplicate counts, forwarder
// counts, and echo suppression — independent of which queries share the
// batch. 8 param seeds x 125 inner topologies = 1000 seeded topologies.
TEST_P(SeededDifferential, BatchedFloodMatchesScalarOverRandomTopologies) {
  const std::uint64_t seed = GetParam();
  Rng topo_rng(seed * 104729 + 3);
  FloodOptions options;
  options.duplicate_suppression = true;
  for (int t = 0; t < 125; ++t) {
    const std::size_t n = 12 + topo_rng.uniform_below(36);
    const Graph g = random_graph(n, topo_rng.uniform_below(32), topo_rng);
    const CsrGraph csr = CsrGraph::from_graph(g);
    const ObjectCatalog catalog(n, 3, 0.1, seed + t);
    options.ttl = 2 + static_cast<std::uint32_t>(topo_rng.uniform_below(4));
    FloodEngine engine(csr, options);
    ASSERT_TRUE(engine.supports_query_batching());

    std::vector<BatchQueryJob> jobs(6);
    for (std::size_t q = 0; q < jobs.size(); ++q) {
      jobs[q] = {static_cast<NodeId>(topo_rng.uniform_below(n)),
                 static_cast<ObjectId>(topo_rng.uniform_below(3)),
                 Rng(seed ^ (q + 1))};
    }
    std::vector<QueryResult> batched(jobs.size());
    QueryWorkspace batch_ws;
    engine.run_many(jobs, catalog, batch_ws, batched.data());

    QueryWorkspace scalar_ws;
    for (std::size_t q = 0; q < jobs.size(); ++q) {
      scalar_ws.rng() = jobs[q].rng;
      const QueryResult scalar =
          engine.run(jobs[q].source, jobs[q].object, catalog, scalar_ws);
      expect_same_result(batched[q], scalar, "flood-batch", seed + t);
    }
  }
}

// Message-cap overflow: queries that cross the cap are stripped from the
// batch and re-run scalar; their truncated results — and everyone else's
// untruncated ones — must still match the scalar engine exactly.
TEST_P(SeededDifferential, BatchedFloodMessageCapFallbackMatchesScalar) {
  const std::uint64_t seed = GetParam();
  Rng topo_rng(seed * 31 + 7);
  FloodOptions options;
  options.duplicate_suppression = true;
  options.ttl = 4;
  for (int t = 0; t < 20; ++t) {
    const std::size_t n = 20 + topo_rng.uniform_below(24);
    const Graph g = random_graph(n, 30, topo_rng);
    const CsrGraph csr = CsrGraph::from_graph(g);
    const ObjectCatalog catalog(n, 2, 0.1, seed + t);
    // Caps low enough that some queries truncate mid-hop and some don't.
    options.message_cap = 5 + topo_rng.uniform_below(60);
    FloodEngine engine(csr, options);

    std::vector<BatchQueryJob> jobs(5);
    for (std::size_t q = 0; q < jobs.size(); ++q) {
      jobs[q] = {static_cast<NodeId>(topo_rng.uniform_below(n)),
                 static_cast<ObjectId>(topo_rng.uniform_below(2)),
                 Rng(seed ^ (q + 17))};
    }
    std::vector<QueryResult> batched(jobs.size());
    QueryWorkspace batch_ws;
    engine.run_many(jobs, catalog, batch_ws, batched.data());

    QueryWorkspace scalar_ws;
    for (std::size_t q = 0; q < jobs.size(); ++q) {
      scalar_ws.rng() = jobs[q].rng;
      const QueryResult scalar =
          engine.run(jobs[q].source, jobs[q].object, catalog, scalar_ws);
      expect_same_result(batched[q], scalar, "flood-cap", seed + t);
    }
  }
}

// Gossip floods batch only inside the deterministic boundary (no RNG is
// consumed there); within it they must match the scalar gossip run.
TEST_P(SeededDifferential, BatchedGossipFloodMatchesScalarInsideBoundary) {
  const std::uint64_t seed = GetParam();
  Rng topo_rng(seed * 613 + 5);
  GossipFloodOptions options;
  options.ttl = 3;
  options.boundary_hops = 4;  // ttl <= boundary: fully deterministic
  for (int t = 0; t < 20; ++t) {
    const std::size_t n = 16 + topo_rng.uniform_below(24);
    const Graph g = random_graph(n, topo_rng.uniform_below(24), topo_rng);
    const CsrGraph csr = CsrGraph::from_graph(g);
    const ObjectCatalog catalog(n, 2, 0.15, seed + t);
    GossipFloodEngine engine(csr, options);
    ASSERT_TRUE(engine.supports_query_batching());

    std::vector<BatchQueryJob> jobs(4);
    for (std::size_t q = 0; q < jobs.size(); ++q) {
      jobs[q] = {static_cast<NodeId>(topo_rng.uniform_below(n)),
                 static_cast<ObjectId>(topo_rng.uniform_below(2)),
                 Rng(seed ^ (q + 5))};
    }
    std::vector<QueryResult> batched(jobs.size());
    QueryWorkspace batch_ws;
    engine.run_many(jobs, catalog, batch_ws, batched.data());

    QueryWorkspace scalar_ws;
    for (std::size_t q = 0; q < jobs.size(); ++q) {
      scalar_ws.rng() = jobs[q].rng;
      const QueryResult scalar =
          engine.run(jobs[q].source, jobs[q].object, catalog, scalar_ws);
      expect_same_result(batched[q], scalar, "gossip-batch", seed + t);
    }
  }

  // Past the boundary each forward draws randomness a coalesced frontier
  // cannot replay: the engine must refuse to batch, not drift.
  options.ttl = 6;
  options.boundary_hops = 2;
  const Graph g = random_graph(16, 8, topo_rng);
  const CsrGraph csr = CsrGraph::from_graph(g);
  EXPECT_FALSE(GossipFloodEngine(csr, options).supports_query_batching());
}

INSTANTIATE_TEST_SUITE_P(BatchedFloodDifferential, SeededDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// --- driver: batch flag and thread count are result-invariant --------------

void expect_same_aggregate(const QueryAggregate& a, const QueryAggregate& b) {
  EXPECT_EQ(a.queries(), b.queries());
  EXPECT_EQ(a.success_rate(), b.success_rate());
  EXPECT_EQ(a.mean_messages(), b.mean_messages());
  EXPECT_EQ(a.mean_duplicates(), b.mean_duplicates());
  EXPECT_EQ(a.duplicate_fraction(), b.duplicate_fraction());
  EXPECT_EQ(a.mean_nodes_visited(), b.mean_nodes_visited());
  EXPECT_EQ(a.mean_replicas_found(), b.mean_replicas_found());
  EXPECT_EQ(a.mean_messages_per_forwarder(), b.mean_messages_per_forwarder());
  EXPECT_EQ(a.hit_hops().count(), b.hit_hops().count());
}

TEST(BatchedDriverDifferential, BatchFlagAndThreadCountPreserveAggregates) {
  Rng topo_rng(4242);
  const std::size_t n = 300;
  const Graph g = random_graph(n, 450, topo_rng);
  const CsrGraph csr = CsrGraph::from_graph(g);
  const ObjectCatalog catalog(n, 8, 0.02, 9);
  FloodOptions options;
  options.ttl = 3;
  const FloodEngine engine(csr, options);

  BatchQueryOptions query_options;
  query_options.queries = 200;  // spans several 64-wide batches per chunk
  query_options.seed = 77;

  query_options.batch = false;
  const QueryAggregate scalar =
      ParallelQueryDriver(1).run_batch(engine, catalog, query_options);

  query_options.batch = true;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const QueryAggregate batched = ParallelQueryDriver(threads).run_batch(
        engine, catalog, query_options);
    expect_same_aggregate(batched, scalar);
  }

  // An engine that cannot batch (suppression-off ablation) silently runs
  // the scalar loop under batch=true — same results, no surprises.
  FloodOptions no_suppression = options;
  no_suppression.duplicate_suppression = false;
  no_suppression.message_cap = 100'000;
  const FloodEngine ablation(csr, no_suppression);
  EXPECT_FALSE(ablation.supports_query_batching());
  query_options.batch = false;
  const QueryAggregate ab_scalar =
      ParallelQueryDriver(1).run_batch(ablation, catalog, query_options);
  query_options.batch = true;
  const QueryAggregate ab_batched =
      ParallelQueryDriver(2).run_batch(ablation, catalog, query_options);
  expect_same_aggregate(ab_batched, ab_scalar);
}

// Attaching a metrics registry must not perturb batched results (obs
// records are buffered and filtered, never fed back into the search).
TEST(BatchedDriverDifferential, MetricsAttachmentDoesNotPerturbResults) {
  Rng topo_rng(555);
  const std::size_t n = 120;
  const Graph g = random_graph(n, 180, topo_rng);
  const CsrGraph csr = CsrGraph::from_graph(g);
  const ObjectCatalog catalog(n, 4, 0.05, 3);
  const FloodEngine engine(csr, FloodOptions{.ttl = 3});

  BatchQueryOptions query_options;
  query_options.queries = 100;
  query_options.seed = 13;
  query_options.batch = true;
  const QueryAggregate bare =
      ParallelQueryDriver(1).run_batch(engine, catalog, query_options);

  obs::MetricsRegistry registry;
  query_options.metrics = &registry;
  const QueryAggregate observed =
      ParallelQueryDriver(2).run_batch(engine, catalog, query_options);
  expect_same_aggregate(observed, bare);

  // The batch counters actually ticked (100 queries / 64-wide batches).
  const auto snapshot = registry.snapshot();
  const obs::MetricValue* batches = snapshot.find("search.batches");
  ASSERT_NE(batches, nullptr);
  EXPECT_GE(batches->count, 2u);
  const obs::MetricValue* batched_q = snapshot.find("search.batched_queries");
  ASSERT_NE(batched_q, nullptr);
  EXPECT_EQ(batched_q->count, 100u);
}

}  // namespace
}  // namespace makalu
