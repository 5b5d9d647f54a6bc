// Differential suite for the ABF routing-table layouts (bloom/abf_table,
// search/abf_search TableLayout wiring).
//
// Contracts, by layout:
//  - kPooledStack: golden routes. Its QueryResults over ~1k seeded
//    topologies, scalar, batched and through the driver at 1, 2 and 8
//    threads, must reproduce recorded digests.
//  - kBlockedDelta: the per-node base + sole-contributor deltas is NOT
//    bit-identical (echo walks widen the false-positive set), so it ships
//    with (a) a hard no-false-negative oracle — every key the exact
//    advertisement recursion truly carries must pass the blocked arc
//    filter — and (b) a corpus-aggregate quality gate: success rate
//    within 0.5 pp and messages/query within 2% of kPooledStack.
//  - One hop's scoring (BlockedAbfTable::match_arcs) prunes levels by the
//    owner's own stack and vetoes deltas with AVX2; its masks must equal
//    probing every level and the scalar veto, in every table state the
//    build and churn paths reach.
//  - Incremental churn on the blocked table (insert wave or counting
//    wave, then the flip census) must land on exactly the from-scratch
//    table, delta rows included (BlockedAbfTable::equals) — on small
//    sparse graphs and on hub rows of a power-law overlay with a binding
//    delta_cap. Past counter saturation, where equality no longer holds,
//    the base must stay the counters' projection and every delta row the
//    census of that base.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "analysis/parallel_query_driver.hpp"
#include "bloom/abf_table.hpp"
#include "search/abf_search.hpp"
#include "topology/generators.hpp"
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
  EXPECT_EQ(a.nodes_visited, b.nodes_visited) << what << " seed=" << seed;
  EXPECT_EQ(a.first_hit_hop, b.first_hit_hop) << what << " seed=" << seed;
  EXPECT_EQ(a.replicas_found, b.replicas_found) << what << " seed=" << seed;
}

AbfOptions layout_options(TableLayout layout) {
  AbfOptions options;
  options.depth = 3;
  options.level_params = {/*bits=*/256, /*hashes=*/3};
  options.ttl = 25;
  options.layout = layout;
  // Match the pooled width so the blocked layout's only divergence is the
  // base/delta approximation itself, not a narrower bit domain.
  options.blocked_level_bits = 256;
  return options;
}

class TableDifferential : public ::testing::TestWithParam<std::uint64_t> {};

// --- kPooledStack: golden routes -------------------------------------------

// Digests of the pooled layout's routes, one per seed, recorded when these
// tests still compared it with the heap AttenuatedBloomFilter layout query
// by query and found them equal.
constexpr std::uint64_t kScalarRouteDigest[8] = {
    0xda0f62e6ed4ee227ULL, 0x594e5a4bbb27374dULL, 0xdac0bfd7ca244824ULL,
    0x412711200d4f6680ULL, 0x3d2b6ef7d2ed7006ULL, 0x991ef21aa8657601ULL,
    0x198810261272b6e4ULL, 0xcc58a016ebce3228ULL};
constexpr std::uint64_t kBatchedRouteDigest[8] = {
    0xdd4282e57d8e73a5ULL, 0xc9bd6233aa3e40b3ULL, 0xc66f7207c2967344ULL,
    0xc836c3c1eb568a77ULL, 0xa5625268f4f55ca0ULL, 0xe3b67bd92d8c0669ULL,
    0xba09144c825ccae4ULL, 0x9fe3676ad712fde1ULL};
constexpr std::uint64_t kDriverDigest[8] = {
    0x680b348ef4aa959fULL, 0x9bc61f035ab40de2ULL, 0x35955b2f56fe8012ULL,
    0x8649369d9255eb83ULL, 0xd16aabfb73f55839ULL, 0xf8eb4beef3238735ULL,
    0x6aec49b197f9c919ULL, 0x2b96312e9bf40a25ULL};

// 8 param seeds x 125 inner topologies = 1000 seeded topologies, routed
// through both the scalar route() and the batched run_many() entry points.
TEST_P(TableDifferential, PooledStackRoutesIdenticallyToLegacy) {
  const std::uint64_t seed = GetParam();
  Rng topo_rng(seed * 2731 + 17);
  std::uint64_t scalar_digest = testing::kDigestSeed;
  std::uint64_t batched_digest = testing::kDigestSeed;
  for (int t = 0; t < 125; ++t) {
    const std::size_t n = 24 + topo_rng.uniform_below(40);
    const Graph g = random_graph(n, topo_rng.uniform_below(48), topo_rng);
    const CsrGraph csr = CsrGraph::from_graph(g);
    const ObjectCatalog catalog(n, 4, 0.08, seed * 1000 + t);
    const AbfRouter pooled(csr, catalog,
                           layout_options(TableLayout::kPooledStack));

    for (std::uint64_t q = 0; q < 4; ++q) {
      const NodeId source = static_cast<NodeId>(topo_rng.uniform_below(n));
      const ObjectId object =
          static_cast<ObjectId>(topo_rng.uniform_below(4));
      QueryWorkspace ws;
      ws.seed_rng(seed, q);
      scalar_digest = testing::fold_result(
          scalar_digest, pooled.route(source, object, 25, ws));
    }

    std::vector<BatchQueryJob> jobs(6);
    for (std::size_t q = 0; q < jobs.size(); ++q) {
      jobs[q] = {static_cast<NodeId>(topo_rng.uniform_below(n)),
                 static_cast<ObjectId>(topo_rng.uniform_below(4)),
                 Rng(seed * 977 + q)};
    }
    std::vector<QueryResult> results(jobs.size());
    QueryWorkspace ws;
    pooled.run_many(jobs, catalog, ws, results.data());
    for (const QueryResult& r : results) {
      batched_digest = testing::fold_result(batched_digest, r);
    }
  }
  EXPECT_EQ(scalar_digest, kScalarRouteDigest[seed - 1]) << "seed=" << seed;
  EXPECT_EQ(batched_digest, kBatchedRouteDigest[seed - 1])
      << "seed=" << seed;
}

// Driver-level sweep: the ParallelQueryDriver aggregate must not depend
// on the thread count (1, 2, 8) or on batching, and every configuration's
// per-query results must reproduce the recorded digest.
TEST_P(TableDifferential, PooledStackDriverAggregatesMatchLegacy) {
  const std::uint64_t seed = GetParam();
  Rng topo_rng(seed * 911 + 3);
  std::vector<std::uint64_t> digests(6, testing::kDigestSeed);
  for (int t = 0; t < 4; ++t) {
    const std::size_t n = 150 + topo_rng.uniform_below(100);
    const Graph g = random_graph(n, n, topo_rng);
    const CsrGraph csr = CsrGraph::from_graph(g);
    const ObjectCatalog catalog(n, 6, 0.03, seed * 37 + t);
    const AbfRouter pooled(csr, catalog,
                           layout_options(TableLayout::kPooledStack));

    BatchQueryOptions query_options;
    query_options.queries = 120;  // spans two 64-wide batches
    query_options.seed = seed * 53 + t;
    query_options.batch = false;
    const QueryAggregate baseline =
        ParallelQueryDriver(1).run_batch(pooled, catalog, query_options);

    std::size_t config = 0;
    for (const bool batch : {false, true}) {
      query_options.batch = batch;
      for (const std::size_t threads : {1u, 2u, 8u}) {
        std::uint64_t& digest = digests[config++];
        query_options.trace_sink = [&digest](const QueryTrace& trace) {
          digest = testing::fold_result(digest, trace.result);
        };
        const QueryAggregate agg = ParallelQueryDriver(threads).run_batch(
            pooled, catalog, query_options);
        EXPECT_EQ(agg.queries(), baseline.queries());
        EXPECT_EQ(agg.success_rate(), baseline.success_rate())
            << "batch=" << batch << " threads=" << threads;
        EXPECT_EQ(agg.mean_messages(), baseline.mean_messages())
            << "batch=" << batch << " threads=" << threads;
        EXPECT_EQ(agg.mean_nodes_visited(), baseline.mean_nodes_visited())
            << "batch=" << batch << " threads=" << threads;
      }
    }
  }
  for (std::size_t config = 0; config < digests.size(); ++config) {
    EXPECT_EQ(digests[config], kDriverDigest[seed - 1])
        << "seed=" << seed << " config=" << config;
  }
}

// --- kBlockedDelta: no false negatives -------------------------------------

// Reference advertisement node-sets, computed straight from the paper's
// recursion: R(v->u, 0) = {v}, R(v->u, l) = U_{w in N(v)\{u}} R(w->v, l-1).
// Every key stored on a node in R(v->u, l) is truly advertised at that
// (arc, level); the blocked base-minus-delta filter must never reject it.
TEST_P(TableDifferential, BlockedDeltaNeverFalseNegative) {
  const std::uint64_t seed = GetParam();
  Rng topo_rng(seed * 499 + 29);
  for (int t = 0; t < 10; ++t) {
    const std::size_t n = 16 + topo_rng.uniform_below(24);
    const Graph g = random_graph(n, topo_rng.uniform_below(24), topo_rng);
    const CsrGraph csr = CsrGraph::from_graph(g);
    const ObjectCatalog catalog(n, 4, 0.1, seed * 71 + t);
    AbfOptions options = layout_options(TableLayout::kBlockedDelta);
    const AbfRouter router(csr, catalog, options);
    const BlockedAbfTable* table = router.blocked_table();
    ASSERT_NE(table, nullptr);

    // arc_sets[arc u->v][l] = R(v->u, l), arcs indexed owner-major in CSR
    // row order (matching neighbor_local_index).
    std::vector<std::size_t> arc_base(n + 1, 0);
    for (NodeId u = 0; u < n; ++u) {
      arc_base[u + 1] = arc_base[u] + csr.degree(u);
    }
    std::vector<std::vector<std::set<NodeId>>> arc_sets(
        arc_base.back(), std::vector<std::set<NodeId>>(options.depth));
    for (NodeId u = 0; u < n; ++u) {
      const auto nbrs = csr.neighbors(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        arc_sets[arc_base[u] + i][0] = {nbrs[i]};
      }
    }
    for (std::size_t level = 1; level < options.depth; ++level) {
      for (NodeId u = 0; u < n; ++u) {
        const auto nbrs = csr.neighbors(u);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const NodeId v = nbrs[i];
          const auto v_nbrs = csr.neighbors(v);
          auto& out = arc_sets[arc_base[u] + i][level];
          for (std::size_t j = 0; j < v_nbrs.size(); ++j) {
            if (v_nbrs[j] == u) continue;
            const auto& in = arc_sets[arc_base[v] + j][level - 1];
            out.insert(in.begin(), in.end());
          }
        }
      }
    }

    for (NodeId u = 0; u < n; ++u) {
      const auto nbrs = csr.neighbors(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        for (std::size_t level = 0; level < options.depth; ++level) {
          for (const NodeId w : arc_sets[arc_base[u] + i][level]) {
            for (const ObjectId obj : catalog.objects_on(w)) {
              EXPECT_TRUE(table->arc_maybe_contains(
                  u, nbrs[i], i, level, ObjectCatalog::object_key(obj)))
                  << "false negative: arc " << u << "->" << nbrs[i]
                  << " level " << level << " object " << obj
                  << " seed=" << seed * 71 + t;
            }
          }
        }
      }
    }
  }
}

// --- kBlockedDelta: corpus-aggregate quality gate --------------------------

// The blocked layout's false-positive widening may perturb individual
// routes, but over the corpus the routing quality must hold: success rate
// within 0.5 pp and mean messages/query within 2% of the exact table.
TEST(BlockedDeltaQuality, SuccessAndMessagesWithinGateOverCorpus) {
  std::uint64_t pooled_success = 0;
  std::uint64_t blocked_success = 0;
  std::uint64_t pooled_messages = 0;
  std::uint64_t blocked_messages = 0;
  std::uint64_t queries = 0;

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng topo_rng(seed * 1543 + 7);
    for (int t = 0; t < 25; ++t) {
      const std::size_t n = 48 + topo_rng.uniform_below(64);
      const Graph g =
          random_graph(n, topo_rng.uniform_below(64), topo_rng);
      const CsrGraph csr = CsrGraph::from_graph(g);
      const ObjectCatalog catalog(n, 6, 0.05, seed * 211 + t);

      const AbfRouter pooled(csr, catalog,
                             layout_options(TableLayout::kPooledStack));
      const AbfRouter blocked(csr, catalog,
                              layout_options(TableLayout::kBlockedDelta));

      for (std::uint64_t q = 0; q < 8; ++q) {
        const NodeId source =
            static_cast<NodeId>(topo_rng.uniform_below(n));
        const ObjectId object =
            static_cast<ObjectId>(topo_rng.uniform_below(6));
        QueryWorkspace ws_a;
        ws_a.seed_rng(seed, q);
        QueryWorkspace ws_b;
        ws_b.seed_rng(seed, q);
        const QueryResult a = pooled.route(source, object, 25, ws_a);
        const QueryResult b = blocked.route(source, object, 25, ws_b);
        pooled_success += a.success ? 1 : 0;
        blocked_success += b.success ? 1 : 0;
        pooled_messages += a.messages;
        blocked_messages += b.messages;
        ++queries;
      }
    }
  }

  const double success_delta_pp =
      (static_cast<double>(blocked_success) -
       static_cast<double>(pooled_success)) /
      static_cast<double>(queries) * 100.0;
  const double pooled_mean =
      static_cast<double>(pooled_messages) / static_cast<double>(queries);
  const double blocked_mean =
      static_cast<double>(blocked_messages) / static_cast<double>(queries);
  EXPECT_LE(std::abs(success_delta_pp), 0.5)
      << "pooled=" << pooled_success << "/" << queries
      << " blocked=" << blocked_success << "/" << queries;
  EXPECT_LE(std::abs(blocked_mean - pooled_mean) / pooled_mean, 0.02)
      << "pooled mean=" << pooled_mean << " blocked mean=" << blocked_mean;
}

// Batched blocked routing must agree with scalar blocked routing exactly
// (the approximation lives in the table, never in the walker scheduling).
TEST_P(TableDifferential, BlockedBatchedWalkersMatchScalar) {
  const std::uint64_t seed = GetParam();
  Rng topo_rng(seed * 6007 + 1);
  for (int t = 0; t < 8; ++t) {
    const std::size_t n = 48 + topo_rng.uniform_below(48);
    const Graph g = random_graph(n, topo_rng.uniform_below(60), topo_rng);
    const CsrGraph csr = CsrGraph::from_graph(g);
    const ObjectCatalog catalog(n, 5, 0.06, seed * 131 + t);
    AbfOptions options = layout_options(TableLayout::kBlockedDelta);
    options.ttl = 20;
    const AbfRouter router(csr, catalog, options);

    const std::size_t jobs_n = (t == 0) ? 70 : 9;
    std::vector<BatchQueryJob> jobs(jobs_n);
    for (std::size_t q = 0; q < jobs_n; ++q) {
      jobs[q] = {static_cast<NodeId>(topo_rng.uniform_below(n)),
                 static_cast<ObjectId>(topo_rng.uniform_below(5)),
                 Rng(seed * 17 + q)};
    }
    std::vector<QueryResult> batched(jobs_n);
    QueryWorkspace batch_ws;
    router.run_many(jobs, catalog, batch_ws, batched.data());
    for (std::size_t q = 0; q < jobs_n; ++q) {
      QueryWorkspace scalar_ws;
      scalar_ws.rng() = jobs[q].rng;
      const QueryResult scalar =
          router.run(jobs[q].source, jobs[q].object, catalog, scalar_ws);
      expect_same_result(batched[q], scalar, "blocked-batched", seed);
    }
  }
}

// Every match kernel must agree on the blocked layout too (the base mask
// and the delta veto are both kernel-computed).
TEST_P(TableDifferential, BlockedKernelsRouteIdentically) {
  const std::uint64_t seed = GetParam();
  Rng topo_rng(seed * 331 + 13);
  for (int t = 0; t < 10; ++t) {
    const std::size_t n = 24 + topo_rng.uniform_below(32);
    const Graph g = random_graph(n, topo_rng.uniform_below(40), topo_rng);
    const CsrGraph csr = CsrGraph::from_graph(g);
    const ObjectCatalog catalog(n, 4, 0.08, seed * 41 + t);
    const AbfRouter router(csr, catalog,
                           layout_options(TableLayout::kBlockedDelta));

    std::vector<MatchKernel> modes = {MatchKernel::kReference,
                                      MatchKernel::kPortable,
                                      MatchKernel::kAuto};
    if (resolved_match_kernel() == MatchKernel::kAvx2) {
      modes.push_back(MatchKernel::kAvx2);
    }
    for (std::uint64_t q = 0; q < 4; ++q) {
      const NodeId source = static_cast<NodeId>(topo_rng.uniform_below(n));
      const ObjectId object =
          static_cast<ObjectId>(topo_rng.uniform_below(4));
      QueryResult baseline;
      for (std::size_t m = 0; m < modes.size(); ++m) {
        const testing::KernelOverride forced(modes[m]);
        QueryWorkspace ws;
        ws.seed_rng(seed, q);
        const QueryResult r = router.route(source, object, 30, ws);
        if (m == 0) {
          baseline = r;
        } else {
          expect_same_result(r, baseline, "blocked-kernel", seed);
        }
      }
    }
  }
}

// --- kBlockedDelta churn: incremental equals rebuild -----------------------

// notify_insert's node wave + flip census must land on exactly the table
// a from-scratch build over the updated catalog produces — base bits AND
// delta rows (BlockedAbfTable::equals compares both).
TEST_P(TableDifferential, BlockedInsertWaveEqualsRebuild) {
  const std::uint64_t seed = GetParam();
  Rng topo_rng(seed * 7207 + 5);
  for (int t = 0; t < 6; ++t) {
    const std::size_t n = 24 + topo_rng.uniform_below(24);
    const Graph g = random_graph(n, topo_rng.uniform_below(24), topo_rng);
    const CsrGraph csr = CsrGraph::from_graph(g);
    ObjectCatalog catalog(n, 4, 0.06, seed * 101 + t);
    const AbfOptions options = layout_options(TableLayout::kBlockedDelta);
    AbfRouter incremental(csr, catalog, options);

    for (int step = 0; step < 4; ++step) {
      const auto holder = static_cast<NodeId>(topo_rng.uniform_below(n));
      const auto object = static_cast<ObjectId>(topo_rng.uniform_below(4));
      catalog.add_replica(object, holder);
      incremental.notify_insert(holder, object);
    }
    const AbfRouter rebuilt(csr, catalog, options);
    EXPECT_TRUE(incremental.blocked_table()->equals(*rebuilt.blocked_table()))
        << "insert wave diverged from rebuild, seed=" << seed * 101 + t;
  }
}

// With counting maintenance, notify_remove drains a counter wave instead
// of rebuilding; while no counter saturates the result must equal the
// from-scratch table exactly — counters, base bits, and delta rows.
TEST_P(TableDifferential, CountingRemoveEqualsRebuild) {
  const std::uint64_t seed = GetParam();
  Rng topo_rng(seed * 353 + 9);
  for (int t = 0; t < 6; ++t) {
    const std::size_t n = 20 + topo_rng.uniform_below(20);
    // Sparse (ring + few chords) keeps walk multiplicities far from the
    // counter saturation point, where incremental = rebuild is exact.
    const Graph g = random_graph(n, 6, topo_rng);
    const CsrGraph csr = CsrGraph::from_graph(g);
    ObjectCatalog catalog(n, 3, 0.15, seed * 61 + t);
    AbfOptions options = layout_options(TableLayout::kBlockedDelta);
    options.counting_maintenance = true;
    AbfRouter incremental(csr, catalog, options);
    ASSERT_NE(incremental.counting_table(), nullptr);

    // Interleave inserts and removes of real replicas.
    for (int step = 0; step < 6; ++step) {
      const auto object = static_cast<ObjectId>(topo_rng.uniform_below(3));
      if (topo_rng.chance(0.5) || catalog.holders(object).empty()) {
        const auto holder =
            static_cast<NodeId>(topo_rng.uniform_below(n));
        if (catalog.node_has_object(holder, object)) continue;
        catalog.add_replica(object, holder);
        incremental.notify_insert(holder, object);
      } else {
        const auto& holders = catalog.holders(object);
        const NodeId holder = holders.front();
        catalog.remove_replica(object, holder);
        incremental.notify_remove(holder, object);
      }
    }
    AbfRouter rebuilt(csr, catalog, options);
    EXPECT_TRUE(
        incremental.counting_table()->equals(*rebuilt.counting_table()))
        << "counting table diverged, seed=" << seed * 61 + t;
    EXPECT_TRUE(
        incremental.blocked_table()->equals(*rebuilt.blocked_table()))
        << "blocked projection diverged, seed=" << seed * 61 + t;
  }
}

// The write path at a hub: a few-hundred-node power-law overlay whose
// largest CSR row passes 64 arcs, counting maintenance, and delta_cap = 2
// so the cap truncates sole-contributor buckets on long rows (every delta
// splice there lands mid-row in a long sorted row). Saturating sums of
// non-negative inserts commute, so insert-only churn must equal a fresh
// build exactly — counters, base bits and delta rows — even where hub
// counters saturate. Removes cannot undo a saturated counter, so after a
// remove phase only the one-sided guarantee holds: the maintained base
// covers a fresh build's.
TEST_P(TableDifferential, HubRowsCappedDeltasInsertEqualsRebuild) {
  const std::uint64_t seed = GetParam();
  PowerLawParameters plp;
  plp.exponent = 2.0;
  plp.min_degree = 2;
  plp.max_degree = 200;
  const std::size_t n = 300;
  const CsrGraph csr = CsrGraph::from_graph(
      PowerLawGenerator(plp).generate(n, seed * 977 + 13));
  std::size_t widest = 0;
  for (NodeId v = 0; v < n; ++v) widest = std::max(widest, csr.degree(v));
  ASSERT_GT(widest, 64u) << "seed=" << seed;

  ObjectCatalog catalog(n, 8, 0.02, seed * 31 + 7);
  AbfOptions options = layout_options(TableLayout::kBlockedDelta);
  options.counting_maintenance = true;
  options.delta_cap = 2;
  AbfRouter incremental(csr, catalog, options);
  {
    AbfOptions uncapped = options;
    uncapped.delta_cap = 256;
    const AbfRouter wide(csr, catalog, uncapped);
    ASSERT_GT(wide.blocked_table()->delta_entry_count(),
              incremental.blocked_table()->delta_entry_count())
        << "delta_cap = 2 never binds, seed=" << seed;
  }

  Rng churn(seed * 4241 + 3);
  for (int step = 0; step < 24; ++step) {
    const auto holder = static_cast<NodeId>(churn.uniform_below(n));
    const auto object = static_cast<ObjectId>(churn.uniform_below(8));
    if (catalog.node_has_object(holder, object)) continue;
    catalog.add_replica(object, holder);
    incremental.notify_insert(holder, object);
  }
  {
    const AbfRouter rebuilt(csr, catalog, options);
    EXPECT_TRUE(
        incremental.counting_table()->equals(*rebuilt.counting_table()))
        << "counting table diverged after inserts, seed=" << seed;
    EXPECT_TRUE(
        incremental.blocked_table()->equals(*rebuilt.blocked_table()))
        << "blocked table diverged after inserts, seed=" << seed;
  }

  for (int step = 0; step < 24; ++step) {
    const auto object = static_cast<ObjectId>(churn.uniform_below(8));
    const auto& holders = catalog.holders(object);
    if (holders.size() < 2) continue;
    const NodeId holder = holders[churn.uniform_below(holders.size())];
    catalog.remove_replica(object, holder);
    incremental.notify_remove(holder, object);
  }
  const AbfRouter rebuilt(csr, catalog, options);
  const BlockedAbfTable& live = *incremental.blocked_table();
  const BlockedAbfTable& want = *rebuilt.blocked_table();
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t l = 0; l < live.depth(); ++l) {
      const std::uint64_t* lw = live.level_words(v, l);
      const std::uint64_t* ww = want.level_words(v, l);
      for (std::size_t w = 0; w < live.words_per_level(); ++w) {
        ASSERT_EQ(lw[w] | ww[w], lw[w])
            << "maintained base lost a bit, seed=" << seed << " node=" << v
            << " level=" << l;
      }
    }
  }
}

// --- kBlockedDelta churn past saturation: the maintained invariants -------

// The blocked base is the counting mirror's projection (bit set iff
// counter nonzero), word for word.
::testing::AssertionResult base_is_projection(const AbfRouter& router) {
  const BlockedAbfTable& table = *router.blocked_table();
  const CountingAbfTable& mirror = *router.counting_table();
  std::vector<std::uint64_t> want(table.words_per_level());
  for (NodeId v = 0; v < table.node_count(); ++v) {
    for (std::size_t l = 0; l < table.depth(); ++l) {
      std::fill(want.begin(), want.end(), 0);
      for (std::size_t pos = 0; pos < mirror.bits(); ++pos) {
        if (mirror.count(v, l, pos) != 0) {
          want[pos / 64] |= 1ULL << (pos % 64);
        }
      }
      const std::uint64_t* have = table.level_words(v, l);
      for (std::size_t w = 0; w < want.size(); ++w) {
        if (have[w] != want[w]) {
          return ::testing::AssertionFailure()
                 << "base is not the projection at node " << v << " level "
                 << l << " word " << w;
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Every delta row equals a from-scratch sole-contributor census of the
// maintained base: for arc u->v at level l, the first delta_cap positions
// that u alone among N(v) sets at level l-1.
::testing::AssertionResult deltas_are_census(const AbfRouter& router,
                                             const CsrGraph& csr,
                                             std::size_t delta_cap) {
  const BlockedAbfTable& table = *router.blocked_table();
  const std::size_t bits = table.bits_per_level();
  std::vector<std::vector<std::uint32_t>> want(csr.node_count());
  std::vector<std::uint32_t> count(bits);
  std::vector<std::uint32_t> last(bits);
  for (NodeId v = 0; v < csr.node_count(); ++v) {
    const auto nbrs = csr.neighbors(v);
    for (std::size_t l = 1; l < table.depth(); ++l) {
      std::fill(count.begin(), count.end(), 0);
      for (std::size_t j = 0; j < nbrs.size(); ++j) {
        const std::uint64_t* words = table.level_words(nbrs[j], l - 1);
        for (std::size_t pos = 0; pos < bits; ++pos) {
          if ((words[pos / 64] >> (pos % 64) & 1) == 0) continue;
          ++count[pos];
          last[pos] = static_cast<std::uint32_t>(j);
        }
      }
      std::vector<std::size_t> taken(nbrs.size(), 0);
      for (std::size_t pos = 0; pos < bits; ++pos) {
        if (count[pos] != 1 || taken[last[pos]] == delta_cap) continue;
        ++taken[last[pos]];
        const NodeId u = nbrs[last[pos]];
        const std::size_t arc_local = router.neighbor_local_index(u, v);
        if (arc_local >= BlockedAbfTable::kMaxDeltaArcLocal) continue;
        want[u].push_back(BlockedAbfTable::encode_delta_entry(
            arc_local, l, static_cast<std::uint16_t>(pos)));
      }
    }
  }
  for (NodeId u = 0; u < csr.node_count(); ++u) {
    std::sort(want[u].begin(), want[u].end());
    const auto have = table.owner_deltas(u);
    if (!std::equal(have.begin(), have.end(), want[u].begin(),
                    want[u].end())) {
      return ::testing::AssertionFailure()
             << "delta row of owner " << u << " is not the census ("
             << have.size() << " entries, census " << want[u].size() << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// The witness rule behind BlockedAbfTable::match_arcs: every neighbor's
// level l is a subset of the node's own level l+1.
::testing::AssertionResult witness_holds(const BlockedAbfTable& table,
                                         const CsrGraph& csr) {
  for (NodeId v = 0; v < csr.node_count(); ++v) {
    for (std::size_t l = 0; l + 1 < table.depth(); ++l) {
      const std::uint64_t* own = table.level_words(v, l + 1);
      for (const NodeId w : csr.neighbors(v)) {
        const std::uint64_t* theirs = table.level_words(w, l);
        for (std::size_t i = 0; i < table.words_per_level(); ++i) {
          if ((theirs[i] & ~own[i]) != 0) {
            return ::testing::AssertionFailure()
                   << "level " << l << " of node " << w
                   << " is not covered by level " << l + 1 << " of " << v;
          }
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// match_arcs (witness-pruned levels, the mode's veto) must give exactly
// the masks of probing every level and running the scalar veto, for
// every node's row, under every kernel, for `keys` object keys.
::testing::AssertionResult pruned_masks_match_full(
    const BlockedAbfTable& table, const CsrGraph& csr, std::size_t keys) {
  std::vector<MatchKernel> modes = {MatchKernel::kReference,
                                    MatchKernel::kPortable,
                                    MatchKernel::kAuto};
  if (resolved_match_kernel() == MatchKernel::kAvx2) {
    modes.push_back(MatchKernel::kAvx2);
  }
  std::vector<std::uint32_t> full;
  std::vector<std::uint32_t> pruned;
  for (std::size_t k = 0; k < keys; ++k) {
    const BlockedProbeSet probes =
        table.make_probe_set(ObjectCatalog::object_key(k));
    for (NodeId v = 0; v < csr.node_count(); ++v) {
      const auto nbrs = csr.neighbors(v);
      full.assign(nbrs.size(), 0);
      table.match_nodes(nbrs.data(), nbrs.size(), probes, full.data(),
                        MatchKernel::kReference);
      table.apply_deltas(v, probes, full.data(), nbrs.size(),
                         MatchKernel::kReference);
      for (const MatchKernel mode : modes) {
        pruned.assign(nbrs.size(), 0xFFFFFFFFu);
        table.match_arcs(v, nbrs, probes, pruned.data(), mode);
        if (pruned != full) {
          return ::testing::AssertionFailure()
                 << "pruned masks differ at node " << v << " key " << k
                 << " kernel " << match_kernel_name(mode);
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

CsrGraph hub_overlay(std::uint64_t seed) {
  PowerLawParameters plp;
  plp.exponent = 2.0;
  plp.min_degree = 2;
  plp.max_degree = 200;
  return CsrGraph::from_graph(
      PowerLawGenerator(plp).generate(300, seed * 977 + 13));
}

// Once a counter saturates the maintained table stops equalling a rebuild
// (a saturated counter never decrements), so equality cannot be the
// oracle there. The two invariants the incremental path maintains still
// can: after every change the base is the mirror's projection and every
// delta row is the census of that base. Drive the hub's level-2 counters
// to saturation (each of its walks out and back counts), remove one
// object everywhere so a saturated slot outlives its key, then churn.
TEST_P(TableDifferential, SaturatedHubChurnKeepsProjectionAndCensus) {
  const std::uint64_t seed = GetParam();
  const CsrGraph csr = hub_overlay(seed);
  const std::size_t n = csr.node_count();
  NodeId hub = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (csr.degree(v) > csr.degree(hub)) hub = v;
  }
  ObjectCatalog catalog(n, 8, 0.02, seed * 31 + 7);
  AbfOptions options = layout_options(TableLayout::kBlockedDelta);
  options.counting_maintenance = true;
  options.delta_cap = 4;
  AbfRouter router(csr, catalog, options);

  for (ObjectId object = 0; object < 8; ++object) {
    if (catalog.node_has_object(hub, object)) continue;
    catalog.add_replica(object, hub);
    router.notify_insert(hub, object);
  }
  ASSERT_GT(router.counting_table()->saturated_count(hub, 2), 0u)
      << "hub counters never saturated, seed=" << seed;
  ASSERT_TRUE(base_is_projection(router)) << "seed=" << seed;
  ASSERT_TRUE(deltas_are_census(router, csr, options.delta_cap))
      << "seed=" << seed;

  // Remove every replica of object 0, the hub's first: its saturated
  // slots outlive it, so the maintained table is no longer a rebuild.
  while (!catalog.holders(0).empty()) {
    const NodeId holder = catalog.node_has_object(hub, 0)
                              ? hub
                              : catalog.holders(0).front();
    catalog.remove_replica(0, holder);
    router.notify_remove(holder, 0);
    ASSERT_TRUE(base_is_projection(router)) << "seed=" << seed;
    ASSERT_TRUE(deltas_are_census(router, csr, options.delta_cap))
        << "seed=" << seed;
  }
  {
    const AbfRouter rebuilt(csr, catalog, options);
    ASSERT_FALSE(router.blocked_table()->equals(*rebuilt.blocked_table()))
        << "no saturated slot outlived its key, seed=" << seed;
  }

  Rng churn(seed * 811 + 5);
  for (int step = 0; step < 40; ++step) {
    const auto object = static_cast<ObjectId>(churn.uniform_below(8));
    const auto& holders = catalog.holders(object);
    if (!holders.empty() && churn.chance(0.5)) {
      const NodeId holder = holders[churn.uniform_below(holders.size())];
      catalog.remove_replica(object, holder);
      router.notify_remove(holder, object);
    } else {
      const auto holder = static_cast<NodeId>(churn.uniform_below(n));
      if (catalog.node_has_object(holder, object)) continue;
      catalog.add_replica(object, holder);
      router.notify_insert(holder, object);
    }
    ASSERT_TRUE(base_is_projection(router))
        << "seed=" << seed << " step=" << step;
    ASSERT_TRUE(deltas_are_census(router, csr, options.delta_cap))
        << "seed=" << seed << " step=" << step;
    // Saturated slots never clear, but the witness rule survives them: a
    // slot saturates only together with the slots one level up that
    // count its walks.
    ASSERT_TRUE(witness_holds(*router.blocked_table(), csr))
        << "seed=" << seed << " step=" << step;
  }
  EXPECT_TRUE(pruned_masks_match_full(*router.blocked_table(), csr, 8))
      << "seed=" << seed;
}

// Cap pressure on hub rows: the flip census's capped branches (gains
// merged into a full set, losses past or inside its stored prefix) at
// delta_cap 1, 2 and 16, with and without counting maintenance. Inserts
// must land on a rebuild exactly. Removes rebuild without counting; with
// counting, hub counters may saturate, so the maintained invariants are
// the oracle there.
TEST_P(TableDifferential, HubRowsChurnAtEveryCapMatchesRebuild) {
  const std::uint64_t seed = GetParam();
  const CsrGraph csr = hub_overlay(seed);
  const std::size_t n = csr.node_count();
  for (const std::size_t cap : {1u, 2u, 16u}) {
    for (const bool counting : {false, true}) {
      ObjectCatalog catalog(n, 8, 0.02, seed * 31 + 7);
      AbfOptions options = layout_options(TableLayout::kBlockedDelta);
      options.counting_maintenance = counting;
      options.delta_cap = cap;
      AbfRouter incremental(csr, catalog, options);

      Rng churn(seed * 4241 + 3);
      for (int step = 0; step < 24; ++step) {
        const auto holder = static_cast<NodeId>(churn.uniform_below(n));
        const auto object = static_cast<ObjectId>(churn.uniform_below(8));
        if (catalog.node_has_object(holder, object)) continue;
        catalog.add_replica(object, holder);
        incremental.notify_insert(holder, object);
      }
      {
        const AbfRouter rebuilt(csr, catalog, options);
        EXPECT_TRUE(
            incremental.blocked_table()->equals(*rebuilt.blocked_table()))
            << "inserts diverged, cap=" << cap << " counting=" << counting
            << " seed=" << seed;
      }

      for (int step = 0; step < 24; ++step) {
        const auto object = static_cast<ObjectId>(churn.uniform_below(8));
        const auto& holders = catalog.holders(object);
        if (holders.size() < 2) continue;
        const NodeId holder = holders[churn.uniform_below(holders.size())];
        catalog.remove_replica(object, holder);
        incremental.notify_remove(holder, object);
      }
      if (counting) {
        EXPECT_TRUE(base_is_projection(incremental))
            << "cap=" << cap << " seed=" << seed;
        EXPECT_TRUE(deltas_are_census(incremental, csr, cap))
            << "cap=" << cap << " seed=" << seed;
      } else {
        const AbfRouter rebuilt(csr, catalog, options);
        EXPECT_TRUE(
            incremental.blocked_table()->equals(*rebuilt.blocked_table()))
            << "removes diverged, cap=" << cap << " seed=" << seed;
      }
    }
  }
}

// A full (capped) delta set that loses a stored position cannot be
// repaired from flips: its next sole position was never stored. On the
// path 0 - 1 - 2 with content only on node 0, node 0 is the sole
// contributor of all its positions among N(1), so arc 0->1 at level 1
// holds the smallest of them (delta_cap = 1). Removing the object that
// owns it (counting maintenance), and inserting on node 2 an object that
// shares the new smallest position, each take the stored position away;
// both must land on a rebuild.
TEST(BlockedDeltaChurn, CappedSetLosingAStoredPositionMatchesRebuild) {
  const std::size_t objects = 4000;
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const CsrGraph csr = CsrGraph::from_graph(g);
  AbfOptions base_options = layout_options(TableLayout::kBlockedDelta);
  base_options.delta_cap = 1;
  const BlockedAbfTable hashing(1, 1, base_options.blocked_level_bits,
                                base_options.level_params.hashes);
  std::vector<std::vector<std::uint16_t>> key_pos(objects);
  for (ObjectId object = 0; object < objects; ++object) {
    key_pos[object].resize(hashing.hash_count());
    key_pos[object].resize(hashing.key_positions(
        ObjectCatalog::object_key(object), key_pos[object].data()));
  }
  // Three objects whose positions are pairwise disjoint, so each of node
  // 0's positions has exactly one key behind it.
  std::vector<ObjectId> placed;
  std::set<std::uint16_t> used;
  for (ObjectId object = 0; object < objects && placed.size() < 3; ++object) {
    if (std::any_of(key_pos[object].begin(), key_pos[object].end(),
                    [&](std::uint16_t p) { return used.count(p) != 0; })) {
      continue;
    }
    placed.push_back(object);
    used.insert(key_pos[object].begin(), key_pos[object].end());
  }
  ASSERT_EQ(placed.size(), 3u);
  const auto owner_of = [&](std::uint16_t pos) {
    for (const ObjectId object : placed) {
      const auto& p = key_pos[object];
      if (std::find(p.begin(), p.end(), pos) != p.end()) return object;
    }
    return ObjectId{0};
  };
  const auto stored = [](const AbfRouter& router) {
    // Arc 0->1 is the only arc in node 0's row.
    std::vector<std::uint16_t> out;
    for (const std::uint32_t e : router.blocked_table()->arc_delta(0, 0, 1)) {
      out.push_back(BlockedAbfTable::delta_pos(e));
    }
    return out;
  };

  for (const bool counting : {false, true}) {
    ObjectCatalog catalog(3, objects, 0.3, 11);
    for (ObjectId object = 0; object < objects; ++object) {
      const std::vector<NodeId> holders = catalog.holders(object);
      for (const NodeId h : holders) catalog.remove_replica(object, h);
    }
    for (const ObjectId object : placed) catalog.add_replica(object, 0);
    AbfOptions options = base_options;
    options.counting_maintenance = counting;
    AbfRouter router(csr, catalog, options);
    ASSERT_EQ(stored(router), std::vector<std::uint16_t>{*used.begin()});

    if (counting) {
      const ObjectId victim = owner_of(*used.begin());
      catalog.remove_replica(victim, 0);
      router.notify_remove(0, victim);
      const AbfRouter rebuilt(csr, catalog, options);
      EXPECT_TRUE(router.counting_table()->equals(*rebuilt.counting_table()));
      EXPECT_TRUE(router.blocked_table()->equals(*rebuilt.blocked_table()))
          << "remove of a stored position diverged";
      ASSERT_EQ(stored(router).size(), 1u);
      EXPECT_NE(stored(router).front(), *used.begin());
    }

    // An object on node 2 that covers the stored position makes it
    // shared: arc 0->1 loses it and must find its next sole position.
    const std::uint16_t visible = stored(router).front();
    ObjectId cover = objects;
    for (ObjectId object = 0; object < objects; ++object) {
      if (std::find(placed.begin(), placed.end(), object) != placed.end()) {
        continue;
      }
      const auto& p = key_pos[object];
      if (std::find(p.begin(), p.end(), visible) != p.end()) {
        cover = object;
        break;
      }
    }
    ASSERT_LT(cover, objects);
    catalog.add_replica(cover, 2);
    router.notify_insert(2, cover);
    const AbfRouter rebuilt(csr, catalog, options);
    EXPECT_TRUE(router.blocked_table()->equals(*rebuilt.blocked_table()))
        << "insert covering a stored position diverged, counting="
        << counting;
    ASSERT_EQ(stored(router).size(), 1u);
    EXPECT_NE(stored(router).front(), visible);
  }
}

// --- one hop's scoring: witness pruning and the vector veto -------------

// The witness rule holds after a build and after insert/remove churn on
// hub rows, with and without counting maintenance, at delta_cap 1 and
// 16; and the pruned masks equal the full ones in every state.
TEST_P(TableDifferential, WitnessRuleHoldsThroughChurn) {
  const std::uint64_t seed = GetParam();
  const CsrGraph csr = hub_overlay(seed);
  const std::size_t n = csr.node_count();
  for (const std::size_t cap : {1u, 16u}) {
    for (const bool counting : {false, true}) {
      ObjectCatalog catalog(n, 8, 0.02, seed * 53 + 1);
      AbfOptions options = layout_options(TableLayout::kBlockedDelta);
      options.counting_maintenance = counting;
      options.delta_cap = cap;
      AbfRouter router(csr, catalog, options);
      ASSERT_TRUE(witness_holds(*router.blocked_table(), csr))
          << "after build, cap=" << cap << " counting=" << counting;
      EXPECT_TRUE(pruned_masks_match_full(*router.blocked_table(), csr, 8))
          << "after build, cap=" << cap << " counting=" << counting;

      Rng churn(seed * 389 + cap);
      for (int step = 0; step < 16; ++step) {
        const auto object = static_cast<ObjectId>(churn.uniform_below(8));
        const auto& holders = catalog.holders(object);
        if (holders.size() >= 2 && churn.chance(0.5)) {
          const NodeId holder = holders[churn.uniform_below(holders.size())];
          catalog.remove_replica(object, holder);
          router.notify_remove(holder, object);
        } else {
          const auto holder = static_cast<NodeId>(churn.uniform_below(n));
          if (catalog.node_has_object(holder, object)) continue;
          catalog.add_replica(object, holder);
          router.notify_insert(holder, object);
        }
        ASSERT_TRUE(witness_holds(*router.blocked_table(), csr))
            << "step=" << step << " cap=" << cap << " counting=" << counting;
      }
      EXPECT_TRUE(pruned_masks_match_full(*router.blocked_table(), csr, 8))
          << "after churn, cap=" << cap << " counting=" << counting;
    }
  }
}

// The veto's oracle, written from its definition: clear bit `level` of
// masks[arc] for every entry whose arc is in range and whose position is
// one of the key's.
std::vector<std::uint32_t> veto_oracle(const BlockedAbfTable& table,
                                       std::uint32_t owner,
                                       const std::vector<std::uint16_t>& pos,
                                       std::vector<std::uint32_t> masks,
                                       std::size_t arc_count) {
  for (const std::uint32_t e : table.owner_deltas(owner)) {
    const std::size_t arc = BlockedAbfTable::delta_arc_local(e);
    if (arc >= arc_count) continue;
    if (std::find(pos.begin(), pos.end(), BlockedAbfTable::delta_pos(e)) ==
        pos.end()) {
      continue;
    }
    masks[arc] &= ~(std::uint32_t{1} << BlockedAbfTable::delta_level(e));
  }
  return masks;
}

// The AVX2 veto (8 entries per compare) and the scalar loop clear exactly
// the same mask bits: rows of 0-40 entries that cover positions 0 and
// bits-1, arcs past arc_count, keys whose hashes collide (64-bit levels),
// and overflow probe sets (hashes > 8, scalar on every path) — also with
// kAuto forced to the portable kernel.
TEST(BlockedDeltaVeto, VectorAndScalarVetoAgree) {
  struct Shape {
    std::size_t bits;
    std::size_t hashes;
  };
  for (const Shape shape : {Shape{1024, 4}, Shape{64, 4}, Shape{256, 12}}) {
    BlockedAbfTable table(2, 4, shape.bits, shape.hashes);
    Rng rng(shape.bits * 31 + shape.hashes);
    std::vector<std::uint16_t> key_pos(shape.hashes);
    for (std::size_t entries = 0; entries <= 40; ++entries) {
      const std::uint64_t key = rng();
      key_pos.resize(shape.hashes);
      key_pos.resize(table.key_positions(key, key_pos.data()));
      // Draw the row: positions from the key (hits), the domain's ends
      // and random ones, spread over 16 arcs and 4 levels.
      std::set<std::uint32_t> row;
      while (row.size() < entries) {
        const std::size_t arc = rng.uniform_below(16);
        const std::size_t level = rng.uniform_below(4);
        std::uint16_t pos = 0;
        switch (rng.uniform_below(4)) {
          case 0:
            pos = key_pos[rng.uniform_below(key_pos.size())];
            break;
          case 1:
            pos = rng.chance(0.5)
                      ? 0
                      : static_cast<std::uint16_t>(shape.bits - 1);
            break;
          default:
            pos = static_cast<std::uint16_t>(rng.uniform_below(shape.bits));
        }
        row.insert(BlockedAbfTable::encode_delta_entry(arc, level, pos));
      }
      for (std::size_t arc = 0; arc < 16; ++arc) {
        for (std::size_t level = 0; level < 4; ++level) {
          std::vector<std::uint16_t> set;
          for (const std::uint32_t e : row) {
            if (BlockedAbfTable::delta_arc_local(e) == arc &&
                BlockedAbfTable::delta_level(e) == level) {
              set.push_back(BlockedAbfTable::delta_pos(e));
            }
          }
          table.set_arc_delta(0, arc, level, set);
        }
      }
      ASSERT_EQ(table.owner_deltas(0).size(), entries);

      const BlockedProbeSet probes = table.make_probe_set(key);
      ASSERT_EQ(probes.overflow, shape.hashes > BlockedProbeSet::kMaxProbes);
      for (const std::size_t arc_count : {0u, 5u, 16u}) {
        std::vector<std::uint32_t> start(16);
        for (auto& m : start) m = static_cast<std::uint32_t>(rng()) & 0xF;
        const auto want = veto_oracle(table, 0, key_pos, start, arc_count);
        std::vector<MatchKernel> modes = {MatchKernel::kReference,
                                          MatchKernel::kPortable,
                                          MatchKernel::kAuto};
        if (resolved_match_kernel() == MatchKernel::kAvx2) {
          modes.push_back(MatchKernel::kAvx2);
        }
        for (const MatchKernel mode : modes) {
          auto got = start;
          table.apply_deltas(0, probes, got.data(), arc_count, mode);
          EXPECT_EQ(got, want) << "bits=" << shape.bits << " entries="
                               << entries << " arc_count=" << arc_count
                               << " kernel=" << match_kernel_name(mode);
        }
        {
          const testing::KernelOverride portable(MatchKernel::kPortable);
          auto got = start;
          table.apply_deltas(0, probes, got.data(), arc_count);
          EXPECT_EQ(got, want) << "forced portable, entries=" << entries;
        }
      }
    }
  }
}

// A probe set whose position list repeats an entry (the vector veto ORs
// one compare per listed position) clears the same bits as the deduped
// list.
TEST(BlockedDeltaVeto, DuplicateProbePositionsAreHarmless) {
  BlockedAbfTable table(1, 3, 1024, 4);
  std::vector<std::uint16_t> positions;
  for (std::uint16_t p = 0; p < 1024; p += 37) positions.push_back(p);
  table.set_arc_delta(0, 1, 1, positions);
  table.set_arc_delta(0, 2, 2, positions);
  BlockedProbeSet probes = table.make_probe_set(7);
  probes.pos = {37, 37, 74, 1023, 74, 0, 0, 37};
  probes.pos_count = 8;
  std::vector<MatchKernel> modes = {MatchKernel::kPortable};
  if (resolved_match_kernel() == MatchKernel::kAvx2) {
    modes.push_back(MatchKernel::kAvx2);
  }
  for (const MatchKernel mode : modes) {
    std::vector<std::uint32_t> masks(3, 0x7);
    table.apply_deltas(0, probes, masks.data(), 3, mode);
    EXPECT_EQ(masks, (std::vector<std::uint32_t>{0x7, 0x5, 0x3}))
        << match_kernel_name(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(TableLayouts, TableDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace makalu
