// Randomized oracle tests: each optimized engine is checked against a
// deliberately naive reference implementation on random instances. These
// sweeps catch exactly the bookkeeping bugs (epoch reuse, frontier
// handling, sender exclusion, scratch aliasing) that hand-picked cases
// miss.
#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "bloom/abf_table.hpp"
#include "bloom/attenuated_bloom_filter.hpp"
#include "core/rating.hpp"
#include "graph/algorithms.hpp"
#include "net/latency_model.hpp"
#include "search/flood_search.hpp"
#include "spectral/laplacian.hpp"
#include "test_util.hpp"

namespace makalu {
namespace {

Graph random_graph(std::size_t n, std::size_t extra_edges, Rng& rng,
                   bool ensure_ring = true) {
  Graph g(n);
  if (ensure_ring) {
    for (NodeId v = 0; v < n; ++v) {
      g.add_edge(v, static_cast<NodeId>((v + 1) % n));
    }
  }
  for (std::size_t i = 0; i < extra_edges; ++i) {
    g.add_edge(static_cast<NodeId>(rng.uniform_below(n)),
               static_cast<NodeId>(rng.uniform_below(n)));
  }
  return g;
}

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

// --- Graph vs adjacency-matrix reference -----------------------------------

TEST_P(SeededProperty, GraphMatchesMatrixReferenceUnderRandomOps) {
  Rng rng(GetParam());
  const std::size_t n = 24;
  Graph g(n);
  std::vector<std::vector<bool>> matrix(n, std::vector<bool>(n, false));
  std::size_t edges = 0;
  for (int op = 0; op < 600; ++op) {
    const auto u = static_cast<NodeId>(rng.uniform_below(n));
    const auto v = static_cast<NodeId>(rng.uniform_below(n));
    if (rng.chance(0.6)) {
      const bool added = g.add_edge(u, v);
      const bool expect_add = (u != v) && !matrix[u][v];
      ASSERT_EQ(added, expect_add) << "add " << u << "," << v;
      if (expect_add) {
        matrix[u][v] = matrix[v][u] = true;
        ++edges;
      }
    } else {
      const bool removed = g.remove_edge(u, v);
      const bool expect_remove = matrix[u][v];
      ASSERT_EQ(removed, expect_remove) << "remove " << u << "," << v;
      if (expect_remove) {
        matrix[u][v] = matrix[v][u] = false;
        --edges;
      }
    }
    ASSERT_EQ(g.edge_count(), edges);
  }
  // Final structural agreement.
  for (NodeId u = 0; u < n; ++u) {
    std::size_t row_degree = 0;
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(g.has_edge(u, v), static_cast<bool>(matrix[u][v]));
      row_degree += matrix[u][v];
    }
    ASSERT_EQ(g.degree(u), row_degree);
  }
  // CSR mirrors the final adjacency.
  const CsrGraph csr = CsrGraph::from_graph(g);
  for (NodeId u = 0; u < n; ++u) {
    std::set<NodeId> expected;
    for (NodeId v = 0; v < n; ++v) {
      if (matrix[u][v]) expected.insert(v);
    }
    const auto row = csr.neighbors(u);
    ASSERT_EQ(std::set<NodeId>(row.begin(), row.end()), expected);
  }
}

// --- FloodEngine vs naive per-arrival reference -----------------------------

struct NaiveFloodResult {
  std::uint64_t messages = 0;
  std::uint64_t duplicates = 0;
  std::set<NodeId> visited;
};

NaiveFloodResult naive_flood(const CsrGraph& g, NodeId source,
                             std::uint32_t ttl) {
  NaiveFloodResult out;
  out.visited.insert(source);
  // (node, sender) copies at the current hop.
  std::vector<std::pair<NodeId, NodeId>> frontier{{source, kInvalidNode}};
  for (std::uint32_t hop = 1; hop <= ttl; ++hop) {
    std::vector<std::pair<NodeId, NodeId>> next;
    for (const auto& [node, sender] : frontier) {
      for (const NodeId v : g.neighbors(node)) {
        if (v == sender) continue;
        ++out.messages;
        if (out.visited.count(v)) {
          ++out.duplicates;
          continue;
        }
        out.visited.insert(v);
        next.emplace_back(v, node);
      }
    }
    frontier = std::move(next);
  }
  return out;
}

TEST_P(SeededProperty, FloodEngineMatchesNaiveReference) {
  Rng rng(GetParam());
  const std::size_t n = 40 + rng.uniform_below(40);
  const Graph g = random_graph(n, 50, rng);
  const CsrGraph csr = CsrGraph::from_graph(g);
  FloodEngine engine(csr);
  for (int trial = 0; trial < 20; ++trial) {
    const auto source = static_cast<NodeId>(rng.uniform_below(n));
    const auto ttl = static_cast<std::uint32_t>(rng.uniform_below(6));
    FloodOptions options;
    options.ttl = ttl;
    const auto fast = engine.run(
        source, [](NodeId) { return false; }, options);
    const auto slow = naive_flood(csr, source, ttl);
    ASSERT_EQ(fast.messages, slow.messages)
        << "n=" << n << " src=" << source << " ttl=" << ttl;
    ASSERT_EQ(fast.duplicates, slow.duplicates);
    ASSERT_EQ(fast.nodes_visited, slow.visited.size());
  }
}

// --- RatingEngine vs brute-force set algebra --------------------------------

TEST_P(SeededProperty, RatingEngineMatchesBruteForce) {
  Rng rng(GetParam() ^ 0xbead);
  const std::size_t n = 30;
  const Graph g = random_graph(n, 45, rng);
  const EuclideanModel latency(n, GetParam());
  RatingWeights weights;
  weights.scaling = ProximityScaling::kPaperLiteral;  // exact paper form
  RatingEngine engine(g, latency, weights);

  for (NodeId u = 0; u < n; ++u) {
    const auto ratings = engine.rate_neighbors(u);
    // Brute force: boundary and unique reachable via std::set algebra.
    std::set<NodeId> gamma_u(g.neighbors(u).begin(), g.neighbors(u).end());
    std::set<NodeId> boundary;
    std::map<NodeId, int> seen_by;
    for (const NodeId w : gamma_u) {
      for (const NodeId x : g.neighbors(w)) {
        if (x == u || gamma_u.count(x)) continue;
        boundary.insert(x);
        ++seen_by[x];
      }
    }
    double d_max = 0.0;
    for (const NodeId w : gamma_u) {
      d_max = std::max(d_max, latency.latency(u, w));
    }
    ASSERT_EQ(ratings.size(), gamma_u.size());
    for (const auto& r : ratings) {
      std::size_t unique = 0;
      for (const NodeId x : g.neighbors(r.neighbor)) {
        if (x == u || gamma_u.count(x)) continue;
        if (seen_by[x] == 1) ++unique;
      }
      ASSERT_EQ(r.unique_reachable, unique) << "u=" << u;
      const double expected_connectivity =
          boundary.empty() ? 0.0
                           : static_cast<double>(unique) /
                                 static_cast<double>(boundary.size());
      ASSERT_NEAR(r.connectivity, expected_connectivity, 1e-12);
      const double d = std::max(1e-6, latency.latency(u, r.neighbor));
      ASSERT_NEAR(r.proximity, std::max(1e-6, d_max) / d, 1e-9);
    }
    ASSERT_EQ(engine.boundary_size(u), boundary.size());
  }
}

// --- Dijkstra vs Floyd-Warshall ---------------------------------------------

TEST_P(SeededProperty, DijkstraMatchesFloydWarshall) {
  Rng rng(GetParam() ^ 0xf10d);
  const std::size_t n = 20;
  const Graph g = random_graph(n, 25, rng);
  // Random positive weights, symmetric.
  std::map<std::pair<NodeId, NodeId>, double> weight;
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (v > u) {
        weight[{u, v}] = rng.uniform(0.5, 10.0);
      }
    }
  }
  auto w = [&](NodeId a, NodeId b) {
    return weight.at({std::min(a, b), std::max(a, b)});
  };
  const CsrGraph csr = CsrGraph::from_graph(g, w);

  // Floyd-Warshall reference.
  std::vector<std::vector<double>> dist(
      n, std::vector<double>(n, kUnreachableCost));
  for (NodeId u = 0; u < n; ++u) dist[u][u] = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : g.neighbors(u)) dist[u][v] = w(u, v);
  }
  for (NodeId k = 0; k < n; ++k) {
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        dist[i][j] = std::min(dist[i][j], dist[i][k] + dist[k][j]);
      }
    }
  }
  for (NodeId s = 0; s < n; ++s) {
    const auto costs = dijkstra_costs(csr, s);
    for (NodeId t = 0; t < n; ++t) {
      ASSERT_NEAR(costs[t], dist[s][t], 1e-9) << s << "->" << t;
    }
  }
}

// --- Spectral invariants on random graphs -----------------------------------

TEST_P(SeededProperty, NormalizedSpectrumInvariants) {
  Rng rng(GetParam() ^ 0x57ec);
  const std::size_t n = 24;
  // Possibly disconnected: skip the ring half the time.
  const Graph g = random_graph(n, 30, rng, rng.chance(0.5));
  const CsrGraph csr = CsrGraph::from_graph(g);
  const auto spectrum = normalized_laplacian_spectrum(csr);
  ASSERT_EQ(spectrum.size(), n);
  double trace = 0.0;
  for (const double ev : spectrum) {
    EXPECT_GE(ev, -1e-8);
    EXPECT_LE(ev, 2.0 + 1e-8);
    trace += ev;
  }
  // Trace = number of non-isolated vertices.
  std::size_t non_isolated = 0;
  for (NodeId v = 0; v < n; ++v) non_isolated += (csr.degree(v) > 0);
  EXPECT_NEAR(trace, static_cast<double>(non_isolated), 1e-7);
  // Multiplicity of 0 counts components (isolated vertices included:
  // their normalized row is all-zero, contributing eigenvalue 0).
  const auto comps = connected_components(csr);
  EXPECT_EQ(eigenvalue_multiplicity(spectrum, 0.0, 1e-7), comps.count);
}

// --- Blocked ABF delta slab vs shadow map -----------------------------------

// Random set/erase interleavings over many owners, checked row for row
// against a plain map: one owner's RowArena row must never leak into or
// clobber another's (aliasing is exactly the freelist/relocation bug
// class the slab design risks), every row must stay sorted (the in-place
// splice of set_arc_delta relies on it), and compact() must preserve
// content while driving slack to zero. Rows grow through several size
// classes (relocating), and sets shrink mid-row and empty out.
TEST_P(SeededProperty, BlockedDeltaRowsNeverAliasUnderRandomOps) {
  Rng rng(GetParam() * 6961 + 23);
  const std::size_t nodes = 16;
  const std::size_t depth = 3;
  const std::size_t bits = 256;
  BlockedAbfTable table(nodes, depth, bits, /*hashes=*/3);

  // shadow[owner] maps (arc_local, level) -> sorted positions.
  using ArcLevel = std::pair<std::size_t, std::size_t>;
  std::vector<std::map<ArcLevel, std::vector<std::uint16_t>>> shadow(nodes);

  const auto verify_all_rows = [&]() {
    for (std::uint32_t owner = 0; owner < nodes; ++owner) {
      const auto row = table.owner_deltas(owner);
      ASSERT_TRUE(std::is_sorted(row.begin(), row.end()))
          << "owner " << owner;
      std::map<ArcLevel, std::vector<std::uint16_t>> decoded;
      for (const std::uint32_t entry : row) {
        decoded[{BlockedAbfTable::delta_arc_local(entry),
                 BlockedAbfTable::delta_level(entry)}]
            .push_back(BlockedAbfTable::delta_pos(entry));
      }
      // Drop empty vectors from the shadow before comparing.
      std::map<ArcLevel, std::vector<std::uint16_t>> expected;
      for (const auto& [arc_level, positions] : shadow[owner]) {
        if (!positions.empty()) expected[arc_level] = positions;
      }
      ASSERT_EQ(decoded, expected) << "owner " << owner;
    }
  };

  std::size_t widest_row = 0;
  std::size_t mid_row_shrinks = 0;
  std::size_t emptied_sets = 0;
  for (int op = 0; op < 600; ++op) {
    const auto owner = static_cast<std::uint32_t>(rng.uniform_below(nodes));
    // Mostly low arc indexes, sometimes the top of the 12-bit field.
    const std::size_t arc_local =
        rng.chance(0.05) ? BlockedAbfTable::kMaxDeltaArcLocal - 1
                         : rng.uniform_below(48);
    const std::size_t level = 1 + rng.uniform_below(depth - 1);
    auto& positions = shadow[owner][{arc_local, level}];
    if (rng.chance(0.6)) {
      // Replace the (arc, level) position set with a fresh random one
      // (possibly empty — which must clear stale entries).
      std::set<std::uint16_t> fresh;
      const std::size_t count = rng.chance(0.2) ? 0 : rng.uniform_below(25);
      for (std::size_t i = 0; i < count; ++i) {
        fresh.insert(static_cast<std::uint16_t>(rng.uniform_below(bits)));
      }
      const std::vector<std::uint16_t> next(fresh.begin(), fresh.end());
      const bool later_sets = std::any_of(
          shadow[owner].upper_bound({arc_local, level}), shadow[owner].end(),
          [](const auto& kv) { return !kv.second.empty(); });
      if (next.size() < positions.size() && later_sets) ++mid_row_shrinks;
      if (next.empty() && !positions.empty()) ++emptied_sets;
      table.set_arc_delta(owner, arc_local, level, next);
      positions = next;
    } else {
      const auto pos = static_cast<std::uint16_t>(rng.uniform_below(bits));
      const bool erased =
          table.erase_delta_position(owner, arc_local, level, pos);
      const auto it = std::find(positions.begin(), positions.end(), pos);
      EXPECT_EQ(erased, it != positions.end());
      if (it != positions.end()) positions.erase(it);
    }
    widest_row = std::max(widest_row, table.owner_deltas(owner).size());
    if (op % 80 == 79) {
      verify_all_rows();
      table.compact_deltas();
      EXPECT_EQ(table.delta_slack_ratio(), 0.0);
      verify_all_rows();  // compaction must not move content across rows
    }
  }
  verify_all_rows();
  // Past the 4/6/9/13/19/28/42 size classes: rows relocated repeatedly.
  EXPECT_GT(widest_row, 42u);
  EXPECT_GT(mid_row_shrinks, 0u);
  EXPECT_GT(emptied_sets, 0u);
}

// --- Blocked shift-merge vs AttenuatedBloomFilter reference -----------------

// merge_shifted_from on blocked stacks must reproduce the reference
// deepest-first walk bit for bit — including the self-merge case, whose
// semantics are "merge the PRE-state" (no cascading a level's new bits
// into the next). Equal widths + the shared double-hash family make the
// two representations directly comparable word for word.
TEST_P(SeededProperty, BlockedShiftMergeMatchesAttenuatedReference) {
  Rng rng(GetParam() * 769 + 41);
  const std::size_t nodes = 8;
  const std::size_t depth = 3;
  const BloomParameters params{/*bits=*/256, /*hashes=*/3};
  BlockedAbfTable table(nodes, depth, params.bits, params.hashes);
  std::vector<AttenuatedBloomFilter> reference(
      nodes, AttenuatedBloomFilter(depth, params));

  const auto expect_equal_bits = [&](std::uint32_t node) {
    for (std::size_t level = 0; level < depth; ++level) {
      const auto ref_words = reference[node].level(level).words();
      const std::uint64_t* words = table.level_words(node, level);
      for (std::size_t w = 0; w < ref_words.size(); ++w) {
        ASSERT_EQ(words[w], ref_words[w])
            << "node " << node << " level " << level << " word " << w;
      }
    }
  };

  // Seed random content at random levels.
  for (int i = 0; i < 40; ++i) {
    const auto node = static_cast<std::uint32_t>(rng.uniform_below(nodes));
    const std::size_t level = rng.uniform_below(depth);
    const std::uint64_t key = rng.uniform_below(1000);
    table.insert(node, level, key);
    reference[node].insert_at(level, key);
  }
  for (std::uint32_t v = 0; v < nodes; ++v) expect_equal_bits(v);

  // Random shift-merges, self-merge included. The reference applies the
  // shift from a COPY of the source, pinning pre-state semantics; the
  // blocked implementation must match without copying (deepest-first).
  for (int i = 0; i < 60; ++i) {
    const auto dst = static_cast<std::uint32_t>(rng.uniform_below(nodes));
    const auto src = (i % 10 == 0)
                         ? dst  // force regular self-merge coverage
                         : static_cast<std::uint32_t>(
                               rng.uniform_below(nodes));
    table.merge_shifted_from(dst, src);
    const AttenuatedBloomFilter snapshot = reference[src];
    reference[dst].merge_shifted_from(snapshot);
    expect_equal_bits(dst);
  }
  for (std::uint32_t v = 0; v < nodes; ++v) expect_equal_bits(v);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace makalu
