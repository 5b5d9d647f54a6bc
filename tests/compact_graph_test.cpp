// Unit tests for the arena-backed compact graph storage (DESIGN.md §13):
// RowArena mechanics (size-class ladder, freelist reuse, epoch
// compaction, slack accounting), the Graph storage-policy seam, and the
// Graph invariants the refactor leaned on — has_edge probing the
// lower-degree endpoint, and remove_nodes' mapping/observer contracts —
// under both storage policies.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "graph/compact_graph.hpp"
#include "graph/graph.hpp"
#include "test_util.hpp"

namespace makalu {
namespace {

TEST(RowArena, ClassLadder) {
  // Floors: largest class <= cap, 0 below the minimum class.
  EXPECT_EQ(row_arena_class_floor(0), 0u);
  EXPECT_EQ(row_arena_class_floor(3), 0u);
  EXPECT_EQ(row_arena_class_floor(4), 4u);
  EXPECT_EQ(row_arena_class_floor(5), 4u);
  EXPECT_EQ(row_arena_class_floor(6), 6u);
  EXPECT_EQ(row_arena_class_floor(8), 6u);
  EXPECT_EQ(row_arena_class_floor(9), 9u);
  EXPECT_EQ(row_arena_class_floor(12), 9u);
  EXPECT_EQ(row_arena_class_floor(13), 13u);
  // Ceils: smallest class >= need.
  EXPECT_EQ(row_arena_class_ceil(0), 4u);
  EXPECT_EQ(row_arena_class_ceil(4), 4u);
  EXPECT_EQ(row_arena_class_ceil(5), 6u);
  EXPECT_EQ(row_arena_class_ceil(7), 9u);
  EXPECT_EQ(row_arena_class_ceil(10), 13u);
  EXPECT_EQ(row_arena_class_ceil(14), 19u);
  // Growth progress: the result must exceed `at_least` even when `need`
  // already fits, so a full row always relocates to a bigger block.
  EXPECT_EQ(row_arena_class_ceil(4, 4), 6u);
  EXPECT_EQ(row_arena_class_ceil(5, 6), 9u);
  // The ladder is exactly the c += c/2 sequence.
  std::uint32_t c = kRowArenaMinCapacity;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(row_arena_class_floor(c), c);
    EXPECT_EQ(row_arena_class_ceil(c), c);
    c += c / 2;
  }
}

TEST(RowArena, PushGrowsThroughClasses) {
  RowArena<std::uint32_t> arena(1);
  for (std::uint32_t i = 0; i < 50; ++i) {
    arena.push(0, i);
    ASSERT_EQ(arena.size(0), i + 1);
    ASSERT_GE(arena.capacity(0), arena.size(0));
    // Capacity is always a ladder value.
    ASSERT_EQ(row_arena_class_floor(arena.capacity(0)), arena.capacity(0));
  }
  const auto row = arena.row(0);
  ASSERT_EQ(row.size(), 50u);
  for (std::uint32_t i = 0; i < 50; ++i) EXPECT_EQ(row[i], i);
  EXPECT_EQ(arena.live_size(), 50u);
}

TEST(RowArena, EraseValueIsSwapWithLast) {
  RowArena<std::uint32_t> arena(1);
  for (std::uint32_t v : {10u, 20u, 30u, 40u}) arena.push(0, v);
  EXPECT_TRUE(arena.erase_value(0, 20u));
  // 40 (the last element) moved into 20's slot.
  const auto row = arena.row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], 10u);
  EXPECT_EQ(row[1], 40u);
  EXPECT_EQ(row[2], 30u);
  EXPECT_FALSE(arena.erase_value(0, 99u));
  EXPECT_EQ(arena.size(0), 3u);
}

TEST(RowArena, FreelistReusesRelocatedBlocks) {
  RowArena<std::uint32_t> arena(2);
  // Grow row 0 past the first class; its old 4-slot block is freed.
  for (std::uint32_t i = 0; i < 5; ++i) arena.push(0, i);
  const std::size_t bytes_after_grow = arena.memory_bytes();
  EXPECT_GT(arena.slack_ratio(), 0.0);  // the freed block is garbage
  // Row 1's first growth should land on the freed 4-slot block instead of
  // extending the slab.
  arena.push(1, 100u);
  EXPECT_LE(arena.memory_bytes(), bytes_after_grow);
  EXPECT_EQ(arena.row(1)[0], 100u);
  // Row 0 is untouched by row 1's allocation.
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(arena.row(0)[i], i);
}

TEST(RowArena, CompactRepacksTightAndBumpsEpoch) {
  RowArena<std::uint32_t> arena(3);
  for (std::uint32_t r = 0; r < 3; ++r) {
    for (std::uint32_t i = 0; i < 7; ++i) arena.push(r, r * 100 + i);
  }
  arena.erase_value(1, 103u);
  const std::uint64_t epoch_before = arena.epoch();
  const std::size_t live = arena.live_size();
  arena.compact();
  EXPECT_EQ(arena.epoch(), epoch_before + 1);
  EXPECT_EQ(arena.live_size(), live);
  EXPECT_EQ(arena.slack_ratio(), 0.0);
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(arena.capacity(r), arena.size(r));  // tight
  }
  // Content survives, element for element.
  EXPECT_EQ(arena.row(0)[6], 6u);
  EXPECT_EQ(arena.row(2)[0], 200u);
  // Post-compaction rows still grow correctly (fresh blocks, dropped
  // freelists).
  arena.push(0, 999u);
  EXPECT_EQ(arena.row(0).back(), 999u);
}

TEST(RowArena, SlackRatioTracksGarbage) {
  RowArena<std::uint32_t> arena(1);
  EXPECT_EQ(arena.slack_ratio(), 0.0);  // empty slab
  for (std::uint32_t i = 0; i < 4; ++i) arena.push(0, i);
  EXPECT_EQ(arena.slack_ratio(), 0.0);  // one live block, no garbage
  for (std::uint32_t i = 4; i < 20; ++i) arena.push(0, i);
  // Two relocations behind us: freed 4- and 6-slot blocks are garbage.
  EXPECT_GT(arena.slack_ratio(), 0.0);
  arena.compact();
  EXPECT_EQ(arena.slack_ratio(), 0.0);
}

// --- Graph-level storage policy ---------------------------------------

TEST(CompactGraph, MatchesAdjacencyElementForElement) {
  // The two storages promise identical neighbor *sequences*, not just
  // identical edge sets: append on add, swap-with-last on remove.
  Graph a(8, GraphStorage::kAdjacencySet);
  Graph c(8, GraphStorage::kCompact);
  const auto both = [&](auto&& op) {
    op(a);
    op(c);
  };
  both([](Graph& g) {
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(0, 3);
    g.add_edge(0, 4);
    g.add_edge(2, 3);
    g.remove_edge(0, 2);  // swap-with-last reorders both rows
    g.add_edge(0, 5);
    g.isolate(3);
  });
  ASSERT_EQ(a.edge_count(), c.edge_count());
  for (NodeId u = 0; u < 8; ++u) {
    const auto na = a.neighbors(u);
    const auto nc = c.neighbors(u);
    ASSERT_EQ(std::vector<NodeId>(na.begin(), na.end()),
              std::vector<NodeId>(nc.begin(), nc.end()))
        << "node " << u;
  }
}

TEST(CompactGraph, CompactStoragePreservesRowsAndCountsEpochs) {
  Graph g(6, GraphStorage::kCompact);
  for (NodeId v = 1; v < 6; ++v) g.add_edge(0, v);
  g.add_edge(1, 2);
  const std::vector<NodeId> before(g.neighbors(0).begin(),
                                   g.neighbors(0).end());
  const std::uint64_t epoch = g.storage_epoch();
  g.compact_storage();
  EXPECT_EQ(g.storage_epoch(), epoch + 1);
  EXPECT_EQ(g.storage_slack_ratio(), 0.0);
  const std::vector<NodeId> after(g.neighbors(0).begin(),
                                  g.neighbors(0).end());
  EXPECT_EQ(before, after);
  // Adjacency graphs report no-op semantics.
  Graph adj(4);
  adj.add_edge(0, 1);
  adj.compact_storage();
  EXPECT_EQ(adj.storage_epoch(), 0u);
  EXPECT_EQ(adj.storage_slack_ratio(), 0.0);
}

TEST(CompactGraph, CopyAndMoveCarryStorage) {
  Graph g(4, GraphStorage::kCompact);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Graph copy(g);
  EXPECT_EQ(copy.storage(), GraphStorage::kCompact);
  EXPECT_TRUE(copy.has_edge(1, 2));
  copy.add_edge(2, 3);  // independent of the original
  EXPECT_FALSE(g.has_edge(2, 3));
  Graph moved(std::move(copy));
  EXPECT_EQ(moved.storage(), GraphStorage::kCompact);
  EXPECT_TRUE(moved.has_edge(2, 3));
  EXPECT_EQ(moved.edge_count(), 3u);
}

TEST(CompactGraph, MemoryFootprintBeatsAdjacencyOnUniformRows) {
  // 1000 nodes of degree 10: the slab should undercut per-node vectors
  // comfortably (the whole point of the representation). At this degree
  // the adjacency side pays a 24-byte vector header plus a
  // capacity-16 heap chunk per row against the arena's 12-byte
  // descriptor plus tight 4-byte endpoints, about a 1.8x gap; the gap
  // widens with degree, so assert a conservative 0.6x bound here and
  // leave the bytes/node ceiling to bench_scale.
  constexpr std::size_t kN = 1000;
  Graph a(kN, GraphStorage::kAdjacencySet);
  Graph c(kN, GraphStorage::kCompact);
  for (NodeId u = 0; u < kN; ++u) {
    for (NodeId k = 1; k <= 5; ++k) {
      const auto v = static_cast<NodeId>((u + k) % kN);
      a.add_edge(u, v);
      c.add_edge(u, v);
    }
  }
  c.compact_storage();
  EXPECT_LT(c.memory_footprint() * 5, a.memory_footprint() * 3)
      << "compact=" << c.memory_footprint()
      << " adjacency=" << a.memory_footprint();
}

// --- has_edge probe orientation (satellite) ----------------------------

TEST(CompactGraph, HasEdgeProbesLowerDegreeEndpoint) {
  // A hub-leaf query must scan the leaf's 1-entry list, not the hub's —
  // O(min(deg)) instead of O(max(deg)). The behavioral contract (symmetry
  // and correctness) is checked under both storages; the complexity claim
  // is pinned by construction: both orders answer identically regardless
  // of which endpoint is the hub.
  for (const GraphStorage storage :
       {GraphStorage::kAdjacencySet, GraphStorage::kCompact}) {
    Graph g(1002, storage);
    // Node 0 is a hub with 1000 leaves; node 1001 is disconnected.
    for (NodeId v = 1; v <= 1000; ++v) g.add_edge(0, v);
    EXPECT_TRUE(g.has_edge(0, 500));
    EXPECT_TRUE(g.has_edge(500, 0));  // symmetric, leaf side first
    EXPECT_FALSE(g.has_edge(0, 1001));
    EXPECT_FALSE(g.has_edge(1001, 0));
    EXPECT_FALSE(g.has_edge(500, 501));  // two leaves, no edge
    // Degenerate: querying an isolated pair touches empty lists only.
    EXPECT_FALSE(g.has_edge(1001, 1001));
  }
}

// --- remove_nodes contracts (satellite) --------------------------------

TEST(CompactGraph, RemoveNodesMapsInterleavedDeadNodes) {
  for (const GraphStorage storage :
       {GraphStorage::kAdjacencySet, GraphStorage::kCompact}) {
    // Cycle 0-1-2-3-4-5-0 with chords; kill the odd nodes.
    Graph g(6, storage);
    for (NodeId v = 0; v < 6; ++v) {
      g.add_edge(v, static_cast<NodeId>((v + 1) % 6));
    }
    g.add_edge(0, 2);
    g.add_edge(2, 4);
    const std::vector<bool> failed = {false, true, false, true, false, true};
    std::vector<NodeId> old_to_new;
    const Graph sub = g.remove_nodes(failed, &old_to_new);
    ASSERT_EQ(sub.node_count(), 3u);
    ASSERT_EQ(old_to_new.size(), 6u);
    EXPECT_EQ(old_to_new[0], 0u);
    EXPECT_EQ(old_to_new[1], kInvalidNode);
    EXPECT_EQ(old_to_new[2], 1u);
    EXPECT_EQ(old_to_new[3], kInvalidNode);
    EXPECT_EQ(old_to_new[4], 2u);
    EXPECT_EQ(old_to_new[5], kInvalidNode);
    // Surviving edges are exactly the chords between survivors.
    EXPECT_EQ(sub.edge_count(), 2u);
    EXPECT_TRUE(sub.has_edge(0, 1));   // old 0-2
    EXPECT_TRUE(sub.has_edge(1, 2));   // old 2-4
    EXPECT_FALSE(sub.has_edge(0, 2));  // old 0-4 never existed
    // The subgraph keeps the parent's storage policy.
    EXPECT_EQ(sub.storage(), storage);
  }
}

TEST(CompactGraph, RemoveNodesEquivalentAcrossStorages) {
  // Same kill mask over the same topology: both storages must produce the
  // same surviving structure (sequences may differ only if the source
  // sequences differed, which they don't — pinned above).
  Graph a(12, GraphStorage::kAdjacencySet);
  Graph c(12, GraphStorage::kCompact);
  for (NodeId u = 0; u < 12; ++u) {
    for (NodeId k = 1; k <= 3; ++k) {
      a.add_edge(u, static_cast<NodeId>((u + k) % 12));
      c.add_edge(u, static_cast<NodeId>((u + k) % 12));
    }
  }
  std::vector<bool> failed(12, false);
  failed[1] = failed[6] = failed[7] = true;
  std::vector<NodeId> map_a;
  std::vector<NodeId> map_c;
  const Graph sub_a = a.remove_nodes(failed, &map_a);
  const Graph sub_c = c.remove_nodes(failed, &map_c);
  EXPECT_EQ(map_a, map_c);
  ASSERT_EQ(sub_a.node_count(), sub_c.node_count());
  ASSERT_EQ(sub_a.edge_count(), sub_c.edge_count());
  for (NodeId u = 0; u < sub_a.node_count(); ++u) {
    const auto na = sub_a.neighbors(u);
    const auto nc = sub_c.neighbors(u);
    ASSERT_EQ(std::vector<NodeId>(na.begin(), na.end()),
              std::vector<NodeId>(nc.begin(), nc.end()))
        << "node " << u;
  }
}

}  // namespace
}  // namespace makalu
