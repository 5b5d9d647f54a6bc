// Soundness suite for the counting-Bloom-maintained ABF table
// (bloom/counting_abf_table): every incremental op — content insert and
// remove waves, edge add/drop with local recompute — must land on exactly
// the state a from-scratch rebuild over the final content + adjacency
// produces, counter for counter, as long as no slot saturates. Plus the
// saturation edge cases: sticky saturated slots and the decrement
// underflow clamp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bloom/abf_table.hpp"
#include "bloom/counting_abf_table.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace makalu {
namespace {

constexpr BloomParameters kParams{/*bits=*/256, /*hashes=*/3};

struct Op {
  enum Kind { kInsert, kRemove, kAddEdge, kRemoveEdge } kind;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t key = 0;
};

// Rebuild reference: a fresh table wired with the final adjacency, seeded
// with the final content multiset, derived in one pass.
CountingAbfTable rebuild_reference(
    std::size_t n, std::size_t depth,
    const std::vector<std::vector<std::uint32_t>>& adjacency,
    const std::vector<std::vector<std::uint64_t>>& content) {
  CountingAbfTable reference(n, depth, kParams);
  for (std::uint32_t v = 0; v < n; ++v) {
    reference.set_neighbors(v, adjacency[v]);
    for (const std::uint64_t key : content[v]) {
      reference.seed_content(v, key);
    }
  }
  reference.rebuild_derived();
  return reference;
}

class SeededCountingAbf : public ::testing::TestWithParam<std::uint64_t> {};

// Randomized interleavings of all four incremental ops against the
// from-scratch oracle. Sparse graphs and small content keep every counter
// below saturation, where equality is exact.
TEST_P(SeededCountingAbf, RandomOpsEqualRebuild) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 2917 + 11);
  const std::size_t n = 16 + rng.uniform_below(12);
  const std::size_t depth = 3;

  // Shadow state: adjacency as sorted-free vectors, content as multisets.
  std::vector<std::vector<std::uint32_t>> adjacency(n);
  std::vector<std::vector<std::uint64_t>> content(n);
  CountingAbfTable table(n, depth, kParams);

  // Start from a connected ring so edge removals have something to cut.
  for (std::uint32_t v = 0; v < n; ++v) {
    const auto next = static_cast<std::uint32_t>((v + 1) % n);
    adjacency[v].push_back(next);
    adjacency[next].push_back(v);
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    table.set_neighbors(v, adjacency[v]);
  }
  table.rebuild_derived();
  (void)table.take_changes();

  const auto shadow_has_edge = [&](std::uint32_t u, std::uint32_t v) {
    for (const std::uint32_t w : adjacency[u]) {
      if (w == v) return true;
    }
    return false;
  };

  for (int op = 0; op < 60; ++op) {
    const auto u = static_cast<std::uint32_t>(rng.uniform_below(n));
    const auto v = static_cast<std::uint32_t>(rng.uniform_below(n));
    const std::uint64_t key = 1 + rng.uniform_below(6);
    switch (rng.uniform_below(4)) {
      case 0:
        table.insert_content(u, key);
        content[u].push_back(key);
        break;
      case 1: {
        // Remove only keys actually present (underflow clamping is
        // covered separately; here we pin the exact-regime contract).
        if (content[u].empty()) break;
        const std::uint64_t present =
            content[u][rng.uniform_below(content[u].size())];
        table.remove_content(u, present);
        auto& bag = content[u];
        for (std::size_t i = 0; i < bag.size(); ++i) {
          if (bag[i] == present) {
            bag[i] = bag.back();
            bag.pop_back();
            break;
          }
        }
        break;
      }
      case 2: {
        const bool added = table.add_edge(u, v);
        EXPECT_EQ(added, u != v && !shadow_has_edge(u, v));
        if (added) {
          adjacency[u].push_back(v);
          adjacency[v].push_back(u);
        }
        break;
      }
      default: {
        const bool removed = table.remove_edge(u, v);
        EXPECT_EQ(removed, shadow_has_edge(u, v));
        if (removed) {
          auto drop = [](std::vector<std::uint32_t>& row, std::uint32_t x) {
            for (std::size_t i = 0; i < row.size(); ++i) {
              if (row[i] == x) {
                row[i] = row.back();
                row.pop_back();
                return;
              }
            }
          };
          drop(adjacency[u], v);
          drop(adjacency[v], u);
        }
        break;
      }
    }
  }

  const CountingAbfTable reference =
      rebuild_reference(n, depth, adjacency, content);
  EXPECT_TRUE(table.equals(reference))
      << "incremental state diverged from rebuild, seed=" << seed;
}

// The change journal must cover every level that differs from the
// pre-change state: replaying ONLY the journaled (node, level) filters
// onto a stale copy must reproduce the updated table.
TEST_P(SeededCountingAbf, ChangeJournalCoversEveryChangedLevel) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 587 + 3);
  const std::size_t n = 14;
  const std::size_t depth = 3;

  std::vector<std::vector<std::uint32_t>> adjacency(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    const auto next = static_cast<std::uint32_t>((v + 1) % n);
    adjacency[v].push_back(next);
    adjacency[next].push_back(v);
  }
  std::vector<std::vector<std::uint64_t>> content(n);
  content[3] = {7, 9};
  content[8] = {9};

  CountingAbfTable table = rebuild_reference(n, depth, adjacency, content);
  CountingAbfTable stale = rebuild_reference(n, depth, adjacency, content);
  (void)table.take_changes();

  const auto node = static_cast<std::uint32_t>(rng.uniform_below(n));
  const std::uint64_t key = 5 + rng.uniform_below(4);
  table.insert_content(node, key);
  const auto changes = table.take_changes();
  EXPECT_FALSE(changes.empty());

  // Any (node, level) NOT in the journal must be unchanged vs `stale`.
  for (std::uint32_t x = 0; x < n; ++x) {
    for (std::size_t l = 0; l < depth; ++l) {
      bool journaled = false;
      for (const auto& c : changes) {
        if (c.node == x && c.level == l) journaled = true;
      }
      if (!journaled) {
        EXPECT_TRUE(table.level(x, l) == stale.level(x, l))
            << "unjournaled change at node " << x << " level " << l
            << " seed=" << seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededCountingAbf,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// --- saturation / underflow edge cases -------------------------------------

TEST(CountingAbfSaturation, RepeatedRemovesClampAtZeroNotUnderflow) {
  CountingAbfTable table(4, 2, kParams);
  std::vector<std::uint32_t> row{1};
  table.set_neighbors(0, row);
  std::vector<std::uint32_t> row0{0};
  table.set_neighbors(1, row0);
  table.rebuild_derived();

  // Remove a key that was never inserted, repeatedly: every slot must
  // stay at zero (the decrement-underflow guard), so a later insert
  // behaves exactly as on a fresh table.
  for (int i = 0; i < 5; ++i) table.remove_content(0, 42);
  for (const std::uint8_t c : table.level(0, 0).counters()) {
    EXPECT_EQ(c, 0u);
  }
  table.insert_content(0, 42);
  EXPECT_TRUE(table.level(0, 0).maybe_contains(42));
  table.remove_content(0, 42);
  EXPECT_FALSE(table.level(0, 0).maybe_contains(42));
}

TEST(CountingAbfSaturation, SaturatedSlotsAreStickyUnderRemoval) {
  CountingAbfTable table(2, 1, kParams);
  // Drive one node's level-0 slots to saturation with repeated inserts of
  // one key, then remove more times than were ever inserted: the slots
  // must pin at kSaturation (a bounded false-positive, never a false
  // negative or a wrap).
  const int inserts = CountingBloomFilter::kSaturation + 4;
  for (int i = 0; i < inserts; ++i) table.insert_content(0, 9);
  for (int i = 0; i < inserts + 8; ++i) table.remove_content(0, 9);
  EXPECT_TRUE(table.level(0, 0).maybe_contains(9));
}

// --- hashing agreement -----------------------------------------------------

// AbfRouter reprojects a counting wave into the blocked base at the key's
// positions only, which is sound only if both tables place a key on the
// same slots. Pin it: a counting filter's nonzero slots after one insert,
// BlockedAbfTable::key_positions and the bits BlockedAbfTable::insert sets
// are one set, for every level width and hash count the tables accept.
TEST(CountingAbfHashing, BlockedKeyPositionsAreTheCountingSlots) {
  for (const std::size_t bits : {64u, 128u, 192u, 256u, 1024u, 4096u,
                                 65536u}) {
    for (const std::size_t hashes : {1u, 3u, 4u, 8u, 11u}) {
      BlockedAbfTable table(1, 1, bits, hashes);
      std::vector<std::uint16_t> positions(hashes);
      std::vector<std::uint16_t> newly(hashes);
      for (std::uint64_t k = 0; k < 500; ++k) {
        std::uint64_t state = k * 7919 + bits * 31 + hashes;
        const std::uint64_t key = splitmix64(state);
        CountingBloomFilter counting({bits, hashes});
        counting.insert(key);
        std::vector<std::uint16_t> slots;
        const auto counters = counting.counters();
        for (std::size_t pos = 0; pos < counters.size(); ++pos) {
          if (counters[pos] != 0) {
            slots.push_back(static_cast<std::uint16_t>(pos));
          }
        }
        const std::size_t count = table.key_positions(key, positions.data());
        ASSERT_EQ(std::vector<std::uint16_t>(positions.begin(),
                                             positions.begin() + count),
                  slots)
            << "bits=" << bits << " hashes=" << hashes << " key=" << key;

        table.clear();
        std::size_t newly_count = 0;
        table.insert(0, 0, key, newly.data(), &newly_count);
        std::sort(newly.begin(), newly.begin() + newly_count);
        ASSERT_EQ(std::vector<std::uint16_t>(newly.begin(),
                                             newly.begin() + newly_count),
                  slots)
            << "bits=" << bits << " hashes=" << hashes << " key=" << key;
      }
    }
  }
}

}  // namespace
}  // namespace makalu
