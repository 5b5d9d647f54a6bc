// Soundness suite for the counting-maintained ABF table
// (bloom/counting_abf_table): every incremental op — content insert and
// remove waves, edge add/drop with local recompute — must land on exactly
// the state a from-scratch rebuild over the final content + adjacency
// produces, counter for counter, as long as no slot saturates. Past
// saturation a dense oracle written here, from the recursion alone,
// must still agree at every slot. Plus the counter rules of one row
// (sticky saturation, the decrement underflow clamp, repeated probe
// positions, saturating level sums) and the memory bound of the sparse
// rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "bloom/abf_table.hpp"
#include "bloom/counting_abf_table.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace makalu {
namespace {

constexpr BloomParameters kParams{/*bits=*/256, /*hashes=*/3};
constexpr std::uint8_t kSat = CountingAbfTable::kSaturation;

// The key's probe slots, repeats included: (h1 + i * h2) mod bits.
std::vector<std::size_t> probe_slots(std::uint64_t key,
                                     BloomParameters params) {
  const auto [h1, h2] = bloom_hash_key(key);
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < params.hashes; ++i) {
    slots.push_back(static_cast<std::size_t>((h1 + i * h2) % params.bits));
  }
  return slots;
}

// Bloom membership of one row: every probe slot holds a nonzero count.
bool row_contains(const CountingAbfTable& table, std::uint32_t node,
                  std::size_t l, std::uint64_t key, BloomParameters params) {
  for (const std::size_t slot : probe_slots(key, params)) {
    if (table.count(node, l, slot) == 0) return false;
  }
  return true;
}

bool rows_equal(const CountingAbfTable& a, const CountingAbfTable& b,
                std::uint32_t node, std::size_t l) {
  const auto x = a.entries(node, l);
  const auto y = b.entries(node, l);
  return std::equal(x.begin(), x.end(), y.begin(), y.end());
}

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
// pre-change state: replaying ONLY the journaled (node, level) rows onto
// a stale copy must reproduce the updated table.
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
  EXPECT_TRUE(table.take_changes().empty()) << "a rebuild journals nothing";

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
        EXPECT_TRUE(rows_equal(table, stale, x, l))
            << "unjournaled change at node " << x << " level " << l
            << " seed=" << seed;
      }
    }
  }
}

// --- an independent dense oracle -------------------------------------------

// Every counter of every (node, level), dense, updated by the recursion's
// own rules with no CountingAbfTable code: a content change at h moves
// level l of x by min(15, #length-l walks h -> x) at each probe slot, one
// probe at a time (insert saturates at 15; remove skips saturated slots
// and clamps at 0); an edge flip recomputes level l of every x within
// l-1 hops of the flipped edge as the saturating sum of x's neighbors'
// level l-1 counters.
class DenseOracle {
 public:
  DenseOracle(std::size_t n, std::size_t depth, BloomParameters params)
      : n_(n),
        depth_(depth),
        params_(params),
        adjacent_(n * n, false),
        counters_(n * depth * params.bits, 0) {}

  [[nodiscard]] std::uint8_t at(std::size_t x, std::size_t l,
                                std::size_t slot) const {
    return counters_[(x * depth_ + l) * params_.bits + slot];
  }

  void content(std::size_t h, std::uint64_t key, bool insert) {
    std::vector<std::uint32_t> walks(n_, 0);
    walks[h] = 1;
    for (std::size_t l = 0; l < depth_; ++l) {
      for (std::size_t x = 0; x < n_; ++x) {
        if (walks[x] == 0) continue;
        for (const std::size_t slot : probe_slots(key, params_)) {
          std::uint8_t& c = counters_[(x * depth_ + l) * params_.bits + slot];
          if (insert) {
            c = static_cast<std::uint8_t>(
                std::min<std::uint32_t>(c + walks[x], kSat));
          } else if (c < kSat) {
            c = c > walks[x] ? static_cast<std::uint8_t>(c - walks[x]) : 0;
          }
        }
      }
      std::vector<std::uint32_t> next(n_, 0);
      for (std::size_t x = 0; x < n_; ++x) {
        std::uint32_t sum = 0;
        for (std::size_t w = 0; w < n_; ++w) {
          if (adjacent_[x * n_ + w]) sum += walks[w];
        }
        next[x] = std::min<std::uint32_t>(sum, kSat);
      }
      walks = next;
    }
  }

  bool set_edge(std::size_t u, std::size_t v, bool present) {
    if (u == v || adjacent_[u * n_ + v] == present) return false;
    adjacent_[u * n_ + v] = present;
    adjacent_[v * n_ + u] = present;
    // Hop distance from {u, v} in the changed graph.
    constexpr std::size_t kFar = ~std::size_t{0};
    std::vector<std::size_t> dist(n_, kFar);
    std::vector<std::size_t> queue{u, v};
    dist[u] = 0;
    dist[v] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t x = queue[head];
      for (std::size_t w = 0; w < n_; ++w) {
        if (adjacent_[x * n_ + w] && dist[w] == kFar) {
          dist[w] = dist[x] + 1;
          queue.push_back(w);
        }
      }
    }
    for (std::size_t l = 1; l < depth_; ++l) {
      for (std::size_t x = 0; x < n_; ++x) {
        if (dist[x] == kFar || dist[x] > l - 1) continue;
        for (std::size_t slot = 0; slot < params_.bits; ++slot) {
          std::uint32_t sum = 0;
          for (std::size_t w = 0; w < n_; ++w) {
            if (adjacent_[x * n_ + w]) sum += at(w, l - 1, slot);
          }
          counters_[(x * depth_ + l) * params_.bits + slot] =
              static_cast<std::uint8_t>(std::min<std::uint32_t>(sum, kSat));
        }
      }
    }
    return true;
  }

 private:
  std::size_t n_;
  std::size_t depth_;
  BloomParameters params_;
  std::vector<bool> adjacent_;
  std::vector<std::uint8_t> counters_;
};

::testing::AssertionResult matches_oracle(const CountingAbfTable& table,
                                          const DenseOracle& oracle) {
  for (std::uint32_t x = 0; x < table.node_count(); ++x) {
    for (std::size_t l = 0; l < table.depth(); ++l) {
      std::size_t nonzero = 0;
      for (std::size_t slot = 0; slot < table.bits(); ++slot) {
        if (table.count(x, l, slot) != oracle.at(x, l, slot)) {
          return ::testing::AssertionFailure()
                 << "node " << x << " level " << l << " slot " << slot
                 << ": table " << int{table.count(x, l, slot)}
                 << ", oracle " << int{oracle.at(x, l, slot)};
        }
        nonzero += oracle.at(x, l, slot) != 0;
      }
      // A row holds exactly the support, ascending.
      const auto row = table.entries(x, l);
      if (row.size() != nonzero) {
        return ::testing::AssertionFailure()
               << "node " << x << " level " << l << " holds " << row.size()
               << " entries for " << nonzero << " nonzero counters";
      }
      for (std::size_t i = 1; i < row.size(); ++i) {
        if (CountingAbfTable::entry_pos(row[i - 1]) >=
            CountingAbfTable::entry_pos(row[i])) {
          return ::testing::AssertionFailure()
                 << "node " << x << " level " << l << " is not sorted";
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Interleaved content and edge churn around a hub driven past saturation,
// with removes of absent keys (the clamp) and of keys whose slots stuck at
// 15. A narrow level with five probes makes repeated probe slots common.
TEST_P(SeededCountingAbf, DenseOracleMatchesEveryCounter) {
  const std::uint64_t seed = GetParam();
  constexpr BloomParameters kNarrow{/*bits=*/64, /*hashes=*/5};
  Rng rng(seed * 7877 + 5);
  const std::size_t n = 20 + rng.uniform_below(8);
  const std::size_t depth = 3;
  CountingAbfTable table(n, depth, kNarrow);
  DenseOracle oracle(n, depth, kNarrow);

  // A ring, plus a hub (node 0) wired to every third node.
  std::vector<std::vector<std::uint32_t>> adjacency(n);
  const auto wire = [&](std::uint32_t u, std::uint32_t v) {
    if (oracle.set_edge(u, v, true)) {
      adjacency[u].push_back(v);
      adjacency[v].push_back(u);
    }
  };
  for (std::uint32_t v = 0; v < n; ++v) {
    wire(v, static_cast<std::uint32_t>((v + 1) % n));
  }
  for (std::uint32_t v = 3; v < n; v += 3) wire(0, v);
  for (std::uint32_t v = 0; v < n; ++v) table.set_neighbors(v, adjacency[v]);
  table.rebuild_derived();
  ASSERT_TRUE(matches_oracle(table, oracle)) << "seed=" << seed;

  // Saturate the hub: one key at each of its neighbors, twice.
  for (int round = 0; round < 2; ++round) {
    for (const std::uint32_t w : adjacency[0]) {
      table.insert_content(w, 77);
      oracle.content(w, 77, true);
    }
  }
  std::size_t saturated = 0;
  for (std::size_t l = 1; l < depth; ++l) {
    saturated += table.saturated_count(0, l);
  }
  ASSERT_GT(saturated, 0u) << "hub never saturated, seed=" << seed;
  ASSERT_TRUE(matches_oracle(table, oracle)) << "seed=" << seed;

  for (int op = 0; op < 80; ++op) {
    const auto u = static_cast<std::uint32_t>(rng.uniform_below(n));
    const auto v = static_cast<std::uint32_t>(rng.uniform_below(n));
    const std::uint64_t key = rng.chance(0.2) ? 77 : 1 + rng.uniform_below(5);
    switch (rng.uniform_below(4)) {
      case 0:
        table.insert_content(u, key);
        oracle.content(u, key, true);
        break;
      case 1:
        table.remove_content(u, key);
        oracle.content(u, key, false);
        break;
      case 2:
        ASSERT_EQ(table.add_edge(u, v), oracle.set_edge(u, v, true));
        break;
      default:
        ASSERT_EQ(table.remove_edge(u, v), oracle.set_edge(u, v, false));
        break;
    }
    if (op % 10 == 9) {
      ASSERT_TRUE(matches_oracle(table, oracle))
          << "after op " << op << ", seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededCountingAbf,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// seek is the branch-free search every row edit and reprojection uses:
// it must equal std::lower_bound on the packed entries from any cursor,
// on empty rows, past the last entry and on rows of one entry.
TEST(CountingAbfRows, SeekEqualsLowerBoundFromAnyCursor) {
  Rng rng(7);
  std::vector<std::uint32_t> row;
  for (int trial = 0; trial < 20'000; ++trial) {
    row.clear();
    const auto size = rng.uniform_below(trial % 10 == 0 ? 2 : 300);
    for (std::uint64_t i = 0; i < size; ++i) {
      row.push_back(static_cast<std::uint32_t>(rng.uniform_below(1024)) << 4 |
                    static_cast<std::uint32_t>(1 + rng.uniform_below(15)));
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end(),
                          [](std::uint32_t a, std::uint32_t b) {
                            return CountingAbfTable::entry_pos(a) ==
                                   CountingAbfTable::entry_pos(b);
                          }),
              row.end());
    const auto pos = static_cast<std::uint32_t>(rng.uniform_below(1024));
    const std::size_t want = static_cast<std::size_t>(
        std::lower_bound(row.begin(), row.end(), pos << 4) - row.begin());
    const auto from = static_cast<std::size_t>(rng.uniform_below(want + 1));
    ASSERT_EQ(CountingAbfTable::seek(row, from, pos), want)
        << "size " << row.size() << " from " << from << " pos " << pos;
  }
}

// --- memory ----------------------------------------------------------------

// Memory follows the nonzero counters, not nodes x bits: a 100k-node,
// 1024-bit, depth-3 table with no content (dense counters would take
// 307 MB) costs its row descriptors and adjacency, and one key wave
// adds only the rows it reaches.
TEST(CountingAbfMemory, EmptyCatalogAt100kNodesStaysUnder8MB) {
  constexpr std::uint32_t kNodes = 100'000;
  CountingAbfTable table(kNodes, 3, {/*bits=*/1024, /*hashes=*/4});
  for (std::uint32_t v = 0; v < kNodes; ++v) {
    const std::uint32_t row[] = {(v + kNodes - 1) % kNodes, (v + 1) % kNodes};
    table.set_neighbors(v, row);
  }
  table.rebuild_derived();
  EXPECT_LT(table.memory_bytes(), std::size_t{8} << 20);
  table.insert_content(500, 42);
  EXPECT_EQ(table.entries(501, 1).size(), table.entries(500, 0).size());
  EXPECT_LT(table.memory_bytes(), std::size_t{8} << 20);
}

// --- one row's counter rules -------------------------------------------------
//
// The rules a counting Bloom filter applies to each slot, pinned on the
// table's level-0 rows (a depth-1 table's content wave touches only the
// holder's own row).

TEST(CountingBloom, InsertThenContains) {
  constexpr BloomParameters kRow{1024, 4};
  CountingAbfTable table(1, 1, kRow);
  table.insert_content(0, 42);
  EXPECT_TRUE(row_contains(table, 0, 0, 42, kRow));
  EXPECT_FALSE(row_contains(table, 0, 0, 43, kRow));
}

TEST(CountingBloom, RemoveErasesSingleton) {
  constexpr BloomParameters kRow{1024, 4};
  CountingAbfTable table(1, 1, kRow);
  table.insert_content(0, 42);
  table.remove_content(0, 42);
  EXPECT_FALSE(row_contains(table, 0, 0, 42, kRow));
  EXPECT_TRUE(table.entries(0, 0).empty());
}

TEST(CountingBloom, RemoveKeepsOtherKeys) {
  constexpr BloomParameters kRow{4096, 4};
  CountingAbfTable table(1, 1, kRow);
  Rng rng(1);
  std::vector<std::uint64_t> keep;
  std::vector<std::uint64_t> drop;
  for (int i = 0; i < 100; ++i) keep.push_back(rng());
  for (int i = 0; i < 100; ++i) drop.push_back(rng());
  for (const auto k : keep) table.insert_content(0, k);
  for (const auto k : drop) table.insert_content(0, k);
  for (const auto k : drop) table.remove_content(0, k);
  for (const auto k : keep) {
    EXPECT_TRUE(row_contains(table, 0, 0, k, kRow));  // counting keeps these
  }
}

TEST(CountingBloom, DoubleInsertNeedsDoubleRemove) {
  constexpr BloomParameters kRow{1024, 4};
  CountingAbfTable table(1, 1, kRow);
  table.insert_content(0, 7);
  table.insert_content(0, 7);
  table.remove_content(0, 7);
  EXPECT_TRUE(row_contains(table, 0, 0, 7, kRow));
  table.remove_content(0, 7);
  EXPECT_FALSE(row_contains(table, 0, 0, 7, kRow));
}

TEST(CountingBloom, SaturatedCountersAreNeverDecremented) {
  constexpr BloomParameters kRow{64, 1};
  CountingAbfTable table(1, 1, kRow);
  // Saturate a slot: insert one key far beyond the cap.
  for (int i = 0; i < 100; ++i) table.insert_content(0, 5);
  EXPECT_GT(table.saturated_count(0, 0), 0u);
  // Removing the key the same number of times must NOT clear the slot.
  for (int i = 0; i < 100; ++i) table.remove_content(0, 5);
  EXPECT_TRUE(row_contains(table, 0, 0, 5, kRow));
  EXPECT_GT(table.saturated_count(0, 0), 0u);
}

// A row's projection (bit set iff count nonzero) answers exactly like a
// plain filter built from the same keys: the probe layouts agree.
TEST(CountingBloom, SnapshotMatchesBloomSemantics) {
  constexpr BloomParameters kRow{2048, 4};
  CountingAbfTable table(1, 1, kRow);
  BloomFilter plain(kRow);
  Rng rng(2);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 300; ++i) {
    const auto k = rng();
    keys.push_back(k);
    table.insert_content(0, k);
    plain.insert(k);
  }
  BloomFilter snapshot(kRow);
  for (const std::uint32_t entry : table.entries(0, 0)) {
    snapshot.set_bit(CountingAbfTable::entry_pos(entry));
  }
  ASSERT_TRUE(snapshot.parameters_match(plain));
  for (const auto k : keys) EXPECT_TRUE(snapshot.maybe_contains(k));
  Rng probes(3);
  for (int i = 0; i < 5000; ++i) {
    const auto k = probes();
    EXPECT_EQ(snapshot.maybe_contains(k), plain.maybe_contains(k));
    EXPECT_EQ(row_contains(table, 0, 0, k, kRow), plain.maybe_contains(k));
  }
}

TEST(CountingBloom, SnapshotReflectsRemovals) {
  constexpr BloomParameters kRow{2048, 4};
  CountingAbfTable table(1, 1, kRow);
  table.insert_content(0, 1);
  table.insert_content(0, 2);
  table.remove_content(0, 1);
  EXPECT_FALSE(row_contains(table, 0, 0, 1, kRow));
  EXPECT_TRUE(row_contains(table, 0, 0, 2, kRow));
}

// rebuild_derived clears every derived row before summing: a node cut off
// without propagation keeps stale rows until the rebuild empties them.
TEST(CountingBloom, ClearResets) {
  constexpr BloomParameters kRow{512, 3};
  CountingAbfTable table(2, 2, kRow);
  const std::uint32_t to_one[] = {1};
  const std::uint32_t to_zero[] = {0};
  table.set_neighbors(0, to_one);
  table.set_neighbors(1, to_zero);
  table.rebuild_derived();
  table.insert_content(1, 9);
  EXPECT_TRUE(row_contains(table, 0, 1, 9, kRow));
  table.set_neighbors(0, {});
  table.set_neighbors(1, {});
  table.rebuild_derived();
  EXPECT_FALSE(row_contains(table, 0, 1, 9, kRow));
  EXPECT_TRUE(table.entries(0, 1).empty());
  EXPECT_EQ(table.saturated_count(0, 1), 0u);
  EXPECT_TRUE(row_contains(table, 1, 0, 9, kRow));  // level 0 is content
}

// A level sum is the slot-wise saturating sum of the neighbors' counters.
// Over the rounds every slot of node 0's level 1 sums every (a, b) in
// [0, 15]^2 from its two neighbors, with its other slots holding other
// pairs, so a sum leaking across slots or missing the cap shows up.
TEST(CountingBloom, AddCountsMatchesByteRule) {
  for (const std::size_t bits : {1u, 7u, 8u, 9u, 1023u, 1024u}) {
    const BloomParameters row_params{bits, 1};
    // With one hash, key k lands on slot bloom_hash_key(k).h1 % bits;
    // find one key per slot so inserting it c times sets that slot to c.
    std::vector<std::uint64_t> slot_key(bits);
    std::vector<bool> found(bits, false);
    std::size_t missing = bits;
    for (std::uint64_t k = 0; missing > 0; ++k) {
      const std::size_t slot = bloom_hash_key(k).h1 % bits;
      if (!found[slot]) {
        found[slot] = true;
        slot_key[slot] = k;
        --missing;
      }
    }
    // A row of 256 slots or more holds every pair in one round.
    const std::size_t stride = bits >= 256 ? 256 : 1;
    for (std::size_t round = 0; round < 256; round += stride) {
      CountingAbfTable table(3, 2, row_params);
      const std::uint32_t hub_row[] = {1, 2};
      const std::uint32_t leaf_row[] = {0};
      table.set_neighbors(0, hub_row);
      table.set_neighbors(1, leaf_row);
      table.set_neighbors(2, leaf_row);
      for (std::size_t s = 0; s < bits; ++s) {
        const std::size_t pair = (round + s) % 256;
        for (std::size_t i = 0; i < pair / 16; ++i) {
          table.seed_content(1, slot_key[s]);
        }
        for (std::size_t i = 0; i < pair % 16; ++i) {
          table.seed_content(2, slot_key[s]);
        }
      }
      table.rebuild_derived();
      for (std::size_t s = 0; s < bits; ++s) {
        const std::size_t pair = (round + s) % 256;
        ASSERT_EQ(table.count(0, 1, s),
                  std::min<std::size_t>(pair / 16 + pair % 16, kSat))
            << "bits=" << bits << " slot=" << s << " a=" << pair / 16
            << " b=" << pair % 16;
        ASSERT_EQ(table.count(2, 0, s), pair % 16) << "operand modified";
      }
    }
  }
}

// A key whose probes repeat a slot adds there once per repeat, and a
// multi-count wave (a walk multiplicity m) adds m per repeat.
TEST(CountingBloom, RepeatedProbeSlotsCountPerRepeat) {
  // The probe step is odd, so a power-of-two width never repeats a slot
  // within five probes; a width of 6 does whenever the step is 3 mod 6.
  constexpr BloomParameters kRow{6, 5};
  std::uint64_t key = 0;
  std::size_t repeats = 0;
  std::size_t slot = 0;
  for (; repeats < 2 && key < 100'000; ++key) {
    const auto slots = probe_slots(key, kRow);
    for (const std::size_t s : slots) {
      const auto r = static_cast<std::size_t>(
          std::count(slots.begin(), slots.end(), s));
      if (r >= 2 && r * 2 < kSat) {
        repeats = r;
        slot = s;
      }
    }
  }
  ASSERT_GE(repeats, 2u) << "no key repeats a probe slot";
  --key;
  // Node 0 sees the key at node 1 along two walks of length 2 (via 2 and
  // via 3), so its level-2 counter moves by 2 per repeat.
  CountingAbfTable table(4, 3, kRow);
  const std::uint32_t row0[] = {2, 3};
  const std::uint32_t row1[] = {2, 3};
  const std::uint32_t row23[] = {0, 1};
  table.set_neighbors(0, row0);
  table.set_neighbors(1, row1);
  table.set_neighbors(2, row23);
  table.set_neighbors(3, row23);
  table.rebuild_derived();
  table.insert_content(1, key);
  EXPECT_EQ(table.count(1, 0, slot), repeats);
  EXPECT_EQ(table.count(0, 2, slot), 2 * repeats);
  table.remove_content(1, key);
  EXPECT_EQ(table.count(1, 0, slot), 0u);
  EXPECT_EQ(table.count(0, 2, slot), 0u);
}

class CountingBloomProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(CountingBloomProperty, InsertRemoveRoundTripNoResidue) {
  const auto [bits, hashes] = GetParam();
  const BloomParameters row_params{bits, hashes};
  CountingAbfTable table(1, 1, row_params);
  Rng rng(11);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 50; ++i) keys.push_back(rng());
  for (const auto k : keys) table.insert_content(0, k);
  for (const auto k : keys) table.remove_content(0, k);
  // As long as no counter saturated, a full round trip leaves nothing.
  if (table.saturated_count(0, 0) == 0) {
    EXPECT_TRUE(table.entries(0, 0).empty());
    for (const auto k : keys) {
      EXPECT_FALSE(row_contains(table, 0, 0, k, row_params));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CountingBloomProperty,
    ::testing::Combine(::testing::Values(512, 2048, 8192),
                       ::testing::Values(2, 4, 6)));

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
  EXPECT_TRUE(table.entries(0, 0).empty());
  table.insert_content(0, 42);
  EXPECT_TRUE(row_contains(table, 0, 0, 42, kParams));
  table.remove_content(0, 42);
  EXPECT_FALSE(row_contains(table, 0, 0, 42, kParams));
}

TEST(CountingAbfSaturation, SaturatedSlotsAreStickyUnderRemoval) {
  CountingAbfTable table(2, 1, kParams);
  // Drive one node's level-0 slots to saturation with repeated inserts of
  // one key, then remove more times than were ever inserted: the slots
  // must pin at kSaturation (a bounded false-positive, never a false
  // negative or a wrap).
  const int inserts = kSat + 4;
  for (int i = 0; i < inserts; ++i) table.insert_content(0, 9);
  for (int i = 0; i < inserts + 8; ++i) table.remove_content(0, 9);
  EXPECT_TRUE(row_contains(table, 0, 0, 9, kParams));
}

// --- hashing agreement -----------------------------------------------------

// AbfRouter reprojects a counting wave into the blocked base at the key's
// positions only, which is sound only if both tables place a key on the
// same slots. Pin it: a counting row's slots after one insert,
// BlockedAbfTable::key_positions and the bits BlockedAbfTable::insert sets
// are one set, for every level width and hash count the tables accept.
TEST(CountingAbfHashing, BlockedKeyPositionsAreTheCountingSlots) {
  for (const std::size_t bits : {64u, 128u, 192u, 256u, 1024u, 4096u,
                                 65536u}) {
    for (const std::size_t hashes : {1u, 3u, 4u, 8u, 11u}) {
      BlockedAbfTable table(1, 1, bits, hashes);
      CountingAbfTable counting(1, 1, {bits, hashes});
      std::vector<std::uint16_t> positions(hashes);
      std::vector<std::uint16_t> newly(hashes);
      for (std::uint64_t k = 0; k < 500; ++k) {
        std::uint64_t state = k * 7919 + bits * 31 + hashes;
        const std::uint64_t key = splitmix64(state);
        counting.insert_content(0, key);
        std::vector<std::uint16_t> slots;
        for (const std::uint32_t entry : counting.entries(0, 0)) {
          slots.push_back(
              static_cast<std::uint16_t>(CountingAbfTable::entry_pos(entry)));
        }
        counting.remove_content(0, key);
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
