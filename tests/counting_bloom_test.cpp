// Tests for the counting Bloom filter (deletion-capable content index).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bloom/counting_bloom_filter.hpp"
#include "support/rng.hpp"

namespace makalu {
namespace {

TEST(CountingBloom, InsertThenContains) {
  CountingBloomFilter filter({1024, 4});
  filter.insert(42);
  EXPECT_TRUE(filter.maybe_contains(42));
  EXPECT_FALSE(filter.maybe_contains(43));
}

TEST(CountingBloom, RemoveErasesSingleton) {
  CountingBloomFilter filter({1024, 4});
  filter.insert(42);
  filter.remove(42);
  EXPECT_FALSE(filter.maybe_contains(42));
  EXPECT_EQ(filter.nonzero_count(), 0u);
}

TEST(CountingBloom, RemoveKeepsOtherKeys) {
  CountingBloomFilter filter({4096, 4});
  Rng rng(1);
  std::vector<std::uint64_t> keep;
  std::vector<std::uint64_t> drop;
  for (int i = 0; i < 100; ++i) keep.push_back(rng());
  for (int i = 0; i < 100; ++i) drop.push_back(rng());
  for (const auto k : keep) filter.insert(k);
  for (const auto k : drop) filter.insert(k);
  for (const auto k : drop) filter.remove(k);
  for (const auto k : keep) {
    EXPECT_TRUE(filter.maybe_contains(k));  // counting preserves these
  }
}

TEST(CountingBloom, DoubleInsertNeedsDoubleRemove) {
  CountingBloomFilter filter({1024, 4});
  filter.insert(7);
  filter.insert(7);
  filter.remove(7);
  EXPECT_TRUE(filter.maybe_contains(7));
  filter.remove(7);
  EXPECT_FALSE(filter.maybe_contains(7));
}

TEST(CountingBloom, SaturatedCountersAreNeverDecremented) {
  CountingBloomFilter filter({64, 1});
  // Saturate a slot: insert one key far beyond the cap.
  for (int i = 0; i < 100; ++i) filter.insert(5);
  EXPECT_GT(filter.saturated_count(), 0u);
  // Removing the key the same number of times must NOT clear the slot.
  for (int i = 0; i < 100; ++i) filter.remove(5);
  EXPECT_TRUE(filter.maybe_contains(5));
  EXPECT_GT(filter.saturated_count(), 0u);
}

TEST(CountingBloom, SnapshotMatchesBloomSemantics) {
  CountingBloomFilter counting({2048, 4});
  BloomFilter plain({2048, 4});
  Rng rng(2);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 300; ++i) {
    const auto k = rng();
    keys.push_back(k);
    counting.insert(k);
    plain.insert(k);
  }
  const BloomFilter snapshot = counting.to_bloom_filter();
  // Probe-layout compatibility: the snapshot answers exactly like a plain
  // filter built from the same keys.
  ASSERT_TRUE(snapshot.parameters_match(plain));
  for (const auto k : keys) EXPECT_TRUE(snapshot.maybe_contains(k));
  Rng probes(3);
  for (int i = 0; i < 5000; ++i) {
    const auto k = probes();
    EXPECT_EQ(snapshot.maybe_contains(k), plain.maybe_contains(k));
  }
}

TEST(CountingBloom, SnapshotReflectsRemovals) {
  CountingBloomFilter counting({2048, 4});
  counting.insert(1);
  counting.insert(2);
  counting.remove(1);
  const BloomFilter snapshot = counting.to_bloom_filter();
  EXPECT_FALSE(snapshot.maybe_contains(1));
  EXPECT_TRUE(snapshot.maybe_contains(2));
}

TEST(CountingBloom, ClearResets) {
  CountingBloomFilter filter({512, 3});
  filter.insert(9);
  filter.clear();
  EXPECT_FALSE(filter.maybe_contains(9));
  EXPECT_EQ(filter.nonzero_count(), 0u);
  EXPECT_EQ(filter.saturated_count(), 0u);
}

// add_counts sums eight counters per 64-bit word. Over 256 rounds every
// slot — so every byte lane of a word, and every slot of the scalar tail —
// holds every (a, b) in [0, 15]^2, with its neighbours holding other
// pairs, so a carry or a saturation leaking across a byte shows up.
TEST(CountingBloom, AddCountsMatchesByteRule) {
  for (const std::size_t bits : {1u, 7u, 8u, 9u, 1023u, 1024u}) {
    // With one hash, key k lands on slot bloom_hash_key(k).h1 % bits;
    // find one key per slot so insert(key, c) sets that slot to c.
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
    const auto fill = [&](CountingBloomFilter& f, std::size_t round,
                          bool first) {
      f.clear();
      for (std::size_t s = 0; s < bits; ++s) {
        const std::size_t pair = (round + s) % 256;
        f.insert(slot_key[s],
                 static_cast<std::uint32_t>(first ? pair / 16 : pair % 16));
      }
    };
    CountingBloomFilter a({bits, 1});
    CountingBloomFilter b({bits, 1});
    for (std::size_t round = 0; round < 256; ++round) {
      fill(a, round, true);
      fill(b, round, false);
      a.add_counts(b);
      for (std::size_t s = 0; s < bits; ++s) {
        const std::size_t pair = (round + s) % 256;
        const std::size_t want = std::min<std::size_t>(pair / 16 + pair % 16,
                                                       15);
        ASSERT_EQ(a.counters()[s], want)
            << "bits=" << bits << " slot=" << s << " a=" << pair / 16
            << " b=" << pair % 16;
        ASSERT_EQ(b.counters()[s], pair % 16) << "operand modified";
      }
      fill(a, round, true);
      a.add_counts(a);
      for (std::size_t s = 0; s < bits; ++s) {
        const std::size_t x = (round + s) % 256 / 16;
        ASSERT_EQ(a.counters()[s], std::min<std::size_t>(2 * x, 15))
            << "self-add bits=" << bits << " slot=" << s;
      }
    }
  }
}

class CountingBloomProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(CountingBloomProperty, InsertRemoveRoundTripNoResidue) {
  const auto [bits, hashes] = GetParam();
  CountingBloomFilter filter({bits, hashes});
  Rng rng(11);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 50; ++i) keys.push_back(rng());
  for (const auto k : keys) filter.insert(k);
  for (const auto k : keys) filter.remove(k);
  // As long as no counter saturated, a full round trip leaves nothing.
  if (filter.saturated_count() == 0) {
    EXPECT_EQ(filter.nonzero_count(), 0u);
    for (const auto k : keys) EXPECT_FALSE(filter.maybe_contains(k));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CountingBloomProperty,
    ::testing::Combine(::testing::Values(512, 2048, 8192),
                       ::testing::Values(2, 4, 6)));

}  // namespace
}  // namespace makalu
