// Counting Bloom filter (Fan et al., SIGCOMM 1998): a Bloom filter whose
// bits are small saturating counters, supporting deletion.
//
// Needed wherever summarised content *churns*: a node's local store index
// must support removal when files are deleted or unshared, and the plain
// bit-vector filter cannot (clearing a bit may erase other keys).
// Counters saturate at 15 (4-bit equivalent, stored in bytes for speed);
// a saturated counter is never decremented — the standard safe-deletion
// rule that preserves the no-false-negative guarantee at the cost of a
// few permanently set positions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bloom/bloom_filter.hpp"

namespace makalu {

class CountingBloomFilter {
 public:
  explicit CountingBloomFilter(BloomParameters params = {});

  void insert(std::uint64_t key) noexcept;

  /// Removes one prior insertion of `key`. Removing a key that was never
  /// inserted is undefined in the Bloom sense (it may create false
  /// negatives for colliding keys) — callers track membership themselves,
  /// as with every counting filter.
  void remove(std::uint64_t key) noexcept;

  /// Multi-count variants, for callers that maintain aggregated filters
  /// (one logical insertion observed along `count` distinct paths — see
  /// bloom/counting_abf_table.hpp). insert saturates per slot; remove
  /// never decrements a saturated slot (its exact count is lost) and
  /// clamps at zero rather than wrapping (the decrement-underflow guard
  /// the incremental-update property suite exercises).
  void insert(std::uint64_t key, std::uint32_t count) noexcept;
  void remove(std::uint64_t key, std::uint32_t count) noexcept;

  /// Slot-wise saturating aggregation: adds o's counters into this
  /// filter, each slot clamped at kSaturation. Shapes must match; `other`
  /// may be this filter. Sums eight counters per 64-bit word.
  void add_counts(const CountingBloomFilter& other) noexcept;

  [[nodiscard]] std::span<const std::uint8_t> counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] bool operator==(const CountingBloomFilter& other) const
      noexcept {
    return hashes_ == other.hashes_ && counters_ == other.counters_;
  }

  [[nodiscard]] bool maybe_contains(std::uint64_t key) const noexcept;

  void clear() noexcept;

  /// Snapshot as a plain BloomFilter (counter > 0 → bit set) with the
  /// same parameters — this is what gets advertised to peers.
  [[nodiscard]] BloomFilter to_bloom_filter() const;

  [[nodiscard]] std::size_t slot_count() const noexcept {
    return counters_.size();
  }
  [[nodiscard]] std::size_t hash_count() const noexcept { return hashes_; }
  [[nodiscard]] std::size_t nonzero_count() const noexcept;
  [[nodiscard]] std::size_t saturated_count() const noexcept;

  static constexpr std::uint8_t kSaturation = 15;

 private:
  std::size_t hashes_;
  std::vector<std::uint8_t> counters_;
};

}  // namespace makalu
