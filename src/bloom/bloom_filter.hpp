// Bloom filter (Bloom, CACM 1970) keyed on 64-bit object identifiers.
//
// Double hashing (Kirsch & Mitzenmacher): the k probe positions are
// h1 + i*h2 mod m, with h1/h2 derived from one splitmix64 pass each —
// asymptotically as good as k independent hashes and much cheaper.
//
// Storage is word-granular (64-bit blocks) and the bit count is kept
// EXACTLY as requested — m = 63 means modulus 63, not a silent round-up
// to 64. The bits of the trailing word beyond m are padding and are kept
// zero as a class invariant (`tail_mask` re-asserts it after every
// word-granular mutation), so whole-word consumers — merge, popcount
// fill estimation, and the arena match kernels in bloom/filter_arena —
// can operate on full words without per-bit bounds checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/contracts.hpp"

namespace makalu {

struct BloomParameters {
  std::size_t bits = 1024;  ///< m, used exactly (tail word padded with 0s)
  std::size_t hashes = 4;   ///< k

  /// Standard sizing: m = -n ln p / (ln 2)^2, k = (m/n) ln 2 for n expected
  /// items at target false-positive probability p.
  static BloomParameters optimal(std::size_t expected_items,
                                 double target_fpr);
};

/// Probe derivation shared by every filter flavour (plain, counting,
/// arena-pooled): identical inputs must yield identical probe sequences
/// or snapshots/advertisements stop being probe-compatible.
struct BloomProbes {
  std::uint64_t h1;
  std::uint64_t h2;
};
[[nodiscard]] BloomProbes bloom_hash_key(std::uint64_t key) noexcept;

/// Mask selecting the in-range bits of the trailing word of an m-bit
/// filter (all-ones when m is a multiple of 64).
[[nodiscard]] constexpr std::uint64_t bloom_tail_mask(
    std::size_t bits) noexcept {
  const std::size_t rem = bits % 64;
  return rem == 0 ? ~0ULL : (1ULL << rem) - 1ULL;
}

class BloomFilter {
 public:
  explicit BloomFilter(BloomParameters params = {});

  void insert(std::uint64_t key) noexcept;
  [[nodiscard]] bool maybe_contains(std::uint64_t key) const noexcept;

  /// Direct bit access. Setting bit j for every nonzero slot j of a
  /// CountingAbfTable row of the same width and hash count reproduces the
  /// row's membership slot-for-slot (the probe layouts are identical).
  void set_bit(std::size_t position) noexcept {
    MAKALU_EXPECTS(position < bits_);
    blocks_[position / 64] |= (1ULL << (position % 64));
  }
  [[nodiscard]] bool test_bit(std::size_t position) const noexcept {
    MAKALU_EXPECTS(position < bits_);
    return (blocks_[position / 64] & (1ULL << (position % 64))) != 0;
  }

  /// Bitwise OR of another filter with identical parameters.
  void merge(const BloomFilter& other);

  void clear() noexcept;

  [[nodiscard]] std::size_t bit_count() const noexcept { return bits_; }
  [[nodiscard]] std::size_t hash_count() const noexcept { return hashes_; }
  [[nodiscard]] std::size_t set_bit_count() const noexcept;
  [[nodiscard]] double fill_ratio() const noexcept;

  /// Estimated false-positive probability at the current fill:
  /// (fill_ratio)^k. This is what the ABF level weighting reasons about.
  [[nodiscard]] double estimated_fpr() const noexcept;

  /// Approximate number of distinct inserted items from the fill ratio:
  /// n ≈ -(m/k) ln(1 - fill).
  [[nodiscard]] double estimated_cardinality() const noexcept;

  [[nodiscard]] bool parameters_match(const BloomFilter& other) const noexcept {
    return bits_ == other.bits_ && hashes_ == other.hashes_;
  }

  /// Serialized size in bytes (bit array only) — used for the bandwidth
  /// accounting of filter exchanges.
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return (bits_ + 7) / 8;
  }

  /// Word-level access for whole-word consumers. The invariant that the
  /// tail word's padding bits are zero holds at every public-API boundary.
  [[nodiscard]] std::size_t word_count() const noexcept {
    return blocks_.size();
  }
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return blocks_;
  }
  [[nodiscard]] std::uint64_t tail_mask() const noexcept {
    return bloom_tail_mask(bits_);
  }

 private:
  std::size_t bits_;
  std::size_t hashes_;
  std::vector<std::uint64_t> blocks_;
};

}  // namespace makalu
