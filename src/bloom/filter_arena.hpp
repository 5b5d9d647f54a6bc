// Pooled storage for per-arc attenuated Bloom filter stacks, laid out for
// word-at-a-time match kernels.
//
// AbfRouter keeps one depth-D filter stack per directed arc. As separate
// `AttenuatedBloomFilter` objects those stacks are D+1 heap allocations
// each, scattered across the heap, and every match probe re-derives the
// key's hash pair and pays a runtime-divide modulus per (neighbor, level).
// The arena fixes all three costs at once:
//
//   * one 64-byte-aligned allocation holds every level of every arc;
//     level l of arc a starts at words() + (a * depth + l) * level_stride()
//     with the stride rounded up to 8 words so each level is itself
//     64-byte aligned (the unit AVX2 loads/gathers want);
//   * a query's probe positions depend only on the key and the filter
//     parameters, never on the arc or level, so they are computed ONCE per
//     query into a `BloomProbeSet` — (word index, bit mask) pairs, deduped
//     by word — and replayed against raw words with no hashing or division
//     on the hot path;
//   * `match_many` scores a contiguous arc range (a CSR node's whole
//     neighbor row) in one pass, returning per-arc level-match bitmasks
//     from which score / first-match-level derive exactly.
//
// Kernel selection: the portable kernel is a plain word loop; the AVX2
// kernel gathers the probe words of four levels' worth of probes at a time
// (compiled with a function-level target attribute, so the rest of the TU
// stays baseline ISA). Both produce the same level-match bitmask — a match
// is a boolean per (arc, level), so equality of masks gives bit-identical
// scores. Dispatch happens once (first use) via __builtin_cpu_supports,
// overridable with MAKALU_FORCE_PORTABLE_MATCH=1 or the test seam
// `set_match_kernel_override`. `kReference` tests one bit per hash per
// level with a runtime-divide modulus on the same words: it is the
// oracle the differential tests hold the fast kernels to, and the
// fallback every kernel takes for a probe set too large to precompute.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "bloom/bloom_filter.hpp"
#include "support/contracts.hpp"

namespace makalu {

/// Which match kernel scores level-match bitmasks.
enum class MatchKernel {
  kAuto,       ///< runtime dispatch: AVX2 when the CPU has it, else portable
  kReference,  ///< per-hash modulus per level: test oracle, overflow path
  kPortable,   ///< word loop over the precomputed probe set
  kAvx2,       ///< gathered word loop (x86-64 with AVX2 only)
};

/// Test/benchmark seam: force every kAuto dispatch to one kernel.
/// Pass kAuto to restore normal dispatch. Takes effect immediately,
/// including for already-constructed arenas.
void set_match_kernel_override(MatchKernel kernel) noexcept;
/// The kernel kAuto currently resolves to (kPortable or kAvx2).
[[nodiscard]] MatchKernel resolved_match_kernel() noexcept;
/// Lower-case kernel name ("auto", "reference", "portable", "avx2") for
/// run metadata.
[[nodiscard]] std::string_view match_kernel_name(MatchKernel kernel) noexcept;

/// A zeroed, 64-byte-aligned slab of `words` words (nullptr for 0), the
/// storage behind FilterArena and BlockedAbfTable. Release it with
/// free_aligned_words.
[[nodiscard]] std::uint64_t* allocate_aligned_words(std::size_t words);
void free_aligned_words(std::uint64_t* p) noexcept;

/// A query key's probe positions against a fixed (bits, hashes) shape,
/// precomputed to (word index, required-bits mask) pairs deduped by word.
/// Valid for any level of any arc of the arena that built it.
struct BloomProbeSet {
  static constexpr std::size_t kMaxWords = 16;

  alignas(32) std::array<std::uint64_t, kMaxWords> word{};
  alignas(32) std::array<std::uint64_t, kMaxWords> mask{};
  std::size_t count = 0;         ///< live entries
  std::size_t padded_count = 0;  ///< count rounded up to 4 (padding matches
                                 ///< trivially: word 0 with an empty mask)
  /// Raw probe parameters for the reference kernel and the k > kMaxWords
  /// overflow fallback.
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;
  std::uint64_t bits = 0;
  std::size_t hashes = 0;
  bool overflow = false;  ///< hashes > kMaxWords: kernels fall back to the
                          ///< reference probe loop (identical results)
};

class FilterArena {
 public:
  FilterArena(std::size_t arc_count, std::size_t depth,
              BloomParameters level_params);
  ~FilterArena();

  FilterArena(const FilterArena&) = delete;
  FilterArena& operator=(const FilterArena&) = delete;
  FilterArena(FilterArena&& other) noexcept;
  FilterArena& operator=(FilterArena&& other) noexcept;

  [[nodiscard]] std::size_t arc_count() const noexcept { return arcs_; }
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::size_t bits_per_level() const noexcept { return bits_; }
  [[nodiscard]] std::size_t hash_count() const noexcept { return hashes_; }
  /// Words actually carrying filter bits per level.
  [[nodiscard]] std::size_t words_per_level() const noexcept {
    return (bits_ + 63) / 64;
  }
  /// Allocation stride between consecutive levels, in words (≥
  /// words_per_level, multiple of 8 so levels stay 64-byte aligned).
  [[nodiscard]] std::size_t level_stride() const noexcept { return stride_; }

  [[nodiscard]] std::uint64_t* level_words(std::size_t arc,
                                           std::size_t level) noexcept {
    MAKALU_EXPECTS(arc < arcs_ && level < depth_);
    return data_ + (arc * depth_ + level) * stride_;
  }
  [[nodiscard]] const std::uint64_t* level_words(
      std::size_t arc, std::size_t level) const noexcept {
    MAKALU_EXPECTS(arc < arcs_ && level < depth_);
    return data_ + (arc * depth_ + level) * stride_;
  }

  void insert(std::size_t arc, std::size_t level, std::uint64_t key) noexcept;
  [[nodiscard]] bool maybe_contains(std::size_t arc, std::size_t level,
                                    std::uint64_t key) const noexcept;
  /// OR source level into destination level (same arena shape by
  /// construction). Whole-word; padding words stay zero by invariant.
  void merge_level(std::size_t dst_arc, std::size_t dst_level,
                   std::size_t src_arc, std::size_t src_level) noexcept;
  void clear() noexcept;

  /// Probe positions for `key` against this arena's level shape.
  [[nodiscard]] BloomProbeSet make_probe_set(std::uint64_t key) const noexcept;

  /// Level-match bitmask for one arc: bit l set iff level l may contain the
  /// probed key. Kernel per `mode` (kAuto = dispatched).
  [[nodiscard]] std::uint32_t match_mask(
      std::size_t arc, const BloomProbeSet& probes,
      MatchKernel mode = MatchKernel::kAuto) const noexcept;

  /// One-pass scoring of `arc_count` consecutive arcs starting at
  /// `first_arc` (a CSR neighbor row): out_masks[i] is the level-match
  /// bitmask of arc first_arc + i.
  void match_many(std::size_t first_arc, std::size_t arc_count,
                  const BloomProbeSet& probes, std::uint32_t* out_masks,
                  MatchKernel mode = MatchKernel::kAuto) const noexcept;

  /// Level-weighted score from a match bitmask: Σ 2^-l over set bits —
  /// exactly AttenuatedBloomFilter::match_score (sums of distinct powers
  /// of two, so the double is reproduced bit-for-bit).
  [[nodiscard]] static double score_from_mask(std::uint32_t mask) noexcept;

  /// Serialized size of one depth-D stack (what a peer exchange ships);
  /// mirrors AttenuatedBloomFilter::byte_size.
  [[nodiscard]] std::size_t stack_byte_size() const noexcept {
    return depth_ * ((bits_ + 7) / 8);
  }

 private:
  std::size_t arcs_ = 0;
  std::size_t depth_ = 0;
  std::size_t bits_ = 0;
  std::size_t hashes_ = 0;
  std::size_t stride_ = 0;  ///< words between consecutive levels
  std::uint64_t* data_ = nullptr;
  std::size_t total_words_ = 0;
};

/// Read-only view of one level of one arc's stack, API-compatible with the
/// `const BloomFilter&` AbfRouter::advertisement used to return.
class BloomLevelView {
 public:
  BloomLevelView(const std::uint64_t* words, std::size_t bits,
                 std::size_t hashes) noexcept
      : words_(words), bits_(bits), hashes_(hashes) {}

  [[nodiscard]] bool maybe_contains(std::uint64_t key) const noexcept;
  [[nodiscard]] std::size_t bit_count() const noexcept { return bits_; }
  [[nodiscard]] std::size_t hash_count() const noexcept { return hashes_; }
  [[nodiscard]] std::size_t set_bit_count() const noexcept;

 private:
  const std::uint64_t* words_;
  std::size_t bits_;
  std::size_t hashes_;
};

/// Read-only view of one arc's depth-D stack.
class AbfStackView {
 public:
  AbfStackView(const FilterArena* arena, std::size_t arc) noexcept
      : arena_(arena), arc_(arc) {}

  [[nodiscard]] std::size_t depth() const noexcept { return arena_->depth(); }
  [[nodiscard]] BloomLevelView level(std::size_t i) const noexcept {
    return BloomLevelView(arena_->level_words(arc_, i),
                          arena_->bits_per_level(), arena_->hash_count());
  }
  [[nodiscard]] double match_score(std::uint64_t key) const noexcept {
    return FilterArena::score_from_mask(
        arena_->match_mask(arc_, arena_->make_probe_set(key)));
  }
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return arena_->stack_byte_size();
  }

 private:
  const FilterArena* arena_;
  std::size_t arc_;
};

}  // namespace makalu
