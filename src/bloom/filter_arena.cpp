#include "bloom/filter_arena.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace makalu {
namespace {

// ---- kernel selection -----------------------------------------------------

std::atomic<MatchKernel> g_kernel_override{MatchKernel::kAuto};

MatchKernel detect_kernel() noexcept {
  static const MatchKernel detected = [] {
    if (const char* env = std::getenv("MAKALU_FORCE_PORTABLE_MATCH");
        env != nullptr && env[0] == '1') {
      return MatchKernel::kPortable;
    }
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2")) return MatchKernel::kAvx2;
#endif
    return MatchKernel::kPortable;
  }();
  return detected;
}

// ---- kernels --------------------------------------------------------------
//
// Each scores `n` consecutive stacks: stack a starts at
// base + a * stack_stride, level l of it at + l * level_stride. out[a] is
// the level-match bitmask. All kernels must agree bit-for-bit; the
// differential tests in tests/batched_differential_test.cpp pin this.

std::uint32_t reference_stack_mask(const std::uint64_t* stack,
                                   std::size_t level_stride,
                                   std::size_t depth,
                                   const BloomProbeSet& p) noexcept {
  // Per level, per hash, recompute the position with a runtime-divide
  // modulus and test one bit: the oracle the word kernels are tested
  // against, and the k > kMaxWords overflow path.
  std::uint32_t out = 0;
  for (std::size_t l = 0; l < depth; ++l) {
    const std::uint64_t* words = stack + l * level_stride;
    bool ok = true;
    for (std::size_t i = 0; i < p.hashes; ++i) {
      const std::uint64_t pos = (p.h1 + i * p.h2) % p.bits;
      if ((words[pos / 64] & (1ULL << (pos % 64))) == 0) {
        ok = false;
        break;
      }
    }
    out |= static_cast<std::uint32_t>(ok) << l;
  }
  return out;
}

void reference_match_many(const std::uint64_t* base, std::size_t level_stride,
                          std::size_t stack_stride, std::size_t depth,
                          std::size_t n, const BloomProbeSet& p,
                          std::uint32_t* out) noexcept {
  for (std::size_t a = 0; a < n; ++a) {
    out[a] = reference_stack_mask(base + a * stack_stride, level_stride,
                                  depth, p);
  }
}

void portable_match_many(const std::uint64_t* base, std::size_t level_stride,
                         std::size_t stack_stride, std::size_t depth,
                         std::size_t n, const BloomProbeSet& p,
                         std::uint32_t* out) noexcept {
  if (p.overflow) {
    reference_match_many(base, level_stride, stack_stride, depth, n, p, out);
    return;
  }
  for (std::size_t a = 0; a < n; ++a) {
    const std::uint64_t* stack = base + a * stack_stride;
    std::uint32_t mask = 0;
    for (std::size_t l = 0; l < depth; ++l) {
      const std::uint64_t* words = stack + l * level_stride;
      bool ok = true;
      for (std::size_t j = 0; j < p.count; ++j) {
        ok &= (words[p.word[j]] & p.mask[j]) == p.mask[j];
      }
      mask |= static_cast<std::uint32_t>(ok) << l;
    }
    out[a] = mask;
  }
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void avx2_match_many(
    const std::uint64_t* base, std::size_t level_stride,
    std::size_t stack_stride, std::size_t depth, std::size_t n,
    const BloomProbeSet& p, std::uint32_t* out) noexcept {
  if (p.overflow) {
    reference_match_many(base, level_stride, stack_stride, depth, n, p, out);
    return;
  }
  // Probe indices/masks are loop-invariant across arcs and levels: hoist
  // them into registers once (padded_count ≤ kMaxWords = 16 → ≤ 4 pairs).
  __m256i idx[BloomProbeSet::kMaxWords / 4];
  __m256i need[BloomProbeSet::kMaxWords / 4];
  const std::size_t groups = p.padded_count / 4;
  for (std::size_t g = 0; g < groups; ++g) {
    idx[g] = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(p.word.data() + 4 * g));
    need[g] = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(p.mask.data() + 4 * g));
  }
  for (std::size_t a = 0; a < n; ++a) {
    const std::uint64_t* stack = base + a * stack_stride;
    std::uint32_t mask = 0;
    for (std::size_t l = 0; l < depth; ++l) {
      const auto* words =
          reinterpret_cast<const long long*>(stack + l * level_stride);
      bool ok = true;
      for (std::size_t g = 0; g < groups; ++g) {
        // Padding lanes probe word 0 with an empty mask: (x & 0) == 0
        // always holds, so they never veto a match.
        const __m256i got = _mm256_i64gather_epi64(words, idx[g], 8);
        const __m256i hit =
            _mm256_cmpeq_epi64(_mm256_and_si256(got, need[g]), need[g]);
        ok &= _mm256_movemask_pd(_mm256_castsi256_pd(hit)) == 0xF;
      }
      mask |= static_cast<std::uint32_t>(ok) << l;
    }
    out[a] = mask;
  }
}
#endif

using MatchManyFn = void (*)(const std::uint64_t*, std::size_t, std::size_t,
                             std::size_t, std::size_t, const BloomProbeSet&,
                             std::uint32_t*) noexcept;

MatchManyFn kernel_for(MatchKernel mode) noexcept {
  if (mode == MatchKernel::kAuto) mode = resolved_match_kernel();
  switch (mode) {
    case MatchKernel::kReference:
      return &reference_match_many;
#if defined(__x86_64__)
    case MatchKernel::kAvx2:
      return &avx2_match_many;
#endif
    default:
      return &portable_match_many;
  }
}

}  // namespace

std::uint64_t* allocate_aligned_words(std::size_t words) {
  if (words == 0) return nullptr;
  auto* p = static_cast<std::uint64_t*>(::operator new(
      words * sizeof(std::uint64_t), std::align_val_t{64}));
  std::memset(p, 0, words * sizeof(std::uint64_t));
  return p;
}

void free_aligned_words(std::uint64_t* p) noexcept {
  if (p != nullptr) ::operator delete(p, std::align_val_t{64});
}

void set_match_kernel_override(MatchKernel kernel) noexcept {
  g_kernel_override.store(kernel, std::memory_order_relaxed);
}

MatchKernel resolved_match_kernel() noexcept {
  const MatchKernel forced =
      g_kernel_override.load(std::memory_order_relaxed);
  if (forced != MatchKernel::kAuto) {
#if !defined(__x86_64__)
    if (forced == MatchKernel::kAvx2) return MatchKernel::kPortable;
#endif
    return forced;
  }
  return detect_kernel();
}

std::string_view match_kernel_name(MatchKernel kernel) noexcept {
  switch (kernel) {
    case MatchKernel::kAuto:
      return "auto";
    case MatchKernel::kReference:
      return "reference";
    case MatchKernel::kPortable:
      return "portable";
    case MatchKernel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

FilterArena::FilterArena(std::size_t arc_count, std::size_t depth,
                         BloomParameters level_params)
    : arcs_(arc_count),
      depth_(depth),
      bits_(level_params.bits),
      hashes_(level_params.hashes) {
  MAKALU_EXPECTS(depth >= 1 && depth <= 32);
  MAKALU_EXPECTS(level_params.bits > 0);
  MAKALU_EXPECTS(level_params.hashes > 0);
  stride_ = (words_per_level() + 7) / 8 * 8;  // keep every level 64B-aligned
  total_words_ = arcs_ * depth_ * stride_;
  data_ = allocate_aligned_words(total_words_);
}

FilterArena::~FilterArena() { free_aligned_words(data_); }

FilterArena::FilterArena(FilterArena&& other) noexcept
    : arcs_(other.arcs_),
      depth_(other.depth_),
      bits_(other.bits_),
      hashes_(other.hashes_),
      stride_(other.stride_),
      data_(other.data_),
      total_words_(other.total_words_) {
  other.data_ = nullptr;
  other.total_words_ = 0;
  other.arcs_ = 0;
}

FilterArena& FilterArena::operator=(FilterArena&& other) noexcept {
  if (this != &other) {
    free_aligned_words(data_);
    arcs_ = other.arcs_;
    depth_ = other.depth_;
    bits_ = other.bits_;
    hashes_ = other.hashes_;
    stride_ = other.stride_;
    data_ = other.data_;
    total_words_ = other.total_words_;
    other.data_ = nullptr;
    other.total_words_ = 0;
    other.arcs_ = 0;
  }
  return *this;
}

void FilterArena::insert(std::size_t arc, std::size_t level,
                         std::uint64_t key) noexcept {
  std::uint64_t* words = level_words(arc, level);
  const auto [h1, h2] = bloom_hash_key(key);
  for (std::size_t i = 0; i < hashes_; ++i) {
    const std::uint64_t pos = (h1 + i * h2) % bits_;
    words[pos / 64] |= (1ULL << (pos % 64));
  }
}

bool FilterArena::maybe_contains(std::size_t arc, std::size_t level,
                                 std::uint64_t key) const noexcept {
  const std::uint64_t* words = level_words(arc, level);
  const auto [h1, h2] = bloom_hash_key(key);
  for (std::size_t i = 0; i < hashes_; ++i) {
    const std::uint64_t pos = (h1 + i * h2) % bits_;
    if ((words[pos / 64] & (1ULL << (pos % 64))) == 0) return false;
  }
  return true;
}

void FilterArena::merge_level(std::size_t dst_arc, std::size_t dst_level,
                              std::size_t src_arc,
                              std::size_t src_level) noexcept {
  std::uint64_t* dst = level_words(dst_arc, dst_level);
  const std::uint64_t* src = level_words(src_arc, src_level);
  const std::size_t w = words_per_level();
  for (std::size_t i = 0; i < w; ++i) dst[i] |= src[i];
}

void FilterArena::clear() noexcept {
  if (data_ != nullptr) {
    std::memset(data_, 0, total_words_ * sizeof(std::uint64_t));
  }
}

BloomProbeSet FilterArena::make_probe_set(std::uint64_t key) const noexcept {
  BloomProbeSet p;
  const auto [h1, h2] = bloom_hash_key(key);
  p.h1 = h1;
  p.h2 = h2;
  p.bits = bits_;
  p.hashes = hashes_;
  if (hashes_ > BloomProbeSet::kMaxWords) {
    p.overflow = true;
    return p;
  }
  for (std::size_t i = 0; i < hashes_; ++i) {
    const std::uint64_t pos = (h1 + i * h2) % bits_;
    const std::uint64_t w = pos / 64;
    const std::uint64_t m = 1ULL << (pos % 64);
    std::size_t j = 0;
    while (j < p.count && p.word[j] != w) ++j;
    if (j == p.count) {
      p.word[j] = w;
      p.mask[j] = m;
      ++p.count;
    } else {
      p.mask[j] |= m;
    }
  }
  // Pad to a multiple of 4 lanes with trivially-true probes (word 0, empty
  // mask) so the AVX2 kernel needs no tail handling.
  p.padded_count = (p.count + 3) / 4 * 4;
  for (std::size_t j = p.count; j < p.padded_count; ++j) {
    p.word[j] = 0;
    p.mask[j] = 0;
  }
  return p;
}

std::uint32_t FilterArena::match_mask(std::size_t arc,
                                      const BloomProbeSet& probes,
                                      MatchKernel mode) const noexcept {
  std::uint32_t out = 0;
  match_many(arc, 1, probes, &out, mode);
  return out;
}

void FilterArena::match_many(std::size_t first_arc, std::size_t arc_count,
                             const BloomProbeSet& probes,
                             std::uint32_t* out_masks,
                             MatchKernel mode) const noexcept {
  if (arc_count == 0) return;
  MAKALU_EXPECTS(first_arc + arc_count <= arcs_);
  kernel_for(mode)(level_words(first_arc, 0), stride_, depth_ * stride_,
                   depth_, arc_count, probes, out_masks);
}

double FilterArena::score_from_mask(std::uint32_t mask) noexcept {
  // Sums of distinct powers of two are exact in double, so this reproduces
  // the sequential weight-halving accumulation bit-for-bit.
  double score = 0.0;
  while (mask != 0) {
    score += std::ldexp(1.0, -std::countr_zero(mask));
    mask &= mask - 1;
  }
  return score;
}

bool BloomLevelView::maybe_contains(std::uint64_t key) const noexcept {
  const auto [h1, h2] = bloom_hash_key(key);
  for (std::size_t i = 0; i < hashes_; ++i) {
    const std::uint64_t pos = (h1 + i * h2) % bits_;
    if ((words_[pos / 64] & (1ULL << (pos % 64))) == 0) return false;
  }
  return true;
}

std::size_t BloomLevelView::set_bit_count() const noexcept {
  std::size_t count = 0;
  const std::size_t w = (bits_ + 63) / 64;
  for (std::size_t i = 0; i < w; ++i) {
    count += static_cast<std::size_t>(std::popcount(words_[i]));
  }
  return count;
}

}  // namespace makalu
