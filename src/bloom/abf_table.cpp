#include "bloom/abf_table.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace makalu {

namespace {

// Double hashing over one level's bit domain: the table's one position
// rule (insert, membership, probe sets and key_positions all use it).
inline std::uint64_t probe_position(std::uint64_t h1, std::uint64_t h2,
                                    std::size_t i,
                                    std::uint64_t bits) noexcept {
  return (h1 + i * h2) % bits;
}

// ---- base-mask kernels ----------------------------------------------------
//
// Unlike FilterArena's arc rows, the stacks scored here are scattered (the
// origins are a CSR neighbor row of node ids, not consecutive arcs), so
// every kernel takes the slab base plus a per-item node id. Only the
// levels in `levels` are probed; the others read 0 (match_arcs uses this
// to skip levels the witness rule proves cannot match). All kernels must
// agree bit-for-bit; the property suite pins it.

struct StackShape {
  const std::uint64_t* base = nullptr;
  std::size_t stride = 0;       // words between node stacks
  std::size_t level_words = 0;  // words per level
  std::uint32_t levels = 0;     // bit l set: probe level l
};

std::uint32_t reference_stack_mask(const std::uint64_t* stack,
                                   const StackShape& s,
                                   const BlockedProbeSet& p) noexcept {
  std::uint32_t out = 0;
  for (std::uint32_t rest = s.levels; rest != 0; rest &= rest - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(rest));
    const std::uint64_t* words = stack + l * s.level_words;
    bool ok = true;
    for (std::size_t i = 0; i < p.hashes; ++i) {
      const std::uint64_t pos = probe_position(p.h1, p.h2, i, p.bits);
      if ((words[pos / 64] & (1ULL << (pos % 64))) == 0) {
        ok = false;
        break;
      }
    }
    out |= static_cast<std::uint32_t>(ok) << l;
  }
  return out;
}

void reference_match_nodes(const StackShape& s, const std::uint32_t* origins,
                           std::size_t n, const BlockedProbeSet& p,
                           std::uint32_t* out) noexcept {
  for (std::size_t a = 0; a < n; ++a) {
    out[a] = reference_stack_mask(s.base + origins[a] * s.stride, s, p);
  }
}

// The word kernels prefetch the stack kPrefetchAhead origins ahead: the
// origins are scattered node ids, so nearly every stack of a long row is
// a cache miss, and a hub row is long enough to hide most of them behind
// the scoring of the stacks before it. Only the lines the probe set
// touches at the probed levels are pulled (deduped, best-effort).
constexpr std::size_t kPrefetchAhead = 16;

struct ProbeLines {
  std::array<std::uint32_t, 32> word{};
  std::size_t count = 0;
};

ProbeLines probe_lines(const StackShape& s,
                       const BlockedProbeSet& p) noexcept {
  ProbeLines lines;
  for (std::uint32_t rest = s.levels; rest != 0; rest &= rest - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(rest));
    for (std::size_t j = 0; j < p.count; ++j) {
      const auto line = static_cast<std::uint32_t>(
          (l * s.level_words + p.word[j]) & ~std::size_t{7});
      const auto end = lines.word.begin() + lines.count;
      if (std::find(lines.word.begin(), end, line) == end &&
          lines.count < lines.word.size()) {
        lines.word[lines.count++] = line;
      }
    }
  }
  return lines;
}

inline void prefetch_stack(const std::uint64_t* stack,
                           const ProbeLines& lines) noexcept {
  for (std::size_t k = 0; k < lines.count; ++k) {
    __builtin_prefetch(stack + lines.word[k], 0, 1);
  }
}

void portable_match_nodes(const StackShape& s, const std::uint32_t* origins,
                          std::size_t n, const BlockedProbeSet& p,
                          std::uint32_t* out) noexcept {
  if (p.overflow) {
    reference_match_nodes(s, origins, n, p, out);
    return;
  }
  const ProbeLines lines =
      n > kPrefetchAhead ? probe_lines(s, p) : ProbeLines{};
  for (std::size_t a = 0; a < n; ++a) {
    if (a + kPrefetchAhead < n) {
      prefetch_stack(s.base + origins[a + kPrefetchAhead] * s.stride, lines);
    }
    const std::uint64_t* stack = s.base + origins[a] * s.stride;
    std::uint32_t mask = 0;
    for (std::uint32_t rest = s.levels; rest != 0; rest &= rest - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(rest));
      const std::uint64_t* words = stack + l * s.level_words;
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
__attribute__((target("avx2"))) void avx2_match_nodes(
    const StackShape& s, const std::uint32_t* origins, std::size_t n,
    const BlockedProbeSet& p, std::uint32_t* out) noexcept {
  if (p.overflow) {
    reference_match_nodes(s, origins, n, p, out);
    return;
  }
  // Four scattered stacks per pass: lanes carry ORIGINS (never probes).
  // Each probe j is broadcast across all four lanes, so the gather index
  // for (lane, level, probe) is origin[lane] * stride + level *
  // level_words + word[j], and every lane ANDs over the full probe set.
  __m256i wordv[BlockedProbeSet::kMaxProbes];
  __m256i need[BlockedProbeSet::kMaxProbes];
  for (std::size_t j = 0; j < p.count; ++j) {
    wordv[j] = _mm256_set1_epi64x(static_cast<long long>(p.word[j]));
    need[j] = _mm256_set1_epi64x(static_cast<long long>(p.mask[j]));
  }
  const ProbeLines lines =
      n > kPrefetchAhead ? probe_lines(s, p) : ProbeLines{};
  const auto* words = reinterpret_cast<const long long*>(s.base);
  std::size_t a = 0;
  for (; a + 4 <= n; a += 4) {
    for (std::size_t k = a + kPrefetchAhead;
         k < std::min(a + kPrefetchAhead + 4, n); ++k) {
      prefetch_stack(s.base + origins[k] * s.stride, lines);
    }
    const __m256i offs = _mm256_set_epi64x(
        static_cast<long long>(origins[a + 3] * s.stride),
        static_cast<long long>(origins[a + 2] * s.stride),
        static_cast<long long>(origins[a + 1] * s.stride),
        static_cast<long long>(origins[a] * s.stride));
    std::uint32_t mask[4] = {0, 0, 0, 0};
    for (std::uint32_t rest = s.levels; rest != 0; rest &= rest - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(rest));
      const __m256i lvl =
          _mm256_set1_epi64x(static_cast<long long>(l * s.level_words));
      __m256i ok = _mm256_set1_epi64x(-1);
      for (std::size_t j = 0; j < p.count; ++j) {
        const __m256i idx =
            _mm256_add_epi64(_mm256_add_epi64(offs, lvl), wordv[j]);
        const __m256i got = _mm256_i64gather_epi64(words, idx, 8);
        const __m256i hit =
            _mm256_cmpeq_epi64(_mm256_and_si256(got, need[j]), need[j]);
        ok = _mm256_and_si256(ok, hit);
      }
      const int lanes = _mm256_movemask_pd(_mm256_castsi256_pd(ok));
      for (std::size_t lane = 0; lane < 4; ++lane) {
        mask[lane] |=
            static_cast<std::uint32_t>((lanes >> lane) & 1) << l;
      }
    }
    for (std::size_t lane = 0; lane < 4; ++lane) out[a + lane] = mask[lane];
  }
  if (a < n) portable_match_nodes(s, origins + a, n - a, p, out + a);
}
#endif

using MatchNodesFn = void (*)(const StackShape&, const std::uint32_t*,
                              std::size_t, const BlockedProbeSet&,
                              std::uint32_t*) noexcept;

MatchNodesFn kernel_for(MatchKernel mode) noexcept {
  switch (mode) {
    case MatchKernel::kReference:
      return &reference_match_nodes;
#if defined(__x86_64__)
    case MatchKernel::kAvx2:
      return &avx2_match_nodes;
#endif
    default:
      return &portable_match_nodes;
  }
}

// ---- delta veto -----------------------------------------------------------
//
// Clears bit `level` of out[arc] for each row entry (arc, level, pos) with
// arc < arc_count and pos among the probed positions. Hits are rare (a
// hop probes at most kMaxProbes positions out of level_bits), so the
// vector kernel only compares and leaves the clearing to a scalar loop
// over the hit lanes.

inline void veto_entry(std::uint32_t entry, std::uint32_t* out,
                       std::size_t arc_count) noexcept {
  const std::size_t arc = BlockedAbfTable::delta_arc_local(entry);
  if (arc < arc_count) {
    out[arc] &= ~(std::uint32_t{1} << BlockedAbfTable::delta_level(entry));
  }
}

void scalar_apply_deltas(std::span<const std::uint32_t> row,
                         const BlockedProbeSet& p, std::uint32_t* out,
                         std::size_t arc_count) noexcept {
  for (const std::uint32_t entry : row) {
    if (BlockedAbfTable::delta_arc_local(entry) >= arc_count) continue;
    const std::uint16_t pos = BlockedAbfTable::delta_pos(entry);
    bool probed = false;
    if (p.overflow) {
      for (std::size_t i = 0; i < p.hashes && !probed; ++i) {
        probed = probe_position(p.h1, p.h2, i, p.bits) == pos;
      }
    } else {
      for (std::size_t i = 0; i < p.pos_count; ++i) {
        if (p.pos[i] == pos) {
          probed = true;
          break;
        }
      }
    }
    if (probed) veto_entry(entry, out, arc_count);
  }
}

#if defined(__x86_64__)
// Eight entries per pass: the low 16 bits (the position) of each lane
// against every probed position broadcast.
__attribute__((target("avx2"))) void avx2_apply_deltas(
    std::span<const std::uint32_t> row, const BlockedProbeSet& p,
    std::uint32_t* out, std::size_t arc_count) noexcept {
  __m256i probe[BlockedProbeSet::kMaxProbes];
  for (std::size_t i = 0; i < p.pos_count; ++i) {
    probe[i] = _mm256_set1_epi32(p.pos[i]);
  }
  const __m256i low = _mm256_set1_epi32(0xFFFF);
  const std::uint32_t* data = row.data();
  const std::size_t n = row.size();
  std::size_t e = 0;
  for (; e + 8 <= n; e += 8) {
    const __m256i pos = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + e)), low);
    __m256i hit = _mm256_setzero_si256();
    for (std::size_t i = 0; i < p.pos_count; ++i) {
      hit = _mm256_or_si256(hit, _mm256_cmpeq_epi32(pos, probe[i]));
    }
    auto lanes = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(hit)));
    for (; lanes != 0; lanes &= lanes - 1) {
      veto_entry(data[e + static_cast<std::size_t>(std::countr_zero(lanes))],
                 out, arc_count);
    }
  }
  scalar_apply_deltas(row.subspan(e), p, out, arc_count);
}
#endif

}  // namespace

std::size_t BlockedAbfTable::auto_level_bits(std::size_t depth) noexcept {
  if (depth == 0) return 512;
  const std::size_t words = 8 / depth;  // whole stack in one 64-byte line
  return words >= 1 ? words * 64 : 64;
}

BlockedAbfTable::BlockedAbfTable(std::size_t node_count, std::size_t depth,
                                 std::size_t level_bits, std::size_t hashes)
    : nodes_(node_count), depth_(depth), bits_(level_bits), hashes_(hashes) {
  MAKALU_EXPECTS(depth >= 1 && depth <= kMaxDepth);
  MAKALU_EXPECTS(level_bits >= 64 && level_bits % 64 == 0 &&
                 level_bits <= 65536);
  MAKALU_EXPECTS(hashes >= 1);
  stride_ = (depth_ * words_per_level() + 7) / 8 * 8;
  total_words_ = nodes_ * stride_;
  slab_ = allocate_aligned_words(total_words_);
  deltas_ = RowArena<std::uint32_t>(nodes_);
}

BlockedAbfTable::~BlockedAbfTable() { free_aligned_words(slab_); }

BlockedAbfTable::BlockedAbfTable(BlockedAbfTable&& other) noexcept
    : nodes_(other.nodes_),
      depth_(other.depth_),
      bits_(other.bits_),
      hashes_(other.hashes_),
      stride_(other.stride_),
      slab_(other.slab_),
      total_words_(other.total_words_),
      deltas_(std::move(other.deltas_)) {
  other.slab_ = nullptr;
  other.total_words_ = 0;
  other.nodes_ = 0;
}

BlockedAbfTable& BlockedAbfTable::operator=(
    BlockedAbfTable&& other) noexcept {
  if (this != &other) {
    free_aligned_words(slab_);
    nodes_ = other.nodes_;
    depth_ = other.depth_;
    bits_ = other.bits_;
    hashes_ = other.hashes_;
    stride_ = other.stride_;
    slab_ = other.slab_;
    total_words_ = other.total_words_;
    deltas_ = std::move(other.deltas_);
    other.slab_ = nullptr;
    other.total_words_ = 0;
    other.nodes_ = 0;
  }
  return *this;
}

bool BlockedAbfTable::insert(std::uint32_t node, std::size_t level,
                             std::uint64_t key, std::uint16_t* newly_set,
                             std::size_t* newly_count) noexcept {
  std::uint64_t* words = level_words(node, level);
  const auto [h1, h2] = bloom_hash_key(key);
  bool changed = false;
  std::size_t count = 0;
  for (std::size_t i = 0; i < hashes_; ++i) {
    const std::uint64_t pos = probe_position(h1, h2, i, bits_);
    const std::uint64_t m = 1ULL << (pos % 64);
    if ((words[pos / 64] & m) == 0) {
      words[pos / 64] |= m;
      changed = true;
      if (newly_set != nullptr) {
        newly_set[count] = static_cast<std::uint16_t>(pos);
      }
      ++count;
    }
  }
  if (newly_count != nullptr) *newly_count = count;
  return changed;
}

void BlockedAbfTable::set_position(std::uint32_t node, std::size_t level,
                                   std::uint16_t pos) noexcept {
  MAKALU_EXPECTS(pos < bits_);
  level_words(node, level)[pos / 64] |= (1ULL << (pos % 64));
}

void BlockedAbfTable::clear_position(std::uint32_t node, std::size_t level,
                                     std::uint16_t pos) noexcept {
  MAKALU_EXPECTS(pos < bits_);
  level_words(node, level)[pos / 64] &= ~(1ULL << (pos % 64));
}

bool BlockedAbfTable::test_position(std::uint32_t node, std::size_t level,
                                    std::uint16_t pos) const noexcept {
  MAKALU_EXPECTS(pos < bits_);
  return (level_words(node, level)[pos / 64] & (1ULL << (pos % 64))) != 0;
}

bool BlockedAbfTable::maybe_contains(std::uint32_t node, std::size_t level,
                                     std::uint64_t key) const noexcept {
  const std::uint64_t* words = level_words(node, level);
  const auto [h1, h2] = bloom_hash_key(key);
  for (std::size_t i = 0; i < hashes_; ++i) {
    const std::uint64_t pos = probe_position(h1, h2, i, bits_);
    if ((words[pos / 64] & (1ULL << (pos % 64))) == 0) return false;
  }
  return true;
}

std::size_t BlockedAbfTable::key_positions(std::uint64_t key,
                                           std::uint16_t* out) const
    noexcept {
  const auto [h1, h2] = bloom_hash_key(key);
  for (std::size_t i = 0; i < hashes_; ++i) {
    out[i] = static_cast<std::uint16_t>(probe_position(h1, h2, i, bits_));
  }
  std::sort(out, out + hashes_);
  return static_cast<std::size_t>(std::unique(out, out + hashes_) - out);
}

void BlockedAbfTable::merge_level(std::uint32_t dst_node,
                                  std::size_t dst_level,
                                  std::uint32_t src_node,
                                  std::size_t src_level) noexcept {
  std::uint64_t* dst = level_words(dst_node, dst_level);
  const std::uint64_t* src = level_words(src_node, src_level);
  const std::size_t w = words_per_level();
  for (std::size_t i = 0; i < w; ++i) dst[i] |= src[i];
}

void BlockedAbfTable::merge_shifted_from(std::uint32_t dst_node,
                                         std::uint32_t src_node) noexcept {
  for (std::size_t l = depth_; l-- > 1;) {
    merge_level(dst_node, l, src_node, l - 1);
  }
}

void BlockedAbfTable::clear() noexcept {
  if (slab_ != nullptr) {
    std::memset(slab_, 0, total_words_ * sizeof(std::uint64_t));
  }
  for (std::uint32_t r = 0; r < nodes_; ++r) {
    deltas_.clear_row(r);
  }
  deltas_.compact();
}

BlockedProbeSet BlockedAbfTable::make_probe_set(
    std::uint64_t key) const noexcept {
  BlockedProbeSet p;
  const auto [h1, h2] = bloom_hash_key(key);
  p.h1 = h1;
  p.h2 = h2;
  p.bits = bits_;
  p.hashes = hashes_;
  if (hashes_ > BlockedProbeSet::kMaxProbes) {
    p.overflow = true;
    return p;
  }
  for (std::size_t i = 0; i < hashes_; ++i) {
    const std::uint64_t pos = probe_position(h1, h2, i, bits_);
    // Deduped position list (ascending) for the delta veto.
    std::size_t k = 0;
    while (k < p.pos_count && p.pos[k] != pos) ++k;
    if (k == p.pos_count) p.pos[p.pos_count++] = static_cast<std::uint16_t>(pos);
    // Deduped (word, mask) pairs for the kernels.
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
  std::sort(p.pos.begin(), p.pos.begin() + p.pos_count);
  p.padded_count = (p.count + 3) / 4 * 4;
  for (std::size_t j = p.count; j < p.padded_count; ++j) {
    p.word[j] = 0;
    p.mask[j] = 0;
  }
  return p;
}

void BlockedAbfTable::match_nodes(const std::uint32_t* origins,
                                  std::size_t count,
                                  const BlockedProbeSet& probes,
                                  std::uint32_t* out_masks,
                                  MatchKernel mode) const noexcept {
  if (count == 0) return;
  if (mode == MatchKernel::kAuto) mode = resolved_match_kernel();
  const StackShape shape{slab_, stride_, words_per_level(), all_levels()};
  kernel_for(mode)(shape, origins, count, probes, out_masks);
}

void BlockedAbfTable::apply_deltas(std::uint32_t owner,
                                   const BlockedProbeSet& probes,
                                   std::uint32_t* out_masks,
                                   std::size_t arc_count,
                                   MatchKernel mode) const noexcept {
  const auto row = deltas_.row(owner);
  if (mode == MatchKernel::kAuto) mode = resolved_match_kernel();
#if defined(__x86_64__)
  if (mode == MatchKernel::kAvx2 && !probes.overflow) {
    avx2_apply_deltas(row, probes, out_masks, arc_count);
    return;
  }
#endif
  scalar_apply_deltas(row, probes, out_masks, arc_count);
}

void BlockedAbfTable::match_arcs(std::uint32_t owner,
                                 std::span<const std::uint32_t> origins,
                                 const BlockedProbeSet& probes,
                                 std::uint32_t* out_masks,
                                 MatchKernel mode) const noexcept {
  if (origins.empty()) return;
  if (mode == MatchKernel::kAuto) mode = resolved_match_kernel();
  const MatchNodesFn kernel = kernel_for(mode);
  StackShape shape{slab_, stride_, words_per_level(), all_levels()};
  if (mode != MatchKernel::kReference && depth_ > 1) {
    // Witness rule: owner.level[l+1] is a superset of every origin's
    // level[l], so where the owner's level l+1 misses the key no origin's
    // level l can match. The deepest level has no witness.
    std::uint32_t own = 0;
    shape.levels = all_levels() & ~std::uint32_t{1};
    kernel(shape, &owner, 1, probes, &own);
    shape.levels = (own >> 1) | (std::uint32_t{1} << (depth_ - 1));
  }
  kernel(shape, origins.data(), origins.size(), probes, out_masks);
  apply_deltas(owner, probes, out_masks, origins.size(), mode);
}

bool BlockedAbfTable::arc_maybe_contains(std::uint32_t owner,
                                         std::uint32_t origin,
                                         std::size_t arc_local,
                                         std::size_t level,
                                         std::uint64_t key) const noexcept {
  if (!maybe_contains(origin, level, key)) return false;
  const auto [h1, h2] = bloom_hash_key(key);
  const auto row = deltas_.row(owner);
  for (const std::uint32_t entry : row) {
    if (delta_arc_local(entry) != arc_local || delta_level(entry) != level) {
      continue;
    }
    const std::uint16_t pos = delta_pos(entry);
    for (std::size_t i = 0; i < hashes_; ++i) {
      if (probe_position(h1, h2, i, bits_) == pos) return false;
    }
  }
  return true;
}

void BlockedAbfTable::set_arc_delta(std::uint32_t owner,
                                    std::size_t arc_local, std::size_t level,
                                    std::span<const std::uint16_t> positions) {
  MAKALU_EXPECTS(arc_local < kMaxDeltaArcLocal && level < depth_);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    MAKALU_EXPECTS(positions[i] < bits_ &&
                   (i == 0 || positions[i - 1] < positions[i]));
  }
  // Splice the new positions over the set's range, moving the tail only
  // when the count changes.
  const std::uint32_t first = encode_delta_entry(arc_local, level, 0);
  const auto [lo, hi] = arc_delta_range(owner, arc_local, level);
  const auto old_size = static_cast<std::uint32_t>(deltas_.row(owner).size());
  const auto count = static_cast<std::uint32_t>(positions.size());
  const std::uint32_t new_size = old_size - (hi - lo) + count;
  if (new_size == 0) {
    deltas_.clear_row(owner);
    return;
  }
  deltas_.reserve_row(owner, new_size);  // may relocate; offsets survive
  std::uint32_t* data = deltas_.block(owner).data();
  if (hi - lo != count) {
    std::memmove(data + lo + count, data + hi,
                 (old_size - hi) * sizeof(std::uint32_t));
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    data[lo + i] = first | positions[i];
  }
  deltas_.set_size(owner, new_size);
}

std::pair<std::uint32_t, std::uint32_t> BlockedAbfTable::arc_delta_range(
    std::uint32_t owner, std::size_t arc_local, std::size_t level) const {
  // Rows are sorted, so the (arc_local, level) set is one contiguous
  // range: two binary searches over the entry values.
  const auto row = deltas_.row(owner);
  const std::uint32_t first = encode_delta_entry(arc_local, level, 0);
  const std::uint32_t last = first | 0xFFFFu;
  const auto lo = std::lower_bound(row.begin(), row.end(), first);
  const auto hi = std::upper_bound(lo, row.end(), last);
  return {static_cast<std::uint32_t>(lo - row.begin()),
          static_cast<std::uint32_t>(hi - row.begin())};
}

std::span<const std::uint32_t> BlockedAbfTable::arc_delta(
    std::uint32_t owner, std::size_t arc_local, std::size_t level) const {
  const auto [lo, hi] = arc_delta_range(owner, arc_local, level);
  return deltas_.row(owner).subspan(lo, hi - lo);
}

bool BlockedAbfTable::erase_delta_position(std::uint32_t owner,
                                           std::size_t arc_local,
                                           std::size_t level,
                                           std::uint16_t pos) {
  if (arc_local >= kMaxDeltaArcLocal) return false;
  const std::uint32_t entry = encode_delta_entry(arc_local, level, pos);
  const auto row = deltas_.row(owner);
  const auto it = std::lower_bound(row.begin(), row.end(), entry);
  if (it == row.end() || *it != entry) return false;
  const auto at = static_cast<std::uint32_t>(it - row.begin());
  const auto size = static_cast<std::uint32_t>(row.size());
  std::uint32_t* data = deltas_.block(owner).data();
  std::memmove(data + at, data + at + 1,
               (size - at - 1) * sizeof(std::uint32_t));
  deltas_.set_size(owner, size - 1);
  return true;
}

bool BlockedAbfTable::equals(const BlockedAbfTable& other) const {
  if (nodes_ != other.nodes_ || depth_ != other.depth_ ||
      bits_ != other.bits_ || hashes_ != other.hashes_) {
    return false;
  }
  if (total_words_ != other.total_words_) return false;
  if (total_words_ != 0 &&
      std::memcmp(slab_, other.slab_,
                  total_words_ * sizeof(std::uint64_t)) != 0) {
    return false;
  }
  for (std::uint32_t r = 0; r < nodes_; ++r) {
    const auto a = deltas_.row(r);
    const auto b = other.deltas_.row(r);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) return false;
  }
  return true;
}

}  // namespace makalu
