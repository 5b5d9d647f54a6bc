// Compressed ABF routing-table layouts (ROADMAP "million-node scale,
// round 2": the depth-3 per-arc table is O(arcs x depth x filter bits) —
// ~73 MB at 20k nodes, prohibitive at 1M).
//
// TableLayout names the two storage policies AbfRouter can route over:
//
//   kPooledStack  the FilterArena (bloom/filter_arena.hpp): every (arc,
//                 level) filter in one 64-byte-aligned slab, scored by the
//                 word/AVX2 mask kernels. The exact advertisement table.
//   kBlockedDelta this file. Compresses the table two ways at once and is
//                 the layout whose false-positive *sets* differ from the
//                 exact table, so it ships with a quality gate
//                 (success-rate / messages-per-query deltas against
//                 kPooledStack bounded on seeded topology sweeps) instead
//                 of a bit-identity contract. See DESIGN.md §14.
//
// The kBlockedDelta representation:
//
//  * Base stacks are shared per ORIGIN NODE, not per arc. The exact table
//    stores ADV(v->u) for every arc u->v — deg(v) near-identical stacks
//    that differ only by the excluded-neighbor term. BlockedAbfTable keeps
//    one depth-D stack per node v:
//        BASE(v).level[0] = content(v)
//        BASE(v).level[l] = U_{w in N(v)} BASE(w).level[l-1]
//    (no exclusion — the recursion is per-node well-defined). By induction
//    BASE(v).level[l] is a superset of every true ADV(v->u).level[l], so
//    matching against BASE never produces a false negative; it only widens
//    the false-positive set.
//
//  * Levels are EQUAL-width (level_bits each, a multiple of 64) and packed
//    contiguously, with the whole stack padded to 64-byte lines. The auto
//    width packs depth*level_bits into one cache line (depth 3 -> 128 bits
//    per level, 64 B per node), so scoring one neighbor touches ONE line
//    where the pooled layout touches ~depth scattered lines — exactly the
//    memory-latency wall ROADMAP documents for ABF match. Equal widths are
//    load-bearing: the shift-merge U_{w} level[l-1] -> level[l] is only a
//    word-wise OR when every level shares one bit domain.
//
//  * Per-arc DELTAS recover most of the excluded-neighbor precision. For
//    arc u->v at level l >= 1, any position p whose SOLE contributor among
//    {BASE(w).level[l-1] : w in N(v)} is u itself would not appear in the
//    true ADV(v->u) (u's own contribution is excluded there) — so the
//    effective filter for the arc is BASE(v).level[l] minus those
//    positions. Entries are sparse (most positions have 0 or >= 2
//    contributors) and live in a pooled RowArena<u32> slab — the PR 7 size
//    class/freelist/compact machinery — one row per owner node u, each
//    entry packing (arc_local:12 | level:4 | pos:16). Rows are kept
//    sorted by entry value, so one (arc, level) set is contiguous.
//    Removing a position can only remove false positives, never true keys,
//    so the no-false-negative guarantee survives.
//
// Match kernels mirror bloom/filter_arena.hpp: one BlockedProbeSet per
// query (equal widths mean one position list serves every level), a
// portable word loop, an AVX2 gather kernel (4 stacks per pass), and a
// reference per-hash-modulus path that doubles as the probe-overflow
// fallback. All kernels agree bit-for-bit on the *base* mask. One hop
// (match_arcs) scores in three steps, every mask bit-identical to
// scoring all levels of every neighbor and vetoing afterwards:
//
//  1. Witness. The owner's own stack is probed first. BASE(owner).level
//     [l+1] is the union of its neighbors' level[l], so a neighbor's
//     level l can only match where the owner's level l+1 does; the other
//     levels would score 0 and are not probed. The deepest level has no
//     witness and is always probed.
//  2. The kernel over the neighbors' stacks at the surviving levels,
//     prefetching the probed lines 16 stacks ahead.
//  3. The delta veto over the owner's sorted row. The AVX2 path compares
//     the positions of 8 entries per instruction and clears mask bits
//     only on the rare hits; kReference, kPortable and overflow probe
//     sets run the scalar loop.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "bloom/bloom_filter.hpp"
#include "bloom/filter_arena.hpp"
#include "graph/compact_graph.hpp"
#include "support/contracts.hpp"

namespace makalu {

/// Which routing-table representation AbfRouter builds and scores.
enum class TableLayout {
  kPooledStack,   ///< FilterArena slab: one exact stack per arc
  kBlockedDelta,  ///< per-node blocked base + per-arc delta slab
};

/// A query key's probe shape against a BlockedAbfTable. Equal level widths
/// mean the positions are identical at every level; only the word offset
/// shifts by level * words_per_level.
struct BlockedProbeSet {
  static constexpr std::size_t kMaxProbes = 8;

  /// Probe positions within one level's [0, level_bits) domain, deduped,
  /// ascending. The delta veto tests membership against these.
  std::array<std::uint16_t, kMaxProbes> pos{};
  std::size_t pos_count = 0;

  /// (word-within-level, required-bits mask) pairs deduped by word, padded
  /// to a multiple of 4 with trivially-true probes for the AVX2 kernel.
  alignas(32) std::array<std::uint64_t, kMaxProbes> word{};
  alignas(32) std::array<std::uint64_t, kMaxProbes> mask{};
  std::size_t count = 0;
  std::size_t padded_count = 0;

  /// Raw parameters for the reference kernel and the hashes > kMaxProbes
  /// overflow fallback.
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;
  std::uint64_t bits = 0;
  std::size_t hashes = 0;
  bool overflow = false;
};

class BlockedAbfTable {
 public:
  /// Arc-local neighbor indexes above this cannot carry delta entries
  /// (12-bit field); their arcs simply fall back to the base superset.
  static constexpr std::size_t kMaxDeltaArcLocal = 4096;
  /// Level field is 4 bits.
  static constexpr std::size_t kMaxDepth = 16;

  BlockedAbfTable(std::size_t node_count, std::size_t depth,
                  std::size_t level_bits, std::size_t hashes);
  ~BlockedAbfTable();
  BlockedAbfTable(const BlockedAbfTable&) = delete;
  BlockedAbfTable& operator=(const BlockedAbfTable&) = delete;
  BlockedAbfTable(BlockedAbfTable&& other) noexcept;
  BlockedAbfTable& operator=(BlockedAbfTable&& other) noexcept;

  /// Default width: pack the whole depth-D stack into one 64-byte cache
  /// line when possible (depth 3 -> 128 bits/level), never below 64 bits.
  [[nodiscard]] static std::size_t auto_level_bits(
      std::size_t depth) noexcept;

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_; }
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::size_t bits_per_level() const noexcept { return bits_; }
  [[nodiscard]] std::size_t hash_count() const noexcept { return hashes_; }
  [[nodiscard]] std::size_t words_per_level() const noexcept {
    return bits_ / 64;
  }
  /// Words between consecutive node stacks (levels packed contiguously,
  /// stack padded to 8-word lines).
  [[nodiscard]] std::size_t stack_stride() const noexcept { return stride_; }

  [[nodiscard]] std::uint64_t* level_words(std::uint32_t node,
                                           std::size_t level) noexcept {
    MAKALU_EXPECTS(node < nodes_ && level < depth_);
    return slab_ + node * stride_ + level * words_per_level();
  }
  [[nodiscard]] const std::uint64_t* level_words(
      std::uint32_t node, std::size_t level) const noexcept {
    MAKALU_EXPECTS(node < nodes_ && level < depth_);
    return slab_ + node * stride_ + level * words_per_level();
  }
  [[nodiscard]] const std::uint64_t* stack_words(
      std::uint32_t node) const noexcept {
    MAKALU_EXPECTS(node < nodes_);
    return slab_ + node * stride_;
  }

  /// Returns true if any bit was newly set; `newly_set` (optional, size >=
  /// hashes) receives the positions that flipped 0 -> 1 — the incremental
  /// notify path propagates exactly those.
  bool insert(std::uint32_t node, std::size_t level, std::uint64_t key,
              std::uint16_t* newly_set = nullptr,
              std::size_t* newly_count = nullptr) noexcept;
  void set_position(std::uint32_t node, std::size_t level,
                    std::uint16_t pos) noexcept;
  void clear_position(std::uint32_t node, std::size_t level,
                      std::uint16_t pos) noexcept;
  [[nodiscard]] bool test_position(std::uint32_t node, std::size_t level,
                                   std::uint16_t pos) const noexcept;
  [[nodiscard]] bool maybe_contains(std::uint32_t node, std::size_t level,
                                    std::uint64_t key) const noexcept;
  /// The key's positions in one level's [0, bits_per_level()) domain —
  /// exactly the bits insert() sets, deduped and ascending. `out` must
  /// hold hash_count() entries; returns how many were written. A
  /// CountingAbfTable of the same width and hash count touches the same
  /// slots, which is what lets a counter wave be reprojected at these
  /// positions alone.
  std::size_t key_positions(std::uint64_t key,
                            std::uint16_t* out) const noexcept;
  /// dst.level[dst_level] |= src.level[src_level] (equal widths).
  void merge_level(std::uint32_t dst_node, std::size_t dst_level,
                   std::uint32_t src_node, std::size_t src_level) noexcept;
  /// The attenuated shift-merge on blocked stacks: dst.level[l] |=
  /// src.level[l-1] for l = depth-1 .. 1, deepest first so dst == src
  /// (self-merge) does not cascade one level's new bits into the next.
  /// Matches AttenuatedBloomFilter::merge_shifted_from exactly (pinned by
  /// the property suite).
  void merge_shifted_from(std::uint32_t dst_node,
                          std::uint32_t src_node) noexcept;
  void clear() noexcept;

  [[nodiscard]] BlockedProbeSet make_probe_set(
      std::uint64_t key) const noexcept;

  /// Base-layer scoring: out_masks[i] = level-match bitmask of
  /// BASE(origins[i]) against the probe set. Kernel per `mode` (kAuto =
  /// the process-wide dispatch shared with FilterArena).
  void match_nodes(const std::uint32_t* origins, std::size_t count,
                   const BlockedProbeSet& probes, std::uint32_t* out_masks,
                   MatchKernel mode = MatchKernel::kAuto) const noexcept;

  /// Sparse per-arc veto: for every delta entry (arc_local, level, pos) of
  /// `owner` with arc_local < arc_count and pos among the probe positions,
  /// clears bit `level` of out_masks[arc_local] — the probed key's
  /// evidence at that level came solely from the owner itself. kAvx2
  /// (and kAuto on AVX2 hosts) compares 8 entries at a time; every other
  /// mode and overflow probe sets scan the row one entry at a time.
  void apply_deltas(std::uint32_t owner, const BlockedProbeSet& probes,
                    std::uint32_t* out_masks, std::size_t arc_count,
                    MatchKernel mode = MatchKernel::kAuto) const noexcept;

  /// One routing hop: out_masks[i] = the effective level-match mask of arc
  /// owner->origins[i] (base match, then the delta veto), where `origins`
  /// is owner's neighbor row in CSR order. Equal to match_nodes +
  /// apply_deltas, but probes only the levels the owner's own stack
  /// witnesses (see the file comment) — which relies on every origin
  /// being a neighbor of owner, and on the table keeping BASE(owner).level
  /// [l+1] a superset of each neighbor's level[l], as every build and
  /// maintenance path does. kReference probes every level.
  void match_arcs(std::uint32_t owner, std::span<const std::uint32_t> origins,
                  const BlockedProbeSet& probes, std::uint32_t* out_masks,
                  MatchKernel mode = MatchKernel::kAuto) const noexcept;

  /// Effective per-arc membership (base minus the arc's delta positions) —
  /// the scalar oracle the differential tests score against.
  [[nodiscard]] bool arc_maybe_contains(std::uint32_t owner,
                                        std::uint32_t origin,
                                        std::size_t arc_local,
                                        std::size_t level,
                                        std::uint64_t key) const noexcept;

  // --- delta slab ----------------------------------------------------------

  [[nodiscard]] static std::uint32_t encode_delta_entry(
      std::size_t arc_local, std::size_t level, std::uint16_t pos) noexcept {
    MAKALU_EXPECTS(arc_local < kMaxDeltaArcLocal && level < kMaxDepth);
    return (static_cast<std::uint32_t>(arc_local) << 20) |
           (static_cast<std::uint32_t>(level) << 16) | pos;
  }
  [[nodiscard]] static std::size_t delta_arc_local(
      std::uint32_t entry) noexcept {
    return entry >> 20;
  }
  [[nodiscard]] static std::size_t delta_level(std::uint32_t entry) noexcept {
    return (entry >> 16) & 0xF;
  }
  [[nodiscard]] static std::uint16_t delta_pos(std::uint32_t entry) noexcept {
    return static_cast<std::uint16_t>(entry & 0xFFFF);
  }

  /// Replaces the delta positions of (owner, arc_local, level) in place.
  /// Positions must be strictly ascending and < bits_per_level(). Every
  /// row stays sorted by entry value, so one (arc_local, level) set is a
  /// contiguous range: the splice costs a binary search plus one tail
  /// shift when the set's size changes, never a rewrite of the row.
  void set_arc_delta(std::uint32_t owner, std::size_t arc_local,
                     std::size_t level,
                     std::span<const std::uint16_t> positions);
  /// The stored entries of one (arc_local, level) set, ascending (their
  /// delta_pos() values are the set's positions).
  [[nodiscard]] std::span<const std::uint32_t> arc_delta(
      std::uint32_t owner, std::size_t arc_local, std::size_t level) const;
  /// Drops one (arc_local, level, pos) entry if present, keeping the row
  /// sorted. Returns whether it was. Dropping an entry only widens the
  /// arc's filter (superset fallback), so callers may drop conservatively.
  bool erase_delta_position(std::uint32_t owner, std::size_t arc_local,
                            std::size_t level, std::uint16_t pos);
  /// Owner's row, ascending by entry value.
  [[nodiscard]] std::span<const std::uint32_t> owner_deltas(
      std::uint32_t owner) const {
    return deltas_.row(owner);
  }

  [[nodiscard]] std::size_t delta_entry_count() const noexcept {
    return deltas_.live_size();
  }
  /// Pooled-slab hygiene (RowArena semantics): compact() repacks tight,
  /// slack_ratio() is the garbage fraction in between.
  void compact_deltas() { deltas_.compact(); }
  [[nodiscard]] double delta_slack_ratio() const noexcept {
    return deltas_.slack_ratio();
  }

  /// Honest table memory: the stack slab plus the delta arena
  /// (descriptors + slab + freelists).
  [[nodiscard]] std::size_t table_bytes() const noexcept {
    return total_words_ * sizeof(std::uint64_t) + deltas_.memory_bytes();
  }
  /// Serialized size of one node's base stack (what a peer exchange would
  /// ship).
  [[nodiscard]] std::size_t stack_byte_size() const noexcept {
    return depth_ * (bits_ / 8);
  }

  /// Structural equality: same shape, same base bits, same delta rows
  /// (rows are sorted, so equal sets are equal rows).
  [[nodiscard]] bool equals(const BlockedAbfTable& other) const;

 private:
  [[nodiscard]] std::uint32_t all_levels() const noexcept {
    return (std::uint32_t{1} << depth_) - 1;
  }
  /// [lo, hi) of the (arc_local, level) set within owner's sorted row.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> arc_delta_range(
      std::uint32_t owner, std::size_t arc_local, std::size_t level) const;

  std::size_t nodes_ = 0;
  std::size_t depth_ = 0;
  std::size_t bits_ = 0;
  std::size_t hashes_ = 0;
  std::size_t stride_ = 0;
  std::uint64_t* slab_ = nullptr;  // 64-byte aligned, zero-initialised
  std::size_t total_words_ = 0;
  RowArena<std::uint32_t> deltas_;  // one row per owner node
};

}  // namespace makalu
