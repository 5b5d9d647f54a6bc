// Counting-maintained attenuated filter stacks: the incremental update
// engine behind TableLayout::kBlockedDelta's content removal (and the
// from-scratch reference the soundness suite compares it against).
//
// Plain Bloom levels are monotone — content removal or a dropped link
// forces a full table rebuild (AbfRouter::rebuild, O(depth x arcs x
// words)). This table keeps, per (node, level), 4-bit saturating counters
// over the blocked layout's equal-width bit domain, maintained under the
// per-node base recursion
//     M(v, 0) = content(v)          (as a multiset of probe increments)
//     M(v, l) = SUM_{w in N(v)} M(w, l-1)
// so M(v, l)[slot] counts, over every length-l walk from v, the probe
// increments of the walk endpoint's content — and support(M(v, l)) is
// exactly the blocked base BASE(v).level[l]. Two consequences make
// increments cheap and exact:
//
//  * Content change at h is a walk-multiplicity wave: level l of node x
//    shifts by (number of length-l walks x -> h) probe increments of the
//    key. The wave carries per-node multiplicities outward depth-1 hops;
//    multiplicities saturate at kSaturation (beyond it every affected
//    slot is saturated anyway, so clamping the wave changes nothing — and
//    bounds its growth).
//
//  * An edge flip at (u, v) only affects M(x, l) when x is within l-1
//    hops of {u, v} *in the graph that contains the edge* (any walk
//    crossing the edge has an edge-free prefix to one endpoint, so a
//    multi-source BFS from both endpoints in the post-change graph covers
//    removal too). Those levels are recomputed locally, level-synchronous
//    (l reads only l-1, and every changed (w, l-1) lies strictly inside
//    the l-ball), by summing the node's neighbors' rows.
//
// Storage is sparse: almost every counter is zero (0.43% are nonzero on
// a 100k-node, 1024-bit, 2048-replica table), so each (node, level) row
// holds only its support, as entries `pos << 4 | count` sorted by
// position, all rows in one RowArena slab (row node * depth + level). The
// adjacency is a second RowArena. Inserts and removes edit a row in place:
// a branch-free binary search (seek) finds each key slot, counts that
// stay nonzero change in place, and the entries that enter or leave are
// spliced in one pass over the row's tail. The wave prefetches rows a
// few edits ahead, since its frontier is scattered over the slab. Level
// sums scatter the neighbors' entries into one dense byte accumulator
// with a touched list and write the row back sorted, so a sum costs the
// neighbors' entries, not degree x bits. Memory follows the nonzero
// counters, not nodes x bits.
//
// Saturation semantics are the standard safe-deletion rules of counting
// Bloom filters (Fan et al.): counts stick at kSaturation (a saturated
// slot's exact count is lost — its projected bit stays set, a pure
// false-positive cost), decrements clamp at zero, and a count that
// reaches zero leaves the row. A key whose probe positions repeat adds at
// that slot once per repeat. While no slot has ever saturated, every op
// above equals the from-scratch rebuild counter for counter — the
// invariant tests/counting_abf_test.cpp pins against a dense oracle.
//
// The table journals which (node, level) pairs may have changed;
// AbfRouter drains the journal after a content wave, reprojecting only
// the changed key's positions of those levels into the blocked base slab
// and repairing the delta rows from the bits that flipped.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "graph/compact_graph.hpp"

namespace makalu {

class CountingAbfTable {
 public:
  /// Counts stick here: a saturated slot is never decremented.
  static constexpr std::uint8_t kSaturation = 15;

  CountingAbfTable(std::size_t node_count, std::size_t depth,
                   BloomParameters level_params);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_; }
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  /// Width of every level's slot domain.
  [[nodiscard]] std::size_t bits() const noexcept { return bits_; }

  // --- sparse rows ---------------------------------------------------------

  /// One row entry: slot position and its count (1..kSaturation).
  [[nodiscard]] static constexpr std::uint32_t entry_pos(
      std::uint32_t entry) noexcept {
    return entry >> 4;
  }
  [[nodiscard]] static constexpr std::uint8_t entry_count(
      std::uint32_t entry) noexcept {
    return static_cast<std::uint8_t>(entry & 0xFu);
  }

  /// Index of the first entry of `row` (a row of this table) at or past
  /// `pos`, searching from index `from`. Branch-free: the probes land
  /// unpredictably, and an edit or a reprojection does one per key slot.
  [[nodiscard]] static std::size_t seek(std::span<const std::uint32_t> row,
                                        std::size_t from,
                                        std::uint32_t pos) noexcept {
    const std::uint32_t probe = pos << 4;
    const std::uint32_t* base = row.data() + from;
    std::size_t n = row.size() - from;
    if (n == 0) return from;
    while (n > 1) {
      const std::size_t half = n / 2;
      base = base[half] < probe ? base + half : base;
      n -= half;
    }
    return static_cast<std::size_t>(base - row.data()) + (*base < probe);
  }

  /// The nonzero counters of (node, l), ascending by position.
  [[nodiscard]] std::span<const std::uint32_t> entries(
      std::uint32_t node, std::size_t l) const {
    MAKALU_EXPECTS(node < nodes_ && l < depth_);
    return rows_.row(row_index(node, l));
  }
  /// The counter of (node, l) at `pos` (0 outside the support).
  [[nodiscard]] std::uint8_t count(std::uint32_t node, std::size_t l,
                                   std::size_t pos) const;
  /// How many counters of (node, l) are stuck at kSaturation.
  [[nodiscard]] std::size_t saturated_count(std::uint32_t node,
                                            std::size_t l) const;

  [[nodiscard]] std::span<const std::uint32_t> neighbors(
      std::uint32_t node) const {
    MAKALU_EXPECTS(node < nodes_);
    return adjacency_.row(node);
  }

  // --- bootstrap (no propagation) ------------------------------------------

  /// Replaces `node`'s neighbor list wholesale. Derived levels are NOT
  /// recomputed — call rebuild_derived() once after bulk wiring.
  void set_neighbors(std::uint32_t node,
                     std::span<const std::uint32_t> row);
  /// Level-0 content insert without the wave — bulk catalog seeding before
  /// rebuild_derived().
  void seed_content(std::uint32_t node, std::uint64_t key);
  /// Recomputes every derived level (1..depth-1) from level 0 and the
  /// adjacency — the from-scratch reference the incremental ops must
  /// match — and packs the adjacency tight (counter rows keep their size
  /// class's slack, so churn edits rarely relocate a row). A rebuild is a
  /// new baseline: it empties the change journal.
  void rebuild_derived();

  // --- incremental ops -----------------------------------------------------

  void insert_content(std::uint32_t node, std::uint64_t key);
  void remove_content(std::uint32_t node, std::uint64_t key);
  /// Returns false (and does nothing) for self-loops or existing/missing
  /// edges. Edges are symmetric, as in the overlay graph.
  bool add_edge(std::uint32_t u, std::uint32_t v);
  bool remove_edge(std::uint32_t u, std::uint32_t v);

  // --- change journal ------------------------------------------------------

  /// (node, level) pairs whose row may have changed since the last drain
  /// — sorted, deduped, conservative (a recomputed-but-identical level may
  /// appear). Clears the journal. The span views a buffer the table
  /// reuses; it stays valid until the next take_changes().
  struct ChangedLevel {
    std::uint32_t node = 0;
    std::uint32_t level = 0;
    friend bool operator==(const ChangedLevel&,
                           const ChangedLevel&) = default;
    friend auto operator<=>(const ChangedLevel&,
                            const ChangedLevel&) = default;
  };
  [[nodiscard]] std::span<const ChangedLevel> take_changes();

  /// Counter-exact equality over every (node, level) row plus the
  /// adjacency (neighbor order ignored) — the soundness suite's oracle.
  [[nodiscard]] bool equals(const CountingAbfTable& other) const;

  /// Both slabs with their row descriptors and freelists, the journal and
  /// every scratch buffer, by capacity.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  [[nodiscard]] std::uint32_t row_index(std::uint32_t node,
                                        std::size_t l) const noexcept {
    return static_cast<std::uint32_t>(node * depth_ + l);
  }
  /// Cache hint for row r's first lines (reads its descriptor).
  void prefetch_row(std::uint32_t r) const noexcept;
  void mark_changed(std::uint32_t node, std::size_t level);
  /// Fills key_slots_ with the key's distinct probe positions, ascending,
  /// each with how many of the hash_count probes land on it.
  void load_key_slots(std::uint64_t key);
  /// Adds (insert) or subtracts (remove) `amount` at each key slot of row
  /// r, under the saturation rules above.
  void apply_key(std::uint32_t r, std::uint32_t amount, bool insert);
  /// Rewrites (node, l) as the saturating sum of its neighbors' l-1 rows.
  void sum_neighbors(std::uint32_t node, std::size_t l);
  /// Local level-synchronous recompute after an edge flip at (u, v).
  void recompute_region(std::uint32_t u, std::uint32_t v);
  void apply_content_wave(std::uint32_t node, std::uint64_t key,
                          bool insert);

  std::size_t nodes_ = 0;
  std::size_t depth_ = 0;
  std::size_t bits_ = 0;
  std::size_t hashes_ = 0;
  RowArena<std::uint32_t> rows_;       // row node * depth_ + level
  RowArena<std::uint32_t> adjacency_;  // row node
  std::vector<ChangedLevel> changes_;
  std::vector<ChangedLevel> drained_;  // what take_changes() last returned
  // Reused scratch, so a content wave allocates nothing once warm.
  // One distinct probe position of the key being applied, with how many
  // probes land on it, and (per row) where it sits and whether it enters
  // or leaves the row.
  struct KeySlot {
    std::uint32_t pos = 0;
    std::uint32_t repeats = 0;
    std::uint32_t at = 0;
    bool edit = false;
  };
  std::vector<KeySlot> key_slots_;
  std::vector<std::uint8_t> sum_;           // dense accumulator, bits_ wide
  std::vector<std::uint32_t> sum_touched_;  // positions sum_ holds
  std::vector<std::uint32_t> wave_frontier_;
  std::vector<std::uint32_t> wave_next_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> wave_adds_;
  std::vector<std::uint32_t> scratch_mult_;
  std::vector<std::uint8_t> scratch_dist_;
  std::vector<std::uint32_t> scratch_touched_;
};

}  // namespace makalu
