// Counting-Bloom-maintained attenuated filter stacks: the incremental
// update engine behind TableLayout::kBlockedDelta (and the from-scratch
// reference the soundness suite compares it against).
//
// Plain Bloom levels are monotone — content removal or a dropped link
// forces a full table rebuild (AbfRouter::rebuild, O(depth x arcs x
// words)). This table keeps, per (node, level), a CountingBloomFilter over
// the blocked layout's equal-width bit domain, maintained under the
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
//    multiplicities saturate at CountingBloomFilter::kSaturation (beyond
//    it every affected slot is saturated anyway, so clamping the wave
//    changes nothing — and bounds its growth).
//
//  * An edge flip at (u, v) only affects M(x, l) when x is within l-1
//    hops of {u, v} *in the graph that contains the edge* (any walk
//    crossing the edge has an edge-free prefix to one endpoint, so a
//    multi-source BFS from both endpoints in the post-change graph covers
//    removal too). Those levels are recomputed locally, level-synchronous
//    (l reads only l-1, and every changed (w, l-1) lies strictly inside
//    the l-ball), by slot-wise add_counts over the node's neighbors.
//
// Saturation semantics are the standard safe-deletion rules inherited
// from CountingBloomFilter: saturated slots are never decremented (their
// exact count is lost — the projected bit stays set, a pure
// false-positive cost) and decrements clamp at zero. While no slot has
// ever saturated, every op above equals the from-scratch rebuild counter
// for counter — the invariant tests/counting_abf_test.cpp pins.
//
// The table journals which (node, level) pairs may have changed;
// AbfRouter drains the journal after a content wave, reprojecting only
// the changed key's positions of those levels into the blocked base slab
// and repairing the delta rows from the bits that flipped.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bloom/counting_bloom_filter.hpp"

namespace makalu {

class CountingAbfTable {
 public:
  CountingAbfTable(std::size_t node_count, std::size_t depth,
                   BloomParameters level_params);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_; }
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }

  [[nodiscard]] const CountingBloomFilter& level(
      std::uint32_t node, std::size_t l) const noexcept {
    MAKALU_EXPECTS(node < nodes_ && l < depth_);
    return filters_[node * depth_ + l];
  }
  [[nodiscard]] std::span<const std::uint32_t> neighbors(
      std::uint32_t node) const noexcept {
    MAKALU_EXPECTS(node < nodes_);
    return adjacency_[node];
  }

  // --- bootstrap (no propagation) ------------------------------------------

  /// Replaces `node`'s neighbor list wholesale. Derived levels are NOT
  /// recomputed — call rebuild_derived() once after bulk wiring.
  void set_neighbors(std::uint32_t node,
                     std::span<const std::uint32_t> row);
  /// Level-0 content insert without the wave — bulk catalog seeding before
  /// rebuild_derived().
  void seed_content(std::uint32_t node, std::uint64_t key) noexcept;
  /// Recomputes every derived level (1..depth-1) from level 0 and the
  /// adjacency — the from-scratch reference the incremental ops must
  /// match. Journals every derived level as changed.
  void rebuild_derived();

  // --- incremental ops -----------------------------------------------------

  void insert_content(std::uint32_t node, std::uint64_t key);
  void remove_content(std::uint32_t node, std::uint64_t key);
  /// Returns false (and does nothing) for self-loops or existing/missing
  /// edges. Edges are symmetric, as in the overlay graph.
  bool add_edge(std::uint32_t u, std::uint32_t v);
  bool remove_edge(std::uint32_t u, std::uint32_t v);

  // --- change journal ------------------------------------------------------

  /// (node, level) pairs whose filter may have changed since the last
  /// drain — sorted, deduped, conservative (a recomputed-but-identical
  /// level may appear). Clears the journal.
  struct ChangedLevel {
    std::uint32_t node = 0;
    std::uint32_t level = 0;
    friend bool operator==(const ChangedLevel&,
                           const ChangedLevel&) = default;
    friend auto operator<=>(const ChangedLevel&,
                            const ChangedLevel&) = default;
  };
  [[nodiscard]] std::vector<ChangedLevel> take_changes();

  /// Counter-exact equality over every (node, level) filter plus the
  /// adjacency (neighbor order ignored) — the soundness suite's oracle.
  [[nodiscard]] bool equals(const CountingAbfTable& other) const;

  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  void mark_changed(std::uint32_t node, std::size_t level);
  /// Local level-synchronous recompute after an edge flip at (u, v).
  void recompute_region(std::uint32_t u, std::uint32_t v);
  void apply_content_wave(std::uint32_t node, std::uint64_t key,
                          bool insert);

  std::size_t nodes_ = 0;
  std::size_t depth_ = 0;
  std::vector<CountingBloomFilter> filters_;  // node * depth_ + level
  std::vector<std::vector<std::uint32_t>> adjacency_;
  std::vector<ChangedLevel> changes_;
  // Reused wave/BFS scratch (touched-list reset, so ops stay O(ball)).
  std::vector<std::uint32_t> scratch_mult_;
  std::vector<std::uint8_t> scratch_dist_;
  std::vector<std::uint32_t> scratch_touched_;
};

}  // namespace makalu
