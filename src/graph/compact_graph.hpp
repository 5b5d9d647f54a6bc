// Compact arena-backed row storage — the CSR-with-slack representation
// behind Graph's GraphStorage::kCompact policy (DESIGN.md §13).
//
// The adjacency-set Graph pays three taxes per node that cap benches near
// 20k nodes: a 24-byte std::vector header, a private heap allocation
// (plus allocator chunk rounding), and power-of-two push_back slack. At a
// mean overlay degree of ~10 that is >100 bytes/node for ~40 bytes of
// payload. RowArena stores every per-node row in ONE slab with a 12-byte
// row descriptor (offset/size/capacity), so a million-node overlay's
// adjacency is two flat allocations.
//
// Mutability model (what "CSR with slack" means here):
//  - Each row owns a contiguous block of `capacity` slots; `size` of them
//    are live. push() appends in place while there is slack.
//  - A full row is relocated to a block of the next size class (geometric
//    ~1.5x growth, so appends stay amortized O(1) and slack stays <= 33%).
//    The old block goes on a per-class freelist and is reused by later
//    growths — fragmentation is bounded without moving anyone else.
//  - erase_value() is the adjacency-set's swap-with-last removal; blocks
//    never shrink in place.
//  - compact() is the *epoch* operation: it rebuilds the slab tightly
//    (capacity == size per row), drops every freelist, and bumps the
//    epoch counter. Callers run it at quiescent points (sweep boundaries,
//    end of construction) when slack_ratio() says the slab has bloated.
//
// Invalidation contract (mirrors std::vector semantics per row): mutating
// row r invalidates spans over row r only — other rows never move —
// except compact(), which invalidates every span. Nothing here is
// thread-safe by itself; concurrent use follows the Graph contract
// (concurrent erase on rows whose descriptors and blocks are disjoint is
// safe, anything that can relocate a block is serial-only).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "support/contracts.hpp"

namespace makalu {

/// First size class handed to a freshly growing row. Kept small so a
/// million isolated nodes cost only their descriptors.
inline constexpr std::uint32_t kRowArenaMinCapacity = 4;

/// Largest size class <= cap (0 if cap < kRowArenaMinCapacity). Classes
/// follow the ~1.5x sequence 4, 6, 9, 13, 19, 28, ... Exposed for tests.
[[nodiscard]] std::uint32_t row_arena_class_floor(std::uint32_t cap) noexcept;

/// Smallest size class >= need (and > `at_least`, so growth always makes
/// progress). Exposed for tests.
[[nodiscard]] std::uint32_t row_arena_class_ceil(std::uint32_t need,
                                                 std::uint32_t at_least =
                                                     0) noexcept;

template <typename T>
class RowArena {
  static_assert(std::is_trivially_copyable_v<T>,
                "slab relocation memcpy-moves rows");

 public:
  RowArena() = default;
  explicit RowArena(std::size_t rows) : rows_(rows) {}

  [[nodiscard]] std::size_t row_count() const noexcept {
    return rows_.size();
  }

  /// Appends an empty row (capacity 0) and returns its index.
  std::uint32_t add_row() {
    rows_.emplace_back();
    return static_cast<std::uint32_t>(rows_.size() - 1);
  }

  [[nodiscard]] std::span<const T> row(std::uint32_t r) const {
    MAKALU_EXPECTS(r < rows_.size());
    return {slab_.data() + rows_[r].offset, rows_[r].size};
  }

  /// The row's full block (capacity slots) for in-place writers that fill
  /// a row wholesale and then call set_size.
  [[nodiscard]] std::span<T> block(std::uint32_t r) {
    MAKALU_EXPECTS(r < rows_.size());
    return {slab_.data() + rows_[r].offset, rows_[r].capacity};
  }

  /// Cache hint for row r's descriptor, issued some rows ahead of a
  /// row(r) or block(r) read over scattered rows. Best-effort.
  void prefetch_descriptor(std::uint32_t r) const noexcept {
    if (r < rows_.size()) __builtin_prefetch(rows_.data() + r);
  }

  [[nodiscard]] std::uint32_t size(std::uint32_t r) const {
    MAKALU_EXPECTS(r < rows_.size());
    return rows_[r].size;
  }
  [[nodiscard]] std::uint32_t capacity(std::uint32_t r) const {
    MAKALU_EXPECTS(r < rows_.size());
    return rows_[r].capacity;
  }

  void set_size(std::uint32_t r, std::uint32_t count) {
    MAKALU_EXPECTS(r < rows_.size() && count <= rows_[r].capacity);
    rows_[r].size = count;
  }

  /// Appends `value` to row r, relocating the row to a larger block when
  /// full. Amortized O(1); only row r's span is invalidated.
  void push(std::uint32_t r, T value) {
    MAKALU_EXPECTS(r < rows_.size());
    Row& row = rows_[r];
    if (row.size == row.capacity) grow(r, row.size + 1);
    slab_[rows_[r].offset + rows_[r].size] = value;
    ++rows_[r].size;
  }

  /// Ensures row r can hold `cap` elements without relocation. Serial-only
  /// (may allocate / relocate row r).
  void reserve_row(std::uint32_t r, std::uint32_t cap) {
    MAKALU_EXPECTS(r < rows_.size());
    if (rows_[r].capacity < cap) grow(r, cap);
  }

  /// Swap-with-last removal of the first slot equal to `value` — exactly
  /// the adjacency-set Graph's neighbor-list removal, so the surviving
  /// order matches element for element. Returns false if absent.
  bool erase_value(std::uint32_t r, const T& value) {
    MAKALU_EXPECTS(r < rows_.size());
    Row& row = rows_[r];
    T* data = slab_.data() + row.offset;
    for (std::uint32_t i = 0; i < row.size; ++i) {
      if (data[i] == value) {
        data[i] = data[row.size - 1];
        --row.size;
        return true;
      }
    }
    return false;
  }

  void clear_row(std::uint32_t r) {
    MAKALU_EXPECTS(r < rows_.size());
    rows_[r].size = 0;
  }

  /// Epoch compaction: rewrites the slab with capacity == size for every
  /// row, clears the freelists, bumps the epoch. Invalidates all spans.
  void compact() {
    std::vector<T> packed;
    packed.reserve(live_size());
    for (Row& row : rows_) {
      const std::uint32_t offset = static_cast<std::uint32_t>(packed.size());
      packed.insert(packed.end(), slab_.begin() + row.offset,
                    slab_.begin() + row.offset + row.size);
      row.offset = offset;
      row.capacity = row.size;
    }
    slab_ = std::move(packed);
    for (auto& list : free_) list.clear();
    allocated_ = slab_.size();
    ++epoch_;
  }

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Sum of live element counts across rows.
  [[nodiscard]] std::size_t live_size() const noexcept {
    std::size_t total = 0;
    for (const Row& row : rows_) total += row.size;
    return total;
  }

  /// Fraction of the slab that is neither a live element nor usable row
  /// slack: freed blocks plus class-rounding losses. compact() resets it
  /// to 0. The epoch owners (deterministic sweeps) compact when this
  /// crosses their threshold.
  [[nodiscard]] double slack_ratio() const noexcept {
    if (slab_.empty()) return 0.0;
    return static_cast<double>(slab_.size() - allocated_) /
           static_cast<double>(slab_.size());
  }

  /// Honest bytes: descriptors + slab + freelist nodes. (Uses capacity, so
  /// vector growth slack of the slab itself is counted too.)
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t free_bytes = free_.capacity() * sizeof(free_[0]);
    for (const auto& list : free_) {
      free_bytes += list.capacity() * sizeof(std::uint32_t);
    }
    return rows_.capacity() * sizeof(Row) + slab_.capacity() * sizeof(T) +
           free_bytes;
  }

 private:
  struct Row {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  // Relocates row r to a block of the smallest class that fits `need`.
  // The old block is pushed on the freelist of its class floor (a tight
  // post-compaction block may sit between classes; the rounded-down slots
  // are leaked until the next compact()).
  void grow(std::uint32_t r, std::uint32_t need) {
    Row& row = rows_[r];
    const std::uint32_t new_cap = row_arena_class_ceil(need, row.capacity);
    const std::uint32_t cls = class_index(new_cap);
    std::uint32_t offset;
    if (cls < free_.size() && !free_[cls].empty()) {
      offset = free_[cls].back();
      free_[cls].pop_back();
    } else {
      MAKALU_EXPECTS(slab_.size() + new_cap <=
                     std::numeric_limits<std::uint32_t>::max());
      offset = static_cast<std::uint32_t>(slab_.size());
      slab_.resize(slab_.size() + new_cap);
    }
    allocated_ += new_cap;
    T* dst = slab_.data() + offset;
    const T* src = slab_.data() + row.offset;
    for (std::uint32_t i = 0; i < row.size; ++i) dst[i] = src[i];
    if (row.capacity > 0) free_block(row.offset, row.capacity);
    row.offset = offset;
    row.capacity = new_cap;
  }

  // A freed block's slots become garbage until reused or compacted. A
  // tight post-compaction block can sit between classes; it is listed
  // under its class floor and the rounded-off slots stay garbage until
  // the next compact().
  void free_block(std::uint32_t offset, std::uint32_t capacity) {
    allocated_ -= capacity;
    const std::uint32_t usable = row_arena_class_floor(capacity);
    if (usable == 0) return;  // sub-minimum fragment: reclaimed at compact
    const std::uint32_t cls = class_index(usable);
    if (cls >= free_.size()) free_.resize(cls + 1);
    free_[cls].push_back(offset);
  }

  // Index of exact class value `cap` in the 4, 6, 9, 13, ... sequence.
  static std::uint32_t class_index(std::uint32_t cap) noexcept {
    std::uint32_t c = kRowArenaMinCapacity;
    std::uint32_t index = 0;
    while (c < cap) {
      c += c / 2;
      ++index;
    }
    return index;
  }

  std::vector<Row> rows_;
  std::vector<T> slab_;
  std::vector<std::vector<std::uint32_t>> free_;  // block offsets per class
  std::size_t allocated_ = 0;  // live rows' capacities (slab minus garbage)
  std::uint64_t epoch_ = 0;
};

}  // namespace makalu
