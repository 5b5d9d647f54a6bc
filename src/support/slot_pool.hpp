// A vector of recycled slots addressed by 32-bit index.
//
// acquire() hands out a released slot if there is one (its contents are
// whatever the last user left there — a std::vector keeps its capacity,
// which is the point) and grows the table only when every slot is in
// use. Indices stay valid across growth; references do not, so callers
// re-index after anything that may acquire.
#pragma once

#include <cstdint>
#include <vector>

#include "support/contracts.hpp"

namespace makalu {

template <typename T>
class SlotPool {
 public:
  [[nodiscard]] std::uint32_t acquire() {
    if (free_.empty()) {
      MAKALU_EXPECTS(slots_.size() < UINT32_MAX);
      slots_.emplace_back();
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }

  void release(std::uint32_t slot) { free_.push_back(slot); }

  [[nodiscard]] T& operator[](std::uint32_t slot) { return slots_[slot]; }
  [[nodiscard]] const T& operator[](std::uint32_t slot) const {
    return slots_[slot];
  }
  /// Slots ever created (in use + released).
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace makalu
