// Heap allocation count of the allocation test executable: its
// allocation_counter.cpp replaces the global operator new, so every test
// linked into it can read how many allocations a window of code made.
#pragma once

#include <cstdint>

namespace makalu {

/// Allocations made through the global operator new since process start.
[[nodiscard]] std::uint64_t allocation_count() noexcept;

}  // namespace makalu
