#include "bloom/counting_bloom_filter.hpp"

#include <algorithm>
#include <cstring>

namespace makalu {

CountingBloomFilter::CountingBloomFilter(BloomParameters params)
    : hashes_(params.hashes), counters_(params.bits, 0) {
  MAKALU_EXPECTS(params.bits > 0);
  MAKALU_EXPECTS(params.hashes > 0);
}

void CountingBloomFilter::insert(std::uint64_t key) noexcept {
  const auto [h1, h2] = bloom_hash_key(key);
  for (std::size_t i = 0; i < hashes_; ++i) {
    auto& counter = counters_[(h1 + i * h2) % counters_.size()];
    if (counter < kSaturation) ++counter;
  }
}

void CountingBloomFilter::remove(std::uint64_t key) noexcept {
  const auto [h1, h2] = bloom_hash_key(key);
  for (std::size_t i = 0; i < hashes_; ++i) {
    auto& counter = counters_[(h1 + i * h2) % counters_.size()];
    // Saturated counters have lost their exact count; decrementing one
    // could silently drop another key's last reference.
    if (counter > 0 && counter < kSaturation) --counter;
  }
}

void CountingBloomFilter::insert(std::uint64_t key,
                                 std::uint32_t count) noexcept {
  if (count == 0) return;
  const auto [h1, h2] = bloom_hash_key(key);
  for (std::size_t i = 0; i < hashes_; ++i) {
    auto& counter = counters_[(h1 + i * h2) % counters_.size()];
    const std::uint32_t next = counter + count;
    counter = next >= kSaturation ? kSaturation
                                  : static_cast<std::uint8_t>(next);
  }
}

void CountingBloomFilter::remove(std::uint64_t key,
                                 std::uint32_t count) noexcept {
  if (count == 0) return;
  const auto [h1, h2] = bloom_hash_key(key);
  for (std::size_t i = 0; i < hashes_; ++i) {
    auto& counter = counters_[(h1 + i * h2) % counters_.size()];
    if (counter >= kSaturation) continue;  // sticky saturation
    counter = counter > count ? static_cast<std::uint8_t>(counter - count)
                              : std::uint8_t{0};  // underflow guard
  }
}

void CountingBloomFilter::add_counts(
    const CountingBloomFilter& other) noexcept {
  MAKALU_EXPECTS(hashes_ == other.hashes_ &&
                 counters_.size() == other.counters_.size());
  static_assert(kSaturation == 15, "the word sum needs 4-bit counters");
  // Every counter is <= 15, so a byte's sum is <= 30: no byte carries into
  // the next, and bit 4 of a byte is set exactly when its sum passed 15.
  // Saturated bytes become 0x0F, the rest keep their sum.
  constexpr std::uint64_t kLow = 0x0101010101010101ULL;
  constexpr std::uint64_t kNibble = 0x0F0F0F0F0F0F0F0FULL;
  std::uint8_t* dst = counters_.data();
  const std::uint8_t* src = other.counters_.data();
  const std::size_t n = counters_.size();
  std::size_t slot = 0;
  for (; slot + 8 <= n; slot += 8) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, dst + slot, 8);
    std::memcpy(&b, src + slot, 8);
    const std::uint64_t sum = a + b;
    const std::uint64_t over = ((sum >> 4) & kLow) * 0xFF;
    const std::uint64_t out = (sum & ~over) | (over & kNibble);
    std::memcpy(dst + slot, &out, 8);
  }
  for (; slot < n; ++slot) {
    const std::uint32_t next = dst[slot] + src[slot];
    dst[slot] = next >= kSaturation ? kSaturation
                                    : static_cast<std::uint8_t>(next);
  }
}

bool CountingBloomFilter::maybe_contains(std::uint64_t key) const noexcept {
  const auto [h1, h2] = bloom_hash_key(key);
  for (std::size_t i = 0; i < hashes_; ++i) {
    if (counters_[(h1 + i * h2) % counters_.size()] == 0) return false;
  }
  return true;
}

void CountingBloomFilter::clear() noexcept {
  std::fill(counters_.begin(), counters_.end(), std::uint8_t{0});
}

BloomFilter CountingBloomFilter::to_bloom_filter() const {
  BloomParameters params;
  params.bits = counters_.size();
  params.hashes = hashes_;
  BloomFilter out(params);
  // Probe layouts match slot-for-slot (same bloom_hash_key derivation,
  // same exact modulus), so bit j set iff counter j nonzero reproduces
  // membership exactly.
  for (std::size_t slot = 0; slot < counters_.size(); ++slot) {
    if (counters_[slot] != 0) out.set_bit(slot);
  }
  return out;
}

std::size_t CountingBloomFilter::nonzero_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(counters_.begin(), counters_.end(),
                    [](std::uint8_t c) { return c != 0; }));
}

std::size_t CountingBloomFilter::saturated_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(counters_.begin(), counters_.end(),
                    [](std::uint8_t c) { return c == kSaturation; }));
}

}  // namespace makalu
