// Allocation count of the virtual-time wire (its own executable: it
// replaces the global operator new to count every heap allocation).
//
// After a warm-up burst has grown the hub's frame and timer slots, the
// shims' hold-back slabs and the calendar to their peak, datagrams sent
// through LoopbackHub + FaultShim with drop, duplicate, reorder and
// jitter all on, plus timer schedule/cancel, must cost zero heap
// allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "net/fault_shim.hpp"
#include "net/loopback_transport.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace makalu {
namespace {

constexpr NodeId kNodes = 8;
constexpr std::size_t kMaxFrame = 96;

/// Eight endpoints, each behind a shim with every fault knob on; each
/// round every node sends `per_peer` datagrams to every other node
/// (all kMaxFrame bytes, or sizes cycling 1..kMaxFrame), arms two timers
/// and cancels one.
class Wire {
 public:
  Wire() : hub_(0.05) {
    net::FaultShimOptions faults;
    faults.drop = 0.05;
    faults.duplicate = 0.05;
    faults.reorder = 0.1;
    faults.jitter_ms = 1.0;
    for (NodeId id = 0; id < kNodes; ++id) {
      shims_.push_back(std::make_unique<net::FaultShim>(
          hub_.endpoint(id), faults, net::shim_seed(42, id)));
      shims_.back()->set_receive_handler(
          [this](NodeId, const std::uint8_t* data, std::size_t size) {
            ++received_;
            bytes_ += size == 0 ? 0 : data[0];
          });
    }
    payload_.assign(kMaxFrame, 7);
  }

  void round(int per_peer, bool full_size) {
    std::size_t size = kMaxFrame;
    for (NodeId from = 0; from < kNodes; ++from) {
      net::FaultShim& shim = *shims_[from];
      for (NodeId to = 0; to < kNodes; ++to) {
        if (to == from) continue;
        for (int i = 0; i < per_peer; ++i) {
          shim.send(to, payload_.data(), size);
          if (!full_size) size = size % kMaxFrame + 1;
        }
      }
      shim.schedule(2.0, [this] { ++fired_; });
      const net::TimerId doomed = shim.schedule(3.0, [this] { ++fired_; });
      cancelled_ += shim.cancel(doomed) ? 1 : 0;
    }
    hub_.run_until_idle();
  }

  [[nodiscard]] std::uint64_t received() const { return received_; }
  [[nodiscard]] std::uint64_t fired() const { return fired_; }
  [[nodiscard]] std::uint64_t cancelled() const { return cancelled_; }
  [[nodiscard]] net::TransportStats verdicts() const {
    net::TransportStats total;
    for (const auto& shim : shims_) {
      total.shim_dropped += shim->stats().shim_dropped;
      total.shim_duplicated += shim->stats().shim_duplicated;
      total.shim_delayed += shim->stats().shim_delayed;
    }
    return total;
  }

 private:
  net::LoopbackHub hub_;
  std::vector<std::unique_ptr<net::FaultShim>> shims_;
  std::vector<std::uint8_t> payload_;
  std::uint64_t received_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
};

TEST(LoopbackAllocation, SteadyStateDatagramsAndTimersAllocateNothing) {
  Wire wire;
  // Warm-up: a burst twice the measured rounds' size, every frame at the
  // largest size, provisions every pool past the measured peak.
  wire.round(8, true);
  wire.round(8, true);
  const std::uint64_t received_before = wire.received();
  const net::TransportStats before = wire.verdicts();

  constexpr int kRounds = 100;
  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (int r = 0; r < kRounds; ++r) wire.round(4, false);
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;

  const std::uint64_t datagrams = wire.received() - received_before;
  const net::TransportStats after = wire.verdicts();
  // Every fault path ran inside the measured window.
  EXPECT_GT(datagrams, 20'000u);
  EXPECT_GT(after.shim_dropped, before.shim_dropped);
  EXPECT_GT(after.shim_duplicated, before.shim_duplicated);
  EXPECT_GT(after.shim_delayed, before.shim_delayed);
  EXPECT_EQ(wire.fired(), (2u + kRounds) * kNodes);
  EXPECT_EQ(wire.cancelled(), (2u + kRounds) * kNodes);
  EXPECT_EQ(allocations, 0u) << "over " << datagrams << " datagrams";
}

TEST(LoopbackAllocation, CounterSeesAllocations) {
  // Guards the test above against a counter that never counts.
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  std::vector<std::uint8_t> probe(64, 1);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(probe[63], 1);
  EXPECT_EQ(after - before, 1u);
}

}  // namespace
}  // namespace makalu
