#include "net/loopback_transport.hpp"

#include <algorithm>
#include <utility>

namespace makalu::net {

namespace {

// A TimerId packs the slot's generation (high half, never 0) over the
// slot index (low half).
TimerId timer_id(std::uint32_t slot, std::uint32_t generation) {
  return (static_cast<TimerId>(generation) << 32) | slot;
}

}  // namespace

void LoopbackEndpoint::send(NodeId to, const std::uint8_t* data,
                            std::size_t size) {
  ++stats_.datagrams_sent;
  stats_.bytes_sent += size;
  hub_.post_frame(id_, to, data, size);
}

TimerId LoopbackEndpoint::schedule(double delay_ms,
                                   std::function<void()> fn) {
  return hub_.arm_timer(id_, delay_ms, std::move(fn));
}

bool LoopbackEndpoint::cancel(TimerId id) {
  return hub_.disarm_timer(id_, id);
}

double LoopbackEndpoint::now_ms() const { return hub_.now_ms(); }

LoopbackEndpoint& LoopbackHub::endpoint(NodeId id) {
  MAKALU_EXPECTS(id != kInvalidNode);
  if (id >= endpoints_.size()) endpoints_.resize(id + std::size_t{1});
  auto& slot = endpoints_[id];
  if (slot == nullptr) {
    slot = std::make_unique<LoopbackEndpoint>(*this, id);
  }
  return *slot;
}

double LoopbackHub::wire_delay_ms(NodeId from, NodeId to) const {
  return latency_ != nullptr ? std::max(0.01, latency_->latency(from, to))
                             : delivery_delay_ms_;
}

void LoopbackHub::post_frame(NodeId from, NodeId to,
                             const std::uint8_t* data, std::size_t size) {
  endpoint(to);  // the destination exists by the time its frame lands
  const std::uint32_t slot = frames_.acquire();
  Frame& frame = frames_[slot];
  frame.from = from;
  frame.to = to;
  frame.bytes.assign(data, data + size);
  events_.schedule_in(wire_delay_ms(from, to),
                      [this, slot] { deliver(slot); });
}

void LoopbackHub::deliver(std::uint32_t slot) {
  const Frame& frame = frames_[slot];
  const NodeId from = frame.from;
  // The handler may send and so grow frames_: keep the buffer, not the
  // Frame reference. The slot is held until the handler returns, so the
  // buffer cannot be reused under it.
  const std::uint8_t* data = frame.bytes.data();
  const std::size_t size = frame.bytes.size();
  LoopbackEndpoint& dest = *endpoints_[frame.to];
  ++dest.stats_.datagrams_received;
  dest.stats_.bytes_received += size;
  if (dest.handler_) dest.handler_(from, data, size);
  frames_.release(slot);
}

TimerId LoopbackHub::arm_timer(NodeId owner, double delay_ms,
                               std::function<void()> fn) {
  const std::uint32_t slot = timers_.acquire();
  Timer& timer = timers_[slot];
  timer.fn = std::move(fn);
  timer.owner = owner;
  timer.armed = true;
  events_.schedule_in(std::max(0.0, delay_ms),
                      [this, slot] { fire_timer(slot); });
  return timer_id(slot, timer.generation);
}

bool LoopbackHub::disarm_timer(NodeId owner, TimerId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= timers_.size()) return false;
  Timer& timer = timers_[slot];
  if (!timer.armed || timer.generation != generation ||
      timer.owner != owner) {
    return false;
  }
  // The slot stays taken until its calendar event fires.
  timer.armed = false;
  timer.fn = nullptr;
  return true;
}

void LoopbackHub::fire_timer(std::uint32_t slot) {
  Timer& timer = timers_[slot];
  std::function<void()> fn = std::exchange(timer.fn, nullptr);
  const bool armed = timer.armed;
  timer.armed = false;
  if (++timer.generation == 0) timer.generation = 1;
  timers_.release(slot);
  if (armed) fn();
}

}  // namespace makalu::net
