#include "net/loopback_transport.hpp"

#include <vector>

#include "support/contracts.hpp"

namespace makalu::net {

void LoopbackEndpoint::send(NodeId to, const std::uint8_t* data,
                            std::size_t size) {
  auto& dest = hub_.endpoint(to);
  ++stats_.datagrams_sent;
  stats_.bytes_sent += size;
  std::vector<std::uint8_t> copy(data, data + size);
  const NodeId from = id_;
  hub_.post(hub_.now_ms() + hub_.delivery_delay_ms_,
            [&dest, from, held = std::move(copy)] {
              ++dest.stats_.datagrams_received;
              dest.stats_.bytes_received += held.size();
              if (dest.handler_) {
                dest.handler_(from, held.data(), held.size());
              }
            });
}

TimerId LoopbackEndpoint::schedule(double delay_ms,
                                   std::function<void()> fn) {
  const TimerId id = hub_.next_timer_++;
  live_timers_.insert(id);
  hub_.post(hub_.now_ms() + std::max(0.0, delay_ms),
            [this, id, fired = std::move(fn)] {
              if (live_timers_.erase(id) == 0) return;  // cancelled
              fired();
            });
  return id;
}

double LoopbackEndpoint::now_ms() const { return hub_.now_ms(); }

LoopbackEndpoint& LoopbackHub::endpoint(NodeId id) {
  auto& slot = endpoints_[id];
  if (slot == nullptr) {
    slot = std::make_unique<LoopbackEndpoint>(*this, id);
  }
  return *slot;
}

void LoopbackHub::post(double when, std::function<void()> fn) {
  MAKALU_EXPECTS(when >= now_ms_);
  events_.push(Event{when, next_sequence_++, std::move(fn)});
}

std::size_t LoopbackHub::run_until_idle(double horizon_ms) {
  std::size_t processed = 0;
  while (!events_.empty() && events_.top().time <= horizon_ms) {
    // priority_queue::top is const; the handler must be moved out before
    // pop, so copy the metadata and steal the closure.
    Event event = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    now_ms_ = event.time;
    event.fn();
    ++processed;
  }
  return processed;
}

std::size_t LoopbackHub::run_until(double horizon_ms) {
  const std::size_t processed = run_until_idle(horizon_ms);
  now_ms_ = std::max(now_ms_, horizon_ms);
  return processed;
}

}  // namespace makalu::net
