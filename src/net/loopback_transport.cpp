#include "net/loopback_transport.hpp"

#include <algorithm>
#include <vector>

namespace makalu::net {

void LoopbackEndpoint::send(NodeId to, const std::uint8_t* data,
                            std::size_t size) {
  auto& dest = hub_.endpoint(to);
  ++stats_.datagrams_sent;
  stats_.bytes_sent += size;
  std::vector<std::uint8_t> copy(data, data + size);
  const NodeId from = id_;
  hub_.events_.schedule_in(
      hub_.wire_delay_ms(from, to), [&dest, from, held = std::move(copy)] {
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
  hub_.events_.schedule_in(
      std::max(0.0, delay_ms), [this, id, fired = std::move(fn)] {
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

double LoopbackHub::wire_delay_ms(NodeId from, NodeId to) const {
  return latency_ != nullptr ? std::max(0.01, latency_->latency(from, to))
                             : delivery_delay_ms_;
}

}  // namespace makalu::net
