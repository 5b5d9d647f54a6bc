// In-memory DatagramTransport: N endpoints over one virtual-time hub.
//
// The byte-level twin of the UDP transport: same interface, same framing,
// same fault shim — but time is virtual and delivery order is
// deterministic. The hub owns the library's one event calendar
// (support/event_queue.hpp, (time, seq) FIFO on ties), so
// transport-level behavior — partitions healing, keepalive teardown
// cascades, codec rejects — can be asserted exactly, where the
// wall-clock UDP path can only be asserted statistically. The simulated
// proto::ProtocolNetwork runs on a hub too: its engines exchange codec
// frames through per-node endpoints (behind FaultShims) and arm their
// timers on the hub's calendar.
//
// Wire latency is either one uniform delay (the default) or, with a
// latency oracle attached, max(0.01, latency(from, to)) per datagram —
// the simulator's physical-network delay.
//
// Endpoints do not poll; the hub's run_until_idle()/run_for() drives
// every endpoint's deliveries and timers in global time order.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "net/latency_model.hpp"
#include "net/transport.hpp"
#include "support/event_queue.hpp"

namespace makalu::net {

class LoopbackHub;

class LoopbackEndpoint final : public DatagramTransport {
 public:
  LoopbackEndpoint(LoopbackHub& hub, NodeId id) : hub_(hub), id_(id) {}

  [[nodiscard]] NodeId id() const noexcept { return id_; }

  // --- DatagramTransport ----------------------------------------------------
  void send(NodeId to, const std::uint8_t* data, std::size_t size) override;
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }
  TimerId schedule(double delay_ms, std::function<void()> fn) override;
  bool cancel(TimerId id) override { return live_timers_.erase(id) != 0; }
  [[nodiscard]] double now_ms() const override;
  [[nodiscard]] const TransportStats& stats() const override {
    return stats_;
  }

 private:
  friend class LoopbackHub;

  LoopbackHub& hub_;
  NodeId id_;
  ReceiveHandler handler_;
  TransportStats stats_;
  std::unordered_set<TimerId> live_timers_;
};

class LoopbackHub {
 public:
  /// `delivery_delay_ms` is the uniform wire latency between endpoints.
  explicit LoopbackHub(double delivery_delay_ms = 0.05)
      : delivery_delay_ms_(delivery_delay_ms) {}
  /// Per-link wire latency max(0.01, latency(from, to)). `latency` must
  /// outlive the hub.
  explicit LoopbackHub(const LatencyModel& latency) : latency_(&latency) {}

  /// Creates (or returns) the endpoint for `id`. Pointers stay valid for
  /// the hub's lifetime.
  LoopbackEndpoint& endpoint(NodeId id);

  /// The calendar every delivery and timer runs on. Hosts that need
  /// plain (uncancellable) timers or absolute-time events schedule here
  /// directly.
  [[nodiscard]] EventQueue& events() noexcept { return events_; }

  [[nodiscard]] double now_ms() const noexcept { return events_.now(); }

  /// Runs deliveries and timers in time order until idle (or until the
  /// virtual clock would pass `horizon_ms`). Returns events processed.
  std::size_t run_until_idle(double horizon_ms = 1e12) {
    return events_.run(horizon_ms);
  }

  /// Runs until now() + `ms` (events beyond stay queued).
  std::size_t run_for(double ms) { return run_until(now_ms() + ms); }
  /// run_until_idle(horizon_ms), then advances the clock to `horizon_ms`.
  std::size_t run_until(double horizon_ms) {
    return events_.run_until(horizon_ms);
  }

 private:
  friend class LoopbackEndpoint;

  [[nodiscard]] double wire_delay_ms(NodeId from, NodeId to) const;

  double delivery_delay_ms_ = 0.05;
  const LatencyModel* latency_ = nullptr;
  TimerId next_timer_ = 1;
  EventQueue events_;
  std::unordered_map<NodeId, std::unique_ptr<LoopbackEndpoint>> endpoints_;
};

}  // namespace makalu::net
