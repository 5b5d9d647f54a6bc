// In-memory DatagramTransport: N endpoints over one virtual-time hub.
//
// The byte-level twin of the UDP transport for tests and single-process
// harnesses: same interface, same framing, same fault shim — but time is
// virtual and delivery order is deterministic (a calendar of (time, seq)
// events, FIFO on ties, exactly like sim::EventQueue). This is what lets
// transport-level behavior — partitions healing, keepalive teardown
// cascades, codec rejects — be asserted exactly, where the wall-clock UDP
// path can only be asserted statistically.
//
// Endpoints do not poll; the hub's run_until_idle()/run_for() drives
// every endpoint's deliveries and timers in global time order.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "net/transport.hpp"

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

  /// Creates (or returns) the endpoint for `id`. Pointers stay valid for
  /// the hub's lifetime.
  LoopbackEndpoint& endpoint(NodeId id);

  [[nodiscard]] double now_ms() const noexcept { return now_ms_; }

  /// Runs deliveries and timers in time order until idle (or until the
  /// virtual clock would pass `horizon_ms`). Returns events processed.
  std::size_t run_until_idle(double horizon_ms = 1e12);

  /// Runs until now() + `ms` (events beyond stay queued).
  std::size_t run_for(double ms) { return run_until(now_ms_ + ms); }
  /// run_until_idle(horizon_ms), then advances the clock to `horizon_ms`.
  std::size_t run_until(double horizon_ms);

 private:
  friend class LoopbackEndpoint;

  struct Event {
    double time = 0.0;
    std::uint64_t sequence = 0;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  void post(double when, std::function<void()> fn);

  double delivery_delay_ms_;
  double now_ms_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  TimerId next_timer_ = 1;
  std::priority_queue<Event, std::vector<Event>, Later> events_;
  std::unordered_map<NodeId, std::unique_ptr<LoopbackEndpoint>> endpoints_;
};

}  // namespace makalu::net
