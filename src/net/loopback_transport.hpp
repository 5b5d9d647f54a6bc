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
//
// Ownership: the hub owns every datagram in flight and every pending
// timer, in slot tables it recycles. send() copies the bytes into a
// frame slot (a recycled slot keeps its buffer's capacity) and posts one
// calendar event that carries only {hub, slot}; the slot is released
// after the receive handler returns, so the bytes a handler reads stay
// valid for the whole call even if it sends (and grows the table).
// schedule() moves the callback into a timer slot and posts one event
// carrying {hub, slot}. A TimerId packs (slot, generation), and only the
// endpoint that armed it may cancel it: cancel() disarms the slot and
// drops the callback, and the slot is released — its generation bumped,
// so stale ids no longer match — when its event fires. Steady-state
// sends and timers allocate nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/latency_model.hpp"
#include "net/transport.hpp"
#include "support/event_queue.hpp"
#include "support/slot_pool.hpp"

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
  bool cancel(TimerId id) override;
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
  /// the hub's lifetime. Endpoints are indexed by id, so ids should be
  /// dense (0..n-1), as every host's are.
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

  /// One datagram in flight.
  struct Frame {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    std::vector<std::uint8_t> bytes;
  };
  /// One armed (or cancelled, not yet fired) timer.
  struct Timer {
    std::function<void()> fn;
    std::uint32_t generation = 1;  ///< never 0, so no id equals kInvalidTimer
    NodeId owner = kInvalidNode;
    bool armed = false;
  };

  [[nodiscard]] double wire_delay_ms(NodeId from, NodeId to) const;
  void post_frame(NodeId from, NodeId to, const std::uint8_t* data,
                  std::size_t size);
  void deliver(std::uint32_t slot);
  TimerId arm_timer(NodeId owner, double delay_ms, std::function<void()> fn);
  bool disarm_timer(NodeId owner, TimerId id);
  void fire_timer(std::uint32_t slot);

  double delivery_delay_ms_ = 0.05;
  const LatencyModel* latency_ = nullptr;
  EventQueue events_;
  std::vector<std::unique_ptr<LoopbackEndpoint>> endpoints_;  ///< by id
  SlotPool<Frame> frames_;
  SlotPool<Timer> timers_;
};

}  // namespace makalu::net
