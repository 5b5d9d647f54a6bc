// The one discrete-event calendar.
//
// Everything in the library that runs in simulated time runs on this
// class: the loopback hub that carries the message-level protocol
// (net/loopback_transport.hpp, and through it proto::ProtocolNetwork),
// the churn simulator, and the latency-aware flood. It is a classic
// calendar queue: schedule(time, fn), then run until drained or until a
// horizon. Events fire in (time, insertion sequence) order — FIFO on
// ties — so a run is a pure function of what was scheduled.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "support/contracts.hpp"

namespace makalu {

using SimTime = double;  ///< milliseconds

class EventQueue {
 public:
  using Handler = std::function<void()>;

  /// Schedules `fn` at absolute time `when` (>= now()).
  void schedule(SimTime when, Handler fn);

  /// Schedules `fn` at now() + delay.
  void schedule_in(SimTime delay, Handler fn) {
    schedule(now_ + delay, std::move(fn));
  }

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] std::uint64_t processed() const noexcept {
    return processed_;
  }

  /// Runs events in (time, sequence) order while the earliest one is at
  /// or before `horizon`; later events stay queued and the clock stays
  /// at the last event run. Returns the number of events run.
  std::size_t run(SimTime horizon = std::numeric_limits<SimTime>::infinity());

  /// run(horizon), then advances the clock to `horizon`.
  std::size_t run_until(SimTime horizon);

 private:
  struct Event {
    SimTime time;
    std::uint64_t sequence;
    Handler handler;
  };
  // Min-heap ordering ("later" sorts after) over a plain vector: lets us
  // move the handler out of the popped element, which std::priority_queue
  // forbids (const top()).
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  std::vector<Event> heap_;
  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace makalu
