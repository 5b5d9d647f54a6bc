#include "support/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace makalu {

void EventQueue::schedule(SimTime when, Handler fn) {
  MAKALU_EXPECTS(fn != nullptr);
  MAKALU_EXPECTS(when >= now_);
  const std::uint32_t slot = handlers_.acquire();
  handlers_[slot] = std::move(fn);
  heap_.push_back(Record{when, next_sequence_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

std::size_t EventQueue::run(SimTime horizon) {
  std::size_t ran = 0;
  while (!heap_.empty() && heap_.front().time <= horizon) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Record event = heap_.back();
    heap_.pop_back();
    // Move the handler out before running it: it may schedule, which can
    // reuse this slot or grow the table.
    Handler handler = std::exchange(handlers_[event.slot], nullptr);
    handlers_.release(event.slot);
    now_ = event.time;
    ++processed_;
    ++ran;
    handler();
  }
  return ran;
}

std::size_t EventQueue::run_until(SimTime horizon) {
  const std::size_t ran = run(horizon);
  now_ = std::max(now_, horizon);
  return ran;
}

}  // namespace makalu
