#include "support/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace makalu {

void EventQueue::schedule(SimTime when, Handler fn) {
  MAKALU_EXPECTS(fn != nullptr);
  MAKALU_EXPECTS(when >= now_);
  heap_.push_back(Event{when, next_sequence_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

std::size_t EventQueue::run(SimTime horizon) {
  std::size_t ran = 0;
  while (!heap_.empty() && heap_.front().time <= horizon) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event event = std::move(heap_.back());
    heap_.pop_back();
    now_ = event.time;
    ++processed_;
    ++ran;
    event.handler();
  }
  return ran;
}

std::size_t EventQueue::run_until(SimTime horizon) {
  const std::size_t ran = run(horizon);
  now_ = std::max(now_, horizon);
  return ran;
}

}  // namespace makalu
