#include "search/query_workspace.hpp"

#include <algorithm>

namespace makalu {

void QueryWorkspace::begin_query(std::size_t node_count) {
  if (visit_epoch_.size() != node_count) {
    visit_epoch_.assign(node_count, 0);
    stamp_ = 0;
  }
  ++stamp_;
  if (stamp_ == 0) {
    // 2^32 - 1 queries since the last refill: stale epochs from the
    // previous wrap would collide with a reused stamp, so refill once and
    // restart the cycle.
    std::fill(visit_epoch_.begin(), visit_epoch_.end(), 0);
    stamp_ = 1;
  }
  frontier_.clear();
  next_frontier_.clear();
  if (account_outgoing_ && outgoing_.size() < node_count) {
    outgoing_.resize(node_count, 0);
  }
}

void QueryWorkspace::begin_batch(std::size_t node_count) {
  if (batch_visit_epoch_.size() != node_count) {
    batch_visit_epoch_.assign(node_count, 0);
    batch_visited_.assign(node_count, 0);
    batch_hit_epoch_.assign(node_count, 0);
    batch_hit_.assign(node_count, 0);
    arrival_epoch_.assign(node_count, 0);
    batch_arrivals_.assign(node_count, 0);
    batch_stamp_ = 0;
    arrival_stamp_ = 0;
  }
  // One bump serves the whole ≤64-query batch: the visited/hit words are
  // per-batch bitmasks, so a per-query bump here would invalidate the
  // earlier queries' bits mid-batch (stale-stamp aliasing across the
  // bitmask — the satellite bug this PR pins with BatchStamp* tests).
  ++batch_stamp_;
  if (batch_stamp_ == 0) {
    // 2^32 - 1 batches since the last refill: a reused stamp value would
    // resurrect visit/hit words from the previous cycle.
    std::fill(batch_visit_epoch_.begin(), batch_visit_epoch_.end(), 0u);
    std::fill(batch_hit_epoch_.begin(), batch_hit_epoch_.end(), 0u);
    batch_stamp_ = 1;
  }
  batch_frontier_.clear();
  batch_next_frontier_.clear();
  if (account_outgoing_ && outgoing_.size() < node_count) {
    outgoing_.resize(node_count, 0);
  }
}

namespace {

template <typename T>
std::size_t capacity_bytes(const std::vector<T>& v) noexcept {
  return v.capacity() * sizeof(T);
}

}  // namespace

std::size_t QueryWorkspace::memory_bytes() const noexcept {
  return capacity_bytes(visit_epoch_) + capacity_bytes(frontier_) +
         capacity_bytes(next_frontier_) + capacity_bytes(node_buffer_) +
         capacity_bytes(value_buffer_) + capacity_bytes(mask_buffer_) +
         capacity_bytes(outgoing_) + capacity_bytes(batch_visit_epoch_) +
         capacity_bytes(batch_visited_) + capacity_bytes(batch_hit_epoch_) +
         capacity_bytes(batch_hit_) + capacity_bytes(arrival_epoch_) +
         capacity_bytes(batch_arrivals_) + capacity_bytes(batch_frontier_) +
         capacity_bytes(batch_next_frontier_);
}

}  // namespace makalu
