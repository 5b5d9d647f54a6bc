#include "proto/node.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "support/contracts.hpp"

namespace makalu::proto {

bool ProtocolNode::has_neighbor(NodeId peer) const {
  return std::any_of(neighbors_.begin(), neighbors_.end(),
                     [&](const NeighborState& n) { return n.peer == peer; });
}

std::vector<NodeId> ProtocolNode::neighbor_table() const {
  std::vector<NodeId> table;
  table.reserve(neighbors_.size());
  for (const auto& n : neighbors_) table.push_back(n.peer);
  return table;
}

void ProtocolNode::add_neighbor(NodeId peer, double latency_ms,
                                std::vector<NodeId> table) {
  MAKALU_EXPECTS(!has_neighbor(peer));
  MAKALU_EXPECTS(peer != id_);
  neighbors_.push_back({peer, latency_ms, std::move(table)});
}

bool ProtocolNode::remove_neighbor(NodeId peer) {
  const auto it = std::find_if(
      neighbors_.begin(), neighbors_.end(),
      [&](const NeighborState& n) { return n.peer == peer; });
  if (it == neighbors_.end()) return false;
  *it = std::move(neighbors_.back());
  neighbors_.pop_back();
  return true;
}

void ProtocolNode::update_table(NodeId peer, std::vector<NodeId> table) {
  for (auto& n : neighbors_) {
    if (n.peer == peer) {
      n.table = std::move(table);
      return;
    }
  }
  // Update from a non-neighbor (e.g. raced with a Disconnect): ignore.
}

std::vector<ProtocolNode::LocalRating> ProtocolNode::rate_locally(
    const NeighborState* extra) const {
  // Assemble the evaluation set: current neighbors plus the provisional
  // candidate, if any.
  std::vector<const NeighborState*> peers;
  peers.reserve(neighbors_.size() + 1);
  for (const auto& n : neighbors_) peers.push_back(&n);
  if (extra != nullptr) peers.push_back(extra);

  std::vector<LocalRating> ratings;
  if (peers.empty()) return ratings;

  // Direct set: us + all evaluated peers.
  std::unordered_set<NodeId> direct;
  direct.insert(id_);
  for (const auto* p : peers) direct.insert(p->peer);

  // Occurrence counts over the advertised tables (boundary candidates).
  std::unordered_map<NodeId, std::uint32_t> seen;
  for (const auto* p : peers) {
    for (const NodeId x : p->table) {
      if (direct.count(x) != 0) continue;
      ++seen[x];
    }
  }

  double d_min = std::numeric_limits<double>::infinity();
  double d_max = 0.0;
  for (const auto* p : peers) {
    d_min = std::min(d_min, std::max(1e-6, p->latency_ms));
    d_max = std::max(d_max, std::max(1e-6, p->latency_ms));
  }
  const bool normalized =
      weights_.scaling == ProximityScaling::kNormalized;
  const double proximity_numerator = normalized ? d_min : d_max;

  const std::size_t boundary = seen.size();
  ratings.reserve(peers.size());
  for (const auto* p : peers) {
    std::size_t unique = 0;
    std::size_t others = 0;
    for (const NodeId x : p->table) {
      if (x != id_) ++others;
      const auto it = seen.find(x);
      if (it != seen.end() && it->second == 1) ++unique;
    }
    double connectivity = 0.0;
    if (normalized) {
      connectivity = others > 0 ? static_cast<double>(unique) /
                                      static_cast<double>(others)
                                : 0.0;
    } else {
      connectivity = boundary > 0 ? static_cast<double>(unique) /
                                        static_cast<double>(boundary)
                                  : 0.0;
    }
    const double proximity =
        proximity_numerator / std::max(1e-6, p->latency_ms);
    LocalRating r;
    r.peer = p->peer;
    r.score = weights_.alpha * connectivity + weights_.beta * proximity;
    r.is_candidate = (extra != nullptr && p == extra);
    ratings.push_back(r);
  }
  return ratings;
}

NodeId ProtocolNode::worst_neighbor(std::size_t low_water) const {
  const auto ratings = rate_locally();
  if (ratings.empty()) return kInvalidNode;
  auto table_size = [&](NodeId peer) -> std::size_t {
    for (const auto& n : neighbors_) {
      if (n.peer == peer) return n.table.size();
    }
    return 0;
  };
  const LocalRating* worst = nullptr;
  const LocalRating* worst_unprotected = nullptr;
  auto better = [](const LocalRating& a, const LocalRating* b) {
    if (b == nullptr) return true;
    if (a.score != b->score) return a.score < b->score;
    return a.peer < b->peer;
  };
  for (const auto& r : ratings) {
    if (better(r, worst)) worst = &r;
    if (table_size(r.peer) > low_water && better(r, worst_unprotected)) {
      worst_unprotected = &r;
    }
  }
  return worst_unprotected != nullptr ? worst_unprotected->peer
                                      : worst->peer;
}

std::vector<NodeId> ProtocolNode::keepalive_tick(std::uint32_t max_misses) {
  std::vector<NodeId> dead;
  for (auto& n : neighbors_) {
    if (++n.missed_pings > max_misses) dead.push_back(n.peer);
  }
  return dead;
}

void ProtocolNode::note_alive(NodeId peer) {
  for (auto& n : neighbors_) {
    if (n.peer == peer) {
      n.missed_pings = 0;
      return;
    }
  }
}

bool ProtocolNode::remember_query(QueryId id, NodeId came_from) {
  if (seen_previous_.find(id) != nullptr) return false;
  if (!seen_current_.insert(id, came_from)) return false;
  if (seen_current_.size() >= seen_query_capacity_) {
    // Rotate generations: the previous generation (the oldest ids) is
    // evicted wholesale, and its storage becomes the new current one.
    // Deterministic — depends only on insertion counts.
    std::swap(seen_previous_, seen_current_);
    seen_current_.clear();
  }
  return true;
}

std::optional<NodeId> ProtocolNode::breadcrumb(QueryId id) const {
  if (const NodeId* from = seen_current_.find(id)) return *from;
  if (const NodeId* from = seen_previous_.find(id)) return *from;
  return std::nullopt;
}

// --- SeenTable ----------------------------------------------------------------

std::size_t ProtocolNode::SeenTable::home(QueryId id) const noexcept {
  // Fibonacci hashing: the top bits of id * 2^64/phi index the table, so
  // consecutive ids (the usual case) land far apart.
  const auto shift = static_cast<unsigned>(
      64 - std::countr_zero(static_cast<std::uint64_t>(slots_.size())));
  return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >> shift);
}

const NodeId* ProtocolNode::SeenTable::find(QueryId id) const {
  if (size_ == 0) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(id);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.stamp != stamp_) return nullptr;
    if (slot.id == id) return &slot.from;
  }
}

bool ProtocolNode::SeenTable::insert(QueryId id, NodeId from) {
  if (2 * (size_ + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(id);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.stamp != stamp_) {
      slot = Slot{id, from, stamp_};
      ++size_;
      return true;
    }
    if (slot.id == id) return false;
  }
}

void ProtocolNode::SeenTable::clear() {
  size_ = 0;
  if (++stamp_ == 0) {
    // 2^32 clears: wipe the stale stamps once rather than alias them.
    for (Slot& slot : slots_) slot.stamp = 0;
    stamp_ = 1;
  }
}

void ProtocolNode::SeenTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
  const std::uint32_t old_stamp = stamp_;
  stamp_ = 1;
  size_ = 0;
  for (const Slot& slot : old) {
    if (slot.stamp == old_stamp) insert(slot.id, slot.from);
  }
}

}  // namespace makalu::proto
