// Per-node protocol state machine.
//
// A ProtocolNode holds exactly the state a deployed Makalu peer would:
// its capacity, its current neighbors with their last-pushed routing
// tables and measured link latencies, a query-ID cache, and the
// breadcrumbs needed to route QueryHits back. All decisions — accepting,
// refusing, pruning — are made from this local state alone; the node
// never touches the global graph.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/rating.hpp"
#include "proto/message.hpp"
#include "support/contracts.hpp"

namespace makalu::proto {

struct NeighborState {
  NodeId peer = kInvalidNode;
  double latency_ms = 0.0;              ///< measured at connect (ping)
  std::vector<NodeId> table;            ///< peer's last-pushed neighbors
  /// Keepalive misses since the last proof of life (robustness layer);
  /// stays 0 when keepalives are disabled.
  std::uint32_t missed_pings = 0;
};

class ProtocolNode {
 public:
  /// Default bound on the duplicate-suppression cache: one generation
  /// holds at most this many query ids, and at most two generations are
  /// alive at once, so memory stays flat across arbitrarily long query
  /// histories.
  static constexpr std::size_t kDefaultSeenQueryCapacity = 4096;

  ProtocolNode() = default;
  ProtocolNode(NodeId id, std::size_t capacity, RatingWeights weights,
               std::size_t seen_query_capacity = kDefaultSeenQueryCapacity)
      : id_(id),
        capacity_(capacity),
        weights_(weights),
        seen_query_capacity_(seen_query_capacity) {
    MAKALU_EXPECTS(seen_query_capacity > 0);
  }

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t degree() const noexcept {
    return neighbors_.size();
  }
  [[nodiscard]] const std::vector<NeighborState>& neighbors() const {
    return neighbors_;
  }
  [[nodiscard]] bool has_neighbor(NodeId peer) const;

  /// Current neighbor ids (the routing table this node pushes to peers).
  [[nodiscard]] std::vector<NodeId> neighbor_table() const;

  void add_neighbor(NodeId peer, double latency_ms,
                    std::vector<NodeId> table);
  bool remove_neighbor(NodeId peer);
  void update_table(NodeId peer, std::vector<NodeId> table);

  /// The Makalu rating, evaluated from cached neighbor tables (the local
  /// view — may lag the true graph between TableUpdates, exactly as in a
  /// deployment). `extra` optionally injects a provisional candidate
  /// (peer id + its advertised table + latency) per the paper's
  /// "provisionally considers the candidate peer as its neighbor".
  struct LocalRating {
    NodeId peer = kInvalidNode;
    double score = 0.0;
    bool is_candidate = false;
  };
  [[nodiscard]] std::vector<LocalRating> rate_locally(
      const NeighborState* extra = nullptr) const;

  /// Lowest-rated current neighbor honoring the low-water rule (peers
  /// whose advertised table is already at/below `low_water` entries are
  /// protected unless everyone is). kInvalidNode if no neighbors.
  [[nodiscard]] NodeId worst_neighbor(std::size_t low_water) const;

  // --- keepalive / failure detection ---------------------------------------
  /// One keepalive round: increments every neighbor's miss counter and
  /// returns the peers whose count now exceeds `max_misses` — the dead-peer
  /// suspects the caller should tear down (and then ping the survivors).
  [[nodiscard]] std::vector<NodeId> keepalive_tick(std::uint32_t max_misses);
  /// Proof of life from `peer` (Pong or any delivered message): resets its
  /// miss counter.
  void note_alive(NodeId peer);

  // --- query plumbing ------------------------------------------------------
  /// Returns false if this query id was already seen (duplicate). The
  /// cache is generation-bounded: once the current generation fills,
  /// it becomes the previous generation and the oldest ids are evicted —
  /// memory is capped at 2 * seen_query_capacity entries while duplicate
  /// suppression still covers at least the `seen_query_capacity` most
  /// recent distinct queries (far beyond any in-flight flood).
  bool remember_query(QueryId id, NodeId came_from);
  [[nodiscard]] std::optional<NodeId> breadcrumb(QueryId id) const;
  /// Entries currently cached across both generations (bounded; tests).
  [[nodiscard]] std::size_t seen_query_count() const noexcept {
    return seen_current_.size() + seen_previous_.size();
  }

 private:
  /// One generation of the duplicate-suppression cache: a flat
  /// linear-probing table of query id -> breadcrumb, kept at most half
  /// full. A slot is in use iff its stamp equals the table's, so clear()
  /// bumps the stamp and keeps the storage. The table doubles while its
  /// generation first fills rather than reserving 2 * seen_query_capacity
  /// slots up front (128 KiB per generation at the default capacity, which
  /// most nodes never reach); once both generations have filled, a node
  /// remembers queries without allocating.
  class SeenTable {
   public:
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] const NodeId* find(QueryId id) const;
    /// Inserts id -> from; false (and no change) if `id` is present.
    bool insert(QueryId id, NodeId from);
    void clear();

   private:
    struct Slot {
      QueryId id = 0;
      NodeId from = kInvalidNode;
      std::uint32_t stamp = 0;
    };
    [[nodiscard]] std::size_t home(QueryId id) const noexcept;
    void grow();

    std::vector<Slot> slots_;  ///< power-of-two size (or empty)
    std::uint32_t stamp_ = 1;
    std::size_t size_ = 0;
  };

  NodeId id_ = kInvalidNode;
  std::size_t capacity_ = 0;
  RatingWeights weights_{};
  std::size_t seen_query_capacity_ = kDefaultSeenQueryCapacity;
  std::vector<NeighborState> neighbors_;
  // Generational duplicate-suppression cache (id -> breadcrumb).
  SeenTable seen_current_;
  SeenTable seen_previous_;
};

}  // namespace makalu::proto
