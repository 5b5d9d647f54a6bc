// Undirected graph types.
//
//  - Graph: mutable graph used while *constructing* overlays (nodes join,
//    edges are added and pruned). Neighbor lists are small unsorted
//    sequences — overlay degrees are ~10, so linear scans beat any set
//    structure. Two storage policies sit behind one interface:
//      * GraphStorage::kAdjacencySet — one std::vector per node. Simple,
//        pointer-stable, the historical default.
//      * GraphStorage::kCompact — every neighbor row lives in one shared
//        RowArena slab (graph/compact_graph.hpp): 12 bytes of descriptor
//        per node instead of a vector header plus a private heap chunk.
//        This is what lets a 1M-node overlay build and churn on one box.
//    Both policies implement identical list semantics (append on add,
//    swap-with-last on remove), so the neighbor sequences — and therefore
//    every downstream decision, RNG draw, and search result — are
//    bit-identical between them (pinned by tests/storage_differential).
//  - CsrGraph: immutable compressed-sparse-row snapshot used by every
//    *analysis* pass (BFS/Dijkstra/APSP/spectral). Optionally carries
//    per-edge weights (latencies).
//
// Node identifiers are dense indices [0, n). Failure analysis produces
// subgraphs via `remove_nodes`, which compacts identifiers and returns the
// old->new mapping so callers can track survivors.
//
// Span invalidation: neighbors(u) stays valid until a mutation touches u
// itself (same rule as holding vector iterators), with one addition for
// kCompact: compact_storage() — the explicit epoch compaction — moves
// every row and invalidates all spans. It is only called at quiescent
// points (sweep boundaries, end of construction), never from inside
// add_edge/remove_edge.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/compact_graph.hpp"
#include "support/contracts.hpp"

namespace makalu {

using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Storage-policy handle: how a Graph lays out its neighbor rows. Chosen
/// at construction and carried through copies, remove_nodes subgraphs,
/// and overlay builds (MakaluParameters::storage).
enum class GraphStorage : std::uint8_t {
  kAdjacencySet,  ///< vector-of-vectors; pointer-stable rows
  kCompact,       ///< arena-backed CSR rows with slack (RowArena)
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t node_count,
                 GraphStorage storage = GraphStorage::kAdjacencySet)
      : storage_(storage) {
    if (storage_ == GraphStorage::kCompact) {
      compact_ = RowArena<NodeId>(node_count);
    } else {
      adjacency_.resize(node_count);
    }
  }

  // Spelled out only because the edge counter is atomic; a moved-from
  // graph is left empty.
  Graph(const Graph& other)
      : storage_(other.storage_),
        adjacency_(other.adjacency_),
        compact_(other.compact_),
        edge_count_(other.edge_count()) {}
  Graph(Graph&& other) noexcept
      : storage_(other.storage_),
        adjacency_(std::move(other.adjacency_)),
        compact_(std::move(other.compact_)),
        edge_count_(other.edge_count()) {
    other.adjacency_.clear();
    other.compact_ = RowArena<NodeId>();
    other.edge_count_.store(0, std::memory_order_relaxed);
  }
  Graph& operator=(const Graph& other) {
    storage_ = other.storage_;
    adjacency_ = other.adjacency_;
    compact_ = other.compact_;
    edge_count_.store(other.edge_count(), std::memory_order_relaxed);
    return *this;
  }
  Graph& operator=(Graph&& other) noexcept {
    storage_ = other.storage_;
    adjacency_ = std::move(other.adjacency_);
    compact_ = std::move(other.compact_);
    edge_count_.store(other.edge_count(), std::memory_order_relaxed);
    other.adjacency_.clear();
    other.compact_ = RowArena<NodeId>();
    other.edge_count_.store(0, std::memory_order_relaxed);
    return *this;
  }

  [[nodiscard]] GraphStorage storage() const noexcept { return storage_; }

  [[nodiscard]] std::size_t node_count() const noexcept {
    return storage_ == GraphStorage::kCompact ? compact_.row_count()
                                              : adjacency_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return edge_count_.load(std::memory_order_relaxed);
  }

  /// Appends a new isolated node and returns its id.
  NodeId add_node();

  /// Adds undirected edge {u, v}. Returns false (and does nothing) if the
  /// edge already exists or u == v.
  bool add_edge(NodeId u, NodeId v);

  /// Removes undirected edge {u, v}. Returns false if absent.
  bool remove_edge(NodeId u, NodeId v);

  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    if (storage_ == GraphStorage::kCompact) return compact_.row(u);
    MAKALU_EXPECTS(u < adjacency_.size());
    return adjacency_[u];
  }

  [[nodiscard]] std::size_t degree(NodeId u) const {
    if (storage_ == GraphStorage::kCompact) return compact_.size(u);
    MAKALU_EXPECTS(u < adjacency_.size());
    return adjacency_[u].size();
  }

  /// Disconnects u from every neighbor (u itself stays, isolated).
  void isolate(NodeId u);

  /// Epoch compaction of the kCompact slab (no-op for kAdjacencySet):
  /// repacks every row tightly and drops the grow freelists. Invalidates
  /// all neighbor spans; call only at quiescent points. Neighbor content
  /// and order are unchanged.
  void compact_storage() {
    if (storage_ == GraphStorage::kCompact) compact_.compact();
  }

  /// Fraction of the kCompact slab that is reclaimable garbage (freed
  /// grow blocks + class-rounding losses). Always 0 for kAdjacencySet.
  [[nodiscard]] double storage_slack_ratio() const noexcept {
    return storage_ == GraphStorage::kCompact ? compact_.slack_ratio() : 0.0;
  }

  /// Number of epoch compactions performed so far (kCompact only).
  [[nodiscard]] std::uint64_t storage_epoch() const noexcept {
    return storage_ == GraphStorage::kCompact ? compact_.epoch() : 0;
  }

  /// Honest bytes held by the adjacency structure: for kAdjacencySet the
  /// vector headers plus each row's measured heap chunk; for kCompact the
  /// arena's descriptors + slab + freelists. The bench_scale bytes/node
  /// gauges divide this by node_count().
  [[nodiscard]] std::size_t memory_footprint() const;

  /// Returns the subgraph induced by deleting `failed` (given as a
  /// true-means-dead mask over the current node set), with ids compacted.
  /// `old_to_new` (if non-null) receives the id mapping; removed nodes map
  /// to kInvalidNode.
  [[nodiscard]] Graph remove_nodes(const std::vector<bool>& failed,
                                   std::vector<NodeId>* old_to_new =
                                       nullptr) const;

  /// Degree sequence of the whole graph.
  [[nodiscard]] std::vector<std::size_t> degree_sequence() const;

 private:
  GraphStorage storage_ = GraphStorage::kAdjacencySet;
  std::vector<std::vector<NodeId>> adjacency_;  // kAdjacencySet rows
  RowArena<NodeId> compact_;                    // kCompact rows
  // Atomic so the deterministic parallel maintenance sweep may remove
  // edges of 2-hop-independent nodes concurrently (their adjacency lists
  // are disjoint; only this counter is shared). Relaxed ordering suffices:
  // the count is an order-independent integer sum and every reader
  // synchronises with the writers through the thread pool's join.
  std::atomic<std::size_t> edge_count_{0};
};

/// Immutable CSR snapshot. Edge weights are optional; `weight(u, i)` is the
/// weight of u's i-th incident arc (stored symmetrically).
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds from a mutable graph. If `edge_weight` is provided it is called
  /// as edge_weight(u, v) for every arc to populate weights.
  template <typename WeightFn>
  static CsrGraph from_graph(const Graph& g, WeightFn&& edge_weight) {
    CsrGraph csr = from_graph(g);
    csr.weights_.resize(csr.targets_.size());
    for (NodeId u = 0; u < csr.node_count(); ++u) {
      for (std::size_t i = csr.offsets_[u]; i < csr.offsets_[u + 1]; ++i) {
        csr.weights_[i] = edge_weight(u, csr.targets_[i]);
      }
    }
    return csr;
  }

  static CsrGraph from_graph(const Graph& g);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return targets_.size() / 2;
  }
  [[nodiscard]] bool has_weights() const noexcept { return !weights_.empty(); }

  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    MAKALU_EXPECTS(u + 1 < offsets_.size());
    return {targets_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  [[nodiscard]] std::span<const double> weights(NodeId u) const {
    MAKALU_EXPECTS(has_weights());
    MAKALU_EXPECTS(u + 1 < offsets_.size());
    return {weights_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  [[nodiscard]] std::size_t degree(NodeId u) const {
    MAKALU_EXPECTS(u + 1 < offsets_.size());
    return offsets_[u + 1] - offsets_[u];
  }

 private:
  std::vector<std::size_t> offsets_;  // size n+1
  std::vector<NodeId> targets_;       // size 2m
  std::vector<double> weights_;       // size 2m or empty
};

}  // namespace makalu
