#include "graph/graph.hpp"

#include <algorithm>

#if defined(__has_include)
#if __has_include(<malloc.h>)
#include <malloc.h>
#define MAKALU_HAVE_MALLOC_USABLE_SIZE 1
#endif
#endif

namespace makalu {

NodeId Graph::add_node() {
  NodeId id;
  if (storage_ == GraphStorage::kCompact) {
    id = compact_.add_row();
  } else {
    adjacency_.emplace_back();
    id = static_cast<NodeId>(adjacency_.size() - 1);
  }
  return id;
}

bool Graph::add_edge(NodeId u, NodeId v) {
  MAKALU_EXPECTS(u < node_count() && v < node_count());
  if (u == v || has_edge(u, v)) return false;
  if (storage_ == GraphStorage::kCompact) {
    compact_.push(u, v);
    compact_.push(v, u);
  } else {
    adjacency_[u].push_back(v);
    adjacency_[v].push_back(u);
  }
  edge_count_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Graph::remove_edge(NodeId u, NodeId v) {
  MAKALU_EXPECTS(u < node_count() && v < node_count());
  // Both policies erase by swap-with-last (order within a neighbor row is
  // not meaningful, and the two storages stay element-for-element equal).
  if (storage_ == GraphStorage::kCompact) {
    if (!compact_.erase_value(u, v)) return false;
    const bool also = compact_.erase_value(v, u);
    MAKALU_ASSERT(also);
  } else {
    auto erase_one = [](std::vector<NodeId>& list, NodeId target) {
      const auto it = std::find(list.begin(), list.end(), target);
      if (it == list.end()) return false;
      *it = list.back();
      list.pop_back();
      return true;
    };
    if (!erase_one(adjacency_[u], v)) return false;
    const bool also = erase_one(adjacency_[v], u);
    MAKALU_ASSERT(also);
  }
  edge_count_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  MAKALU_EXPECTS(u < node_count() && v < node_count());
  // Probe the lower-degree endpoint's row: on scale-free topologies a hub
  // can have orders of magnitude more neighbors than a leaf, so scanning
  // the hub side unconditionally would turn hub-adjacent membership tests
  // quadratic. Storage-agnostic via the accessor spans.
  const bool u_shorter = degree(u) <= degree(v);
  const auto list = neighbors(u_shorter ? u : v);
  const NodeId needle = u_shorter ? v : u;
  return std::find(list.begin(), list.end(), needle) != list.end();
}

void Graph::isolate(NodeId u) {
  MAKALU_EXPECTS(u < node_count());
  // Copy: remove_edge mutates u's row.
  const auto nbrs = neighbors(u);
  const std::vector<NodeId> neighbors_copy(nbrs.begin(), nbrs.end());
  for (NodeId v : neighbors_copy) remove_edge(u, v);
}

Graph Graph::remove_nodes(const std::vector<bool>& failed,
                          std::vector<NodeId>* old_to_new) const {
  const std::size_t n = node_count();
  MAKALU_EXPECTS(failed.size() == n);
  std::vector<NodeId> mapping(n, kInvalidNode);
  NodeId next = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (!failed[u]) mapping[u] = next++;
  }
  // The survivor subgraph keeps the source's storage policy.
  Graph out(next, storage_);
  for (NodeId u = 0; u < n; ++u) {
    if (failed[u]) continue;
    for (NodeId v : neighbors(u)) {
      if (v > u || failed[v]) continue;  // each surviving edge once (v < u)
      out.add_edge(mapping[u], mapping[v]);
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(mapping);
  return out;
}

std::vector<std::size_t> Graph::degree_sequence() const {
  std::vector<std::size_t> degrees(node_count());
  for (NodeId u = 0; u < degrees.size(); ++u) degrees[u] = degree(u);
  return degrees;
}

std::size_t Graph::memory_footprint() const {
  if (storage_ == GraphStorage::kCompact) return compact_.memory_bytes();
  std::size_t bytes = adjacency_.capacity() * sizeof(adjacency_[0]);
  for (const auto& row : adjacency_) {
    if (row.capacity() == 0) continue;
#if defined(MAKALU_HAVE_MALLOC_USABLE_SIZE)
    // Measured chunk size: counts allocator rounding, the dominant hidden
    // cost of one heap allocation per node.
    bytes += malloc_usable_size(
        const_cast<void*>(static_cast<const void*>(row.data())));
#else
    bytes += row.capacity() * sizeof(NodeId);
#endif
  }
  return bytes;
}

CsrGraph CsrGraph::from_graph(const Graph& g) {
  CsrGraph csr;
  const std::size_t n = g.node_count();
  csr.offsets_.assign(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    csr.offsets_[u + 1] = csr.offsets_[u] + g.degree(u);
  }
  csr.targets_.resize(csr.offsets_.back());
  for (NodeId u = 0; u < n; ++u) {
    const auto nbrs = g.neighbors(u);
    std::copy(nbrs.begin(), nbrs.end(),
              csr.targets_.begin() +
                  static_cast<std::ptrdiff_t>(csr.offsets_[u]));
    // Sort each row: deterministic iteration order for traversals.
    std::sort(csr.targets_.begin() +
                  static_cast<std::ptrdiff_t>(csr.offsets_[u]),
              csr.targets_.begin() +
                  static_cast<std::ptrdiff_t>(csr.offsets_[u + 1]));
  }
  return csr;
}

}  // namespace makalu
