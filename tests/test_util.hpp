// Shared fixtures/helpers for the Makalu test suite: canonical small
// graphs with known metrics, a constant-latency model for tests that
// need latencies but not geometry, a scoped match-kernel override, and a
// QueryResult digest for golden-value route tests.
#pragma once

#include <cstdint>
#include <vector>

#include "bloom/filter_arena.hpp"
#include "graph/graph.hpp"
#include "net/latency_model.hpp"
#include "sim/query_stats.hpp"

namespace makalu::testing {

/// Path graph 0-1-2-...-(n-1).
inline Graph make_path(std::size_t n) {
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

/// Cycle graph.
inline Graph make_cycle(std::size_t n) {
  Graph g = make_path(n);
  if (n >= 3) g.add_edge(static_cast<NodeId>(n - 1), 0);
  return g;
}

/// Star: node 0 is the hub.
inline Graph make_star(std::size_t leaves) {
  Graph g(leaves + 1);
  for (NodeId v = 1; v <= leaves; ++v) g.add_edge(0, v);
  return g;
}

/// Complete graph K_n.
inline Graph make_complete(std::size_t n) {
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  return g;
}

/// Two cliques of size k joined by a single bridge edge (a classic
/// low-conductance graph).
inline Graph make_barbell(std::size_t k) {
  Graph g(2 * k);
  for (NodeId u = 0; u < k; ++u) {
    for (NodeId v = u + 1; v < k; ++v) g.add_edge(u, v);
  }
  for (auto u = static_cast<NodeId>(k); u < 2 * k; ++u) {
    for (auto v = static_cast<NodeId>(u + 1); v < 2 * k; ++v) {
      g.add_edge(u, v);
    }
  }
  g.add_edge(0, static_cast<NodeId>(k));
  return g;
}

/// LatencyModel with a single constant latency for every pair.
class ConstantLatency final : public LatencyModel {
 public:
  explicit ConstantLatency(std::size_t nodes, double value = 1.0)
      : nodes_(nodes), value_(value) {}

  [[nodiscard]] double latency(NodeId a, NodeId b) const override {
    return a == b ? 0.0 : value_;
  }
  [[nodiscard]] std::size_t node_count() const override { return nodes_; }

 private:
  std::size_t nodes_;
  double value_;
};

/// LatencyModel reading from an explicit symmetric matrix.
class MatrixLatency final : public LatencyModel {
 public:
  explicit MatrixLatency(std::vector<std::vector<double>> matrix)
      : matrix_(std::move(matrix)) {}

  [[nodiscard]] double latency(NodeId a, NodeId b) const override {
    return matrix_[a][b];
  }
  [[nodiscard]] std::size_t node_count() const override {
    return matrix_.size();
  }

 private:
  std::vector<std::vector<double>> matrix_;
};

/// Forces every kAuto match-kernel dispatch to `kernel` for the scope, and
/// restores kAuto (not a previous override) when it ends — also when a
/// failed assertion returns early, so no later test inherits the kernel.
class KernelOverride {
 public:
  explicit KernelOverride(MatchKernel kernel) {
    set_match_kernel_override(kernel);
  }
  ~KernelOverride() { set_match_kernel_override(MatchKernel::kAuto); }
  KernelOverride(const KernelOverride&) = delete;
  KernelOverride& operator=(const KernelOverride&) = delete;
};

/// Folds every QueryResult field into a running digest (FNV-1a over
/// 64-bit words), so a long sequence of routes can be pinned as one
/// golden value.
inline std::uint64_t fold_result(std::uint64_t digest, const QueryResult& r) {
  for (const std::uint64_t field :
       {std::uint64_t{r.success}, r.messages, r.duplicates, r.nodes_visited,
        std::uint64_t{r.first_hit_hop}, r.replicas_found, r.forwarders,
        std::uint64_t{r.truncated}}) {
    digest = (digest ^ field) * 0x100000001b3ULL;
  }
  return digest;
}

/// FNV-1a offset basis: the digest of an empty sequence.
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

}  // namespace makalu::testing
