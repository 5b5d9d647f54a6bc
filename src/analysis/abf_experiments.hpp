// Attenuated-Bloom-filter search experiment driver (Figure 4 and the §4.6
// discussion): success rate vs TTL for given replication ratios, plus an
// ABF-depth ablation.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/topology_factory.hpp"
#include "obs/metrics.hpp"
#include "search/abf_search.hpp"
#include "sim/query_stats.hpp"

namespace makalu {

struct AbfExperimentOptions {
  double replication_ratio = 0.01;
  std::size_t queries = 200;
  std::size_t objects = 50;
  std::size_t runs = 2;
  AbfOptions abf{};  ///< depth 3, per the paper
  std::uint64_t seed = 1;
  /// Query-batch parallelism (ParallelQueryDriver): 0 = shared pool,
  /// 1 = serial. Results are identical at any setting.
  std::size_t threads = 0;
  /// Optional metrics registry (see BatchQueryOptions::metrics).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Aggregate outcome at one TTL.
[[nodiscard]] QueryAggregate run_abf_batch(const BuiltTopology& topology,
                                           std::uint32_t ttl,
                                           const AbfExperimentOptions&
                                               options);

/// Success-rate series over ttl = 0..max_ttl (Figure 4). The router is
/// built once per run and shared across the TTL sweep — routing is
/// deterministic per (source, object, rng stream), so deeper TTLs extend
/// shallower walks exactly as re-running would.
[[nodiscard]] std::vector<double> abf_success_vs_ttl(
    const BuiltTopology& topology, const AbfExperimentOptions& options,
    std::uint32_t max_ttl);

}  // namespace makalu
