// Session-based churn simulation over a Makalu overlay.
//
// The paper motivates Makalu partly by churn ("k-regular random graphs
// ... are difficult to maintain in dynamic P2P environments") but only
// evaluates one-shot failures. This module closes that gap: nodes
// alternate online sessions and offline periods with exponential
// durations (the standard churn model of Stutzbach & Rejaie's churn
// study), departures sever all of a node's links instantly (ungraceful),
// arrivals re-join through the normal Makalu protocol, and the overlay
// runs periodic maintenance sweeps. Metrics are sampled on a fixed grid:
// online population, connectivity of the online subgraph, degree
// statistics — the time series the fault-tolerance story needs.
#pragma once

#include <cstdint>
#include <vector>

#include "core/overlay_builder.hpp"
#include "net/latency_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_injector.hpp"
#include "sim/replica_placement.hpp"

namespace makalu {

struct ChurnOptions {
  double mean_session_ms = 60'000.0;   ///< mean online session length
  double mean_downtime_ms = 20'000.0;  ///< mean offline period
  double maintenance_interval_ms = 5'000.0;  ///< overlay management sweep
  double sample_interval_ms = 2'000.0;       ///< metric sampling grid
  double duration_ms = 120'000.0;
  std::uint64_t seed = 1;
  /// Fraction of nodes initially online.
  double initial_online_fraction = 0.8;
  /// Optional search sampling: when `catalog` is set, every metric sample
  /// additionally runs `queries_per_sample` TTL-bounded floods among the
  /// online nodes (objects whose holders are offline are unreachable —
  /// data churn included). Holders are indexed by original node id.
  const ObjectCatalog* catalog = nullptr;
  std::size_t queries_per_sample = 0;
  std::uint32_t query_ttl = 4;
  /// Maintenance scheduling. 0 keeps the legacy serial sweep
  /// (maintenance_round). >= 1 switches to
  /// OverlayBuilder::deterministic_sweep with a rating context that
  /// persists across the whole run: 1 runs it inline, k > 1 runs the
  /// parallel phases on a k-thread pool. Every value >= 1 produces the
  /// identical simulation — the sweep is thread-count-invariant — so
  /// reports are comparable across machines and worker counts.
  std::size_t maintenance_threads = 0;
  /// Fault injection on top of churn. Scheduled crashes become permanent
  /// ungraceful departures (the node never returns — crash-stop), link
  /// loss makes re-join handshakes fail and retry after
  /// `join_retry_ms`, and sampled floods lose queries/hits in transit.
  /// The default (inert) plan draws no randomness and leaves the
  /// simulation bit-identical to a run without it.
  FaultPlan faults{};
  double join_retry_ms = 500.0;
  /// Optional observability sink, forwarded to every deterministic sweep
  /// (phase timings, edge counters — see SweepOptions::metrics).
  /// Only consulted when maintenance_threads >= 1. Observe-only.
  obs::MetricsRegistry* metrics = nullptr;
};

struct ChurnSample {
  double time_ms = 0.0;
  std::size_t online = 0;
  std::size_t online_components = 0;   ///< components of online subgraph
  double giant_fraction = 0.0;         ///< largest component / online
  double mean_degree = 0.0;            ///< over online nodes
  std::size_t isolated_online = 0;     ///< online nodes with no links
  /// Search sampling (only when ChurnOptions::catalog is set): success
  /// rate of floods issued at this instant.
  double search_success = -1.0;
};

struct ChurnReport {
  std::vector<ChurnSample> samples;
  std::uint64_t departures = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t crashes = 0;       ///< crash-stop departures (FaultPlan)
  std::uint64_t failed_joins = 0;  ///< re-joins lost to link faults

  /// Fraction of samples whose online subgraph was fully connected.
  [[nodiscard]] double connected_fraction() const;
  /// Minimum giant-component fraction over the run.
  [[nodiscard]] double worst_giant_fraction() const;
  /// Mean search success over sampled instants (-1 if not sampled).
  [[nodiscard]] double mean_search_success() const;
};

/// Runs churn over an overlay built with `builder` on `latency`'s nodes.
/// Deterministic in ChurnOptions::seed.
[[nodiscard]] ChurnReport simulate_churn(const OverlayBuilder& builder,
                                         const LatencyModel& latency,
                                         const ChurnOptions& options);

}  // namespace makalu
