// Open-loop executor: admits a deterministic query stream into service
// by arrival timestamp, measuring lateness instead of absorbing it.
//
// Model. The arrival process fixes virtual timestamps t_0 <= t_1 <= ...
// for the whole stream before any service happens — arrivals never wait
// for completions (open loop). The engine runs a virtual clock `now`:
//
//   * if no admitted query is waiting, the server idles and `now` jumps
//     to the next arrival (idle-skipping, not busy-waiting);
//   * otherwise the engine takes the oldest waiting slice (FIFO, capped
//     at max_admission_batch and cut at churn boundaries), runs it
//     through the QueryBackend, and advances `now` by the slice's
//     measured wall-clock service time;
//   * every query in the slice completes at the post-slice `now`; its
//     sojourn is `now - t_q` — queueing delay plus service, the end-to-
//     end latency an open-loop client observes.
//
// When the offered rate exceeds the backend's capacity the queue (and
// every later sojourn) grows without bound — exactly the saturation
// signature saturation.hpp searches for; below capacity, sojourn hugs
// the per-slice service time.
//
// Determinism ladder (DESIGN.md §16). Which stream indices land in
// which slice depends on wall-clock service times and varies run to
// run. Per-query *results* do not: stream query k is seeded as
// (seed, k) through BatchQueryOptions::first_query_index, catalog churn
// is applied at fixed stream indices (churn_every_queries) rather than
// at wall-clock times, and the aggregate accumulates in stream order —
// so the query aggregate is byte-identical across repeats at any thread
// count, while the timing outputs (sojourn percentiles, completed rate)
// are honest wall-clock measurements and are not.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "analysis/parallel_query_driver.hpp"
#include "obs/metrics.hpp"
#include "sim/query_stats.hpp"
#include "workload/arrival.hpp"

namespace makalu::workload {

/// Service seam: runs one contiguous slice [first, first + count) of the
/// global query stream and appends per-query outcomes, in stream order,
/// into the aggregate. Implementations: DriverQueryBackend (the
/// in-process ParallelQueryDriver path, bit-identical per the ladder
/// above) and cluster::ClusterWorkloadBackend (live UDP nodes — a
/// statistical cell, no bit-identity claims).
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  /// Returns wall-clock seconds spent serving the slice.
  virtual double run_slice(std::uint64_t first_query_index,
                           std::size_t count, QueryAggregate& aggregate) = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

struct OpenLoopOptions {
  /// Upper bound on queries per admission slice. Bounds the backend's
  /// batch memory and the sojourn attribution granularity (everything in
  /// a slice completes together); it does not change any query result.
  std::size_t max_admission_batch = 1024;
  /// Apply catalog churn every this many stream queries (0 = never).
  /// Boundaries are stream indices, not wall times — see the
  /// determinism ladder above. Admission slices are cut at boundaries so
  /// query k always sees exactly floor(k / churn_every_queries)
  /// churn applications.
  std::size_t churn_every_queries = 0;
  /// Invoked at each churn boundary with the stream index reached;
  /// wires ZipfCatalog::churn_step + AbfRouter waves in the caller's
  /// context (and times them there).
  std::function<void(std::uint64_t reached_index)> churn_hook;
  /// Optional registry: the engine feeds `workload.sojourn_ms` and
  /// `workload.queue_depth` histograms there (it keeps a private
  /// registry otherwise, so the report's percentiles are always
  /// computed — from obs::HistogramView either way).
  obs::MetricsRegistry* metrics = nullptr;
};

struct OpenLoopReport {
  QueryAggregate aggregate;      ///< stream-order fold over all queries
  std::uint64_t offered = 0;     ///< queries in the stream (all complete)
  std::size_t slices = 0;        ///< admission batches the run used
  double horizon_ms = 0.0;       ///< last arrival timestamp
  double makespan_ms = 0.0;      ///< virtual completion of the last query
  double offered_qps = 0.0;      ///< offered / horizon
  double completed_qps = 0.0;    ///< offered / makespan
  /// Sojourn percentiles (ms) from the obs histogram — queueing plus
  /// service, interpolated per HistogramView::quantile semantics.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double mean_sojourn_ms = 0.0;
  double max_sojourn_ms = 0.0;
  std::size_t max_queue_depth = 0;

  /// Completed-vs-offered rate ratio in (0, 1]; 1 - epsilon when the
  /// backend keeps up, capacity/offered when it does not. The
  /// saturation controller's pass/fail signal.
  [[nodiscard]] double completed_fraction() const noexcept {
    return makespan_ms > 0.0 ? horizon_ms / makespan_ms : 1.0;
  }
};

/// The in-process backend: slices run through ParallelQueryDriver with
/// the stream index threaded into BatchQueryOptions::first_query_index,
/// so the full determinism ladder applies — stream query k's result is a
/// pure function of (seed, k, catalog state at k) at any thread count
/// and under any slicing.
class DriverQueryBackend final : public QueryBackend {
 public:
  struct Options {
    std::uint64_t seed = 1;
    std::size_t threads = 1;  ///< ParallelQueryDriver thread count
    bool batch = false;       ///< shared-frontier run_many batching
    /// Popularity sampler (ZipfCatalog::sample) — optional; uniform
    /// object draw otherwise.
    std::function<ObjectId(Rng&)> object_sampler;
    /// Per-query trace hook; slices run in stream order, so the sink
    /// still sees one deterministic in-order trace stream.
    std::function<void(const QueryTrace&)> trace_sink;
    /// Driver-side registry (driver.* / search.* metrics); independent
    /// of the engine's OpenLoopOptions::metrics.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// Builds the slice options once; run_slice only sets the stream
  /// position and the slice size.
  DriverQueryBackend(const SearchEngine& engine, const ObjectCatalog& catalog,
                     const Options& options);

  double run_slice(std::uint64_t first_query_index, std::size_t count,
                   QueryAggregate& aggregate) override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "driver";
  }

  /// The driver serving the slices (its slot count and resident memory).
  [[nodiscard]] const ParallelQueryDriver& driver() const noexcept {
    return driver_;
  }

 private:
  const SearchEngine* engine_;
  const ObjectCatalog* catalog_;
  BatchQueryOptions batch_;
  ParallelQueryDriver driver_;
};

class OpenLoopEngine {
 public:
  explicit OpenLoopEngine(QueryBackend& backend) : backend_(&backend) {}

  /// Drains `queries` arrivals from the process through the backend.
  [[nodiscard]] OpenLoopReport run(ArrivalProcess& arrivals,
                                   std::uint64_t queries,
                                   const OpenLoopOptions& options = {});

  /// Same, appending per-query outcomes onto an existing aggregate in
  /// stream order (multi-run experiments accumulate one aggregate across
  /// placements, exactly like the driver's accumulating run_batch
  /// overload). The report's `aggregate` is the post-run state of
  /// `aggregate`.
  OpenLoopReport run(ArrivalProcess& arrivals, std::uint64_t queries,
                     const OpenLoopOptions& options,
                     QueryAggregate& aggregate);

 private:
  QueryBackend* backend_;
};

}  // namespace makalu::workload
