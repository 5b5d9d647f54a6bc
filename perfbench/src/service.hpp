// The in-process query service shared by the abf and flood workloads:
// one ParallelQueryDriver thread behind workload::DriverQueryBackend,
// measured from outside through two decorators.
//
//   TracedEngine     wraps a SearchEngine; spans each run_many call
//                    ("search.run_many"), so the driver's own cost is the
//                    analysis span's self time.
//   SojournRecorder  wraps the backend; replays OpenLoopEngine's virtual
//                    clock from the same seeded arrival stream, giving
//                    every query its exact sojourn (completion minus due
//                    time) instead of the engine's x1.5-bucket histogram.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "search/search_engine.hpp"
#include "workload/engine.hpp"

namespace perfbench {

class TracedEngine final : public makalu::SearchEngine {
 public:
  explicit TracedEngine(const makalu::SearchEngine& inner) : inner_(&inner) {}

  using makalu::SearchEngine::run;
  [[nodiscard]] makalu::QueryResult run(
      makalu::NodeId source, makalu::NodePredicate has_object,
      makalu::QueryWorkspace& workspace) const override {
    return inner_->run(source, has_object, workspace);
  }
  [[nodiscard]] const makalu::CsrGraph& graph() const noexcept override {
    return inner_->graph();
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] bool supports_query_batching() const noexcept override {
    return inner_->supports_query_batching();
  }
  void run_many(std::span<const makalu::BatchQueryJob> jobs,
                const makalu::ObjectCatalog& catalog,
                makalu::QueryWorkspace& workspace,
                makalu::QueryResult* results) const override {
    const Span span("search.run_many");
    inner_->run_many(jobs, catalog, workspace, results);
  }

 private:
  const makalu::SearchEngine* inner_;
};

/// The query-service settings one workload fixes.
struct ServiceSpec {
  std::uint64_t query_seed = 1;       ///< DriverQueryBackend seed
  std::uint64_t arrival_seed = 1;     ///< Poisson stream seed
  double rate_qps = 500.0;            ///< fixed low open-loop rate
  std::size_t slice_cap = 1024;       ///< admission cap (= full slice)
  std::function<makalu::ObjectId(makalu::Rng&)> object_sampler;
};

/// The open-loop latency cell, accumulated over its segments.
struct LatencyCell {
  std::vector<double> sojourn_ms;  ///< per query, in run order
  /// Exact p50 and p90 of each segment's sojourns, one entry per segment.
  std::vector<double> segment_p50_ms;
  std::vector<double> segment_p90_ms;
  std::vector<double> slice_wall_s;
  std::size_t segments = 0;
  std::size_t max_queue_depth = 0;
  /// Sum over segments of the last arrival time.
  double horizon_ms = 0.0;
  /// The replayed clock matched the engine's in every segment.
  bool replay_exact = true;
};

class QueryService {
 public:
  QueryService(const makalu::SearchEngine& engine,
               const makalu::ObjectCatalog& catalog, const ServiceSpec& spec);

  /// One open-loop segment: `queries` Poisson arrivals at spec.rate_qps
  /// (stream seeded spec.arrival_seed + segment) through OpenLoopEngine,
  /// stream indices [first, first + queries). Appends to `cell`.
  void run_latency(std::uint64_t first, std::size_t queries,
                   makalu::QueryAggregate& aggregate, LatencyCell& cell);

  /// `slices` full slices back to back (closed loop at the slice cap)
  /// from stream index `first`. Appends each slice's busy wall seconds.
  void run_throughput(std::uint64_t first, std::size_t slices,
                      makalu::QueryAggregate& aggregate,
                      std::vector<double>& slice_wall_s);

  /// The jobs the driver would build for stream indices
  /// [first, first + count), with their advanced RNG states.
  [[nodiscard]] std::vector<makalu::BatchQueryJob> jobs(
      std::uint64_t first, std::size_t count) const;

  /// Checks that `count` queries from `first` give the same aggregate
  /// through the driver and straight through run_many.
  bool driver_matches_run_many(std::uint64_t first, std::size_t count);

  /// run_slice(k) minus run_many on the same k jobs with a reused
  /// workspace, medians over `reps` repetitions (microseconds). Also
  /// returns the run_many median per query.
  struct Overhead {
    double slice_us = 0.0;
    double run_many_us = 0.0;
    [[nodiscard]] double overhead_us() const {
      return slice_us - run_many_us;
    }
  };
  Overhead slice_overhead(std::uint64_t first, std::size_t k,
                          std::size_t reps);

 private:
  const makalu::SearchEngine* engine_;
  const makalu::ObjectCatalog* catalog_;
  ServiceSpec spec_;
  TracedEngine traced_;
  makalu::workload::DriverQueryBackend backend_;
};

/// True when two aggregates of the same stream agree exactly.
bool aggregates_identical(const makalu::QueryAggregate& a,
                          const makalu::QueryAggregate& b);

/// slice_cap over the fast tail of the full slices' busy wall seconds
/// (queries per busy second).
[[nodiscard]] double slice_rate_qps(const std::vector<double>& slice_wall_s,
                                    std::size_t slice_cap);

/// Adds the latency metrics (the fast tail over segments of each
/// segment's exact p50 and p90) and the no-backlog check for one cell.
void report_latency(Report& report, const LatencyCell& cell,
                    std::size_t slice_cap);

}  // namespace perfbench
