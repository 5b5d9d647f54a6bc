#include "analysis/parallel_query_driver.hpp"

#include <memory>
#include <span>
#include <vector>

#include "obs/search_metrics.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace makalu {

namespace {

/// Driver-level metric ids, resolved once per batch (registration is
/// idempotent, so repeated batches against one registry share ids).
struct DriverMetricIds {
  obs::MetricId batches = 0;
  obs::MetricId queries = 0;
  obs::MetricId successes = 0;
  obs::MetricId messages = 0;
  obs::MetricId duplicates = 0;
  obs::MetricId nodes_visited = 0;
  obs::MetricId replicas_found = 0;
  obs::MetricId forwarders = 0;
  obs::MetricId truncated = 0;
  obs::MetricId query_wall_us = 0;
  obs::MetricId first_hit_hop = 0;

  static DriverMetricIds register_in(obs::MetricsRegistry& registry) {
    DriverMetricIds ids;
    ids.batches = registry.counter("driver.batches");
    ids.queries = registry.counter("driver.queries");
    ids.successes = registry.counter("driver.successes");
    ids.messages = registry.counter("driver.messages");
    ids.duplicates = registry.counter("driver.duplicates");
    ids.nodes_visited = registry.counter("driver.nodes_visited");
    ids.replicas_found = registry.counter("driver.replicas_found");
    ids.forwarders = registry.counter("driver.forwarders");
    ids.truncated = registry.counter("driver.truncated");
    ids.query_wall_us = registry.histogram(
        "driver.query_wall_us", obs::HistogramSpec::exponential(1.0, 4.0, 12));
    ids.first_hit_hop = registry.histogram(
        "driver.first_hit_hop", obs::HistogramSpec::linear(0.0, 1.0, 16));
    return ids;
  }
};

}  // namespace

ParallelQueryDriver::ParallelQueryDriver(std::size_t threads)
    : threads_(threads) {
  if (threads_ > 1) owned_pool_ = std::make_unique<ThreadPool>(threads_);
  const ThreadPool* workers = pool();
  const std::size_t slots =
      workers != nullptr ? workers->max_slots(/*chunks_per_thread=*/1) : 1;
  workspaces_.resize(slots);
}

ThreadPool* ParallelQueryDriver::pool() const noexcept {
  if (threads_ == 1) return nullptr;
  return threads_ == 0 ? &ThreadPool::shared() : owned_pool_.get();
}

std::size_t ParallelQueryDriver::memory_bytes() const noexcept {
  std::size_t bytes = traces_.capacity() * sizeof(QueryTrace) +
                      jobs_.capacity() * sizeof(BatchQueryJob) +
                      results_.capacity() * sizeof(QueryResult);
  for (const QueryWorkspace& workspace : workspaces_) {
    bytes += workspace.memory_bytes();
  }
  return bytes;
}

QueryAggregate ParallelQueryDriver::run_batch(
    const SearchEngine& engine, const ObjectCatalog& catalog,
    const BatchQueryOptions& options) {
  QueryAggregate aggregate;
  run_batch(engine, catalog, options, aggregate);
  return aggregate;
}

void ParallelQueryDriver::run_batch(const SearchEngine& engine,
                                    const ObjectCatalog& catalog,
                                    const BatchQueryOptions& options,
                                    QueryAggregate& aggregate) {
  const std::size_t n = engine.graph().node_count();
  MAKALU_EXPECTS(n > 0);
  MAKALU_EXPECTS(catalog.object_count() > 0);
  if (options.queries == 0) return;

  // Serial phase: resolve metric ids, pre-size one shard per worker slot
  // and point every slot's workspace at this call's registry before any
  // parallel work (registration and shard growth are not thread-safe by
  // contract). Without a registry the workspaces are detached, so a
  // registry from an earlier call is never written through again.
  obs::MetricsRegistry* metrics = options.metrics;
  obs::SearchMetricIds search_ids;
  DriverMetricIds driver_ids;
  if (metrics != nullptr) {
    search_ids = obs::SearchMetricIds::register_in(*metrics);
    driver_ids = DriverMetricIds::register_in(*metrics);
    metrics->ensure_slots(slots());
  }
  for (std::size_t slot = 0; slot < slots(); ++slot) {
    if (metrics != nullptr) {
      workspaces_[slot].attach_metrics({&metrics->shard(slot), search_ids});
    } else {
      workspaces_[slot].detach_metrics();
    }
  }

  // Every field of each trace is written below, so stale entries from a
  // previous call never leak through.
  traces_.resize(options.queries);
  const bool batched = options.batch && engine.supports_query_batching();
  if (batched) {
    jobs_.resize(options.queries);
    results_.resize(options.queries);
  }

  // Each chunk is a contiguous query range served by one worker slot with
  // that slot's workspace; per-query seeding makes the partitioning
  // irrelevant to the results. `slot` also indexes the worker's metrics
  // shard — engine-side observations land there without locks and fold
  // deterministically at snapshot time.
  const bool timed = metrics != nullptr;
  const auto run_range = [&](std::size_t slot, std::size_t lo,
                             std::size_t hi) {
    QueryWorkspace& workspace = workspaces_[slot];
    const auto draw = [&](std::size_t q) -> QueryTrace& {
      workspace.seed_rng(options.seed, options.first_query_index + q);
      QueryTrace& trace = traces_[q];
      trace.query_index = options.first_query_index + q;
      trace.source = static_cast<NodeId>(workspace.rng().uniform_below(n));
      trace.object =
          options.object_sampler
              ? options.object_sampler(workspace.rng())
              : static_cast<ObjectId>(
                    workspace.rng().uniform_below(catalog.object_count()));
      return trace;
    };
    if (batched) {
      // Batched path: draw each query's (source, object) from its own
      // seeded stream exactly as the scalar loop below would, hand the
      // advanced RNG state to the engine inside the job, and let
      // run_many co-schedule the range. Per-query results do not depend
      // on how the ranges chunk into batches, so thread-count invariance
      // is preserved (pinned by the batched determinism tests).
      for (std::size_t q = lo; q < hi; ++q) {
        const QueryTrace& trace = draw(q);
        jobs_[q] = {trace.source, trace.object, workspace.rng()};
      }
      const Stopwatch watch;
      engine.run_many(std::span(jobs_).subspan(lo, hi - lo), catalog,
                      workspace, results_.data() + lo);
      // Wall time is measured per run_many call; attribute the mean to
      // each query (per-query timing would serialize the batch).
      const double per_query_us =
          timed ? watch.seconds() * 1e6 / static_cast<double>(hi - lo)
                : 0.0;
      for (std::size_t q = lo; q < hi; ++q) {
        traces_[q].result = results_[q];
        traces_[q].wall_us = per_query_us;
      }
      return;
    }
    for (std::size_t q = lo; q < hi; ++q) {
      QueryTrace& trace = draw(q);
      if (timed) {
        const Stopwatch watch;
        trace.result = engine.run(trace.source, trace.object, catalog,
                                  workspace);
        trace.wall_us = watch.seconds() * 1e6;
      } else {
        trace.result = engine.run(trace.source, trace.object, catalog,
                                  workspace);
        trace.wall_us = 0.0;
      }
    }
  };

  if (ThreadPool* workers = pool(); workers != nullptr) {
    workers->parallel_for_slotted(0, options.queries, run_range,
                                  /*chunks_per_thread=*/1);
  } else {
    run_range(0, 0, options.queries);
  }

  // Serial, in-order aggregation: floating-point accumulation order (and
  // therefore the aggregate, bit for bit) does not depend on the thread
  // count. Driver metrics are fed here, from the same deterministic
  // stream the trace sink sees.
  obs::MetricsShard* sink_shard =
      metrics != nullptr ? &metrics->shard(0) : nullptr;
  for (const QueryTrace& trace : traces_) {
    aggregate.add(trace.result);
    if (sink_shard != nullptr) {
      const QueryResult& r = trace.result;
      sink_shard->add(driver_ids.queries);
      if (r.success) {
        sink_shard->add(driver_ids.successes);
        sink_shard->observe(driver_ids.first_hit_hop,
                            static_cast<double>(r.first_hit_hop));
      }
      sink_shard->add(driver_ids.messages, r.messages);
      sink_shard->add(driver_ids.duplicates, r.duplicates);
      sink_shard->add(driver_ids.nodes_visited, r.nodes_visited);
      sink_shard->add(driver_ids.replicas_found, r.replicas_found);
      sink_shard->add(driver_ids.forwarders, r.forwarders);
      if (r.truncated) sink_shard->add(driver_ids.truncated);
      sink_shard->observe(driver_ids.query_wall_us, trace.wall_us);
    }
    if (options.trace_sink) options.trace_sink(trace);
  }
  if (sink_shard != nullptr) sink_shard->add(driver_ids.batches);
}

}  // namespace makalu
