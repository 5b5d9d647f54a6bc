#include "workload/engine.hpp"

#include <algorithm>
#include <vector>

#include "support/contracts.hpp"
#include "support/stopwatch.hpp"

namespace makalu::workload {

namespace {

/// Sojourn buckets: 1 us to ~45 minutes at factor-1.5 resolution, so an
/// interpolated percentile is at worst ~±20% of the true value.
obs::HistogramSpec sojourn_spec() {
  return obs::HistogramSpec::exponential(0.001, 1.5, 48);
}

/// Queue-depth buckets: powers of two up to ~134M waiting queries.
obs::HistogramSpec depth_spec() {
  return obs::HistogramSpec::exponential(1.0, 2.0, 28);
}

}  // namespace

DriverQueryBackend::DriverQueryBackend(const SearchEngine& engine,
                                       const ObjectCatalog& catalog,
                                       const Options& options)
    : engine_(&engine), catalog_(&catalog), driver_(options.threads) {
  batch_.seed = options.seed;
  batch_.object_sampler = options.object_sampler;
  batch_.trace_sink = options.trace_sink;
  batch_.batch = options.batch;
  batch_.metrics = options.metrics;
}

double DriverQueryBackend::run_slice(std::uint64_t first_query_index,
                                     std::size_t count,
                                     QueryAggregate& aggregate) {
  batch_.first_query_index = first_query_index;
  batch_.queries = count;
  Stopwatch watch;
  driver_.run_batch(*engine_, *catalog_, batch_, aggregate);
  return watch.seconds();
}

OpenLoopReport OpenLoopEngine::run(ArrivalProcess& arrivals,
                                   std::uint64_t queries,
                                   const OpenLoopOptions& options) {
  QueryAggregate aggregate;
  return run(arrivals, queries, options, aggregate);
}

OpenLoopReport OpenLoopEngine::run(ArrivalProcess& arrivals,
                                   std::uint64_t queries,
                                   const OpenLoopOptions& options,
                                   QueryAggregate& aggregate) {
  MAKALU_EXPECTS(options.max_admission_batch > 0);
  OpenLoopReport report;
  report.offered = queries;
  if (queries == 0) {
    report.aggregate = aggregate;
    return report;
  }

  // Percentiles always come from an obs histogram; a private registry
  // stands in when the caller did not attach one.
  obs::MetricsRegistry local(1);
  obs::MetricsRegistry& reg =
      options.metrics != nullptr ? *options.metrics : local;
  const obs::MetricId sojourn_id =
      reg.histogram("workload.sojourn_ms", sojourn_spec());
  const obs::MetricId depth_id =
      reg.histogram("workload.queue_depth", depth_spec());
  obs::MetricsShard& shard = reg.shard(0);

  // The whole stream's timestamps up front: open loop means arrivals are
  // independent of service, so materialising them first is not a
  // simplification — it IS the model.
  const std::vector<double> arrival_ms = arrivals.take(queries);
  report.horizon_ms = arrival_ms.back();

  double now_ms = 0.0;       // virtual clock
  std::uint64_t next = 0;    // first stream index not yet served
  std::uint64_t sum_count = 0;
  double sum_sojourn = 0.0;

  while (next < queries) {
    // Idle-skip: nothing admitted and nothing waiting -> jump to the
    // next arrival instead of spinning virtual time.
    if (arrival_ms[next] > now_ms) now_ms = arrival_ms[next];

    // Admit everything that has arrived by `now`.
    const auto first_unarrived = static_cast<std::uint64_t>(
        std::upper_bound(arrival_ms.begin() + static_cast<std::ptrdiff_t>(next),
                         arrival_ms.end(), now_ms) -
        arrival_ms.begin());
    std::uint64_t admitted = first_unarrived - next;
    MAKALU_EXPECTS(admitted > 0);
    report.max_queue_depth =
        std::max(report.max_queue_depth, static_cast<std::size_t>(admitted));
    shard.observe(depth_id, static_cast<double>(admitted));

    // One service slice: FIFO head of the queue, capped by the admission
    // batch bound and cut at the next churn boundary so churn lands at
    // fixed stream indices (the determinism ladder).
    std::uint64_t slice = std::min<std::uint64_t>(
        admitted, options.max_admission_batch);
    if (options.churn_every_queries > 0) {
      const std::uint64_t boundary =
          options.churn_every_queries -
          (next % options.churn_every_queries);
      slice = std::min(slice, boundary);
    }

    const double service_s = backend_->run_slice(
        next, static_cast<std::size_t>(slice), aggregate);
    now_ms += service_s * 1000.0;
    ++report.slices;

    // Everything in the slice completes at the post-slice clock.
    for (std::uint64_t q = next; q < next + slice; ++q) {
      const double sojourn = now_ms - arrival_ms[q];
      shard.observe(sojourn_id, sojourn);
      sum_sojourn += sojourn;
      ++sum_count;
      report.max_sojourn_ms = std::max(report.max_sojourn_ms, sojourn);
    }
    next += slice;

    if (options.churn_every_queries > 0 &&
        next % options.churn_every_queries == 0 && next < queries &&
        options.churn_hook) {
      options.churn_hook(next);
    }
  }

  report.makespan_ms = now_ms;
  report.offered_qps = report.horizon_ms > 0.0
                           ? static_cast<double>(queries) /
                                 (report.horizon_ms / 1000.0)
                           : 0.0;
  report.completed_qps = report.makespan_ms > 0.0
                             ? static_cast<double>(queries) /
                                   (report.makespan_ms / 1000.0)
                             : 0.0;
  report.mean_sojourn_ms =
      sum_count > 0 ? sum_sojourn / static_cast<double>(sum_count) : 0.0;
  report.aggregate = aggregate;

  const obs::MetricsSnapshot snap = reg.snapshot();
  if (const obs::MetricValue* h = snap.find("workload.sojourn_ms")) {
    const obs::HistogramView view = h->histogram_view();
    report.p50_ms = view.quantile(0.50);
    report.p99_ms = view.quantile(0.99);
    report.p999_ms = view.quantile(0.999);
  }
  return report;
}

}  // namespace makalu::workload
