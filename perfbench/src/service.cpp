#include "service.hpp"

#include <algorithm>
#include <cmath>

#include "search/query_workspace.hpp"
#include "workload/arrival.hpp"

namespace perfbench {

namespace {

using namespace makalu;

/// Decorates the backend: replays the engine's clock rule (idle-skip to
/// the next arrival, then advance by the slice's service time) and gives
/// each query of the slice its exact sojourn.
class SojournRecorder final : public workload::QueryBackend {
 public:
  SojournRecorder(workload::QueryBackend& inner, std::uint64_t first,
                  const std::vector<double>& arrival_ms, LatencyCell& cell)
      : inner_(&inner),
        first_(first),
        arrival_ms_(&arrival_ms),
        cell_(&cell),
        offset_(cell.sojourn_ms.size()) {
    cell.sojourn_ms.resize(offset_ + arrival_ms.size(), 0.0);
  }

  /// `local` is the engine's slice index (the engine numbers its
  /// queries from 0); the inner backend serves stream index first + local.
  double run_slice(std::uint64_t local, std::size_t count,
                   QueryAggregate& aggregate) override {
    now_ms_ = std::max(now_ms_, (*arrival_ms_)[local]);
    double service_s = 0.0;
    {
      const Span span("analysis.run_slice");
      service_s = inner_->run_slice(first_ + local, count, aggregate);
    }
    now_ms_ += service_s * 1000.0;
    for (std::uint64_t q = local; q < local + count; ++q) {
      cell_->sojourn_ms[offset_ + q] = now_ms_ - (*arrival_ms_)[q];
    }
    cell_->slice_wall_s.push_back(service_s);
    return service_s;
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return "sojourn-recorder";
  }
  [[nodiscard]] double now_ms() const noexcept { return now_ms_; }

 private:
  workload::QueryBackend* inner_;
  std::uint64_t first_;
  const std::vector<double>* arrival_ms_;
  LatencyCell* cell_;
  std::size_t offset_;
  double now_ms_ = 0.0;
};

workload::DriverQueryBackend::Options backend_options(const ServiceSpec& s) {
  workload::DriverQueryBackend::Options options;
  options.seed = s.query_seed;
  options.threads = 1;  // one service thread, inline on the caller
  options.batch = true;
  options.object_sampler = s.object_sampler;
  return options;
}

}  // namespace

QueryService::QueryService(const SearchEngine& engine,
                           const ObjectCatalog& catalog,
                           const ServiceSpec& spec)
    : engine_(&engine),
      catalog_(&catalog),
      spec_(spec),
      traced_(engine),
      backend_(traced_, catalog, backend_options(spec)) {}

void QueryService::run_latency(std::uint64_t first, std::size_t queries,
                               QueryAggregate& aggregate, LatencyCell& cell) {
  const std::uint64_t seed = spec_.arrival_seed + cell.segments;
  const std::size_t offset = cell.sojourn_ms.size();
  std::vector<double> arrival_ms;
  std::unique_ptr<workload::ArrivalProcess> arrivals;
  {
    // Two identical seeded streams: one for the engine, one materialised
    // for the recorder. Arrivals exist before service starts, so the
    // generator is never late.
    const Span span("workload.arrivals");
    arrival_ms =
        workload::poisson_arrivals(spec_.rate_qps, seed)->take(queries);
    arrivals = workload::poisson_arrivals(spec_.rate_qps, seed);
  }
  SojournRecorder recorder(backend_, first, arrival_ms, cell);

  workload::OpenLoopOptions options;
  options.max_admission_batch = spec_.slice_cap;
  workload::OpenLoopEngine engine(recorder);
  workload::OpenLoopReport report;
  {
    const Span span("workload.engine_run");
    report = engine.run(*arrivals, queries, options, aggregate);
  }
  ++cell.segments;
  const std::vector<double> segment(cell.sojourn_ms.begin() +
                                        static_cast<std::ptrdiff_t>(offset),
                                    cell.sojourn_ms.end());
  cell.segment_p50_ms.push_back(percentile(segment, 0.50));
  cell.segment_p90_ms.push_back(percentile(segment, 0.90));
  cell.max_queue_depth = std::max(cell.max_queue_depth,
                                  report.max_queue_depth);
  cell.horizon_ms += report.horizon_ms;
  // The recorder replays the engine's clock exactly; any drift means the
  // recorded sojourns are not the ones the engine served.
  double sum = 0.0;
  for (std::size_t q = offset; q < cell.sojourn_ms.size(); ++q) {
    sum += cell.sojourn_ms[q];
  }
  const double mean = sum / static_cast<double>(queries);
  cell.replay_exact = cell.replay_exact &&
                      recorder.now_ms() == report.makespan_ms &&
                      std::abs(mean - report.mean_sojourn_ms) <=
                          1e-9 * std::max(1.0, mean);
}

void QueryService::run_throughput(std::uint64_t first, std::size_t slices,
                                  QueryAggregate& aggregate,
                                  std::vector<double>& slice_wall_s) {
  for (std::size_t i = 0; i < slices; ++i) {
    const Span span("analysis.run_slice");
    slice_wall_s.push_back(backend_.run_slice(first + i * spec_.slice_cap,
                                              spec_.slice_cap, aggregate));
  }
}

std::vector<BatchQueryJob> QueryService::jobs(std::uint64_t first,
                                              std::size_t count) const {
  // The driver's per-query draw: seed the stream for (seed, index), then
  // source, then object, then hand over the advanced RNG.
  const std::size_t n = engine_->graph().node_count();
  QueryWorkspace workspace;
  std::vector<BatchQueryJob> out(count);
  for (std::size_t q = 0; q < count; ++q) {
    workspace.seed_rng(spec_.query_seed, first + q);
    Rng& rng = workspace.rng();
    out[q].source = static_cast<NodeId>(rng.uniform_below(n));
    out[q].object = spec_.object_sampler
                        ? spec_.object_sampler(rng)
                        : static_cast<ObjectId>(
                              rng.uniform_below(catalog_->object_count()));
    out[q].rng = rng;
  }
  return out;
}

bool QueryService::driver_matches_run_many(std::uint64_t first,
                                           std::size_t count) {
  QueryAggregate via_driver;
  (void)backend_.run_slice(first, count, via_driver);
  const std::vector<BatchQueryJob> batch = jobs(first, count);
  std::vector<QueryResult> results(count);
  QueryWorkspace workspace;
  engine_->run_many(batch, *catalog_, workspace, results.data());
  QueryAggregate direct;
  for (const QueryResult& r : results) direct.add(r);
  return aggregates_identical(via_driver, direct);
}

QueryService::Overhead QueryService::slice_overhead(std::uint64_t first,
                                                    std::size_t k,
                                                    std::size_t reps) {
  std::vector<double> slice_us;
  std::vector<double> many_us;
  QueryWorkspace workspace;
  std::vector<QueryResult> results(k);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const std::uint64_t at = first + rep * k;
    QueryAggregate sink;
    slice_us.push_back(backend_.run_slice(at, k, sink) * 1e6);
    const std::vector<BatchQueryJob> batch = jobs(at, k);
    const Timer timer;
    engine_->run_many(batch, *catalog_, workspace, results.data());
    many_us.push_back(timer.seconds() * 1e6);
  }
  return {median(slice_us), median(many_us)};
}

bool aggregates_identical(const QueryAggregate& a, const QueryAggregate& b) {
  return a.queries() == b.queries() && a.success_rate() == b.success_rate() &&
         a.mean_messages() == b.mean_messages() &&
         a.mean_duplicates() == b.mean_duplicates() &&
         a.mean_nodes_visited() == b.mean_nodes_visited() &&
         a.mean_replicas_found() == b.mean_replicas_found() &&
         a.hit_hops().mean() == b.hit_hops().mean();
}

double slice_rate_qps(const std::vector<double>& slice_wall_s,
                      std::size_t slice_cap) {
  return static_cast<double>(slice_cap) / fast_tail(slice_wall_s);
}

void report_latency(Report& report, const LatencyCell& cell,
                    std::size_t slice_cap) {
  // A backlog grows when the server is busy for as long as arrivals keep
  // coming (utilisation 1 or more). At the cell's fixed low rate it must
  // be busy for well under half of the arrival span, and the queue must
  // stay below the slice cap. Per-segment completed/offered is not used:
  // one host stall at a short segment's end lowers it with no backlog.
  double busy_s = 0.0;
  for (const double s : cell.slice_wall_s) busy_s += s;
  const double utilisation =
      cell.horizon_ms > 0.0 ? busy_s * 1e3 / cell.horizon_ms : 0.0;
  const std::size_t samples = cell.sojourn_ms.size();
  report.metric("latency_p50_ms", fast_tail(cell.segment_p50_ms), "ms");
  report.metric("latency_p90_ms", fast_tail(cell.segment_p90_ms), "ms");
  report.note("open loop: " + std::to_string(samples) +
              " exact sojourn samples over " +
              std::to_string(cell.slice_wall_s.size()) + " slices in " +
              std::to_string(cell.segments) + " segments; per-segment p50 " +
              fmt_list(cell.segment_p50_ms, 3) + " ms, p90 " +
              fmt_list(cell.segment_p90_ms, 3) + " ms; whole run p50 " +
              fmt(percentile(cell.sojourn_ms, 0.50)) + " ms, p90 " +
              fmt(percentile(cell.sojourn_ms, 0.90)) + " ms, p99 " +
              fmt(percentile(cell.sojourn_ms, 0.99)) +
              " ms (for reading only); utilisation " + fmt(utilisation) +
              ", max queue depth " + std::to_string(cell.max_queue_depth) +
              "; generator lateness 0 (arrivals materialised in virtual "
              "time before service)");
  report.check(cell.replay_exact,
               "replayed open-loop clock equals the engine's");
  report.check(utilisation < 0.5 && cell.max_queue_depth < slice_cap,
               "low-rate cell shows no growing backlog (utilisation " +
                   fmt(utilisation) + ", max depth " +
                   std::to_string(cell.max_queue_depth) + ")");
}

}  // namespace perfbench
