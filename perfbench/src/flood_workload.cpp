// flood-makalu-churn: the paper's overlay and search under node churn.
//
// Set-up: a Makalu overlay from OverlayBuilder::build_sharded (no pool)
// over an EuclideanModel, its CSR snapshot, a uniform object catalog and
// a TTL-4 FloodEngine. Phases: churn epochs — isolate a fixed fraction
// of nodes, repair with deterministic_sweep over a persistent
// CachedRatingEngine, run the return sweep, take a CSR snapshot — with
// full-slice batched floods and a low-rate open-loop segment before,
// between and after the epochs. bloom is never touched.
#include <algorithm>
#include <memory>

#include "common.hpp"
#include "core/overlay_builder.hpp"
#include "core/rating_cache.hpp"
#include "net/latency_model.hpp"
#include "search/flood_search.hpp"
#include "service.hpp"

namespace perfbench {

namespace {

using namespace makalu;

/// Between epochs (and after the last) the overlay serves full slices
/// and one open-loop latency segment, so every metric samples the whole
/// run. Query counts are per serving round.
struct FloodSizes {
  std::size_t nodes;
  double churn_fraction;
  std::size_t epochs;
  std::size_t slices_per_round;
  double rate_qps;
  std::size_t latency_queries;
};

FloodSizes flood_sizes(const Options& o) {
  if (o.tiny) return {2'000, 0.02, 2, 1, 100.0, 100};
  const auto epochs =
      static_cast<std::size_t>(std::max(1.0, 1.5 * o.seconds));
  return {50'000, 0.02, epochs, 4, 100.0, 400};
}

MakaluParameters makalu_parameters() {
  MakaluParameters p;
  p.storage = GraphStorage::kCompact;
  return p;
}

struct FloodCell {
  std::unique_ptr<EuclideanModel> latency;
  MakaluOverlay overlay;
  CsrGraph csr;
  ObjectCatalog catalog;
  double build_s = 0.0;
  double csr_s = 0.0;
};

std::unique_ptr<FloodCell> build_cell(const FloodSizes& z, std::uint64_t seed) {
  auto cell = std::make_unique<FloodCell>();
  {
    const Span span("net.latency_model");
    cell->latency = std::make_unique<EuclideanModel>(z.nodes,
                                                     seed ^ 0x5ca1ab1eULL);
  }
  {
    const Span span("core.build_sharded");
    const Timer t;
    cell->overlay = OverlayBuilder(makalu_parameters())
                        .build_sharded(*cell->latency, seed, nullptr);
    cell->build_s = t.seconds();
  }
  {
    const Span span("graph.csr_build");
    const Timer t;
    cell->csr = CsrGraph::from_graph(cell->overlay.graph);
    cell->csr_s = t.seconds();
  }
  {
    const Span span("search.catalog_build");
    // 0.05% replication: 25 replicas per object at 50k nodes.
    cell->catalog = ObjectCatalog(z.nodes, 64, 0.0005, seed ^ 0xca7a106eULL);
  }
  return cell;
}

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

void run_flood(Context& ctx) {
  const Options& o = ctx.options;
  Report& r = ctx.report;
  const FloodSizes z = flood_sizes(o);

  std::vector<double> setup_s;
  std::unique_ptr<FloodCell> cell;
  for (std::size_t i = 0; i < ctx.setups; ++i) {
    cell.reset();
    const Timer t;
    cell = build_cell(z, o.seed);
    setup_s.push_back(t.seconds());
  }

  FloodOptions fo;
  fo.ttl = 4;
  ServiceSpec spec;
  spec.query_seed = o.seed ^ 0x9e37ULL;
  spec.arrival_seed = o.seed ^ 0xa77ULL;
  spec.rate_qps = z.rate_qps;
  const std::size_t slice_queries = z.slices_per_round * spec.slice_cap;

  // --- churn epochs with full-slice floods between them ---------------------
  const OverlayBuilder builder(makalu_parameters());
  Graph& g = cell->overlay.graph;
  const std::size_t n = g.node_count();
  CachedRatingEngine cache(g, *cell->latency, builder.parameters().weights);
  Rng churn_rng(o.seed ^ 0xdeadfa11ULL);
  QueryAggregate aggregate;
  LatencyCell latency;
  std::vector<double> tput_wall_s;
  std::vector<double> ms_per_event;  // one sample per epoch
  double isolate_s = 0.0;
  double sweep_s = 0.0;
  double snapshot_s = 0.0;
  std::size_t events = 0;
  std::size_t edges_changed = 0;
  std::uint64_t next_index = 0;
  auto engine = std::make_unique<FloodEngine>(cell->csr, fo);
  for (std::size_t epoch = 0; epoch <= z.epochs; ++epoch) {
    {
      QueryService service(*engine, cell->catalog, spec);
      service.run_throughput(next_index, z.slices_per_round, aggregate,
                             tput_wall_s);
      next_index += slice_queries;
      service.run_latency(next_index, z.latency_queries, aggregate, latency);
      next_index += z.latency_queries;
    }
    if (epoch == z.epochs) break;

    // One epoch: the departures, both sweeps and the snapshot.
    std::vector<bool> online(n, true);
    const auto departures =
        static_cast<std::size_t>(z.churn_fraction * static_cast<double>(n));
    for (std::size_t left = 0; left < departures;) {
      const auto u = static_cast<NodeId>(churn_rng.uniform_below(n));
      if (!online[u]) continue;
      online[u] = false;
      ++left;
    }
    const Timer epoch_timer;
    {
      const Span span("graph.isolate");
      const Timer t;
      for (NodeId u = 0; u < n; ++u) {
        if (!online[u]) g.isolate(u);
      }
      isolate_s += t.seconds();
    }
    for (const bool returning : {false, true}) {
      const Span span("core.sweep");
      const Timer t;
      SweepOptions sweep;
      sweep.seed = o.seed ^ (returning ? 0xbacca1aULL : 0x0ff1ceULL) ^
                   (epoch * 0x9e3779b97f4a7c15ULL);
      sweep.active = returning ? nullptr : &online;
      edges_changed += builder.deterministic_sweep(cell->overlay, cache, sweep);
      sweep_s += t.seconds();
    }
    {
      const Span span("graph.csr_snapshot");
      const Timer t;
      cell->csr = CsrGraph::from_graph(g);
      engine = std::make_unique<FloodEngine>(cell->csr, fo);
      snapshot_s += t.seconds();
    }
    // Each departing node is two events: its departure and its return.
    ms_per_event.push_back(epoch_timer.seconds() * 1e3 /
                           static_cast<double>(2 * departures));
    events += 2 * departures;
  }

  const double rss = peak_rss_mb();
  ctx.end_body();

  const std::size_t tput_queries = (z.epochs + 1) * slice_queries;
  const std::size_t latency_queries = (z.epochs + 1) * z.latency_queries;
  r.attempted = aggregate.queries();
  r.metric("setup_s", median(setup_s), "s");
  r.metric("peak_rss_mb", rss, "MB");
  r.metric("query_success", aggregate.success_rate(), "ratio");
  r.metric("msgs_per_query", aggregate.mean_messages(), "msgs");
  report_latency(r, latency, spec.slice_cap);
  r.metric("throughput_qps", slice_rate_qps(tput_wall_s, spec.slice_cap),
           "1/s");
  r.metric("churn_ms_per_event", fast_tail(ms_per_event), "ms");
  r.exact("query_success", aggregate.success_rate());
  r.exact("msgs_per_query", aggregate.mean_messages());
  r.exact("edges_changed", static_cast<double>(edges_changed));
  r.exact("edge_count", static_cast<double>(g.edge_count()));
  r.note("flood: n=" + std::to_string(n) + ", " +
         std::to_string(z.epochs) + " churn epochs of " +
         std::to_string(events / std::max<std::size_t>(1, 2 * z.epochs)) +
         " departures + returns, " + std::to_string(edges_changed) +
         " edges changed; " + std::to_string(aggregate.queries()) +
         " TTL-4 floods (" + std::to_string(tput_queries) +
         " in full slices, " + std::to_string(latency_queries) +
         " open loop at " + fmt(z.rate_qps, 0) + " q/s); set-ups " +
         fmt_list(setup_s, 3) + " s");

  QueryService service(*engine, cell->catalog, spec);
  r.check(service.driver_matches_run_many(next_index, spec.slice_cap),
          "driver aggregate equals the same jobs sent through run_many");
  r.check(edges_changed > 0, "churn sweeps changed edges");

  if (!ctx.probes) return;
  const std::uint64_t probe_first = next_index + spec.slice_cap;
  const auto one = service.slice_overhead(probe_first, 1, o.tiny ? 20 : 200);
  const auto full = service.slice_overhead(probe_first + 1'000'000,
                                           spec.slice_cap, o.tiny ? 2 : 4);
  r.metric("analysis.slice_overhead_us", one.overhead_us(), "us");
  r.metric("analysis.slice_overhead_full_us", full.overhead_us(), "us");
  r.metric("analysis.slice_us_p50", median(latency.slice_wall_s) * 1e6, "us");
  r.metric("analysis.queries_per_slice",
           static_cast<double>(latency_queries) /
               static_cast<double>(latency.slice_wall_s.size()),
           "count");
  r.metric("search.flood_us_per_query",
           full.run_many_us / static_cast<double>(spec.slice_cap), "us");
  r.metric("search.hops_per_query", aggregate.hit_hops().mean(), "hops");
  r.metric("search.nodes_visited_per_query", aggregate.mean_nodes_visited(),
           "count");
  const auto engine_run = tracer().total("workload.engine_run");
  double slices_s = 0.0;
  for (const double s : latency.slice_wall_s) slices_s += s;
  r.metric("workload.engine_self_ms", (engine_run.first - slices_s) * 1e3,
           "ms");
  r.metric("workload.max_queue_depth",
           static_cast<double>(latency.max_queue_depth), "count");
  r.metric("graph.csr_build_s", cell->csr_s, "s");
  r.metric("graph.isolate_ms",
           isolate_s * 1e3 / static_cast<double>(z.epochs), "ms");
  r.metric("graph.csr_snapshot_ms",
           snapshot_s * 1e3 / static_cast<double>(z.epochs), "ms");
  r.metric("graph.overlay_mb", static_cast<double>(g.memory_footprint()) / kMiB,
           "MB");
  r.metric("core.build_sharded_s", cell->build_s, "s");
  r.metric("core.sweep_ms", sweep_s * 1e3 / static_cast<double>(2 * z.epochs),
           "ms");
  r.metric("core.edges_changed", static_cast<double>(edges_changed), "count");
  r.metric("core.rating_cache_mb",
           static_cast<double>(cache.memory_footprint()) / kMiB, "MB");
  r.note("slice overhead: k=1 run_slice " + fmt(one.slice_us, 1) +
         " us vs run_many " + fmt(one.run_many_us, 1) + " us; k=" +
         std::to_string(spec.slice_cap) + " run_slice " +
         fmt(full.slice_us, 0) + " us vs run_many " +
         fmt(full.run_many_us, 0) + " us");
}

}  // namespace perfbench
