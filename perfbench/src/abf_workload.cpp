// abf-zipf-openloop: exact-identifier ABF lookups over a hard-cutoff
// scale-free overlay (Guclu & Yuksel) with a Zipf(0.8) catalog.
//
// Set-up: 100k-node kCompact power-law overlay, CSR snapshot, 512-object
// Zipf catalog with 4 replicas per object, kBlockedDelta tables with
// 1024-bit levels and counting maintenance. Then rounds, each of Poisson
// arrivals at a fixed low rate (latency), full 1024-query slices
// (throughput) and catalog churn through ZipfCatalog::churn_step (the
// write path beside the reads).
#include <algorithm>
#include <memory>

#include "common.hpp"
#include "graph/graph.hpp"
#include "search/abf_search.hpp"
#include "service.hpp"
#include "topology/generators.hpp"
#include "workload/catalog.hpp"

namespace perfbench {

namespace {

using namespace makalu;

/// The phases run in `rounds` interleaved rounds (latency segment, full
/// slices, churn steps), so each metric samples the whole run and a slow
/// stretch of the host lands on all of them alike. Counts are per round.
struct AbfSizes {
  std::size_t nodes;
  std::size_t objects;
  double rate_qps;
  std::size_t rounds;
  std::size_t latency_queries;
  std::size_t throughput_slices;
  std::size_t churn_steps;
};

AbfSizes abf_sizes(const Options& o) {
  if (o.tiny) return {3'000, 64, 200.0, 2, 150, 1, 4};
  // One round takes about two seconds of wall time on the reference host
  // (most of it the churn steps' counting waves).
  const auto rounds = static_cast<std::size_t>(std::max(1.0, o.seconds / 2));
  return {100'000, 512, 200.0, rounds, 800, 4, 7};
}

AbfOptions router_options() {
  AbfOptions a;
  a.layout = TableLayout::kBlockedDelta;
  a.blocked_level_bits = 1024;
  a.counting_maintenance = true;
  return a;
}

/// The content instance (overlay, catalog placement and the catalog's
/// churn event stream) is part of the workload's definition, not of its
/// seed. One churn step costs 1 to 1,200 ms per replica change, set by
/// which holders the event touches (hub neighbourhoods drive the counting
/// waves), so 70 steps of a seeded event stream gave churn_ms_per_event a
/// 0.45 interquartile spread over ten seeds, topology fixed or not.
/// --seed drives the query and arrival streams.
constexpr std::uint64_t kTopologySeed = 42 ^ 0x90a7ULL;
constexpr std::uint64_t kCatalogSeed = 42 ^ 0x21fULL;

/// Everything the first query needs. Members are built in order and the
/// router keeps references to csr and the catalog, so the cell lives on
/// the heap and never moves.
struct AbfCell {
  CsrGraph csr;
  std::unique_ptr<workload::ZipfCatalog> zipf;
  std::unique_ptr<AbfRouter> router;
  double generate_s = 0.0;
  double csr_s = 0.0;
  double router_s = 0.0;
};

std::unique_ptr<AbfCell> build_cell(const AbfSizes& z) {
  auto cell = std::make_unique<AbfCell>();
  {
    Graph g;
    {
      const Span span("topology.generate");
      const Timer t;
      PowerLawParameters plp;
      plp.min_degree = 2;
      plp.hard_cutoff_factor = 1.0;  // degree cap sqrt(n)
      plp.storage = GraphStorage::kCompact;
      g = PowerLawGenerator(plp).generate(z.nodes, kTopologySeed);
      cell->generate_s = t.seconds();
    }
    const Span span("graph.csr_build");
    const Timer t;
    cell->csr = CsrGraph::from_graph(g);
    cell->csr_s = t.seconds();
  }
  {
    const Span span("workload.catalog_build");
    workload::ZipfCatalogOptions zo;
    zo.objects = z.objects;
    zo.zipf_exponent = 0.8;
    zo.replicas_per_object = 4;
    zo.seed = kCatalogSeed;
    cell->zipf = std::make_unique<workload::ZipfCatalog>(z.nodes, zo);
  }
  {
    const Span span("search.abf_router_build");
    const Timer t;
    cell->router = std::make_unique<AbfRouter>(
        cell->csr, cell->zipf->catalog(), router_options());
    cell->router_s = t.seconds();
  }
  return cell;
}

/// The maintained base must cover a fresh build over the post-churn
/// catalog: counting saturation may widen filters, never drop a bit.
bool maintained_covers_fresh(const AbfCell& cell) {
  const AbfRouter fresh(cell.csr, cell.zipf->catalog(), router_options());
  const BlockedAbfTable& live = *cell.router->blocked_table();
  const BlockedAbfTable& want = *fresh.blocked_table();
  for (std::uint32_t v = 0; v < cell.csr.node_count(); ++v) {
    for (std::size_t l = 0; l < live.depth(); ++l) {
      const std::uint64_t* lw = live.level_words(v, l);
      const std::uint64_t* ww = want.level_words(v, l);
      for (std::size_t w = 0; w < live.words_per_level(); ++w) {
        if ((lw[w] | ww[w]) != lw[w]) return false;
      }
    }
  }
  return true;
}

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

void run_abf(Context& ctx) {
  const Options& o = ctx.options;
  Report& r = ctx.report;
  const AbfSizes z = abf_sizes(o);

  // --- set-up, repeated; the last build serves -----------------------------
  std::vector<double> setup_s;
  std::unique_ptr<AbfCell> cell;
  for (std::size_t i = 0; i < ctx.setups; ++i) {
    cell.reset();
    const Timer t;
    cell = build_cell(z);
    setup_s.push_back(t.seconds());
  }

  ServiceSpec spec;
  spec.query_seed = o.seed ^ 0x5a7ULL;
  spec.arrival_seed = o.seed ^ 0xa77ULL;
  spec.rate_qps = z.rate_qps;
  const workload::ZipfCatalog* zipf = cell->zipf.get();
  spec.object_sampler = [zipf](Rng& rng) { return zipf->sample(rng); };
  QueryService service(*cell->router, zipf->catalog(), spec);

  // --- interleaved rounds ---------------------------------------------------
  QueryAggregate aggregate;
  LatencyCell latency;
  std::vector<double> tput_wall_s;
  double churn_s = 0.0;
  std::size_t changes = 0;
  std::vector<double> ms_per_change;  // one sample per churn step
  std::uint64_t next_index = 0;       // query stream position
  const std::size_t slice_queries = z.throughput_slices * spec.slice_cap;
  for (std::size_t round = 0; round < z.rounds; ++round) {
    service.run_latency(next_index, z.latency_queries, aggregate, latency);
    next_index += z.latency_queries;
    service.run_throughput(next_index, z.throughput_slices, aggregate,
                           tput_wall_s);
    next_index += slice_queries;
    for (std::size_t step = 0; step < z.churn_steps; ++step) {
      const Span span("workload.churn_step");
      const Timer t;
      const std::size_t step_changes =
          cell->zipf->churn_step(cell->router.get());
      const double step_s = t.seconds();
      churn_s += step_s;
      changes += step_changes;
      if (step_changes > 0) {
        ms_per_change.push_back(step_s * 1e3 /
                                static_cast<double>(step_changes));
      }
    }
  }
  const std::size_t tput_queries = z.rounds * slice_queries;
  const std::size_t latency_queries = z.rounds * z.latency_queries;
  const std::size_t churn_steps = z.rounds * z.churn_steps;
  const double rss = peak_rss_mb();
  ctx.end_body();

  // --- metrics -------------------------------------------------------------
  r.attempted = aggregate.queries();
  r.failed = 0;  // an unsuccessful lookup is an answer, not a failure
  r.metric("setup_s", median(setup_s), "s");
  r.metric("peak_rss_mb", rss, "MB");
  r.metric("query_success", aggregate.success_rate(), "ratio");
  r.metric("msgs_per_query", aggregate.mean_messages(), "msgs");
  report_latency(r, latency, spec.slice_cap);
  r.metric("throughput_qps", slice_rate_qps(tput_wall_s, spec.slice_cap),
           "1/s");
  r.metric("churn_ms_per_event", fast_tail(ms_per_change), "ms");
  r.note("churn ms per replica change: fast tail over steps " +
         fmt(fast_tail(ms_per_change), 2) + ", median " +
         fmt(median(ms_per_change), 2) + ", total/total " +
         fmt(churn_s * 1e3 / static_cast<double>(changes), 2) +
         " (the median and total for reading only)");
  r.exact("query_success", aggregate.success_rate());
  r.exact("msgs_per_query", aggregate.mean_messages());
  r.exact("replica_changes", static_cast<double>(changes));
  r.note("abf: n=" + std::to_string(z.nodes) + ", " +
         std::to_string(aggregate.queries()) + " queries (" +
         std::to_string(latency_queries) + " open loop at " +
         fmt(z.rate_qps, 0) + " q/s, " + std::to_string(tput_queries) +
         " in full slices), " + std::to_string(changes) +
         " replica changes in " + std::to_string(churn_steps) +
         " churn steps; set-ups " + fmt_list(setup_s, 3) + " s");

  // --- checks --------------------------------------------------------------
  r.check(service.driver_matches_run_many(next_index, spec.slice_cap),
          "driver aggregate equals the same jobs sent through run_many");
  r.check(changes > 0, "catalog churn applied replica changes");

  if (!ctx.probes) return;
  // --- traced-run probes (after peak RSS was read) --------------------------
  const std::uint64_t probe_first = next_index + spec.slice_cap;
  const auto one = service.slice_overhead(probe_first, 1, o.tiny ? 20 : 400);
  const auto full = service.slice_overhead(probe_first + 1'000'000,
                                           spec.slice_cap, o.tiny ? 2 : 8);
  r.metric("analysis.slice_overhead_us", one.overhead_us(), "us");
  r.metric("analysis.slice_overhead_full_us", full.overhead_us(), "us");
  r.metric("analysis.slice_us_p50", median(latency.slice_wall_s) * 1e6, "us");
  r.metric("analysis.queries_per_slice",
           static_cast<double>(latency_queries) /
               static_cast<double>(latency.slice_wall_s.size()),
           "count");
  r.metric("search.abf_us_per_query",
           full.run_many_us / static_cast<double>(spec.slice_cap), "us");
  r.metric("search.abf_router_build_s", cell->router_s, "s");
  r.metric("search.hops_per_query", aggregate.hit_hops().mean(), "hops");
  r.metric("search.nodes_visited_per_query", aggregate.mean_nodes_visited(),
           "count");
  r.metric("bloom.table_mb",
           static_cast<double>(cell->router->table_bytes()) / kMiB, "MB");
  r.metric("bloom.counting_mb",
           static_cast<double>(cell->router->counting_table()->memory_bytes()) /
               kMiB,
           "MB");
  const auto engine_run = tracer().total("workload.engine_run");
  double slices_s = 0.0;
  for (const double s : latency.slice_wall_s) slices_s += s;
  r.metric("workload.engine_self_ms", (engine_run.first - slices_s) * 1e3,
           "ms");
  r.metric("workload.max_queue_depth",
           static_cast<double>(latency.max_queue_depth), "count");
  r.metric("workload.churn_step_ms",
           churn_s * 1e3 / static_cast<double>(churn_steps), "ms");
  r.metric("workload.replica_changes", static_cast<double>(changes), "count");
  r.metric("topology.generate_s", cell->generate_s, "s");
  r.metric("graph.csr_build_s", cell->csr_s, "s");
  r.note("slice overhead: k=1 run_slice " + fmt(one.slice_us, 1) +
         " us vs run_many " + fmt(one.run_many_us, 1) + " us; k=" +
         std::to_string(spec.slice_cap) + " run_slice " +
         fmt(full.slice_us, 0) + " us vs run_many " +
         fmt(full.run_many_us, 0) + " us");
  r.check(maintained_covers_fresh(*cell),
          "maintained ABF base covers a fresh build after churn");
}

}  // namespace perfbench
