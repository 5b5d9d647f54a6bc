// Scale bench — build, churn, and query a large Makalu overlay on one box,
// measuring memory honestly (ISSUE 7 / ROADMAP "million-node scale").
//
// For each selected storage policy (adjacency-set vector-of-vectors vs the
// compact RowArena CSR) the bench:
//   1. builds the overlay with OverlayBuilder::build_sharded (parallel
//      bootstrap plan, serial seeded apply, deterministic sweeps),
//   2. runs a churn episode: 10% of nodes fail (isolate), one maintenance
//      sweep repairs the survivors, the failed nodes come back online and
//      a second sweep re-absorbs them,
//   3. warms a rating cache over every node (the steady-state management
//      footprint) and measures graph + cache bytes per node,
//   4. answers a batched flood-query workload through the bench's one
//      ParallelQueryDriver (reused across policies and the ABF cell).
// When both policies run (the default below the memory wall), the bench
// verifies they produced the *identical* overlay — same edge count, same
// degree sequence, bitwise-equal query aggregates — and fails hard on any
// divergence: the storage layer must be an invisible representation
// choice. 1M-node runs use --storage compact (the adjacency build at 1M
// is exactly the wall this PR removes).
//
// Headline gauges (bench_compare.py material):
//   scale.bytes_per_node.{adjacency,compact}        graph + cache + capacities
//   scale.graph_bytes_per_node.* / scale.cache_bytes_per_node.*
//   scale.bytes_per_node_reduction                  adjacency / compact
//   scale.build_ms.* / scale.churn_sweep_ms.* / scale.query_qps.*
//   scale.abf_table_mb / scale.abf_bytes_per_arc    blocked ABF routing table
//   scale.abf_table_reduction / scale.abf_query_qps (hard-cutoff topology)
//   mem.workspaces_mb                               driver's resident state
//   peak_rss_mb                                     (automatic, BenchRun)
// Ceiling-gate with e.g.:
//   scripts/bench_compare.py base.json new.json
//       --require 'scale.bytes_per_node_reduction>=4'
//       --require-max 'scale.abf_table_mb<=8'
//       --require-max 'peak_rss_mb<=16384'
#include "bench_common.hpp"

#include <chrono>
#include <cmath>
#include <optional>
#include <vector>

#include "analysis/parallel_query_driver.hpp"
#include "net/latency_model.hpp"
#include "search/abf_search.hpp"
#include "search/flood_search.hpp"
#include "support/thread_pool.hpp"
#include "topology/generators.hpp"

namespace {

using namespace makalu;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct PolicyResult {
  const char* label = "";
  double build_ms = 0.0;
  double churn_sweep_ms = 0.0;
  double query_qps = 0.0;
  std::size_t edges = 0;
  std::size_t graph_bytes = 0;
  std::size_t cache_bytes = 0;
  std::size_t total_bytes = 0;
  std::vector<std::size_t> degrees;
  QueryAggregate aggregate;
};

PolicyResult run_policy(GraphStorage storage, const char* label,
                        std::size_t n, std::uint64_t seed,
                        std::size_t queries, ThreadPool& pool,
                        ParallelQueryDriver& driver,
                        bench::BenchRun& bench_run) {
  PolicyResult out;
  out.label = label;

  const EuclideanModel latency(n, seed ^ 0x5ca1ab1eULL);
  MakaluParameters params = bench::search_makalu_parameters();
  params.storage = storage;
  const OverlayBuilder builder(params);

  auto start = std::chrono::steady_clock::now();
  MakaluOverlay overlay = builder.build_sharded(latency, seed, &pool,
                                                bench_run.metrics());
  out.build_ms = ms_since(start);

  Graph& g = overlay.graph;

  // Churn episode under a persistent rating cache (RatingStore::kAuto:
  // pooled summaries for compact storage, heap entries for adjacency —
  // each policy pays its own real steady-state cost).
  {
    CachedRatingEngine cache(g, latency, params.weights);
    // Deterministic 10% fault draw.
    std::vector<bool> online(n, true);
    Rng fault_rng(seed ^ 0xdeadfa11ULL);
    const std::size_t failures = n / 10;
    std::size_t failed = 0;
    while (failed < failures) {
      const auto u = static_cast<NodeId>(fault_rng.uniform_below(n));
      if (!online[u]) continue;
      online[u] = false;
      ++failed;
    }
    start = std::chrono::steady_clock::now();
    for (NodeId u = 0; u < n; ++u) {
      if (!online[u]) g.isolate(u);
    }
    {
      // Survivors repair among themselves...
      SweepOptions sweep;
      sweep.seed = seed ^ 0x0ff1ceULL;
      sweep.active = &online;
      sweep.pool = &pool;
      sweep.metrics = bench_run.metrics();
      builder.deterministic_sweep(overlay, cache, sweep);
    }
    {
      // ...then the failed tenth comes back online and is re-absorbed.
      SweepOptions sweep;
      sweep.seed = seed ^ 0xbacca1aULL;
      sweep.pool = &pool;
      sweep.metrics = bench_run.metrics();
      builder.deterministic_sweep(overlay, cache, sweep);
    }
    out.churn_sweep_ms = ms_since(start);

    // Steady-state memory: warm every node's cache entry (management
    // touches all of them over time), then measure. compact_storage()
    // first so the graph side is its post-quiescence tight layout.
    g.compact_storage();
    for (NodeId u = 0; u < n; ++u) {
      if (g.degree(u) > 0) (void)cache.view_for(u);
    }
    out.graph_bytes = g.memory_footprint();
    out.cache_bytes = cache.memory_footprint();
    out.total_bytes = out.graph_bytes + out.cache_bytes +
                      overlay.capacity.capacity() * sizeof(std::size_t);
  }

  out.edges = g.edge_count();
  out.degrees = g.degree_sequence();

  // Batched query workload over the CSR snapshot (storage-independent by
  // construction — from_graph sorts rows — so identical aggregates here
  // pin the *graphs* being identical).
  const CsrGraph csr = CsrGraph::from_graph(g);
  const ObjectCatalog catalog(n, 64, 0.0005, seed ^ 0xca7a106eULL);
  FloodOptions flood;
  flood.ttl = 4;
  const FloodEngine engine(csr, flood);
  BatchQueryOptions batch;
  batch.queries = queries;
  batch.seed = seed ^ 0x9e37ULL;
  batch.batch = true;
  batch.metrics = bench_run.metrics();
  start = std::chrono::steady_clock::now();
  out.aggregate = driver.run_batch(engine, catalog, batch);
  const double query_ms = ms_since(start);
  out.query_qps = query_ms > 0.0
                      ? static_cast<double>(queries) / (query_ms / 1000.0)
                      : 0.0;
  return out;
}

bool results_identical(const PolicyResult& a, const PolicyResult& b) {
  return a.edges == b.edges && a.degrees == b.degrees &&
         a.aggregate.queries() == b.aggregate.queries() &&
         a.aggregate.success_rate() == b.aggregate.success_rate() &&
         a.aggregate.mean_messages() == b.aggregate.mean_messages() &&
         a.aggregate.mean_nodes_visited() ==
             b.aggregate.mean_nodes_visited() &&
         a.aggregate.mean_replicas_found() ==
             b.aggregate.mean_replicas_found();
}

}  // namespace

int main(int argc, char** argv) try {
  const CliOptions options(argc, argv, {"storage"});
  const bool paper = options.paper_scale();
  const std::size_t n = options.nodes(paper ? 100'000 : 10'000);
  const std::size_t queries = options.queries(paper ? 2'000 : 500);
  const std::uint64_t seed = options.seed(42);
  const std::string storage_arg =
      options.get("storage").value_or("both");
  const bool run_adjacency =
      storage_arg == "both" || storage_arg == "adjacency";
  const bool run_compact =
      storage_arg == "both" || storage_arg == "compact";
  if (!run_adjacency && !run_compact) {
    std::cerr << "error: --storage must be adjacency, compact, or both\n";
    return 2;
  }
  bench::print_config("scale: build/churn/query one large overlay", n, 1,
                      queries, seed, paper);
  std::cout << "storage: " << storage_arg
            << " (--storage=adjacency|compact|both)\n\n";
  bench::BenchRun bench_run("scale", options, n, 1, queries, seed);
  ThreadPool pool(
      static_cast<std::size_t>(options.get_int("threads", 0)));
  ParallelQueryDriver driver(0);
  bench_run.driver_threads(driver.slots());

  std::optional<PolicyResult> adjacency;
  std::optional<PolicyResult> compact;
  if (run_adjacency) {
    auto phase = bench_run.phase("adjacency");
    adjacency = run_policy(GraphStorage::kAdjacencySet, "adjacency-set", n,
                           seed, queries, pool, driver, bench_run);
  }
  if (run_compact) {
    auto phase = bench_run.phase("compact");
    compact = run_policy(GraphStorage::kCompact, "compact CSR/arena", n,
                         seed, queries, pool, driver, bench_run);
  }

  Table table({"storage", "build ms", "churn sweep ms", "query qps",
               "graph B/node", "cache B/node", "total B/node"});
  const auto per_node = [n](std::size_t bytes) {
    return static_cast<double>(bytes) / static_cast<double>(n);
  };
  const auto add_row = [&](const PolicyResult& r, const char* key) {
    table.add_row({r.label, Table::num(r.build_ms, 0),
                   Table::num(r.churn_sweep_ms, 0),
                   Table::num(r.query_qps, 0),
                   Table::num(per_node(r.graph_bytes), 1),
                   Table::num(per_node(r.cache_bytes), 1),
                   Table::num(per_node(r.total_bytes), 1)});
    bench_run.gauge(std::string("scale.build_ms.") + key, r.build_ms);
    bench_run.gauge(std::string("scale.churn_sweep_ms.") + key,
                    r.churn_sweep_ms);
    bench_run.gauge(std::string("scale.query_qps.") + key, r.query_qps);
    bench_run.bytes_per_node(
        std::string("scale.graph_bytes_per_node.") + key, r.graph_bytes, n);
    bench_run.bytes_per_node(
        std::string("scale.cache_bytes_per_node.") + key, r.cache_bytes, n);
    bench_run.bytes_per_node(std::string("scale.bytes_per_node.") + key,
                             r.total_bytes, n);
  };
  if (adjacency) add_row(*adjacency, "adjacency");
  if (compact) add_row(*compact, "compact");
  bench::emit(table, options.csv());

  if (adjacency && compact) {
    const bool identical = results_identical(*adjacency, *compact);
    bench_run.gauge("scale.divergence", identical ? 0.0 : 1.0);
    if (!identical) {
      std::cerr << "\nFATAL: adjacency-set and compact storage produced "
                   "different overlays — the storage policy must be "
                   "representation-only\n";
      bench_run.finish();
      return 1;
    }
    const double reduction =
        static_cast<double>(adjacency->total_bytes) /
        static_cast<double>(compact->total_bytes);
    bench_run.gauge("scale.bytes_per_node_reduction", reduction);
    std::cout << "\nstorage check passed: both policies built the "
                 "identical overlay (edge count, degree sequence, and "
                 "query aggregates all equal).\n"
              << "bytes/node reduction (graph + rating cache + "
                 "capacities): "
              << Table::num(reduction, 2) << "x\n";
  }

  // --- ABF identifier search at scale --------------------------------------
  // The paper's depth-3 search on a hard-cutoff scale-free topology
  // (Guclu & Yuksel: degree cap sqrt(n), so hubs grow with the network —
  // the regime where per-arc tables blow up). The blocked/delta layout
  // keeps the whole routing table at ~64 B per node plus sparse deltas;
  // `scale.abf_table_mb` is the ceiling-gated headline (<= 8 MB at 100k),
  // with the legacy per-arc extrapolation alongside for the reduction.
  {
    auto abf_phase = bench_run.phase("abf-hardcutoff");
    PowerLawParameters plp;
    plp.min_degree = 2;
    plp.hard_cutoff_factor = 1.0;  // cap = sqrt(n)
    plp.storage = GraphStorage::kCompact;
    Graph hc = PowerLawGenerator(plp).generate(n, seed ^ 0xabfULL);
    const CsrGraph csr = CsrGraph::from_graph(hc);
    const std::size_t arcs = 2 * hc.edge_count();
    const ObjectCatalog catalog(n, 64, 0.005, seed ^ 0xab1ULL);
    AbfOptions aopts;
    aopts.layout = TableLayout::kBlockedDelta;  // auto width: 1 line/node
    // Memory-floor configuration: base stacks only. Per-arc deltas are
    // the paid precision option (fig4 and the differential corpus run and
    // quality-gate them); at min-degree-2 power-law scale they cost ~4.5
    // entries/arc (~18 B/arc) — an order of magnitude over the 8 MB
    // table ceiling — while the base layout alone already routes with no
    // false negatives.
    aopts.delta_cap = 0;
    auto start = std::chrono::steady_clock::now();
    AbfRouter router(csr, catalog, aopts);
    const double abf_build_ms = ms_since(start);

    const double table_mb = static_cast<double>(router.table_bytes()) /
                            (1024.0 * 1024.0);
    const double bytes_per_arc =
        static_cast<double>(router.table_bytes()) /
        static_cast<double>(arcs);
    // What the exact per-arc layout would cost here (depth x 1024-bit
    // levels per arc, the pre-PR default).
    const double legacy_mb =
        static_cast<double>(arcs) * 3.0 * (1024.0 / 8.0) /
        (1024.0 * 1024.0);

    BatchQueryOptions abf_batch;
    abf_batch.queries = queries;
    abf_batch.seed = seed ^ 0x8eaULL;
    abf_batch.batch = true;
    abf_batch.metrics = bench_run.metrics();
    start = std::chrono::steady_clock::now();
    const QueryAggregate agg =
        driver.run_batch(router, catalog, abf_batch);
    const double abf_query_ms = ms_since(start);
    const double abf_qps =
        abf_query_ms > 0.0
            ? static_cast<double>(queries) / (abf_query_ms / 1000.0)
            : 0.0;

    bench_run.gauge("scale.abf_build_ms", abf_build_ms);
    bench_run.gauge("scale.abf_table_mb", table_mb);
    bench_run.gauge("scale.abf_bytes_per_arc", bytes_per_arc);
    bench_run.gauge("scale.abf_legacy_table_mb", legacy_mb);
    bench_run.gauge("scale.abf_table_reduction", legacy_mb / table_mb);
    bench_run.gauge("scale.abf_query_qps", abf_qps);
    bench_run.gauge("scale.abf_success", agg.success_rate());

    Table abf({"topology", "arcs", "build ms", "table MB", "B/arc",
               "legacy MB", "query qps", "success"});
    abf.add_row({"hard-cutoff scale-free",
                 Table::integer(static_cast<long long>(arcs)),
                 Table::num(abf_build_ms, 0), Table::num(table_mb, 2),
                 Table::num(bytes_per_arc, 1), Table::num(legacy_mb, 1),
                 Table::num(abf_qps, 0), Table::percent(agg.success_rate())});
    bench::emit(abf, options.csv());
    std::cout << "\nABF routing table: " << Table::num(table_mb, 2)
              << " MB blocked/delta vs " << Table::num(legacy_mb, 1)
              << " MB per-arc extrapolation ("
              << Table::num(legacy_mb / table_mb, 1)
              << "x). Ceiling-gate with --require-max "
                 "'scale.abf_table_mb<=8' at 100k.\n";
    abf_phase.stop();
  }
  bench_run.gauge("mem.workspaces_mb",
                  static_cast<double>(driver.memory_bytes()) /
                      (1024.0 * 1024.0));

  const std::size_t rss = obs::peak_rss_bytes();
  if (rss > 0) {
    std::cout << "peak RSS: "
              << Table::num(static_cast<double>(rss) / (1024.0 * 1024.0), 0)
              << " MB\n";
  }
  std::cout << "\nshape check: the compact arena stores a neighbor row as "
               "12 descriptor bytes plus ~4 bytes per edge endpoint in "
               "one shared slab, where the adjacency-set pays a 24-byte "
               "vector header plus a private heap chunk per node; the "
               "pooled rating store keeps an 8-byte {worst, boundary} "
               "summary per node instead of a per-node heap vector of "
               "32-byte records (persisted score rows never hit in sweep "
               "workloads — every pick_victim follows an invalidating "
               "edge change). Together that is the >= 4x bytes/node "
               "headroom that lets one box hold a 1M-node overlay.\n";
  return bench_run.finish() ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
