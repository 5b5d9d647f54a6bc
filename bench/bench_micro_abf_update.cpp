// Microbench: incremental ABF table maintenance vs from-scratch rebuild.
//
// The blocked layout's churn story (DESIGN.md §14): notify_insert is a
// depth-bounded 0->1 position wave plus the flip census of the deltas,
// and with AbfOptions::counting_maintenance, notify_remove drains a
// counting-filter decrement wave instead of rebuilding. Both are pinned
// *equal* to a rebuild by the soundness suites; this bench measures what
// that equality buys — ops/sec on the incremental paths against the
// rebuild a legacy table would pay per content change.
//
// Experiment-bench shape (makalu.bench.v1 JSON, bench_smoke ctest label);
// gauges gated via bench_compare.py --require (see EXPERIMENTS.md).
#include "bench_common.hpp"

#include "search/abf_search.hpp"
#include "sim/replica_placement.hpp"
#include "topology/generators.hpp"

int main(int argc, char** argv) try {
  using namespace makalu;
  const CliOptions options(argc, argv);
  const bool paper = options.paper_scale();
  const std::size_t n = options.nodes(paper ? 20'000 : 4'000);
  const std::size_t runs = options.runs(3);
  // `queries` doubles as the churn-op count per timed section.
  const std::size_t ops = options.queries(400);
  const std::uint64_t seed = options.seed(42);
  constexpr std::size_t kObjects = 32;
  bench::print_config("micro: ABF incremental update vs rebuild", n, runs,
                      ops, seed, paper);
  bench::BenchRun bench_run("micro_abf_update", options, n, runs, ops,
                            seed);

  auto build_phase = bench_run.phase("build-tables");
  PowerLawParameters plp;
  plp.min_degree = 2;
  plp.max_degree = 60;
  const Graph g = PowerLawGenerator(plp).generate(n, seed ^ 0x90a7ULL);
  const CsrGraph csr = CsrGraph::from_graph(g);
  ObjectCatalog catalog(n, kObjects, 0.01, seed ^ 0xca7ULL);
  AbfOptions aopts;
  aopts.layout = TableLayout::kBlockedDelta;
  aopts.blocked_level_bits = 256;
  aopts.counting_maintenance = true;
  Stopwatch build_timer;
  AbfRouter router(csr, catalog, aopts);
  bench_run.gauge("micro_abf_update.build_ms", build_timer.millis());
  build_phase.stop();

  Table table({"path", "ops", "wall ms", "ops/s", "vs rebuild"});

  // Rebuild cost first: the per-change price a monotone (non-counting)
  // table pays for any content removal, and the baseline both
  // incremental paths are compared against. min-of-runs timing.
  auto rebuild_phase = bench_run.phase("full-rebuild");
  double rebuild_ms = 0.0;
  for (std::size_t rep = 0; rep < runs; ++rep) {
    Stopwatch timer;
    router.rebuild();
    const double ms = timer.millis();
    if (rep == 0 || ms < rebuild_ms) rebuild_ms = ms;
  }
  rebuild_phase.stop();
  bench_run.gauge("micro_abf_update.rebuild_ms", rebuild_ms);
  table.add_row({"full rebuild", "1", Table::num(rebuild_ms, 2),
                 Table::num(1000.0 / rebuild_ms, 1), "1.00x"});

  // Additive churn: publish ops new replicas one at a time through the
  // insert wave. Catalog mutations are deliberately inside the timed
  // region — a real churn event pays both.
  auto insert_phase = bench_run.phase("insert-wave");
  Rng rng(seed ^ 0x1f5ULL);
  std::vector<std::pair<ObjectId, NodeId>> added;
  added.reserve(ops);
  Stopwatch insert_timer;
  while (added.size() < ops) {
    const auto object = static_cast<ObjectId>(rng.uniform_below(kObjects));
    const auto node = static_cast<NodeId>(rng.uniform_below(n));
    // Skip pairs already placed: add_replica would no-op on the catalog
    // while the notify wave re-counted the key, desyncing the mirror.
    if (catalog.node_has_object(node, object)) continue;
    catalog.add_replica(object, node);
    router.notify_insert(node, object);
    added.emplace_back(object, node);
  }
  const double insert_ms = insert_timer.millis();
  insert_phase.stop();
  const double insert_ops =
      static_cast<double>(ops) / (insert_ms / 1000.0);
  const double insert_speedup = insert_ops * rebuild_ms / 1000.0;
  bench_run.gauge("micro_abf_update.insert_ops_per_sec", insert_ops);
  bench_run.gauge("micro_abf_update.insert_speedup_vs_rebuild",
                  insert_speedup);
  table.add_row({"notify_insert wave", Table::integer(
                     static_cast<long long>(ops)),
                 Table::num(insert_ms, 2), Table::num(insert_ops, 0),
                 Table::num(insert_speedup, 0) + "x"});

  // Subtractive churn: retract the same replicas through the counting
  // decrement wave (the path that exists only under
  // counting_maintenance).
  auto remove_phase = bench_run.phase("remove-wave");
  Stopwatch remove_timer;
  for (const auto& [object, node] : added) {
    if (catalog.remove_replica(object, node)) {
      router.notify_remove(node, object);
    }
  }
  const double remove_ms = remove_timer.millis();
  remove_phase.stop();
  const double remove_ops =
      static_cast<double>(added.size()) / (remove_ms / 1000.0);
  const double remove_speedup = remove_ops * rebuild_ms / 1000.0;
  bench_run.gauge("micro_abf_update.remove_ops_per_sec", remove_ops);
  bench_run.gauge("micro_abf_update.remove_speedup_vs_rebuild",
                  remove_speedup);
  table.add_row({"notify_remove (counting)", Table::integer(
                     static_cast<long long>(added.size())),
                 Table::num(remove_ms, 2), Table::num(remove_ops, 0),
                 Table::num(remove_speedup, 0) + "x"});

  bench::emit(table, options.csv());

  // Soundness spot-check on the final state. Exact rebuild equality is a
  // below-saturation contract (pinned by tests/counting_abf_test.cpp on
  // sparse graphs); on a hub-heavy power-law topology 2-hop walk counts
  // exceed the 4-bit counter cap and sticky saturation legitimately
  // leaves extra bits. What must hold REGARDLESS of saturation is the
  // one-sided guarantee: the maintained base is a superset of a fresh
  // rebuild's (saturation widens filters, never drops true bits — a
  // missing bit would be a false negative, i.e. a real bug).
  AbfRouter fresh(csr, catalog, aopts);
  const BlockedAbfTable& live = *router.blocked_table();
  const BlockedAbfTable& want = *fresh.blocked_table();
  bool sound = true;
  for (std::uint32_t v = 0; sound && v < n; ++v) {
    for (std::size_t l = 0; l < live.depth(); ++l) {
      const std::uint64_t* lw = live.level_words(v, l);
      const std::uint64_t* ww = want.level_words(v, l);
      for (std::size_t w = 0; w < live.words_per_level(); ++w) {
        if ((lw[w] | ww[w]) != lw[w]) {
          sound = false;
          break;
        }
      }
    }
  }
  const CountingAbfTable& mirror = *router.counting_table();
  std::size_t saturated = 0;
  std::size_t counters = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::size_t l = 0; l < router.depth(); ++l) {
      counters += mirror.bits();
      saturated += mirror.saturated_count(v, l);
    }
  }
  const double saturated_ppm = counters > 0
                                   ? 1e6 * static_cast<double>(saturated) /
                                         static_cast<double>(counters)
                                   : 0.0;
  bench_run.gauge("micro_abf_update.sound", sound ? 1.0 : 0.0);
  bench_run.gauge("micro_abf_update.saturated_counter_ppm", saturated_ppm);
  if (!sound) {
    std::cerr << "error: incrementally-maintained table dropped bits a "
                 "fresh rebuild has (false negative)\n";
    return 1;
  }
  std::cout << "\nsoundness: maintained base is a superset of a fresh "
               "rebuild (no false negatives); "
            << Table::num(saturated_ppm, 1)
            << " ppm of counters saturated (sticky, widens filters "
               "only).\n";
  std::cout << "\nincremental waves touch the depth-" << router.depth()
            << " ball around the change instead of every arc; exact "
               "rebuild equality below saturation is pinned by the "
               "counting soundness suite.\n";
  return bench_run.finish() ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
