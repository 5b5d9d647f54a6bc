// Figure 4 — Success rate vs TTL for attenuated-Bloom-filter identifier
// search on a Makalu overlay (paper: 100,000 nodes, ABF depth 3).
//
// Paper: at >=0.5% replication, >95% of queries resolve within 5 hops and
// all within 8; at 0.1%, >75% within 10 hops and >95% within 15.
//
// --ablate sweeps the filter depth (1..4) at 0.5% replication to show why
// the paper chose depth 3 (DESIGN.md §10.2).
#include "bench_common.hpp"

#include <cmath>

#include "analysis/abf_experiments.hpp"
#include "analysis/paper_reference.hpp"
#include "analysis/parallel_query_driver.hpp"
#include "dht/chord.hpp"
#include "net/latency_model.hpp"
#include "sim/failure.hpp"
#include "sim/replica_placement.hpp"

int main(int argc, char** argv) try {
  using namespace makalu;
  const CliOptions options(argc, argv, {"ablate"});
  const bool paper = options.paper_scale();
  const std::size_t n = options.nodes(paper ? 100'000 : 20'000);
  const std::size_t runs = options.runs(2);
  const std::size_t queries = options.queries(paper ? 300 : 150);
  const std::uint64_t seed = options.seed(42);
  constexpr std::uint32_t kMaxTtl = 25;
  bench::print_config("fig 4: ABF identifier search, success vs TTL", n,
                      runs, queries, seed, paper);
  bench::BenchRun bench_run("fig4_abf_search", options, n, runs, queries,
                            seed);

  auto build_phase = bench_run.phase("build-overlay");
  const EuclideanModel latency(n, seed ^ 0xabf);
  TopologyFactoryOptions topo;
  topo.makalu = bench::search_makalu_parameters();
  const auto topology =
      build_topology(TopologyKind::kMakalu, latency, seed, topo);
  build_phase.stop();
  auto ttl_phase = bench_run.phase("success-vs-ttl");

  Table table({"replication", "TTL5", "TTL8", "TTL10", "TTL15", "TTL20",
               "TTL25", "paper reference"});
  struct Row {
    double percent;
    const char* reference;
  };
  const Row rows[] = {
      {0.1, ">75% by 10, >95% by 15"},
      {0.5, ">95% by 5, 100% by 8"},
      {1.0, ">95% by 5, 100% by 8"},
  };
  for (const auto& row : rows) {
    AbfExperimentOptions aopts;
    aopts.replication_ratio = row.percent / 100.0;
    aopts.queries = queries;
    aopts.runs = runs;
    aopts.objects = 40;
    aopts.seed = seed;
    aopts.metrics = bench_run.metrics();
    const auto rates = abf_success_vs_ttl(topology, aopts, kMaxTtl);
    table.add_row({Table::num(row.percent, 1) + "%",
                   Table::percent(rates[5]), Table::percent(rates[8]),
                   Table::percent(rates[10]), Table::percent(rates[15]),
                   Table::percent(rates[20]), Table::percent(rates[25]),
                   row.reference});
  }
  ttl_phase.stop();
  bench::emit(table, options.csv());
  std::cout << "\nshape check: higher replication saturates in fewer hops; "
               "0.1% needs the deep tail. Most queries resolve in <10 "
               "messages — comparable to structured (DHT) systems.\n";

  // --- hot path: level-weighted match scoring. The same router routes
  // the same queries under each match kernel, forced process-wide through
  // set_match_kernel_override: kReference tests one bit per hash per level
  // with a runtime-divide modulus, the word kernels replay one
  // precomputed probe set per query. Results must be bit-identical across
  // every kernel (the differential suite pins this; the bench re-checks
  // the aggregate against the first row).
  {
    auto hot_phase = bench_run.phase("match-kernel-speedup");
    print_banner(std::cout,
                 "hot path: table layouts x match kernels (queries/sec)");
    const std::size_t hot_queries = queries * 20;
    const ObjectCatalog catalog(n, 40, 0.005, seed ^ 0x5c0);
    const CsrGraph csr = CsrGraph::from_graph(topology.graph);
    const AbfRouter router(csr, catalog, AbfOptions{});  // kPooledStack
    // Compressed layout: per-node blocked base + per-arc deltas. Routes
    // are NOT bit-identical (the false-positive set widens), so its rows
    // are held to the differential suite's quality gate instead.
    AbfOptions blocked_opts;
    blocked_opts.layout = TableLayout::kBlockedDelta;
    blocked_opts.blocked_level_bits = 256;
    const AbfRouter blocked_router(csr, catalog, blocked_opts);
    ParallelQueryDriver driver(1);
    BatchQueryOptions hot_batch;
    hot_batch.queries = hot_queries;
    hot_batch.seed = seed ^ 0xa5f;

    struct KernelCase {
      const char* label;
      const AbfRouter* router;
      MatchKernel mode;
      bool batch;
      bool quality_gate;  // blocked rows: bounded deltas, not bit-identity
    };
    std::vector<KernelCase> kernels = {
        {"reference (per-hash modulus)", &router, MatchKernel::kReference,
         false, false},
        {"portable word-loop", &router, MatchKernel::kPortable, false,
         false},
    };
    if (resolved_match_kernel() == MatchKernel::kAvx2) {
      kernels.push_back(
          {"avx2 gather", &router, MatchKernel::kAvx2, false, false});
    }
    // Dispatched kernel + interleaved-walker batching: co-scheduled
    // queries overlap each other's filter-row loads (see
    // AbfRouter::run_many), on top of the word-level scoring.
    kernels.push_back(
        {"batched walkers + simd", &router, MatchKernel::kAuto, true,
         false});
    kernels.push_back({"blocked delta (1 line/peer)", &blocked_router,
                       MatchKernel::kAuto, false, true});
    kernels.push_back({"blocked + batched walkers", &blocked_router,
                       MatchKernel::kAuto, true, true});

    Table hot({"layout / kernel", "wall ms", "queries/s", "success"});
    double best_qps = 0.0;  // fastest bit-identical configuration
    QueryAggregate baseline_agg;
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      set_match_kernel_override(kernels[k].mode);
      hot_batch.batch = kernels[k].batch;
      double best_ms = 0.0;
      QueryAggregate agg;
      for (int rep = 0; rep < 7; ++rep) {  // min-of-7 against timer noise
        Stopwatch timer;
        QueryAggregate rep_agg =
            driver.run_batch(*kernels[k].router, catalog, hot_batch);
        const double ms = timer.millis();
        if (rep == 0 || ms < best_ms) best_ms = ms;
        agg = rep_agg;
      }
      const double qps =
          static_cast<double>(hot_queries) / (best_ms / 1000.0);
      if (k == 0) {
        baseline_agg = agg;
      } else if (!kernels[k].quality_gate) {
        if (agg.success_rate() != baseline_agg.success_rate() ||
            agg.mean_messages() != baseline_agg.mean_messages()) {
          std::cerr << "error: kernel " << kernels[k].label
                    << " diverged from the reference kernel's results\n";
          return 1;
        }
      } else {
        // The tests/abf_table_differential_test.cpp gate, re-checked on
        // this workload: success within 0.5 pp, messages within 2%.
        const double dsucc =
            std::abs(agg.success_rate() - baseline_agg.success_rate());
        const double dmsgs =
            std::abs(agg.mean_messages() - baseline_agg.mean_messages()) /
            baseline_agg.mean_messages();
        if (dsucc > 0.005 || dmsgs > 0.02) {
          std::cerr << "error: " << kernels[k].label
                    << " failed the quality gate (d_success="
                    << dsucc * 100.0 << " pp, d_messages="
                    << dmsgs * 100.0 << "%)\n";
          return 1;
        }
      }
      hot.add_row({kernels[k].label, Table::num(best_ms, 1),
                   Table::num(qps, 0), Table::percent(agg.success_rate())});
      if (kernels[k].mode == MatchKernel::kReference) {
        bench_run.gauge("abf_match.qps_reference", qps);
      } else if (kernels[k].mode == MatchKernel::kPortable) {
        bench_run.gauge("abf_match.qps_portable", qps);
      } else if (kernels[k].quality_gate) {
        bench_run.gauge(kernels[k].batch ? "abf_match.qps_blocked_batched"
                                         : "abf_match.qps_blocked",
                        qps);
      } else if (!kernels[k].batch) {
        bench_run.gauge("abf_match.qps_simd", qps);
      } else {
        bench_run.gauge("abf_match.qps_batched", qps);
      }
      if (k > 0 && !kernels[k].quality_gate && qps > best_qps) {
        best_qps = qps;
      }
    }
    set_match_kernel_override(MatchKernel::kAuto);
    // Headline = the fastest bit-identical production configuration:
    // kAuto dispatch, with or without walker batching (batching wins only
    // when walkers are latency-bound; scoring here is
    // gather-throughput-bound on one core, so the scalar dispatch usually
    // leads). Blocked rows report their own gauges plus the table-size
    // contrast that motivates them.
    bench_run.gauge("abf_match.qps", best_qps);
    const double pooled_mb =
        static_cast<double>(router.table_bytes()) / (1024.0 * 1024.0);
    const double blocked_mb =
        static_cast<double>(blocked_router.table_bytes()) /
        (1024.0 * 1024.0);
    bench_run.gauge("abf_match.table_mb_pooled", pooled_mb);
    bench_run.gauge("abf_match.table_mb_blocked", blocked_mb);
    bench_run.gauge("abf_match.table_reduction", pooled_mb / blocked_mb);
    hot_phase.stop();
    bench::emit(hot, options.csv());
    std::cout << "\narena rows return bit-identical routes to the "
                 "reference kernel; blocked rows trade a bounded quality delta "
                 "(gated above) for a " << Table::num(pooled_mb / blocked_mb, 1)
              << "x smaller table (" << Table::num(pooled_mb, 1) << " MB -> "
              << Table::num(blocked_mb, 1)
              << " MB here). Floors/ceilings ride scripts/bench_compare.py "
                 "(see EXPERIMENTS.md).\n";
  }

  // --- structured baseline: making §4.6's "comparable to structured P2P
  // systems" claim measurable. Routing-resilience comparison: in both
  // systems the querying node and the data host are alive; what differs
  // is whether the *routing fabric* still delivers. Chord fails when the
  // finger/successor chain is dead; ABF-on-Makalu fails only if the
  // damaged overlay no longer reaches a replica within the TTL.
  {
    auto chord_phase = bench_run.phase("chord-baseline");
    print_banner(std::cout, "structured baseline: Chord (64-bit ring)");
    const ChordRing chord(n, seed ^ 0xc0de);
    Table base({"system", "healthy cost", "success @10% fail",
                "success @30% fail"});

    // Chord rows: random failures (no degree skew to target), keys with
    // live owners only.
    auto chord_success = [&](double fraction, std::size_t successor_list) {
      Rng frng(seed ^ 0x5eed);
      std::vector<bool> failed(n, false);
      std::size_t count = static_cast<std::size_t>(
          fraction * static_cast<double>(n));
      while (count > 0) {
        const auto v = static_cast<NodeId>(frng.uniform_below(n));
        if (!failed[v]) {
          failed[v] = true;
          --count;
        }
      }
      ChordLookupOptions lopts;
      lopts.failed = &failed;
      lopts.successor_list = successor_list;
      Rng rng(seed ^ 0xfee1);
      std::size_t hits = 0;
      std::size_t attempts = 0;
      while (attempts < 300) {
        const auto source = static_cast<NodeId>(rng.uniform_below(n));
        const std::uint64_t key = rng();
        if (failed[source] || failed[chord.responsible_node(key)]) continue;
        ++attempts;
        hits += chord.lookup(source, key, lopts).success;
      }
      return static_cast<double>(hits) / static_cast<double>(attempts);
    };
    const double chord_hops = chord.mean_lookup_hops(400, seed ^ 0x40e1);
    base.add_row({"Chord (plain)",
                  Table::num(chord_hops, 1) + " hops",
                  Table::percent(chord_success(0.10, 1)),
                  Table::percent(chord_success(0.30, 1))});
    base.add_row({"Chord (successor list 8)",
                  Table::num(chord_hops, 1) + " hops",
                  Table::percent(chord_success(0.10, 8)),
                  Table::percent(chord_success(0.30, 8))});

    // Makalu + ABF row: targeted (worst-case) failures of the overlay's
    // top-degree nodes; content re-placed on survivors so the row
    // isolates routing resilience from data durability.
    auto abf_after_failure = [&](double fraction) {
      const auto failed =
          select_top_degree_failures(topology.graph, fraction);
      const Graph survivors = apply_failures(topology.graph, failed);
      BuiltTopology damaged;
      damaged.kind = TopologyKind::kMakalu;
      damaged.graph = survivors;
      AbfExperimentOptions aopts;
      aopts.replication_ratio = 0.005;
      aopts.queries = 150;
      aopts.runs = 1;
      aopts.objects = 30;
      aopts.seed = seed;
      return run_abf_batch(damaged, 15, aopts).success_rate();
    };
    {
      AbfExperimentOptions aopts;
      aopts.replication_ratio = 0.005;
      aopts.queries = 150;
      aopts.runs = 1;
      aopts.objects = 30;
      aopts.seed = seed;
      const auto healthy = run_abf_batch(topology, 15, aopts);
      base.add_row({"Makalu + ABF (0.5% repl)",
                    Table::num(healthy.hit_hops().mean(), 1) + " msgs",
                    Table::percent(abf_after_failure(0.10)),
                    Table::percent(abf_after_failure(0.30))});
    }
    bench::emit(base, options.csv());
    std::cout << "\nhealthy cost is indeed comparable (a handful of "
                 "messages either way — the paper's §4.6 claim); under "
                 "failure, plain Chord's rigid fabric degrades while "
                 "Makalu+ABF rides on the expander's redundancy. Chord "
                 "needs successor lists (state + maintenance) to match "
                 "what Makalu gets structurally.\n";
    chord_phase.stop();
  }

  if (options.has("ablate")) {
    print_banner(std::cout, "ablation: ABF depth (0.5% replication)");
    Table ab({"depth", "TTL5", "TTL10", "TTL25", "table bytes/link"});
    for (const std::size_t depth : {1u, 2u, 3u, 4u}) {
      AbfExperimentOptions aopts;
      aopts.replication_ratio = 0.005;
      aopts.queries = std::min<std::size_t>(queries, 100);
      aopts.runs = 1;
      aopts.objects = 40;
      aopts.seed = seed;
      aopts.abf.depth = depth;
      const auto rates = abf_success_vs_ttl(topology, aopts, kMaxTtl);
      ab.add_row({Table::integer(static_cast<long long>(depth)),
                  Table::percent(rates[5]), Table::percent(rates[10]),
                  Table::percent(rates[25]),
                  Table::integer(static_cast<long long>(
                      depth * aopts.abf.level_params.bits / 8))});
    }
    bench::emit(ab, options.csv());
    std::cout << "\ndepth 3 is the knee: depth 1-2 filters see too little "
                 "of the network; depth 4 pays memory/exchange cost for "
                 "marginal gain (deep levels are noisy).\n";
  }
  return bench_run.finish() ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
