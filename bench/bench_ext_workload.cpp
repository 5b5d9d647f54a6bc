// bench_ext_workload: open-loop heavy traffic against the scale overlay.
//
// The paper's traffic model (§5 / Table 2) is closed-loop — a ~60 q/s
// trace replayed one query at a time, so the system can never fall
// behind. This bench asks the open-loop question the ROADMAP north star
// needs answered: at what offered rate does the overlay saturate, and
// what latency do clients see on the way there? Four measured cells over
// one hard-cutoff scale-free overlay (Guclu & Yuksel, the PR-7/8 1M-node
// substrate) with a Zipf-popular content catalog routed by blocked
// counting-ABF tables:
//
//   saturation   multiplicative ramp + geometric bisection of the offered
//                Poisson rate until completed/offered drops below 0.9
//                (workload/saturation.hpp); the at-saturation probe
//                reports p50/p99/p999 sojourn from the obs histogram.
//   profiles     bursty (MMPP-2), diurnal, and the paper's closed-loop
//                preset at half the saturation rate: same demand stream,
//                different arrival timing — tail latency is the delta.
//   determinism  the same open-loop stream re-run at 1/2/8 driver
//                threads and twice at one: aggregates must match exactly
//                (the engine's determinism ladder, DESIGN.md §16).
//                Divergence hard-fails the bench.
//   churn-waves  catalog birth/death/drift applied through incremental
//                counting-ABF insert/remove waves at fixed stream
//                indices while the open-loop stream runs; measures
//                us/replica-change against a full rebuild and spot-checks
//                superset soundness of the maintained table.
//
// Timing gauges (saturation_qps, *_ms) are wall-clock honest and
// machine-dependent by design; per-query aggregates inside every cell
// are bit-identical per the determinism ladder. JSON gauges are gated in
// CI via bench_compare.py --require / --require-max (EXPERIMENTS.md).
#include "bench_common.hpp"

#include <cmath>

#include "search/abf_search.hpp"
#include "topology/generators.hpp"
#include "workload/arrival.hpp"
#include "workload/catalog.hpp"
#include "workload/engine.hpp"
#include "workload/saturation.hpp"

namespace {

using namespace makalu;

/// Exact-equality check between two aggregates of the same stream. Both
/// fold in stream order, so even the double-valued means must match to
/// the last bit — any drift means the determinism ladder broke.
bool aggregates_identical(const QueryAggregate& a, const QueryAggregate& b) {
  return a.queries() == b.queries() &&
         a.success_rate() == b.success_rate() &&
         a.mean_messages() == b.mean_messages() &&
         a.mean_duplicates() == b.mean_duplicates() &&
         a.mean_nodes_visited() == b.mean_nodes_visited() &&
         a.mean_replicas_found() == b.mean_replicas_found() &&
         a.hit_hops().mean() == b.hit_hops().mean();
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace makalu;
  const CliOptions options(argc, argv, {"objects"});
  const bool paper = options.paper_scale();
  const std::size_t n = options.nodes(paper ? 100'000 : 20'000);
  const std::size_t runs = options.runs(1);
  const std::size_t queries = options.queries(4'000);
  const std::uint64_t seed = options.seed(42);
  const auto threads =
      static_cast<std::size_t>(options.get_int("threads", 0));
  const auto objects =
      static_cast<std::size_t>(options.get_int("objects", 512));
  bench::print_config("ext: open-loop heavy-traffic workload", n, runs,
                      queries, seed, paper);
  bench::BenchRun bench_run("ext_workload", options, n, runs, queries, seed);

  // --- build: hard-cutoff overlay + Zipf catalog + counting-ABF router --
  auto build_phase = bench_run.phase("build-overlay");
  PowerLawParameters plp;
  plp.min_degree = 2;
  plp.hard_cutoff_factor = 1.0;  // degree cap sqrt(n)
  plp.storage = GraphStorage::kCompact;
  const Graph g = PowerLawGenerator(plp).generate(n, seed ^ 0x90a7ULL);
  const CsrGraph csr = CsrGraph::from_graph(g);

  workload::ZipfCatalogOptions zopts;
  zopts.objects = objects;
  zopts.zipf_exponent = 0.8;
  zopts.replicas_per_object = 4;
  zopts.seed = seed ^ 0x21fULL;
  workload::ZipfCatalog zipf(n, zopts);

  AbfOptions aopts;
  aopts.layout = TableLayout::kBlockedDelta;
  // Content catalog, not 64-key identifier search: size the per-level
  // filters up so hub-adjacent base stacks keep useful selectivity.
  aopts.blocked_level_bits = 1024;
  aopts.counting_maintenance = true;  // the incremental-remove churn path
  Stopwatch build_timer;
  AbfRouter router(csr, zipf.catalog(), aopts);
  bench_run.gauge("workload.abf_build_ms", build_timer.millis());
  bench_run.gauge("workload.abf_table_mb",
                  static_cast<double>(router.table_bytes()) /
                      (1024.0 * 1024.0));
  bench_run.gauge(
      "workload.abf_counting_mb",
      static_cast<double>(router.counting_table()->memory_bytes()) /
          (1024.0 * 1024.0));
  build_phase.stop();

  const auto zipf_sampler = [&zipf](Rng& rng) { return zipf.sample(rng); };

  // --- saturation search ------------------------------------------------
  auto sat_phase = bench_run.phase("saturation-search");
  workload::DriverQueryBackend::Options backend_options;
  backend_options.seed = seed ^ 0x5a7ULL;
  backend_options.threads = threads;
  backend_options.batch = true;
  backend_options.object_sampler = zipf_sampler;
  backend_options.metrics = bench_run.metrics();
  workload::DriverQueryBackend backend(router, zipf.catalog(),
                                       backend_options);

  workload::SaturationOptions sopts;
  sopts.start_qps = 1000.0;
  sopts.probe_queries = queries;
  sopts.arrival_seed = seed ^ 0xa77ULL;
  sopts.probe.metrics = bench_run.metrics();
  const workload::SaturationReport sat =
      workload::find_saturation(backend, sopts);
  sat_phase.stop();

  Table probes({"probe", "offered q/s", "completed q/s", "completed/offered",
                "verdict"});
  for (std::size_t i = 0; i < sat.probes.size(); ++i) {
    const auto& p = sat.probes[i];
    probes.add_row({Table::integer(static_cast<long long>(i)),
                    Table::num(p.offered_qps, 0),
                    Table::num(p.completed_qps, 0),
                    Table::num(p.completed_fraction, 3),
                    p.passed ? "pass" : "fail"});
  }
  bench::emit(probes, options.csv());

  const workload::OpenLoopReport& at_sat = sat.at_saturation;
  bench_run.gauge("workload.saturation_qps", sat.saturation_qps);
  bench_run.gauge("workload.saturation_bracketed", sat.bracketed ? 1.0 : 0.0);
  bench_run.gauge("workload.p50_ms", at_sat.p50_ms);
  bench_run.gauge("workload.p99_ms", at_sat.p99_ms);
  bench_run.gauge("workload.p999_ms", at_sat.p999_ms);
  bench_run.gauge("workload.mean_sojourn_ms", at_sat.mean_sojourn_ms);
  bench_run.gauge("workload.max_queue_depth",
                  static_cast<double>(at_sat.max_queue_depth));
  bench_run.gauge("workload.messages_per_query",
                  at_sat.aggregate.mean_messages());
  bench_run.gauge("workload.success", at_sat.aggregate.success_rate());
  std::cout << "\nsaturation: " << Table::num(sat.saturation_qps, 0)
            << " q/s (" << (sat.bracketed ? "bracketed" : "ramp-limited")
            << ", " << sat.probes.size() << " probes); at saturation p50/"
            << "p99/p999 sojourn = " << Table::num(at_sat.p50_ms, 2) << "/"
            << Table::num(at_sat.p99_ms, 2) << "/"
            << Table::num(at_sat.p999_ms, 2) << " ms, "
            << Table::num(at_sat.aggregate.mean_messages(), 1)
            << " msgs/query, success "
            << Table::percent(at_sat.aggregate.success_rate()) << ".\n\n";

  // --- arrival profiles at half the saturation rate ---------------------
  auto profile_phase = bench_run.phase("arrival-profiles");
  const double cruise_qps =
      sat.saturation_qps > 0.0 ? 0.5 * sat.saturation_qps : 100.0;
  Table profiles({"arrivals", "nominal q/s", "measured q/s",
                  "completed/offered", "p50 ms", "p99 ms", "p999 ms"});
  const auto profile_row = [&](workload::ArrivalProcess& arrivals,
                               const std::string& gauge_prefix) {
    workload::OpenLoopEngine engine(backend);
    const workload::OpenLoopReport rep =
        engine.run(arrivals, queries, {});
    profiles.add_row({std::string(arrivals.name()),
                      Table::num(arrivals.nominal_qps(), 0),
                      Table::num(rep.offered_qps, 0),
                      Table::num(rep.completed_fraction(), 3),
                      Table::num(rep.p50_ms, 2), Table::num(rep.p99_ms, 2),
                      Table::num(rep.p999_ms, 2)});
    bench_run.gauge(gauge_prefix + "_p50_ms", rep.p50_ms);
    bench_run.gauge(gauge_prefix + "_p99_ms", rep.p99_ms);
    bench_run.gauge(gauge_prefix + "_p999_ms", rep.p999_ms);
  };
  {
    const auto poisson =
        workload::poisson_arrivals(cruise_qps, seed ^ 0x11ULL);
    profile_row(*poisson, "workload.poisson");
    workload::BurstyOptions bopts;
    bopts.rate_qps = cruise_qps;
    const auto bursty = workload::bursty_arrivals(bopts, seed ^ 0x12ULL);
    profile_row(*bursty, "workload.bursty");
    workload::DiurnalOptions dopts;
    dopts.rate_qps = cruise_qps;
    // Two full "days" over the run's horizon.
    dopts.period_ms =
        1000.0 * static_cast<double>(queries) / cruise_qps / 2.0;
    const auto diurnal = workload::diurnal_arrivals(dopts, seed ^ 0x13ULL);
    profile_row(*diurnal, "workload.diurnal");
    // The paper's replay model through the same interface: 3.23 q/s
    // fixed spacing — the overlay idles between queries, the closed-loop
    // baseline every open-loop number above is an answer to.
    const auto paper_arrivals =
        workload::closed_loop_paper_arrivals(gnutella_traffic_2006());
    profile_row(*paper_arrivals, "workload.paper");
  }
  profile_phase.stop();
  bench::emit(profiles, options.csv());

  // --- determinism self-check ------------------------------------------
  // Same stream at 1/2/8 driver threads plus a same-thread repeat: the
  // ladder says every aggregate is exactly equal however service is
  // scheduled. A mismatch is a correctness bug, not noise — hard-fail.
  auto det_phase = bench_run.phase("determinism-check");
  std::vector<QueryAggregate> det_runs;
  for (const std::size_t det_threads : {1UL, 1UL, 2UL, 8UL}) {
    workload::DriverQueryBackend::Options det_options = backend_options;
    det_options.threads = det_threads;
    det_options.metrics = nullptr;
    workload::DriverQueryBackend det_backend(router, zipf.catalog(),
                                             det_options);
    const auto arrivals =
        workload::poisson_arrivals(cruise_qps, seed ^ 0xdeULL);
    workload::OpenLoopEngine engine(det_backend);
    det_runs.push_back(engine.run(*arrivals, queries, {}).aggregate);
  }
  det_phase.stop();
  for (std::size_t i = 1; i < det_runs.size(); ++i) {
    if (!aggregates_identical(det_runs[0], det_runs[i])) {
      std::cerr << "error: open-loop aggregates diverged across thread "
                   "counts / repeats (determinism ladder broken)\n";
      return 1;
    }
  }
  bench_run.gauge("workload.determinism_ok", 1.0);
  std::cout << "determinism: aggregates identical across 1/2/8 driver "
               "threads and a same-seed repeat.\n\n";

  // --- catalog churn through incremental counting-ABF waves -------------
  // Churn boundaries land at fixed stream indices (the engine cuts
  // admission slices there), every replica change goes through
  // notify_insert/notify_remove — never a rebuild — and the wave cost is
  // measured right where it is paid.
  auto churn_phase = bench_run.phase("churn-waves");
  constexpr std::size_t kChurnStepsPerBoundary = 8;
  double wave_seconds = 0.0;
  std::size_t replica_changes = 0;
  std::size_t boundaries = 0;
  workload::OpenLoopOptions churn_options;
  churn_options.churn_every_queries = std::max<std::size_t>(1, queries / 32);
  churn_options.churn_hook = [&](std::uint64_t) {
    ++boundaries;
    Stopwatch wave_timer;
    for (std::size_t step = 0; step < kChurnStepsPerBoundary; ++step) {
      replica_changes += zipf.churn_step(&router);
    }
    wave_seconds += wave_timer.seconds();
  };
  const auto churn_arrivals =
      workload::poisson_arrivals(cruise_qps, seed ^ 0xc4ULL);
  workload::OpenLoopEngine churn_engine(backend);
  const workload::OpenLoopReport churn_rep =
      churn_engine.run(*churn_arrivals, queries, churn_options);
  churn_phase.stop();

  const double wave_us = replica_changes > 0
                             ? wave_seconds * 1e6 /
                                   static_cast<double>(replica_changes)
                             : 0.0;

  // Soundness spot-check on the maintained state, before rebuild()
  // replaces it: the incrementally-maintained base must be a superset of
  // a fresh build's over the post-churn catalog (counting saturation
  // widens filters, never drops true bits — a missing bit would be a
  // false negative, i.e. a real bug).
  {
    const AbfRouter fresh(csr, zipf.catalog(), aopts);
    const BlockedAbfTable& live = *router.blocked_table();
    const BlockedAbfTable& want = *fresh.blocked_table();
    for (std::uint32_t v = 0; v < n; ++v) {
      for (std::size_t l = 0; l < live.depth(); ++l) {
        const std::uint64_t* lw = live.level_words(v, l);
        const std::uint64_t* ww = want.level_words(v, l);
        for (std::size_t w = 0; w < live.words_per_level(); ++w) {
          if ((lw[w] | ww[w]) != lw[w]) {
            std::cerr << "error: maintained ABF table dropped bits a fresh "
                         "rebuild has (false negative after churn)\n";
            return 1;
          }
        }
      }
    }
  }
  bench_run.gauge("workload.churn_sound", 1.0);

  // The per-change price a non-counting table would pay instead.
  auto rebuild_phase = bench_run.phase("rebuild-reference");
  Stopwatch rebuild_timer;
  router.rebuild();
  const double rebuild_us = rebuild_timer.seconds() * 1e6;
  rebuild_phase.stop();

  const workload::ZipfCatalog::ChurnCounters& cc = zipf.churn_counters();
  bench_run.gauge("workload.abf_update_wave_us", wave_us);
  bench_run.gauge("workload.abf_rebuild_us", rebuild_us);
  bench_run.gauge("workload.wave_speedup_vs_rebuild",
                  wave_us > 0.0 ? rebuild_us / wave_us : 0.0);
  bench_run.gauge("workload.churn_replica_changes",
                  static_cast<double>(replica_changes));
  bench_run.gauge("workload.churn_success",
                  churn_rep.aggregate.success_rate());
  // The serving driver's resident state after every cell: one workspace
  // per worker slot plus the slice buffers.
  bench_run.gauge("mem.workspaces_mb",
                  static_cast<double>(backend.driver().memory_bytes()) /
                      (1024.0 * 1024.0));
  bench_run.driver_threads(backend.driver().slots());

  Table churn({"cell", "value"});
  churn.add_row({"churn boundaries",
                 Table::integer(static_cast<long long>(boundaries))});
  churn.add_row({"births / deaths / drifts",
                 Table::integer(static_cast<long long>(cc.births)) + " / " +
                     Table::integer(static_cast<long long>(cc.deaths)) +
                     " / " +
                     Table::integer(static_cast<long long>(cc.drifts))});
  churn.add_row({"replica changes",
                 Table::integer(static_cast<long long>(replica_changes))});
  churn.add_row({"wave us/change", Table::num(wave_us, 1)});
  churn.add_row({"full rebuild us", Table::num(rebuild_us, 0)});
  churn.add_row({"wave speedup vs rebuild",
                 Table::num(wave_us > 0.0 ? rebuild_us / wave_us : 0.0, 0) +
                     "x"});
  churn.add_row({"success under churn",
                 Table::percent(churn_rep.aggregate.success_rate())});
  bench::emit(churn, options.csv());

  std::cout << "\ncatalog churn rode " << boundaries
            << " fixed-index boundaries through incremental counting-ABF "
               "waves (no rebuild on the churn path); superset soundness "
               "and below-saturation rebuild equality are pinned by "
               "tests/workload_test.cpp and the counting suites.\n";
  return bench_run.finish() ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
