// Workload subsystem suite: arrival-generator statistics and seeded
// determinism, Zipf catalog rank-frequency + churn soundness through the
// counting-ABF waves, the open-loop engine's determinism ladder
// (slicing/thread-count invariance, fixed-index churn boundaries), the
// saturation search against a backend of known capacity, and the
// closed-loop paper-preset zero-drift parity contract
// (workload::closed_loop_flood_batch == run_flood_batch, bit for bit).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/flood_experiments.hpp"
#include "analysis/parallel_query_driver.hpp"
#include "analysis/topology_factory.hpp"
#include "analysis/traffic_comparison.hpp"
#include "bloom/counting_abf_table.hpp"
#include "search/abf_search.hpp"
#include "search/flood_search.hpp"
#include "test_util.hpp"
#include "workload/arrival.hpp"
#include "workload/catalog.hpp"
#include "workload/closed_loop.hpp"
#include "workload/engine.hpp"
#include "workload/saturation.hpp"

namespace makalu::workload {
namespace {

using testing::ConstantLatency;
using testing::make_cycle;

// ---------------------------------------------------------------------------
// Arrival processes

TEST(ArrivalProcess, PoissonSeedDeterminismAndMonotonicity) {
  const auto a = poisson_arrivals(500.0, 77)->take(2'000);
  const auto b = poisson_arrivals(500.0, 77)->take(2'000);
  EXPECT_EQ(a, b);  // byte-identical timestamp stream from the seed

  const auto c = poisson_arrivals(500.0, 78)->take(2'000);
  EXPECT_NE(a, c);

  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(a.front(), 0.0);
}

TEST(ArrivalProcess, TakeMatchesRepeatedNext) {
  const auto vec = poisson_arrivals(100.0, 5)->take(64);
  const auto one_by_one = poisson_arrivals(100.0, 5);
  for (const double t : vec) EXPECT_EQ(t, one_by_one->next_ms());
}

TEST(ArrivalProcess, PoissonInterarrivalMoments) {
  // rate 1000 q/s => exponential interarrivals, mean 1 ms, variance 1 ms^2.
  constexpr std::size_t kSamples = 50'000;
  const auto times = poisson_arrivals(1000.0, 42)->take(kSamples);
  std::vector<double> gaps(kSamples);
  double prev = 0.0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    gaps[i] = times[i] - prev;
    prev = times[i];
  }
  const double mean =
      std::accumulate(gaps.begin(), gaps.end(), 0.0) / kSamples;
  double var = 0.0;
  for (const double g : gaps) var += (g - mean) * (g - mean);
  var /= kSamples;
  // Standard error of the mean is 1/sqrt(50k) ~ 0.45%; 5% bands are >10
  // sigma, so a failure means a broken generator, not an unlucky seed.
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.10);
}

TEST(ArrivalProcess, BurstyLongRunRateIsCalibrated) {
  BurstyOptions options;
  options.rate_qps = 2'000.0;
  options.burst_factor = 8.0;
  constexpr std::size_t kSamples = 100'000;
  const auto times = bursty_arrivals(options, 9)->take(kSamples);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  const double measured_qps = 1000.0 * kSamples / times.back();
  EXPECT_NEAR(measured_qps, options.rate_qps, 0.1 * options.rate_qps);
  EXPECT_EQ(bursty_arrivals(options, 9)->nominal_qps(), 2'000.0);
}

TEST(ArrivalProcess, BurstyIsActuallyBursty) {
  // Squared coefficient of variation of interarrivals: 1 for Poisson,
  // strictly larger for an MMPP with distinct state rates.
  BurstyOptions options;
  options.rate_qps = 2'000.0;
  options.burst_factor = 10.0;
  constexpr std::size_t kSamples = 100'000;
  const auto times = bursty_arrivals(options, 4)->take(kSamples);
  std::vector<double> gaps(kSamples);
  double prev = 0.0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    gaps[i] = times[i] - prev;
    prev = times[i];
  }
  const double mean =
      std::accumulate(gaps.begin(), gaps.end(), 0.0) / kSamples;
  double var = 0.0;
  for (const double g : gaps) var += (g - mean) * (g - mean);
  var /= kSamples;
  EXPECT_GT(var / (mean * mean), 1.3);
}

TEST(ArrivalProcess, DiurnalLongRunRateIsCalibrated) {
  DiurnalOptions options;
  options.rate_qps = 1'000.0;
  options.period_ms = 2'000.0;
  constexpr std::size_t kSamples = 50'000;
  const auto times = diurnal_arrivals(options, 21)->take(kSamples);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  // Measure over whole periods only: the horizon of the last partial
  // period biases the rate estimate.
  const double whole =
      std::floor(times.back() / options.period_ms) * options.period_ms;
  const auto in_whole = static_cast<double>(
      std::upper_bound(times.begin(), times.end(), whole) - times.begin());
  const double measured_qps = 1000.0 * in_whole / whole;
  EXPECT_NEAR(measured_qps, options.rate_qps, 0.1 * options.rate_qps);
}

TEST(ArrivalProcess, ClosedLoopPaperPresetIsFixedInterval) {
  const TrafficProfile profile = gnutella_traffic_2006();
  const auto arrivals = closed_loop_paper_arrivals(profile);
  const double interval = 1000.0 / profile.queries_per_second;
  for (std::uint64_t i = 1; i <= 32; ++i) {
    EXPECT_EQ(arrivals->next_ms(), interval * static_cast<double>(i));
  }
  EXPECT_EQ(arrivals->nominal_qps(), profile.queries_per_second);
}

// ---------------------------------------------------------------------------
// Zipf catalog + churn

TEST(ZipfCatalog, RankFrequencySlopeMatchesExponent) {
  ZipfCatalogOptions options;
  options.objects = 256;
  options.zipf_exponent = 0.8;
  options.seed = 3;
  const ZipfCatalog catalog(1'000, options);

  constexpr std::size_t kDraws = 400'000;
  std::vector<std::size_t> counts(options.objects, 0);
  Rng rng(1234);
  for (std::size_t i = 0; i < kDraws; ++i) {
    ++counts[catalog.sample(rng)];
  }
  // Least-squares slope of log(freq) vs log(rank+1) over the hot head
  // (every head rank has thousands of samples, so counting noise is
  // far below the tolerance band).
  constexpr std::size_t kHead = 32;
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  for (std::size_t r = 0; r < kHead; ++r) {
    ASSERT_GT(counts[r], 0u);
    const double x = std::log(static_cast<double>(r + 1));
    const double y = std::log(static_cast<double>(counts[r]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double slope =
      (kHead * sxy - sx * sy) / (kHead * sxx - sx * sx);
  EXPECT_NEAR(slope, -options.zipf_exponent, 0.08);
}

TEST(ZipfCatalog, SampleIsPureInRngStream) {
  ZipfCatalogOptions options;
  options.objects = 64;
  const ZipfCatalog catalog(500, options);
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(catalog.sample(a), catalog.sample(b));
}

TEST(ZipfCatalog, ChurnKeepsLiveCountConsistent) {
  ZipfCatalogOptions options;
  options.objects = 48;
  options.replicas_per_object = 3;
  options.live_fraction = 0.75;
  options.seed = 11;
  ZipfCatalog catalog(300, options);
  EXPECT_EQ(catalog.live_count(), 36u);  // ceil(0.75 * 48)

  for (int step = 0; step < 2'000; ++step) {
    catalog.churn_step(nullptr);
    std::size_t live = 0;
    for (ObjectId o = 0; o < 48; ++o) {
      live += catalog.is_live(o) ? 1 : 0;
    }
    ASSERT_EQ(catalog.live_count(), live);
  }
  const auto& counters = catalog.churn_counters();
  EXPECT_GT(counters.births, 0u);
  EXPECT_GT(counters.deaths, 0u);
  EXPECT_GT(counters.drifts, 0u);
  EXPECT_GT(counters.replica_changes,
            counters.births + counters.deaths + counters.drifts);
}

// The churn property contract: a counting-ABF table maintained purely by
// incremental waves stays superset-sound vs a fresh rebuild ALWAYS, and
// on a bounded-degree graph (no counter saturation) it is bit-identical
// — which makes maintained-vs-rebuilt routing query-equivalent.
TEST(ZipfCatalogChurn, CountingWavesStayRebuildEquivalent) {
  constexpr std::size_t kNodes = 200;
  const Graph g = make_cycle(kNodes);
  const CsrGraph csr = CsrGraph::from_graph(g);

  ZipfCatalogOptions zopts;
  zopts.objects = 64;
  zopts.replicas_per_object = 3;
  zopts.live_fraction = 0.8;
  zopts.seed = 17;
  ZipfCatalog zipf(kNodes, zopts);

  AbfOptions aopts;
  aopts.layout = TableLayout::kBlockedDelta;
  aopts.blocked_level_bits = 256;
  aopts.counting_maintenance = true;
  AbfRouter maintained(csr, zipf.catalog(), aopts);

  Rng query_rng(5);
  for (int round = 0; round < 12; ++round) {
    // A burst of birth/death/drift interleavings through the waves.
    for (int step = 0; step < 25; ++step) {
      zipf.churn_step(&maintained);
    }

    const AbfRouter rebuilt(csr, zipf.catalog(), aopts);
    const BlockedAbfTable& live = *maintained.blocked_table();
    const BlockedAbfTable& want = *rebuilt.blocked_table();

    // Degree-2 cycle: 2-hop contributor counts stay far below the
    // 4-bit counter cap, so the maintained table must be exactly the
    // rebuilt one (the below-saturation contract) — which subsumes the
    // always-true superset direction.
    std::size_t saturated = 0;
    for (std::uint32_t v = 0; v < kNodes; ++v) {
      for (std::size_t l = 0; l < maintained.depth(); ++l) {
        saturated += maintained.counting_table()->saturated_count(v, l);
      }
    }
    ASSERT_EQ(saturated, 0u);
    for (std::uint32_t v = 0; v < kNodes; ++v) {
      for (std::size_t l = 0; l < live.depth(); ++l) {
        const std::uint64_t* lw = live.level_words(v, l);
        const std::uint64_t* ww = want.level_words(v, l);
        for (std::size_t w = 0; w < live.words_per_level(); ++w) {
          ASSERT_EQ(lw[w], ww[w])
              << "maintained != rebuilt at node " << v << " level " << l;
        }
      }
    }

    // Equal tables => equal routing. Spot-check with live-object queries
    // on lockstep RNG streams.
    for (int q = 0; q < 10; ++q) {
      const auto source =
          static_cast<NodeId>(query_rng.uniform_below(kNodes));
      const ObjectId object = zipf.sample(query_rng);
      Rng a = query_rng.split(q + 1);
      Rng b = a;
      const QueryResult ra = maintained.route(source, object, 32, a);
      const QueryResult rb = rebuilt.route(source, object, 32, b);
      ASSERT_EQ(ra.success, rb.success);
      ASSERT_EQ(ra.messages, rb.messages);
      ASSERT_EQ(ra.nodes_visited, rb.nodes_visited);
    }
  }
}

// ---------------------------------------------------------------------------
// Open-loop engine

bool aggregates_identical(const QueryAggregate& a, const QueryAggregate& b) {
  return a.queries() == b.queries() &&
         a.success_rate() == b.success_rate() &&
         a.mean_messages() == b.mean_messages() &&
         a.mean_duplicates() == b.mean_duplicates() &&
         a.mean_nodes_visited() == b.mean_nodes_visited() &&
         a.mean_replicas_found() == b.mean_replicas_found() &&
         a.hit_hops().mean() == b.hit_hops().mean() &&
         a.mean_messages_per_forwarder() == b.mean_messages_per_forwarder();
}

struct EngineFixture {
  EngineFixture() : graph(make_cycle(96)), csr(CsrGraph::from_graph(graph)) {
    ZipfCatalogOptions zopts;
    zopts.objects = 32;
    zopts.replicas_per_object = 3;
    zopts.seed = 7;
    zipf = std::make_unique<ZipfCatalog>(96, zopts);
    FloodOptions fopts;
    fopts.ttl = 6;
    engine = std::make_unique<FloodEngine>(csr, fopts);
  }

  Graph graph;
  CsrGraph csr;
  std::unique_ptr<ZipfCatalog> zipf;
  std::unique_ptr<FloodEngine> engine;
};

TEST(WorkloadEngine, OpenLoopAggregateMatchesDirectDriverBatch) {
  EngineFixture f;
  constexpr std::size_t kQueries = 200;
  constexpr std::uint64_t kSeed = 31;

  // Direct single-batch driver run: the reference fold.
  BatchQueryOptions batch;
  batch.queries = kQueries;
  batch.seed = kSeed;
  ParallelQueryDriver driver(1);
  const QueryAggregate want =
      driver.run_batch(*f.engine, f.zipf->catalog(), batch);

  // Same stream admitted open-loop in wall-clock-dependent slices (tiny
  // admission cap forces many of them).
  DriverQueryBackend::Options bopts;
  bopts.seed = kSeed;
  bopts.threads = 1;
  DriverQueryBackend backend(*f.engine, f.zipf->catalog(), bopts);
  const auto arrivals = poisson_arrivals(50'000.0, 3);
  OpenLoopOptions oopts;
  oopts.max_admission_batch = 7;
  OpenLoopEngine open_loop(backend);
  const OpenLoopReport report = open_loop.run(*arrivals, kQueries, oopts);

  EXPECT_TRUE(aggregates_identical(want, report.aggregate));
  EXPECT_EQ(report.offered, kQueries);
  EXPECT_GT(report.slices, 1u);
}

TEST(WorkloadEngine, AggregateInvariantUnderThreadsSlicingAndRepeats) {
  EngineFixture f;
  constexpr std::size_t kQueries = 160;

  const auto run_once = [&](std::size_t threads, std::size_t admission,
                            double rate) {
    DriverQueryBackend::Options bopts;
    bopts.seed = 77;
    bopts.threads = threads;
    bopts.object_sampler = [&](Rng& rng) { return f.zipf->sample(rng); };
    DriverQueryBackend backend(*f.engine, f.zipf->catalog(), bopts);
    const auto arrivals = poisson_arrivals(rate, 13);
    OpenLoopOptions oopts;
    oopts.max_admission_batch = admission;
    OpenLoopEngine open_loop(backend);
    return open_loop.run(*arrivals, kQueries, oopts).aggregate;
  };

  const QueryAggregate reference = run_once(1, 1024, 20'000.0);
  // 1/2/8 driver threads; arrival rates and admission caps that force
  // completely different slicings; a same-everything repeat.
  EXPECT_TRUE(aggregates_identical(reference, run_once(1, 1024, 20'000.0)));
  EXPECT_TRUE(aggregates_identical(reference, run_once(2, 1024, 20'000.0)));
  EXPECT_TRUE(aggregates_identical(reference, run_once(8, 1024, 20'000.0)));
  EXPECT_TRUE(aggregates_identical(reference, run_once(2, 1, 20'000.0)));
  EXPECT_TRUE(aggregates_identical(reference, run_once(8, 3, 500'000.0)));
  EXPECT_TRUE(aggregates_identical(reference, run_once(1, 1024, 100.0)));
}

/// Deterministic fake backend: `seconds_per_query` of virtual service,
/// recording every slice. Lets the engine's timing/boundary math be
/// asserted exactly, independent of real wall clocks.
class FakeBackend final : public QueryBackend {
 public:
  explicit FakeBackend(double seconds_per_query)
      : seconds_per_query_(seconds_per_query) {}

  double run_slice(std::uint64_t first, std::size_t count,
                   QueryAggregate& aggregate) override {
    slices.emplace_back(first, count);
    for (std::size_t q = 0; q < count; ++q) {
      QueryResult r;
      r.success = true;
      r.messages = 1;
      aggregate.add(r);
    }
    return seconds_per_query_ * static_cast<double>(count);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "fake";
  }

  std::vector<std::pair<std::uint64_t, std::size_t>> slices;

 private:
  double seconds_per_query_;
};

TEST(WorkloadEngine, ChurnBoundariesLandAtFixedStreamIndices) {
  FakeBackend backend(0.0005);
  std::vector<std::uint64_t> reached;
  OpenLoopOptions oopts;
  oopts.churn_every_queries = 10;
  oopts.max_admission_batch = 64;
  oopts.churn_hook = [&](std::uint64_t index) { reached.push_back(index); };
  const auto arrivals = poisson_arrivals(100'000.0, 8);
  OpenLoopEngine engine(backend);
  const OpenLoopReport report = engine.run(*arrivals, 95, oopts);

  // Hook fires at every interior multiple of 10 (not at 0, not past the
  // stream end), regardless of how admission sliced the queue.
  const std::vector<std::uint64_t> want = {10, 20, 30, 40, 50,
                                           60, 70, 80, 90};
  EXPECT_EQ(reached, want);
  // No slice crosses a boundary.
  for (const auto& [first, count] : backend.slices) {
    EXPECT_EQ(first / 10, (first + count - 1) / 10)
        << "slice [" << first << ", " << first + count << ") crosses a "
        << "churn boundary";
  }
  EXPECT_EQ(report.aggregate.queries(), 95u);
}

TEST(WorkloadEngine, VirtualClockAndSojournMathAreExact) {
  // Arrivals every 5 ms (closed-loop preset at 200 q/s), service 10 ms
  // per query: the queue grows without bound, makespan = first-arrival
  // idle + total service, and completed/offered -> 1/2.
  TrafficProfile profile;
  profile.queries_per_second = 200.0;
  const auto arrivals = closed_loop_paper_arrivals(profile);
  FakeBackend backend(0.010);
  OpenLoopEngine engine(backend);
  constexpr std::uint64_t kQueries = 64;
  const OpenLoopReport report = engine.run(*arrivals, kQueries, {});

  EXPECT_DOUBLE_EQ(report.horizon_ms, 5.0 * kQueries);
  EXPECT_NEAR(report.makespan_ms, 5.0 + 10.0 * kQueries, 1e-6);
  EXPECT_NEAR(report.completed_fraction(),
              (5.0 * kQueries) / (5.0 + 10.0 * kQueries), 1e-9);
  // The last query's sojourn is makespan - horizon, and the first query
  // of the final (batched) slice waited strictly longer — so the max is
  // bounded below by the lateness and above by the whole makespan.
  EXPECT_GE(report.max_sojourn_ms,
            report.makespan_ms - report.horizon_ms - 1e-6);
  EXPECT_LT(report.max_sojourn_ms, report.makespan_ms);
  EXPECT_GT(report.max_queue_depth, 1u);
  EXPECT_GT(report.p99_ms, report.p50_ms * 0.999);  // monotone percentiles
}

TEST(WorkloadEngine, FeedsSojournHistogramIntoCallerRegistry) {
  FakeBackend backend(0.001);
  obs::MetricsRegistry registry(1);
  OpenLoopOptions oopts;
  oopts.metrics = &registry;
  const auto arrivals = poisson_arrivals(10'000.0, 2);
  OpenLoopEngine engine(backend);
  const OpenLoopReport report = engine.run(*arrivals, 50, oopts);

  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricValue* sojourn = snap.find("workload.sojourn_ms");
  ASSERT_NE(sojourn, nullptr);
  EXPECT_EQ(sojourn->kind, obs::MetricKind::kHistogram);
  std::uint64_t total = 0;
  for (const std::uint64_t b : sojourn->buckets) total += b;
  EXPECT_EQ(total, 50u);
  EXPECT_NE(snap.find("workload.queue_depth"), nullptr);
  EXPECT_GT(report.p999_ms, 0.0);
}

// ---------------------------------------------------------------------------
// Saturation search

TEST(Saturation, BracketsAKnownCapacity) {
  // Fake backend with exactly 1000 q/s of service capacity.
  FakeBackend backend(0.001);
  SaturationOptions options;
  options.start_qps = 125.0;
  options.probe_queries = 400;
  options.bisection_steps = 5;
  const SaturationReport report = find_saturation(backend, options);

  EXPECT_TRUE(report.bracketed);
  EXPECT_GT(report.saturation_qps, 500.0);
  EXPECT_LT(report.saturation_qps, 1'500.0);
  EXPECT_GE(report.probes.size(), 5u);
  // The at-saturation re-run carries the percentile report.
  EXPECT_EQ(report.at_saturation.offered, 400u);
  EXPECT_GT(report.at_saturation.p50_ms, 0.0);
  EXPECT_LE(report.at_saturation.p50_ms, report.at_saturation.p99_ms);
  EXPECT_LE(report.at_saturation.p99_ms, report.at_saturation.p999_ms);
}

TEST(Saturation, RampsDownWhenStartRateIsBeyondCapacity) {
  FakeBackend backend(0.01);  // 100 q/s capacity
  SaturationOptions options;
  options.start_qps = 10'000.0;
  options.probe_queries = 300;
  const SaturationReport report = find_saturation(backend, options);

  EXPECT_TRUE(report.bracketed);
  EXPECT_GT(report.saturation_qps, 0.0);
  EXPECT_LT(report.saturation_qps, 150.0);
}

// ---------------------------------------------------------------------------
// Closed-loop paper preset parity (zero drift)

TEST(WorkloadClosedLoop, FloodBatchBitIdenticalToDirectRun) {
  const ConstantLatency latency(400);
  const BuiltTopology topology =
      build_topology(TopologyKind::kGnutellaV04, latency, 51);

  FloodExperimentOptions options;
  options.queries = 120;
  options.runs = 2;
  options.ttl = 5;
  options.seed = 9;
  const QueryAggregate want = run_flood_batch(topology, options);
  const QueryAggregate got = closed_loop_flood_batch(topology, options);
  EXPECT_TRUE(aggregates_identical(want, got));

  // Holds on the two-tier topology too (the other run_flood_batch arm).
  const BuiltTopology two_tier =
      build_topology(TopologyKind::kGnutellaV06, latency, 52);
  const QueryAggregate want2 = run_flood_batch(two_tier, options);
  const QueryAggregate got2 = closed_loop_flood_batch(two_tier, options);
  EXPECT_TRUE(aggregates_identical(want2, got2));
}

TEST(WorkloadClosedLoop, TrafficComparisonInjectionIsZeroDrift) {
  // The exact seam bench_table2_traffic uses: run_traffic_comparison
  // with the workload closed-loop admission injected must reproduce the
  // direct path bit for bit (the pre-PR golden aggregates).
  TrafficComparisonOptions options;
  options.nodes = 500;
  options.queries = 80;
  options.runs = 1;
  options.seed = 4;
  const TrafficComparisonResult want = run_traffic_comparison(options);

  options.flood_batch = [](const BuiltTopology& topology,
                           const FloodExperimentOptions& flood) {
    return closed_loop_flood_batch(topology, flood);
  };
  const TrafficComparisonResult got = run_traffic_comparison(options);

  EXPECT_EQ(want.makalu_messages_per_query, got.makalu_messages_per_query);
  EXPECT_EQ(want.makalu_mean_degree, got.makalu_mean_degree);
  EXPECT_EQ(want.makalu.queries_per_second, got.makalu.queries_per_second);
  EXPECT_EQ(want.makalu.forward_fanout, got.makalu.forward_fanout);
  EXPECT_EQ(want.makalu.measured_outgoing_kbps,
            got.makalu.measured_outgoing_kbps);
  EXPECT_EQ(want.makalu.observed_success_rate,
            got.makalu.observed_success_rate);
}

}  // namespace
}  // namespace makalu::workload
