// Microbenchmarks: Makalu overlay construction and the rating-function
// hot path, the candidate-gathering ablation (MH walk vs uniform oracle),
// and the maintenance-sweep comparison (legacy serial vs the
// deterministic sweep, inline and pooled) over a churn-damaged 20k-node
// overlay. The sweep comparison self-checks: before timing anything it
// runs the deterministic sweep inline and on a pool and aborts the whole
// binary if the resulting overlays are not bit-identical.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/overlay_builder.hpp"
#include "core/rating.hpp"
#include "core/rating_cache.hpp"
#include "net/latency_model.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace makalu;

void BM_OverlayBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const EuclideanModel latency(n, 42);
  const OverlayBuilder builder;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.build(latency, seed++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_OverlayBuild)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_OverlayBuildOracleCandidates(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const EuclideanModel latency(n, 42);
  MakaluParameters params;
  params.oracle_uniform_candidates = true;
  const OverlayBuilder builder(params);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.build(latency, seed++));
  }
}
BENCHMARK(BM_OverlayBuildOracleCandidates)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_RateNeighbors(benchmark::State& state) {
  const std::size_t n = 5000;
  const EuclideanModel latency(n, 42);
  const MakaluOverlay overlay = OverlayBuilder().build(latency, 7);
  RatingEngine engine(overlay.graph, latency);
  NodeId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.rate_neighbors(u));
    u = (u + 1) % static_cast<NodeId>(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RateNeighbors);

void BM_WorstNeighbor(benchmark::State& state) {
  const std::size_t n = 5000;
  const EuclideanModel latency(n, 42);
  const MakaluOverlay overlay = OverlayBuilder().build(latency, 7);
  RatingEngine engine(overlay.graph, latency);
  NodeId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.worst_neighbor(u));
    u = (u + 1) % static_cast<NodeId>(n);
  }
}
BENCHMARK(BM_WorstNeighbor);

void BM_MaintenanceRound(benchmark::State& state) {
  const std::size_t n = 2000;
  const EuclideanModel latency(n, 42);
  const OverlayBuilder builder;
  MakaluOverlay overlay = builder.build(latency, 7);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.maintenance_round(overlay, latency, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MaintenanceRound)->Unit(benchmark::kMillisecond);

// --- repair-sweep comparison over a churn-damaged large overlay ------------

/// One shared workload: a 20k-node overlay with 15% of its nodes
/// ungracefully departed (links severed), the situation every periodic
/// maintenance sweep faces under churn. Built once per binary run.
struct RepairWorkload {
  std::size_t n = 20'000;
  EuclideanModel latency;
  OverlayBuilder builder;
  MakaluOverlay damaged;
  std::vector<bool> active;

  RepairWorkload() : latency(n, 42) {
    damaged = builder.build(latency, 7);
    active.assign(n, true);
    Rng rng(1234);
    for (NodeId v = 0; v < n; ++v) {
      if (rng.chance(0.15)) {
        damaged.graph.isolate(v);
        active[v] = false;  // departed peers are offline, as in churn
      }
    }
  }

  static const RepairWorkload& get() {
    static const RepairWorkload workload;
    return workload;
  }
};

std::vector<std::vector<NodeId>> canonical_adjacency(const Graph& g) {
  std::vector<std::vector<NodeId>> adj(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto nbrs = g.neighbors(u);
    adj[u].assign(nbrs.begin(), nbrs.end());
    std::sort(adj[u].begin(), adj[u].end());
  }
  return adj;
}

std::size_t run_deterministic_repair(MakaluOverlay& overlay,
                                     CachedRatingEngine& context,
                                     const RepairWorkload& w,
                                     std::uint64_t seed, ThreadPool* pool) {
  SweepOptions sweep;
  sweep.seed = seed;
  sweep.active = &w.active;
  sweep.pool = pool;
  return w.builder.deterministic_sweep(overlay, context, sweep);
}

/// The timed comparison is only honest if every schedule produces the
/// same overlay; verify inline-vs-pooled bit-identity up front and refuse
/// to benchmark a diverging implementation.
bool verify_repair_determinism() {
  const RepairWorkload& w = RepairWorkload::get();
  MakaluOverlay inline_run = w.damaged;
  CachedRatingEngine inline_cache(inline_run.graph, w.latency,
                                  w.builder.parameters().weights);
  const std::size_t inline_changes =
      run_deterministic_repair(inline_run, inline_cache, w, 99, nullptr);
  ThreadPool pool(4);
  MakaluOverlay pooled_run = w.damaged;
  CachedRatingEngine pooled_cache(pooled_run.graph, w.latency,
                                  w.builder.parameters().weights);
  const std::size_t pooled_changes =
      run_deterministic_repair(pooled_run, pooled_cache, w, 99, &pool);
  if (inline_changes != pooled_changes ||
      canonical_adjacency(inline_run.graph) !=
          canonical_adjacency(pooled_run.graph)) {
    std::fprintf(stderr,
                 "FATAL: deterministic repair sweep diverged between the "
                 "inline and pooled schedules (changes %zu vs %zu) — "
                 "refusing to report timings for a broken invariant\n",
                 inline_changes, pooled_changes);
    std::exit(1);
  }
  return true;
}

void divergence_check_once() {
  static const bool checked = verify_repair_determinism();
  (void)checked;
}

void BM_RepairSweepLegacy(benchmark::State& state) {
  const RepairWorkload& w = RepairWorkload::get();
  divergence_check_once();
  Rng rng(17);
  for (auto _ : state) {
    state.PauseTiming();
    MakaluOverlay overlay = w.damaged;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        w.builder.maintenance_round(overlay, w.latency, rng, &w.active));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.n));
}
BENCHMARK(BM_RepairSweepLegacy)->Unit(benchmark::kMillisecond);

void BM_RepairSweepCachedInline(benchmark::State& state) {
  const RepairWorkload& w = RepairWorkload::get();
  divergence_check_once();
  std::uint64_t seed = 23;
  for (auto _ : state) {
    // Copy + context set-up sit outside the timed region: under churn the
    // context persists across sweeps, so per-sweep cost is what matters.
    state.PauseTiming();
    MakaluOverlay overlay = w.damaged;
    CachedRatingEngine cache(overlay.graph, w.latency,
                             w.builder.parameters().weights);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        run_deterministic_repair(overlay, cache, w, seed++, nullptr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.n));
}
BENCHMARK(BM_RepairSweepCachedInline)->Unit(benchmark::kMillisecond);

void BM_RepairSweepCachedParallel(benchmark::State& state) {
  const RepairWorkload& w = RepairWorkload::get();
  divergence_check_once();
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::uint64_t seed = 23;  // same seeds as inline: same repairs, by design
  for (auto _ : state) {
    state.PauseTiming();
    MakaluOverlay overlay = w.damaged;
    CachedRatingEngine cache(overlay.graph, w.latency,
                             w.builder.parameters().weights);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        run_deterministic_repair(overlay, cache, w, seed++, &pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.n));
}
BENCHMARK(BM_RepairSweepCachedParallel)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
