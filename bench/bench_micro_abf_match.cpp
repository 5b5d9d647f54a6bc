// Microbench: raw arena match-kernel throughput (bloom/filter_arena).
//
// Isolates the ABF hot loop — score every stack of a neighbor row against
// a precomputed probe set — from routing, topology, and catalog noise.
// The pre-PR baseline scores heap-scattered per-arc filters exactly as
// the old router did, so `micro_abf.speedup` is the honest before/after
// for the SIMD/word-loop rewrite, floor-gated via bench_compare.py
// --require (see EXPERIMENTS.md for measured numbers and thresholds).
//
// Experiment-bench shape (not google-benchmark) so it emits a
// makalu.bench.v1 JSON document and rides the bench_smoke ctest label.
#include "bench_common.hpp"

#include <algorithm>
#include <vector>

#include "bloom/abf_table.hpp"
#include "bloom/attenuated_bloom_filter.hpp"
#include "bloom/filter_arena.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) try {
  using namespace makalu;
  const CliOptions options(argc, argv);
  const bool paper = options.paper_scale();
  // n plays its usual role (network size); arcs follow the search
  // overlay's mean degree ~9.5 so stride/locality match production use.
  // (Default below fig4's 20k: the realistic fills below cost ~1.3k
  // inserts per arc per table at build time.)
  const std::size_t n = options.nodes(paper ? 100'000 : 10'000);
  const std::size_t runs = options.runs(3);
  const std::size_t queries = options.queries(2'000);
  const std::uint64_t seed = options.seed(42);
  constexpr std::size_t kDepth = 3;
  constexpr std::size_t kDegree = 10;  // arcs scored per match_many row
  bench::print_config("micro: ABF arena match kernels", n, runs, queries,
                      seed, paper);
  bench::BenchRun bench_run("micro_abf_match", options, n, runs, queries,
                            seed);

  auto build_phase = bench_run.phase("build-arena");
  const std::size_t arcs = n * kDegree;
  const BloomParameters params{1024, 4};
  FilterArena arena(arcs, kDepth, params);
  // The pre-PR routing table, byte for byte: one AttenuatedBloomFilter
  // object per arc, each level a separately-allocated BloomFilter —
  // heap-scattered, hashed-and-divided on every probe. Filled with the
  // same keys as the arena so every baseline scores identical data.
  std::vector<AttenuatedBloomFilter> legacy;
  legacy.reserve(arcs);
  for (std::size_t arc = 0; arc < arcs; ++arc) {
    legacy.emplace_back(kDepth, params);
  }
  Rng fill(seed);
  // Fill levels to the densities the distance-vector build actually
  // produces (40 objects/node, mean degree ~9.5): level 0 summarises one
  // store (~14% fill), level 1 a neighborhood (~77%), level 2 a two-hop
  // ball (~97%, nearly saturated). Density is what decides the probe
  // count per level, so matching it keeps the kernel compare honest.
  constexpr std::size_t kInserts[kDepth] = {40, 376, 900};
  for (std::size_t arc = 0; arc < arcs; ++arc) {
    for (std::size_t level = 0; level < kDepth; ++level) {
      for (std::size_t i = 0; i < kInserts[level]; ++i) {
        const std::uint64_t key = fill();
        arena.insert(arc, level, key);
        legacy[arc].level(level).insert(key);
      }
    }
  }
  build_phase.stop();

  struct KernelCase {
    const char* label;
    const char* gauge;
    MatchKernel mode;
  };
  std::vector<KernelCase> kernels = {
      {"reference (pre-arena)", "micro_abf.scores_per_sec_reference",
       MatchKernel::kReference},
      {"portable word-loop", "micro_abf.scores_per_sec_portable",
       MatchKernel::kPortable},
  };
  if (resolved_match_kernel() == MatchKernel::kAvx2) {
    kernels.push_back(
        {"avx2 gather", "micro_abf.scores_per_sec_avx2", MatchKernel::kAvx2});
  }

  auto match_phase = bench_run.phase("match-kernels");
  Table table({"kernel", "wall ms", "stack scores/s", "speedup"});
  const std::size_t rows = arcs / kDegree;
  double baseline_rate = 0.0;
  double best_rate = 0.0;
  double checksum_baseline = 0.0;
  std::vector<std::uint32_t> masks(kDegree);

  // Pre-PR baseline: score the heap-scattered stacks exactly as the old
  // router did — one match_score call per neighbor, rehashing and
  // dividing per (level, probe). Scores are sums of distinct powers of
  // two, so checksums compare exactly against the mask kernels.
  {
    double best_ms = 0.0;
    for (std::size_t rep = 0; rep < runs; ++rep) {  // min-of-runs timing
      Rng keys(seed ^ 0xfeed);
      checksum_baseline = 0.0;
      Stopwatch timer;
      for (std::size_t q = 0; q < queries; ++q) {
        const std::uint64_t key = keys();
        const std::size_t row = (q * 97) % rows;
        for (std::size_t j = 0; j < kDegree; ++j) {
          checksum_baseline += legacy[row * kDegree + j].match_score(key);
        }
      }
      const double ms = timer.millis();
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    baseline_rate = static_cast<double>(queries) *
                    static_cast<double>(kDegree) / (best_ms / 1000.0);
    table.add_row({"pre-PR (heap per-arc filters)", Table::num(best_ms, 2),
                   Table::num(baseline_rate, 0), "1.00x"});
    bench_run.gauge("micro_abf.scores_per_sec_prepr", baseline_rate);
  }

  for (std::size_t k = 0; k < kernels.size(); ++k) {
    double best_ms = 0.0;
    double checksum = 0.0;
    for (std::size_t rep = 0; rep < runs; ++rep) {  // min-of-runs timing
      Rng keys(seed ^ 0xfeed);
      checksum = 0.0;
      Stopwatch timer;
      for (std::size_t q = 0; q < queries; ++q) {
        const BloomProbeSet probes = arena.make_probe_set(keys());
        // Stride through the arena one neighbor row at a time, as
        // routing does at each hop.
        const std::size_t row = (q * 97) % rows;
        arena.match_many(row * kDegree, kDegree, probes, masks.data(),
                         kernels[k].mode);
        for (const std::uint32_t mask : masks) {
          checksum += FilterArena::score_from_mask(mask);
        }
      }
      const double ms = timer.millis();
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    // Identical matches => identical checksum, bit for bit (sums of exact
    // powers of two). A kernel that diverges is a correctness bug, not a
    // measurement artefact.
    if (checksum != checksum_baseline) {
      std::cerr << "error: kernel " << kernels[k].label
                << " diverged from the pre-PR scores\n";
      return 1;
    }
    const double rate = static_cast<double>(queries) *
                        static_cast<double>(kDegree) / (best_ms / 1000.0);
    best_rate = rate;  // kernels are ordered slowest-first
    table.add_row({kernels[k].label, Table::num(best_ms, 2),
                   Table::num(rate, 0),
                   Table::num(rate / baseline_rate, 2) + "x"});
    bench_run.gauge(kernels[k].gauge, rate);
  }
  bench_run.gauge("micro_abf.scores_per_sec", best_rate);
  bench_run.gauge("micro_abf.speedup", best_rate / baseline_rate);
  match_phase.stop();
  bench::emit(table, options.csv());
  std::cout << "\none probe-set build amortises over the whole neighbor "
               "row; the word kernels replay it with no hashing or "
               "division per (arc, level).\n";

  // --- blocked layout (bloom/abf_table): one cache line per peer -----------
  // Base match + sparse delta veto, exactly the kBlockedDelta route hot
  // loop. Scores here are NOT comparable to the per-arc arena above (a
  // different filter per origin), so the contract is internal: every
  // blocked kernel — reference, portable word-loop, AVX2 gather — must
  // produce the identical checksum, pinning portable-vs-AVX2 equality on
  // the blocked gather too.
  {
    auto blocked_phase = bench_run.phase("blocked-kernels");
    print_banner(std::cout, "blocked layout: base + delta kernels");
    const std::size_t brows = n / kDegree;
    BlockedAbfTable blocked(n, kDepth,
                            BlockedAbfTable::auto_level_bits(kDepth), 3);
    // Fill 128-bit levels to roughly the per-node densities the blocked
    // build produces under the fig4 catalog (~15% / ~60% / ~90%).
    constexpr std::size_t kBlockedInserts[kDepth] = {6, 35, 95};
    Rng bfill(seed ^ 0xb10cULL);
    for (std::uint32_t node = 0; node < n; ++node) {
      for (std::size_t level = 0; level < kDepth; ++level) {
        for (std::size_t i = 0; i < kBlockedInserts[level]; ++i) {
          blocked.insert(node, level, bfill());
        }
      }
    }
    // Sparse sole-contributor deltas on a quarter of the arcs, two
    // positions each — the density rescan_deltas typically leaves.
    for (std::uint32_t owner = 0; owner < n; ++owner) {
      for (std::size_t arc = 0; arc < kDegree; arc += 4) {
        for (std::size_t level = 1; level < kDepth; ++level) {
          std::uint16_t a = static_cast<std::uint16_t>(
              bfill.uniform_below(blocked.bits_per_level()));
          std::uint16_t b = static_cast<std::uint16_t>(
              bfill.uniform_below(blocked.bits_per_level()));
          if (a > b) std::swap(a, b);
          if (a == b) continue;
          const std::uint16_t pos[2] = {a, b};
          blocked.set_arc_delta(owner, arc, level, pos);
        }
      }
    }

    std::vector<KernelCase> bkernels = {
        {"reference (per-hash modulus)",
         "micro_abf.blocked_scores_per_sec_reference",
         MatchKernel::kReference},
        {"portable word-loop", "micro_abf.blocked_scores_per_sec_portable",
         MatchKernel::kPortable},
    };
    if (resolved_match_kernel() == MatchKernel::kAvx2) {
      bkernels.push_back({"avx2 gather (4 stacks/pass)",
                          "micro_abf.blocked_scores_per_sec_avx2",
                          MatchKernel::kAvx2});
    }

    Table btable({"kernel", "wall ms", "stack scores/s", "speedup"});
    std::vector<std::uint32_t> origins(kDegree);
    double blocked_reference_rate = 0.0;
    double blocked_best_rate = 0.0;
    double blocked_checksum_baseline = 0.0;
    for (std::size_t k = 0; k < bkernels.size(); ++k) {
      double best_ms = 0.0;
      double checksum = 0.0;
      for (std::size_t rep = 0; rep < runs; ++rep) {
        Rng keys(seed ^ 0xfeedULL);
        checksum = 0.0;
        Stopwatch timer;
        for (std::size_t q = 0; q < queries; ++q) {
          const BlockedProbeSet probes = blocked.make_probe_set(keys());
          const std::size_t row = (q * 97) % brows;
          const auto base = static_cast<std::uint32_t>(row * kDegree);
          for (std::size_t j = 0; j < kDegree; ++j) {
            origins[j] = base + static_cast<std::uint32_t>(j);
          }
          blocked.match_nodes(origins.data(), kDegree, probes,
                              masks.data(), bkernels[k].mode);
          blocked.apply_deltas(base, probes, masks.data(), kDegree,
                               bkernels[k].mode);
          for (const std::uint32_t mask : masks) {
            checksum += FilterArena::score_from_mask(mask);
          }
        }
        const double ms = timer.millis();
        if (rep == 0 || ms < best_ms) best_ms = ms;
      }
      if (k == 0) {
        blocked_checksum_baseline = checksum;
      } else if (checksum != blocked_checksum_baseline) {
        std::cerr << "error: blocked kernel " << bkernels[k].label
                  << " diverged from the reference scores\n";
        return 1;
      }
      const double rate = static_cast<double>(queries) *
                          static_cast<double>(kDegree) /
                          (best_ms / 1000.0);
      if (k == 0) blocked_reference_rate = rate;
      blocked_best_rate = rate;  // ordered slowest-first
      btable.add_row({bkernels[k].label, Table::num(best_ms, 2),
                      Table::num(rate, 0),
                      Table::num(rate / blocked_reference_rate, 2) + "x"});
      bench_run.gauge(bkernels[k].gauge, rate);
    }
    bench_run.gauge("micro_abf.blocked_scores_per_sec", blocked_best_rate);
    bench_run.gauge("micro_abf.blocked_speedup",
                    blocked_best_rate / blocked_reference_rate);
    bench::emit(btable, options.csv());
    std::cout << "\nblocked stacks fit one 64-byte line per origin, so a "
                 "row of " << kDegree << " peers is " << kDegree
              << " line touches; all kernels above produced the identical "
                 "checksum.\n";

    // --- hub hop: the row shape that dominates perfbench abf ---------------
    // The Guclu & Yuksel hard cutoff caps hubs at sqrt(n) = 316 arcs at
    // 100k nodes, and with 1024-bit levels a hub's delta row holds ~5k
    // entries. One hub hop = base match over 316 scattered stacks (six
    // lines each) plus the veto over the whole row, which the AVX2 path
    // compares 8 entries at a time. Eight hubs rotate so the rows do not
    // all sit in L1.
    print_banner(std::cout, "hub hop: degree 316, 1024-bit levels");
    constexpr std::size_t kHubDegree = 316;
    constexpr std::size_t kHubs = 8;
    constexpr std::size_t kHubSetSize = 8;  // per (arc, level): ~5k per row
    BlockedAbfTable hub(n, kDepth, 1024, 4);
    constexpr std::size_t kHubInserts[kDepth] = {4, 60, 300};
    for (std::uint32_t node = 0; node < n; ++node) {
      for (std::size_t level = 0; level < kDepth; ++level) {
        for (std::size_t i = 0; i < kHubInserts[level]; ++i) {
          hub.insert(node, level, bfill());
        }
      }
    }
    std::vector<std::vector<std::uint32_t>> hub_rows(kHubs);
    std::vector<std::uint16_t> set;
    for (std::uint32_t owner = 0; owner < kHubs; ++owner) {
      for (std::size_t j = 0; j < kHubDegree; ++j) {
        hub_rows[owner].push_back(
            static_cast<std::uint32_t>(bfill.uniform_below(n)));
        for (std::size_t level = 1; level < kDepth; ++level) {
          set.clear();
          for (std::size_t i = 0; i < kHubSetSize; ++i) {
            set.push_back(static_cast<std::uint16_t>(
                bfill.uniform_below(hub.bits_per_level())));
          }
          std::sort(set.begin(), set.end());
          set.erase(std::unique(set.begin(), set.end()), set.end());
          hub.set_arc_delta(owner, j, level, set);
        }
      }
    }
    const std::size_t hub_row_entries = hub.owner_deltas(0).size();
    Table htable({"kernel", "wall ms", "hub hops/s", "veto entries/s"});
    std::vector<std::uint32_t> hub_masks(kHubDegree);
    double hub_checksum_baseline = 0.0;
    const std::size_t hub_queries = std::max<std::size_t>(queries / 4, 1);
    for (std::size_t k = 0; k < bkernels.size(); ++k) {
      double best_ms = 0.0;
      double best_veto_ms = 0.0;
      double checksum = 0.0;
      for (std::size_t rep = 0; rep < runs; ++rep) {
        Rng keys(seed ^ 0x4ab5ULL);
        checksum = 0.0;
        double veto_ms = 0.0;
        Stopwatch timer;
        for (std::size_t q = 0; q < hub_queries; ++q) {
          const BlockedProbeSet probes = hub.make_probe_set(keys());
          const auto owner = static_cast<std::uint32_t>(q % kHubs);
          hub.match_nodes(hub_rows[owner].data(), kHubDegree, probes,
                          hub_masks.data(), bkernels[k].mode);
          Stopwatch veto;
          hub.apply_deltas(owner, probes, hub_masks.data(), kHubDegree,
                           bkernels[k].mode);
          veto_ms += veto.millis();
          for (const std::uint32_t mask : hub_masks) {
            checksum += FilterArena::score_from_mask(mask);
          }
        }
        const double ms = timer.millis();
        if (rep == 0 || ms < best_ms) best_ms = ms;
        if (rep == 0 || veto_ms < best_veto_ms) best_veto_ms = veto_ms;
      }
      if (k == 0) {
        hub_checksum_baseline = checksum;
      } else if (checksum != hub_checksum_baseline) {
        std::cerr << "error: hub kernel " << bkernels[k].label
                  << " diverged from the reference scores\n";
        return 1;
      }
      const double hops = static_cast<double>(hub_queries) /
                          (best_ms / 1000.0);
      const double veto_rate = static_cast<double>(hub_queries) *
                               static_cast<double>(hub_row_entries) /
                               (best_veto_ms / 1000.0);
      htable.add_row({bkernels[k].label, Table::num(best_ms, 2),
                      Table::num(hops, 0), Table::num(veto_rate, 0)});
      const std::string suffix(match_kernel_name(bkernels[k].mode));
      bench_run.gauge("micro_abf.hub_hops_per_sec_" + suffix, hops);
      bench_run.gauge("micro_abf.hub_veto_entries_per_sec_" + suffix,
                      veto_rate);
    }
    bench_run.gauge("micro_abf.hub_row_entries",
                    static_cast<double>(hub_row_entries));
    blocked_phase.stop();
    bench::emit(htable, options.csv());
    std::cout << "\n" << hub_row_entries << "-entry delta row per hub; "
              << "all kernels above produced the identical checksum.\n";
  }
  return bench_run.finish() ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
