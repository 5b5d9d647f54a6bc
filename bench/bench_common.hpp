// Shared plumbing for the experiment benches: standard option handling,
// banner/config printing, and the Makalu parameter presets matching the
// paper's two configurations.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <utility>

#include "analysis/topology_factory.hpp"
#include "bloom/filter_arena.hpp"
#include "obs/bench_report.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "support/cli.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace makalu::bench {

/// The paper's §3 topology-analysis configuration: mean node degree 10-12.
inline MakaluParameters analysis_makalu_parameters() {
  MakaluParameters p;
  p.capacity_min = 10;
  p.capacity_max = 14;
  return p;
}

/// The paper's §4/§5 search configuration: mean node degree ≈ 9.5
/// (library default).
inline MakaluParameters search_makalu_parameters() { return {}; }

inline void print_config(const std::string& name, std::size_t nodes,
                         std::size_t runs, std::size_t queries,
                         std::uint64_t seed, bool paper) {
  print_banner(std::cout, name);
  std::cout << "config: n=" << nodes << " runs=" << runs
            << " queries=" << queries << " seed=" << seed
            << (paper ? " [paper scale]" : " [laptop scale]") << "\n"
            << "(--n/--runs/--queries/--seed/--paper/--csv; paper values "
               "shown beside measurements)\n\n";
}

inline void emit(const Table& table, bool csv) {
  table.print(std::cout);
  if (csv) {
    std::cout << "\ncsv:\n";
    table.print_csv(std::cout);
  }
  std::cout.flush();
}

/// One bench run's observability bundle: a metrics registry, a
/// BenchReport (run metadata + phase spans), and the --json output path.
/// metrics() is null unless --json was given, so experiment code stays on
/// its zero-overhead path — adding a BenchRun to a bench changes nothing
/// until the flag is used. Phases are always timed (one stopwatch each);
/// finish() writes BENCH_<name>.json last thing before exit.
class BenchRun {
 public:
  BenchRun(std::string name, const CliOptions& cli, std::size_t n,
           std::size_t runs, std::size_t queries, std::uint64_t seed)
      : path_(cli.json_path()), report_(make_info(std::move(name), cli, n,
                                                  runs, queries, seed)) {}

  /// Registry to thread into experiment options; null when --json is
  /// absent (the universal "disabled" path).
  [[nodiscard]] obs::MetricsRegistry* metrics() {
    return enabled() ? &registry_ : nullptr;
  }
  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  /// RAII phase span recorded into the report.
  [[nodiscard]] obs::BenchReport::Phase phase(std::string name) {
    return report_.phase(std::move(name));
  }

  /// Records a headline result value (no-ops when disabled). These are
  /// what scripts/bench_compare.py diffs across runs, so record the
  /// numbers a regression should trip on.
  void gauge(const std::string& name, double value) {
    if (!enabled()) return;
    registry_.shard(0).gauge_set(registry_.gauge(name), value);
  }
  void count(const std::string& name, std::uint64_t delta) {
    if (!enabled()) return;
    registry_.shard(0).add(registry_.counter(name), delta);
  }
  /// Memory gauge helper: records `bytes` amortized over `n` nodes (the
  /// unit bench_compare.py ceiling-gates with --require-max).
  void bytes_per_node(const std::string& name, std::size_t bytes,
                      std::size_t n) {
    if (n == 0) return;
    gauge(name, static_cast<double>(bytes) / static_cast<double>(n));
  }
  [[nodiscard]] obs::BenchReport& report() { return report_; }

  /// Records the worker threads the bench's query driver served with
  /// (ParallelQueryDriver::slots()) in the report's host block.
  void driver_threads(std::size_t threads) {
    report_.set_driver_threads(threads);
  }

  /// Writes the JSON document when --json was given. Returns false only
  /// on a write failure (missing directory, unwritable path).
  /// Every report automatically carries the process's peak RSS (MB) so
  /// memory ceilings are checkable on any bench without per-bench code.
  bool finish() {
    if (!enabled()) return true;
    if (const std::size_t peak = obs::peak_rss_bytes(); peak > 0) {
      gauge("peak_rss_mb",
            static_cast<double>(peak) / (1024.0 * 1024.0));
    }
    if (!report_.write_file(path_, registry_.snapshot())) {
      std::cerr << "error: cannot write " << path_ << "\n";
      return false;
    }
    std::cout << "\njson report: " << path_ << "\n";
    return true;
  }

 private:
  static obs::BenchRunInfo make_info(std::string name, const CliOptions& cli,
                                     std::size_t n, std::size_t runs,
                                     std::size_t queries,
                                     std::uint64_t seed) {
    obs::BenchRunInfo info;
    info.bench = std::move(name);
    info.n = n;
    info.runs = runs;
    info.queries = queries;
    info.seed = seed;
    info.threads = static_cast<std::size_t>(cli.get_int("threads", 0));
    if (info.threads == 0) info.threads = std::thread::hardware_concurrency();
    info.paper = cli.paper_scale();
    info.host.match_kernel =
        std::string(match_kernel_name(resolved_match_kernel()));
    return info;
  }

  std::string path_;
  obs::MetricsRegistry registry_;
  obs::BenchReport report_;
};

}  // namespace makalu::bench
