// Machine-readable bench artifacts: run metadata + phase timings + the
// full metrics snapshot, serialized as one BENCH_<name>.json document.
//
// Schema ("makalu.bench.v1"):
//   {
//     "schema": "makalu.bench.v1",
//     "bench": "<name>",
//     "git": "<git describe --always --dirty, or unknown>",
//     "config": {"n":..,"runs":..,"queries":..,"seed":..,"threads":..,
//                "paper":..},
//     "host": {"nproc":..,"cpu_model":..,"build_type":..,
//              "match_kernel":..,"driver_threads":..},
//     "wall_ms": <total wall time of the run>,
//     "phases": [{"name":..,"ms":..}, ...],
//     "metrics": {"<name>": {"kind":"counter","value":..} | gauge |
//                 histogram, ...}
//   }
//
// scripts/check_bench_json.py validates the schema; scripts/
// bench_compare.py diffs two documents and gates on metric regressions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "support/stopwatch.hpp"

namespace makalu::obs {

/// The machine and build a report was measured on. Timing gauges are
/// comparable only between reports whose host blocks agree, which is why
/// gates are same-host ratios and floors, never absolutes from elsewhere.
/// BenchReport fills nproc, cpu_model and build_type when left empty; the
/// bench layer, which links bloom and the driver, fills the other two.
struct HostInfo {
  std::size_t nproc = 0;   ///< hardware threads the process saw
  std::string cpu_model;   ///< /proc/cpuinfo "model name", or "unknown"
  std::string build_type;  ///< CMAKE_BUILD_TYPE of the library build
  /// ABF match kernel the run dispatched (bloom/filter_arena.hpp).
  std::string match_kernel = "unknown";
  /// Worker threads the bench's ParallelQueryDriver actually served with
  /// (its slot count); 0 when the bench records none.
  std::size_t driver_threads = 0;
};

struct BenchRunInfo {
  std::string bench;          ///< short name, e.g. "sec43_flood_efficiency"
  std::string git;            ///< filled by BenchReport if empty
  std::size_t n = 0;
  std::size_t runs = 0;
  std::size_t queries = 0;
  std::uint64_t seed = 0;
  std::size_t threads = 0;    ///< hardware concurrency the run saw
  bool paper = false;
  HostInfo host;
};

class BenchReport {
 public:
  explicit BenchReport(BenchRunInfo info);

  /// RAII phase span: records wall ms into the report on destruction.
  class Phase {
   public:
    Phase(BenchReport& report, std::string name)
        : report_(&report), name_(std::move(name)) {}
    Phase(Phase&& other) noexcept
        : report_(other.report_), name_(std::move(other.name_)) {
      other.report_ = nullptr;
    }
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;
    Phase& operator=(Phase&&) = delete;
    ~Phase() { stop(); }

    void stop() {
      if (report_ == nullptr) return;
      report_->add_phase(name_, watch_.millis());
      report_ = nullptr;
    }

   private:
    BenchReport* report_;
    std::string name_;
    Stopwatch watch_;
  };

  [[nodiscard]] Phase phase(std::string name) {
    return Phase(*this, std::move(name));
  }
  void add_phase(std::string name, double ms) {
    phases_.push_back({std::move(name), ms});
  }

  [[nodiscard]] const BenchRunInfo& info() const noexcept { return info_; }
  void set_driver_threads(std::size_t threads) noexcept {
    info_.host.driver_threads = threads;
  }

  /// Serializes the full document; `snapshot` is typically
  /// registry.snapshot().
  void write_json(std::ostream& os, const MetricsSnapshot& snapshot) const;

  /// Writes to `path`; returns false (and reports nothing else) when the
  /// file cannot be opened.
  [[nodiscard]] bool write_file(const std::string& path,
                                const MetricsSnapshot& snapshot) const;

  /// `git describe --always --dirty` of the checkout the library was built
  /// from (whatever the process's working directory), or "unknown" when
  /// git (or a repository) is unavailable.
  [[nodiscard]] static std::string git_describe();

 private:
  struct PhaseRecord {
    std::string name;
    double ms;
  };

  BenchRunInfo info_;
  std::vector<PhaseRecord> phases_;
  Stopwatch wall_;  ///< total run time, started at construction
};

}  // namespace makalu::obs
