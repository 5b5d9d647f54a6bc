// Shared pieces of the perfbench driver: options, the span tracer, the
// result report, exact percentiles and the host probe.
//
// Spans are recorded from the benchmark side only, around calls into the
// library's public functions. A span's name is "<layer>.<call>"; its
// layer is the text before the first dot. Self time is a span's duration
// minus the durations of its direct children (the driver is single
// threaded, so children never overlap).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  bool trace = false;
  /// Tiny sizes for the self-test: every phase and check runs, in a
  /// fraction of a second per workload.
  bool tiny = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string spans_path;
};

/// Seconds on the steady clock since an arbitrary fixed origin.
[[nodiscard]] double now_s();

class Tracer {
 public:
  struct Record {
    std::string name;
    double start_s = 0.0;
    double end_s = -1.0;
    int parent = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  int open(const char* name);
  void close(int id);

  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }
  /// Total duration and call count of spans with exactly this name.
  [[nodiscard]] std::pair<double, std::size_t> total(
      const std::string& name) const;
  /// Writes every span as JSON (name, start, end, parent, self).
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

Tracer& tracer();

/// RAII span: a no-op unless the tracer is enabled.
class Span {
 public:
  explicit Span(const char* name)
      : id_(tracer().enabled() ? tracer().open(name) : -1) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void stop() {
    if (id_ >= 0) tracer().close(id_);
    id_ = -1;
  }

 private:
  int id_;
};

/// Wall-clock stopwatch (seconds).
class Timer {
 public:
  Timer() : start_(now_s()) {}
  [[nodiscard]] double seconds() const { return now_s() - start_; }

 private:
  double start_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: metrics, counts and failed checks.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
  /// A human-readable detail line (printed, not part of the result).
  void note(const std::string& line);
  /// A deterministic output (a pure function of seed and run length),
  /// compared by run.py against the values recorded for the default seed.
  void exact(const std::string& name, double value);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }
  [[nodiscard]] const std::vector<std::string>& notes() const noexcept {
    return notes_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& exacts()
      const noexcept {
    return exacts_;
  }
  [[nodiscard]] std::size_t checks() const noexcept { return checks_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> exacts_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
  std::size_t checks_ = 0;
};

/// Exact percentile (linear interpolation between order statistics) of
/// `samples`, q in [0, 1]. Sorts a copy.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);
/// The fast tail of per-chunk costs: their 10th percentile. Host
/// interference (other tenants on the shared cores, caches and memory)
/// only ever adds time, and it comes in bursts that cover a few seconds
/// to a whole run, so a low percentile of many chunks spread over the run
/// tracks the program's own cost far more steadily than their median.
/// Used for every timed metric except setup_s.
[[nodiscard]] double fast_tail(std::vector<double> chunk_costs);

/// Process peak RSS in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// The benchmark-owned host probe: a fixed L1-resident integer loop and a
/// fixed dependent random walk over a buffer larger than the last-level
/// cache. Prints one JSON line.
int run_host_probe();

std::string fmt(double value, int precision = 4);
/// Space-separated fmt() of each value.
std::string fmt_list(const std::vector<double>& values, int precision);

/// One workload invocation. In a traced run main() calls the workload
/// twice: once untraced (the reference wall time) and once traced. The
/// body is everything from workload start until end_body(); what follows
/// (traced-run probes and checks that build a second copy of a structure)
/// is outside the measured wall time.
struct Context {
  Options options;
  std::size_t setups = 1;  ///< set-up repetitions (median reported)
  bool probes = false;     ///< run the traced-run probes after the body
  Report report;
  double body_wall_s = 0.0;

  /// Closes the body: records its wall time and the root span.
  void end_body();

  Timer body_timer;
  Span* root = nullptr;
};

void run_abf(Context& ctx);
void run_flood(Context& ctx);
void run_proto(Context& ctx);

}  // namespace perfbench
