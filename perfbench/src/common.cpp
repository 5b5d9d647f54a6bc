#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>

#include "obs/memory.hpp"

namespace perfbench {

double now_s() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

// --- tracer ------------------------------------------------------------------

int Tracer::open(const char* name) {
  Record record;
  record.name = name;
  record.parent = stack_.empty() ? -1 : stack_.back();
  record.start_s = now_s();
  records_.push_back(std::move(record));
  const int id = static_cast<int>(records_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  records_[static_cast<std::size_t>(id)].end_s = now_s();
  // Spans close in LIFO order (RAII); tolerate an early stop() anyway.
  const auto it = std::find(stack_.begin(), stack_.end(), id);
  if (it != stack_.end()) stack_.erase(it, stack_.end());
}

namespace {

std::vector<double> self_times(const std::vector<Tracer::Record>& records) {
  std::vector<double> self(records.size(), 0.0);
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].end_s < 0.0) continue;
    self[i] += records[i].end_s - records[i].start_s;
    const int p = records[i].parent;
    if (p >= 0) self[static_cast<std::size_t>(p)] -=
        records[i].end_s - records[i].start_s;
  }
  return self;
}

}  // namespace

std::pair<double, std::size_t> Tracer::total(const std::string& name) const {
  double sum = 0.0;
  std::size_t count = 0;
  for (const Record& r : records_) {
    if (r.name != name || r.end_s < 0.0) continue;
    sum += r.end_s - r.start_s;
    ++count;
  }
  return {sum, count};
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = self_times(records_);
  const double origin = records_.empty() ? 0.0 : records_.front().start_s;
  out << std::setprecision(9) << "[\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << r.name
        << "\", \"start_s\": " << r.start_s - origin
        << ", \"end_s\": " << r.end_s - origin
        << ", \"parent\": " << r.parent << ", \"self_s\": " << self[i]
        << "}" << (i + 1 < records_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

// --- report ------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) failures_.push_back(what);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::exact(const std::string& name, double value) {
  exacts_.emplace_back(name, value);
}

void Context::end_body() {
  body_wall_s = body_timer.seconds();
  if (root != nullptr) root->stop();
}

// --- statistics --------------------------------------------------------------

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

double fast_tail(std::vector<double> chunk_costs) {
  return percentile(std::move(chunk_costs), 0.10);
}

double peak_rss_mb() {
  return static_cast<double>(makalu::obs::peak_rss_bytes()) /
         (1024.0 * 1024.0);
}

std::string fmt(double value, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << value;
  return out.str();
}

std::string fmt_list(const std::vector<double>& values, int precision) {
  std::string out;
  for (const double v : values) out += (out.empty() ? "" : " ") + fmt(v, precision);
  return out;
}

// --- host probe --------------------------------------------------------------

namespace {

/// Where each probe publishes its result, so its loop cannot be optimised
/// away.
volatile std::uint64_t g_probe_sink = 0;

/// A fixed dependent integer chain: register- and L1-resident, so its
/// time tracks core clock and scheduling, not memory.
double ref_cpu_ms() {
  const Timer timer;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < 60'000'000ULL; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms = timer.seconds() * 1e3;
  g_probe_sink = x;
  return ms;
}

/// A fixed dependent random walk over 256 MiB (well beyond a 105 MiB L3):
/// each load's address comes from the previous load, so the time tracks
/// memory latency.
double ref_mem_ms() {
  constexpr std::size_t kWords = std::size_t{1} << 25;  // 256 MiB
  const std::unique_ptr<std::uint64_t[]> buffer(new std::uint64_t[kWords]);
  std::uint64_t s = 0x2545f4914f6cdd1dULL;
  for (std::size_t i = 0; i < kWords; ++i) {
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    buffer[i] = z ^ (z >> 31);
  }
  const Timer timer;
  std::uint64_t index = 0;
  for (std::size_t step = 0; step < 2'000'000; ++step) {
    index = (buffer[index] + step) & (kWords - 1);
  }
  const double ms = timer.seconds() * 1e3;
  g_probe_sink = index;
  return ms;
}

}  // namespace

int run_host_probe() {
  const double cpu = ref_cpu_ms();
  const double mem = ref_mem_ms();
  std::cout << std::setprecision(6) << "{\"host.ref_cpu_ms\": " << cpu
            << ", \"host.ref_mem_ms\": " << mem << "}\n";
  return 0;
}

}  // namespace perfbench
