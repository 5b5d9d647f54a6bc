#include "obs/bench_report.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <thread>

#include "obs/json_writer.hpp"

// Set by src/CMakeLists.txt; a build that does not set them says so, or
// describes the working directory.
#ifndef MAKALU_BUILD_TYPE
#define MAKALU_BUILD_TYPE "unknown"
#endif
#ifndef MAKALU_SOURCE_DIR
#define MAKALU_SOURCE_DIR "."
#endif

namespace makalu::obs {

namespace {

/// The first "model name" line of /proc/cpuinfo, or "unknown".
std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    if (start == std::string::npos) break;
    return line.substr(start);
  }
  return "unknown";
}

}  // namespace

BenchReport::BenchReport(BenchRunInfo info) : info_(std::move(info)) {
  if (info_.git.empty()) info_.git = git_describe();
  HostInfo& host = info_.host;
  if (host.nproc == 0) host.nproc = std::thread::hardware_concurrency();
  if (host.cpu_model.empty()) host.cpu_model = cpu_model();
  if (host.build_type.empty()) host.build_type = MAKALU_BUILD_TYPE;
}

std::string BenchReport::git_describe() {
  // popen is fine here: this runs once per bench process, never in a hot
  // or deterministic path. It asks the checkout the library was built
  // from, so a bench started from any directory reports its commit.
  // stderr is dropped so a tree without git stays quiet.
  const std::string command = std::string("git -C '") + MAKALU_SOURCE_DIR +
                              "' describe --always --dirty 2>/dev/null";
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  char buffer[128] = {};
  std::string out;
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) out += buffer;
  const int status = ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  if (status != 0 || out.empty()) return "unknown";
  return out;
}

void BenchReport::write_json(std::ostream& os,
                             const MetricsSnapshot& snapshot) const {
  JsonWriter json(os);
  json.begin_object();
  json.key("schema").value("makalu.bench.v1");
  json.key("bench").value(info_.bench);
  json.key("git").value(info_.git);
  json.key("config");
  json.begin_object();
  json.key("n").value(static_cast<std::uint64_t>(info_.n));
  json.key("runs").value(static_cast<std::uint64_t>(info_.runs));
  json.key("queries").value(static_cast<std::uint64_t>(info_.queries));
  json.key("seed").value(info_.seed);
  json.key("threads").value(static_cast<std::uint64_t>(info_.threads));
  json.key("paper").value(info_.paper);
  json.end_object();
  json.key("host");
  json.begin_object();
  json.key("nproc").value(static_cast<std::uint64_t>(info_.host.nproc));
  json.key("cpu_model").value(info_.host.cpu_model);
  json.key("build_type").value(info_.host.build_type);
  json.key("match_kernel").value(info_.host.match_kernel);
  json.key("driver_threads")
      .value(static_cast<std::uint64_t>(info_.host.driver_threads));
  json.end_object();
  json.key("wall_ms").value(wall_.millis());
  json.key("phases");
  json.begin_array();
  for (const PhaseRecord& p : phases_) {
    json.begin_object();
    json.key("name").value(p.name);
    json.key("ms").value(p.ms);
    json.end_object();
  }
  json.end_array();
  json.key("metrics");
  snapshot.write_json(json);
  json.end_object();
  os << '\n';
}

bool BenchReport::write_file(const std::string& path,
                             const MetricsSnapshot& snapshot) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  write_json(out, snapshot);
  return static_cast<bool>(out);
}

}  // namespace makalu::obs
