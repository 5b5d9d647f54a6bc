// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
//             [--tiny] [--spans <path>]
//   perfbench --host-probe
//
// The last line of output is "PERFBENCH <json>", which perfbench/run.py
// turns into the benchmark's result line. Exit status 1 means a
// correctness check failed; 2 means bad arguments.
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

void usage() {
  std::cerr << "usage: perfbench --workload abf-zipf-openloop|"
               "flood-makalu-churn|proto-lossy-loopback --seed N "
               "--seconds S [--trace 0|1] [--tiny] [--spans PATH]\n"
               "       perfbench --host-probe\n";
}

void (*workload_fn(const std::string& name))(Context&) {
  if (name == "abf-zipf-openloop") return run_abf;
  if (name == "flood-makalu-churn") return run_flood;
  if (name == "proto-lossy-loopback") return run_proto;
  return nullptr;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

/// Wall seconds one span costs: open and close on a private tracer with a
/// name as long as the workloads' (median of five batches).
double span_cost_s() {
  std::vector<double> per_span;
  for (int batch = 0; batch < 5; ++batch) {
    Tracer t;
    t.set_enabled(true);
    constexpr int kSpans = 100'000;
    const Timer timer;
    for (int i = 0; i < kSpans; ++i) t.close(t.open("analysis.run_slice"));
    per_span.push_back(timer.seconds() / kSpans);
  }
  return median(per_span);
}

/// Adds the traced run's reconciliation: per-layer self time inside the
/// body, coverage, and the tracing overhead against the untraced pass run
/// before the traced one.
void reconcile(Context& ctx, double untraced_s) {
  const auto& records = tracer().records();
  Report& r = ctx.report;
  // The body's root span is record 0; everything it encloses descends
  // from it. Probes after end_body() are separate top-level spans.
  std::vector<bool> in_body(records.size(), false);
  std::size_t body_spans = 1;
  for (std::size_t i = 1; i < records.size(); ++i) {
    const int p = records[i].parent;
    in_body[i] = p == 0 || (p > 0 && in_body[static_cast<std::size_t>(p)]);
    if (in_body[i]) ++body_spans;
  }
  const double body = records[0].end_s - records[0].start_s;
  std::set<std::string> layers = {"topology", "graph", "core",
                                  "bloom",    "search", "analysis",
                                  "workload", "net",    "cluster"};
  std::vector<double> self(records.size(), 0.0);
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i != 0 && !in_body[i]) continue;
    self[i] += records[i].end_s - records[i].start_s;
    if (i != 0) self[static_cast<std::size_t>(records[i].parent)] -=
        records[i].end_s - records[i].start_s;
  }
  double layer_sum = 0.0;
  for (const std::string& layer : layers) {
    double sum = 0.0;
    for (std::size_t i = 1; i < records.size(); ++i) {
      if (!in_body[i]) continue;
      const std::string& name = records[i].name;
      if (name.compare(0, layer.size() + 1, layer + ".") == 0) sum += self[i];
    }
    layer_sum += sum;
    r.metric("self_s." + layer, sum, "s");
  }
  // The untraced wall time the layer self times must add up to. A
  // separate untraced pass is measured and printed, but the host's speed
  // moves by 10-30% between passes (abf passes once read 28.3 s and
  // 19.5 s around one traced pass), far more than tracing costs, so the
  // 10% rule is checked against the traced wall minus the spans' own
  // cost: the number of spans times the measured cost of one.
  const double modeled_overhead_s =
      static_cast<double>(body_spans) * span_cost_s();
  const double untraced_model_s = body - modeled_overhead_s;
  r.metric("self_s.bench", self[0], "s");
  r.metric("trace.body_wall_s", body, "s");
  r.metric("trace.untraced_wall_s", untraced_s, "s");
  r.metric("trace.overhead_s", body - untraced_s, "s");
  r.metric("trace.modeled_overhead_s", modeled_overhead_s, "s");
  r.metric("trace.coverage", body > 0.0 ? layer_sum / body : 0.0, "ratio");
  r.metric("trace.self_sum_vs_untraced",
           untraced_s > 0.0 ? layer_sum / untraced_s : 0.0, "ratio");
  r.note("trace: " + std::to_string(body_spans) + " spans; layer self " +
         "times sum to " + fmt(layer_sum, 3) + " s; traced wall " +
         fmt(body, 3) + " s; untraced pass " + fmt(untraced_s, 3) +
         " s (tracing overhead measured " + fmt(body - untraced_s, 3) +
         " s, spans x cost " + fmt(modeled_overhead_s, 3) + " s)");
  r.check(layer_sum >= 0.9 * body,
          "traced layer self times cover the traced wall time within 10%");
  r.check(std::fabs(layer_sum - untraced_model_s) <= 0.10 * untraced_model_s,
          "traced layer self times sum to the untraced wall time (traced "
          "wall minus spans x span cost) within 10%");
}

void emit(const Context& ctx) {
  const Report& r = ctx.report;
  for (const std::string& line : r.notes()) std::cout << "  " << line << "\n";
  for (const std::string& f : r.failures()) {
    std::cout << "  CHECK FAILED: " << f << "\n";
  }
  for (const Metric& m : r.metrics()) {
    std::cout << "  metric " << std::left << std::setw(36) << m.name << " "
              << json_number(m.value) << " " << m.unit << "\n";
  }
  std::ostringstream out;
  out << "{\"workload\": " << json_string(ctx.options.workload)
      << ", \"seed\": " << ctx.options.seed
      << ", \"seconds\": " << json_number(ctx.options.seconds)
      << ", \"tiny\": " << (ctx.options.tiny ? "true" : "false")
      << ", \"trace\": " << (ctx.options.trace ? "true" : "false")
      << ", \"service_threads\": 1"
      << ", \"correct\": " << (r.failures().empty() ? "true" : "false")
      << ", \"checks\": " << r.checks() << ", \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures().size(); ++i) {
    out << (i ? ", " : "") << json_string(r.failures()[i]);
  }
  out << "], \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics().size(); ++i) {
    const Metric& m = r.metrics()[i];
    out << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
        << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
        << "}";
  }
  out << "}, \"exact\": {";
  for (std::size_t i = 0; i < r.exacts().size(); ++i) {
    out << (i ? ", " : "") << json_string(r.exacts()[i].first) << ": "
        << json_number(r.exacts()[i].second);
  }
  out << "}, \"build\": {\"type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_string(PERFBENCH_COMPILER) << "}}";
  std::cout << "PERFBENCH " << out.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) try {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host-probe") return run_host_probe();
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--spans") {
      options.spans_path = value();
    } else {
      usage();
      return 2;
    }
  }
  const auto run = workload_fn(options.workload);
  if (run == nullptr || !(options.seconds > 0.0)) {
    usage();
    return 2;
  }

  Context ctx;
  ctx.options = options;
  if (!options.trace) {
    // Set-up is repeated and its median reported: three times for the
    // ~4-6 s abf build, five times for the sub-second ones.
    ctx.setups = options.tiny                           ? 2
                 : options.workload == "abf-zipf-openloop" ? 3
                                                           : 5;
    ctx.body_timer = Timer();
    run(ctx);
  } else {
    // An untraced pass, then the traced one (with its probes).
    const double untraced_s = [&] {
      Context reference;
      reference.options = options;
      reference.body_timer = Timer();
      run(reference);
      return reference.body_wall_s;
    }();
    tracer().set_enabled(true);
    ctx.probes = true;
    {
      Span root("bench.body");
      ctx.root = &root;
      ctx.body_timer = Timer();
      run(ctx);
      ctx.root = nullptr;
    }
    tracer().set_enabled(false);
    reconcile(ctx, untraced_s);
    if (!options.spans_path.empty() &&
        !tracer().write_json(options.spans_path)) {
      ctx.report.note("could not write spans to " + options.spans_path);
    }
  }
  emit(ctx);
  return ctx.report.failures().empty() ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "perfbench: error: " << e.what() << "\n";
  return 1;
}
