// Extension bench — the protocol on a real lossy wire.
//
// Every other bench runs the protocol inside one process on a virtual
// clock; this one spawns `makalu_node` OS processes that speak the wire
// codec over loopback UDP, behind per-link fault shims, under a chaos
// controller that SIGKILLs a fraction of them mid-run and partitions the
// survivors. Three live cells are judged against the *in-memory*
// zero-fault ProtocolNetwork running the identical scenario (same seed
// -> same latency oracle, catalog, capacities):
//   1. zero faults  — the live stack should match the simulator: every
//      node converges, reliability counters stay ~0, queries succeed.
//   2. 5% loss + 5% crashes — the bench_compare.py floor cell.
//   3. 5% loss + 10% crashes + a 25% partition/heal — the headline
//      acceptance cell: survivors re-converge and flood success holds
//      >= 95% of the in-memory baseline.
// The per-process metric dumps (wire traffic, shim verdicts, reliability
// counters, codec rejects) are aggregated into the makalu.bench.v1 JSON
// under the cluster.* namespace.
//
// The node binary is found with --node-bin, the MAKALU_NODE_BIN env var,
// or (default) next to this bench in the build tree.
#include <unistd.h>

#include <cstdlib>

#include "bench_common.hpp"

#include "cluster/control.hpp"
#include "cluster/driver.hpp"
#include "cluster/live_node.hpp"
#include "proto/network.hpp"

namespace {

using namespace makalu;
using cluster::ClusterDriver;
using cluster::ClusterOptions;
using cluster::ClusterReport;

struct BaselineResult {
  double converged_ms = 0.0;
  double query_success = 0.0;
  std::uint64_t total_messages = 0;
};

// The simulated twin of the live cluster: same scenario derivation, same
// protocol options, same codec frames — on a loopback hub in virtual
// time, with no faults attached.
BaselineResult run_inmemory_baseline(std::size_t n, std::size_t objects,
                                     double replication, std::size_t queries,
                                     std::uint8_t ttl, std::uint64_t seed,
                                     obs::MetricsRegistry* metrics) {
  const EuclideanModel latency = cluster::scenario_latency(n, seed);
  const ObjectCatalog catalog =
      cluster::scenario_catalog(n, objects, replication, seed);
  proto::ProtocolNetwork network(latency, &catalog,
                                 cluster::live_protocol_options(), seed);
  BaselineResult baseline;
  baseline.converged_ms = network.bootstrap_all();
  Rng rng(seed ^ 0xba5e11e5u);
  std::size_t hits = 0;
  for (std::size_t q = 0; q < queries; ++q) {
    const auto source = static_cast<NodeId>(rng.uniform_below(n));
    const auto object =
        static_cast<ObjectId>(rng.uniform_below(catalog.object_count()));
    hits += network.run_query(source, object, ttl).success;
  }
  baseline.query_success =
      queries == 0 ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(queries);
  baseline.total_messages = network.traffic().total_messages;
  if (metrics != nullptr) {
    proto::export_traffic_metrics(network.traffic(), *metrics);
  }
  return baseline;
}

struct LiveCell {
  bool started = false;
  bool converged = false;     // bootstrap
  bool reconverged = true;    // after kills / heal (true when no chaos)
  double partition_giant = 1.0;  // survivor giant fraction mid-partition
  ClusterReport report;
};

LiveCell run_live_cell(const std::string& node_bin, std::size_t n,
                       std::size_t objects, double replication,
                       std::size_t queries, std::uint64_t seed, double drop,
                       double kill_fraction, bool exercise_partition) {
  ClusterOptions copts;
  copts.node_binary = node_bin;
  copts.node_count = n;
  copts.seed = seed;
  copts.object_count = objects;
  copts.replication_ratio = replication;
  copts.drop = drop;

  ClusterDriver driver(copts);
  LiveCell cell;
  cell.started = driver.start();
  if (!cell.started) {
    cell.report = driver.finish();
    return cell;
  }
  cell.converged = driver.converge(copts.convergence_timeout_ms);
  // First half of the queries hits the intact overlay, the second half
  // runs after the chaos, so the cell's success rate prices in both.
  (void)driver.run_queries(queries - queries / 2);
  if (kill_fraction > 0.0) {
    (void)driver.kill_fraction(kill_fraction);
    cell.reconverged = driver.converge(copts.convergence_timeout_ms);
  }
  if (exercise_partition) {
    driver.partition(0.25);
    cell.partition_giant = driver.giant_fraction();
    driver.heal();
    cell.reconverged =
        driver.converge(copts.convergence_timeout_ms) && cell.reconverged;
  }
  (void)driver.run_queries(queries / 2);
  cell.report = driver.finish();
  return cell;
}

std::uint64_t aggregate_value(const ClusterReport& report,
                              const std::string& key) {
  const auto it = report.aggregate.find(key);
  return it == report.aggregate.end() ? 0 : it->second;
}

// Folds one cell's summed per-process metric dump into the JSON report
// (cumulative-add, mirroring export_traffic_metrics).
void export_cluster_metrics(const ClusterReport& report,
                            bench::BenchRun& bench_run) {
  for (const auto& [key, value] : report.aggregate) {
    bench_run.count("cluster." + key, value);
  }
}

// Resolves the makalu_node binary: flag, env, or sibling build directory.
std::string find_node_binary(const CliOptions& options, const char* argv0) {
  if (const auto flag = options.get("node-bin")) return *flag;
  if (const char* env = std::getenv("MAKALU_NODE_BIN")) return env;
  std::string self = argv0;
  const std::size_t slash = self.rfind('/');
  self.resize(slash == std::string::npos ? 0 : slash);
  return self + "/../src/makalu_node";
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace makalu;
  const CliOptions options(argc, argv, {"node-bin"});
  const bool paper = options.paper_scale();
  const std::size_t n = options.nodes(paper ? 128 : 64);
  const std::size_t queries = options.queries(paper ? 80 : 40);
  const std::uint64_t seed = options.seed(42);
  const std::size_t objects = 64;
  // ~3 replicas per object at n=64: crash-stops then degrade query
  // success by lost *reachability*, not by wiping sole replicas — the
  // effect the >= 95%-of-baseline acceptance bar is meant to price.
  const double replication = 0.05;
  const std::uint8_t ttl = ClusterOptions{}.query_ttl;
  const std::string node_bin = find_node_binary(options, argv[0]);
  if (::access(node_bin.c_str(), X_OK) != 0) {
    std::cerr << "error: makalu_node binary not found at " << node_bin
              << " (pass --node-bin or set MAKALU_NODE_BIN)\n";
    return 1;
  }

  bench::print_config("extension: live multi-process cluster over UDP", n, 1,
                      queries, seed, paper);
  bench::BenchRun bench_run("ext_cluster", options, n, 1, queries, seed);

  auto baseline_phase = bench_run.phase("inmemory-baseline");
  const BaselineResult baseline = run_inmemory_baseline(
      n, objects, replication, queries, ttl, seed, bench_run.metrics());
  baseline_phase.stop();
  bench_run.gauge("cluster.baseline_success", baseline.query_success);

  const struct {
    const char* label;
    const char* phase;
    double drop;
    double kill_fraction;
    bool exercise_partition;
  } cells[] = {
      {"zero faults", "live-zero-fault", 0.0, 0.0, false},
      {"5% loss + 5% crashes", "live-loss-crash", 0.05, 0.05, false},
      {"5% loss + 10% crashes + part.", "live-chaos", 0.05, 0.10, true},
  };

  Table table({"cell", "spawned", "survivors", "conv.", "giant", "success",
               "vs in-mem", "retrans", "dead peers", "shim drops"});
  bool acceptance_ok = true;
  for (const auto& cfg : cells) {
    auto phase = bench_run.phase(cfg.phase);
    const LiveCell cell =
        run_live_cell(node_bin, n, objects, replication, queries, seed,
                      cfg.drop, cfg.kill_fraction, cfg.exercise_partition);
    phase.stop();
    if (!cell.started) {
      std::cerr << "error: cluster '" << cfg.label
                << "' failed to spawn/register all nodes\n";
      return 1;
    }
    const ClusterReport& report = cell.report;
    const double success = report.queries.success_rate();
    const double relative = baseline.query_success > 0.0
                                ? success / baseline.query_success
                                : 0.0;
    export_cluster_metrics(report, bench_run);
    table.add_row(
        {cfg.label, Table::integer(static_cast<long long>(report.spawned)),
         Table::integer(static_cast<long long>(report.survivors)),
         cell.converged && cell.reconverged ? "yes" : "no",
         Table::percent(report.giant_fraction), Table::percent(success),
         Table::percent(relative),
         Table::integer(static_cast<long long>(
             aggregate_value(report, "retransmissions"))),
         Table::integer(static_cast<long long>(
             aggregate_value(report, "dead_peers_detected"))),
         Table::integer(static_cast<long long>(
             aggregate_value(report, "shim_dropped")))});

    if (cfg.drop == 0.0 && cfg.kill_fraction == 0.0) {
      bench_run.gauge("cluster.zero_fault_success", success);
      bench_run.gauge("cluster.zero_fault_success_vs_baseline", relative);
    } else if (cfg.kill_fraction == 0.05) {
      // The bench_compare.py floor cell (EXPERIMENTS.md documents the
      // --require invocation that gates these two gauges).
      bench_run.gauge("cluster.success_5loss_5crash", success);
      bench_run.gauge("cluster.success_5loss_5crash_vs_baseline", relative);
      bench_run.gauge("cluster.giant_5loss_5crash", report.giant_fraction);
    } else {
      // Headline acceptance: after 5% loss, 10% SIGKILLs, and a healed
      // partition, the survivors are one component and flood success is
      // within 5% of the perfect-wire in-memory twin.
      acceptance_ok = cell.converged && cell.reconverged &&
                      report.giant_fraction >= 0.99 && relative >= 0.95;
      bench_run.gauge("cluster.success", success);
      bench_run.gauge("cluster.success_vs_inmem_baseline", relative);
      bench_run.gauge("cluster.giant_fraction", report.giant_fraction);
      bench_run.gauge("cluster.partition_giant_fraction",
                      cell.partition_giant);
      bench_run.gauge("cluster.survivors",
                      static_cast<double>(report.survivors));
      if (report.queries.succeeded > 0) {
        bench_run.gauge("cluster.mean_response_ms",
                        report.queries.total_response_ms /
                            static_cast<double>(report.queries.succeeded));
      }
    }
  }
  bench::emit(table, options.csv());
  std::cout << "\nthe zero-fault row is the transport-equivalence check: a "
               "real UDP wire with no injected faults should look like the "
               "simulator (full giant component, idle reliability "
               "counters). the chaos rows price real datagram loss, "
               "SIGKILL crash-stops, and a healed 25% partition; keepalive "
               "teardown plus re-joins keep the survivor overlay whole, so "
               "flooding keeps finding replicas.\n";
  std::cout << (acceptance_ok
                    ? "acceptance check passed: 5% loss + 10% crashes + "
                      "partition/heal kept the survivors connected at >= "
                      "95% of the in-memory baseline success.\n"
                    : "ACCEPTANCE CHECK FAILED at 5% loss + 10% crashes.\n");
  return bench_run.finish() ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
