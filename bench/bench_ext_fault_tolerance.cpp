// Extension bench — the protocol under injected faults.
//
// bench_ext_protocol shows the message-level protocol on a perfect wire;
// this binary breaks the wire on purpose. Every node's FaultShim drops
// messages on each of its links (one seeded verdict stream per link), and
// a CrashSchedule puts crash-stop failures into the middle of the
// bootstrap join storm, and the robustness layer
// (handshake retries, walk retries, Ping/Pong keepalive with dead-peer
// teardown, half-open reconciliation) has to dig the overlay out. The
// sweep reports, per (loss rate x crash fraction) cell:
//   1. whether the survivors still converge to a connected overlay,
//   2. what the recovery machinery costs in control traffic,
//   3. how much flooded-query success degrades vs the fault-free run.
// A second table drives the same loss rate and crash schedule through the
// churn simulator (crash-stop departures + lossy re-join handshakes).
#include "bench_common.hpp"

#include "graph/algorithms.hpp"
#include "net/latency_model.hpp"
#include "proto/network.hpp"
#include "search/churn.hpp"

namespace {

using namespace makalu;
using namespace makalu::proto;

struct CellResult {
  bool survivors_connected = false;
  double giant_fraction = 0.0;
  double converged_ms = 0.0;
  std::size_t crashed = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t dead_peers = 0;
  std::uint64_t half_open = 0;
  std::uint64_t dropped = 0;
  double query_success = 0.0;
};

CellResult run_cell(const LatencyModel& latency, const ObjectCatalog& catalog,
                    std::size_t n, std::size_t queries, std::uint64_t seed,
                    double loss, double crash_fraction,
                    obs::MetricsRegistry* metrics) {
  ProtocolOptions popts;
  const bool faulty = loss > 0.0 || crash_fraction > 0.0;
  popts.robustness.enabled = faulty;
  ProtocolNetwork network(latency, &catalog, popts, seed);
  if (faulty) {
    net::FaultShimOptions link;
    link.drop = loss;
    CrashSchedule crashes(seed ^ 0xfa117u);
    // Crashes land inside the join storm, so handshakes and walks die
    // mid-flight — the adversarial case the timers exist for.
    crashes.schedule_random_crashes(n, crash_fraction, 0.0,
                                    static_cast<double>(n) *
                                        popts.join_spacing_ms);
    network.attach_faults(link, seed ^ 0xfa117u, std::move(crashes));
  }

  CellResult cell;
  cell.converged_ms = network.bootstrap_all();
  const auto& t = network.traffic();
  cell.control_bytes = t.total_bytes;
  cell.retransmissions = t.retransmissions;
  cell.dead_peers = t.dead_peers_detected;
  cell.half_open = t.half_open_repairs;
  cell.dropped = t.dropped_messages + t.crash_drops;

  // Overlay health among the survivors: crashed nodes are dead weight by
  // definition, so connectivity is judged on the live induced subgraph.
  const Graph overlay = network.overlay_snapshot();
  const std::vector<bool> crashed = network.crashed_mask();
  for (NodeId v = 0; v < n; ++v) cell.crashed += crashed[v];
  const Graph live = overlay.remove_nodes(crashed, nullptr);
  const auto comps = connected_components(CsrGraph::from_graph(live));
  cell.survivors_connected = comps.count <= 1;
  cell.giant_fraction = static_cast<double>(comps.largest_size()) /
                        static_cast<double>(live.node_count());

  // Flooded queries from live sources (a crashed source cannot ask).
  Rng rng(seed ^ 0x9e77u);
  std::size_t hits = 0;
  for (std::size_t q = 0; q < queries; ++q) {
    NodeId source = kInvalidNode;
    do {
      source = static_cast<NodeId>(rng.uniform_below(n));
    } while (crashed[source]);
    const auto object =
        static_cast<ObjectId>(rng.uniform_below(catalog.object_count()));
    hits += network.run_query(source, object, 4).success;
  }
  cell.query_success =
      static_cast<double>(hits) / static_cast<double>(queries);
  // export_traffic_metrics is cumulative-add, so calling it once per
  // finished cell aggregates the whole grid's wire traffic (including the
  // reliability counters) into the JSON report.
  if (metrics != nullptr) {
    export_traffic_metrics(network.traffic(), *metrics);
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace makalu;
  const CliOptions options(argc, argv);
  const bool paper = options.paper_scale();
  const std::size_t n = options.nodes(paper ? 1'000 : 400);
  const std::size_t queries = options.queries(paper ? 80 : 40);
  const std::uint64_t seed = options.seed(42);
  bench::print_config("extension: fault tolerance under loss and crashes",
                      n, 1, queries, seed, paper);
  bench::BenchRun bench_run("ext_fault_tolerance", options, n, 1, queries,
                            seed);

  const EuclideanModel latency(n, seed ^ 0x9047);
  const ObjectCatalog catalog(n, 20, 0.01, seed ^ 5);

  const double losses[] = {0.0, 0.02, 0.05, 0.10};
  const double crash_fractions[] = {0.0, 0.05, 0.10};

  // Fault-free baseline first; every cell is judged against it.
  auto grid_phase = bench_run.phase("fault-grid");
  const CellResult baseline = run_cell(latency, catalog, n, queries, seed,
                                       0.0, 0.0, bench_run.metrics());

  Table table({"loss", "crashes", "survivors conn.", "giant", "success",
               "vs baseline", "retrans", "dead peers", "half-open",
               "ctrl bytes x"});
  bool acceptance_cell_ok = true;
  for (const double loss : losses) {
    for (const double crash : crash_fractions) {
      const CellResult cell =
          (loss == 0.0 && crash == 0.0)
              ? baseline
              : run_cell(latency, catalog, n, queries, seed, loss, crash,
                         bench_run.metrics());
      const double relative =
          baseline.query_success > 0.0
              ? cell.query_success / baseline.query_success
              : 0.0;
      table.add_row(
          {Table::percent(loss), Table::percent(crash),
           cell.survivors_connected ? "yes" : "no",
           Table::percent(cell.giant_fraction),
           Table::percent(cell.query_success), Table::percent(relative),
           Table::integer(static_cast<long long>(cell.retransmissions)),
           Table::integer(static_cast<long long>(cell.dead_peers)),
           Table::integer(static_cast<long long>(cell.half_open)),
           Table::num(static_cast<double>(cell.control_bytes) /
                          static_cast<double>(baseline.control_bytes),
                      2)});
      // Headline claim: 5% loss + 5% mid-bootstrap crashes still yields a
      // connected survivor overlay and >= 80% of baseline flood success.
      if (loss == 0.05 && crash == 0.05) {
        acceptance_cell_ok =
            cell.giant_fraction >= 0.99 && relative >= 0.8;
        bench_run.gauge("fault.acceptance_giant", cell.giant_fraction);
        bench_run.gauge("fault.acceptance_success_vs_baseline", relative);
      }
    }
  }
  grid_phase.stop();
  bench_run.gauge("fault.baseline_success", baseline.query_success);
  bench::emit(table, options.csv());
  std::cout << "\nretries and keepalive teardowns repair what the faults "
               "break: the survivor overlay stays (near-)connected and "
               "flooding keeps finding replicas, at the price of the "
               "retransmission/reconciliation traffic in the right-hand "
               "columns.\n";
  std::cout << (acceptance_cell_ok
                    ? "acceptance check passed: 5% loss + 5% crashes kept "
                      "the survivors connected at >= 80% of baseline "
                      "search success.\n"
                    : "ACCEPTANCE CHECK FAILED at 5% loss + 5% crashes.\n");

  // --- churn with crashes and link loss ---------------------------------------
  print_banner(std::cout, "churn with crash-stop failures and lossy joins");
  auto churn_phase = bench_run.phase("churn-with-faults");
  const OverlayBuilder builder;
  Table churn_table({"faults", "crashes", "failed joins", "departures",
                     "worst giant", "search success"});
  const struct {
    const char* label;
    double loss;
    double crash_fraction;
  } churn_cells[] = {
      {"none", 0.0, 0.0},
      {"5% loss", 0.05, 0.0},
      {"5% crashes", 0.0, 0.05},
      {"5% loss + 5% crashes", 0.05, 0.05},
  };
  for (const auto& cfg : churn_cells) {
    ChurnOptions copts;
    copts.seed = seed;
    copts.duration_ms = paper ? 240'000.0 : 120'000.0;
    copts.catalog = &catalog;
    copts.queries_per_sample = 20;
    copts.link_loss = cfg.loss;
    copts.crashes = CrashSchedule(seed ^ 0xc4a5u);
    copts.crashes.schedule_random_crashes(n, cfg.crash_fraction, 0.0,
                                          copts.duration_ms);
    const ChurnReport report = simulate_churn(builder, latency, copts);
    const double success = report.mean_search_success();
    churn_table.add_row(
        {cfg.label, Table::integer(static_cast<long long>(report.crashes)),
         Table::integer(static_cast<long long>(report.failed_joins)),
         Table::integer(static_cast<long long>(report.departures)),
         Table::percent(report.worst_giant_fraction()),
         success >= 0.0 ? Table::percent(success) : "n/a"});
  }
  churn_phase.stop();
  bench::emit(churn_table, options.csv());
  std::cout << "\ncrash-stop nodes never return, so the availability "
               "ceiling drops with every crash; lossy joins show up as "
               "failed-join retries, not as lost connectivity, because "
               "the retry keeps the node isolated-but-queued rather than "
               "half-joined.\n";
  return bench_run.finish() ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
