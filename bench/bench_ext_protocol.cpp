// Extension bench — the message-level protocol run end to end.
//
// Everything else in bench/ studies the overlay as a graph; this binary
// runs the actual distributed protocol over the discrete-event engine and
// reports what only a wire-level view can show:
//   1. the emergent overlay's quality vs the direct (graph-level) builder,
//   2. the control-traffic bill of overlay construction, per message type,
//   3. query response latency with physical link latencies and
//      reverse-path query hits.
#include "bench_common.hpp"

#include "graph/algorithms.hpp"
#include "graph/metrics.hpp"
#include "net/latency_model.hpp"
#include "proto/network.hpp"
#include "spectral/laplacian.hpp"
#include "support/stats.hpp"

int main(int argc, char** argv) try {
  using namespace makalu;
  using namespace makalu::proto;
  const CliOptions options(argc, argv);
  const bool paper = options.paper_scale();
  const std::size_t n = options.nodes(paper ? 5'000 : 1'500);
  const std::size_t queries = options.queries(paper ? 100 : 40);
  const std::uint64_t seed = options.seed(42);
  bench::print_config("extension: message-level protocol simulation", n, 1,
                      queries, seed, paper);
  bench::BenchRun bench_run("ext_protocol", options, n, 1, queries, seed);

  const EuclideanModel latency(n, seed ^ 0x9047);
  const ObjectCatalog catalog(n, 20, 0.01, seed ^ 5);

  // --- 1. emergent vs direct overlay ---------------------------------------
  auto bootstrap_phase = bench_run.phase("bootstrap");
  ProtocolNetwork network(latency, &catalog, ProtocolOptions{}, seed);
  Stopwatch wall;
  const double converged_ms = network.bootstrap_all();
  const double build_wall_s = wall.seconds();
  bootstrap_phase.stop();
  bench_run.gauge("proto.converged_ms", converged_ms);

  const Graph emergent = network.overlay_snapshot();
  const MakaluOverlay direct = OverlayBuilder().build(latency, seed);

  Table quality({"overlay", "connected", "mean degree", "diameter",
                 "lambda_1"});
  auto add_quality_row = [&](const char* label, const Graph& graph) {
    const CsrGraph csr = CsrGraph::from_graph(graph);
    PathMetricsOptions pm;
    pm.include_costs = false;
    const auto metrics = compute_path_metrics(csr, pm);
    quality.add_row({label, is_connected(csr) ? "yes" : "no",
                     Table::num(degree_stats(csr).mean, 2),
                     Table::integer(metrics.diameter_hops),
                     Table::num(algebraic_connectivity(csr), 3)});
  };
  add_quality_row("emergent (message-level)", emergent);
  add_quality_row("direct (graph-level builder)", direct.graph);
  bench::emit(quality, options.csv());
  std::cout << "\nthe distributed protocol converges to the same "
               "expander-grade overlay the direct builder computes "
               "(simulated convergence: "
            << Table::num(converged_ms / 1000.0, 1) << " s of network "
            << "time, " << Table::num(build_wall_s, 1)
            << " s wall clock).\n";

  // --- 2. control-traffic bill ----------------------------------------------
  print_banner(std::cout, "overlay-construction control traffic");
  const auto& traffic = network.traffic();
  // The per-type message/byte counts and the PR-4 reliability counters
  // flow into the JSON report through the same registry the tables below
  // print from — bench_compare can then gate on the control-traffic bill.
  if (bench_run.enabled()) {
    export_traffic_metrics(traffic, *bench_run.metrics());
  }
  Table bill({"message type", "count", "bytes", "bytes/node"});
  const Payload samples[] = {ConnectRequest{}, ConnectAccept{},
                             ConnectReject{},  Disconnect{},
                             TableUpdate{},    WalkProbe{},
                             CandidateReply{}, Query{},
                             QueryHit{},       Ping{},
                             Pong{}};
  for (const auto& sample : samples) {
    const std::size_t index = payload_index(sample);
    if (traffic.count[index] == 0) continue;
    bill.add_row({payload_name(sample),
                  Table::integer(static_cast<long long>(
                      traffic.count[index])),
                  Table::integer(static_cast<long long>(
                      traffic.bytes[index])),
                  Table::num(static_cast<double>(traffic.bytes[index]) /
                                 static_cast<double>(n), 0)});
  }
  bill.add_row({"TOTAL",
                Table::integer(static_cast<long long>(
                    traffic.total_messages)),
                Table::integer(static_cast<long long>(traffic.total_bytes)),
                Table::num(static_cast<double>(traffic.total_bytes) /
                               static_cast<double>(n), 0)});
  bench::emit(bill, options.csv());

  Table reliability({"reliability counter", "value"});
  reliability.add_row({"dropped messages",
                       Table::integer(static_cast<long long>(
                           traffic.dropped_messages))});
  reliability.add_row({"dropped bytes",
                       Table::integer(static_cast<long long>(
                           traffic.dropped_bytes))});
  reliability.add_row({"crash drops",
                       Table::integer(static_cast<long long>(
                           traffic.crash_drops))});
  reliability.add_row({"retransmissions",
                       Table::integer(static_cast<long long>(
                           traffic.retransmissions))});
  reliability.add_row({"handshake timeouts",
                       Table::integer(static_cast<long long>(
                           traffic.handshake_timeouts))});
  reliability.add_row({"dead peers detected",
                       Table::integer(static_cast<long long>(
                           traffic.dead_peers_detected))});
  reliability.add_row({"half-open repairs",
                       Table::integer(static_cast<long long>(
                           traffic.half_open_repairs))});
  bench::emit(reliability, options.csv());
  std::cout << "\nall reliability counters stay zero on the perfect wire "
               "(this run) — they only move under injected faults; see "
               "bench_ext_fault_tolerance for the lossy/crashy sweeps.\n";
  std::cout << "\nconstruction cost is dominated by routing-table pushes "
               "and walk probes (tens of KB per node over the whole "
               "bootstrap; tune table_push_delay_ms to trade freshness "
               "for bandwidth) — still small next to a day of query "
               "traffic at Gnutella rates.\n";

  // --- 3. query response latency --------------------------------------------
  print_banner(std::cout, "query response latency (reverse-path hits)");
  auto query_phase = bench_run.phase("query-latency");
  Rng rng(seed ^ 77);
  OnlineStats response;
  SampleStats responses;
  std::size_t hits = 0;
  OnlineStats query_msgs;
  for (std::size_t q = 0; q < queries; ++q) {
    const auto source = static_cast<NodeId>(rng.uniform_below(n));
    const auto object = static_cast<ObjectId>(rng.uniform_below(20));
    const QueryOutcome outcome = network.run_query(source, object, 4);
    query_msgs.add(static_cast<double>(outcome.query_messages));
    if (outcome.success) {
      ++hits;
      if (outcome.response_ms > 0) {
        response.add(outcome.response_ms);
        responses.add(outcome.response_ms);
      }
    }
  }
  query_phase.stop();
  bench_run.gauge("proto.query_success", static_cast<double>(hits) /
                                             static_cast<double>(queries));
  bench_run.gauge("proto.query_msgs_mean", query_msgs.mean());
  Table latency_table({"metric", "value"});
  latency_table.add_row({"success rate",
                         Table::percent(static_cast<double>(hits) /
                                        static_cast<double>(queries))});
  latency_table.add_row({"query msgs/query", Table::num(query_msgs.mean(), 1)});
  if (response.count() > 0) {
    latency_table.add_row({"median response", Table::num(responses.median(), 0)});
    latency_table.add_row({"p90 response", Table::num(responses.percentile(90), 0)});
    latency_table.add_row({"max response", Table::num(response.max(), 0)});
  }
  bench::emit(latency_table, options.csv());
  std::cout << "\nresponse time = forward flood to the replica plus the "
               "reverse-path hit — a handful of physical RTTs, because "
               "Makalu keeps replicas within ~4 hops.\n";
  return bench_run.finish() ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
