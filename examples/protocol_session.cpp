// Protocol session: watch the distributed Makalu protocol at work.
//
// Boots a small network message by message, then zooms into one node's
// life: what it sent and received to join, who it is connected to, what
// its cached routing tables look like, how it rates its neighbors — and
// finally runs a query over the wire, timing the reverse-path hit.
//
//   $ ./protocol_session [--n=400] [--seed=3]
#include <algorithm>
#include <iostream>

#include "graph/algorithms.hpp"
#include "graph/metrics.hpp"
#include "net/latency_model.hpp"
#include "proto/network.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) try {
  using namespace makalu;
  using namespace makalu::proto;
  const CliOptions options(argc, argv);
  const std::size_t n = options.nodes(400);
  const std::uint64_t seed = options.seed(3);

  const EuclideanModel latency(n, seed);
  const ObjectCatalog catalog(n, 12, 0.02, seed ^ 1);

  std::cout << "== bootstrapping " << n
            << " nodes over the wire ==========\n";
  ProtocolNetwork network(latency, &catalog, ProtocolOptions{}, seed);
  const double converged = network.bootstrap_all();

  const Graph overlay = network.overlay_snapshot();
  const CsrGraph csr = CsrGraph::from_graph(overlay);
  std::cout << "converged after " << Table::num(converged / 1000.0, 1)
            << " s of simulated time; " << network.traffic().total_messages
            << " control messages ("
            << network.traffic().total_bytes / 1024 << " KiB)\n"
            << "emergent overlay: "
            << (is_connected(csr) ? "connected" : "NOT connected")
            << ", mean degree " << Table::num(degree_stats(csr).mean, 1)
            << "\n\n";

  // Zoom into one node.
  const NodeId hero = static_cast<NodeId>(n / 2);
  const ProtocolNode& node = network.node(hero);
  std::cout << "== node " << hero << " ==========================\n"
            << "capacity " << node.capacity() << ", connected to "
            << node.degree() << " peers:\n";
  Table peers({"peer", "latency", "cached table size", "local rating"});
  // Ratings from the node's own cached state — exactly what it would
  // compute before pruning.
  auto ratings = node.rate_locally();
  for (const auto& neighbor : node.neighbors()) {
    double score = 0.0;
    for (const auto& r : ratings) {
      if (r.peer == neighbor.peer) score = r.score;
    }
    peers.add_row({Table::integer(neighbor.peer),
                   Table::num(neighbor.latency_ms, 1),
                   Table::integer(static_cast<long long>(
                       neighbor.table.size())),
                   Table::num(score, 3)});
  }
  peers.print(std::cout);
  std::cout << "(the lowest-rated peer above is the one Manage() would "
               "prune first if a better candidate knocked)\n\n";

  std::cout << "== a query over the wire =======================\n";
  Rng rng(seed ^ 2);
  const auto object = static_cast<ObjectId>(rng.uniform_below(12));
  const QueryOutcome outcome = network.run_query(hero, object, 4);
  std::cout << "node " << hero << " floods a TTL-4 query for object "
            << object << ":\n"
            << "  " << (outcome.success ? "HIT" : "miss") << " — "
            << outcome.hits << " hit(s) returned via reverse path, first "
            << "after " << Table::num(outcome.response_ms, 1)
            << " latency units\n"
            << "  " << outcome.query_messages << " query transmissions, "
            << outcome.hit_messages << " hit transmissions\n\n";

  // The same session on a broken wire: 5% message loss plus a handful of
  // crash-stop failures mid-bootstrap, survived by the robustness layer
  // (handshake/walk retries + Ping/Pong keepalive with dead-peer
  // teardown and half-open reconciliation).
  std::cout << "== the same bootstrap on a faulty wire =========\n";
  ProtocolOptions robust;
  robust.robustness.enabled = true;
  ProtocolNetwork faulty(latency, &catalog, robust, seed);
  net::FaultShimOptions link;
  link.drop = 0.05;
  link.jitter_ms = 2.0;
  CrashSchedule crashes(seed ^ 0xbad);
  crashes.schedule_random_crashes(n, 0.05, 0.0,
                                  static_cast<double>(n) * 5.0);
  faulty.attach_faults(link, seed ^ 0xbad, std::move(crashes));
  faulty.bootstrap_all();

  const auto crashed = faulty.crashed_mask();
  const Graph survivors =
      faulty.overlay_snapshot().remove_nodes(crashed, nullptr);
  const CsrGraph live_csr = CsrGraph::from_graph(survivors);
  const auto& t = faulty.traffic();
  std::cout << "crashed " << std::count(crashed.begin(), crashed.end(), true)
            << " nodes and dropped " << t.dropped_messages
            << " messages; survivor overlay: "
            << (is_connected(live_csr) ? "connected" : "NOT connected")
            << ", mean degree "
            << Table::num(degree_stats(live_csr).mean, 1) << "\n"
            << "recovery bill: " << t.retransmissions
            << " retransmissions, " << t.dead_peers_detected
            << " dead peers detected, " << t.half_open_repairs
            << " half-open links repaired\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
