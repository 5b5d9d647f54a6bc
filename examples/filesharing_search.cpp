// File-sharing workload: the scenario the paper's introduction motivates.
//
// A library of files with Zipf popularity is spread over a Makalu overlay
// (popular files on many nodes, niche files on very few — replication
// tracks popularity, as in deployed file-sharing networks). A batch of
// queries, also Zipf-distributed, is then resolved three ways:
//
//   - controlled flooding   (wild-card search, §4.2)
//   - k-walker random walk  (the related-work baseline)
//   - ABF identifier routing (exact-name lookup, §4.6)
//
// and the cost/recall trade-off is printed per mechanism and per
// popularity band (head/torso/tail of the catalog).
#include <iostream>

#include "analysis/parallel_query_driver.hpp"
#include "core/overlay_builder.hpp"
#include "graph/graph.hpp"
#include "net/latency_model.hpp"
#include "search/abf_search.hpp"
#include "search/flood_search.hpp"
#include "search/random_walk_search.hpp"
#include "sim/query_stats.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

using namespace makalu;

// Popularity-dependent replica placement: file f's replication ratio
// interpolates from `head` down to `tail` following a Zipf profile.
class PopularityCatalog {
 public:
  PopularityCatalog(std::size_t nodes, std::size_t files, double head_ratio,
                    double tail_ratio, std::uint64_t seed) {
    Rng rng(seed);
    catalogs_.reserve(files);
    for (std::size_t f = 0; f < files; ++f) {
      // Zipf-like decay of replication with rank.
      const double rank_factor =
          1.0 / (1.0 + static_cast<double>(f) * 0.35);
      const double ratio =
          std::max(tail_ratio, head_ratio * rank_factor);
      catalogs_.emplace_back(nodes, 1, ratio, rng());
    }
  }

  [[nodiscard]] std::size_t files() const { return catalogs_.size(); }
  [[nodiscard]] bool has(NodeId node, std::size_t file) const {
    return catalogs_[file].node_has_object(node, 0);
  }
  [[nodiscard]] const ObjectCatalog& catalog(std::size_t file) const {
    return catalogs_[file];
  }
  [[nodiscard]] std::size_t replicas(std::size_t file) const {
    return catalogs_[file].replicas_per_object();
  }

 private:
  std::vector<ObjectCatalog> catalogs_;
};

struct MechanismStats {
  QueryAggregate head;
  QueryAggregate torso;
  QueryAggregate tail;

  QueryAggregate& band(std::size_t file, std::size_t files) {
    if (file < files / 5) return head;
    if (file < 3 * files / 5) return torso;
    return tail;
  }
};

void print_stats(Table& table, const std::string& mechanism,
                 const char* band, const QueryAggregate& agg) {
  table.add_row({mechanism, band, Table::percent(agg.success_rate()),
                 Table::num(agg.mean_messages(), 1),
                 agg.hit_hops().empty()
                     ? std::string("-")
                     : Table::num(agg.hit_hops().median(), 0)});
}

}  // namespace

int main(int argc, char** argv) try {
  const CliOptions options(argc, argv);
  const std::size_t n = options.nodes(5'000);
  const std::size_t queries = options.queries(300);
  const std::uint64_t seed = options.seed(11);

  std::cout << "file-sharing search on a " << n << "-node Makalu overlay\n"
            << "library: 40 files, replication from 2% (hits) down to "
               "0.05% (rare)\n\n";

  const EuclideanModel latency(n, seed);
  const MakaluOverlay overlay = OverlayBuilder().build(latency, seed);
  const CsrGraph csr = CsrGraph::from_graph(overlay.graph);

  const std::size_t files = 40;
  const PopularityCatalog library(n, files, 0.02, 0.0005, seed ^ 3);

  FloodOptions fopts;
  fopts.ttl = 4;
  const FloodEngine flood(csr, fopts);
  RandomWalkOptions wopts;
  wopts.walkers = 16;
  wopts.ttl = 40;
  const RandomWalkEngine walker(csr, wopts);

  Rng rng(seed ^ 4);
  ZipfSampler popularity(files, 0.9);

  MechanismStats flood_stats;
  MechanismStats walk_stats;
  MechanismStats abf_stats;

  // Zipf-draw the per-file demand up front, then resolve each file's
  // queries as one ParallelQueryDriver batch (one workspace per worker;
  // results identical at any thread count).
  std::vector<std::size_t> demand(files, 0);
  for (std::size_t q = 0; q < queries; ++q) ++demand[popularity(rng)];

  ParallelQueryDriver driver;
  std::uint64_t flood_messages = 0;
  for (std::size_t file = 0; file < files; ++file) {
    if (demand[file] == 0) continue;
    BatchQueryOptions batch;
    batch.queries = demand[file];
    batch.seed = rng();
    // Trace sink: per-query observability without touching the engines.
    batch.trace_sink = [&](const QueryTrace& trace) {
      flood_messages += trace.result.messages;
    };
    driver.run_batch(flood, library.catalog(file), batch,
                     flood_stats.band(file, files));
    batch.trace_sink = nullptr;
    driver.run_batch(walker, library.catalog(file), batch,
                     walk_stats.band(file, files));
  }
  // ABF pass: route a smaller batch per band (router construction
  // dominates; one router per representative file).
  for (const std::size_t file : {std::size_t{0}, files / 2, files - 1}) {
    const AbfRouter router(csr, library.catalog(file), AbfOptions{});
    BatchQueryOptions batch;
    batch.queries = queries / 10;
    batch.seed = rng();
    driver.run_batch(router, library.catalog(file), batch,
                     abf_stats.band(file, files));
  }

  Table table({"mechanism", "popularity band", "success", "msgs/query",
               "median hit hops"});
  for (const auto* band : {"head", "torso", "tail"}) {
    const auto pick = [&](MechanismStats& s) -> QueryAggregate& {
      if (band == std::string("head")) return s.head;
      if (band == std::string("torso")) return s.torso;
      return s.tail;
    };
    print_stats(table, "flooding (TTL 4)", band, pick(flood_stats));
    print_stats(table, "16-walker random walk", band, pick(walk_stats));
    print_stats(table, "ABF routing (depth 3)", band, pick(abf_stats));
  }
  table.print(std::cout);

  std::cout << "\nflooding moved " << flood_messages
            << " messages in total (counted via the driver's trace sink).\n";
  std::cout << "\nreading the table: flooding buys recall with thousands "
               "of messages; random walks are cheap but miss rare files; "
               "ABF routing gets near-flood recall at random-walk cost "
               "because Makalu's expansion lets depth-3 filters cover a "
               "large neighborhood.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
