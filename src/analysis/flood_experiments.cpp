#include "analysis/flood_experiments.hpp"

#include "analysis/parallel_query_driver.hpp"
#include "search/flood_search.hpp"
#include "search/two_tier_flood.hpp"
#include "sim/replica_placement.hpp"
#include "support/rng.hpp"

namespace makalu {

QueryAggregate run_flood_batch(const BuiltTopology& topology,
                               const FloodExperimentOptions& options) {
  MAKALU_EXPECTS(options.runs >= 1);
  MAKALU_EXPECTS(options.queries >= 1);
  const CsrGraph csr = CsrGraph::from_graph(topology.graph);
  const std::size_t n = csr.node_count();

  QueryAggregate aggregate;
  ParallelQueryDriver driver(options.threads);
  Rng master(options.seed);
  for (std::size_t run = 0; run < options.runs; ++run) {
    // One independent placement per run; the catalog seed and the batch's
    // query seed both derive from the run stream, so results are
    // reproducible run by run.
    Rng run_rng = master.split(run + 1);
    const ObjectCatalog catalog(n, options.objects,
                                options.replication_ratio, run_rng());
    BatchQueryOptions batch;
    batch.queries = options.queries;
    batch.seed = run_rng();
    batch.batch = options.batch;
    batch.trace_sink = options.trace_sink;
    batch.metrics = options.metrics;

    if (topology.kind == TopologyKind::kGnutellaV06) {
      TwoTierFloodOptions flood;
      flood.ttl = options.ttl;
      const TwoTierFloodEngine engine(csr, topology.is_ultrapeer, flood);
      driver.run_batch(engine, catalog, batch, aggregate);
    } else {
      FloodOptions flood;
      flood.ttl = options.ttl;
      flood.duplicate_suppression = options.duplicate_suppression;
      const FloodEngine engine(csr, flood);
      driver.run_batch(engine, catalog, batch, aggregate);
    }
  }
  return aggregate;
}

MinTtlResult find_min_ttl(const BuiltTopology& topology,
                          FloodExperimentOptions options, double target,
                          std::uint32_t max_ttl) {
  MinTtlResult result;
  for (std::uint32_t ttl = 1; ttl <= max_ttl; ++ttl) {
    options.ttl = ttl;
    QueryAggregate aggregate = run_flood_batch(topology, options);
    if (aggregate.success_rate() >= target) {
      result.min_ttl = ttl;
      result.reached = true;
      result.at_min_ttl = aggregate;
      return result;
    }
    result.min_ttl = ttl;
    result.at_min_ttl = aggregate;  // keep the deepest attempt
  }
  return result;
}

std::vector<double> success_vs_ttl(const BuiltTopology& topology,
                                   FloodExperimentOptions options,
                                   std::uint32_t max_ttl) {
  std::vector<double> rates;
  rates.reserve(max_ttl + 1);
  for (std::uint32_t ttl = 0; ttl <= max_ttl; ++ttl) {
    options.ttl = ttl;
    rates.push_back(run_flood_batch(topology, options).success_rate());
  }
  return rates;
}

}  // namespace makalu
