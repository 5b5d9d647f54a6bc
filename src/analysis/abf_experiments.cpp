#include "analysis/abf_experiments.hpp"

#include <algorithm>
#include <tuple>

#include "analysis/parallel_query_driver.hpp"
#include "sim/replica_placement.hpp"
#include "support/rng.hpp"

namespace makalu {

QueryAggregate run_abf_batch(const BuiltTopology& topology, std::uint32_t ttl,
                             const AbfExperimentOptions& options) {
  const CsrGraph csr = CsrGraph::from_graph(topology.graph);
  const std::size_t n = csr.node_count();

  AbfOptions abf = options.abf;
  abf.ttl = ttl;

  QueryAggregate aggregate;
  ParallelQueryDriver driver(options.threads);
  Rng master(options.seed);
  for (std::size_t run = 0; run < options.runs; ++run) {
    Rng run_rng = master.split(run + 1);
    const ObjectCatalog catalog(n, options.objects,
                                options.replication_ratio, run_rng());
    const AbfRouter router(csr, catalog, abf);
    BatchQueryOptions batch;
    batch.queries = options.queries;
    batch.seed = run_rng();
    batch.metrics = options.metrics;
    driver.run_batch(router, catalog, batch, aggregate);
  }
  return aggregate;
}

std::vector<double> abf_success_vs_ttl(const BuiltTopology& topology,
                                       const AbfExperimentOptions& options,
                                       std::uint32_t max_ttl) {
  const CsrGraph csr = CsrGraph::from_graph(topology.graph);
  const std::size_t n = csr.node_count();

  AbfOptions abf = options.abf;
  abf.ttl = max_ttl;

  std::vector<std::size_t> successes(max_ttl + 1, 0);
  std::size_t total_queries = 0;

  ParallelQueryDriver driver(options.threads);
  Rng master(options.seed);
  for (std::size_t run = 0; run < options.runs; ++run) {
    Rng run_rng = master.split(run + 1);
    const ObjectCatalog catalog(n, options.objects,
                                options.replication_ratio, run_rng());
    const AbfRouter router(csr, catalog, abf);
    BatchQueryOptions batch;
    batch.queries = options.queries;
    batch.seed = run_rng();
    batch.metrics = options.metrics;
    // One route per query at the full budget; a query that succeeded with
    // k messages would also succeed for every TTL >= k, so bucket by the
    // message count at success. The sink runs serially post-batch, so the
    // tallies need no synchronisation.
    batch.trace_sink = [&](const QueryTrace& trace) {
      ++total_queries;
      if (!trace.result.success) return;
      const auto needed = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(trace.result.messages, max_ttl));
      for (std::uint32_t t = needed; t <= max_ttl; ++t) ++successes[t];
    };
    // The trace sink tallies everything; the aggregate adds nothing here.
    std::ignore = driver.run_batch(router, catalog, batch);
  }

  std::vector<double> rates(max_ttl + 1, 0.0);
  if (total_queries == 0) return rates;
  for (std::uint32_t t = 0; t <= max_ttl; ++t) {
    rates[t] = static_cast<double>(successes[t]) /
               static_cast<double>(total_queries);
  }
  return rates;
}

}  // namespace makalu
