// Parallel batch-query driver: the one query loop every experiment
// shares.
//
// The paper's methodology (§4.1-§4.2, Table 1, Fig. 3-4) is always "run N
// queries from random sources and aggregate QueryStats"; this driver is
// that loop, sharded across support/thread_pool.hpp. Engines implement
// SearchEngine and are shared read-only; each worker slot owns one
// QueryWorkspace.
//
// Serving state. The driver keeps everything a batch needs across calls:
// one QueryWorkspace per worker slot, the dedicated pool (threads > 1),
// and the per-call trace/job/result buffers. An open-loop executor calls
// run_batch once per admission slice, so a warm driver serves a slice
// with no allocation and no n-sized zero-fill. run_batch is therefore
// non-const: one caller at a time per driver.
//
// Determinism: query q's RNG is seeded from (base seed, q) via
// QueryWorkspace::per_query_seed, the (source, object) pair is drawn from
// that stream, and per-query results land in a pre-sized vector indexed
// by q. Aggregation then runs serially in query order — so the aggregate
// (including its floating-point accumulations) is bit-identical at any
// thread count, and identical to the serial loop it replaced. Reusing a
// workspace cannot change a result either: every query reseeds its RNG,
// and the visited, hit and arrival words are epoch-stamped, so nothing a
// previous call left behind is read as live.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "search/search_engine.hpp"
#include "sim/query_stats.hpp"
#include "sim/replica_placement.hpp"
#include "support/thread_pool.hpp"

namespace makalu {

/// One query's full record, handed to the trace sink.
struct QueryTrace {
  std::size_t query_index = 0;
  NodeId source = kInvalidNode;
  ObjectId object = 0;
  QueryResult result;
  /// Wall time spent inside the engine for this query, microseconds.
  /// Only measured when BatchQueryOptions::metrics is set (timing costs
  /// two clock reads per query); 0 otherwise.
  double wall_us = 0.0;
};

struct BatchQueryOptions {
  std::size_t queries = 0;
  std::uint64_t seed = 1;
  /// Admission seam (workload/engine.hpp): global stream index of this
  /// batch's first query. Query q of the batch is seeded as
  /// (seed, first_query_index + q), so an open-loop executor can slice
  /// one logical query stream into timestamp-driven sub-batches without
  /// changing any per-query result — stream query k draws the same
  /// (source, object, RNG tail) however the slices fall. 0 (the default)
  /// is the pre-existing single-batch behaviour, bit for bit.
  std::uint64_t first_query_index = 0;
  /// Optional popularity sampler: draws the query's object from the
  /// per-query RNG stream in place of the uniform draw (Zipf catalogs,
  /// workload/catalog.hpp). Must be a pure function of the RNG argument
  /// so results stay independent of thread count and batch slicing.
  std::function<ObjectId(Rng&)> object_sampler;
  /// Co-schedule queries through SearchEngine::run_many (shared-frontier
  /// batching, QueryWorkspace::kBatchWidth queries per pass) when the
  /// engine supports it; engines that don't, and option off, run the
  /// scalar per-query loop. Per-query results are bit-identical either
  /// way and at any thread count — batching changes throughput only.
  bool batch = false;
  /// Observability hook: invoked serially, in query order, after the
  /// parallel phase (so sinks need no locking and see a deterministic
  /// stream). The trace is the driver's own buffer entry, so a sink must
  /// not call back into the driver that invokes it.
  std::function<void(const QueryTrace&)> trace_sink;
  /// Observability registry (nullable — null is the zero-overhead
  /// default). When set, the driver registers the driver.* and search.*
  /// metrics, attaches one shard per worker slot to the workspaces (so
  /// engine hop/frontier histograms shard without locks), times each
  /// query into QueryTrace::wall_us, and feeds the per-query latency
  /// histogram plus result counters from the serial in-order
  /// aggregation pass. Results are bit-identical with and without a
  /// registry attached, at any thread count.
  obs::MetricsRegistry* metrics = nullptr;
};

class ParallelQueryDriver {
 public:
  /// `threads` = 0: use the process-wide shared pool (hardware
  /// concurrency); 1: run inline on the calling thread; N: a dedicated
  /// N-worker pool, created here and owned for the driver's lifetime.
  explicit ParallelQueryDriver(std::size_t threads = 0);

  /// Runs options.queries queries against `engine`, each from a uniformly
  /// random source for a uniformly random catalog object, and returns the
  /// aggregate.
  [[nodiscard]] QueryAggregate run_batch(const SearchEngine& engine,
                                         const ObjectCatalog& catalog,
                                         const BatchQueryOptions& options);

  /// Same, appending into an existing aggregate (multi-run experiments
  /// accumulate one aggregate across placements).
  void run_batch(const SearchEngine& engine, const ObjectCatalog& catalog,
                 const BatchQueryOptions& options, QueryAggregate& aggregate);

  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

  /// Worker slots a batch is served with: 1 inline, else the pool's
  /// thread count (the thread count the driver actually uses).
  [[nodiscard]] std::size_t slots() const noexcept {
    return workspaces_.size();
  }

  /// Bytes held by the resident serving state: the per-slot workspaces
  /// plus the trace, job and result buffers.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  /// The pool batches run on; null when threads_ == 1 (inline).
  [[nodiscard]] ThreadPool* pool() const noexcept;

  std::size_t threads_;
  std::unique_ptr<ThreadPool> owned_pool_;  ///< threads_ > 1 only
  std::vector<QueryWorkspace> workspaces_;  ///< one per slot
  // One entry per query of the current call; a slot's range is disjoint.
  std::vector<QueryTrace> traces_;
  std::vector<BatchQueryJob> jobs_;     ///< batched calls only
  std::vector<QueryResult> results_;    ///< batched calls only
};

}  // namespace makalu
