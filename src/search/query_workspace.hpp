// Per-query scratch state shared by every search engine.
//
// Each flood-family engine used to carry its own epoch-stamped visited
// array and frontier buffers; QueryWorkspace extracts that state so the
// engines themselves are stateless over `const CsrGraph&` and can be
// shared across threads — each worker brings its own workspace. A
// workspace amortises allocations across thousands of queries on the
// same topology (buffers are sized once, the visited array is reset in
// O(1) by bumping the epoch stamp).
//
// The workspace also owns the per-query RNG. ParallelQueryDriver seeds it
// deterministically per query index (see per_query_seed), which is what
// makes batch results independent of the thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "obs/search_metrics.hpp"
#include "support/rng.hpp"

namespace makalu {

class QueryWorkspace {
 public:
  /// Frontier entries: (node, sender arc to avoid echoing back).
  struct FrontierEntry {
    NodeId node;
    NodeId sender;
  };

  QueryWorkspace() = default;
  explicit QueryWorkspace(std::size_t node_count) { begin_query(node_count); }

  /// Prepares the workspace for one query on an `node_count`-node graph:
  /// resizes the visited array on topology change, advances the epoch
  /// stamp (O(1) reset), and clears the frontier buffers. Engines call
  /// this at the top of run(); callers never need to.
  void begin_query(std::size_t node_count);

  [[nodiscard]] bool visited(NodeId v) const noexcept {
    return visit_epoch_[v] == stamp_;
  }
  void mark_visited(NodeId v) noexcept { visit_epoch_[v] = stamp_; }

  [[nodiscard]] std::vector<FrontierEntry>& frontier() noexcept {
    return frontier_;
  }
  [[nodiscard]] std::vector<FrontierEntry>& next_frontier() noexcept {
    return next_frontier_;
  }
  void swap_frontiers() noexcept { frontier_.swap(next_frontier_); }

  /// Generic NodeId scratch (random-walk walker positions, ABF backtrack
  /// path). Engines clear it before use.
  [[nodiscard]] std::vector<NodeId>& node_buffer() noexcept {
    return node_buffer_;
  }
  /// Generic double scratch (timed flood's reverse-path latencies).
  [[nodiscard]] std::vector<double>& value_buffer() noexcept {
    return value_buffer_;
  }
  /// Generic 32-bit scratch (per-neighbor level-match bitmasks from the
  /// arena match kernels). Engines resize/overwrite before use.
  [[nodiscard]] std::vector<std::uint32_t>& mask_buffer() noexcept {
    return mask_buffer_;
  }

  /// The query's RNG stream. Engines draw from this instead of taking an
  /// Rng parameter; the driver reseeds it per query.
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// Deterministic per-query seed: splitmix64 of the base seed offset by
  /// the query index. Identical for a given (base, index) at any thread
  /// count or batch partitioning.
  [[nodiscard]] static std::uint64_t per_query_seed(
      std::uint64_t base_seed, std::uint64_t query_index) noexcept {
    std::uint64_t s = base_seed + 0x9e3779b97f4a7c15ULL * (query_index + 1);
    return splitmix64(s);
  }
  void seed_rng(std::uint64_t base_seed, std::uint64_t query_index) noexcept {
    rng_ = Rng(per_query_seed(base_seed, query_index));
  }

  /// Optional exact per-node load accounting: when enabled, engines charge
  /// every transmission to its sender. Replaces the old raw-pointer
  /// FloodOptions::per_node_outgoing out-param (which callers could
  /// dangle). Counts accumulate across queries until reset.
  void enable_outgoing_accounting(std::size_t node_count) {
    outgoing_.assign(node_count, 0);
    account_outgoing_ = true;
  }
  void disable_outgoing_accounting() noexcept { account_outgoing_ = false; }
  [[nodiscard]] bool accounts_outgoing() const noexcept {
    return account_outgoing_;
  }
  void charge_outgoing(NodeId sender, std::uint64_t transmissions) noexcept {
    if (account_outgoing_) outgoing_[sender] += transmissions;
  }
  [[nodiscard]] std::span<const std::uint64_t> outgoing() const noexcept {
    return outgoing_;
  }

  /// Optional observability attachment (obs/search_metrics.hpp): the
  /// driver hands each worker workspace its thread-slot shard plus the
  /// resolved metric ids. Detached (the default) the obs_* hooks below
  /// are a single null check — attaching a registry must never change
  /// what an engine computes, only what it reports.
  void attach_metrics(const obs::SearchObs& metrics) noexcept {
    metrics_ = metrics;
  }
  void detach_metrics() noexcept { metrics_ = {}; }
  [[nodiscard]] bool metrics_attached() const noexcept {
    return metrics_.shard != nullptr;
  }

  /// Engine hook: one hop (or walk step) expanded, sending `messages`
  /// transmissions with `frontier` nodes (or live walkers) active.
  void obs_hop(std::uint32_t hop, std::uint64_t messages,
               std::size_t frontier) noexcept {
    if (metrics_.shard == nullptr) return;
    metrics_.shard->add(metrics_.ids.hops_expanded);
    if (messages > 0) {
      metrics_.shard->observe(metrics_.ids.hop_messages,
                              static_cast<double>(hop), messages);
    }
    if (frontier > 0) {
      metrics_.shard->observe(metrics_.ids.frontier_size,
                              static_cast<double>(frontier));
    }
  }

  /// Engine hook for event-driven engines that attribute messages to a
  /// hop one delivery at a time (timed flood).
  void obs_messages_at_hop(std::uint32_t hop,
                           std::uint64_t messages) noexcept {
    if (metrics_.shard == nullptr || messages == 0) return;
    metrics_.shard->observe(metrics_.ids.hop_messages,
                            static_cast<double>(hop), messages);
  }

  /// Heap bytes the workspace holds (buffer capacities, scalar and
  /// batched state). A persistent workspace keeps them resident between
  /// queries; the batched arrays alone are ~36 B per node once sized.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  [[nodiscard]] std::uint32_t stamp() const noexcept { return stamp_; }
  /// Test seam for the epoch-wraparound path: forces the stamp so the next
  /// begin_query() overflows and takes the refill branch.
  void set_stamp_for_testing(std::uint32_t stamp) noexcept { stamp_ = stamp; }

  // ---- batched-query state (shared frontiers, bloom/filter_arena PR) ----
  //
  // Up to kBatchWidth co-scheduled queries share one visited word-array:
  // word v holds a bitmask of the queries that have visited node v. The
  // words are epoch-stamped like the scalar visited array, but the stamp
  // advances once per *batch* — a per-query bump would leave earlier
  // queries' words stale mid-batch, aliasing their visit bits away (the
  // wraparound regression this PR fixes pre-emptively; see
  // tests/query_workspace_test.cpp BatchStamp*).

  static constexpr std::size_t kBatchWidth = 64;

  /// Prepares the batched arrays for one batch of ≤ kBatchWidth queries:
  /// sizes them on topology change, bumps the batch stamp once (O(1)
  /// reset of visited + hit words), and clears the batch frontiers.
  void begin_batch(std::size_t node_count);

  [[nodiscard]] std::uint64_t batch_visited_mask(NodeId v) const noexcept {
    return batch_visit_epoch_[v] == batch_stamp_ ? batch_visited_[v] : 0;
  }
  /// ORs `mask` into node v's visited word; returns the freshly-visited
  /// subset (bits of `mask` not already set).
  std::uint64_t batch_mark_visited(NodeId v, std::uint64_t mask) noexcept {
    if (batch_visit_epoch_[v] != batch_stamp_) {
      batch_visit_epoch_[v] = batch_stamp_;
      batch_visited_[v] = mask;
      return mask;
    }
    const std::uint64_t fresh = mask & ~batch_visited_[v];
    batch_visited_[v] |= mask;
    return fresh;
  }

  /// Per-batch hit words: bit q of word v set iff node v satisfies query
  /// q's predicate (built once per batch from the catalog's holder lists,
  /// replacing a per-visit indirect predicate call).
  void batch_set_hit(NodeId v, std::uint64_t mask) noexcept {
    if (batch_hit_epoch_[v] != batch_stamp_) {
      batch_hit_epoch_[v] = batch_stamp_;
      batch_hit_[v] = mask;
    } else {
      batch_hit_[v] |= mask;
    }
  }
  [[nodiscard]] std::uint64_t batch_hit_mask(NodeId v) const noexcept {
    return batch_hit_epoch_[v] == batch_stamp_ ? batch_hit_[v] : 0;
  }

  /// Per-hop arrival scatter words (own stamp, bumped every hop):
  /// accumulate the query masks delivered to node v this hop so frontier
  /// pushes coalesce per node.
  void begin_batch_hop() noexcept {
    ++arrival_stamp_;
    if (arrival_stamp_ == 0) {
      std::fill(arrival_epoch_.begin(), arrival_epoch_.end(), 0u);
      arrival_stamp_ = 1;
    }
  }
  /// ORs `mask` into v's arrival word; returns true on v's first arrival
  /// this hop (caller appends v to its touched-node list).
  bool batch_arrive(NodeId v, std::uint64_t mask) noexcept {
    if (arrival_epoch_[v] != arrival_stamp_) {
      arrival_epoch_[v] = arrival_stamp_;
      batch_arrivals_[v] = mask;
      return true;
    }
    batch_arrivals_[v] |= mask;
    return false;
  }
  [[nodiscard]] std::uint64_t batch_arrival_mask(NodeId v) const noexcept {
    return arrival_epoch_[v] == arrival_stamp_ ? batch_arrivals_[v] : 0;
  }

  /// Batched frontier entries: a node plus the queries for which it
  /// joined the frontier (one entry per node per hop — pushes coalesce).
  struct BatchFrontierEntry {
    NodeId node;
    std::uint64_t mask;
  };
  [[nodiscard]] std::vector<BatchFrontierEntry>& batch_frontier() noexcept {
    return batch_frontier_;
  }
  [[nodiscard]] std::vector<BatchFrontierEntry>&
  batch_next_frontier() noexcept {
    return batch_next_frontier_;
  }
  void swap_batch_frontiers() noexcept {
    batch_frontier_.swap(batch_next_frontier_);
  }

  [[nodiscard]] std::uint32_t batch_stamp() const noexcept {
    return batch_stamp_;
  }
  /// Test seams mirroring set_stamp_for_testing for the batched arrays.
  void set_batch_stamp_for_testing(std::uint32_t stamp) noexcept {
    batch_stamp_ = stamp;
  }
  void set_arrival_stamp_for_testing(std::uint32_t stamp) noexcept {
    arrival_stamp_ = stamp;
  }

  /// Engine hook: one batched frontier pass completed, serving `queries`
  /// queries, of which `fallbacks` overflowed and were re-run scalar.
  void obs_batch(std::uint64_t queries, std::uint64_t fallbacks) noexcept {
    if (metrics_.shard == nullptr) return;
    metrics_.shard->add(metrics_.ids.batches);
    metrics_.shard->add(metrics_.ids.batched_queries, queries);
    if (fallbacks > 0) {
      metrics_.shard->add(metrics_.ids.batch_fallbacks, fallbacks);
    }
  }

 private:
  std::vector<std::uint32_t> visit_epoch_;
  std::uint32_t stamp_ = 0;
  std::vector<FrontierEntry> frontier_;
  std::vector<FrontierEntry> next_frontier_;
  std::vector<NodeId> node_buffer_;
  std::vector<double> value_buffer_;
  std::vector<std::uint32_t> mask_buffer_;
  std::vector<std::uint64_t> outgoing_;
  bool account_outgoing_ = false;
  obs::SearchObs metrics_{};
  Rng rng_{0};

  // Batched-query state (lazily sized by begin_batch; scalar-only callers
  // never allocate it).
  std::vector<std::uint32_t> batch_visit_epoch_;
  std::vector<std::uint64_t> batch_visited_;
  std::vector<std::uint32_t> batch_hit_epoch_;
  std::vector<std::uint64_t> batch_hit_;
  std::vector<std::uint32_t> arrival_epoch_;
  std::vector<std::uint64_t> batch_arrivals_;
  std::uint32_t batch_stamp_ = 0;
  std::uint32_t arrival_stamp_ = 0;
  std::vector<BatchFrontierEntry> batch_frontier_;
  std::vector<BatchFrontierEntry> batch_next_frontier_;
};

}  // namespace makalu
