// Makalu overlay construction (paper §2.2).
//
// Join protocol: a node entering the overlay takes the address of one seed
// peer, runs a random walk from the seed to gather a candidate set, and
// connects to candidates until it has enough neighbors. Nodes in the
// management phase accept incoming connections freely and, whenever they
// exceed their capacity, repeatedly drop the neighbor with the lowest
// rating (Manage() in the paper's pseudocode):
//
//   repeat
//     accept connections
//     while neighbors > max_connections:
//       compute rating for each neighbor
//       remove neighbor with lowest rating
//   until disconnected
//
// Capacities are heterogeneous — each node picks its own connection budget
// from its available bandwidth; we model that with a per-node draw from
// [capacity_min, capacity_max] (paper: mean degree 10-12 suffices even at
// 100k nodes).
//
// After the join sequence the builder runs a few maintenance rounds in
// which under-provisioned nodes solicit more candidates and every node
// re-evaluates its neighbor set; this mirrors steady-state management and
// lets early joiners benefit from the full network.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/rating.hpp"
#include "core/rating_cache.hpp"
#include "graph/graph.hpp"
#include "net/latency_model.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"

namespace makalu {

class ThreadPool;

struct MakaluParameters {
  RatingWeights weights{};          ///< alpha/beta (paper: both 1)
  std::size_t capacity_min = 6;     ///< per-node connection budget range
  std::size_t capacity_max = 13;    ///< mean ~9.5, the paper's flooding
                                    ///< and Table-2 configuration
  std::size_t walk_length = 12;  ///< steps per candidate-gathering walk
  std::size_t candidate_set_size = 16;  ///< independent walks (= candidates)
  std::size_t maintenance_rounds = 2;   ///< post-join management sweeps
  /// Diagnostic/ablation switch: draw candidates uniformly from the nodes
  /// already in the overlay instead of via random walks (an oracle a real
  /// deployment does not have — used to quantify what walk-based gathering
  /// costs).
  bool oracle_uniform_candidates = false;
  /// Low-water protection: when pruning, never drop a neighbor whose own
  /// degree would fall below this (unless every neighbor is that weak).
  /// Without it, geographically remote peers are evicted by every
  /// acceptor in turn — proximity is relative, so *someone* is always the
  /// far one — and a handful of degree-1 stragglers destroys the
  /// overlay's algebraic connectivity. The neighbor's degree is local
  /// information (peers exchange routing tables on connect). Set to 0 to
  /// disable (ablation).
  std::size_t low_water_mark = 3;
  /// Storage policy of the built overlay graph. kCompact is what fits a
  /// 1M-node build in memory. Both policies keep neighbor rows
  /// element-identical, so decisions are bit-identical across them.
  GraphStorage storage = GraphStorage::kAdjacencySet;
};

/// A built overlay: the graph plus the per-node capacities that shaped it.
struct MakaluOverlay {
  Graph graph;
  std::vector<std::size_t> capacity;

  [[nodiscard]] std::size_t node_count() const {
    return graph.node_count();
  }
};

/// Knobs for the deterministic (optionally parallel) maintenance sweep.
struct SweepOptions {
  /// Per-node RNG streams are derived from this; the sweep is a pure
  /// function of (overlay, latency, seed, active) — never of the thread
  /// count.
  std::uint64_t seed = 0;
  /// Online mask, same semantics as maintenance_round's `active`.
  const std::vector<bool>* active = nullptr;
  /// Worker pool for the parallel phases; nullptr runs the identical
  /// schedule inline on the calling thread.
  ThreadPool* pool = nullptr;
  /// Optional observability sink: per-phase wall timings (sum gauges) and
  /// solicitation/edge counters. Observe-only — the sweep's result is
  /// bit-identical with or without it. Null = zero overhead.
  obs::MetricsRegistry* metrics = nullptr;
};

class OverlayBuilder {
 public:
  explicit OverlayBuilder(MakaluParameters params = MakaluParameters{});

  /// Builds an overlay over every node of `latency` (network size is the
  /// model's node count) by the paper's serial protocol: nodes join one at
  /// a time, then maintenance_rounds serial sweeps. Deterministic in
  /// `seed`.
  [[nodiscard]] MakaluOverlay build(const LatencyModel& latency,
                                    std::uint64_t seed) const;

  /// Large-scale sharded build. The serial protocol above joins nodes one
  /// at a time — random walks against the half-built overlay — which is
  /// faithful to the paper but inherently sequential and O(n) joins deep;
  /// at 10^6 nodes it is the wall. This variant restructures bootstrap the
  /// way deterministic_sweep restructures maintenance:
  ///   1. plan: every node draws capacity[u] bootstrap candidates from its
  ///      own RNG stream (the bootstrap server handing out uniform random
  ///      peers), parallel over contiguous node ranges — pure function of
  ///      (seed, u), so any shard partition produces the same plans;
  ///   2. apply: planned connections land serially in a seeded permutation
  ///      (one bootstrap order, independent of thread count);
  ///   3. manage: maintenance_rounds + 2 deterministic sweeps turn the
  ///      random bootstrap graph into a rating-managed Makalu overlay
  ///      (the +2 absorbs the deficit/pruning churn a walk-based join
  ///      sequence would have resolved incrementally).
  /// Deterministic in `seed` alone (any pool, any storage policy); the
  /// result differs from build() — it is a different (scalable) run of the
  /// same protocol. Ends with compact_storage(): the returned overlay is
  /// tightly packed.
  [[nodiscard]] MakaluOverlay build_sharded(const LatencyModel& latency,
                                            std::uint64_t seed,
                                            ThreadPool* pool,
                                            obs::MetricsRegistry* metrics =
                                                nullptr) const;

  /// Join a single new node into an existing overlay (used by churn /
  /// repair experiments), seeded from a random connected node. `joiner`
  /// must currently be isolated.
  void join_node(MakaluOverlay& overlay, const LatencyModel& latency,
                 NodeId joiner, Rng& rng) const;

  /// One management sweep: every node (in random order) re-solicits
  /// candidates if under capacity and prunes if over capacity. Returns the
  /// number of edges changed (added + removed). `active` (optional)
  /// restricts the sweep to nodes flagged true — churn simulations pass
  /// the online mask so offline peers are neither managed nor re-attached.
  std::size_t maintenance_round(MakaluOverlay& overlay,
                                const LatencyModel& latency, Rng& rng,
                                const std::vector<bool>* active =
                                    nullptr) const;

  /// The deterministic sweep: the same protocol as maintenance_round
  /// (under-provisioned nodes solicit, everyone enforces capacity)
  /// re-scheduled for incremental rating reuse and conflict-free
  /// parallelism:
  ///   1. candidate walks for all under-capacity nodes are planned against
  ///      the frozen pre-sweep graph, one independent RNG stream per node
  ///      (parallel, read-only);
  ///   2. the planned connections are applied serially in a seeded
  ///      permutation order;
  ///   3. over-capacity nodes are pruned in 2-hop-independent color
  ///      classes (two_hop_color_classes), colors in fixed order, nodes of
  ///      one color concurrently — their rating footprints and incident
  ///      edges are disjoint, so the outcome is order-free. Inline, ratings
  ///      run on `context.engine()`; on a pool, on one
  ///      `context.make_scratch()` engine per worker slot.
  /// Also proportions solicitation to the actual deficit instead of always
  /// walking for a full candidate set, which is where most of the serial
  /// speedup comes from. Bit-identical for any `pool` (including nullptr).
  /// Returns edges changed.
  std::size_t deterministic_sweep(MakaluOverlay& overlay,
                                  CachedRatingEngine& context,
                                  const SweepOptions& options) const;

  [[nodiscard]] const MakaluParameters& parameters() const noexcept {
    return params_;
  }

 private:
  /// Random walk from `start` collecting up to `want` distinct candidate
  /// peers (excluding `self`).
  [[nodiscard]] std::vector<NodeId> gather_candidates(const Graph& g,
                                                      NodeId start,
                                                      NodeId self,
                                                      std::size_t want,
                                                      Rng& rng) const;

  /// Lowest-rated neighbor respecting the low-water mark (ratings is
  /// non-empty by contract).
  [[nodiscard]] NodeId pick_victim(
      const Graph& g, std::span<const NeighborRating> ratings) const;

  /// Enforce the capacity constraint at u by pruning lowest-rated
  /// neighbors, rating on `engine`. Safe under the deterministic sweep's
  /// color schedule when each worker passes its own engine. Returns edges
  /// removed.
  std::size_t manage(MakaluOverlay& overlay, RatingEngine& engine,
                     NodeId u) const;

  // Engine-reusing workers: build() allocates one RatingEngine (its
  // scratch is O(n)) and threads it through every join/maintenance step
  // instead of re-allocating per node.
  void join_from_seed(MakaluOverlay& overlay, RatingEngine& engine,
                      NodeId joiner, NodeId seed_peer, Rng& rng) const;
  std::size_t maintenance_round(MakaluOverlay& overlay, RatingEngine& engine,
                                Rng& rng,
                                const std::vector<bool>* active) const;

  MakaluParameters params_;
};

}  // namespace makalu
