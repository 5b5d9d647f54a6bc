// Indexed identifier search over attenuated Bloom filters (paper §4.6).
//
// Routing state: for every directed overlay link u→v, node u holds the
// advertisement ADV(v→u) it received from v — an attenuated Bloom filter
// whose level i summarises the content stored exactly i hops beyond v
// (level 0 = v's own store). Advertisements are computed by the standard
// distance-vector exchange: when peers connect they swap filters, and
//   ADV(v→u).level[0] = content(v)
//   ADV(v→u).level[i] = ⋃_{w ∈ N(v)\{u}} ADV(w→v).level[i-1].
// Because level i depends only on level i-1, `build_tables` fills the
// whole depth-D hierarchy in D-1 level-synchronous rounds — exactly the
// fixed point the incremental pairwise exchanges converge to.
//
// Query routing: a query for key k at node x
//   1. succeeds if x stores k;
//   2. otherwise forwards to the unvisited neighbor v with the highest
//      level-weighted match score of ADV(v→x) (shallow levels dominate —
//      their filters aggregate fewer nodes and so have lower false-positive
//      rates);
//   3. falls back to a random unvisited neighbor when no filter matches
//      (the object may simply be farther than D hops);
//   4. backtracks when boxed in; every forward or backtrack costs one
//      message and one TTL unit.
//
// Scoring: each layout scores a hop one way — the whole neighbor row in
// one mask-kernel call (FilterArena::match_many for kPooledStack,
// BlockedAbfTable::match_arcs for kBlockedDelta), score = Σ 2^-l over the
// matching levels. The kernel is picked by CPU dispatch; tests and
// benches pin one process-wide with set_match_kernel_override.
//
// Routing is const over the tables: per-query scratch (visited set,
// backtrack path, fallback RNG) lives in the caller's QueryWorkspace.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <vector>

#include "bloom/abf_table.hpp"
#include "bloom/counting_abf_table.hpp"
#include "bloom/filter_arena.hpp"
#include "graph/graph.hpp"
#include "search/search_engine.hpp"
#include "sim/query_stats.hpp"
#include "sim/replica_placement.hpp"
#include "support/rng.hpp"

namespace makalu {

struct AbfOptions {
  std::size_t depth = 3;  ///< paper: attenuated Bloom filter of depth 3
  BloomParameters level_params{/*bits=*/1024, /*hashes=*/4};
  /// Message budget for the uniform SearchEngine::run entry point (route()
  /// takes the TTL explicitly).
  std::uint32_t ttl = 25;
  /// Routing-table representation (bloom/abf_table.hpp). kPooledStack
  /// holds the exact per-arc advertisements; kBlockedDelta trades a
  /// bounded false-positive widening for ~10x less table memory and one
  /// cache line per neighbor score (quality-gated, see DESIGN.md §14).
  TableLayout layout = TableLayout::kPooledStack;
  /// kBlockedDelta level width in bits (multiple of 64). 0 = auto: pack
  /// the whole depth-D stack into one 64-byte line (depth 3 -> 128).
  /// Size it up for content-heavy catalogs: a level holding k keys wants
  /// >= ~8k bits to keep its false-positive rate near the pooled table's.
  std::size_t blocked_level_bits = 0;
  /// Max delta entries per (arc, level); extras are dropped (the arc
  /// falls back toward the base superset — never a false negative).
  std::size_t delta_cap = 16;
  /// kBlockedDelta only: mirror the table in a CountingAbfTable so
  /// content *removal* (notify_remove) is an incremental counter wave
  /// instead of a full rebuild. Inserts and removes then both reproject
  /// only the changed key's positions of each journalled level and run
  /// the flip census on the bits that flipped. Costs the counter memory:
  /// four bytes per nonzero counter plus a 12-byte row descriptor per
  /// (node, level) and a copy of the adjacency.
  bool counting_maintenance = false;
};

class AbfRouter final : public SearchEngine {
 public:
  /// Builds the full routing state for `graph` + `catalog`. Cost:
  /// O(depth^2 * arcs * filter_words) time, O(depth * arcs * filter_bytes)
  /// memory.
  AbfRouter(const CsrGraph& graph, const ObjectCatalog& catalog,
            const AbfOptions& options = {});

  using SearchEngine::run;

  /// Uniform interface: routes with options.ttl as the budget. The
  /// predicate's routing key selects the filter bits; the predicate itself
  /// confirms hits, so it must be consistent with the key.
  [[nodiscard]] QueryResult run(NodeId source, NodePredicate has_object,
                                QueryWorkspace& workspace) const override;
  [[nodiscard]] const CsrGraph& graph() const noexcept override {
    return graph_;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "abf-routing";
  }

  /// Batched entry point: co-schedules up to QueryWorkspace::kBatchWidth
  /// independent walkers, stepping them round-robin over the shared
  /// epoch-stamped visited bitmask (one bit per walker) and prefetching
  /// upcoming walkers' neighbor rows so one walker's filter loads resolve
  /// behind another's scoring — routing is bound by the latency of pulling
  /// each hop's filter row out of LLC/DRAM, not by compute, and
  /// independent walkers are the only source of overlappable misses.
  /// Every walker replays the scalar route loop on its own RNG stream and
  /// its own visited bit, so results are bit-identical to the scalar path
  /// at any batch partitioning.
  [[nodiscard]] bool supports_query_batching() const noexcept override {
    return true;
  }
  void run_many(std::span<const BatchQueryJob> jobs,
                const ObjectCatalog& catalog, QueryWorkspace& workspace,
                QueryResult* results) const override;

  /// Routes a query with an explicit budget; the workspace RNG drives the
  /// no-match fallback choice.
  [[nodiscard]] QueryResult route(NodeId source, NodePredicate has_object,
                                  std::uint32_t ttl,
                                  QueryWorkspace& workspace) const;
  [[nodiscard]] QueryResult route(NodeId source, ObjectId object,
                                  std::uint32_t ttl,
                                  QueryWorkspace& workspace) const;

  /// One-shot convenience with a caller-owned RNG stream (the stream
  /// advances exactly as if routing consumed it directly).
  [[nodiscard]] QueryResult route(NodeId source, ObjectId object,
                                  std::uint32_t ttl, Rng& rng) const;

  /// Content churn, additive path: propagates a newly published object
  /// outward exactly as the incremental advertisement exchanges would,
  /// depth-bounded by the filter depth. kPooledStack runs an arc-level
  /// wave. kBlockedDelta sets the key's 0->1 flips level by level (or,
  /// with counting maintenance, runs the counter wave and reprojects the
  /// key's positions), then repairs the delta rows by the flip census:
  /// only positions that flipped are recounted and only arcs whose
  /// sole-contributor set changed are spliced. Exactly equal to a
  /// rebuild (pinned by the churn and table-differential suites).
  void notify_insert(NodeId holder, ObjectId object);

  /// Content churn, subtractive path. Plain Bloom levels are monotone, so
  /// by default this recomputes the tables from the (already updated)
  /// catalog — equivalent to reconstructing the router. With
  /// AbfOptions::counting_maintenance the blocked layout instead drains a
  /// counting-filter wave: decrement the walk counters, clear the key's
  /// newly-zero bits, and run the flip census — local work, equal to a
  /// rebuild while no counter has saturated (past saturation the base is
  /// still the counters' projection and the deltas its census).
  void notify_remove(NodeId holder, ObjectId object);

  /// Full recompute from the catalog (the subtractive fallback).
  void rebuild();

  /// Total routing-table memory (what a deployment would ship between
  /// peers on connect).
  [[nodiscard]] std::size_t table_bytes() const noexcept;

  /// The advertisement node u holds for its i-th neighbor — a view into
  /// the pooled arena (levels of all arcs live in one allocation; see
  /// bloom/filter_arena.hpp). kPooledStack only; the blocked layout has
  /// no per-arc stack to view — use blocked_table() / arc_maybe_contains.
  [[nodiscard]] AbfStackView advertisement(NodeId u,
                                           std::size_t neighbor_index) const;

  [[nodiscard]] std::size_t depth() const noexcept { return options_.depth; }
  [[nodiscard]] TableLayout layout() const noexcept {
    return options_.layout;
  }
  /// Non-null iff layout == kBlockedDelta.
  [[nodiscard]] const BlockedAbfTable* blocked_table() const noexcept {
    return blocked_.get();
  }
  /// Non-null iff counting maintenance is active.
  [[nodiscard]] const CountingAbfTable* counting_table() const noexcept {
    return counting_.get();
  }
  /// Arc-local index of neighbor v in u's sorted CSR row.
  [[nodiscard]] std::size_t neighbor_local_index(NodeId u, NodeId v) const;

 private:
  void build_tables(const ObjectCatalog& catalog);
  void build_blocked_tables(const ObjectCatalog& catalog);
  /// Full sole-contributor census of (origin v, level) over every
  /// position: rewrites the delta sets of all arcs u->v at that level.
  /// The router build runs it once per (node, level); churn never does
  /// (see census_flips).
  void rescan_deltas(NodeId v, std::size_t level);
  /// Leaves in delta_scan_.sole the positions that exactly one neighbor
  /// of v sets at level-1.
  void sole_census(NodeId v, std::size_t level);
  /// After sole_census(v, level): writes the first delta_cap of neighbor
  /// w's sole positions, ascending, into delta_scan_.merged.
  void sole_positions(NodeId w, std::size_t level);
  /// Drains the counting mirror's change journal after a content wave for
  /// `key` (an insert wave when `inserted`, else a remove wave): each
  /// journalled (node, level) is reprojected at the key's positions only
  /// (no other counter moved), and the bits that flipped are recorded in
  /// delta_scan_ and handed to census_flips.
  void drain_counting_changes(std::uint64_t key, bool inserted);
  /// The churn-time delta repair. For every (v, l+1) with a neighbor whose
  /// level l flipped, recounts contributors at the flipped positions
  /// only (a neighbor's old bit is its new bit XOR its flip), and splices
  /// just the arcs whose sole-contributor set changed there. Reads the
  /// flip records left in delta_scan_.
  void census_flips();
  [[nodiscard]] std::size_t arc_index(NodeId u,
                                      std::size_t neighbor_index) const;
  /// One routing decision at `current`, shared by route() and run_many():
  /// the best-scoring neighbor for which visited(v) is false, else a
  /// random such neighbor drawn from `rng`, else kInvalidNode. The row is
  /// scored in one mask-kernel call (see the file comment).
  template <class Visited>
  [[nodiscard]] NodeId next_hop(NodeId current, const BloomProbeSet& probes,
                                const BlockedProbeSet& bprobes,
                                std::vector<std::uint32_t>& masks, Rng& rng,
                                Visited visited) const;

  const CsrGraph& graph_;
  const ObjectCatalog& catalog_;
  AbfOptions options_;
  std::vector<std::size_t> arc_offsets_;  // prefix degrees, size n+1
  FilterArena arena_;                     // per arc u→v: ADV(v→u) stack
  std::unique_ptr<BlockedAbfTable> blocked_;   // kBlockedDelta only
  std::unique_ptr<CountingAbfTable> counting_; // counting_maintenance only

  // Delta maintenance scratch, reused across scans and churn events
  // (write path only; routing never touches it).
  struct DeltaScan {
    // sole_census: positions with exactly one contributor, and those
    // with two or more (words of one level).
    std::vector<std::uint64_t> sole;
    std::vector<std::uint64_t> shared;

    // Flip records of one churn event: the base positions of (node, level)
    // that flipped, as a span [begin, begin+count) of flip_pos. One
    // (node, level) may own several records; their positions are disjoint.
    struct Flip {
      NodeId node = 0;
      std::uint32_t level = 0;
      std::uint32_t begin = 0;
      std::uint32_t count = 0;
    };
    std::vector<std::uint16_t> key_pos;   // the changed key's positions
    std::vector<std::uint16_t> flip_pos;  // every record's positions
    std::vector<Flip> flips;
    // census_flips work list: census (v, level) reads record `flip` of
    // its neighbor w; sorted so each census's records are contiguous and
    // in v's row order.
    struct Target {
      NodeId v = 0;
      std::uint32_t level = 0;
      NodeId w = 0;
      std::uint32_t flip = 0;
      friend auto operator<=>(const Target&, const Target&) = default;
    };
    std::vector<Target> targets;
    // One census: the flipped positions F and, per position, the old and
    // new contributor count (saturated at 2) and last contributor.
    struct Tally {
      std::uint16_t pos = 0;
      std::uint8_t old_count = 0;
      std::uint8_t new_count = 0;
      std::uint32_t old_last = 0;
      std::uint32_t new_last = 0;
    };
    std::vector<Tally> tally;
    // (neighbor j, position, gained) for every sole-contributor change.
    struct ArcChange {
      std::uint32_t j = 0;
      std::uint16_t pos = 0;
      bool gained = false;
      friend auto operator<=>(const ArcChange&, const ArcChange&) = default;
    };
    std::vector<ArcChange> changes;
    std::vector<std::uint16_t> merged;  // one arc's new set
  };
  DeltaScan delta_scan_;
};

}  // namespace makalu
