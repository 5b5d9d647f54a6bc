#include "search/abf_search.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>

namespace makalu {

namespace {

// Cache lines (as word offsets within one arc's stack) that a probe set
// touches: level l's probe words sit at l*stride + word. Deduped once per
// query, replayed as prefetches for upcoming walkers' rows — best-effort,
// so overflowing entries are simply dropped.
struct StackPrefetch {
  std::array<std::uint16_t, 24> line_word{};
  std::size_t count = 0;
};

StackPrefetch make_stack_prefetch(const BloomProbeSet& probes,
                                  std::size_t depth,
                                  std::size_t stride) noexcept {
  StackPrefetch pf;
  for (std::size_t level = 0; level < depth; ++level) {
    for (std::size_t i = 0; i < probes.count; ++i) {
      const std::size_t word =
          level * stride + static_cast<std::size_t>(probes.word[i]);
      const auto line = static_cast<std::uint16_t>(word & ~std::size_t{7});
      bool seen = false;
      for (std::size_t k = 0; k < pf.count; ++k) {
        if (pf.line_word[k] == line) {
          seen = true;
          break;
        }
      }
      if (!seen && pf.count < pf.line_word.size()) {
        pf.line_word[pf.count++] = line;
      }
    }
  }
  return pf;
}

// Churn upkeep (the counting drain and the delta census) reads levels of
// scattered nodes one after another; each loop prefetches what it will
// read this many reads ahead, so the misses overlap instead of queueing.
constexpr std::size_t kChurnPrefetchAhead = 8;

}  // namespace

AbfRouter::AbfRouter(const CsrGraph& graph, const ObjectCatalog& catalog,
                     const AbfOptions& options)
    : graph_(graph),
      catalog_(catalog),
      options_(options),
      // The blocked layout never materialises per-arc stacks; give it an
      // empty arena (probe parameters only, no slab).
      arena_(options.layout == TableLayout::kBlockedDelta
                 ? 0
                 : graph.edge_count() * 2,
             options.depth, options.level_params) {
  MAKALU_EXPECTS(options.depth >= 1);
  const std::size_t n = graph_.node_count();
  arc_offsets_.assign(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    arc_offsets_[u + 1] = arc_offsets_[u] + graph_.degree(u);
  }
  if (options_.layout == TableLayout::kBlockedDelta) {
    build_blocked_tables(catalog);
  } else {
    MAKALU_EXPECTS(arc_offsets_.back() == arena_.arc_count());
    build_tables(catalog);
  }
}

std::size_t AbfRouter::arc_index(NodeId u,
                                 std::size_t neighbor_index) const {
  MAKALU_EXPECTS(u < graph_.node_count());
  MAKALU_EXPECTS(neighbor_index < graph_.degree(u));
  return arc_offsets_[u] + neighbor_index;
}

std::size_t AbfRouter::neighbor_local_index(NodeId u, NodeId v) const {
  const auto row = graph_.neighbors(u);
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  MAKALU_EXPECTS(it != row.end() && *it == v);
  return static_cast<std::size_t>(it - row.begin());
}

void AbfRouter::build_tables(const ObjectCatalog& catalog) {
  const std::size_t n = graph_.node_count();
  MAKALU_EXPECTS(catalog.node_count() == n);

  // Level 0: ADV(v→u).level[0] = content(v), identical for all u — insert
  // once per arc from the content of the arc's *origin* v. Arc u→v stores
  // ADV(v→u), so its level 0 carries v's objects.
  for (NodeId u = 0; u < n; ++u) {
    const auto nbrs = graph_.neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId v = nbrs[i];
      const std::size_t arc = arc_index(u, i);
      for (const ObjectId obj : catalog.objects_on(v)) {
        arena_.insert(arc, 0, ObjectCatalog::object_key(obj));
      }
    }
  }

  // Levels 1..D-1, level-synchronous: level L of ADV(v→u) is the union of
  // level L-1 of the advertisements v received from its other neighbors.
  // Level L-1 entries are final before any level-L read, so one buffer
  // suffices.
  for (std::size_t level = 1; level < options_.depth; ++level) {
    for (NodeId u = 0; u < n; ++u) {
      const auto nbrs = graph_.neighbors(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const NodeId v = nbrs[i];
        const std::size_t arc = arc_index(u, i);
        const auto v_nbrs = graph_.neighbors(v);
        for (std::size_t j = 0; j < v_nbrs.size(); ++j) {
          const NodeId w = v_nbrs[j];
          if (w == u) continue;
          // arc_index(v, j) is ADV(w→v).
          arena_.merge_level(arc, level, arc_index(v, j), level - 1);
        }
      }
    }
  }
}

void AbfRouter::build_blocked_tables(const ObjectCatalog& catalog) {
  const std::size_t n = graph_.node_count();
  MAKALU_EXPECTS(catalog.node_count() == n);
  const std::size_t level_bits =
      options_.blocked_level_bits != 0
          ? options_.blocked_level_bits
          : BlockedAbfTable::auto_level_bits(options_.depth);
  blocked_ = std::make_unique<BlockedAbfTable>(
      n, options_.depth, level_bits, options_.level_params.hashes);

  // Base recursion (bloom/abf_table.hpp): level 0 is the node's own
  // content, level l the union of every neighbor's level l-1 — no per-arc
  // exclusion, so one stack per node. Level-synchronous: level l-1 is
  // final before any level-l read.
  for (NodeId v = 0; v < n; ++v) {
    for (const ObjectId obj : catalog.objects_on(v)) {
      blocked_->insert(v, 0, ObjectCatalog::object_key(obj));
    }
  }
  for (std::size_t level = 1; level < options_.depth; ++level) {
    for (NodeId v = 0; v < n; ++v) {
      for (const NodeId w : graph_.neighbors(v)) {
        blocked_->merge_level(v, level, w, level - 1);
      }
    }
  }
  // Sole-contributor deltas recover the excluded-neighbor term per arc.
  for (std::size_t level = 1; level < options_.depth; ++level) {
    for (NodeId v = 0; v < n; ++v) {
      rescan_deltas(v, level);
    }
  }

  if (options_.counting_maintenance) {
    BloomParameters counting_params;
    counting_params.bits = level_bits;
    counting_params.hashes = options_.level_params.hashes;
    counting_ = std::make_unique<CountingAbfTable>(n, options_.depth,
                                                   counting_params);
    for (NodeId v = 0; v < n; ++v) {
      counting_->set_neighbors(v, graph_.neighbors(v));
      for (const ObjectId obj : catalog.objects_on(v)) {
        counting_->seed_content(v, ObjectCatalog::object_key(obj));
      }
    }
    // Walk-multiplicity sums project to exactly the bitwise base above
    // (support of a sum is the union of supports), so no reprojection is
    // needed; the rebuild leaves the journal empty.
    counting_->rebuild_derived();
  }
}

void AbfRouter::rescan_deltas(NodeId v, std::size_t level) {
  MAKALU_EXPECTS(level >= 1 && level < options_.depth);
  // delta_cap == 0 runs the layout base-only (every row stays empty, so
  // there is nothing to rescan or clear) — the memory-floor configuration
  // bench_scale gates at 100k-1M nodes.
  if (options_.delta_cap == 0) return;
  sole_census(v, level);
  for (const NodeId u : graph_.neighbors(v)) {
    const std::size_t arc_local = neighbor_local_index(u, v);
    if (arc_local >= BlockedAbfTable::kMaxDeltaArcLocal) continue;
    sole_positions(u, level);
    blocked_->set_arc_delta(u, arc_local, level, delta_scan_.merged);
  }
}

void AbfRouter::sole_census(NodeId v, std::size_t level) {
  // Contributor count saturating at 2, one word of positions at a time:
  // `sole` collects every bit some neighbor sets, `shared` the bits a
  // second neighbor sets again; sole minus shared is "exactly one".
  DeltaScan& scan = delta_scan_;
  const std::size_t words = blocked_->words_per_level();
  scan.sole.assign(words, 0);
  scan.shared.assign(words, 0);
  for (const NodeId w : graph_.neighbors(v)) {
    const std::uint64_t* row = blocked_->level_words(w, level - 1);
    for (std::size_t i = 0; i < words; ++i) {
      scan.shared[i] |= scan.sole[i] & row[i];
      scan.sole[i] |= row[i];
    }
  }
  for (std::size_t i = 0; i < words; ++i) scan.sole[i] &= ~scan.shared[i];
}

void AbfRouter::sole_positions(NodeId w, std::size_t level) {
  // w's sole positions are its own bits among the census's sole ones.
  DeltaScan& scan = delta_scan_;
  const std::uint64_t* row = blocked_->level_words(w, level - 1);
  const std::size_t cap = options_.delta_cap;
  scan.merged.clear();
  for (std::size_t i = 0; i < scan.sole.size() && scan.merged.size() < cap;
       ++i) {
    std::uint64_t bits = row[i] & scan.sole[i];
    while (bits != 0 && scan.merged.size() < cap) {
      scan.merged.push_back(
          static_cast<std::uint16_t>(i * 64 + std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
}

void AbfRouter::drain_counting_changes(std::uint64_t key, bool inserted) {
  // The content wave moved only the key's counters, so each journalled
  // level can change only there: reproject those positions (bit set iff
  // the counter is nonzero) and record what flipped. A journalled level
  // whose counters moved without crossing zero flips nothing and queues
  // no census. An insert wave only raised counters and a remove wave
  // only lowered them, so a bit already set (insert) or clear (remove)
  // stays as it is and its counter is not read.
  DeltaScan& scan = delta_scan_;
  scan.key_pos.resize(blocked_->hash_count());
  scan.key_pos.resize(blocked_->key_positions(key, scan.key_pos.data()));
  scan.flips.clear();
  scan.flip_pos.clear();
  // The counting rows were just edited by the wave and are warm; each
  // journalled level's base words are a miss of their own, hinted
  // kChurnPrefetchAhead levels ahead (the first ones before any read).
  const auto changes = counting_->take_changes();
  const auto hint = [&](const CountingAbfTable::ChangedLevel& ahead) {
    const std::uint64_t* words =
        blocked_->level_words(ahead.node, ahead.level);
    for (const std::uint16_t pos : scan.key_pos) {
      __builtin_prefetch(words + pos / 64, 1, 1);
    }
  };
  for (std::size_t c = 0; c < std::min(changes.size(), kChurnPrefetchAhead);
       ++c) {
    hint(changes[c]);
  }
  for (std::size_t c = 0; c < changes.size(); ++c) {
    if (c + kChurnPrefetchAhead < changes.size()) {
      hint(changes[c + kChurnPrefetchAhead]);
    }
    const auto [node, level] = changes[c];
    std::uint64_t* words = blocked_->level_words(node, level);
    const auto begin = static_cast<std::uint32_t>(scan.flip_pos.size());
    // Key positions ascend like the row: one forward cursor finds them.
    const auto row = counting_->entries(node, level);
    std::size_t at = 0;
    for (const std::uint16_t pos : scan.key_pos) {
      const std::uint64_t bit = 1ULL << (pos % 64);
      const bool set = (words[pos / 64] & bit) != 0;
      if (set == inserted) continue;
      at = CountingAbfTable::seek(row, at, pos);
      const bool counted =
          at < row.size() && CountingAbfTable::entry_pos(row[at]) == pos;
      if (counted != set) {
        words[pos / 64] ^= bit;
        scan.flip_pos.push_back(pos);
      }
    }
    const auto end = static_cast<std::uint32_t>(scan.flip_pos.size());
    if (end != begin) scan.flips.push_back({node, level, begin, end - begin});
  }
  census_flips();
}

void AbfRouter::census_flips() {
  // delta_cap == 0 keeps every row empty: the base flips are all there is.
  if (options_.delta_cap == 0) return;
  DeltaScan& scan = delta_scan_;
  const std::size_t cap = options_.delta_cap;
  // A flip at (w, l) can only move the censuses that read it: (v, l+1)
  // for every neighbor v of w.
  scan.targets.clear();
  for (std::uint32_t f = 0; f < scan.flips.size(); ++f) {
    const DeltaScan::Flip& flip = scan.flips[f];
    if (flip.level + 1 >= options_.depth) continue;
    for (const NodeId v : graph_.neighbors(flip.node)) {
      scan.targets.push_back({v, flip.level + 1, flip.node, f});
    }
  }
  std::sort(scan.targets.begin(), scan.targets.end());

  // Every census reads all its neighbors' level words, scattered over the
  // base slab. A cursor runs kChurnPrefetchAhead of those reads ahead of
  // the scan, across census boundaries, hinting each level's lines.
  std::size_t ahead_next = 0;  // first target of the cursor's next census
  std::span<const NodeId> ahead_nbrs;
  std::size_t ahead_j = 0;
  std::uint32_t ahead_level = 0;
  const std::size_t level_lines =
      std::min<std::size_t>((blocked_->words_per_level() + 7) / 8, 4);
  const auto hint_next = [&] {
    while (ahead_j == ahead_nbrs.size()) {
      if (ahead_next == scan.targets.size()) return;
      const NodeId v = scan.targets[ahead_next].v;
      ahead_level = scan.targets[ahead_next].level;
      while (ahead_next < scan.targets.size() &&
             scan.targets[ahead_next].v == v &&
             scan.targets[ahead_next].level == ahead_level) {
        ++ahead_next;
      }
      ahead_nbrs = graph_.neighbors(v);
      ahead_j = 0;
    }
    const std::uint64_t* words =
        blocked_->level_words(ahead_nbrs[ahead_j++], ahead_level - 1);
    for (std::size_t k = 0; k < level_lines; ++k) {
      __builtin_prefetch(words + 8 * k, 0, 1);
    }
  };
  for (std::size_t k = 0; k < kChurnPrefetchAhead; ++k) hint_next();

  for (std::size_t lo = 0; lo < scan.targets.size();) {
    const NodeId v = scan.targets[lo].v;
    const std::uint32_t level = scan.targets[lo].level;
    std::size_t hi = lo;
    while (hi < scan.targets.size() && scan.targets[hi].v == v &&
           scan.targets[hi].level == level) {
      ++hi;
    }
    // F: the union of the neighbors' flipped positions. Elsewhere no
    // neighbor's bit moved, so neither did any sole contributor.
    scan.tally.clear();
    for (std::size_t t = lo; t < hi; ++t) {
      const DeltaScan::Flip& flip = scan.flips[scan.targets[t].flip];
      for (std::uint32_t k = 0; k < flip.count; ++k) {
        scan.tally.push_back({.pos = scan.flip_pos[flip.begin + k]});
      }
    }
    std::sort(scan.tally.begin(), scan.tally.end(),
              [](const auto& a, const auto& b) { return a.pos < b.pos; });
    const auto same_pos = [](const auto& a, const auto& b) {
      return a.pos == b.pos;
    };
    scan.tally.erase(
        std::unique(scan.tally.begin(), scan.tally.end(), same_pos),
        scan.tally.end());
    // Count contributors at F before and after: a neighbor's old bit is
    // its new bit XOR its flip. The targets of this census are in v's
    // row order, so one cursor walks them beside the row.
    const auto nbrs = graph_.neighbors(v);
    std::size_t t = lo;
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      hint_next();
      const std::uint64_t* words = blocked_->level_words(nbrs[j], level - 1);
      const std::size_t flips_begin = t;
      while (t < hi && scan.targets[t].w == nbrs[j]) ++t;
      for (DeltaScan::Tally& c : scan.tally) {
        const bool now = ((words[c.pos / 64] >> (c.pos % 64)) & 1) != 0;
        bool flipped = false;
        for (std::size_t k = flips_begin; k < t && !flipped; ++k) {
          const DeltaScan::Flip& flip = scan.flips[scan.targets[k].flip];
          const auto first = scan.flip_pos.begin() + flip.begin;
          const auto last = first + flip.count;
          flipped = std::find(first, last, c.pos) != last;
        }
        if (now && c.new_count < 2) {
          ++c.new_count;
          c.new_last = static_cast<std::uint32_t>(j);
        }
        if (now != flipped && c.old_count < 2) {
          ++c.old_count;
          c.old_last = static_cast<std::uint32_t>(j);
        }
      }
    }
    MAKALU_ASSERT(t == hi);
    // Where the sole contributor changed, the old one's arc loses the
    // position and the new one's gains it.
    scan.changes.clear();
    constexpr std::uint32_t kNone = ~std::uint32_t{0};
    for (const DeltaScan::Tally& c : scan.tally) {
      const std::uint32_t was = c.old_count == 1 ? c.old_last : kNone;
      const std::uint32_t now = c.new_count == 1 ? c.new_last : kNone;
      if (was == now) continue;
      if (was != kNone) scan.changes.push_back({was, c.pos, false});
      if (now != kNone) scan.changes.push_back({now, c.pos, true});
    }
    std::sort(scan.changes.begin(), scan.changes.end());
    // Splice each changed arc. Its stored set is the first delta_cap
    // positions of its sole set; below the cap that is the whole set, so
    // the edit is exact. At the cap, gains stay exact (take the first
    // delta_cap of the union) and so do losses past the stored prefix;
    // losing a stored position needs the next sole position, which only
    // a census of that arc can tell.
    for (std::size_t a = 0; a < scan.changes.size();) {
      const std::uint32_t j = scan.changes[a].j;
      std::size_t b = a;
      while (b < scan.changes.size() && scan.changes[b].j == j) ++b;
      const NodeId u = nbrs[j];
      const std::size_t arc_local = neighbor_local_index(u, v);
      if (arc_local < BlockedAbfTable::kMaxDeltaArcLocal) {
        const auto stored = blocked_->arc_delta(u, arc_local, level);
        scan.merged.clear();
        for (const std::uint32_t entry : stored) {
          scan.merged.push_back(BlockedAbfTable::delta_pos(entry));
        }
        const bool capped = stored.size() >= cap;
        bool recensus = false;
        for (std::size_t k = a; k < b && !recensus; ++k) {
          const DeltaScan::ArcChange& change = scan.changes[k];
          const auto it = std::lower_bound(scan.merged.begin(),
                                           scan.merged.end(), change.pos);
          if (change.gained) {
            scan.merged.insert(it, change.pos);
          } else if (it != scan.merged.end() && *it == change.pos) {
            if (capped) {
              recensus = true;
            } else {
              scan.merged.erase(it);
            }
          }
        }
        if (recensus) {
          sole_census(v, level);
          sole_positions(u, level);
        } else if (scan.merged.size() > cap) {
          scan.merged.resize(cap);
        }
        const bool same = std::equal(
            stored.begin(), stored.end(), scan.merged.begin(),
            scan.merged.end(), [](std::uint32_t entry, std::uint16_t pos) {
              return BlockedAbfTable::delta_pos(entry) == pos;
            });
        if (!same) blocked_->set_arc_delta(u, arc_local, level, scan.merged);
      }
      a = b;
    }
    lo = hi;
  }
}

QueryResult AbfRouter::run(NodeId source, NodePredicate has_object,
                           QueryWorkspace& workspace) const {
  return route(source, has_object, options_.ttl, workspace);
}

QueryResult AbfRouter::route(NodeId source, ObjectId object,
                             std::uint32_t ttl,
                             QueryWorkspace& workspace) const {
  const auto has_object = [this, object](NodeId node) {
    return catalog_.node_has_object(node, object);
  };
  return route(source,
               NodePredicate(has_object, ObjectCatalog::object_key(object)),
               ttl, workspace);
}

QueryResult AbfRouter::route(NodeId source, ObjectId object,
                             std::uint32_t ttl, Rng& rng) const {
  QueryWorkspace workspace;
  workspace.rng() = rng;
  const QueryResult result = route(source, object, ttl, workspace);
  rng = workspace.rng();
  return result;
}

template <class Visited>
NodeId AbfRouter::next_hop(NodeId current, const BloomProbeSet& probes,
                           const BlockedProbeSet& bprobes,
                           std::vector<std::uint32_t>& masks, Rng& rng,
                           Visited visited) const {
  const auto nbrs = graph_.neighbors(current);
  // Scores are computed for the whole neighbor row in one kernel pass;
  // ranking (strict >, neighbor-index order tie-break) is unchanged, so
  // visited neighbors being scored too cannot alter the selection.
  masks.resize(nbrs.size());
  if (blocked_ != nullptr) {
    blocked_->match_arcs(current, nbrs, bprobes, masks.data());
  } else {
    arena_.match_many(arc_offsets_[current], nbrs.size(), probes,
                      masks.data());
  }
  double best_score = 0.0;
  NodeId best = kInvalidNode;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const NodeId v = nbrs[i];
    if (visited(v)) continue;
    const double score = FilterArena::score_from_mask(masks[i]);
    if (score > best_score) {
      best_score = score;
      best = v;
    }
  }
  if (best != kInvalidNode) return best;

  // Fallback: random unvisited neighbor (the object may be beyond the
  // filter horizon — keep exploring).
  std::size_t unvisited = 0;
  for (const NodeId v : nbrs) {
    if (!visited(v)) ++unvisited;
  }
  if (unvisited == 0) return kInvalidNode;
  std::size_t pick = rng.uniform_below(unvisited);
  for (const NodeId v : nbrs) {
    if (!visited(v) && pick-- == 0) return v;
  }
  return kInvalidNode;
}

QueryResult AbfRouter::route(NodeId source, NodePredicate has_object,
                             std::uint32_t ttl,
                             QueryWorkspace& workspace) const {
  MAKALU_EXPECTS(source < graph_.node_count());
  QueryResult result;
  workspace.begin_query(graph_.node_count());
  Rng& rng = workspace.rng();

  const std::uint64_t key = has_object.routing_key();
  // Probe positions depend only on the key: derive them once per query
  // and replay against raw table words at every step (the pre-arena code
  // recomputed the hash pair and a runtime-divide modulus for every
  // (neighbor, level) pair — the dominant routing cost).
  const bool blocked = blocked_ != nullptr;
  BloomProbeSet probes;
  BlockedProbeSet bprobes;
  if (blocked) {
    bprobes = blocked_->make_probe_set(key);
  } else {
    probes = arena_.make_probe_set(key);
  }
  auto& masks = workspace.mask_buffer();

  NodeId current = source;
  workspace.mark_visited(current);
  result.nodes_visited = 1;
  auto& path = workspace.node_buffer();  // for backtracking
  path.clear();

  std::uint32_t budget = ttl;
  while (true) {
    if (has_object(current)) {
      result.success = true;
      // "Resolved in less than 10 messages (hops)": hop distance here is
      // the message count spent reaching the replica.
      result.first_hit_hop = static_cast<std::uint32_t>(result.messages);
      result.replicas_found = 1;
      return result;
    }
    if (budget == 0) return result;

    const NodeId best =
        next_hop(current, probes, bprobes, masks, rng,
                 [&](NodeId v) { return workspace.visited(v); });

    if (best != kInvalidNode) {
      path.push_back(current);
      current = best;
      workspace.mark_visited(current);
      ++result.nodes_visited;
      ++result.messages;
      --budget;
      workspace.obs_messages_at_hop(
          static_cast<std::uint32_t>(result.messages), 1);
      continue;
    }

    // Dead end: backtrack one step (a message back up the path).
    if (path.empty()) return result;
    current = path.back();
    path.pop_back();
    ++result.messages;
    --budget;
    workspace.obs_messages_at_hop(
        static_cast<std::uint32_t>(result.messages), 1);
  }
}

void AbfRouter::run_many(std::span<const BatchQueryJob> jobs,
                         const ObjectCatalog& catalog,
                         QueryWorkspace& workspace,
                         QueryResult* results) const {
  if (jobs.empty()) return;
  const std::size_t n = graph_.node_count();
  const std::uint32_t ttl = options_.ttl;
  const bool blocked = blocked_ != nullptr;
  auto& masks = workspace.mask_buffer();

  // Per-walker route state. Each walker is the scalar route loop frozen
  // between iterations: the visited set is its bit in the shared batch
  // array, the backtrack path a fixed ttl+1 slice of `paths`.
  struct Walker {
    NodeId current = kInvalidNode;
    std::uint32_t budget = 0;
    std::uint32_t path_len = 0;
    ObjectId object = 0;
    Rng rng{0};
    BloomProbeSet probes;
    BlockedProbeSet bprobes;
    StackPrefetch prefetch;
    QueryResult result;
  };

  for (std::size_t lo = 0; lo < jobs.size();
       lo += QueryWorkspace::kBatchWidth) {
    const std::size_t len =
        std::min(QueryWorkspace::kBatchWidth, jobs.size() - lo);
    workspace.begin_batch(n);
    std::vector<Walker> walkers(len);
    std::vector<NodeId> paths(len * (std::size_t{ttl} + 1));

    for (std::size_t w = 0; w < len; ++w) {
      const BatchQueryJob& job = jobs[lo + w];
      MAKALU_EXPECTS(job.source < n);
      Walker& walker = walkers[w];
      walker.current = job.source;
      walker.budget = ttl;
      walker.object = job.object;
      walker.rng = job.rng;
      const std::uint64_t key = ObjectCatalog::object_key(job.object);
      if (blocked) {
        walker.bprobes = blocked_->make_probe_set(key);
      } else {
        walker.probes = arena_.make_probe_set(key);
        walker.prefetch = make_stack_prefetch(walker.probes, options_.depth,
                                              arena_.level_stride());
      }
      workspace.batch_mark_visited(job.source, std::uint64_t{1} << w);
      walker.result.nodes_visited = 1;
    }

    // One scalar route-loop iteration; mirrors AbfRouter::route step for
    // step (the differential suite pins the equivalence). Returns true
    // when the walker's query is finished.
    const auto step = [&](std::size_t w) -> bool {
      Walker& walker = walkers[w];
      const std::uint64_t bit = std::uint64_t{1} << w;
      if (catalog.node_has_object(walker.current, walker.object)) {
        walker.result.success = true;
        walker.result.first_hit_hop =
            static_cast<std::uint32_t>(walker.result.messages);
        walker.result.replicas_found = 1;
        return true;
      }
      if (walker.budget == 0) return true;

      const NodeId best = next_hop(
          walker.current, walker.probes, walker.bprobes, masks, walker.rng,
          [&](NodeId v) {
            return (workspace.batch_visited_mask(v) & bit) != 0;
          });

      NodeId* path = paths.data() + w * (std::size_t{ttl} + 1);
      if (best != kInvalidNode) {
        path[walker.path_len++] = walker.current;
        walker.current = best;
        workspace.batch_mark_visited(best, bit);
        ++walker.result.nodes_visited;
        ++walker.result.messages;
        --walker.budget;
        workspace.obs_messages_at_hop(
            static_cast<std::uint32_t>(walker.result.messages), 1);
        return false;
      }
      if (walker.path_len == 0) return true;
      walker.current = path[--walker.path_len];
      ++walker.result.messages;
      --walker.budget;
      workspace.obs_messages_at_hop(
          static_cast<std::uint32_t>(walker.result.messages), 1);
      return false;
    };

    // Pull the probe lines of walker w's next neighbor row toward the
    // core (every kernel, kReference included, probes the same words).
    const auto prefetch_row = [&](std::size_t w) {
      const Walker& walker = walkers[w];
      const auto nbrs = graph_.neighbors(walker.current);
      if (blocked) {
        // The walker's own stack (match_arcs probes it first, to decide
        // which levels to score) and the probed words of each neighbor's
        // deepest level, the one level always scored. The kernel itself
        // prefetches whatever shallower levels the witness keeps.
        const std::uint64_t* own = blocked_->stack_words(walker.current);
        for (std::size_t word = 0; word < blocked_->stack_stride();
             word += 8) {
          __builtin_prefetch(own + word, 0, 1);
        }
        const std::size_t deepest =
            (options_.depth - 1) * blocked_->words_per_level();
        for (const NodeId v : nbrs) {
          const std::uint64_t* base = blocked_->stack_words(v) + deepest;
          for (std::size_t j = 0; j < walker.bprobes.count; ++j) {
            __builtin_prefetch(base + walker.bprobes.word[j], 0, 1);
          }
        }
        return;
      }
      const std::size_t first_arc = arc_offsets_[walker.current];
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const std::uint64_t* base = arena_.level_words(first_arc + i, 0);
        for (std::size_t k = 0; k < walker.prefetch.count; ++k) {
          __builtin_prefetch(base + walker.prefetch.line_word[k], 0, 1);
        }
      }
    };

    std::vector<std::size_t> alive(len);
    std::iota(alive.begin(), alive.end(), std::size_t{0});
    // Far enough that a row's lines arrive before its walker steps, near
    // enough that they are not evicted again.
    constexpr std::size_t kPrefetchAhead = 2;
    while (!alive.empty()) {
      for (std::size_t idx = 0; idx < alive.size();) {
        if (idx + kPrefetchAhead < alive.size()) {
          prefetch_row(alive[idx + kPrefetchAhead]);
        }
        const std::size_t w = alive[idx];
        if (step(w)) {
          results[lo + w] = walkers[w].result;
          alive.erase(alive.begin() +
                      static_cast<std::ptrdiff_t>(idx));
        } else {
          ++idx;
        }
      }
    }
    workspace.obs_batch(len, 0);
  }
}

void AbfRouter::notify_insert(NodeId holder, ObjectId object) {
  MAKALU_EXPECTS(holder < graph_.node_count());
  const std::uint64_t key = ObjectCatalog::object_key(object);
  if (counting_) {
    // Counters are the source of truth under counting maintenance: route
    // the insert through the walk-multiplicity wave so a later remove of
    // the same key decrements coherently, then drain the journal into the
    // blocked base + delta rows.
    counting_->insert_content(holder, key);
    drain_counting_changes(key, /*inserted=*/true);
    return;
  }
  if (blocked_) {
    // Node-level wave: position p newly set at (w, l-1) propagates to
    // every neighbor's level l. Only 0->1 flips travel, so levels that
    // gained nothing spawn nothing, and every flip is recorded for the
    // census. A (v, l) reached from several w gets one record per w; the
    // records' positions are disjoint, since each bit flips once.
    DeltaScan& scan = delta_scan_;
    scan.flips.clear();
    scan.flip_pos.resize(blocked_->hash_count());
    std::size_t newly = 0;
    blocked_->insert(holder, 0, key, scan.flip_pos.data(), &newly);
    scan.flip_pos.resize(newly);
    if (newly != 0) {
      scan.flips.push_back(
          {holder, 0, 0, static_cast<std::uint32_t>(newly)});
    }
    std::size_t lo = 0;
    for (std::size_t level = 1; level < options_.depth; ++level) {
      const std::size_t hi = scan.flips.size();
      for (std::size_t f = lo; f < hi; ++f) {
        const DeltaScan::Flip src = scan.flips[f];  // flips may grow
        for (const NodeId v : graph_.neighbors(src.node)) {
          const auto begin = static_cast<std::uint32_t>(scan.flip_pos.size());
          for (std::uint32_t k = 0; k < src.count; ++k) {
            const std::uint16_t p = scan.flip_pos[src.begin + k];
            if (blocked_->test_position(v, level, p)) continue;
            blocked_->set_position(v, level, p);
            scan.flip_pos.push_back(p);
          }
          const auto count =
              static_cast<std::uint32_t>(scan.flip_pos.size()) - begin;
          if (count != 0) {
            scan.flips.push_back(
                {v, static_cast<std::uint32_t>(level), begin, count});
          }
        }
      }
      lo = hi;
    }
    census_flips();
    return;
  }
  // Wave of arcs that acquired the key at the previous level. Level 0:
  // every in-arc of the holder (the holder advertises its own content).
  std::vector<std::pair<NodeId, std::size_t>> wave;  // (arc owner u, arc idx)
  {
    const auto nbrs = graph_.neighbors(holder);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId u = nbrs[i];
      // Arc u→holder: position of holder in u's sorted row.
      const auto u_row = graph_.neighbors(u);
      const auto it = std::lower_bound(u_row.begin(), u_row.end(), holder);
      const auto idx = static_cast<std::size_t>(it - u_row.begin());
      const std::size_t arc = arc_index(u, idx);
      arena_.insert(arc, 0, key);
      wave.emplace_back(u, arc);
    }
  }

  // Level L: arc (u→v) gains the key when some arc (v→w), w != u, gained
  // it at level L-1. Walk the wave outward; duplicates in the next wave
  // are harmless (filter inserts are idempotent) but pruned for cost.
  for (std::size_t level = 1; level < options_.depth; ++level) {
    std::vector<std::pair<NodeId, std::size_t>> next_wave;
    for (const auto& [v, arc_vw] : wave) {
      // The previous-level arc is owned by v (arc v→w); recover w.
      const auto v_row = graph_.neighbors(v);
      const NodeId w = v_row[arc_vw - arc_offsets_[v]];
      // Every neighbor u of v except w learns at this level.
      for (const NodeId u : v_row) {
        if (u == w) continue;
        const auto u_row = graph_.neighbors(u);
        const auto it = std::lower_bound(u_row.begin(), u_row.end(), v);
        const auto idx = static_cast<std::size_t>(it - u_row.begin());
        const std::size_t arc_uv = arc_index(u, idx);
        if (arena_.maybe_contains(arc_uv, level, key)) continue;
        arena_.insert(arc_uv, level, key);
        next_wave.emplace_back(u, arc_uv);
      }
    }
    wave = std::move(next_wave);
  }
}

void AbfRouter::notify_remove(NodeId holder, ObjectId object) {
  MAKALU_EXPECTS(holder < graph_.node_count());
  if (counting_) {
    const std::uint64_t key = ObjectCatalog::object_key(object);
    counting_->remove_content(holder, key);
    drain_counting_changes(key, /*inserted=*/false);
    return;
  }
  // Plain Bloom levels are monotone — no incremental subtraction exists.
  rebuild();
}

void AbfRouter::rebuild() {
  if (blocked_) {
    blocked_.reset();
    counting_.reset();
    build_blocked_tables(catalog_);
    return;
  }
  arena_.clear();
  build_tables(catalog_);
}

std::size_t AbfRouter::table_bytes() const noexcept {
  if (blocked_) return blocked_->table_bytes();
  return arena_.arc_count() * arena_.stack_byte_size();
}

AbfStackView AbfRouter::advertisement(NodeId u,
                                      std::size_t neighbor_index) const {
  MAKALU_EXPECTS(options_.layout != TableLayout::kBlockedDelta);
  return AbfStackView(&arena_, arc_index(u, neighbor_index));
}

}  // namespace makalu
