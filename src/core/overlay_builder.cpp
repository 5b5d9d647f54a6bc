#include "core/overlay_builder.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "graph/algorithms.hpp"
#include "obs/scoped_timer.hpp"
#include "support/thread_pool.hpp"
#include "topology/generators.hpp"

namespace makalu {

namespace {

/// Sweep-level metric ids (registration is idempotent; repeated sweeps
/// against one registry share ids).
struct SweepMetricIds {
  obs::MetricId sweeps = 0;
  obs::MetricId solicitors = 0;
  obs::MetricId edges_added = 0;
  obs::MetricId edges_removed = 0;
  obs::MetricId plan_ms = 0;
  obs::MetricId apply_ms = 0;
  obs::MetricId prune_ms = 0;

  static SweepMetricIds register_in(obs::MetricsRegistry& registry) {
    SweepMetricIds ids;
    ids.sweeps = registry.counter("sweep.sweeps");
    ids.solicitors = registry.counter("sweep.solicitors");
    ids.edges_added = registry.counter("sweep.edges_added");
    ids.edges_removed = registry.counter("sweep.edges_removed");
    ids.plan_ms = registry.gauge("sweep.plan_ms");
    ids.apply_ms = registry.gauge("sweep.apply_ms");
    ids.prune_ms = registry.gauge("sweep.prune_ms");
    return ids;
  }
};

}  // namespace

OverlayBuilder::OverlayBuilder(MakaluParameters params)
    : params_(params) {
  MAKALU_EXPECTS(params_.capacity_min >= 2);
  MAKALU_EXPECTS(params_.capacity_max >= params_.capacity_min);
  MAKALU_EXPECTS(params_.walk_length >= 1);
  MAKALU_EXPECTS(params_.candidate_set_size >= 1);
}

std::vector<NodeId> OverlayBuilder::gather_candidates(const Graph& g,
                                                      NodeId start,
                                                      NodeId self,
                                                      std::size_t want,
                                                      Rng& rng) const {
  // One independent walk per wanted candidate, all starting at the seed;
  // each walk's *endpoint* is kept. Endpoints of separate walk_length-step
  // walks are near-independent samples of the walk's stationary
  // distribution, so the candidate set spans the whole overlay rather than
  // one seed-local neighborhood — collecting every node along a single
  // walk would hand the joiner a path-shaped (clustered) neighbor set and
  // destroy expansion.
  std::vector<NodeId> candidates;
  if (g.node_count() == 0) return candidates;
  candidates.reserve(want);
  if (params_.oracle_uniform_candidates) {
    // Rejection-sample distinct connected nodes.
    for (std::size_t tries = 0; tries < 40 * want && candidates.size() < want;
         ++tries) {
      const auto c = static_cast<NodeId>(rng.uniform_below(g.node_count()));
      if (c == self || g.degree(c) == 0) continue;
      if (std::find(candidates.begin(), candidates.end(), c) ==
          candidates.end()) {
        candidates.push_back(c);
      }
    }
    return candidates;
  }
  for (std::size_t walk = 0; walk < want; ++walk) {
    NodeId current = start;
    for (std::size_t step = 0; step < params_.walk_length; ++step) {
      const auto nbrs = g.neighbors(current);
      if (nbrs.empty()) break;
      // Metropolis-Hastings degree correction: a plain random walk samples
      // nodes proportionally to degree, which under accept-then-prune
      // management starves low-degree peers of connection offers
      // (rich-get-richer). Moving to a uniform neighbor y with acceptance
      // min(1, deg(x)/deg(y)) makes the stationary distribution uniform
      // over nodes, using only information both endpoints already have.
      const NodeId proposal = nbrs[rng.uniform_below(nbrs.size())];
      const double accept =
          static_cast<double>(g.degree(current)) /
          static_cast<double>(g.degree(proposal));
      if (accept >= 1.0 || rng.uniform() < accept) current = proposal;
    }
    if (current == self) continue;
    if (std::find(candidates.begin(), candidates.end(), current) ==
        candidates.end()) {
      candidates.push_back(current);
    }
  }
  // The seed itself is a valid candidate when the walks could not produce
  // enough distinct peers (tiny bootstrap networks).
  if (candidates.size() < want && start != self &&
      std::find(candidates.begin(), candidates.end(), start) ==
          candidates.end()) {
    candidates.push_back(start);
  }
  return candidates;
}

NodeId OverlayBuilder::pick_victim(
    const Graph& g, std::span<const NeighborRating> ratings) const {
  // Lowest-rated neighbor, skipping peers at or below the low-water
  // mark (dropping them would orphan them); fall back to the absolute
  // worst when every neighbor is protected. Ties break to the smaller id.
  MAKALU_ASSERT(!ratings.empty());
  const NeighborRating* worst = nullptr;
  const NeighborRating* worst_unprotected = nullptr;
  const auto better = [](const NeighborRating& a, const NeighborRating* b) {
    if (b == nullptr) return true;
    if (a.score != b->score) return a.score < b->score;
    return a.neighbor < b->neighbor;
  };
  for (const NeighborRating& r : ratings) {
    if (better(r, worst)) worst = &r;
    if (g.degree(r.neighbor) > params_.low_water_mark &&
        better(r, worst_unprotected)) {
      worst_unprotected = &r;
    }
  }
  return (worst_unprotected != nullptr ? worst_unprotected : worst)
      ->neighbor;
}

std::size_t OverlayBuilder::manage(MakaluOverlay& overlay,
                                   RatingEngine& engine, NodeId u) const {
  std::size_t removed = 0;
  while (overlay.graph.degree(u) > overlay.capacity[u]) {
    // Re-rated every iteration: the removal below changes u's neighborhood.
    const NodeId victim =
        pick_victim(overlay.graph, engine.rate_node(u).ratings);
    overlay.graph.remove_edge(u, victim);
    ++removed;
  }
  return removed;
}

void OverlayBuilder::join_node(MakaluOverlay& overlay,
                               const LatencyModel& latency, NodeId joiner,
                               Rng& rng) const {
  RatingEngine engine(overlay.graph, latency, params_.weights);
  // Pick a random live seed: any node that is already part of the overlay
  // (has at least one connection).
  const Graph& g = overlay.graph;
  NodeId seed_peer = kInvalidNode;
  for (int attempt = 0; attempt < 256; ++attempt) {
    const auto candidate =
        static_cast<NodeId>(rng.uniform_below(g.node_count()));
    if (candidate != joiner && g.degree(candidate) > 0) {
      seed_peer = candidate;
      break;
    }
  }
  if (seed_peer == kInvalidNode) return;  // nothing to join yet
  join_from_seed(overlay, engine, joiner, seed_peer, rng);
}

void OverlayBuilder::join_from_seed(MakaluOverlay& overlay,
                                    RatingEngine& engine, NodeId joiner,
                                    NodeId seed_peer, Rng& rng) const {
  Graph& g = overlay.graph;
  MAKALU_EXPECTS(joiner < g.node_count());
  MAKALU_EXPECTS(seed_peer < g.node_count() && seed_peer != joiner);

  // Join phase: connect to the candidate set until sufficient neighbors
  // are obtained. Acceptors do NOT prune mid-join — the paper's management
  // loop runs after connections are accepted, which matters: only once the
  // joiner's neighborhood exists can its connectivity contribution be
  // rated fairly (a half-joined peer would always look worthless and be
  // evicted immediately, starving newcomers).
  const auto candidates = gather_candidates(
      g, seed_peer, joiner, params_.candidate_set_size, rng);
  std::vector<NodeId> accepted;
  for (const NodeId c : candidates) {
    if (g.degree(joiner) >= overlay.capacity[joiner]) break;
    if (g.add_edge(joiner, c)) accepted.push_back(c);
  }
  // Management phase: every party enforces its capacity.
  manage(overlay, engine, joiner);
  for (const NodeId c : accepted) manage(overlay, engine, c);
}

std::size_t OverlayBuilder::maintenance_round(
    MakaluOverlay& overlay, const LatencyModel& latency, Rng& rng,
    const std::vector<bool>* active) const {
  RatingEngine engine(overlay.graph, latency, params_.weights);
  return maintenance_round(overlay, engine, rng, active);
}

std::size_t OverlayBuilder::maintenance_round(
    MakaluOverlay& overlay, RatingEngine& engine, Rng& rng,
    const std::vector<bool>* active) const {
  Graph& g = overlay.graph;
  const std::size_t n = g.node_count();
  MAKALU_EXPECTS(active == nullptr || active->size() == n);

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_below(i)]);
  }

  std::size_t changes = 0;
  for (const NodeId u : order) {
    if (active != nullptr && !(*active)[u]) continue;
    // Under-provisioned nodes solicit fresh candidates via a random walk
    // from a random neighbor (or a random node if isolated).
    if (g.degree(u) < overlay.capacity[u]) {
      NodeId start;
      const auto nbrs = g.neighbors(u);
      if (!nbrs.empty()) {
        start = nbrs[rng.uniform_below(nbrs.size())];
      } else {
        start = static_cast<NodeId>(rng.uniform_below(n));
        if (start == u) continue;
        if (active != nullptr && !(*active)[start]) continue;
        if (g.degree(start) == 0) continue;  // don't seed from a loner
      }
      const auto candidates = gather_candidates(
          g, start, u, params_.candidate_set_size, rng);
      std::vector<NodeId> accepted;
      for (const NodeId c : candidates) {
        if (g.degree(u) >= overlay.capacity[u]) break;
        if (g.add_edge(u, c)) {
          accepted.push_back(c);
          ++changes;
        }
      }
      for (const NodeId c : accepted) changes += manage(overlay, engine, c);
    }
    changes += manage(overlay, engine, u);
  }
  return changes;
}

std::size_t OverlayBuilder::deterministic_sweep(
    MakaluOverlay& overlay, CachedRatingEngine& context,
    const SweepOptions& options) const {
  Graph& g = overlay.graph;
  const std::size_t n = g.node_count();
  const std::vector<bool>* active = options.active;
  MAKALU_EXPECTS(context.observes(g));
  MAKALU_EXPECTS(active == nullptr || active->size() == n);

  // All sweep metrics are fed from the calling thread (the parallel phases
  // only touch the graph and their own engines), so one shard suffices.
  // Observe-only: nothing below reads the registry back or consumes RNG.
  // Sweep start is a quiescent point (no caller holds neighbor spans), so
  // this is where a bloated compact slab gets its epoch compaction. The
  // threshold trades repack cost against peak slab size; 0.5 keeps the
  // slab under 2x its live content. No-op for adjacency storage; neighbor
  // content and order are unchanged.
  constexpr double kCompactionSlackThreshold = 0.5;
  if (g.storage_slack_ratio() > kCompactionSlackThreshold) {
    g.compact_storage();
  }

  obs::MetricsShard* obs_shard = nullptr;
  SweepMetricIds obs_ids;
  if (options.metrics != nullptr) {
    obs_ids = SweepMetricIds::register_in(*options.metrics);
    options.metrics->ensure_slots(1);
    obs_shard = &options.metrics->shard(0);
  }
  obs::ScopedTimer plan_timer(obs_shard, obs_ids.plan_ms);

  // Phase 1 — plan candidate walks against the frozen pre-sweep graph.
  // Every under-capacity node draws from its own RNG stream (seed mixed
  // with its id), so the plan set is a pure function of (graph, seed) and
  // the walks can run concurrently: they only read the graph.
  std::vector<NodeId> solicitors;
  for (NodeId u = 0; u < n; ++u) {
    if (active != nullptr && !(*active)[u]) continue;
    if (g.degree(u) < overlay.capacity[u]) solicitors.push_back(u);
  }
  std::vector<std::vector<NodeId>> plans(solicitors.size());
  const auto plan_one = [&](std::size_t i) {
    const NodeId u = solicitors[i];
    Rng stream(options.seed ^
               (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(u) + 1)));
    // Walk start mirrors maintenance_round: a random neighbor, or a random
    // connected (active) node when u is isolated.
    NodeId start;
    const auto nbrs = g.neighbors(u);
    if (!nbrs.empty()) {
      start = nbrs[stream.uniform_below(nbrs.size())];
    } else {
      start = static_cast<NodeId>(stream.uniform_below(n));
      if (start == u) return;
      if (active != nullptr && !(*active)[start]) return;
      if (g.degree(start) == 0) return;  // don't seed from a loner
    }
    // Deficit-proportional solicitation: walk for exactly the missing
    // edges instead of a full candidate set. Legacy sweeps always gather
    // candidate_set_size candidates and then throw most of them away once
    // the deficit is covered; since most nodes are one or two edges short,
    // those surplus walks dominate maintenance cost. A duplicate endpoint
    // or already-connected pick occasionally leaves a node short — the
    // residual deficit simply rolls into the next periodic sweep, which is
    // how steady-state maintenance absorbs any shortfall.
    const std::size_t deficit = overlay.capacity[u] - g.degree(u);
    const std::size_t want =
        std::min(params_.candidate_set_size, deficit);
    plans[i] = gather_candidates(g, start, u, want, stream);
  };
  if (options.pool != nullptr) {
    options.pool->parallel_for(0, solicitors.size(), plan_one);
  } else {
    for (std::size_t i = 0; i < solicitors.size(); ++i) plan_one(i);
  }
  plan_timer.stop();
  obs::ScopedTimer apply_timer(obs_shard, obs_ids.apply_ms);

  // Phase 2 — apply the planned connections serially, in a seeded
  // permutation of the solicitors (the legacy sweep's random visiting
  // order, without threading one RNG stream through every phase).
  std::vector<std::size_t> order(solicitors.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng perm_rng(options.seed ^ 0xd1b54a32d192ed03ULL);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[perm_rng.uniform_below(i)]);
  }
  std::size_t changes = 0;
  std::vector<char> touched(n, 0);  // endpoints of edges added this sweep
  for (const std::size_t i : order) {
    const NodeId u = solicitors[i];
    for (const NodeId c : plans[i]) {
      if (g.degree(u) >= overlay.capacity[u]) break;
      if (g.add_edge(u, c)) {
        touched[u] = 1;
        touched[c] = 1;
        ++changes;
      }
    }
  }
  apply_timer.stop();
  const std::size_t edges_added = changes;
  obs::ScopedTimer prune_timer(obs_shard, obs_ids.prune_ms);

  // Phase 3 — capacity enforcement. Pruning only removes edges, so the
  // over-capacity set is fixed now (it can only shrink); legacy manages
  // every visited node plus every acceptor, hence the workset below.
  // Same-color nodes are pairwise at distance >= 3 in the current graph
  // (and removals only grow distances), so their rating read sets and
  // incident-edge write sets are disjoint: within a class, outcomes are
  // independent of execution order — the schedule is thread-count-free.
  std::vector<NodeId> workset;
  for (NodeId u = 0; u < n; ++u) {
    if (g.degree(u) <= overlay.capacity[u]) continue;
    if (touched[u] != 0 || active == nullptr || (*active)[u]) {
      workset.push_back(u);
    }
  }
  const auto classes = two_hop_color_classes(g, workset);
  if (options.pool != nullptr) {
    ThreadPool& pool = *options.pool;
    std::vector<RatingEngine> scratch;
    scratch.reserve(pool.max_slots());
    for (std::size_t s = 0; s < pool.max_slots(); ++s) {
      scratch.push_back(context.make_scratch());
    }
    std::atomic<std::size_t> removed{0};
    for (const auto& cls : classes) {
      pool.parallel_for_slotted(
          0, cls.size(),
          [&](std::size_t slot, std::size_t lo, std::size_t hi) {
            std::size_t local = 0;
            for (std::size_t k = lo; k < hi; ++k) {
              local += manage(overlay, scratch[slot], cls[k]);
            }
            removed.fetch_add(local, std::memory_order_relaxed);
          });
    }
    changes += removed.load(std::memory_order_relaxed);
  } else {
    RatingEngine& engine = context.engine();
    for (const auto& cls : classes) {
      for (const NodeId u : cls) changes += manage(overlay, engine, u);
    }
  }
  prune_timer.stop();
  if (obs_shard != nullptr) {
    obs_shard->add(obs_ids.sweeps);
    obs_shard->add(obs_ids.solicitors, solicitors.size());
    obs_shard->add(obs_ids.edges_added, edges_added);
    obs_shard->add(obs_ids.edges_removed, changes - edges_added);
  }
  return changes;
}

MakaluOverlay OverlayBuilder::build(const LatencyModel& latency,
                                    std::uint64_t seed) const {
  const std::size_t n = latency.node_count();
  MAKALU_EXPECTS(n >= 2);
  Rng rng(seed);

  MakaluOverlay overlay;
  overlay.graph = Graph(n, params_.storage);
  overlay.capacity.resize(n);
  for (auto& cap : overlay.capacity) {
    cap = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(params_.capacity_min),
        static_cast<std::int64_t>(params_.capacity_max)));
  }

  // Nodes join one at a time in a random order (node ids carry no meaning;
  // randomising decouples join order from latency-model structure).
  std::vector<NodeId> join_order(n);
  std::iota(join_order.begin(), join_order.end(), NodeId{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(join_order[i - 1], join_order[rng.uniform_below(i)]);
  }
  // Bootstrap: connect the first two joiners directly.
  overlay.graph.add_edge(join_order[0], join_order[1]);
  RatingEngine engine(overlay.graph, latency, params_.weights);
  for (std::size_t i = 2; i < n; ++i) {
    // Seed from a uniformly random node that has already joined: in a real
    // deployment the bootstrap cache only ever hands out live peers.
    const NodeId seed_peer = join_order[rng.uniform_below(i)];
    join_from_seed(overlay, engine, join_order[i], seed_peer, rng);
  }

  for (std::size_t round = 0; round < params_.maintenance_rounds; ++round) {
    maintenance_round(overlay, engine, rng, nullptr);
  }

  // Safety net: the decentralised protocol produces a connected overlay in
  // practice; stitch stragglers (isolated latecomers whose candidates all
  // pruned them) exactly as a real deployment's re-join would.
  ensure_connected(overlay.graph, rng);
  overlay.graph.compact_storage();
  return overlay;
}

MakaluOverlay OverlayBuilder::build_sharded(
    const LatencyModel& latency, std::uint64_t seed, ThreadPool* pool,
    obs::MetricsRegistry* metrics) const {
  const std::size_t n = latency.node_count();
  MAKALU_EXPECTS(n >= 2);
  // Independent sub-seeds per phase, drawn in fixed order, so the phases
  // cannot correlate with each other or with the sweeps' per-node streams.
  Rng root(seed);
  const std::uint64_t cap_seed = root();
  const std::uint64_t boot_seed = root();
  const std::uint64_t perm_seed = root();
  const std::uint64_t sweep_seed = root();
  const std::uint64_t stitch_seed = root();

  MakaluOverlay overlay;
  overlay.graph = Graph(n, params_.storage);
  overlay.capacity.resize(n);

  // Phase 1 — plan (parallel over contiguous ranges, read-only). Each node
  // draws its capacity and its bootstrap candidate list from its own
  // stream, a pure function of (seed, u): any shard partition — including
  // none — produces identical plans.
  std::vector<NodeId> candidates(n * params_.capacity_max, kInvalidNode);
  const auto plan_one = [&](std::size_t u) {
    Rng cap_stream(cap_seed ^
                   (0x9e3779b97f4a7c15ULL *
                    (static_cast<std::uint64_t>(u) + 1)));
    overlay.capacity[u] = static_cast<std::size_t>(cap_stream.uniform_int(
        static_cast<std::int64_t>(params_.capacity_min),
        static_cast<std::int64_t>(params_.capacity_max)));
    Rng boot_stream(boot_seed ^
                    (0x9e3779b97f4a7c15ULL *
                     (static_cast<std::uint64_t>(u) + 1)));
    // The bootstrap server hands out capacity[u] uniform random peers.
    // Duplicates/self draws are simply dropped — the sweeps below absorb
    // any residual deficit, as they do for walk collisions.
    NodeId* out = candidates.data() + u * params_.capacity_max;
    std::size_t count = 0;
    for (std::size_t draw = 0; draw < overlay.capacity[u]; ++draw) {
      const auto c = static_cast<NodeId>(boot_stream.uniform_below(n));
      if (c == u) continue;
      bool dup = false;
      for (std::size_t i = 0; i < count; ++i) dup = dup || out[i] == c;
      if (!dup) out[count++] = c;
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, n, plan_one);
  } else {
    for (std::size_t u = 0; u < n; ++u) plan_one(u);
  }

  // Phase 2 — apply serially in a seeded permutation (the one true
  // bootstrap order, independent of thread count).
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  Rng perm_rng(perm_seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[perm_rng.uniform_below(i)]);
  }
  Graph& g = overlay.graph;
  for (const NodeId u : order) {
    const NodeId* cand = candidates.data() + u * params_.capacity_max;
    for (std::size_t i = 0;
         i < params_.capacity_max && cand[i] != kInvalidNode; ++i) {
      if (g.degree(u) >= overlay.capacity[u]) break;
      g.add_edge(u, cand[i]);
    }
  }
  candidates.clear();
  candidates.shrink_to_fit();

  // Phase 3 — manage: deterministic sweeps turn the random bootstrap graph
  // into a rating-managed overlay. maintenance_rounds + 2: the bootstrap
  // graph starts with the deficit and over-capacity churn a one-at-a-time
  // join sequence resolves incrementally, and two extra sweeps absorb it.
  CachedRatingEngine context(g, latency, params_.weights);
  Rng sweep_rng(sweep_seed);
  for (std::size_t round = 0; round < params_.maintenance_rounds + 2;
       ++round) {
    SweepOptions sweep;
    sweep.seed = sweep_rng();
    sweep.pool = pool;
    sweep.metrics = metrics;
    deterministic_sweep(overlay, context, sweep);
  }
  Rng stitch_rng(stitch_seed);
  ensure_connected(g, stitch_rng);
  g.compact_storage();
  return overlay;
}

}  // namespace makalu
