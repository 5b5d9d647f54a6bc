#include "search/churn.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "graph/algorithms.hpp"
#include "search/flood_search.hpp"
#include "support/thread_pool.hpp"

namespace makalu {

double ChurnReport::connected_fraction() const {
  if (samples.empty()) return 0.0;
  const auto connected = std::count_if(
      samples.begin(), samples.end(),
      [](const ChurnSample& s) { return s.online_components <= 1; });
  return static_cast<double>(connected) /
         static_cast<double>(samples.size());
}

double ChurnReport::worst_giant_fraction() const {
  double worst = 1.0;
  for (const auto& s : samples) worst = std::min(worst, s.giant_fraction);
  return worst;
}

double ChurnReport::mean_search_success() const {
  double total = 0.0;
  std::size_t counted = 0;
  for (const auto& s : samples) {
    if (s.search_success >= 0.0) {
      total += s.search_success;
      ++counted;
    }
  }
  return counted > 0 ? total / static_cast<double>(counted) : -1.0;
}

namespace {

struct ChurnState {
  MakaluOverlay overlay;
  std::vector<bool> online;
  Rng rng{0};
  FaultPlan faults;  ///< local copy; its private Rng advances here
};

ChurnSample sample_metrics(ChurnState& state, const ChurnOptions& options,
                           double now) {
  ChurnSample s;
  s.time_ms = now;
  const std::size_t n = state.overlay.graph.node_count();
  // Induced online subgraph (offline nodes are isolated by construction,
  // but a subgraph keeps component counting honest).
  std::vector<bool> offline(n);
  for (std::size_t v = 0; v < n; ++v) offline[v] = !state.online[v];
  std::vector<NodeId> old_to_new;
  const Graph live = state.overlay.graph.remove_nodes(offline, &old_to_new);
  s.online = live.node_count();
  if (s.online == 0) {
    s.giant_fraction = 1.0;
    return s;
  }
  const CsrGraph csr = CsrGraph::from_graph(live);
  const auto comps = connected_components(csr);
  std::size_t isolated = 0;
  double degree_total = 0.0;
  for (NodeId v = 0; v < live.node_count(); ++v) {
    degree_total += static_cast<double>(live.degree(v));
    isolated += (live.degree(v) == 0);
  }
  // Isolated nodes are peers mid-(re)join; the overlay-health signal is
  // the component structure of the *participating* (linked) nodes.
  s.online_components = comps.count - isolated + (isolated > 0 ? 1 : 0);
  if (isolated == s.online) s.online_components = 1;  // degenerate
  s.giant_fraction = static_cast<double>(comps.largest_size()) /
                     static_cast<double>(s.online);
  s.mean_degree = degree_total / static_cast<double>(s.online);
  s.isolated_online = isolated;

  // Search sampling: floods on the live subgraph; holders are original
  // ids, so map live ids back before the catalog check.
  if (options.catalog != nullptr && options.queries_per_sample > 0) {
    std::vector<NodeId> new_to_old(live.node_count(), kInvalidNode);
    for (NodeId old_id = 0; old_id < n; ++old_id) {
      if (old_to_new[old_id] != kInvalidNode) {
        new_to_old[old_to_new[old_id]] = old_id;
      }
    }
    const FloodEngine engine(csr);
    FloodOptions fopts;
    fopts.ttl = options.query_ttl;
    QueryWorkspace workspace;
    std::size_t hits = 0;
    for (std::size_t q = 0; q < options.queries_per_sample; ++q) {
      const auto source =
          static_cast<NodeId>(state.rng.uniform_below(live.node_count()));
      const auto object = static_cast<ObjectId>(
          state.rng.uniform_below(options.catalog->object_count()));
      const auto has_object = [&](NodeId v) {
        return options.catalog->node_has_object(new_to_old[v], object);
      };
      const auto r =
          engine.run(source, NodePredicate(has_object), fopts, workspace);
      bool delivered = r.success;
      if (delivered && state.faults.has_link_faults()) {
        // The query walked first_hit_hop hops out and the hit walks the
        // same trail back; losing any leg loses the result.
        delivered = !state.faults.any_lost(
            2 * static_cast<std::size_t>(r.first_hit_hop));
      }
      hits += delivered;
    }
    s.search_success = static_cast<double>(hits) /
                       static_cast<double>(options.queries_per_sample);
  }
  return s;
}

}  // namespace

ChurnReport simulate_churn(const OverlayBuilder& builder,
                           const LatencyModel& latency,
                           const ChurnOptions& options) {
  MAKALU_EXPECTS(options.mean_session_ms > 0.0);
  MAKALU_EXPECTS(options.mean_downtime_ms > 0.0);
  MAKALU_EXPECTS(options.duration_ms > 0.0);

  ChurnState state;
  state.rng = Rng(options.seed);
  state.faults = options.faults;
  state.overlay = builder.build(latency, options.seed ^ 0xc4a21);
  const std::size_t n = state.overlay.graph.node_count();
  state.online.assign(n, true);
  std::vector<bool> crashed(n, false);

  // Deterministic-maintenance mode: sweeps run through the
  // thread-count-invariant schedule, carrying one rating context (and its
  // serial engine's scratch) for the whole run.
  const bool deterministic_maintenance = options.maintenance_threads > 0;
  std::optional<CachedRatingEngine> context;
  std::unique_ptr<ThreadPool> pool;
  if (deterministic_maintenance) {
    context.emplace(state.overlay.graph, latency,
                    builder.parameters().weights);
    if (options.maintenance_threads > 1) {
      pool = std::make_unique<ThreadPool>(options.maintenance_threads);
    }
  }

  ChurnReport report;
  EventQueue queue;

  // Take the configured fraction offline at t=0 so the run starts from a
  // churned steady state rather than the pristine build.
  for (NodeId v = 0; v < n; ++v) {
    if (!state.rng.chance(options.initial_online_fraction)) {
      state.online[v] = false;
      state.overlay.graph.isolate(v);
    }
  }

  const double session_rate = 1.0 / options.mean_session_ms;
  const double downtime_rate = 1.0 / options.mean_downtime_ms;

  // Node lifecycle events reschedule themselves.
  std::function<void(NodeId)> depart;
  std::function<void(NodeId)> arrive;
  // Re-join through the normal protocol. join_node walks from a random
  // live seed; offline nodes are isolated so walks cannot land on them.
  // Joins are the same in both maintenance modes. Under link faults the
  // handshake (4 wire messages: probe, reply, request, accept) can be
  // lost, leaving the node online-but-isolated until the retry lands.
  std::function<void(NodeId)> try_join;
  try_join = [&](NodeId v) {
    if (!state.online[v] || crashed[v]) return;
    if (state.overlay.graph.degree(v) > 0) return;  // already linked
    if (state.faults.has_link_faults() && state.faults.any_lost(4)) {
      ++report.failed_joins;
      queue.schedule_in(options.join_retry_ms, [&, v] { try_join(v); });
      return;
    }
    builder.join_node(state.overlay, latency, v, state.rng);
  };
  depart = [&](NodeId v) {
    if (!state.online[v]) return;
    state.online[v] = false;
    state.overlay.graph.isolate(v);  // ungraceful: links just vanish
    ++report.departures;
    queue.schedule_in(state.rng.exponential(downtime_rate),
                      [&, v] { arrive(v); });
  };
  arrive = [&](NodeId v) {
    if (state.online[v] || crashed[v]) return;
    state.online[v] = true;
    ++report.arrivals;
    try_join(v);
    queue.schedule_in(state.rng.exponential(session_rate),
                      [&, v] { depart(v); });
  };

  // Crash-stop schedule: a crash is a permanent ungraceful departure —
  // the node's links vanish and arrive() refuses it forever after.
  for (const CrashEvent& ev : state.faults.crashes()) {
    if (ev.node >= n) continue;
    queue.schedule(std::max(0.0, ev.time_ms), [&, v = ev.node] {
      if (crashed[v]) return;
      crashed[v] = true;
      ++report.crashes;
      if (state.online[v]) {
        state.online[v] = false;
        state.overlay.graph.isolate(v);
        ++report.departures;
      }
    });
  }

  // Seed the lifecycle: every node gets its first transition.
  for (NodeId v = 0; v < n; ++v) {
    if (state.online[v]) {
      queue.schedule_in(state.rng.exponential(session_rate),
                        [&, v] { depart(v); });
    } else {
      queue.schedule_in(state.rng.exponential(downtime_rate),
                        [&, v] { arrive(v); });
    }
  }

  // Maintenance sweeps: under-provisioned survivors re-solicit peers.
  std::function<void()> maintain = [&] {
    // One split per sweep in either mode, so state.rng's trajectory — and
    // with it the rest of the simulation — is mode- and thread-agnostic.
    Rng sweep_rng = state.rng.split(static_cast<std::uint64_t>(queue.now()));
    if (deterministic_maintenance) {
      SweepOptions sweep;
      sweep.seed = sweep_rng();
      sweep.active = &state.online;
      sweep.pool = pool.get();
      sweep.metrics = options.metrics;
      builder.deterministic_sweep(state.overlay, *context, sweep);
    } else {
      builder.maintenance_round(state.overlay, latency, sweep_rng,
                                &state.online);
    }
    if (queue.now() + options.maintenance_interval_ms <=
        options.duration_ms) {
      queue.schedule_in(options.maintenance_interval_ms, maintain);
    }
  };
  queue.schedule_in(options.maintenance_interval_ms, maintain);

  // Metric sampling grid.
  std::function<void()> sample = [&] {
    report.samples.push_back(sample_metrics(state, options, queue.now()));
    if (queue.now() + options.sample_interval_ms <= options.duration_ms) {
      queue.schedule_in(options.sample_interval_ms, sample);
    }
  };
  queue.schedule(0.0, sample);

  queue.run_until(options.duration_ms);
  return report;
}

}  // namespace makalu
