#include "search/timed_flood.hpp"

#include <algorithm>
#include <functional>

#include "support/event_queue.hpp"

namespace makalu {

TimedFloodEngine::TimedFloodEngine(const CsrGraph& graph,
                                   const LatencyModel& latency,
                                   TimedFloodOptions options)
    : graph_(graph), latency_(latency), options_(options) {
  MAKALU_EXPECTS(latency.node_count() >= graph.node_count());
}

QueryResult TimedFloodEngine::run(NodeId source, NodePredicate has_object,
                                  QueryWorkspace& workspace) const {
  return run_timed(source, has_object, options_.ttl, workspace);
}

TimedFloodResult TimedFloodEngine::run(NodeId source, ObjectId object,
                                       const ObjectCatalog& catalog,
                                       std::uint32_t ttl) const {
  QueryWorkspace workspace;
  const auto has_object = [&catalog, object](NodeId node) {
    return catalog.node_has_object(node, object);
  };
  return run_timed(
      source, NodePredicate(has_object, ObjectCatalog::object_key(object)),
      ttl, workspace);
}

TimedFloodResult TimedFloodEngine::run_timed(
    NodeId source, NodePredicate has_object, std::uint32_t ttl,
    QueryWorkspace& workspace) const {
  MAKALU_EXPECTS(source < graph_.node_count());
  TimedFloodResult result;
  workspace.begin_query(graph_.node_count());

  EventQueue queue;
  // Accumulated reverse-path latency from each first-visited node back to
  // the source (sum of link latencies along the earliest-arrival tree).
  auto& path_back_ms = workspace.value_buffer();
  path_back_ms.assign(graph_.node_count(), 0.0);

  std::function<void(NodeId, NodeId, std::uint32_t, std::uint32_t)>
      deliver = [&](NodeId node, NodeId sender, std::uint32_t remaining,
                    std::uint32_t hop) {
        result.quiescent_ms = queue.now();
        if (workspace.visited(node)) {
          ++result.duplicates;
          return;
        }
        workspace.mark_visited(node);
        ++result.nodes_visited;
        if (sender != kInvalidNode) {
          path_back_ms[node] =
              path_back_ms[sender] +
              std::max(0.01, latency_.latency(sender, node));
        }
        if (has_object(node)) {
          ++result.replicas_found;
          if (!result.success) {
            result.success = true;
            result.first_hit_hop = hop;
            result.first_hit_ms = queue.now();
            result.response_ms = queue.now() + path_back_ms[node];
          }
        }
        if (remaining == 0) return;
        std::uint64_t sent = 0;
        for (const NodeId next : graph_.neighbors(node)) {
          if (next == sender) continue;
          ++sent;
          ++result.messages;
          const double delay =
              std::max(0.01, latency_.latency(node, next));
          queue.schedule_in(delay, [&deliver, next, node, remaining, hop] {
            deliver(next, node, remaining - 1, hop + 1);
          });
        }
        if (sent > 0) {
          ++result.forwarders;
          workspace.charge_outgoing(node, sent);
          // Transmissions scheduled here arrive one hop further out —
          // same hop attribution as the synchronous flood engines.
          workspace.obs_messages_at_hop(hop + 1, sent);
        }
      };

  queue.schedule(0.0, [&] { deliver(source, kInvalidNode, ttl, 0); });
  queue.run();
  return result;
}

}  // namespace makalu
