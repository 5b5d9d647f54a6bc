#include "proto/network.hpp"

#include <algorithm>

#include "proto/codec.hpp"

namespace makalu::proto {

void TrafficStats::record(const Message& message) {
  const std::size_t index = payload_index(message.payload);
  const std::size_t size = wire_size(message);
  ++count[index];
  bytes[index] += size;
  ++total_messages;
  total_bytes += size;
}

void export_traffic_metrics(const TrafficStats& stats,
                            obs::MetricsRegistry& registry) {
  registry.ensure_slots(1);
  obs::MetricsShard& shard = registry.shard(0);
  shard.add(registry.counter("proto.messages"), stats.total_messages);
  shard.add(registry.counter("proto.bytes"), stats.total_bytes);
  for (std::size_t i = 0; i < kPayloadTypes; ++i) {
    if (stats.count[i] == 0) continue;
    const std::string name = payload_type_name(i);
    shard.add(registry.counter("proto.messages." + name), stats.count[i]);
    shard.add(registry.counter("proto.bytes." + name), stats.bytes[i]);
  }
  shard.add(registry.counter("proto.dropped_messages"),
            stats.dropped_messages);
  shard.add(registry.counter("proto.dropped_bytes"), stats.dropped_bytes);
  shard.add(registry.counter("proto.crash_drops"), stats.crash_drops);
  shard.add(registry.counter("proto.retransmissions"),
            stats.retransmissions);
  shard.add(registry.counter("proto.handshake_timeouts"),
            stats.handshake_timeouts);
  shard.add(registry.counter("proto.dead_peers_detected"),
            stats.dead_peers_detected);
  shard.add(registry.counter("proto.half_open_repairs"),
            stats.half_open_repairs);
}

// --- SimHost: one engine's view of the simulated world ----------------------

void ProtocolNetwork::SimHost::send(NodeId to, Payload payload) {
  net_->send(self_, to, std::move(payload));
}

void ProtocolNetwork::SimHost::schedule(double delay_ms,
                                        std::function<void()> fn) {
  net_->hub_.events().schedule_in(delay_ms, std::move(fn));
}

double ProtocolNetwork::SimHost::now_ms() const {
  return net_->hub_.now_ms();
}

Rng& ProtocolNetwork::SimHost::rng() { return net_->rng_; }

double ProtocolNetwork::SimHost::link_latency_ms(NodeId peer) const {
  return net_->latency_.latency(self_, peer);
}

bool ProtocolNetwork::SimHost::self_crashed() const {
  return net_->is_crashed(self_);
}

bool ProtocolNetwork::SimHost::peer_crashed(NodeId peer) const {
  return net_->is_crashed(peer);
}

NodeId ProtocolNetwork::SimHost::random_live_peer(NodeId exclude) {
  return net_->random_live_node(exclude);
}

const ObjectCatalog* ProtocolNetwork::SimHost::catalog() const {
  return net_->catalog_;
}

void ProtocolNetwork::SimHost::count(EngineCounter counter) {
  switch (counter) {
    case EngineCounter::kRetransmission:
      ++net_->traffic_.retransmissions;
      break;
    case EngineCounter::kHandshakeTimeout:
      ++net_->traffic_.handshake_timeouts;
      break;
    case EngineCounter::kDeadPeerDetected:
      ++net_->traffic_.dead_peers_detected;
      break;
    case EngineCounter::kHalfOpenRepair:
      ++net_->traffic_.half_open_repairs;
      break;
  }
}

void ProtocolNetwork::SimHost::on_query_sent(QueryId id) {
  auto& active = net_->active_query_;
  if (active && active->id == id) ++active->outcome.query_messages;
}

void ProtocolNetwork::SimHost::on_hit_sent(QueryId id) {
  auto& active = net_->active_query_;
  if (active && active->id == id) ++active->outcome.hit_messages;
}

bool ProtocolNetwork::SimHost::consume_hit_at_origin(const QueryHit& hit) {
  auto& active = net_->active_query_;
  if (!active || active->id != hit.id || self_ != active->origin) {
    return false;
  }
  auto& outcome = active->outcome;
  ++outcome.hits;
  if (!outcome.success) {
    outcome.success = true;
    outcome.response_ms = net_->hub_.now_ms() - active->issued_ms;
  }
  return true;
}

// --- network -----------------------------------------------------------------

ProtocolNetwork::ProtocolNetwork(const LatencyModel& latency,
                                 const ObjectCatalog* catalog,
                                 const ProtocolOptions& options,
                                 std::uint64_t seed)
    : latency_(latency),
      catalog_(catalog),
      options_(options),
      rng_(seed),
      hub_(latency) {
  const std::size_t n = latency.node_count();
  MAKALU_EXPECTS(n >= 2);
  MAKALU_EXPECTS(options.capacity_min >= 2);
  MAKALU_EXPECTS(options.capacity_max >= options.capacity_min);
  nodes_.reserve(n);
  for (NodeId id = 0; id < n; ++id) {
    const auto capacity = static_cast<std::size_t>(rng_.uniform_int(
        static_cast<std::int64_t>(options.capacity_min),
        static_cast<std::int64_t>(options.capacity_max)));
    nodes_.emplace_back(id, capacity, options.weights,
                        options.seen_query_capacity);
  }
  // Hosts and engines reference nodes_/hosts_ slots; all three vectors
  // are sized here and never grow, so the references stay valid.
  hosts_.reserve(n);
  engines_.reserve(n);
  for (NodeId id = 0; id < n; ++id) {
    hosts_.emplace_back(this, id);
  }
  for (NodeId id = 0; id < n; ++id) {
    engines_.emplace_back(nodes_[id], options_, hosts_[id]);
  }
  node_out_bytes_.assign(n, 0);
  node_in_bytes_.assign(n, 0);
  for (NodeId id = 0; id < n; ++id) {
    hub_.endpoint(id).set_receive_handler(
        [this, id](NodeId, const std::uint8_t* frame, std::size_t size) {
          deliver(id, frame, size);
        });
  }
  attach_faults({}, 0);
}

void ProtocolNetwork::attach_faults(const net::FaultShimOptions& link,
                                    std::uint64_t seed,
                                    CrashSchedule crashes) {
  MAKALU_EXPECTS(traffic_.total_messages == 0);
  shims_.clear();
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    shims_.push_back(std::make_unique<net::FaultShim>(
        hub_.endpoint(id), link, net::shim_seed(seed, id)));
  }
  crashes_ = std::move(crashes);
}

std::vector<bool> ProtocolNetwork::crashed_mask() const {
  std::vector<bool> mask(nodes_.size(), false);
  for (NodeId v = 0; v < nodes_.size(); ++v) mask[v] = is_crashed(v);
  return mask;
}

void ProtocolNetwork::send(NodeId from, NodeId to, Payload payload) {
  MAKALU_EXPECTS(from < nodes_.size() && to < nodes_.size());
  MAKALU_EXPECTS(from != to);
  // Crash-stop: a dead host transmits nothing (timers armed before the
  // crash may still fire on its behalf — they are silenced here).
  if (is_crashed(from)) return;
  const Message message{from, to, std::move(payload)};
  traffic_.record(message);
  const std::size_t size = wire_size(message);
  node_out_bytes_[from] += size;
  node_in_bytes_[to] += size;
  frame_.clear();
  encode(message, frame_);
  net::FaultShim& shim = *shims_[from];
  const std::uint64_t dropped_before = shim.stats().shim_dropped;
  shim.send(to, frame_.data(), frame_.size());
  if (shim.stats().shim_dropped != dropped_before) {
    ++traffic_.dropped_messages;
    traffic_.dropped_bytes += size;
  }
}

void ProtocolNetwork::deliver(NodeId self, const std::uint8_t* frame,
                              std::size_t size) {
  // Every frame was encoded by send(); a reject here is a codec bug.
  const std::optional<Message> message = decode(frame, size);
  MAKALU_ASSERT(message.has_value() && message->to == self);
  // Crash-stop: messages addressed to a dead host vanish at its NIC.
  if (is_crashed(self)) {
    ++traffic_.crash_drops;
    return;
  }
  if (options_.robustness.enabled) {
    // Any delivered traffic is proof of life for the failure detector.
    nodes_[self].note_alive(message->from);
  }
  engines_[self].handle(*message);
}

void ProtocolNetwork::start_join(NodeId joiner, NodeId seed_peer) {
  MAKALU_EXPECTS(joiner < nodes_.size());
  MAKALU_EXPECTS(seed_peer < nodes_.size() && seed_peer != joiner);
  engines_[joiner].start_join(seed_peer);
}

// --- keepalive / failure detection ------------------------------------------

void ProtocolNetwork::run_keepalive_rounds(std::size_t rounds) {
  MAKALU_EXPECTS(options_.robustness.enabled);
  const double interval = options_.robustness.keepalive_interval_ms;
  for (std::size_t round = 0; round < rounds; ++round) {
    const double when = interval * static_cast<double>(round + 1);
    for (NodeId v = 0; v < nodes_.size(); ++v) {
      hub_.events().schedule_in(
          when, [this, v] { engines_[v].keepalive_tick(); });
    }
  }
  hub_.run_until_idle();
}

NodeId ProtocolNetwork::random_live_node(NodeId exclude) {
  const std::size_t n = nodes_.size();
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto candidate = static_cast<NodeId>(rng_.uniform_below(n));
    if (candidate == exclude || is_crashed(candidate)) continue;
    if (nodes_[candidate].degree() > 0) return candidate;
  }
  return kInvalidNode;
}

double ProtocolNetwork::bootstrap_all() {
  const std::size_t n = nodes_.size();
  const bool robust = options_.robustness.enabled;
  // Random join order; node order[0] and order[1] bootstrap directly.
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[v] = v;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng_.uniform_below(i)]);
  }
  // Direct bootstrap link.
  const NodeId a = order[0];
  const NodeId b = order[1];
  nodes_[a].add_neighbor(b, std::max(0.01, latency_.latency(a, b)), {});
  nodes_[b].add_neighbor(a, std::max(0.01, latency_.latency(a, b)), {});

  double when = options_.join_spacing_ms;
  for (std::size_t i = 2; i < n; ++i) {
    const NodeId joiner = order[i];
    const NodeId seed = order[rng_.uniform_below(i)];
    hub_.events().schedule(when, [this, joiner, seed] {
      // The seed may have gone idle-degree-0 in pathological races; fall
      // back to any connected node.
      start_join(joiner, seed);
    });
    when += options_.join_spacing_ms;
  }
  hub_.run_until_idle();
  // A reconciliation round between phases keeps dead links from stalling
  // the maintenance pulses (miss counters persist across rounds, so each
  // interleaved round advances detection).
  if (robust) run_keepalive_rounds(1);

  // Maintenance pulses: under-provisioned nodes re-solicit candidates
  // from the bootstrap cache (a random live host, as a GWebCache would
  // hand out). This is the message-level analogue of the direct builder's
  // maintenance rounds, and it is what re-merges geographic clusters
  // whose long-haul bridges the proximity term pruned during the
  // concurrent join storm.
  for (std::size_t round = 0; round < options_.maintenance_pulses; ++round) {
    for (NodeId v = 0; v < n; ++v) {
      if (is_crashed(v)) continue;
      const ProtocolNode& node = nodes_[v];
      if (node.degree() >= node.capacity()) continue;
      const NodeId seed = random_live_node(v);
      if (seed == kInvalidNode) continue;
      hub_.events().schedule_in(rng_.uniform(0.0, 50.0),
                                [this, v, seed] { start_join(v, seed); });
    }
    hub_.run_until_idle();
    if (robust) run_keepalive_rounds(1);
  }
  // Final reconciliation: enough rounds for the dead-peer detector to
  // trip on every remaining silent link, plus slack for the repairs'
  // own handshakes (and their half-open fallout) to settle.
  if (robust) {
    run_keepalive_rounds(options_.robustness.keepalive_max_misses + 2);
  }
  return hub_.now_ms();
}

Graph ProtocolNetwork::overlay_snapshot() const {
  Graph g(nodes_.size());
  for (const auto& node : nodes_) {
    for (const auto& neighbor : node.neighbors()) {
      // Add only mutually acknowledged links once.
      if (node.id() < neighbor.peer &&
          nodes_[neighbor.peer].has_neighbor(node.id())) {
        g.add_edge(node.id(), neighbor.peer);
      }
    }
  }
  return g;
}

// --- queries -----------------------------------------------------------------

QueryOutcome ProtocolNetwork::run_query(NodeId source, ObjectId object,
                                        std::uint8_t ttl) {
  MAKALU_EXPECTS(catalog_ != nullptr);
  MAKALU_EXPECTS(source < nodes_.size());
  ActiveQuery query;
  query.id = next_query_id_++;
  query.origin = source;
  query.issued_ms = hub_.now_ms();
  active_query_ = query;

  if (engines_[source].start_query(query.id, object, ttl)) {
    active_query_->outcome.success = true;
    active_query_->outcome.response_ms = 0.0;
    active_query_->outcome.hits = 1;
  }
  hub_.run_until_idle();
  const QueryOutcome outcome = active_query_->outcome;
  active_query_.reset();
  return outcome;
}

}  // namespace makalu::proto
