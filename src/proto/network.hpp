// The message-level Makalu network: nodes + discrete-event delivery.
//
// This is the distributed-systems counterpart of core/overlay_builder:
// the same protocol, but executed as actual message exchanges over the
// physical-latency model. Join walks, handshakes, routing-table pushes,
// management-phase prunes, query floods, and reverse-path query hits are
// all explicit wire messages with sizes — so the layer answers the
// questions the graph abstraction cannot: how much *control* bandwidth
// the overlay costs, how message latency shapes response time, and
// whether the emergent overlay matches the direct builder's quality.
//
// The per-node protocol logic lives in proto::PeerEngine, and the wire
// is the one the live peers use: every node owns a net::LoopbackHub
// endpoint wrapped in a net::FaultShim, every payload is framed through
// proto/codec into one reused buffer, and the hub delivers each frame
// after max(0.01, latency(from, to)) on its calendar, where it is
// decoded and handed to the receiving engine. This class is the
// *simulation host*: it owns N engines and the hub, and adapts each
// engine through a per-node SimHost that keeps the host-side policy a
// live peer cannot have (cluster/live_node.hpp lists the differences):
// one shared Rng stream, the crash oracle, a bootstrap cache that knows
// which peers are alive, one active query at a time, and the
// bootstrap/keepalive schedule. The shared RNG stream and the hub's
// (time, seq) FIFO calendar make whole runs bit-reproducible.
//
// Fault tolerance: attach_faults() subjects every datagram to the
// shims' link faults (drop, jitter, reorder, duplicate — one per-link
// verdict stream each) and schedules crash-stop failures, and
// ProtocolOptions::robustness enables the protocol-side survival
// machinery — ack-based handshake timeouts with capped
// exponential-backoff retries, walk-probe retries, a Ping/Pong keepalive
// with dead-peer detection that tears down links to crashed neighbors
// and re-solicits replacements, and half-open link reconciliation (a
// Ping from a non-neighbor is answered with Disconnect). Both layers
// are strictly opt-in: with no faults attached and robustness disabled
// (the defaults), every send and timer posts exactly one calendar event
// at the same time as the pre-fault, pre-codec implementation did, so
// the network's traffic is bit-identical to it (pinned by the
// golden-trace test in tests/fault_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/rating.hpp"
#include "graph/graph.hpp"
#include "net/fault_shim.hpp"
#include "net/latency_model.hpp"
#include "net/loopback_transport.hpp"
#include "obs/metrics.hpp"
#include "proto/node.hpp"
#include "proto/peer_engine.hpp"
#include "sim/crash_schedule.hpp"
#include "sim/replica_placement.hpp"
#include "support/rng.hpp"

namespace makalu::proto {

/// Per-message-type traffic counters, plus the reliability counters the
/// fault layer feeds. Accounting convention: count/bytes (and the
/// per-node sent/received tallies) are recorded at *send* time for every
/// transmission, so they match the pre-fault traces bit-for-bit and the
/// sent/received sums always agree; messages a FaultShim drops are
/// additionally tallied under dropped_*, and messages that arrive at a
/// crashed host under crash_drops.
struct TrafficStats {
  std::array<std::uint64_t, kPayloadTypes> count{};
  std::array<std::uint64_t, kPayloadTypes> bytes{};
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;

  // --- reliability counters (all zero on a perfect wire) -------------------
  std::uint64_t dropped_messages = 0;   ///< lost on the wire (FaultShim)
  std::uint64_t dropped_bytes = 0;
  std::uint64_t crash_drops = 0;        ///< arrived at a crashed node
  std::uint64_t retransmissions = 0;    ///< handshake + walk re-sends
  std::uint64_t handshake_timeouts = 0; ///< retry budgets exhausted
  std::uint64_t dead_peers_detected = 0;///< keepalive teardowns
  std::uint64_t half_open_repairs = 0;  ///< Ping from non-neighbor healed

  void record(const Message& message);
};

/// Publishes a TrafficStats snapshot into `registry` as counters:
/// "proto.messages" / "proto.bytes" totals, per-type
/// "proto.messages.<payload>" / "proto.bytes.<payload>" breakdowns
/// (zero-valued types are skipped), and the seven reliability counters
/// under "proto.<name>". Counters are cumulative adds — call once per
/// finished network (e.g. right before a BenchReport snapshot); calling
/// again adds the stats a second time.
void export_traffic_metrics(const TrafficStats& stats,
                            obs::MetricsRegistry& registry);

struct QueryOutcome {
  bool success = false;
  double response_ms = -1.0;   ///< issue -> first QueryHit at the origin
  std::uint64_t hits = 0;      ///< QueryHits that reached the origin
  std::uint64_t query_messages = 0;  ///< Query transmissions
  std::uint64_t hit_messages = 0;    ///< QueryHit transmissions
};

class ProtocolNetwork {
 public:
  /// `catalog` may be null when only overlay construction is exercised.
  ProtocolNetwork(const LatencyModel& latency, const ObjectCatalog* catalog,
                  const ProtocolOptions& options, std::uint64_t seed);

  // Engines' hosts hold back-pointers into this object.
  ProtocolNetwork(const ProtocolNetwork&) = delete;
  ProtocolNetwork& operator=(const ProtocolNetwork&) = delete;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }

  /// Subjects all subsequent datagrams to `link` faults — node v's
  /// shim is seeded shim_seed(seed, v) — and schedules `crashes`. Call
  /// before any traffic flows (crash times are absolute simulation
  /// times, and bootstrap starts the clock at zero). Inert options and
  /// an empty schedule draw no randomness and change nothing.
  void attach_faults(const net::FaultShimOptions& link, std::uint64_t seed,
                     CrashSchedule crashes = {});
  /// True if `node` has crash-stopped by the current simulation time.
  [[nodiscard]] bool is_crashed(NodeId node) const {
    return crashes_.crashed(node, hub_.now_ms());
  }
  /// Mask of nodes crashed by now (true = crashed); for restricting
  /// overlay metrics to survivors.
  [[nodiscard]] std::vector<bool> crashed_mask() const;

  /// Schedules a staggered join of every node and runs the queue until
  /// the network quiesces. Returns simulated convergence time (ms).
  /// With robustness enabled, keepalive/reconciliation rounds are
  /// interleaved with the maintenance pulses so dead peers and half-open
  /// links left by faults are repaired before the call returns.
  double bootstrap_all();

  /// Runs `rounds` network-wide keepalive rounds (robustness must be
  /// enabled): every live node pings its neighbors once per round at
  /// keepalive_interval_ms cadence, tears down peers that exceeded the
  /// miss budget, re-solicits replacements, and answers half-open Pings
  /// with Disconnect. Returns once the queue drains.
  void run_keepalive_rounds(std::size_t rounds);

  /// Issues a flooded query from `source` and runs the network until it
  /// drains. Requires a catalog.
  [[nodiscard]] QueryOutcome run_query(NodeId source, ObjectId object,
                                       std::uint8_t ttl);

  /// Snapshot of the emergent overlay as a plain Graph (links are
  /// mutually acknowledged neighbor entries).
  [[nodiscard]] Graph overlay_snapshot() const;

  [[nodiscard]] const TrafficStats& traffic() const noexcept {
    return traffic_;
  }
  /// Per-node wire bytes sent/received (control + query traffic) — the
  /// wire-level counterpart of Table 2's per-node bandwidth accounting.
  [[nodiscard]] std::uint64_t bytes_sent_by(NodeId node) const {
    return node_out_bytes_[node];
  }
  [[nodiscard]] std::uint64_t bytes_received_by(NodeId node) const {
    return node_in_bytes_[node];
  }
  [[nodiscard]] const ProtocolNode& node(NodeId id) const {
    return nodes_[id];
  }
  [[nodiscard]] double now_ms() const noexcept { return hub_.now_ms(); }
  /// Node `node`'s wire endpoint counters (datagrams and bytes sent and
  /// received through the hub).
  [[nodiscard]] const net::TransportStats& wire_stats(NodeId node) {
    return hub_.endpoint(node).stats();
  }

 private:
  /// Adapts one engine to the simulated world: sends route through the
  /// network's traffic ledger onto the node's shim, timers onto the hub's
  /// calendar, randomness through the shared stream, and the crash
  /// oracle through the crash schedule.
  class SimHost final : public EngineHost {
   public:
    SimHost(ProtocolNetwork* net, NodeId self) : net_(net), self_(self) {}

    void send(NodeId to, Payload payload) override;
    void schedule(double delay_ms, std::function<void()> fn) override;
    [[nodiscard]] double now_ms() const override;
    Rng& rng() override;
    [[nodiscard]] double link_latency_ms(NodeId peer) const override;
    [[nodiscard]] bool self_crashed() const override;
    [[nodiscard]] bool peer_crashed(NodeId peer) const override;
    NodeId random_live_peer(NodeId exclude) override;
    [[nodiscard]] const ObjectCatalog* catalog() const override;
    void count(EngineCounter counter) override;
    void on_query_sent(QueryId id) override;
    void on_hit_sent(QueryId id) override;
    bool consume_hit_at_origin(const QueryHit& hit) override;

   private:
    ProtocolNetwork* net_;
    NodeId self_;
  };

  /// Starts one node's join (walk probes from `seed_peer`) at the
  /// current simulation time.
  void start_join(NodeId joiner, NodeId seed_peer);
  void send(NodeId from, NodeId to, Payload payload);
  void deliver(NodeId self, const std::uint8_t* frame, std::size_t size);
  /// Uniformly random non-crashed node with degree > 0 (bootstrap-cache
  /// stand-in); kInvalidNode if none found.
  NodeId random_live_node(NodeId exclude);

  const LatencyModel& latency_;
  const ObjectCatalog* catalog_;
  ProtocolOptions options_;
  Rng rng_;
  net::LoopbackHub hub_;
  CrashSchedule crashes_;
  std::vector<ProtocolNode> nodes_;
  std::vector<SimHost> hosts_;      // parallel to nodes_
  std::vector<PeerEngine> engines_; // parallel to nodes_
  // Parallel to nodes_; each wraps the node's hub endpoint.
  std::vector<std::unique_ptr<net::FaultShim>> shims_;
  std::vector<std::uint8_t> frame_;  // reused encode buffer
  std::vector<std::uint64_t> node_out_bytes_;
  std::vector<std::uint64_t> node_in_bytes_;
  TrafficStats traffic_;

  // Active query bookkeeping (one query at a time through run_query).
  struct ActiveQuery {
    QueryId id = 0;
    NodeId origin = kInvalidNode;
    double issued_ms = 0.0;
    QueryOutcome outcome;
  };
  std::optional<ActiveQuery> active_query_;
  QueryId next_query_id_ = 1;
};

}  // namespace makalu::proto
