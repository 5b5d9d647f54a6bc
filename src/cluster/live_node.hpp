// One live Makalu peer: a proto::PeerEngine over a real DatagramTransport.
//
// This is the deployment-shaped host for the engine that ProtocolNetwork
// simulates. Both hosts frame payloads through the versioned proto codec
// and hand them to a byte transport, optionally wrapped in a FaultShim
// (here UDP in the multi-process cluster or a loopback hub in tests; the
// simulator always uses a loopback hub). Timers run on the transport's
// clock (wall-clock for UDP), and the crash oracle the simulation
// enjoys is honestly absent — peer_crashed() answers false and failures
// are discovered by the engine's own retry/keepalive machinery, which is
// the entire point of running it over a lossy wire.
//
// Differences from the simulated host, all host-side policy:
//   * Randomness is a private per-node stream derived from the scenario
//     seed (there is no shared event order to keep draws aligned).
//   * random_live_peer() draws any other node id — liveness is unknowable,
//     and a walk aimed at a corpse is just another lost datagram.
//   * A periodic runtime tick drives keepalive_tick() and rescues
//     orphaned nodes (degree 0) by re-joining at a random peer, the role
//     a GWebCache-style host cache plays in deployments.
//   * Robustness timing defaults are scaled to loopback RTTs
//     (live_protocol_options()) instead of the simulator's WAN-ish ones.
//   * Each origin ends its own query at a deadline; the simulator tracks
//     one active query network-wide and runs the hub until it drains.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "cluster/control.hpp"
#include "net/transport.hpp"
#include "proto/codec.hpp"
#include "proto/network.hpp"
#include "proto/peer_engine.hpp"

namespace makalu::cluster {

using proto::QueryId;

/// ProtocolOptions with robustness on and every timing knob scaled from
/// the simulator's abstract milliseconds to local-loopback wall-clock:
/// handshake RTO 60ms (backoff x2, 3 retries), walk retry 250ms x2,
/// keepalive every 80ms with 3 tolerated misses.
[[nodiscard]] proto::ProtocolOptions live_protocol_options();

struct LiveNodeOptions {
  NodeId id = 0;
  std::size_t node_count = 0;
  std::uint64_t scenario_seed = 1;
  std::size_t object_count = 64;
  double replication_ratio = 0.02;
  proto::ProtocolOptions protocol = live_protocol_options();
};

class LiveNode {
 public:
  using QueryCallback = std::function<void(bool success, double response_ms)>;

  /// `transport` must outlive the node; the node installs itself as the
  /// transport's receive handler.
  LiveNode(net::DatagramTransport& transport, const LiveNodeOptions& options);

  LiveNode(const LiveNode&) = delete;
  LiveNode& operator=(const LiveNode&) = delete;

  [[nodiscard]] NodeId id() const noexcept { return options_.id; }
  [[nodiscard]] const proto::ProtocolNode& node() const noexcept {
    return node_;
  }
  [[nodiscard]] const proto::TrafficStats& traffic() const noexcept {
    return traffic_;
  }
  [[nodiscard]] const ObjectCatalog& catalog_ref() const noexcept {
    return catalog_;
  }

  /// Starts the runtime tick (keepalive + orphan rescue) if it is not
  /// already running. Nodes that never join explicitly — the bootstrap
  /// anchor, or a node whose JOIN command was lost — still need the tick
  /// to detect dead peers and to rescue themselves at degree 0.
  void start_runtime();

  /// Joins the overlay through `seed_peer` and starts the runtime tick
  /// (keepalive + orphan rescue). Safe to call again to force a re-join.
  void join(NodeId seed_peer);

  /// Issues a flooded query. Exactly one callback fires: on the first
  /// QueryHit reaching this origin (success) or at `deadline_ms`
  /// (failure). One query at a time per node; `qid` must be unique
  /// network-wide (the driver assigns origin-prefixed ids).
  void start_query(QueryId qid, ObjectId object, std::uint8_t ttl,
                   double deadline_ms, QueryCallback callback);

  /// Graceful leave: Disconnect to every neighbor, runtime tick stopped.
  /// The process can then flush metrics and exit; SIGKILLed peers skip
  /// this path and are discovered by survivors' keepalives instead.
  void leave();

  /// Flat metric snapshot (traffic counters, codec rejects, query
  /// tallies) for the per-process dump the driver aggregates.
  [[nodiscard]] std::map<std::string, std::uint64_t> metrics() const;

  // Local-decode/dispatch counters.
  [[nodiscard]] std::uint64_t codec_rejects() const noexcept {
    return codec_rejects_;
  }
  [[nodiscard]] std::uint64_t misaddressed() const noexcept {
    return misaddressed_;
  }

 private:
  // --- EngineHost adapter ---------------------------------------------------
  class Host final : public proto::EngineHost {
   public:
    explicit Host(LiveNode* self) : self_(self) {}
    void send(NodeId to, proto::Payload payload) override;
    void schedule(double delay_ms, std::function<void()> fn) override;
    [[nodiscard]] double now_ms() const override;
    Rng& rng() override;
    [[nodiscard]] double link_latency_ms(NodeId peer) const override;
    [[nodiscard]] bool self_crashed() const override { return false; }
    [[nodiscard]] bool peer_crashed(NodeId) const override { return false; }
    NodeId random_live_peer(NodeId exclude) override;
    [[nodiscard]] const ObjectCatalog* catalog() const override;
    void count(proto::EngineCounter counter) override;
    void on_query_sent(QueryId id) override;
    void on_hit_sent(QueryId id) override;
    bool consume_hit_at_origin(const proto::QueryHit& hit) override;

   private:
    LiveNode* self_;
  };

  void receive(NodeId from, const std::uint8_t* data, std::size_t size);
  void runtime_tick();
  void finish_query(bool success, double response_ms);
  [[nodiscard]] NodeId random_other(NodeId exclude);

  net::DatagramTransport& transport_;
  LiveNodeOptions options_;
  EuclideanModel latency_;
  ObjectCatalog catalog_;
  Rng rng_;
  proto::ProtocolNode node_;
  Host host_;
  proto::PeerEngine engine_;
  proto::TrafficStats traffic_;

  bool running_ = false;       // runtime tick armed
  std::uint32_t tick_count_ = 0;
  std::uint64_t codec_rejects_ = 0;
  std::uint64_t misaddressed_ = 0;
  std::uint64_t queries_issued_ = 0;
  std::uint64_t queries_succeeded_ = 0;

  struct ActiveQuery {
    QueryId id = 0;
    double issued_ms = 0.0;
    net::TimerId deadline_timer = net::kInvalidTimer;
    QueryCallback callback;
  };
  std::optional<ActiveQuery> active_query_;
  std::vector<std::uint8_t> encode_buffer_;
};

}  // namespace makalu::cluster
