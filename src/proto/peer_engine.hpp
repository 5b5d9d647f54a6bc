// Per-node Makalu protocol engine, transport-agnostic.
//
// This is the state machine one deployed peer runs: join walks,
// handshakes with ack-timeout retries, accept/manage/prune, debounced
// routing-table pushes, keepalive with dead-peer teardown and
// re-solicitation, half-open reconciliation, and query flood/breadcrumb
// routing. It was extracted verbatim from ProtocolNetwork's handlers so
// that exactly one implementation of the protocol exists, driven by two
// hosts:
//
//   * the simulated ProtocolNetwork (proto/network.hpp): N engines
//     sending codec frames through FaultShims over one virtual-time
//     LoopbackHub with a latency oracle, bit-identical to the
//     pre-extraction layer (pinned by the golden-trace test);
//   * cluster::LiveNode (cluster/live_node.hpp): one engine per OS
//     process over a real UDP transport and wall-clock timer wheel (or
//     over a loopback hub in tests).
//
// The engine owns all per-peer protocol bookkeeping (pending handshakes,
// walk epochs, push debounce, join budget) and touches the outside world
// only through EngineHost: sending payloads, arming timers, drawing
// randomness, measuring link latency, consulting the host cache, and
// reporting reliability events. Everything the simulation can know but a
// real peer cannot (the crash oracle) is behind host methods that the
// live host answers pessimistically ("I cannot know") — the protocol
// logic is identical either way.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "core/rating.hpp"
#include "proto/message.hpp"
#include "proto/node.hpp"
#include "sim/replica_placement.hpp"
#include "support/rng.hpp"

namespace makalu::proto {

/// Timer/retry/keepalive state machine knobs. Disabled by default so the
/// perfect-wire behavior (and its traffic trace) is untouched; enable
/// when running under injected faults (sim) or on a real lossy
/// transport (cluster). The millisecond knobs are on the host's clock — simulated
/// time for ProtocolNetwork, wall-clock for LiveNode — so live
/// deployments scale them to real RTTs (see cluster/live_node.hpp).
struct RobustnessOptions {
  bool enabled = false;
  /// Initial ConnectRequest ack timeout; doubles per retry (`backoff`).
  double handshake_timeout_ms = 120.0;
  double backoff = 2.0;
  std::size_t max_retries = 3;
  /// A joiner whose walks went quiet re-launches half its walk budget
  /// after this long, up to `walk_retries` times.
  double walk_retry_timeout_ms = 600.0;
  std::size_t walk_retries = 2;
  /// Keepalive cadence; a neighbor silent for more than
  /// `keepalive_max_misses` consecutive rounds is declared dead.
  double keepalive_interval_ms = 400.0;
  std::uint32_t keepalive_max_misses = 2;
};

struct ProtocolOptions {
  RatingWeights weights{};
  std::size_t capacity_min = 6;
  std::size_t capacity_max = 13;
  std::size_t walk_count = 16;      ///< candidate walks per join
  std::uint16_t walk_steps = 12;    ///< steps per walk
  std::size_t low_water_mark = 3;
  /// Routing-table pushes are debounced: a change schedules one
  /// TableUpdate batch after this delay.
  double table_push_delay_ms = 40.0;
  /// Gap between staggered joins during bootstrap_all().
  double join_spacing_ms = 5.0;
  /// Post-join maintenance pulses in bootstrap_all(): under-provisioned
  /// nodes re-solicit from the bootstrap cache (random live host). These
  /// re-merge clusters whose long-haul bridges got pruned mid-bootstrap.
  std::size_t maintenance_pulses = 3;
  /// Per-generation bound on each node's duplicate-suppression cache
  /// (memory is capped at 2x this many entries per node).
  std::size_t seen_query_capacity = ProtocolNode::kDefaultSeenQueryCapacity;
  RobustnessOptions robustness{};
};

/// Reliability events the engine reports; hosts map them onto
/// TrafficStats (sim) or per-process counters (live).
enum class EngineCounter : std::uint8_t {
  kRetransmission,      ///< handshake or walk re-send
  kHandshakeTimeout,    ///< retry budget exhausted
  kDeadPeerDetected,    ///< keepalive teardown
  kHalfOpenRepair,      ///< Ping from non-neighbor answered Disconnect
};

/// Everything a PeerEngine needs from its environment. One host instance
/// per engine; hosts are single-threaded with their engine.
class EngineHost {
 public:
  virtual ~EngineHost() = default;

  /// Transmit `payload` from this engine's node to `to` (fire-and-forget;
  /// reliability is the engine's job).
  virtual void send(NodeId to, Payload payload) = 0;
  /// One-shot timer on the host's clock.
  virtual void schedule(double delay_ms, std::function<void()> fn) = 0;
  [[nodiscard]] virtual double now_ms() const = 0;
  /// Randomness source. The simulation shares one stream across engines
  /// (event order fixes the draw order); live nodes own a per-process
  /// stream split from the scenario seed.
  virtual Rng& rng() = 0;
  /// Measured latency to `peer` (the rating function's proximity input).
  [[nodiscard]] virtual double link_latency_ms(NodeId peer) const = 0;
  /// True if this node has crash-stopped (simulation only: timers armed
  /// before a simulated crash still fire and must be silenced; a live
  /// crashed process does not run at all, so the live host returns
  /// false).
  [[nodiscard]] virtual bool self_crashed() const = 0;
  /// True if `peer` is known to have crashed. The simulation answers
  /// from its CrashSchedule; a live host has no oracle and returns false —
  /// the retry/keepalive machinery discovers it the hard way.
  [[nodiscard]] virtual bool peer_crashed(NodeId peer) const = 0;
  /// A uniformly random live peer to re-solicit from (the bootstrap
  /// host-cache stand-in); kInvalidNode if none is known.
  virtual NodeId random_live_peer(NodeId exclude) = 0;
  [[nodiscard]] virtual const ObjectCatalog* catalog() const = 0;
  /// Reliability event accounting.
  virtual void count(EngineCounter counter) = 0;
  /// A Query transmission for query `id` left this node.
  virtual void on_query_sent(QueryId id) = 0;
  /// A QueryHit for query `id` left this node (origin-bound relay).
  virtual void on_hit_sent(QueryId id) = 0;
  /// Offers a hit that arrived at this node. Returns true if this node
  /// is the (still-active) origin of the query and the hit was consumed;
  /// false routes it on along the breadcrumb trail.
  virtual bool consume_hit_at_origin(const QueryHit& hit) = 0;
};

class PeerEngine {
 public:
  /// `node`, `options`, and `host` must outlive the engine.
  PeerEngine(ProtocolNode& node, const ProtocolOptions& options,
             EngineHost& host);

  [[nodiscard]] ProtocolNode& node() noexcept { return node_; }
  [[nodiscard]] const ProtocolNode& node() const noexcept { return node_; }

  /// Dispatches a delivered message (message.to == node().id()). The
  /// caller has already applied transport-level concerns (crash drops,
  /// note_alive proof-of-life).
  void handle(const Message& message);

  /// Launches this node's join: walk_count probes at seed_peer, plus the
  /// walk-retry timer when robustness is enabled.
  void start_join(NodeId seed_peer);

  /// Origin side of a flooded query. Returns true if satisfied from the
  /// local store (no messages sent); otherwise floods to neighbors
  /// (when ttl > 0), reporting each transmission via on_query_sent.
  bool start_query(QueryId id, ObjectId object, std::uint8_t ttl);

  /// One keepalive round: age miss counters, tear down dead peers
  /// (re-soliciting replacements), ping survivors.
  void keepalive_tick();

  /// Graceful leave (live SIGTERM path): notify every neighbor with
  /// Disconnect and drop the local links.
  void leave();

 private:
  void handle_connect_request(const Message& message);
  void handle_connect_accept(const Message& message);
  void handle_connect_reject(const Message& message);
  void handle_disconnect(const Message& message);
  void handle_table_update(const Message& message);
  void handle_walk_probe(const Message& message);
  void handle_candidate_reply(const Message& message);
  void handle_query(const Message& message);
  void handle_query_hit(const Message& message);
  void handle_ping(const Message& message);
  void handle_pong(const Message& message);

  /// Local redelivery for walk self-loop steps (no wire cost): re-apply
  /// the delivery-side proof-of-life, then dispatch.
  void redeliver_local(const Message& message);

  void begin_handshake(NodeId target);
  void connect_timer_fired(NodeId target, std::uint64_t epoch);
  void schedule_walk_retry(std::size_t retries_left, std::uint64_t epoch);
  void teardown_dead_peer(NodeId peer);
  void resolicit();
  /// Enforce capacity by pruning (Disconnect) the worst-rated neighbors.
  void manage();
  /// Debounced routing-table push to all current neighbors.
  void schedule_table_push();

  [[nodiscard]] NodeId self() const noexcept { return node_.id(); }
  [[nodiscard]] bool robust() const noexcept;

  ProtocolNode& node_;
  const ProtocolOptions& options_;
  EngineHost& host_;

  // Handshake/walk retry state. Epochs invalidate timers whose handshake
  // resolved or whose join was superseded.
  struct PendingHandshake {
    double rto_ms = 0.0;
    std::size_t retries_left = 0;
    std::uint64_t epoch = 0;
  };
  std::unordered_map<NodeId, PendingHandshake> pending_connects_;
  std::size_t join_attempts_left_ = 0;
  std::uint64_t walk_epoch_ = 0;
  // Loss detector for the walk-retry timer: probes launched vs
  // CandidateReplies received since the current join epoch began. A
  // retry fires only while some probes are still unanswered — on a
  // perfect wire every walk terminates in a reply, so the counter pair
  // balances and the retransmission path provably never runs.
  // Replies from re-solicitation probes (sent outside start_join) also
  // count, which can only suppress retries further — never spuriously
  // fire them.
  std::uint64_t walks_sent_ = 0;
  std::uint64_t walk_replies_ = 0;
  NodeId last_join_seed_ = kInvalidNode;
  std::uint64_t next_epoch_ = 1;
  bool push_pending_ = false;
};

}  // namespace makalu::proto
