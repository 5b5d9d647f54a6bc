// Datagram transport abstraction (DESIGN.md §15).
//
// The protocol layer above (proto::PeerEngine) is a pure state machine:
// it emits messages and arms timers, and everything else — how bytes
// move, what a millisecond is — comes from a transport. Two families
// implement this interface:
//
//   * UdpTransport (net/udp_transport.hpp): a real non-blocking UDP
//     socket on loopback/LAN with a wall-clock timer wheel. This is what
//     the multi-process cluster (cluster/) runs on.
//   * LoopbackHub endpoints (net/loopback_transport.hpp): an in-process,
//     virtual-time byte transport. The simulated ProtocolNetwork runs on
//     it (see proto/network.hpp), and so do the deterministic
//     transport-level and loopback-cluster tests.
//
// A FaultShim (net/fault_shim.hpp) wraps any DatagramTransport and
// subjects every datagram to seeded drop/duplicate/reorder/jitter and
// partition blackholes — the one link-fault model, simulated and live.
//
// Contract notes:
//   - send() is fire-and-forget and never blocks; delivery is best
//     effort (this is UDP — the protocol layer owns retries).
//   - Timers and receive callbacks fire only inside poll() (or the
//     loopback hub's run), on the caller's thread: implementations are
//     single-threaded by design, so the protocol layer needs no locks.
//   - now_ms() is the transport's clock (wall for UDP, virtual for
//     loopback); timer delays are measured on that clock.
#pragma once

#include <cstdint>
#include <functional>

#include "graph/graph.hpp"

namespace makalu::net {

using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

/// Per-endpoint datagram counters. The shim fields stay zero on a clean
/// transport; a FaultShim counts its own verdicts in its own stats.
struct TransportStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t send_errors = 0;       ///< sendto failures / unknown peer
  std::uint64_t unknown_sender = 0;    ///< datagram from an unmapped addr
  std::uint64_t truncated_dropped = 0; ///< datagram larger than the buffer
  // --- fault-shim verdicts --------------------------------------------------
  std::uint64_t shim_dropped = 0;
  std::uint64_t shim_duplicated = 0;
  std::uint64_t shim_delayed = 0;
  std::uint64_t shim_blackholed = 0;
};

class DatagramTransport {
 public:
  /// `from` is the transport-level sender (resolved from the source
  /// address); the frame inside may carry its own from field, which the
  /// protocol layer cross-checks.
  using ReceiveHandler =
      std::function<void(NodeId from, const std::uint8_t* data,
                         std::size_t size)>;

  virtual ~DatagramTransport() = default;

  virtual void send(NodeId to, const std::uint8_t* data,
                    std::size_t size) = 0;
  virtual void set_receive_handler(ReceiveHandler handler) = 0;

  /// Arms a one-shot timer `delay_ms` from now. Returns a non-zero id.
  virtual TimerId schedule(double delay_ms, std::function<void()> fn) = 0;
  /// Cancels a pending timer; false if it already fired or never existed.
  virtual bool cancel(TimerId id) = 0;

  [[nodiscard]] virtual double now_ms() const = 0;
  [[nodiscard]] virtual const TransportStats& stats() const = 0;
};

}  // namespace makalu::net
