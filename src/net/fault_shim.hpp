// Fault shim: seeded drop/duplicate/reorder/jitter and partition
// blackholes over any DatagramTransport.
//
// This is the library's one vocabulary for link faults. It adjudicates
// every datagram on its way into the inner transport: into sendto() for
// the multi-process cluster, into the loopback hub for the simulated
// proto::ProtocolNetwork and the virtual-time cluster tests. A latency
// spike is `reorder` with its `reorder_delay_ms` hold-back. Verdicts are
// drawn from per-destination Rng streams derived from one seed, so the
// k-th datagram sent to peer p gets the same verdict in every run with
// that seed — regardless of wall-clock interleaving across links. That
// is what makes lossy cluster runs reproducible enough to assert on
// (tests/transport_test.cpp pins the verdict sequence per seed), while
// the *consequences* (which retry wins, in what order peers reconverge)
// remain honestly timing-dependent on a real wire.
//
// Knobs at zero draw no randomness and add no latency: an inert shim is
// a pass-through, so zero-fault runs go through the same code path as
// the chaos runs and stay bit-identical to a wire with no shim at all.
//
// Blackholes model partitions: datagrams to a blackholed peer vanish
// silently (no RNG draw — a partition is not a coin flip). The cluster
// chaos controller installs and lifts them mid-run.
//
// Ownership: a datagram the shim holds back (jitter or reorder) is copied
// into a slot of the shim's own recycled slab; the hold-back timer, armed
// on the inner transport, carries only {shim, slot} and passes the bytes
// on to the inner transport (which copies them again, into its own
// frame) when it fires, then frees the slot. A held datagram therefore
// costs one release event plus one delivery event, as it always has, and
// no allocation once the slab has grown to the peak hold-back.
//
// Node ids are dense in every host, so the per-destination streams live
// in a vector indexed by destination.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "net/transport.hpp"
#include "support/rng.hpp"
#include "support/slot_pool.hpp"

namespace makalu::net {

struct FaultShimOptions {
  double drop = 0.0;            ///< P(datagram silently lost)
  double duplicate = 0.0;       ///< P(datagram delivered twice)
  double reorder = 0.0;         ///< P(datagram held back reorder_delay_ms)
  double reorder_delay_ms = 4.0;
  double jitter_ms = 0.0;       ///< uniform extra delay in [0, jitter_ms)

  [[nodiscard]] bool any() const noexcept {
    return drop > 0.0 || duplicate > 0.0 ||
           (reorder > 0.0 && reorder_delay_ms > 0.0) || jitter_ms > 0.0;
  }
};

/// Seed for node `id`'s shim when every node's shim derives from one
/// scenario seed: splitmix64(seed ^ phi * (id + 1)). The shim XORs
/// phi * (to + 1) into its own seed per destination, so without the
/// splitmix links a->b and b->a would draw the same verdict stream.
[[nodiscard]] std::uint64_t shim_seed(std::uint64_t seed, NodeId id);

class FaultShim final : public DatagramTransport {
 public:
  /// Wraps `inner` (not owned; must outlive the shim).
  FaultShim(DatagramTransport& inner, const FaultShimOptions& options,
            std::uint64_t seed);

  /// Installs the partition: datagrams to these peers are blackholed.
  void blackhole(const std::vector<NodeId>& peers);
  /// Lifts the partition entirely.
  void heal();
  [[nodiscard]] bool is_blackholed(NodeId peer) const {
    return blackholed_.count(peer) != 0;
  }

  // --- DatagramTransport ----------------------------------------------------
  void send(NodeId to, const std::uint8_t* data, std::size_t size) override;
  void set_receive_handler(ReceiveHandler handler) override {
    inner_.set_receive_handler(std::move(handler));
  }
  TimerId schedule(double delay_ms, std::function<void()> fn) override {
    return inner_.schedule(delay_ms, std::move(fn));
  }
  bool cancel(TimerId id) override { return inner_.cancel(id); }
  [[nodiscard]] double now_ms() const override { return inner_.now_ms(); }
  /// The shim's own verdict counters (shim_*); wire-level counts live in
  /// the inner transport's stats.
  [[nodiscard]] const TransportStats& stats() const override {
    return stats_;
  }

 private:
  [[nodiscard]] Rng& link_rng(NodeId to);
  void send_inner(NodeId to, const std::uint8_t* data, std::size_t size,
                  double delay_ms);
  void release_held(std::uint32_t slot);

  DatagramTransport& inner_;
  FaultShimOptions options_;
  std::uint64_t seed_;
  TransportStats stats_;
  /// A datagram held back by jitter or reorder.
  struct Held {
    NodeId to = kInvalidNode;
    std::vector<std::uint8_t> bytes;
  };

  std::vector<Rng> link_rngs_;  ///< by destination id
  SlotPool<Held> held_;
  std::unordered_set<NodeId> blackholed_;
};

}  // namespace makalu::net
