#include "net/fault_shim.hpp"

namespace makalu::net {

std::uint64_t shim_seed(std::uint64_t seed, NodeId id) {
  std::uint64_t mix =
      seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(id) + 1));
  return splitmix64(mix);
}

FaultShim::FaultShim(DatagramTransport& inner,
                     const FaultShimOptions& options, std::uint64_t seed)
    : inner_(inner), options_(options), seed_(seed) {}

void FaultShim::blackhole(const std::vector<NodeId>& peers) {
  blackholed_.insert(peers.begin(), peers.end());
}

void FaultShim::heal() { blackholed_.clear(); }

Rng& FaultShim::link_rng(NodeId to) {
  const auto it = link_rngs_.find(to);
  if (it != link_rngs_.end()) return it->second;
  // One independent stream per destination so verdict sequences depend
  // only on (seed, link, datagram ordinal), never on cross-link timing.
  std::uint64_t mix = seed_ ^ (0x9e3779b97f4a7c15ULL *
                               (static_cast<std::uint64_t>(to) + 1));
  return link_rngs_.emplace(to, Rng(splitmix64(mix))).first->second;
}

void FaultShim::send_inner(NodeId to, const std::uint8_t* data,
                           std::size_t size, double delay_ms) {
  if (delay_ms <= 0.0) {
    inner_.send(to, data, size);
    return;
  }
  ++stats_.shim_delayed;
  std::vector<std::uint8_t> copy(data, data + size);
  inner_.schedule(delay_ms, [this, to, held = std::move(copy)] {
    inner_.send(to, held.data(), held.size());
  });
}

void FaultShim::send(NodeId to, const std::uint8_t* data,
                     std::size_t size) {
  if (!blackholed_.empty() && blackholed_.count(to) != 0) {
    ++stats_.shim_blackholed;
    return;
  }
  if (!options_.any()) {
    inner_.send(to, data, size);
    return;
  }
  Rng& rng = link_rng(to);
  // Fixed draw order per datagram (drop, jitter, reorder, duplicate),
  // drawing only for enabled knobs — the verdict sequence is a pure
  // function of (seed, link, ordinal).
  if (options_.drop > 0.0 && rng.chance(options_.drop)) {
    ++stats_.shim_dropped;
    return;
  }
  double delay = 0.0;
  if (options_.jitter_ms > 0.0) {
    delay += rng.uniform(0.0, options_.jitter_ms);
  }
  if (options_.reorder > 0.0 && options_.reorder_delay_ms > 0.0 &&
      rng.chance(options_.reorder)) {
    delay += options_.reorder_delay_ms;
  }
  send_inner(to, data, size, delay);
  if (options_.duplicate > 0.0 && rng.chance(options_.duplicate)) {
    ++stats_.shim_duplicated;
    send_inner(to, data, size, delay);
  }
}

}  // namespace makalu::net
