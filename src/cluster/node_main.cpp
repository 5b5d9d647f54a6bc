// makalu_node: one live Makalu peer as an OS process.
//
// Spawned by the cluster driver (cluster/driver.hpp) or by hand. Runs a
// proto::PeerEngine over a non-blocking UDP data socket (optionally
// behind a seeded FaultShim) plus a second, unshimmed control socket to
// the driver. The main loop multiplexes both sockets in one ::poll and
// fires each transport's timer wheel.
//
// Shutdown paths, mirroring the chaos model:
//   * SHUTDOWN control command or SIGTERM: graceful — Disconnect to all
//     neighbors, final metrics flushed (BYE + optional --metrics-out
//     file), exit 0.
//   * SIGKILL (chaos controller): nothing runs; survivors detect the
//     corpse via keepalive misses, exactly like a crashed host.
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cluster/control.hpp"
#include "cluster/live_node.hpp"
#include "net/fault_shim.hpp"
#include "net/udp_transport.hpp"
#include "support/rng.hpp"

namespace {

volatile std::sig_atomic_t g_terminate = 0;

void on_sigterm(int) { g_terminate = 1; }

double arg_double(const char* text) { return std::strtod(text, nullptr); }

std::uint64_t arg_u64(const char* text) {
  return std::strtoull(text, nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace makalu;
  using proto::QueryId;

  cluster::LiveNodeOptions node_options;
  net::FaultShimOptions shim_options;
  std::uint16_t driver_port = 0;
  std::string metrics_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--id") node_options.id = static_cast<NodeId>(arg_u64(value));
    else if (flag == "--nodes") node_options.node_count = arg_u64(value);
    else if (flag == "--seed") node_options.scenario_seed = arg_u64(value);
    else if (flag == "--driver-port")
      driver_port = static_cast<std::uint16_t>(arg_u64(value));
    else if (flag == "--objects") node_options.object_count = arg_u64(value);
    else if (flag == "--replication")
      node_options.replication_ratio = arg_double(value);
    else if (flag == "--drop") shim_options.drop = arg_double(value);
    else if (flag == "--duplicate") shim_options.duplicate = arg_double(value);
    else if (flag == "--reorder") shim_options.reorder = arg_double(value);
    else if (flag == "--jitter") shim_options.jitter_ms = arg_double(value);
    else if (flag == "--metrics-out") metrics_out = value;
    else {
      std::fprintf(stderr, "makalu_node: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (driver_port == 0 || node_options.node_count < 2) {
    std::fprintf(stderr,
                 "makalu_node: --driver-port and --nodes >= 2 required\n");
    return 2;
  }

  // Die with the driver rather than lingering as an orphan.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  std::signal(SIGTERM, on_sigterm);
  std::signal(SIGINT, on_sigterm);

  net::UdpTransport data;
  net::UdpTransport control;
  control.add_peer(cluster::kDriverId, driver_port);

  // The shim seed is per-node so each node's outgoing links draw
  // independent verdict streams, all derived from the scenario seed.
  net::FaultShim shim(
      data, shim_options,
      net::shim_seed(node_options.scenario_seed ^ 0x7368696d00ULL,
                     node_options.id));
  cluster::LiveNode node(shim, node_options);

  const std::string self = std::to_string(node_options.id);
  auto control_send = [&](const std::string& line) {
    control.send(cluster::kDriverId,
                 reinterpret_cast<const std::uint8_t*>(line.data()),
                 line.size());
  };

  bool have_peers = false;
  bool running = true;
  auto handle_command = [&](const std::string& line) {
    const auto tokens = cluster::split_tokens(line);
    if (tokens.empty()) return;
    const std::string& verb = tokens[0];
    if (verb == "PEERS") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::size_t colon = tokens[i].find(':');
        if (colon == std::string::npos) continue;
        const auto peer =
            static_cast<NodeId>(std::stoul(tokens[i].substr(0, colon)));
        const auto port = static_cast<std::uint16_t>(
            std::stoul(tokens[i].substr(colon + 1)));
        if (peer != node_options.id) data.add_peer(peer, port);
      }
      have_peers = true;
      // Keepalive + orphan rescue must run even if this node's JOIN
      // command is lost or never comes (the first node in join order).
      node.start_runtime();
      control_send("READY " + self);
    } else if (verb == "JOIN" && tokens.size() == 2) {
      node.join(static_cast<NodeId>(std::stoul(tokens[1])));
    } else if (verb == "STAT?") {
      std::vector<NodeId> neighbors;
      for (const auto& entry : node.node().neighbors()) {
        neighbors.push_back(entry.peer);
      }
      control_send("STAT " + self + ' ' +
                   std::to_string(node.node().degree()) + ' ' +
                   cluster::join_ids(neighbors));
    } else if (verb == "QUERY" && tokens.size() == 5) {
      const auto qid = static_cast<QueryId>(std::stoull(tokens[1]));
      const auto object = static_cast<ObjectId>(std::stoul(tokens[2]));
      const auto ttl = static_cast<std::uint8_t>(std::stoul(tokens[3]));
      const double deadline_ms = std::stod(tokens[4]);
      node.start_query(qid, object, ttl, deadline_ms,
                       [&, qid](bool success, double response_ms) {
                         control_send("QRES " + std::to_string(qid) + ' ' +
                                      (success ? "1" : "0") + ' ' +
                                      std::to_string(response_ms));
                       });
    } else if (verb == "PART" && tokens.size() == 2) {
      shim.blackhole(cluster::parse_ids(tokens[1]));
    } else if (verb == "HEAL") {
      shim.heal();
    } else if (verb == "DUMP") {
      std::string reply = "METRICS " + self;
      for (const auto& [key, value] : node.metrics()) {
        reply += ' ';
        reply += key;
        reply += '=';
        reply += std::to_string(value);
      }
      control_send(reply);
    } else if (verb == "SHUTDOWN") {
      running = false;
    }
  };

  control.set_receive_handler(
      [&](NodeId, const std::uint8_t* bytes, std::size_t size) {
        handle_command(std::string(reinterpret_cast<const char*>(bytes),
                                   size));
      });

  double next_register_ms = 0.0;
  while (running && g_terminate == 0) {
    if (!have_peers && control.now_ms() >= next_register_ms) {
      control_send("REGISTER " + self + ' ' + std::to_string(data.port()));
      next_register_ms = control.now_ms() + 150.0;
    }
    // Each transport's deadlines are on its own clock.
    double wait = 50.0;
    if (std::isfinite(data.next_deadline_ms())) {
      wait = std::min(wait,
                      std::max(0.0, data.next_deadline_ms() - data.now_ms()));
    }
    if (std::isfinite(control.next_deadline_ms())) {
      wait = std::min(
          wait, std::max(0.0, control.next_deadline_ms() - control.now_ms()));
    }
    pollfd fds[2] = {{data.fd(), POLLIN, 0}, {control.fd(), POLLIN, 0}};
    (void)::poll(fds, 2, static_cast<int>(std::ceil(wait)));
    data.drain();
    control.drain();
  }

  // Graceful exit: tell neighbors, flush metrics, ack the driver.
  node.leave();
  data.drain();
  if (!metrics_out.empty()) {
    if (std::FILE* file = std::fopen(metrics_out.c_str(), "w")) {
      for (const auto& [key, value] : node.metrics()) {
        std::fprintf(file, "%s=%llu\n", key.c_str(),
                     static_cast<unsigned long long>(value));
      }
      std::fclose(file);
    }
  }
  control_send("BYE " + self);
  return 0;
}
