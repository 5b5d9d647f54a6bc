// proto-lossy-loopback: the message-level protocol on one virtual-time
// hub.
//
// Set-up: cluster::LiveNode peers on a net::LoopbackHub, each behind a
// net::FaultShim (5% drop, 1% duplicate, 2% reorder, 1 ms jitter);
// staggered bootstrap to the settle horizon. Then rounds, each of
// concurrent flooded queries from distinct origins followed by one crash
// -> detection -> heal -> rejoin cycle through blackhole partitions. Virtual time makes
// success, messages and response times functions of the seed; only wall
// cost varies.
#include <algorithm>
#include <memory>

#include "cluster/live_node.hpp"
#include "common.hpp"
#include "net/fault_shim.hpp"
#include "net/loopback_transport.hpp"
#include "proto/message.hpp"

namespace perfbench {

namespace {

using namespace makalu;

struct ProtoSizes {
  std::size_t nodes;
  double settle_ms;
  std::size_t rounds;
  std::size_t origins_per_round;
  double deadline_ms;
  double detect_ms;
  double rejoin_ms;
};

ProtoSizes proto_sizes(const Options& o) {
  if (o.tiny) return {24, 600.0, 2, 4, 300.0, 500.0, 600.0};
  // 256 peers, not 512: interleaved runs of both sizes (6 seeds each)
  // spread 0.18 vs 0.41 in throughput_qps and 0.13 vs 0.44 in
  // churn_ms_per_event, and 256 costs 2.6x less wall per query, which
  // buys more rounds per run.
  const auto rounds = static_cast<std::size_t>(std::max(1.0, 4 * o.seconds));
  return {256, 3'000.0, rounds, 48, 300.0, 500.0, 600.0};
}

constexpr std::uint8_t kTtl = 4;

net::FaultShimOptions fault_options() {
  net::FaultShimOptions f;
  f.drop = 0.05;
  f.duplicate = 0.01;
  f.reorder = 0.02;
  f.jitter_ms = 1.0;
  return f;
}

struct ProtoCluster {
  ProtoCluster(std::size_t n, std::uint64_t seed) : hub(0.05) {
    const net::FaultShimOptions faults = fault_options();
    for (NodeId id = 0; id < n; ++id) {
      auto& endpoint = hub.endpoint(id);
      shims.push_back(std::make_unique<net::FaultShim>(
          endpoint, faults, seed ^ (0x9e3779b97f4a7c15ULL * (id + 1))));
      cluster::LiveNodeOptions options;
      options.id = id;
      options.node_count = n;
      options.scenario_seed = seed;
      nodes.push_back(std::make_unique<cluster::LiveNode>(*shims.back(),
                                                          options));
    }
  }

  /// Staggered joins (node i through node i-1, 5 ms apart) to the settle
  /// horizon. Returns hub events processed.
  std::size_t bootstrap(double settle_ms) {
    for (const auto& node : nodes) node->start_runtime();
    for (NodeId id = 1; id < nodes.size(); ++id) {
      cluster::LiveNode* node = nodes[id].get();
      const NodeId seed_peer = id - 1;
      hub.endpoint(id).schedule(5.0 * id,
                                [node, seed_peer] { node->join(seed_peer); });
    }
    return hub.run_until(settle_ms);
  }

  net::LoopbackHub hub;
  std::vector<std::unique_ptr<net::FaultShim>> shims;
  std::vector<std::unique_ptr<cluster::LiveNode>> nodes;
};

struct Totals {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t query_msgs = 0;  // Query + QueryHit payloads
  std::uint64_t retransmissions = 0;
  std::uint64_t handshake_timeouts = 0;
  std::uint64_t dead_peers = 0;
  std::uint64_t codec_rejects = 0;
  std::uint64_t misaddressed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
};

Totals totals(const ProtoCluster& c) {
  const std::size_t query = proto::payload_index(proto::Query{});
  const std::size_t hit = proto::payload_index(proto::QueryHit{});
  Totals t;
  for (const auto& node : c.nodes) {
    const proto::TrafficStats& s = node->traffic();
    t.messages += s.total_messages;
    t.bytes += s.total_bytes;
    t.query_msgs += s.count[query] + s.count[hit];
    t.retransmissions += s.retransmissions;
    t.handshake_timeouts += s.handshake_timeouts;
    t.dead_peers += s.dead_peers_detected;
    t.codec_rejects += node->codec_rejects();
    t.misaddressed += node->misaddressed();
  }
  for (const auto& shim : c.shims) {
    t.dropped += shim->stats().shim_dropped;
    t.duplicated += shim->stats().shim_duplicated;
    t.delayed += shim->stats().shim_delayed;
  }
  return t;
}

/// Wall time and hub events of one phase.
struct HubPhase {
  std::size_t events = 0;
  double wall_s = 0.0;
  [[nodiscard]] double us_per_event() const {
    return events > 0 ? wall_s * 1e6 / static_cast<double>(events) : 0.0;
  }
};

}  // namespace

void run_proto(Context& ctx) {
  const Options& o = ctx.options;
  Report& r = ctx.report;
  const ProtoSizes z = proto_sizes(o);

  // --- set-up: construction plus staggered bootstrap, repeated -------------
  std::vector<double> setup_s;
  std::unique_ptr<ProtoCluster> c;
  HubPhase boot;
  for (std::size_t i = 0; i < ctx.setups; ++i) {
    c.reset();
    const Timer t;
    {
      const Span span("cluster.construct");
      c = std::make_unique<ProtoCluster>(z.nodes, o.seed);
    }
    const Span span("net.hub_run.boot");
    const Timer hub_timer;
    boot.events = c->bootstrap(z.settle_ms);
    boot.wall_s = hub_timer.seconds();
    setup_s.push_back(t.seconds());
  }
  const Totals after_boot = totals(*c);

  // --- rounds: concurrent queries, then one crash/heal cycle ---------------
  Rng query_rng(o.seed ^ 0x9e37ULL);
  Rng churn_rng(o.seed ^ 0xdeadfa11ULL);
  std::vector<double> response_ms;
  std::vector<int> fired;
  std::size_t successes = 0;
  HubPhase query;
  HubPhase churn;
  std::vector<double> round_s;
  std::vector<double> cycle_ms;
  std::size_t rejoined = 0;
  const std::size_t n = c->nodes.size();
  const std::size_t objects = c->nodes[0]->catalog_ref().object_count();
  const std::size_t k = std::min(z.origins_per_round, n);  // queries a round
  for (std::size_t round = 0; round < z.rounds; ++round) {
    // Distinct origins: a partial Fisher-Yates draw over node ids.
    std::vector<NodeId> ids(n);
    for (NodeId id = 0; id < n; ++id) ids[id] = id;
    for (std::size_t i = 0; i < k; ++i) {
      std::swap(ids[i], ids[i + query_rng.uniform_below(n - i)]);
    }
    const Timer t;
    const std::size_t base = fired.size();
    fired.resize(base + k, 0);
    response_ms.resize(base + k, z.deadline_ms);
    {
      const Span span("cluster.start_query");
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t slot = base + i;
        const auto object =
            static_cast<ObjectId>(query_rng.uniform_below(objects));
        const proto::QueryId qid = (round + 1) * 1'000'000 + ids[i];
        c->nodes[ids[i]]->start_query(
            qid, object, kTtl, z.deadline_ms,
            [&, slot](bool ok, double ms) {
              ++fired[slot];
              if (ok) {
                ++successes;
                response_ms[slot] = ms;
              }
            });
      }
    }
    {
      // Every query ends by its deadline; run the hub until it has.
      const Span span("net.hub_run.query");
      query.events += c->hub.run_for(z.deadline_ms + 1.0);
    }
    const double round_wall_s = t.seconds();
    query.wall_s += round_wall_s;
    round_s.push_back(round_wall_s);

    // Crash -> detection -> heal -> rejoin: a two-way blackhole looks
    // like a crashed host to its peers.
    const auto victim = static_cast<NodeId>(churn_rng.uniform_below(n));
    const Timer cycle;
    {
      const Span span("net.shim_blackhole");
      std::vector<NodeId> others;
      for (NodeId id = 0; id < n; ++id) {
        if (id != victim) others.push_back(id);
      }
      c->shims[victim]->blackhole(others);
      for (const NodeId id : others) c->shims[id]->blackhole({victim});
    }
    {
      const Span span("net.hub_run.churn");
      churn.events += c->hub.run_for(z.detect_ms);
      for (const auto& shim : c->shims) shim->heal();
      churn.events += c->hub.run_for(z.rejoin_ms);
    }
    const double cycle_s = cycle.seconds();
    churn.wall_s += cycle_s;
    cycle_ms.push_back(cycle_s * 1e3);
    rejoined += c->nodes[victim]->node().degree() > 0 ? 1 : 0;
  }
  const Totals end = totals(*c);
  const double rss = peak_rss_mb();
  ctx.end_body();

  // --- metrics -------------------------------------------------------------
  const std::size_t queries = fired.size();
  r.attempted = queries;
  r.failed = 0;  // a query that misses its deadline is counted in success
  // Query and QueryHit payloads only; no query is in flight during the
  // crash/heal cycles, and keepalives are other payload types.
  const std::uint64_t query_msgs = end.query_msgs - after_boot.query_msgs;
  r.metric("setup_s", median(setup_s), "s");
  r.metric("peak_rss_mb", rss, "MB");
  r.metric("query_success",
           static_cast<double>(successes) / static_cast<double>(queries),
           "ratio");
  r.metric("msgs_per_query",
           static_cast<double>(query_msgs) / static_cast<double>(queries),
           "msgs");
  r.metric("latency_p50_ms", percentile(response_ms, 0.50), "ms");
  r.metric("latency_p90_ms", percentile(response_ms, 0.90), "ms");
  r.metric("throughput_qps", static_cast<double>(k) / fast_tail(round_s),
           "1/s");
  r.metric("churn_ms_per_event", fast_tail(cycle_ms), "ms");
  r.exact("successes", static_cast<double>(successes));
  r.exact("query_msgs", static_cast<double>(query_msgs));
  r.exact("hub_events.boot", static_cast<double>(boot.events));
  r.exact("hub_events.query", static_cast<double>(query.events));
  r.exact("hub_events.churn", static_cast<double>(churn.events));
  r.exact("rejoined", static_cast<double>(rejoined));
  r.note("proto: " + std::to_string(n) + " nodes, " +
         std::to_string(queries) + " TTL-" + std::to_string(kTtl) +
         " queries in " + std::to_string(z.rounds) + " rounds (" +
         std::to_string(successes) + " answered; p99 response " +
         fmt(percentile(response_ms, 0.99), 2) +
         " ms virtual, for reading only), " +
         std::to_string(z.rounds) + " crash/heal cycles (" +
         std::to_string(rejoined) + " victims rejoined); hub events boot " +
         std::to_string(boot.events) + ", query " +
         std::to_string(query.events) + ", churn " +
         std::to_string(churn.events) + "; set-ups " +
         fmt_list(setup_s, 3) + " s");

  // --- checks --------------------------------------------------------------
  bool once = true;
  for (const int f : fired) once = once && f == 1;
  r.check(once, "every query callback fired exactly once");
  r.check(end.codec_rejects == 0 && end.misaddressed == 0,
          "no codec rejects and no misaddressed frames");
  r.check(end.dropped > 0 && end.duplicated > 0 && end.delayed > 0,
          "the fault shim dropped, duplicated and delayed datagrams");
  r.check(end.dead_peers > after_boot.dead_peers,
          "crash cycles were detected by keepalives");

  if (!ctx.probes) return;
  const double virtual_s =
      (z.settle_ms + static_cast<double>(z.rounds) *
                         (z.deadline_ms + 1.0 + z.detect_ms + z.rejoin_ms)) /
      1e3;
  r.metric("net.hub_events.boot", static_cast<double>(boot.events), "count");
  r.metric("net.hub_events.query", static_cast<double>(query.events), "count");
  r.metric("net.hub_events.churn", static_cast<double>(churn.events), "count");
  r.metric("net.hub_us_per_event.boot", boot.us_per_event(), "us");
  r.metric("net.hub_us_per_event.query", query.us_per_event(), "us");
  r.metric("net.hub_us_per_event.churn", churn.us_per_event(), "us");
  r.metric("net.shim_dropped", static_cast<double>(end.dropped), "count");
  r.metric("net.shim_duplicated", static_cast<double>(end.duplicated),
           "count");
  r.metric("net.shim_delayed", static_cast<double>(end.delayed), "count");
  r.metric("proto.query_msgs", static_cast<double>(query_msgs), "count");
  r.metric("proto.control_msgs_per_node_s",
           static_cast<double>(end.messages - end.query_msgs) /
               static_cast<double>(n) / virtual_s,
           "1/s");
  r.metric("proto.bytes_per_msg",
           static_cast<double>(end.bytes) / static_cast<double>(end.messages),
           "B");
  r.metric("proto.retransmissions", static_cast<double>(end.retransmissions),
           "count");
  r.metric("proto.handshake_timeouts",
           static_cast<double>(end.handshake_timeouts), "count");
  r.metric("proto.dead_peers_detected", static_cast<double>(end.dead_peers),
           "count");
  r.metric("cluster.codec_rejects", static_cast<double>(end.codec_rejects),
           "count");
  r.metric("cluster.misaddressed", static_cast<double>(end.misaddressed),
           "count");
}

}  // namespace perfbench
