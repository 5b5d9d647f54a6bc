// Tests for the fault-injection layer: the crash schedule, the
// simulator's wire (every message crosses the codec and the loopback
// hub), the zero-fault bit-identity guarantee (golden trace), protocol
// recovery under loss and crash-stop failures, half-open
// reconciliation, the bounded seen-query cache, and the churn
// simulator's crash and loss hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/algorithms.hpp"
#include "net/fault_shim.hpp"
#include "net/latency_model.hpp"
#include "proto/network.hpp"
#include "search/churn.hpp"
#include "sim/crash_schedule.hpp"
#include "test_util.hpp"

namespace makalu {
namespace {

using proto::ProtocolNetwork;
using proto::ProtocolNode;
using proto::ProtocolOptions;
using proto::QueryId;
using proto::QueryOutcome;

// --- CrashSchedule -----------------------------------------------------------

TEST(CrashSchedule, InertByDefault) {
  CrashSchedule schedule;
  EXPECT_TRUE(schedule.crashes().empty());
  EXPECT_TRUE(std::isinf(schedule.crash_time(5)));
  EXPECT_FALSE(schedule.crashed(5, 1e12));
}

TEST(CrashSchedule, IsByTimeAndEarliestWins) {
  CrashSchedule schedule;
  schedule.schedule_crash(3, 100.0);
  schedule.schedule_crash(3, 50.0);   // earlier wins
  schedule.schedule_crash(3, 200.0);  // later is ignored
  EXPECT_EQ(schedule.crashes().size(), 1u);
  EXPECT_FALSE(schedule.crashed(3, 49.9));
  EXPECT_TRUE(schedule.crashed(3, 50.0));
  EXPECT_EQ(schedule.crash_time(3), 50.0);
  EXPECT_FALSE(schedule.crashed(4, 1e9));
}

TEST(CrashSchedule, RandomCrashesAreDistinctWindowedAndSeeded) {
  const std::size_t n = 100;
  CrashSchedule a(77);
  a.schedule_random_crashes(n, 0.25, 100.0, 500.0);
  EXPECT_EQ(a.crashes().size(), 25u);
  std::vector<bool> seen(n, false);
  for (const auto& ev : a.crashes()) {
    ASSERT_LT(ev.node, n);
    EXPECT_FALSE(seen[ev.node]) << "duplicate victim " << ev.node;
    seen[ev.node] = true;
    EXPECT_GE(ev.time_ms, 100.0);
    EXPECT_LT(ev.time_ms, 500.0);
  }
  CrashSchedule b(77);
  b.schedule_random_crashes(n, 0.25, 100.0, 500.0);
  ASSERT_EQ(b.crashes().size(), a.crashes().size());
  for (std::size_t i = 0; i < a.crashes().size(); ++i) {
    EXPECT_EQ(a.crashes()[i].node, b.crashes()[i].node);
    EXPECT_EQ(a.crashes()[i].time_ms, b.crashes()[i].time_ms);
  }
}

// --- the simulator's wire ----------------------------------------------------

// The golden configuration below, checked at the wire: every simulated
// message is one datagram that a node's shim passed to its hub endpoint
// and the hub delivered, and delivery decodes every frame (a frame that
// fails to decode aborts the run).
TEST(SimulatorWire, EveryMessageCrossesTheCodecAndTheHub) {
  const EuclideanModel latency(300, 0x5eedu);
  const ObjectCatalog catalog(300, 16, 0.02, 0x0b7ec7u);
  ProtocolNetwork network(latency, &catalog, ProtocolOptions{}, 1234);
  network.bootstrap_all();
  Rng rng(99);
  for (int q = 0; q < 25; ++q) {
    const auto source = static_cast<NodeId>(rng.uniform_below(300));
    const auto object = static_cast<ObjectId>(rng.uniform_below(16));
    (void)network.run_query(source, object, 4);
  }
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  for (NodeId v = 0; v < 300; ++v) {
    const net::TransportStats& wire = network.wire_stats(v);
    sent += wire.datagrams_sent;
    received += wire.datagrams_received;
    bytes_sent += wire.bytes_sent;
    bytes_received += wire.bytes_received;
  }
  EXPECT_EQ(sent, network.traffic().total_messages);
  // Nothing is in flight once run_query returns: all that left arrived.
  EXPECT_EQ(received, sent);
  EXPECT_EQ(bytes_received, bytes_sent);
}
// --- zero-fault bit-identity (golden trace) ----------------------------------

// Captured from the pre-fault-layer implementation (commit 8c2155d) with
// exactly this configuration. The fault layer must be provably zero-cost
// when disabled: every counter below has to stay bit-identical, including
// the simulated convergence time down to the last double bit.
TEST(FaultGoldenTrace, DefaultRunIsBitIdenticalToPreFaultLayer) {
  const EuclideanModel latency(300, 0x5eedu);
  const ObjectCatalog catalog(300, 16, 0.02, 0x0b7ec7u);
  ProtocolNetwork network(latency, &catalog, ProtocolOptions{}, 1234);
  const double converged = network.bootstrap_all();
  EXPECT_EQ(converged, 150567.48981396449);

  Rng rng(99);
  std::uint64_t successes = 0;
  std::uint64_t hits = 0;
  std::uint64_t query_msgs = 0;
  for (int q = 0; q < 25; ++q) {
    const auto source = static_cast<NodeId>(rng.uniform_below(300));
    const auto object = static_cast<ObjectId>(rng.uniform_below(16));
    const QueryOutcome outcome = network.run_query(source, object, 4);
    successes += outcome.success;
    hits += outcome.hits;
    query_msgs += outcome.query_messages;
  }
  EXPECT_EQ(successes, 25u);
  EXPECT_EQ(hits, 145u);
  EXPECT_EQ(query_msgs, 29825u);

  const auto& t = network.traffic();
  EXPECT_EQ(t.total_messages, 372851u);
  EXPECT_EQ(t.total_bytes, 21105188u);
  const std::uint64_t golden_count[proto::kPayloadTypes] = {
      10604, 6779, 0, 5738, 143784, 158138, 17508, 29825, 475, 0, 0};
  const std::uint64_t golden_bytes[proto::kPayloadTypes] = {
      243892, 523397, 0,       131974, 11593140, 4902278,
      507732, 3161450, 41325,  0,      0};
  for (std::size_t i = 0; i < proto::kPayloadTypes; ++i) {
    EXPECT_EQ(t.count[i], golden_count[i]) << "payload index " << i;
    EXPECT_EQ(t.bytes[i], golden_bytes[i]) << "payload index " << i;
  }
  EXPECT_EQ(network.overlay_snapshot().edge_count(), 1315u);

  // And the reliability counters never move on a perfect wire.
  EXPECT_EQ(t.dropped_messages, 0u);
  EXPECT_EQ(t.dropped_bytes, 0u);
  EXPECT_EQ(t.crash_drops, 0u);
  EXPECT_EQ(t.retransmissions, 0u);
  EXPECT_EQ(t.handshake_timeouts, 0u);
  EXPECT_EQ(t.dead_peers_detected, 0u);
  EXPECT_EQ(t.half_open_repairs, 0u);
}

// --- protocol under faults ---------------------------------------------------

class FaultNetworkTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 250;

  static const testing::ConstantLatency& latency() {
    static const testing::ConstantLatency model(kNodes, 5.0);
    return model;
  }

  static ProtocolOptions robust_options() {
    ProtocolOptions options;
    options.robustness.enabled = true;
    return options;
  }

  static void attach_lossy_crashy_faults(ProtocolNetwork& network,
                                         std::uint64_t seed) {
    net::FaultShimOptions link;
    link.drop = 0.05;
    link.jitter_ms = 2.0;
    CrashSchedule crashes(seed);
    // Crashes land inside the staggered join storm (joins are spaced
    // 5 ms apart), i.e. mid-handshake and mid-walk.
    crashes.schedule_random_crashes(kNodes, 0.05, 0.0,
                                    static_cast<double>(kNodes) * 5.0);
    network.attach_faults(link, seed, std::move(crashes));
  }
};

TEST_F(FaultNetworkTest, FaultyRunsAreSeedDeterministic) {
  auto run = [&] {
    ProtocolNetwork network(latency(), nullptr, robust_options(), 31);
    attach_lossy_crashy_faults(network, 7);
    const double converged = network.bootstrap_all();
    return std::tuple(converged, network.traffic().total_messages,
                      network.traffic().total_bytes,
                      network.traffic().dropped_messages,
                      network.traffic().retransmissions,
                      network.overlay_snapshot().edge_count());
  };
  EXPECT_EQ(run(), run());
}

TEST_F(FaultNetworkTest, SurvivorsConvergeUnderLossAndCrashes) {
  ProtocolNetwork network(latency(), nullptr, robust_options(), 5);
  attach_lossy_crashy_faults(network, 11);
  network.bootstrap_all();

  const auto crashed = network.crashed_mask();
  const std::size_t crash_count =
      static_cast<std::size_t>(std::count(crashed.begin(), crashed.end(),
                                          true));
  EXPECT_GT(crash_count, 0u);

  const Graph live =
      network.overlay_snapshot().remove_nodes(crashed, nullptr);
  const auto comps = connected_components(CsrGraph::from_graph(live));
  EXPECT_GE(static_cast<double>(comps.largest_size()),
            0.99 * static_cast<double>(live.node_count()));
  const auto& t = network.traffic();
  EXPECT_GT(t.dropped_messages, 0u);
  EXPECT_GT(t.retransmissions, 0u);
}

TEST_F(FaultNetworkTest, CrashMidHandshakeLeavesNoHalfOpenLinks) {
  ProtocolNetwork network(latency(), nullptr, robust_options(), 17);
  attach_lossy_crashy_faults(network, 23);
  network.bootstrap_all();
  // A few extra reconciliation rounds flush any repair still in flight
  // when bootstrap returned (the repairs themselves can race prunes).
  network.run_keepalive_rounds(4);

  const auto crashed = network.crashed_mask();
  std::size_t links_to_crashed = 0;
  std::size_t one_sided = 0;
  for (NodeId v = 0; v < kNodes; ++v) {
    if (crashed[v]) continue;
    for (const auto& neighbor : network.node(v).neighbors()) {
      if (crashed[neighbor.peer]) {
        ++links_to_crashed;  // keepalive should have torn these down
      } else if (!network.node(neighbor.peer).has_neighbor(v)) {
        ++one_sided;  // half-open: Ping/Disconnect should have healed it
      }
    }
  }
  EXPECT_EQ(links_to_crashed, 0u);
  EXPECT_EQ(one_sided, 0u);
  EXPECT_GT(network.traffic().dead_peers_detected, 0u);
}

TEST_F(FaultNetworkTest, AttachedInertPlanChangesNothing) {
  auto run = [&](bool attach) {
    ProtocolNetwork network(latency(), nullptr, ProtocolOptions{}, 13);
    // Inert shims and an empty (seeded) schedule draw nothing.
    if (attach) network.attach_faults({}, 99, CrashSchedule(7));
    network.bootstrap_all();
    return std::tuple(network.traffic().total_messages,
                      network.traffic().total_bytes,
                      network.overlay_snapshot().edge_count());
  };
  EXPECT_EQ(run(false), run(true));
}

// --- bounded seen-query cache ------------------------------------------------

TEST(SeenQueryCache, MemoryStaysFlatAcrossLongHistories) {
  const std::size_t capacity = 64;
  ProtocolNode node(0, 5, RatingWeights{}, capacity);
  for (QueryId id = 0; id < 100'000; ++id) {
    EXPECT_TRUE(node.remember_query(id, static_cast<NodeId>(id % 7)));
    EXPECT_LE(node.seen_query_count(), 2 * capacity);
  }
  // The most recent ids are still suppressed and keep their breadcrumbs.
  EXPECT_FALSE(node.remember_query(99'999, 1));
  ASSERT_TRUE(node.breadcrumb(99'999).has_value());
  EXPECT_EQ(*node.breadcrumb(99'999), static_cast<NodeId>(99'999 % 7));
  // Ancient ids have been evicted: re-remembering succeeds.
  EXPECT_TRUE(node.remember_query(0, 3));
}

TEST(SeenQueryCache, DuplicateSuppressionCoversBothGenerations) {
  ProtocolNode node(0, 5, RatingWeights{}, 4);
  for (QueryId id = 0; id < 4; ++id) {
    EXPECT_TRUE(node.remember_query(id, 9));
  }
  // Ids 0..3 rotated into the previous generation; still duplicates.
  for (QueryId id = 0; id < 4; ++id) {
    EXPECT_FALSE(node.remember_query(id, 9)) << id;
  }
}

TEST(SeenQueryCache, NetworkPlumbsCapacityOption) {
  const testing::ConstantLatency latency(80, 5.0);
  const ObjectCatalog catalog(80, 8, 0.05, 99);
  ProtocolOptions options;
  options.seen_query_capacity = 16;
  ProtocolNetwork network(latency, &catalog, options, 3);
  network.bootstrap_all();
  Rng rng(4);
  for (int q = 0; q < 400; ++q) {
    const auto source = static_cast<NodeId>(rng.uniform_below(80));
    const auto object = static_cast<ObjectId>(rng.uniform_below(8));
    (void)network.run_query(source, object, 4);
  }
  for (NodeId v = 0; v < 80; ++v) {
    EXPECT_LE(network.node(v).seen_query_count(), 32u) << v;
  }
}

// --- churn crash and loss hooks ----------------------------------------------

class ChurnFaultTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 200;

  static const testing::ConstantLatency& latency() {
    static const testing::ConstantLatency model(kNodes, 5.0);
    return model;
  }

  static ChurnOptions base_options() {
    ChurnOptions options;
    options.duration_ms = 60'000.0;
    options.seed = 21;
    return options;
  }
};

TEST_F(ChurnFaultTest, InertPlanIsBitIdenticalToNoPlan) {
  const OverlayBuilder builder;
  const ChurnReport plain = simulate_churn(builder, latency(),
                                           base_options());
  ChurnOptions with_plan = base_options();
  with_plan.crashes = CrashSchedule(55);  // seeded but empty
  with_plan.link_loss = 0.0;
  const ChurnReport hooked = simulate_churn(builder, latency(), with_plan);

  EXPECT_EQ(plain.departures, hooked.departures);
  EXPECT_EQ(plain.arrivals, hooked.arrivals);
  EXPECT_EQ(hooked.crashes, 0u);
  EXPECT_EQ(hooked.failed_joins, 0u);
  ASSERT_EQ(plain.samples.size(), hooked.samples.size());
  for (std::size_t i = 0; i < plain.samples.size(); ++i) {
    EXPECT_EQ(plain.samples[i].online, hooked.samples[i].online);
    EXPECT_EQ(plain.samples[i].mean_degree, hooked.samples[i].mean_degree);
    EXPECT_EQ(plain.samples[i].giant_fraction,
              hooked.samples[i].giant_fraction);
  }
}

TEST_F(ChurnFaultTest, CrashStopDeparturesArePermanent) {
  const OverlayBuilder builder;
  ChurnOptions options = base_options();
  options.crashes = CrashSchedule(55);
  options.crashes.schedule_random_crashes(kNodes, 0.10, 0.0,
                                          options.duration_ms / 2);
  const ChurnReport report = simulate_churn(builder, latency(), options);
  EXPECT_EQ(report.crashes, 20u);
  // Crashed nodes never rejoin, so the late-run online population must
  // stay below the crash-free ceiling.
  const ChurnSample& last = report.samples.back();
  EXPECT_LE(last.online, kNodes - report.crashes);
}

TEST_F(ChurnFaultTest, LossyJoinsRetryAndAreCounted) {
  const OverlayBuilder builder;
  ChurnOptions options = base_options();
  options.link_loss = 0.10;
  const ChurnReport report = simulate_churn(builder, latency(), options);
  EXPECT_GT(report.failed_joins, 0u);
  // Retries keep churned nodes flowing back in: the overlay still holds
  // a dominant giant component at every sample.
  EXPECT_GT(report.worst_giant_fraction(), 0.9);

  // Deterministic per seed.
  const ChurnReport again = simulate_churn(builder, latency(), options);
  EXPECT_EQ(report.failed_joins, again.failed_joins);
  EXPECT_EQ(report.departures, again.departures);
}

TEST_F(ChurnFaultTest, LinkLossAtZeroAndOne) {
  const OverlayBuilder builder;
  const ObjectCatalog catalog(kNodes, 8, 0.05, 17);
  ChurnOptions options = base_options();
  options.catalog = &catalog;
  options.queries_per_sample = 10;
  const ChurnReport lossless = simulate_churn(builder, latency(), options);
  options.link_loss = 1.0;
  const ChurnReport lost = simulate_churn(builder, latency(), options);

  // At 0 no handshake or query trail is lost.
  EXPECT_EQ(lossless.failed_joins, 0u);
  EXPECT_GT(lossless.mean_search_success(), 0.5);
  // At 1 every re-join handshake is lost, so returning nodes stay
  // isolated, and only queries answered at their source succeed.
  EXPECT_GT(lost.failed_joins, 0u);
  EXPECT_GT(lost.samples.back().isolated_online, 0u);
  EXPECT_LT(lost.mean_search_success(), 0.2);
}

// --- search-success sentinel (pinning the -1.0 contract) ---------------------

TEST(ChurnReportSentinel, MeanSearchSuccessSkipsUnsampledRuns) {
  ChurnReport report;
  ChurnSample sampled;
  sampled.search_success = 0.5;
  ChurnSample unsampled;  // search_success stays at the -1.0 sentinel
  ChurnSample sampled_high;
  sampled_high.search_success = 1.0;
  report.samples = {sampled, unsampled, sampled_high, unsampled};
  // The sentinel must never be averaged in: (0.5 + 1.0) / 2, not
  // (0.5 - 1.0 + 1.0 - 1.0) / 4.
  EXPECT_DOUBLE_EQ(report.mean_search_success(), 0.75);
}

TEST(ChurnReportSentinel, AllUnsampledReportsSentinelNotZero) {
  ChurnReport report;
  report.samples.assign(5, ChurnSample{});
  EXPECT_EQ(report.mean_search_success(), -1.0);
  EXPECT_EQ(ChurnReport{}.mean_search_success(), -1.0);
}

}  // namespace
}  // namespace makalu
