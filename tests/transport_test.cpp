// Tests for the live transport stack (net/): the hashed timer wheel,
// the in-process loopback hub, the real UDP loopback transport, and the
// seeded fault shim. Everything here is byte-level — the protocol layer
// over these transports is exercised in cluster_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "net/fault_shim.hpp"
#include "net/latency_model.hpp"
#include "net/loopback_transport.hpp"
#include "net/timer_wheel.hpp"
#include "net/udp_transport.hpp"

namespace makalu {
namespace {

using net::FaultShim;
using net::FaultShimOptions;
using net::LoopbackHub;
using net::TimerWheel;
using net::UdpTransport;

// --- TimerWheel --------------------------------------------------------------

TEST(TimerWheel, FiresInDeadlineOrderWithFifoTies) {
  TimerWheel wheel(1.0, 8);  // few slots so ticks collide in buckets
  std::vector<int> fired;
  wheel.schedule(0.0, 5.0, [&] { fired.push_back(1); });
  wheel.schedule(0.0, 2.0, [&] { fired.push_back(2); });
  wheel.schedule(0.0, 5.0, [&] { fired.push_back(3); });  // tie with #1
  wheel.schedule(0.0, 2.0, [&] { fired.push_back(4); });  // tie with #2
  EXPECT_EQ(wheel.pending(), 4u);
  EXPECT_EQ(wheel.advance(1.0), 0u);
  EXPECT_EQ(wheel.advance(10.0), 4u);
  EXPECT_EQ(fired, (std::vector<int>{2, 4, 1, 3}));
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_TRUE(std::isinf(wheel.next_deadline_ms()));
}

TEST(TimerWheel, ZeroDelayRoundsUpToNextTickNeverFiresInline) {
  TimerWheel wheel(1.0, 16);
  bool fired = false;
  wheel.schedule(3.7, 0.0, [&] { fired = true; });
  EXPECT_FALSE(fired);
  EXPECT_EQ(wheel.advance(3.7), 0u);  // same instant: not yet due
  EXPECT_EQ(wheel.advance(5.0), 1u);
  EXPECT_TRUE(fired);
}

TEST(TimerWheel, CancelPreventsFiringAndDoubleCancelIsFalse) {
  TimerWheel wheel;
  bool fired = false;
  const auto id = wheel.schedule(0.0, 3.0, [&] { fired = true; });
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_FALSE(wheel.cancel(id));
  EXPECT_EQ(wheel.advance(10.0), 0u);
  EXPECT_FALSE(fired);
  EXPECT_FALSE(wheel.cancel(net::kInvalidTimer));
}

TEST(TimerWheel, DeadlinesBeyondOneRevolutionWaitTheirTurn) {
  TimerWheel wheel(1.0, 8);  // revolution = 8 ticks
  std::vector<int> fired;
  wheel.schedule(0.0, 3.0, [&] { fired.push_back(1); });
  wheel.schedule(0.0, 11.0, [&] { fired.push_back(2); });  // same slot as #1
  wheel.schedule(0.0, 19.0, [&] { fired.push_back(3); });  // two laps out
  EXPECT_EQ(wheel.advance(4.0), 1u);
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(wheel.advance(12.0), 1u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(wheel.advance(20.0), 1u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheel, CallbacksMayScheduleMoreTimers) {
  TimerWheel wheel(1.0, 16);
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) wheel.schedule(wheel.tick_ms() * chain, 1.0, step);
  };
  wheel.schedule(0.0, 1.0, step);
  // Each advance fires at most the due links; drive far enough for all 5.
  std::size_t total = 0;
  for (double t = 1.0; t <= 12.0; t += 1.0) total += wheel.advance(t);
  EXPECT_EQ(total, 5u);
  EXPECT_EQ(chain, 5);
}

TEST(TimerWheel, NextDeadlineTracksEarliestPending) {
  TimerWheel wheel(1.0, 32);
  wheel.schedule(0.0, 9.0, [] {});
  const auto id = wheel.schedule(0.0, 4.0, [] {});
  EXPECT_LE(wheel.next_deadline_ms(), 5.0 + 1.0);
  EXPECT_GE(wheel.next_deadline_ms(), 4.0);
  wheel.cancel(id);
  EXPECT_GE(wheel.next_deadline_ms(), 9.0);
}

// --- LoopbackHub -------------------------------------------------------------

TEST(Loopback, DeliversBytesBetweenEndpointsInVirtualTime) {
  LoopbackHub hub(0.5);
  auto& a = hub.endpoint(1);
  auto& b = hub.endpoint(2);
  std::vector<std::pair<NodeId, std::string>> got;
  b.set_receive_handler([&](NodeId from, const std::uint8_t* data,
                            std::size_t size) {
    got.emplace_back(from, std::string(reinterpret_cast<const char*>(data),
                                       size));
  });
  const std::string hello = "hello";
  a.send(2, reinterpret_cast<const std::uint8_t*>(hello.data()),
         hello.size());
  EXPECT_TRUE(got.empty());  // nothing delivers outside run()
  hub.run_until_idle();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 1u);
  EXPECT_EQ(got[0].second, "hello");
  EXPECT_DOUBLE_EQ(hub.now_ms(), 0.5);
  EXPECT_EQ(a.stats().datagrams_sent, 1u);
  EXPECT_EQ(b.stats().datagrams_received, 1u);
  EXPECT_EQ(b.stats().bytes_received, hello.size());
}

TEST(Loopback, TimersAndDeliveriesInterleaveInTimeOrder) {
  LoopbackHub hub(1.0);
  auto& a = hub.endpoint(1);
  auto& b = hub.endpoint(2);
  std::vector<std::string> order;
  b.set_receive_handler(
      [&](NodeId, const std::uint8_t*, std::size_t) { order.push_back("rx"); });
  a.schedule(0.5, [&] { order.push_back("t0.5"); });
  const std::uint8_t byte = 0;
  a.send(2, &byte, 1);  // delivers at 1.0
  a.schedule(1.5, [&] { order.push_back("t1.5"); });
  hub.run_until_idle();
  EXPECT_EQ(order, (std::vector<std::string>{"t0.5", "rx", "t1.5"}));
}

TEST(Loopback, CancelledTimerDoesNotFire) {
  LoopbackHub hub;
  auto& a = hub.endpoint(1);
  bool fired = false;
  const auto id = a.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(a.cancel(id));
  EXPECT_FALSE(a.cancel(id));
  hub.run_until_idle();
  EXPECT_FALSE(fired);
}

TEST(Loopback, RunForLeavesFutureEventsQueued) {
  LoopbackHub hub;
  auto& a = hub.endpoint(1);
  int fired = 0;
  a.schedule(1.0, [&] { ++fired; });
  a.schedule(5.0, [&] { ++fired; });
  hub.run_for(2.0);
  EXPECT_EQ(fired, 1);
  hub.run_until_idle();
  EXPECT_EQ(fired, 2);
}

TEST(Loopback, LatencyOracleDelaysEachLinkWithAFloor) {
  const EuclideanModel latency(3, 11);
  LoopbackHub hub(latency);
  std::vector<double> arrivals;
  for (NodeId id = 0; id < 3; ++id) {
    hub.endpoint(id).set_receive_handler(
        [&](NodeId, const std::uint8_t*, std::size_t) {
          arrivals.push_back(hub.now_ms());
        });
  }
  const std::uint8_t byte = 0;
  hub.endpoint(0).send(1, &byte, 1);
  hub.endpoint(0).send(0, &byte, 1);  // zero latency: the 0.01 ms floor
  EXPECT_EQ(hub.run_until_idle(), 2u);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0], 0.01);
  EXPECT_DOUBLE_EQ(arrivals[1], latency.latency(0, 1));
}

TEST(Loopback, HandlerThatFloodsTheHubStillReadsItsOwnBytes) {
  // The frame a handler is reading stays put while the handler sends
  // enough to grow the hub's frame slab many times over.
  LoopbackHub hub(1.0);
  auto& a = hub.endpoint(0);
  auto& b = hub.endpoint(1);
  auto& c = hub.endpoint(2);
  std::vector<std::uint8_t> original(200);
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  constexpr int kFlood = 10'000;
  bool intact = false;
  b.set_receive_handler([&](NodeId, const std::uint8_t* data,
                            std::size_t size) {
    for (int i = 0; i < kFlood; ++i) {
      const auto tag = static_cast<std::uint8_t>(i);
      const std::uint8_t frame[3] = {tag, 0xAB, tag};
      b.send(2, frame, sizeof frame);
    }
    intact = std::vector<std::uint8_t>(data, data + size) == original;
  });
  int good = 0;
  c.set_receive_handler([&](NodeId from, const std::uint8_t* data,
                            std::size_t size) {
    const auto tag = static_cast<std::uint8_t>(good);
    if (from == 1 && size == 3 && data[0] == tag && data[1] == 0xAB &&
        data[2] == tag) {
      ++good;
    }
  });
  a.send(1, original.data(), original.size());
  EXPECT_EQ(hub.run_until_idle(), 1u + kFlood);
  EXPECT_TRUE(intact);
  EXPECT_EQ(good, kFlood);  // in send order, bytes unchanged
}

TEST(Loopback, TimersMayScheduleAndCancelOthersWhileFiring) {
  LoopbackHub hub;
  auto& a = hub.endpoint(0);
  std::vector<std::string> order;
  net::TimerId doomed = net::kInvalidTimer;
  net::TimerId self = net::kInvalidTimer;
  net::TimerId late = net::kInvalidTimer;
  bool cancelled_doomed = false;
  bool cancelled_self = true;
  bool cancelled_late = false;
  self = a.schedule(1.0, [&] {
    order.push_back("first");
    cancelled_self = a.cancel(self);  // already firing: not cancellable
    cancelled_doomed = a.cancel(doomed);
    // `doomed` keeps its slot until its (cancelled) event fires, so this
    // timer takes another one.
    a.schedule(0.5, [&] {
      order.push_back("second");
      late = a.schedule(10.0, [&] { order.push_back("never"); });
      a.schedule(0.5, [&] {
        order.push_back("third");
        cancelled_late = a.cancel(late);
      });
    });
  });
  doomed = a.schedule(2.0, [&] { order.push_back("doomed"); });
  EXPECT_EQ(hub.run_until_idle(), 5u);  // cancelled timers still post
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second", "third"}));
  EXPECT_FALSE(cancelled_self);
  EXPECT_TRUE(cancelled_doomed);
  EXPECT_TRUE(cancelled_late);
}

TEST(Loopback, TimerIdsGoStaleAfterFireCancelOrReuse) {
  LoopbackHub hub;
  auto& a = hub.endpoint(0);
  auto& b = hub.endpoint(1);
  int fired = 0;

  // Cancel after fire.
  const auto fired_id = a.schedule(1.0, [&] { ++fired; });
  hub.run_until_idle();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(a.cancel(fired_id));

  // Cancel through another endpoint: refused, and the timer still fires.
  const auto owned = a.schedule(1.0, [&] { ++fired; });
  EXPECT_FALSE(b.cancel(owned));
  hub.run_until_idle();
  EXPECT_EQ(fired, 2);

  // A stale id does not cancel the timer that reuses its slot.
  const auto stale = a.schedule(1.0, [&] { ++fired; });
  EXPECT_TRUE(a.cancel(stale));
  hub.run_until_idle();  // the cancelled event fires; the slot is freed
  const auto reused = a.schedule(1.0, [&] { ++fired; });
  EXPECT_NE(reused, stale);
  EXPECT_FALSE(a.cancel(stale));
  hub.run_until_idle();
  EXPECT_EQ(fired, 3);

  EXPECT_FALSE(a.cancel(net::kInvalidTimer));
  EXPECT_FALSE(b.cancel(net::kInvalidTimer));
}

// --- UdpTransport ------------------------------------------------------------

TEST(UdpTransport, LoopbackSendReceiveBetweenTwoSockets) {
  UdpTransport a;
  UdpTransport b;
  ASSERT_NE(a.port(), 0);
  ASSERT_NE(b.port(), 0);
  a.add_peer(2, b.port());
  b.add_peer(1, a.port());
  std::vector<std::pair<NodeId, std::string>> got;
  b.set_receive_handler([&](NodeId from, const std::uint8_t* data,
                            std::size_t size) {
    got.emplace_back(from, std::string(reinterpret_cast<const char*>(data),
                                       size));
  });
  const std::string ping = "ping!";
  a.send(2, reinterpret_cast<const std::uint8_t*>(ping.data()), ping.size());
  // Loopback delivery is fast but asynchronous; poll with a deadline.
  for (int i = 0; i < 200 && got.empty(); ++i) b.poll(10.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 1u);
  EXPECT_EQ(got[0].second, "ping!");
  EXPECT_EQ(a.stats().datagrams_sent, 1u);
  EXPECT_EQ(b.stats().datagrams_received, 1u);
}

TEST(UdpTransport, UnknownPeerCountsSendErrorAndUnknownSenderIsDropped) {
  UdpTransport a;
  UdpTransport b;
  const std::uint8_t byte = 7;
  a.send(99, &byte, 1);  // no such peer mapped
  EXPECT_EQ(a.stats().send_errors, 1u);
  EXPECT_EQ(a.stats().datagrams_sent, 0u);

  // b never registered a's port: the datagram must be counted, not
  // dispatched.
  a.add_peer(2, b.port());
  bool dispatched = false;
  b.set_receive_handler(
      [&](NodeId, const std::uint8_t*, std::size_t) { dispatched = true; });
  a.send(2, &byte, 1);
  for (int i = 0; i < 200 && b.stats().unknown_sender == 0; ++i) b.poll(10.0);
  EXPECT_EQ(b.stats().unknown_sender, 1u);
  EXPECT_FALSE(dispatched);
}

TEST(UdpTransport, UnknownSenderHandlerReceivesRawDatagram) {
  UdpTransport a;
  UdpTransport b;
  a.add_peer(2, b.port());
  std::uint16_t seen_port = 0;
  std::string seen_text;
  b.set_unknown_sender_handler(
      [&](std::uint16_t from_port, const std::uint8_t* data,
          std::size_t size) {
        seen_port = from_port;
        seen_text.assign(reinterpret_cast<const char*>(data), size);
      });
  const std::string line = "REGISTER 4 12345";
  a.send(2, reinterpret_cast<const std::uint8_t*>(line.data()), line.size());
  for (int i = 0; i < 200 && seen_port == 0; ++i) b.poll(10.0);
  EXPECT_EQ(seen_port, a.port());
  EXPECT_EQ(seen_text, line);
  EXPECT_EQ(b.stats().unknown_sender, 0u);
}

TEST(UdpTransport, WallClockTimersFire) {
  UdpTransport a;
  int fired = 0;
  a.schedule(5.0, [&] { ++fired; });
  const auto cancelled = a.schedule(5.0, [&] { ++fired; });
  EXPECT_TRUE(a.cancel(cancelled));
  const double start = a.now_ms();
  while (fired == 0 && a.now_ms() - start < 2000.0) a.poll(20.0);
  EXPECT_EQ(fired, 1);
  EXPECT_GE(a.now_ms() - start, 5.0 - 1e-9);
}

// --- FaultShim ---------------------------------------------------------------

/// Counts verdicts for `sends` datagrams from one shim to peers 1..peers.
net::TransportStats shim_verdicts(const FaultShimOptions& options,
                                  std::uint64_t seed, int sends, int peers) {
  LoopbackHub hub;
  auto& inner = hub.endpoint(0);
  FaultShim shim(inner, options, seed);
  const std::uint8_t byte = 0;
  for (int i = 0; i < sends; ++i) {
    shim.send(static_cast<NodeId>(1 + (i % peers)), &byte, 1);
  }
  hub.run_until_idle();
  return shim.stats();
}

TEST(FaultShim, InertShimIsAPassThrough) {
  LoopbackHub hub(0.25);
  auto& inner = hub.endpoint(0);
  auto& sink = hub.endpoint(1);
  FaultShim shim(inner, FaultShimOptions{}, 42);
  int received = 0;
  sink.set_receive_handler(
      [&](NodeId, const std::uint8_t*, std::size_t) { ++received; });
  const std::uint8_t byte = 1;
  for (int i = 0; i < 50; ++i) shim.send(1, &byte, 1);
  hub.run_until_idle();
  EXPECT_EQ(received, 50);
  EXPECT_DOUBLE_EQ(hub.now_ms(), 0.25);  // no added latency
  const auto& stats = shim.stats();
  EXPECT_EQ(stats.shim_dropped, 0u);
  EXPECT_EQ(stats.shim_duplicated, 0u);
  EXPECT_EQ(stats.shim_delayed, 0u);
  EXPECT_EQ(stats.shim_blackholed, 0u);
}

TEST(FaultShim, SameSeedSameVerdictsDifferentSeedDiverges) {
  FaultShimOptions options;
  options.drop = 0.2;
  options.duplicate = 0.1;
  options.reorder = 0.15;
  options.jitter_ms = 2.0;
  const auto run1 = shim_verdicts(options, 7, 400, 3);
  const auto run2 = shim_verdicts(options, 7, 400, 3);
  EXPECT_EQ(run1.shim_dropped, run2.shim_dropped);
  EXPECT_EQ(run1.shim_duplicated, run2.shim_duplicated);
  EXPECT_EQ(run1.shim_delayed, run2.shim_delayed);
  EXPECT_GT(run1.shim_dropped, 0u);
  EXPECT_GT(run1.shim_duplicated, 0u);

  const auto other = shim_verdicts(options, 8, 400, 3);
  EXPECT_TRUE(other.shim_dropped != run1.shim_dropped ||
              other.shim_duplicated != run1.shim_duplicated ||
              other.shim_delayed != run1.shim_delayed);
}

TEST(FaultShim, VerdictStreamIsPerDestination) {
  // The k-th datagram to a given peer draws the same verdict regardless
  // of what is sent to other peers in between: interleaving traffic to a
  // second peer must not change peer 1's verdicts.
  FaultShimOptions options;
  options.drop = 0.3;

  auto dropped_to_peer1 = [&](bool interleave) {
    LoopbackHub hub;
    auto& inner = hub.endpoint(0);
    auto& peer1 = hub.endpoint(1);
    hub.endpoint(2);
    FaultShim shim(inner, options, 99);
    int received = 0;
    peer1.set_receive_handler(
        [&](NodeId, const std::uint8_t*, std::size_t) { ++received; });
    const std::uint8_t byte = 0;
    for (int i = 0; i < 200; ++i) {
      shim.send(1, &byte, 1);
      if (interleave) shim.send(2, &byte, 1);
    }
    hub.run_until_idle();
    return received;
  };
  EXPECT_EQ(dropped_to_peer1(false), dropped_to_peer1(true));
}

TEST(FaultShim, ShimSeedsGiveEachDirectionOfALinkItsOwnStream) {
  // A shim XORs the destination into its seed per link, so seeding node
  // shims with a plain XOR of the node id would hand a->b and b->a the
  // same verdict stream; shim_seed must not.
  FaultShimOptions options;
  options.drop = 0.5;
  LoopbackHub hub;
  FaultShim a(hub.endpoint(0), options, net::shim_seed(7, 0));
  FaultShim b(hub.endpoint(1), options, net::shim_seed(7, 1));
  std::vector<std::uint8_t> at_a;
  std::vector<std::uint8_t> at_b;
  hub.endpoint(0).set_receive_handler(
      [&](NodeId, const std::uint8_t* data, std::size_t) {
        at_a.push_back(data[0]);
      });
  hub.endpoint(1).set_receive_handler(
      [&](NodeId, const std::uint8_t* data, std::size_t) {
        at_b.push_back(data[0]);
      });
  for (int i = 0; i < 200; ++i) {
    const auto ordinal = static_cast<std::uint8_t>(i);
    a.send(1, &ordinal, 1);
    b.send(0, &ordinal, 1);
  }
  hub.run_until_idle();
  EXPECT_FALSE(at_a.empty());
  EXPECT_FALSE(at_b.empty());
  EXPECT_NE(at_a, at_b);
}

TEST(FaultShim, BlackholeSilencesWithoutRngAndHealRestores) {
  FaultShimOptions options;
  options.drop = 0.5;  // knobs active, but blackhole must not draw
  LoopbackHub hub;
  auto& inner = hub.endpoint(0);
  auto& sink = hub.endpoint(1);
  FaultShim shim(inner, options, 5);
  int received = 0;
  sink.set_receive_handler(
      [&](NodeId, const std::uint8_t*, std::size_t) { ++received; });

  shim.blackhole({1});
  EXPECT_TRUE(shim.is_blackholed(1));
  const std::uint8_t byte = 0;
  for (int i = 0; i < 20; ++i) shim.send(1, &byte, 1);
  hub.run_until_idle();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(shim.stats().shim_blackholed, 20u);
  EXPECT_EQ(shim.stats().shim_dropped, 0u);  // partition != coin flip

  // Verdict draws must not have advanced while blackholed: after heal()
  // the verdict sequence equals a fresh shim's.
  shim.heal();
  EXPECT_FALSE(shim.is_blackholed(1));
  for (int i = 0; i < 100; ++i) shim.send(1, &byte, 1);
  hub.run_until_idle();
  const auto after_heal = shim.stats().shim_dropped;

  LoopbackHub hub2;
  auto& inner2 = hub2.endpoint(0);
  hub2.endpoint(1);
  FaultShim fresh(inner2, options, 5);
  for (int i = 0; i < 100; ++i) fresh.send(1, &byte, 1);
  hub2.run_until_idle();
  EXPECT_EQ(after_heal, fresh.stats().shim_dropped);
}

TEST(FaultShim, HeldFramesKeepTheirBytesAcrossSlabReuse) {
  // Every datagram is held back, with a fresh size and content each, so
  // the hold-back slab grows and its slots are reused across bursts.
  FaultShimOptions options;
  options.reorder = 1.0;
  options.reorder_delay_ms = 2.0;
  options.jitter_ms = 1.0;
  LoopbackHub hub(0.0);
  FaultShim shim(hub.endpoint(0), options, 3);
  std::vector<std::vector<std::uint8_t>> got;
  hub.endpoint(1).set_receive_handler(
      [&](NodeId, const std::uint8_t* data, std::size_t size) {
        got.emplace_back(data, data + size);
      });
  std::vector<std::vector<std::uint8_t>> sent;
  for (int burst = 0; burst < 3; ++burst) {
    for (int i = 0; i < 300; ++i) {
      std::vector<std::uint8_t> frame(1 + (i * 13 + burst) % 90,
                                      static_cast<std::uint8_t>(i + burst));
      shim.send(1, frame.data(), frame.size());
      sent.push_back(std::move(frame));
    }
    hub.run_until_idle();
  }
  EXPECT_EQ(shim.stats().shim_delayed, sent.size());
  ASSERT_EQ(got.size(), sent.size());
  std::sort(got.begin(), got.end());  // jitter reorders within a burst
  std::sort(sent.begin(), sent.end());
  EXPECT_EQ(got, sent);
}

TEST(FaultShim, DuplicateDeliversTwiceAndJitterDelays) {
  FaultShimOptions options;
  options.duplicate = 1.0;
  LoopbackHub hub(0.0);
  auto& inner = hub.endpoint(0);
  auto& sink = hub.endpoint(1);
  FaultShim shim(inner, options, 11);
  int received = 0;
  sink.set_receive_handler(
      [&](NodeId, const std::uint8_t*, std::size_t) { ++received; });
  const std::uint8_t byte = 0;
  for (int i = 0; i < 10; ++i) shim.send(1, &byte, 1);
  hub.run_until_idle();
  EXPECT_EQ(received, 20);
  EXPECT_EQ(shim.stats().shim_duplicated, 10u);

  FaultShimOptions jitter;
  jitter.jitter_ms = 4.0;
  LoopbackHub hub2(0.0);
  auto& inner2 = hub2.endpoint(0);
  auto& sink2 = hub2.endpoint(1);
  FaultShim shim2(inner2, jitter, 11);
  double last_delivery = -1.0;
  sink2.set_receive_handler([&](NodeId, const std::uint8_t*, std::size_t) {
    last_delivery = hub2.now_ms();
  });
  shim2.send(1, &byte, 1);
  hub2.run_until_idle();
  EXPECT_GE(last_delivery, 0.0);
  EXPECT_LT(last_delivery, 4.0);
}

}  // namespace
}  // namespace makalu
