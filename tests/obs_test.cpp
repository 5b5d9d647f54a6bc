// Tests for the observability subsystem: the sharded metrics registry
// (kinds, idempotent registration, histogram bucket semantics,
// thread-count-invariant aggregation), the JSON writer/report contract,
// and — most importantly — the zero-interference guarantee: attaching a
// registry to the parallel query driver or the deterministic sweep must
// never change what the instrumented code computes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/parallel_query_driver.hpp"
#include "net/latency_model.hpp"
#include "core/overlay_builder.hpp"
#include "core/rating_cache.hpp"
#include "obs/bench_report.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "proto/network.hpp"
#include "search/flood_search.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"

namespace makalu {
namespace {

using obs::GaugeAgg;
using obs::HistogramSpec;
using obs::HistogramView;
using obs::JsonWriter;
using obs::MetricId;
using obs::MetricKind;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using testing::make_cycle;

// Sorted adjacency lists: equal iff the graphs have identical edge sets.
std::vector<std::vector<NodeId>> canonical(const Graph& g) {
  std::vector<std::vector<NodeId>> adj(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto nbrs = g.neighbors(u);
    adj[u].assign(nbrs.begin(), nbrs.end());
    std::sort(adj[u].begin(), adj[u].end());
  }
  return adj;
}

TEST(ObsRegistry, CountersGaugesAndHistogramsAggregate) {
  MetricsRegistry registry(2);
  const MetricId hits = registry.counter("hits");
  const MetricId load = registry.gauge("load");
  const MetricId peak = registry.gauge("peak", GaugeAgg::kMax);
  const MetricId hops = registry.histogram("hops",
                                           HistogramSpec::linear(1.0, 1.0, 3));

  registry.shard(0).add(hits, 2);
  registry.shard(1).add(hits);
  registry.shard(0).gauge_add(load, 1.5);
  registry.shard(1).gauge_add(load, 2.5);
  registry.shard(0).gauge_max(peak, 7.0);
  registry.shard(1).gauge_max(peak, 3.0);
  registry.shard(0).observe(hops, 2.0);
  registry.shard(1).observe(hops, 99.0);  // overflow bucket

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.metrics.size(), 4u);

  const auto* h = snap.find("hits");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->kind, MetricKind::kCounter);
  EXPECT_EQ(h->count, 3u);

  const auto* l = snap.find("load");
  ASSERT_NE(l, nullptr);
  EXPECT_DOUBLE_EQ(l->value, 4.0);  // sum across shards

  const auto* p = snap.find("peak");
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->value, 7.0);  // max across shards

  const auto* hist = snap.find("hops");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->kind, MetricKind::kHistogram);
  EXPECT_EQ(hist->count, 2u);
  ASSERT_EQ(hist->buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(hist->buckets[1], 1u);      // 2.0 lands in le=2
  EXPECT_EQ(hist->buckets[3], 1u);      // 99.0 overflows

  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(ObsRegistry, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  const MetricId a = registry.counter("c");
  const MetricId b = registry.counter("c");
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.metric_count(), 1u);
  const MetricId g1 = registry.gauge("g");
  const MetricId g2 = registry.gauge("g");
  EXPECT_EQ(g1, g2);
  // Distinct names get distinct ids even across kinds.
  EXPECT_EQ(registry.metric_count(), 2u);
}

TEST(ObsRegistry, HistogramBucketBoundariesAreLessOrEqual) {
  MetricsRegistry registry;
  // Bounds 1, 2, 4, 8 plus the implicit +inf bucket.
  const MetricId id =
      registry.histogram("h", HistogramSpec::exponential(1.0, 2.0, 4));
  auto& shard = registry.shard(0);
  shard.observe(id, 1.0);   // on the first bound: le semantics -> bucket 0
  shard.observe(id, 1.5);   // bucket 1 (le=2)
  shard.observe(id, 2.0);   // bucket 1, exactly on the bound
  shard.observe(id, 8.0);   // bucket 3, exactly on the last bound
  shard.observe(id, 8.01);  // overflow
  shard.observe(id, 3.0, 5);  // weighted: 5 observations in bucket 2

  const MetricsSnapshot snap = registry.snapshot();
  const auto* h = snap.find("h");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->buckets.size(), 5u);
  EXPECT_EQ(h->buckets[0], 1u);
  EXPECT_EQ(h->buckets[1], 2u);
  EXPECT_EQ(h->buckets[2], 5u);
  EXPECT_EQ(h->buckets[3], 1u);
  EXPECT_EQ(h->buckets[4], 1u);
  EXPECT_EQ(h->count, 10u);
  EXPECT_DOUBLE_EQ(h->value, 1.0 + 1.5 + 2.0 + 8.0 + 8.01 + 5 * 3.0);
}

TEST(ObsRegistry, ResetClearsValuesButKeepsRegistrations) {
  MetricsRegistry registry;
  const MetricId c = registry.counter("c");
  registry.shard(0).add(c, 41);
  registry.reset();
  EXPECT_EQ(registry.metric_count(), 1u);
  EXPECT_EQ(registry.snapshot().find("c")->count, 0u);
  registry.shard(0).add(c);  // the id survives the reset
  EXPECT_EQ(registry.snapshot().find("c")->count, 1u);
}

TEST(ObsRegistry, EnsureSlotsGrowsAndKeepsExistingShards) {
  MetricsRegistry registry(1);
  const MetricId c = registry.counter("c");
  registry.shard(0).add(c, 5);
  registry.ensure_slots(4);
  EXPECT_EQ(registry.slots(), 4u);
  registry.shard(3).add(c, 2);
  EXPECT_EQ(registry.snapshot().find("c")->count, 7u);
  // Shrinking never happens.
  registry.ensure_slots(2);
  EXPECT_EQ(registry.slots(), 4u);
}

// The determinism claim, tested directly: the same observations produce
// the same snapshot regardless of which shard recorded them. Integer
// counter/bucket sums make this exact, not approximate.
TEST(ObsRegistry, SnapshotIndependentOfShardAssignment) {
  const auto run = [](std::size_t shards) {
    MetricsRegistry registry(shards);
    const MetricId c = registry.counter("msgs");
    const MetricId h =
        registry.histogram("hops", HistogramSpec::linear(1.0, 1.0, 8));
    for (std::uint64_t i = 0; i < 1000; ++i) {
      auto& shard = registry.shard(i % shards);
      shard.add(c, i % 7);
      shard.observe(h, static_cast<double>(i % 10), 1 + i % 3);
    }
    std::ostringstream json;
    registry.snapshot().write_json(json);
    return json.str();
  };
  const std::string one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(8));
}

// TSan target: concurrent slot-local writes followed by a post-join
// snapshot. With one shard per slot there is no cross-thread write, and
// the fold must still be thread-count-invariant for integer sums.
TEST(ObsRegistry, ParallelSlotWritesFoldDeterministically) {
  const std::size_t kItems = 4000;
  const auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    MetricsRegistry registry;
    registry.ensure_slots(pool.max_slots());
    const MetricId c = registry.counter("items");
    const MetricId h =
        registry.histogram("value", HistogramSpec::linear(0.0, 100.0, 10));
    pool.parallel_for_slotted(0, kItems, [&](std::size_t slot, std::size_t lo,
                                             std::size_t hi) {
      auto& shard = registry.shard(slot);
      for (std::size_t i = lo; i < hi; ++i) {
        shard.add(c);
        shard.observe(h, static_cast<double>(i % 1000));
      }
    });
    std::ostringstream json;
    registry.snapshot().write_json(json);
    return json.str();
  };
  const std::string one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(8));
}

TEST(ObsJson, WriterEscapesAndNests) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  json.key("s").value("a\"b\\c\nd");
  json.key("i").value(std::int64_t{-3});
  json.key("u").value(std::uint64_t{7});
  json.key("d").value(0.5);
  json.key("b").value(true);
  json.key("z").null();
  json.key("arr").begin_array();
  json.value(std::uint64_t{1}).value(std::uint64_t{2});
  json.end_array();
  json.end_object();
  EXPECT_EQ(os.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"i\":-3,\"u\":7,\"d\":0.5,"
            "\"b\":true,\"z\":null,\"arr\":[1,2]}");
}

TEST(ObsJson, SnapshotSerializationGolden) {
  MetricsRegistry registry;
  registry.shard(0).add(registry.counter("b.count"), 3);
  registry.shard(0).gauge_set(registry.gauge("a.value"), 2.5);
  const MetricId h =
      registry.histogram("c.hist", HistogramSpec::linear(1.0, 1.0, 2));
  registry.shard(0).observe(h, 1.0);
  registry.shard(0).observe(h, 5.0);
  std::ostringstream os;
  registry.snapshot().write_json(os);
  // Name-sorted members, bit-stable number formatting: the byte-for-byte
  // contract bench_compare.py and the golden artifacts rely on.
  EXPECT_EQ(os.str(),
            "{\"a.value\":{\"kind\":\"gauge\",\"agg\":\"sum\",\"value\":2.5},"
            "\"b.count\":{\"kind\":\"counter\",\"value\":3},"
            "\"c.hist\":{\"kind\":\"histogram\",\"count\":2,\"sum\":6,"
            "\"buckets\":[{\"le\":1,\"count\":1},{\"le\":2,\"count\":0},"
            "{\"le\":\"+inf\",\"count\":1}]}}");
}

TEST(ObsBenchReport, DocumentCarriesRunMetadata) {
  obs::BenchRunInfo info;
  info.bench = "unit_test";
  info.git = "deadbeef";
  info.n = 100;
  info.runs = 2;
  info.queries = 10;
  info.seed = 42;
  info.threads = 4;
  info.paper = false;
  obs::BenchReport report(info);
  report.add_phase("build", 12.5);
  report.add_phase("query", 3.25);

  MetricsRegistry registry;
  registry.shard(0).add(registry.counter("x"), 1);

  std::ostringstream os;
  report.write_json(os, registry.snapshot());
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"schema\":\"makalu.bench.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"bench\":\"unit_test\""), std::string::npos);
  EXPECT_NE(doc.find("\"git\":\"deadbeef\""), std::string::npos);
  EXPECT_NE(doc.find("\"n\":100"), std::string::npos);
  EXPECT_NE(doc.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(doc.find("\"threads\":4"), std::string::npos);
  EXPECT_NE(doc.find("\"paper\":false"), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"build\",\"ms\":12.5"), std::string::npos);
  EXPECT_NE(doc.find("\"wall_ms\":"), std::string::npos);
  EXPECT_NE(doc.find("\"metrics\":{\"x\":"), std::string::npos);
}

TEST(ObsBenchReport, DocumentCarriesHostBlock) {
  obs::BenchRunInfo info;
  info.bench = "unit_test";
  info.git = "deadbeef";
  info.n = 1;
  info.host.cpu_model = "Test CPU @ 1.00GHz";
  info.host.match_kernel = "portable";
  obs::BenchReport report(info);
  report.set_driver_threads(3);
  // The report fills what the caller left empty.
  EXPECT_GT(report.info().host.nproc, 0u);
  EXPECT_FALSE(report.info().host.build_type.empty());

  std::ostringstream os;
  report.write_json(os, MetricsRegistry().snapshot());
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"host\":{\"nproc\":"), std::string::npos);
  EXPECT_NE(doc.find("\"cpu_model\":\"Test CPU @ 1.00GHz\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"build_type\":\"" + report.info().host.build_type +
                     "\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"match_kernel\":\"portable\""), std::string::npos);
  EXPECT_NE(doc.find("\"driver_threads\":3"), std::string::npos);
}

TEST(ObsScopedTimer, RecordsIntoShardAndNullDisarms) {
  MetricsRegistry registry;
  const MetricId ms = registry.gauge("t.ms");
  {
    obs::ScopedTimer timer(&registry.shard(0), ms);
  }
  const MetricsSnapshot snap = registry.snapshot();
  const auto* t = snap.find("t.ms");
  ASSERT_NE(t, nullptr);
  EXPECT_GE(t->value, 0.0);

  {
    obs::ScopedTimer disarmed(nullptr, ms);  // must be a no-op
  }
  SUCCEED();
}

// --- zero-interference: the whole point of the nullable-pointer seam ----

TEST(ObsInterference, DriverResultsIdenticalWithAndWithoutMetrics) {
  const std::size_t n = 200;
  const CsrGraph csr = CsrGraph::from_graph(make_cycle(n));
  const ObjectCatalog catalog(n, 8, 0.05, 3);
  FloodOptions fopts;
  fopts.ttl = 8;
  const FloodEngine engine(csr, fopts);

  BatchQueryOptions plain;
  plain.queries = 100;
  plain.seed = 11;
  const QueryAggregate without =
      ParallelQueryDriver(2).run_batch(engine, catalog, plain);

  MetricsRegistry registry;
  BatchQueryOptions instrumented = plain;
  instrumented.metrics = &registry;
  const QueryAggregate with =
      ParallelQueryDriver(2).run_batch(engine, catalog, instrumented);

  EXPECT_EQ(without.queries(), with.queries());
  EXPECT_EQ(without.success_rate(), with.success_rate());
  EXPECT_EQ(without.mean_messages(), with.mean_messages());
  EXPECT_EQ(without.mean_duplicates(), with.mean_duplicates());
  EXPECT_EQ(without.mean_nodes_visited(), with.mean_nodes_visited());

  // And the registry actually observed the batch.
  const MetricsSnapshot snap = registry.snapshot();
  const auto* queries = snap.find("driver.queries");
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(queries->count, plain.queries);
  const auto* messages = snap.find("driver.messages");
  ASSERT_NE(messages, nullptr);
  EXPECT_GT(messages->count, 0u);
}

TEST(ObsInterference, DriverCountersIdenticalAcrossThreadCounts) {
  const std::size_t n = 150;
  const CsrGraph csr = CsrGraph::from_graph(make_cycle(n));
  const ObjectCatalog catalog(n, 6, 0.05, 5);
  const FloodEngine engine(csr);

  const auto counters_at = [&](std::size_t threads) {
    MetricsRegistry registry;
    BatchQueryOptions batch;
    batch.queries = 80;
    batch.seed = 17;
    batch.metrics = &registry;
    (void)ParallelQueryDriver(threads).run_batch(engine, catalog, batch);
    // Wall-clock histograms are the one intentionally nondeterministic
    // metric family; strip them and compare everything else exactly.
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const auto& m : registry.snapshot().metrics) {
      if (m.name == "driver.query_wall_us") continue;
      out.emplace_back(m.name, m.count);
    }
    return out;
  };
  const auto serial = counters_at(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, counters_at(2));
  EXPECT_EQ(serial, counters_at(8));
}

TEST(ObsInterference, SweepResultIdenticalWithAndWithoutMetrics) {
  const EuclideanModel latency(200, 23);
  const OverlayBuilder builder;
  const MakaluOverlay base = builder.build(latency, 7);
  std::vector<bool> active(base.node_count(), true);
  Rng damage_rng(31);
  MakaluOverlay damaged = base;
  for (NodeId v = 0; v < damaged.node_count(); ++v) {
    if (damage_rng.chance(0.2)) damaged.graph.isolate(v);
  }

  const auto sweep_with = [&](MetricsRegistry* metrics) {
    MakaluOverlay overlay = damaged;
    CachedRatingEngine cache(overlay.graph, latency,
                             builder.parameters().weights);
    SweepOptions sweep;
    sweep.seed = 0xfeedULL;
    sweep.active = &active;
    sweep.metrics = metrics;
    const std::size_t changes =
        builder.deterministic_sweep(overlay, cache, sweep);
    return std::make_pair(canonical(overlay.graph), changes);
  };

  const auto plain = sweep_with(nullptr);
  MetricsRegistry registry;
  const auto instrumented = sweep_with(&registry);
  EXPECT_EQ(plain.first, instrumented.first);
  EXPECT_EQ(plain.second, instrumented.second);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.find("sweep.sweeps")->count, 1u);
  EXPECT_GT(snap.find("sweep.solicitors")->count, 0u);
  EXPECT_EQ(snap.find("sweep.edges_added")->count +
                snap.find("sweep.edges_removed")->count,
            static_cast<std::uint64_t>(instrumented.second));
  EXPECT_GE(snap.find("sweep.plan_ms")->value, 0.0);
}

TEST(ObsTraffic, ExportPublishesTotalsPerTypeAndReliability) {
  proto::TrafficStats stats;
  // One Query (index of Query in the payload alternatives) and one drop —
  // record() is exercised end-to-end by proto_test; here the export
  // mapping itself is under test, so fill the fields directly.
  stats.count[7] = 4;   // "query"
  stats.bytes[7] = 160;
  stats.total_messages = 4;
  stats.total_bytes = 160;
  stats.dropped_messages = 2;
  stats.dropped_bytes = 80;
  stats.retransmissions = 3;

  MetricsRegistry registry;
  proto::export_traffic_metrics(stats, registry);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.find("proto.messages")->count, 4u);
  EXPECT_EQ(snap.find("proto.bytes")->count, 160u);
  ASSERT_NE(snap.find("proto.messages.query"), nullptr);
  EXPECT_EQ(snap.find("proto.messages.query")->count, 4u);
  EXPECT_EQ(snap.find("proto.bytes.query")->count, 160u);
  // Zero-count payload types are skipped entirely.
  EXPECT_EQ(snap.find("proto.messages.ping"), nullptr);
  EXPECT_EQ(snap.find("proto.dropped_messages")->count, 2u);
  EXPECT_EQ(snap.find("proto.retransmissions")->count, 3u);

  // Cumulative-add: a second export doubles the counters.
  proto::export_traffic_metrics(stats, registry);
  EXPECT_EQ(registry.snapshot().find("proto.messages")->count, 8u);
}

TEST(ObsHistogramView, EmptyHistogramAndClampedQuantileArguments) {
  const std::vector<double> bounds = {10.0, 20.0, 30.0};
  const std::vector<std::uint64_t> empty = {0, 0, 0, 0};
  const HistogramView none(bounds, empty);
  EXPECT_EQ(none.total(), 0u);
  EXPECT_EQ(none.quantile(0.5), 0.0);

  const std::vector<std::uint64_t> some = {4, 0, 0, 0};
  const HistogramView view(bounds, some);
  // q outside [0, 1] clamps to the endpoints.
  EXPECT_EQ(view.quantile(-3.0), view.quantile(0.0));
  EXPECT_EQ(view.quantile(7.0), view.quantile(1.0));
}

TEST(ObsHistogramView, InterpolatesUniformlyWithinABucket) {
  const std::vector<double> bounds = {10.0, 20.0, 30.0};
  const std::vector<std::uint64_t> buckets = {4, 0, 0, 0};
  const HistogramView view(bounds, buckets);
  EXPECT_EQ(view.total(), 4u);
  // Bucket 0 spans (0, 10]; rank q*4 interpolates linearly across it.
  EXPECT_DOUBLE_EQ(view.quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(view.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(view.quantile(1.0), 10.0);
}

TEST(ObsHistogramView, BoundaryRankReturnsBucketUpperBound) {
  const std::vector<double> bounds = {10.0, 20.0, 30.0};
  const std::vector<std::uint64_t> buckets = {2, 2, 0, 0};
  const HistogramView view(bounds, buckets);
  // Rank 2 lands exactly on bucket 0's cumulative edge: the quantile is
  // bucket 0's upper bound — it never interpolates into bucket 1.
  EXPECT_DOUBLE_EQ(view.quantile(0.5), 10.0);
  // One rank past the edge starts from bucket 1's lower bound.
  EXPECT_DOUBLE_EQ(view.quantile(0.75), 15.0);
  EXPECT_DOUBLE_EQ(view.quantile(1.0), 20.0);
}

TEST(ObsHistogramView, OverflowBucketClampsToLargestFiniteBound) {
  const std::vector<double> bounds = {10.0, 20.0, 30.0};
  const std::vector<std::uint64_t> buckets = {1, 0, 0, 3};
  const HistogramView view(bounds, buckets);
  // Ranks resolved by the +inf bucket cannot be located beyond the last
  // finite bound; they clamp there instead of inventing a value.
  EXPECT_DOUBLE_EQ(view.quantile(0.9), 30.0);
  EXPECT_DOUBLE_EQ(view.quantile(1.0), 30.0);
  // Ranks inside the finite buckets are unaffected by the overflow mass.
  EXPECT_DOUBLE_EQ(view.quantile(0.25), 10.0);
}

TEST(ObsHistogramView, SnapshotHistogramViewMatchesObservations) {
  MetricsRegistry registry;
  // Bounds 5, 10, 15, 20 (+inf last).
  const MetricId id =
      registry.histogram("lat", HistogramSpec::linear(5.0, 5.0, 4));
  auto& shard = registry.shard(0);
  for (int i = 0; i < 8; ++i) shard.observe(id, 2.0);   // bucket 0
  for (int i = 0; i < 2; ++i) shard.observe(id, 12.0);  // bucket 2

  const MetricsSnapshot snap = registry.snapshot();
  const auto* h = snap.find("lat");
  ASSERT_NE(h, nullptr);
  const HistogramView view = h->histogram_view();
  EXPECT_EQ(view.total(), 10u);
  // Rank 5 of 8 in bucket (0, 5]: 5/8 of the way across.
  EXPECT_DOUBLE_EQ(view.quantile(0.5), 3.125);
  // Rank 8 is exactly bucket 0's edge; rank 9 starts bucket 2 at 10.
  EXPECT_DOUBLE_EQ(view.quantile(0.8), 5.0);
  EXPECT_DOUBLE_EQ(view.quantile(0.9), 12.5);
  EXPECT_DOUBLE_EQ(view.quantile(1.0), 15.0);
}

TEST(ObsTraffic, PayloadTypeNamesCoverEveryIndex) {
  for (std::size_t i = 0; i < proto::kPayloadTypes; ++i) {
    const char* name = proto::payload_type_name(i);
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
  EXPECT_EQ(std::string(proto::payload_type_name(7)), "query");
}

}  // namespace
}  // namespace makalu
