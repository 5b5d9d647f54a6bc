// Tests for the simulation substrate: replica placement, failure
// injection, the event queue, and query aggregation.
#include <gtest/gtest.h>

#include "sim/failure.hpp"
#include "sim/query_stats.hpp"
#include "sim/replica_placement.hpp"
#include "test_util.hpp"

namespace makalu {
namespace {

TEST(ObjectCatalog, ReplicaCountsMatchRatio) {
  const ObjectCatalog catalog(1000, 20, 0.01, 5);
  EXPECT_EQ(catalog.object_count(), 20u);
  EXPECT_EQ(catalog.replicas_per_object(), 10u);
  for (ObjectId obj = 0; obj < 20; ++obj) {
    EXPECT_EQ(catalog.holders(obj).size(), 10u);
  }
}

TEST(ObjectCatalog, AtLeastOneReplica) {
  const ObjectCatalog catalog(100, 5, 0.0001, 7);
  EXPECT_EQ(catalog.replicas_per_object(), 1u);
}

TEST(ObjectCatalog, HoldersAreDistinctAndConsistent) {
  const ObjectCatalog catalog(500, 30, 0.02, 9);
  for (ObjectId obj = 0; obj < 30; ++obj) {
    const auto& holders = catalog.holders(obj);
    for (std::size_t i = 1; i < holders.size(); ++i) {
      EXPECT_LT(holders[i - 1], holders[i]);  // sorted and distinct
    }
    for (const NodeId node : holders) {
      EXPECT_TRUE(catalog.node_has_object(node, obj));
    }
  }
  // Reverse index consistent.
  std::size_t total_from_nodes = 0;
  for (NodeId node = 0; node < 500; ++node) {
    for (const ObjectId obj : catalog.objects_on(node)) {
      EXPECT_TRUE(catalog.node_has_object(node, obj));
      ++total_from_nodes;
    }
  }
  EXPECT_EQ(total_from_nodes, 30u * catalog.replicas_per_object());
}

TEST(ObjectCatalog, PlacementRoughlyUniform) {
  const ObjectCatalog catalog(200, 400, 0.05, 11);  // 10 replicas each
  std::vector<std::size_t> load(200, 0);
  for (ObjectId obj = 0; obj < 400; ++obj) {
    for (const NodeId n : catalog.holders(obj)) ++load[n];
  }
  // 4000 replicas over 200 nodes → mean 20; no node should be wildly off.
  for (const auto l : load) {
    EXPECT_GT(l, 2u);
    EXPECT_LT(l, 60u);
  }
}

TEST(ObjectCatalog, KeysAreStable) {
  EXPECT_EQ(ObjectCatalog::object_key(5), ObjectCatalog::object_key(5));
  EXPECT_NE(ObjectCatalog::object_key(5), ObjectCatalog::object_key(6));
}

TEST(Failure, TopDegreeSelectsHubs) {
  const Graph g = testing::make_star(9);  // hub 0 has degree 9
  const auto failed = select_top_degree_failures(g, 0.1);
  EXPECT_TRUE(failed[0]);
  EXPECT_EQ(std::count(failed.begin(), failed.end(), true), 1);
}

TEST(Failure, TopDegreeTieBreakDeterministic) {
  const Graph g = testing::make_cycle(10);  // all degree 2
  const auto a = select_top_degree_failures(g, 0.3);
  const auto b = select_top_degree_failures(g, 0.3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::count(a.begin(), a.end(), true), 3);
  EXPECT_TRUE(a[0] && a[1] && a[2]);  // id order on ties
}

TEST(Failure, RandomSelectionCount) {
  Rng rng(3);
  const auto failed = select_random_failures(1000, 0.25, rng);
  EXPECT_EQ(std::count(failed.begin(), failed.end(), true), 250);
}

TEST(Failure, ApplyProducesSurvivorSubgraph) {
  const Graph g = testing::make_path(6);
  auto failed = select_top_degree_failures(g, 0.0);
  EXPECT_EQ(std::count(failed.begin(), failed.end(), true), 0);
  failed[0] = true;
  std::vector<NodeId> mapping;
  const Graph survivors = apply_failures(g, failed, &mapping);
  EXPECT_EQ(survivors.node_count(), 5u);
  EXPECT_EQ(mapping[0], kInvalidNode);
}

TEST(Failure, IdCompactionRoundTripsSurvivorEdges) {
  // The old->new mapping must be dense and order-preserving over
  // survivors, and translating every compacted edge back through its
  // inverse must recover exactly the survivor-survivor edges of the
  // original graph — no edges invented, none dropped.
  Graph g = testing::make_cycle(40);
  Rng edge_rng(51);
  for (int i = 0; i < 80; ++i) {
    const auto u = static_cast<NodeId>(edge_rng.uniform_below(40));
    const auto v = static_cast<NodeId>(edge_rng.uniform_below(40));
    if (u != v) g.add_edge(u, v);
  }
  Rng fail_rng(52);
  const auto failed = select_random_failures(g.node_count(), 0.3, fail_rng);

  std::vector<NodeId> old_to_new;
  const Graph compact = apply_failures(g, failed, &old_to_new);

  // Mapping shape: failed -> kInvalidNode; survivors -> 0..k-1 in id order.
  std::vector<NodeId> new_to_old;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (failed[u]) {
      EXPECT_EQ(old_to_new[u], kInvalidNode);
      continue;
    }
    ASSERT_EQ(old_to_new[u], static_cast<NodeId>(new_to_old.size()));
    new_to_old.push_back(u);
  }
  ASSERT_EQ(compact.node_count(), new_to_old.size());

  // Every compacted edge is a survivor edge of the original...
  for (NodeId a = 0; a < compact.node_count(); ++a) {
    for (const NodeId b : compact.neighbors(a)) {
      EXPECT_TRUE(g.has_edge(new_to_old[a], new_to_old[b]))
          << a << "-" << b;
    }
  }
  // ...and the counts match the brute-force survivor edge census, so
  // nothing was dropped either.
  std::size_t survivor_edges = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (failed[u]) continue;
    for (const NodeId v : g.neighbors(u)) {
      if (v > u && !failed[v]) ++survivor_edges;
    }
  }
  EXPECT_EQ(compact.edge_count(), survivor_edges);
}

TEST(Failure, CompactionWithNoFailuresIsIdentity) {
  const Graph g = testing::make_barbell(5);
  const std::vector<bool> failed(g.node_count(), false);
  std::vector<NodeId> mapping;
  const Graph same = apply_failures(g, failed, &mapping);
  ASSERT_EQ(same.node_count(), g.node_count());
  EXPECT_EQ(same.edge_count(), g.edge_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    EXPECT_EQ(mapping[u], u);
    for (const NodeId v : g.neighbors(u)) EXPECT_TRUE(same.has_edge(u, v));
  }
}

TEST(Failure, CompactionWithAllFailedIsEmpty) {
  const Graph g = testing::make_complete(4);
  const std::vector<bool> failed(g.node_count(), true);
  std::vector<NodeId> mapping;
  const Graph none = apply_failures(g, failed, &mapping);
  EXPECT_EQ(none.node_count(), 0u);
  EXPECT_EQ(none.edge_count(), 0u);
  for (const NodeId m : mapping) EXPECT_EQ(m, kInvalidNode);
}

TEST(QueryAggregate, AggregatesCorrectly) {
  QueryAggregate agg;
  QueryResult success;
  success.success = true;
  success.messages = 10;
  success.duplicates = 2;
  success.nodes_visited = 8;
  success.first_hit_hop = 3;
  success.replicas_found = 1;
  success.forwarders = 5;
  QueryResult failure;
  failure.messages = 20;
  failure.forwarders = 10;
  agg.add(success);
  agg.add(failure);
  EXPECT_EQ(agg.queries(), 2u);
  EXPECT_DOUBLE_EQ(agg.success_rate(), 0.5);
  EXPECT_DOUBLE_EQ(agg.mean_messages(), 15.0);
  EXPECT_DOUBLE_EQ(agg.duplicate_fraction(), 2.0 / 30.0);
  EXPECT_DOUBLE_EQ(agg.mean_messages_per_forwarder(), 2.0);
  EXPECT_DOUBLE_EQ(agg.hit_hops().median(), 3.0);
}

TEST(QueryAggregate, EmptyIsSafe) {
  const QueryAggregate agg;
  EXPECT_DOUBLE_EQ(agg.success_rate(), 0.0);
  EXPECT_DOUBLE_EQ(agg.duplicate_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(agg.mean_messages_per_forwarder(), 0.0);
}

}  // namespace
}  // namespace makalu
