// Allocation count of the counting mirror's churn path (in the allocation
// test executable, whose global operator new counts every heap
// allocation).
//
// On a warmed blocked router with counting maintenance, removing a
// replica and publishing it again runs two counter waves, drains the
// change journal twice and repairs the delta rows by the flip census.
// Once one such cycle has grown every row and scratch buffer it needs,
// the same cycle must cost zero heap allocations.
#include <gtest/gtest.h>

#include <cstdint>

#include "allocation_counter.hpp"
#include "search/abf_search.hpp"
#include "topology/generators.hpp"

namespace makalu {
namespace {

TEST(CountingWaveAllocation, RemoveThenReinsertAllocatesNothingWhenWarm) {
  PowerLawParameters plp;
  plp.exponent = 2.0;
  plp.min_degree = 2;
  plp.max_degree = 60;
  const CsrGraph csr =
      CsrGraph::from_graph(PowerLawGenerator(plp).generate(400, 91));
  ObjectCatalog catalog(csr.node_count(), 16, 0.03, 7);
  AbfOptions options;
  options.layout = TableLayout::kBlockedDelta;
  options.blocked_level_bits = 256;
  options.level_params = {/*bits=*/256, /*hashes=*/4};
  options.delta_cap = 4;
  options.counting_maintenance = true;
  AbfRouter router(csr, catalog, options);

  // Every replica of every object, each cycled once to warm and once
  // measured; the catalog edits sit outside the measured windows.
  std::uint64_t allocations = 0;
  std::size_t cycles = 0;
  for (ObjectId object = 0; object < catalog.object_count(); ++object) {
    const auto holders = catalog.holders(object);
    for (const NodeId holder : holders) {
      for (int pass = 0; pass < 2; ++pass) {
        catalog.remove_replica(object, holder);
        const std::uint64_t before_remove = allocation_count();
        router.notify_remove(holder, object);
        const std::uint64_t removed = allocation_count() - before_remove;
        catalog.add_replica(object, holder);
        const std::uint64_t before_insert = allocation_count();
        router.notify_insert(holder, object);
        const std::uint64_t inserted = allocation_count() - before_insert;
        if (pass == 1) {
          allocations += removed + inserted;
          ++cycles;
        }
      }
    }
  }
  ASSERT_GT(cycles, 100u);
  EXPECT_EQ(allocations, 0u) << "over " << cycles << " warm cycles";

  // The cycles left the tables where a fresh build puts them.
  const AbfRouter fresh(csr, catalog, options);
  EXPECT_TRUE(router.counting_table()->equals(*fresh.counting_table()));
  EXPECT_TRUE(router.blocked_table()->equals(*fresh.blocked_table()));
}

TEST(CountingWaveAllocation, CounterSeesAllocations) {
  // Guards the test above against a counter that never counts: a cold
  // router's first wave grows its scratch.
  const CsrGraph csr = CsrGraph::from_graph(
      PowerLawGenerator(PowerLawParameters{}).generate(50, 3));
  ObjectCatalog catalog(csr.node_count(), 2, 0.1, 5);
  AbfOptions options;
  options.layout = TableLayout::kBlockedDelta;
  options.counting_maintenance = true;
  AbfRouter router(csr, catalog, options);
  const NodeId holder = catalog.holders(0).front();
  catalog.remove_replica(0, holder);
  const std::uint64_t before = allocation_count();
  router.notify_remove(holder, 0);
  EXPECT_GT(allocation_count(), before);
}

}  // namespace
}  // namespace makalu
