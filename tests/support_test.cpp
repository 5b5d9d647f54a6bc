// Unit + property tests for src/support: RNG, stats, histogram, table,
// CLI parsing, the event calendar.
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "support/cli.hpp"
#include "support/event_queue.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace makalu {
namespace {

TEST(EventQueue, RunsInTimestampOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_EQ(q.processed(), 3u);
}

TEST(EventQueue, FifoOnEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, HandlersCanSchedule) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] {
    ++fired;
    q.schedule_in(1.0, [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, RunUntilHorizonLeavesFutureEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { ++fired; });
  q.schedule(5.0, [&] { ++fired; });
  EXPECT_EQ(q.run_until(2.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  q.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunWithHorizonKeepsTheClockAtTheLastEvent) {
  EventQueue q;
  q.schedule(1.0, [] {});
  q.schedule(5.0, [] {});
  EXPECT_EQ(q.run(2.0), 1u);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitStreamsAreIndependentOfParentContinuation) {
  Rng parent(7);
  Rng child = parent.split(1);
  const auto child_first = child();
  // Draining the parent further must not affect an already-split child.
  Rng parent2(7);
  Rng child2 = parent2.split(1);
  for (int i = 0; i < 100; ++i) parent2();
  EXPECT_EQ(child_first, child2());
}

TEST(Rng, UniformBelowRespectsBound) {
  Rng rng(5);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(rng.uniform_below(bound), bound);
    }
  }
}

TEST(Rng, UniformBelowCoversAllValues) {
  Rng rng(11);
  std::map<std::uint64_t, int> counts;
  constexpr int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_below(6)];
  ASSERT_EQ(counts.size(), 6u);
  for (const auto& [value, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count) / kDraws, 1.0 / 6.0, 0.02)
        << "value " << value;
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealInHalfOpenUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(17);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(19);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, ParetoRespectsScaleFloor) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.pareto(3.0, 2.0), 3.0);
  }
}

class ZipfTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfTest, RankZeroIsMostPopularAndBoundsHold) {
  const double exponent = GetParam();
  ZipfSampler zipf(100, exponent);
  Rng rng(29);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 40000; ++i) {
    const std::size_t r = zipf(rng);
    ASSERT_LT(r, 100u);
    ++counts[r];
  }
  // Rank 0 strictly dominates mid and tail ranks.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], 0);
  // Empirical head probability tracks the analytic Zipf mass within noise.
  double norm = 0.0;
  for (int d = 1; d <= 100; ++d) norm += std::pow(d, -exponent);
  const double expected_head = 1.0 / norm;
  EXPECT_NEAR(counts[0] / 40000.0, expected_head, 0.25 * expected_head);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfTest,
                         ::testing::Values(0.6, 0.8, 1.0, 1.2, 2.0));

TEST(OnlineStats, KnownSequence) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  Rng rng(31);
  OnlineStats whole;
  OnlineStats left;
  OnlineStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmptySides) {
  OnlineStats empty;
  OnlineStats full;
  full.add(3.0);
  OnlineStats a = full;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  OnlineStats b = empty;
  b.merge(full);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(SampleStats, PercentilesInterpolate) {
  SampleStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(25.0), 2.0);
  EXPECT_DOUBLE_EQ(s.percentile(12.5), 1.5);
}

TEST(SampleStats, FractionAtMost) {
  SampleStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.fraction_at_most(2.0), 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_at_most(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.fraction_at_most(4.0), 1.0);
}

TEST(SampleStats, PercentileCacheInvalidatesOnAdd) {
  SampleStats s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.median(), 1.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(9.9);   // bin 4
  h.add(-3.0);  // clamps to bin 0
  h.add(42.0);  // clamps to bin 4
  h.add(5.0);   // bin 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count_in_bin(0), 2u);
  EXPECT_EQ(h.count_in_bin(2), 1u);
  EXPECT_EQ(h.count_in_bin(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lower(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_width(), 2.0);
}

TEST(Table, AlignedOutputAndCsv) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.5)});
  t.add_row({"b", Table::integer(42)});
  std::ostringstream text;
  t.print(text);
  EXPECT_NE(text.str().find("alpha"), std::string::npos);
  EXPECT_NE(text.str().find("1.50"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("name,value"), std::string::npos);
  EXPECT_NE(csv.str().find("b,42"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::num(3.14159, 3), "3.142");
  EXPECT_EQ(Table::integer(-7), "-7");
  EXPECT_EQ(Table::percent(0.356, 1), "35.6%");
}

TEST(Table, CsvQuotesCommasPerRfc4180) {
  Table t({"mechanism", "msgs"});
  t.add_row({"gossip p=0.25, past hop 4", "12.5"});
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("\"gossip p=0.25, past hop 4\",12.5"),
            std::string::npos);
}

TEST(Table, CsvDoublesEmbeddedQuotes) {
  Table t({"label", "value"});
  t.add_row({"the \"giant\" component", "0.99"});
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("\"the \"\"giant\"\" component\",0.99"),
            std::string::npos);
}

TEST(Table, CsvQuotesLineBreaks) {
  Table t({"a", "b"});
  t.add_row({"two\nlines", "plain"});
  std::ostringstream csv;
  t.print_csv(csv);
  // Field with a newline is quoted; the unremarkable field stays bare.
  EXPECT_NE(csv.str().find("\"two\nlines\",plain"), std::string::npos);
}

TEST(Table, CsvLeavesPlainFieldsUnquoted) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.50"});
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "name,value\nalpha,1.50\n");
}

TEST(Cli, ParsesCommonFlags) {
  const char* argv[] = {"prog", "--n=500", "--runs=3", "--paper",
                        "--seed=99"};
  CliOptions options(5, argv);
  EXPECT_EQ(options.nodes(100), 500u);
  EXPECT_EQ(options.runs(1), 3u);
  EXPECT_EQ(options.queries(77), 77u);  // falls back
  EXPECT_TRUE(options.paper_scale());
  EXPECT_FALSE(options.csv());
  EXPECT_EQ(options.seed(1), 99u);
}

TEST(Cli, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(CliOptions(2, argv), std::invalid_argument);
}

TEST(Cli, AcceptsRegisteredCustomFlag) {
  const char* argv[] = {"prog", "--depth=5"};
  CliOptions options(2, argv, {"depth"});
  EXPECT_EQ(options.get_int("depth", 3), 5);
  EXPECT_EQ(options.get_int("missing-but-registered", 3), 3);
}

TEST(Cli, GetDouble) {
  const char* argv[] = {"prog", "--ratio=0.25"};
  CliOptions options(2, argv, {"ratio"});
  EXPECT_DOUBLE_EQ(options.get_double("ratio", 1.0), 0.25);
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(CliOptions(2, argv), std::invalid_argument);
}

TEST(Cli, AcceptsSpaceSeparatedValues) {
  const char* argv[] = {"prog", "--json", "out.json", "--n", "500"};
  CliOptions options(5, argv);
  EXPECT_EQ(options.json_path(), "out.json");
  EXPECT_EQ(options.nodes(100), 500u);
}

TEST(Cli, JsonPathDefaultsEmpty) {
  const char* argv[] = {"prog"};
  CliOptions options(1, argv);
  EXPECT_TRUE(options.json_path().empty());
}

TEST(Cli, SpaceSeparatedValueDoesNotEatNextFlag) {
  // A bare boolean flag followed by another flag must not consume it.
  const char* argv[] = {"prog", "--paper", "--n=500"};
  CliOptions options(3, argv);
  EXPECT_TRUE(options.paper_scale());
  EXPECT_EQ(options.nodes(100), 500u);
}

}  // namespace
}  // namespace makalu
