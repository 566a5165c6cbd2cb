#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/support/bitset.h"
#include "src/support/parallel.h"
#include "src/support/rng.h"
#include "src/support/stats.h"
#include "src/support/table.h"
#include "src/support/units.h"

namespace trimcaching::support {
namespace {

// ---------------------------------------------------------------- DynamicBitset

TEST(DynamicBitset, StartsEmpty) {
  DynamicBitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.any());
}

TEST(DynamicBitset, SetTestReset) {
  DynamicBitset b(70);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(69);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(69));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(DynamicBitset, OutOfRangeThrows) {
  DynamicBitset b(10);
  EXPECT_THROW(b.set(10), std::out_of_range);
  EXPECT_THROW(b.reset(10), std::out_of_range);
  EXPECT_THROW((void)b.test(10), std::out_of_range);
}

TEST(DynamicBitset, UnionIntersectionDifference) {
  DynamicBitset a(130), b(130);
  a.set(1);
  a.set(100);
  b.set(100);
  b.set(129);
  DynamicBitset u = a | b;
  EXPECT_EQ(u.count(), 3u);
  EXPECT_TRUE(u.test(1) && u.test(100) && u.test(129));
  DynamicBitset n = a & b;
  EXPECT_EQ(n.count(), 1u);
  EXPECT_TRUE(n.test(100));
  DynamicBitset d = a;
  d -= b;
  EXPECT_EQ(d.count(), 1u);
  EXPECT_TRUE(d.test(1));
}

TEST(DynamicBitset, SizeMismatchThrows) {
  DynamicBitset a(10), b(11);
  EXPECT_THROW(a |= b, std::invalid_argument);
  EXPECT_THROW(a &= b, std::invalid_argument);
  EXPECT_THROW((void)a.is_subset_of(b), std::invalid_argument);
}

TEST(DynamicBitset, SubsetSemantics) {
  DynamicBitset a(80), b(80);
  a.set(3);
  b.set(3);
  b.set(70);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
  DynamicBitset empty(80);
  EXPECT_TRUE(empty.is_subset_of(a));
}

TEST(DynamicBitset, Intersects) {
  DynamicBitset a(64), b(64);
  a.set(5);
  b.set(6);
  EXPECT_FALSE(a.intersects(b));
  b.set(5);
  EXPECT_TRUE(a.intersects(b));
}

TEST(DynamicBitset, ForEachAscending) {
  DynamicBitset b(200);
  const std::vector<std::size_t> expected = {0, 64, 65, 128, 199};
  for (const auto idx : expected) b.set(idx);
  EXPECT_EQ(b.to_indices(), expected);
}

TEST(DynamicBitset, EqualityAndHash) {
  DynamicBitset a(64), b(64);
  a.set(7);
  b.set(7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(8);
  EXPECT_FALSE(a == b);
}

TEST(DynamicBitset, ClearKeepsSize) {
  DynamicBitset b(33);
  b.set(32);
  b.clear();
  EXPECT_EQ(b.size(), 33u);
  EXPECT_TRUE(b.none());
}

// ------------------------------------------------------------------------ Rng

TEST(Rng, UniformInRange) {
  Rng rng(42);
  for (int t = 0; t < 1000; ++t) {
    const double x = rng.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(42);
  std::set<std::int64_t> seen;
  for (int t = 0; t < 2000; ++t) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int t = 0; t < 100; ++t) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, ForkIndependentStreams) {
  Rng a(7);
  Rng f1 = a.fork(1);
  Rng f2 = a.fork(2);
  bool any_diff = false;
  for (int t = 0; t < 10; ++t) {
    if (f1.uniform(0, 1) != f2.uniform(0, 1)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(3);
  const auto p = rng.permutation(50);
  std::set<std::size_t> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 50u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 49u);
}

TEST(Rng, ExponentialMeanApproximatelyInverseRate) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int t = 0; t < n; ++t) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, InvalidArgumentsThrow) {
  Rng rng(1);
  EXPECT_THROW((void)rng.uniform(3.0, 2.0), std::invalid_argument);
  EXPECT_THROW((void)rng.uniform_int(3, 2), std::invalid_argument);
  EXPECT_THROW((void)rng.index(0), std::invalid_argument);
  EXPECT_THROW((void)rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW((void)rng.bernoulli(1.5), std::invalid_argument);
}

TEST(Rng, AtIsCounterBased) {
  // Same (stream, index) from equal-seeded generators -> same stream.
  Rng a(7), b(7);
  Rng d1 = a.at(3, 5);
  Rng d2 = b.at(3, 5);
  for (int t = 0; t < 20; ++t) {
    EXPECT_DOUBLE_EQ(d1.uniform(0, 1), d2.uniform(0, 1));
  }
}

TEST(Rng, AtDoesNotDependOnEngineState) {
  // Unlike fork(), at() must be stable however much the parent was used.
  Rng a(7), b(7);
  for (int t = 0; t < 100; ++t) (void)b.uniform(0, 1);
  Rng d1 = a.at(1, 2);
  Rng d2 = b.at(1, 2);
  EXPECT_DOUBLE_EQ(d1.uniform(0, 1), d2.uniform(0, 1));
}

TEST(Rng, AtDoesNotAdvanceParent) {
  Rng a(7), b(7);
  (void)a.at(1, 2);
  (void)a.at(9, 9);
  EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Rng, AtStreamsAndIndicesDiffer) {
  const Rng a(7);
  Rng s00 = a.at(0, 0);
  Rng s01 = a.at(0, 1);
  Rng s10 = a.at(1, 0);
  const double x = s00.uniform(0, 1);
  EXPECT_NE(x, s01.uniform(0, 1));
  EXPECT_NE(x, s10.uniform(0, 1));
}

// ---------------------------------------------------------------------- Stats

TEST(RunningStats, MeanVarianceMatchClosedForm) {
  RunningStats rs;
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  for (const double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), 5u);
  EXPECT_DOUBLE_EQ(rs.mean(), 3.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 2.5);
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 5.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, a, b;
  Rng rng(5);
  for (int t = 0; t < 100; ++t) {
    const double x = rng.uniform(-10, 10);
    all.add(x);
    (t < 37 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
}

TEST(Summarize, Basics) {
  const Summary s = summarize({2.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

// ---------------------------------------------------------------------- Units

TEST(Units, Conversions) {
  EXPECT_EQ(megabytes(1.5), 1'500'000u);
  EXPECT_EQ(gigabytes(2.0), 2'000'000'000u);
  EXPECT_DOUBLE_EQ(bits(10), 80.0);
  EXPECT_DOUBLE_EQ(as_gigabytes(gigabytes(1.0)), 1.0);
  EXPECT_DOUBLE_EQ(mhz(400), 4e8);
  EXPECT_DOUBLE_EQ(gbps(10), 1e10);
}

TEST(Units, DbmRoundTrip) {
  EXPECT_NEAR(dbm_to_watts(43.0), 19.9526, 1e-3);
  EXPECT_NEAR(watts_to_dbm(dbm_to_watts(17.0)), 17.0, 1e-12);
  EXPECT_NEAR(dbm_to_watts(0.0), 1e-3, 1e-15);
}

// ---------------------------------------------------------------------- Table

TEST(Table, TextAndCsv) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"33", "4"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("bb"), std::string::npos);
  EXPECT_NE(text.find("33"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "a,bb\n1,2\n33,4\n");
}

TEST(Table, CsvQuotesCellsWithSeparators) {
  Table t({"solver", "x"});
  t.add_row({"spec:mode=weight,states=2048", "1"});
  t.add_row({"say \"hi\"", "2"});
  EXPECT_EQ(t.to_csv(),
            "solver,x\n\"spec:mode=weight,states=2048\",1\n\"say \"\"hi\"\"\",2\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(Table::cell(1.23456, 2), "1.23");
  EXPECT_EQ(Table::cell(std::size_t{42}), "42");
}

// ------------------------------------------------------------------- Parallel

TEST(Parallel, ResolveThreads) {
  EXPECT_GE(hardware_threads(), 1u);
  EXPECT_EQ(resolve_threads(0), hardware_threads());
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(16), 16u);  // oversubscription allowed
}

TEST(Parallel, ForVisitsEveryIndexOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{9}}) {
    std::vector<int> visits(1000, 0);
    parallel_for(visits.size(), threads, [&](std::size_t i) { ++visits[i]; });
    for (const int v : visits) EXPECT_EQ(v, 1) << "threads=" << threads;
  }
}

TEST(Parallel, ForHandlesEmptyAndSingle) {
  int calls = 0;
  parallel_for(0, 8, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, 8, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(Parallel, NestedCallsRunSerially) {
  std::vector<int> visits(64, 0);
  parallel_for(8, 4, [&](std::size_t outer) {
    // Nested loop must not deadlock and must still cover its range.
    parallel_for(8, 4, [&](std::size_t inner) { ++visits[outer * 8 + inner]; });
  });
  for (const int v : visits) EXPECT_EQ(v, 1);
}

TEST(Parallel, ExceptionPropagates) {
  EXPECT_THROW(
      parallel_for(100, 4,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(Parallel, DeterministicPerIndexRngPattern) {
  // The engine's idiom: per-index counter-based streams + per-index slots
  // give bit-identical outputs for any thread count.
  const Rng base(99);
  auto run = [&base](std::size_t threads) {
    std::vector<double> out(256);
    parallel_for(out.size(), threads, [&](std::size_t i) {
      Rng rng = base.at(42, i);
      out[i] = rng.uniform(0, 1) + rng.exponential(1.0);
    });
    return out;
  };
  const auto serial = run(1);
  const auto parallel4 = run(4);
  const auto parallel13 = run(13);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i], parallel4[i]);
    EXPECT_DOUBLE_EQ(serial[i], parallel13[i]);
  }
}

}  // namespace
}  // namespace trimcaching::support
