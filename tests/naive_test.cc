#include "knmatch/core/nmatch_naive.h"

#include <gtest/gtest.h>

#include "knmatch/common/random.h"
#include "knmatch/core/ad_algorithm.h"
#include "knmatch/core/nmatch.h"
#include "knmatch/datagen/generators.h"
#include "paper_data.h"

namespace knmatch {
namespace {

using testing::Figure3Database;
using testing::Figure3Query;

TEST(KnMatchNaiveTest, ValidatesParameters) {
  Dataset db = Figure3Database();
  auto q = Figure3Query();
  EXPECT_FALSE(KnMatchNaive(db, q, 0, 1).ok());
  EXPECT_FALSE(KnMatchNaive(db, q, 4, 1).ok());
  EXPECT_FALSE(KnMatchNaive(db, q, 1, 0).ok());
  EXPECT_FALSE(KnMatchNaive(db, q, 1, 6).ok());
  std::vector<Value> wrong_dims = {1.0, 2.0};
  EXPECT_FALSE(KnMatchNaive(db, wrong_dims, 1, 1).ok());
}

TEST(KnMatchNaiveTest, ResultsAscendAndCarryExactDifferences) {
  Dataset db = Figure3Database();
  auto q = Figure3Query();
  auto r = KnMatchNaive(db, q, 2, 5);
  ASSERT_TRUE(r.ok());
  const auto& matches = r.value().matches;
  ASSERT_EQ(matches.size(), 5u);
  for (size_t i = 0; i + 1 < matches.size(); ++i) {
    EXPECT_LE(matches[i].distance, matches[i + 1].distance);
  }
  for (const Neighbor& nb : matches) {
    EXPECT_DOUBLE_EQ(nb.distance, NMatchDifference(db.point(nb.pid), q, 2));
  }
}

TEST(KnMatchNaiveTest, KEqualsCardinalityReturnsAll) {
  Dataset db = Figure3Database();
  auto q = Figure3Query();
  auto r = KnMatchNaive(db, q, 1, db.size());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().matches.size(), db.size());
}

TEST(KnMatchNaiveTest, CostIsFullScan) {
  Dataset db = Figure3Database();
  auto q = Figure3Query();
  auto r = KnMatchNaive(db, q, 1, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().attributes_retrieved, db.size() * db.dims());
}

TEST(KnMatchNaiveTest, NEqualsDimsIsChebyshevRanking) {
  // For n = d the n-match difference is the maximum per-dimension
  // difference, i.e., the Chebyshev distance.
  Dataset db = datagen::MakeUniform(200, 6, 21);
  std::vector<Value> q(6, 0.5);
  auto r = KnMatchNaive(db, q, 6, 5);
  ASSERT_TRUE(r.ok());
  for (const Neighbor& nb : r.value().matches) {
    Value cheb = 0;
    for (size_t i = 0; i < 6; ++i) {
      cheb = std::max(cheb, std::abs(db.at(nb.pid, i) - q[i]));
    }
    EXPECT_DOUBLE_EQ(nb.distance, cheb);
  }
}

TEST(FrequentKnMatchNaiveTest, PerNSetsHaveKEntriesEach) {
  Dataset db = Figure3Database();
  auto q = Figure3Query();
  auto r = FrequentKnMatchNaive(db, q, 1, 3, 2);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().per_n_sets.size(), 3u);
  for (const auto& set : r.value().per_n_sets) {
    EXPECT_EQ(set.size(), 2u);
  }
}

TEST(FrequentKnMatchNaiveTest, FrequenciesAreDescendingAndBounded) {
  Dataset db = datagen::MakeUniform(100, 8, 5);
  std::vector<Value> q(8, 0.3);
  auto r = FrequentKnMatchNaive(db, q, 1, 8, 10);
  ASSERT_TRUE(r.ok());
  const auto& freqs = r.value().frequencies;
  ASSERT_EQ(freqs.size(), 10u);
  for (size_t i = 0; i + 1 < freqs.size(); ++i) {
    EXPECT_GE(freqs[i], freqs[i + 1]);
  }
  for (const uint32_t f : freqs) {
    EXPECT_GE(f, 1u);
    EXPECT_LE(f, 8u);
  }
}

TEST(FrequentKnMatchNaiveTest, SingleNRangeMatchesPlainKnMatch) {
  Dataset db = datagen::MakeUniform(150, 5, 6);
  std::vector<Value> q(5, 0.7);
  auto frequent = FrequentKnMatchNaive(db, q, 3, 3, 7);
  auto plain = KnMatchNaive(db, q, 3, 7);
  ASSERT_TRUE(frequent.ok());
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(frequent.value().per_n_sets.size(), 1u);
  EXPECT_EQ(frequent.value().per_n_sets[0], plain.value().matches);
}

TEST(FrequentKnMatchNaiveTest, QueryPointInDatabaseDominates) {
  // A point identical to the query appears in every answer set.
  Dataset db = datagen::MakeUniform(100, 6, 8);
  std::vector<Value> q(db.point(42).begin(), db.point(42).end());
  auto r = FrequentKnMatchNaive(db, q, 1, 6, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().matches[0].pid, 42u);
  EXPECT_EQ(r.value().frequencies[0], 6u);
}

TEST(RankByFrequencyTest, TieBrokenByBestDifferenceThenPid) {
  FrequentKnMatchResult result;
  // pid 5 appears twice (best diff 0.2), pid 9 twice (best diff 0.1),
  // pid 1 once.
  result.per_n_sets = {
      {{5, 0.2}, {9, 0.3}},
      {{9, 0.1}, {5, 0.4}},
      {{1, 0.05}},
  };
  RankByFrequency(3, &result);
  ASSERT_EQ(result.matches.size(), 3u);
  EXPECT_EQ(result.matches[0].pid, 9u);  // freq 2, best 0.1
  EXPECT_EQ(result.matches[1].pid, 5u);  // freq 2, best 0.2
  EXPECT_EQ(result.matches[2].pid, 1u);  // freq 1
  EXPECT_EQ(result.frequencies, (std::vector<uint32_t>{2, 2, 1}));
}

TEST(RankByFrequencyTest, TruncatesToK) {
  FrequentKnMatchResult result;
  result.per_n_sets = {{{1, 0.1}, {2, 0.2}, {3, 0.3}, {4, 0.4}}};
  RankByFrequency(2, &result);
  EXPECT_EQ(result.matches.size(), 2u);
  EXPECT_EQ(result.matches[0].pid, 1u);
  EXPECT_EQ(result.matches[1].pid, 2u);
}

// ---------------------------------------------------------------------------
// Weighted queries: the AD searcher against the weighted scan oracle.

TEST(WeightedAdTest, MatchesWeightedScan) {
  Dataset db = datagen::MakeUniform(300, 5, 85);
  AdSearcher searcher(db);
  Rng rng(86);
  std::vector<Value> q(5), w(5);
  for (Value& v : q) v = rng.Uniform01();
  for (Value& v : w) v = rng.Uniform(0.1, 5.0);

  for (size_t n = 1; n <= 5; ++n) {
    auto ad = searcher.KnMatch(q, n, 8, w);
    auto scan = KnMatchNaive(db, q, n, 8, w);
    ASSERT_TRUE(ad.ok());
    ASSERT_TRUE(scan.ok());
    ASSERT_EQ(ad.value().matches.size(), scan.value().matches.size());
    for (size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(ad.value().matches[i].pid, scan.value().matches[i].pid)
          << "n=" << n << " i=" << i;
      EXPECT_NEAR(ad.value().matches[i].distance,
                  scan.value().matches[i].distance, 1e-12);
    }
  }
}

TEST(WeightedAdTest, FrequentWeightedMatchesScan) {
  Dataset db = datagen::MakeUniform(250, 6, 87);
  AdSearcher searcher(db);
  std::vector<Value> q(6, 0.44);
  std::vector<Value> w = {1, 2, 0.5, 3, 1.5, 0.25};
  auto ad = searcher.FrequentKnMatch(q, 2, 5, 7, w);
  auto scan = FrequentKnMatchNaive(db, q, 2, 5, 7, w);
  ASSERT_TRUE(ad.ok());
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(ad.value().matches, scan.value().matches);
  EXPECT_EQ(ad.value().frequencies, scan.value().frequencies);
}

TEST(WeightedAdTest, UnitWeightsEqualUnweighted) {
  Dataset db = datagen::MakeUniform(200, 4, 88);
  AdSearcher searcher(db);
  std::vector<Value> q(4, 0.3);
  std::vector<Value> ones(4, 1.0);
  auto weighted = searcher.KnMatch(q, 2, 6, ones);
  auto plain = searcher.KnMatch(q, 2, 6);
  ASSERT_TRUE(weighted.ok());
  EXPECT_EQ(weighted.value().matches, plain.value().matches);
  EXPECT_EQ(weighted.value().attributes_retrieved,
            plain.value().attributes_retrieved);
}

TEST(WeightedAdTest, RejectsBadWeights) {
  Dataset db = datagen::MakeUniform(50, 3, 89);
  AdSearcher searcher(db);
  std::vector<Value> q(3, 0.5);
  EXPECT_FALSE(searcher.KnMatch(q, 1, 1, std::vector<Value>{1, 2}).ok());
  EXPECT_FALSE(
      searcher.KnMatch(q, 1, 1, std::vector<Value>{1, 0, 2}).ok());
  EXPECT_FALSE(
      searcher.KnMatch(q, 1, 1, std::vector<Value>{1, -1, 2}).ok());
  // The scan oracle validates weights the same way.
  EXPECT_FALSE(KnMatchNaive(db, q, 1, 1, std::vector<Value>{1, 0, 2}).ok());
  EXPECT_FALSE(
      FrequentKnMatchNaive(db, q, 1, 2, 1, std::vector<Value>{1, 2}).ok());
}

TEST(WeightedAdTest, WeightChangesWinner) {
  // Point A matches the query in dim 0 only; B in dim 1 only.
  // Up-weighting dim 0's differences pushes A's mismatch cost up.
  Dataset db(Matrix::FromRows({
      {0.50, 0.90},  // A: perfect in dim 0
      {0.90, 0.50},  // B: perfect in dim 1
  }));
  AdSearcher searcher(db);
  std::vector<Value> q = {0.5, 0.5};
  // 2-match difference (max of weighted diffs): A = w0*0 vs w1*0.4.
  auto heavy_dim0 = searcher.KnMatch(q, 2, 1, std::vector<Value>{10, 1});
  ASSERT_TRUE(heavy_dim0.ok());
  EXPECT_EQ(heavy_dim0.value().matches[0].pid, 0u);  // A: 0.4 < 4.0
  auto heavy_dim1 = searcher.KnMatch(q, 2, 1, std::vector<Value>{1, 10});
  ASSERT_TRUE(heavy_dim1.ok());
  EXPECT_EQ(heavy_dim1.value().matches[0].pid, 1u);
}

}  // namespace
}  // namespace knmatch
