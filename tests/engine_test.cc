#include "knmatch/engine.h"

#include <vector>

#include <gtest/gtest.h>

#include "knmatch/core/nmatch_naive.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/datagen/texture_like.h"
#include "knmatch/storage/disk_simulator.h"

namespace knmatch {
namespace {

TEST(SimilarityEngineTest, OwnsDatasetAndAnswersMemoryQueries) {
  SimilarityEngine engine(datagen::MakeUniform(500, 6, 110));
  EXPECT_EQ(engine.dataset().size(), 500u);
  std::vector<Value> q(6, 0.5);

  auto knm = engine.KnMatch(q, 3, 5);
  ASSERT_TRUE(knm.ok());
  EXPECT_EQ(knm.value().matches.size(), 5u);
  EXPECT_EQ(knm.value().matches,
            KnMatchNaive(engine.dataset(), q, 3, 5).value().matches);

  auto fknm = engine.FrequentKnMatch(q, 2, 5, 5);
  ASSERT_TRUE(fknm.ok());
  EXPECT_EQ(fknm.value().matches.size(), 5u);

  auto knn = engine.Knn(q, 5);
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ(knn.value().matches.size(), 5u);

  auto igrid = engine.IGridSearch(q, 5);
  ASSERT_TRUE(igrid.ok());
  EXPECT_EQ(igrid.value().matches.size(), 5u);
}

TEST(SimilarityEngineTest, PropagatesValidationErrors) {
  SimilarityEngine engine(datagen::MakeUniform(100, 4, 111));
  std::vector<Value> q(4, 0.5);
  EXPECT_FALSE(engine.KnMatch(q, 0, 1).ok());
  EXPECT_FALSE(engine.KnMatch(q, 5, 1).ok());
  EXPECT_FALSE(engine.FrequentKnMatch(q, 3, 2, 1).ok());
  std::vector<Value> bad(3, 0.5);
  EXPECT_FALSE(engine.Knn(bad, 1).ok());
}

TEST(SimilarityEngineTest, DiskMethodsAgreeWithEachOther) {
  SimilarityEngine engine(datagen::MakeTextureLike(112, 5000));
  std::vector<Value> q(engine.dataset().point(99).begin(),
                       engine.dataset().point(99).end());
  auto scan = engine.DiskFrequentKnMatch(q, 4, 8, 10,
                                         SimilarityEngine::DiskMethod::kScan);
  auto ad = engine.DiskFrequentKnMatch(q, 4, 8, 10,
                                       SimilarityEngine::DiskMethod::kAd);
  auto va = engine.DiskFrequentKnMatch(
      q, 4, 8, 10, SimilarityEngine::DiskMethod::kVaFile);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(ad.ok());
  ASSERT_TRUE(va.ok());
  EXPECT_EQ(scan.value().matches, ad.value().matches);
  EXPECT_EQ(scan.value().matches, va.value().matches);
}

TEST(SimilarityEngineTest, DiskCostIsReportedPerCall) {
  SimilarityEngine engine(datagen::MakeTextureLike(113, 5000));
  std::vector<Value> q(engine.dataset().point(5).begin(),
                       engine.dataset().point(5).end());
  SimilarityEngine::DiskReport scan_report;
  auto scan = engine.DiskFrequentKnMatch(
      q, 4, 8, 10, SimilarityEngine::DiskMethod::kScan, nullptr, &scan_report);
  ASSERT_TRUE(scan.ok());
  EXPECT_GT(scan_report.cost.total_pages(), 0u);

  SimilarityEngine::DiskReport ad_report;
  auto ad = engine.DiskFrequentKnMatch(
      q, 4, 8, 10, SimilarityEngine::DiskMethod::kAd, nullptr, &ad_report);
  ASSERT_TRUE(ad.ok());
  EXPECT_LT(ad_report.cost.total_pages(), scan_report.cost.total_pages());
}

TEST(SimilarityEngineTest, DiskQueriesReleaseTheirStreams) {
  // Every disk method opens its streams per query and releases them on
  // return, so stream ids stay below a bound however many queries ran.
  constexpr size_t kDims = 6;
  SimilarityEngine engine(datagen::MakeUniform(600, kDims, 114));
  const SimilarityEngine::DiskMethod methods[] = {
      SimilarityEngine::DiskMethod::kAuto, SimilarityEngine::DiskMethod::kAd,
      SimilarityEngine::DiskMethod::kVaFile,
      SimilarityEngine::DiskMethod::kScan};
  for (size_t i = 0; i < 1000; ++i) {
    const auto point = engine.dataset().point(static_cast<PointId>(i % 600));
    const std::vector<Value> q(point.begin(), point.end());
    ASSERT_TRUE(engine.DiskFrequentKnMatch(q, 2, 4, 5, methods[i % 4]).ok());
  }
  const DiskStream probe(engine.disk_simulator());
  EXPECT_LT(probe.id(), 4 * kDims + 8);
}

TEST(SimilarityEngineTest, AutoRoutingPicksTheMeasuredWinner) {
  // Large enough that the AD algorithm's 2d initial seeks are amortized
  // (at ~10k points a scan is genuinely cheaper and the advisor rightly
  // picks it; see the advisor tests).
  SimilarityEngine engine(datagen::MakeTextureLike(114, 40000));
  std::vector<Value> q(engine.dataset().point(77).begin(),
                       engine.dataset().point(77).end());
  SimilarityEngine::DiskReport report;
  auto result = engine.DiskFrequentKnMatch(
      q, 4, 8, 10, SimilarityEngine::DiskMethod::kAuto, nullptr, &report);
  ASSERT_TRUE(result.ok());
  // On skewed 16-d data with a selective range the advisor should pick
  // the AD algorithm, matching the paper's Figures 11/15.
  EXPECT_EQ(report.method, SimilarityEngine::DiskMethod::kAd);
  // The routed answer equals the scan's answer.
  auto scan = engine.DiskFrequentKnMatch(q, 4, 8, 10,
                                         SimilarityEngine::DiskMethod::kScan);
  EXPECT_EQ(result.value().matches, scan.value().matches);
}

TEST(SimilarityEngineTest, SelfJoinAndEstimateWork) {
  SimilarityEngine engine(datagen::MakeUniform(200, 4, 116));
  auto join = engine.SelfJoin(4, 0.05);
  ASSERT_TRUE(join.ok());
  for (const JoinPair& pair : join.value()) {
    EXPECT_LT(pair.a, pair.b);
  }
  std::vector<Value> q(4, 0.5);
  auto estimate = engine.EstimateSelectivity(q, 2, 10);
  ASSERT_TRUE(estimate.ok());
  EXPECT_GT(estimate.value().estimated_difference, 0.0);
  EXPECT_GT(estimate.value().ad_attribute_fraction, 0.0);
  EXPECT_LE(estimate.value().ad_attribute_fraction, 1.0);
  EXPECT_FALSE(engine.EstimateSelectivity(q, 0, 10).ok());
}

TEST(SimilarityEngineTest, InsertPointInvalidatesIndexes) {
  SimilarityEngine engine(datagen::MakeUniform(100, 3, 117));
  std::vector<Value> q = {0.111, 0.222, 0.333};
  // Query once so indexes exist.
  auto before = engine.KnMatch(q, 3, 1);
  ASSERT_TRUE(before.ok());
  EXPECT_GT(before.value().matches[0].distance, 0.0);

  // Insert an exact duplicate of the query; it must become the top
  // answer on the next query.
  const PointId pid = engine.InsertPoint(q);
  EXPECT_EQ(pid, 100u);
  EXPECT_EQ(engine.dataset().size(), 101u);
  auto after = engine.KnMatch(q, 3, 1);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().matches[0].pid, pid);
  EXPECT_EQ(after.value().matches[0].distance, 0.0);

  // Disk structures also see the new point.
  auto disk = engine.DiskFrequentKnMatch(q, 1, 3, 1,
                                         SimilarityEngine::DiskMethod::kScan);
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ(disk.value().matches[0].pid, pid);
}

TEST(SimilarityEngineTest, StorageStatsReportFootprints) {
  SimilarityEngine engine(datagen::MakeUniform(2000, 8, 115));
  const auto stats = engine.DiskStorageStats();
  EXPECT_GT(stats.row_pages, 0u);
  EXPECT_GT(stats.column_pages, stats.row_pages);  // 12B/attr vs 8B/attr
  EXPECT_LT(stats.va_pages, stats.row_pages);
}

}  // namespace
}  // namespace knmatch
