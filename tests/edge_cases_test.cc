// Cross-module edge cases: minimal datasets, extreme parameters,
// boundary geometry — the configurations that unit tests built around
// "typical" sizes never touch.

#include <cmath>

#include <gtest/gtest.h>

#include "knmatch/baselines/igrid.h"
#include "knmatch/baselines/knn_scan.h"
#include "knmatch/common/random.h"
#include "knmatch/core/ad_algorithm.h"
#include "knmatch/core/ad_stream.h"
#include "knmatch/core/nmatch_naive.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/engine.h"
#include "knmatch/io/binary.h"
#include "knmatch/io/csv.h"
#include "knmatch/storage/bplus_tree.h"
#include "knmatch/storage/column_store.h"
#include "knmatch/storage/row_store.h"
#include "knmatch/vafile/va_file.h"
#include "knmatch/vafile/va_knmatch.h"

namespace knmatch {
namespace {

TEST(EdgeCases, SinglePointSingleDimension) {
  Dataset db(Matrix::FromRows({{0.5}}));
  AdSearcher searcher(db);
  std::vector<Value> q = {0.2};
  auto r = searcher.KnMatch(q, 1, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().matches[0].pid, 0u);
  EXPECT_NEAR(r.value().matches[0].distance, 0.3, 1e-12);

  auto f = searcher.FrequentKnMatch(q, 1, 1, 1);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value().frequencies[0], 1u);
}

TEST(EdgeCases, AllPointsIdentical) {
  Dataset db(Matrix::FromRows({{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}));
  AdSearcher searcher(db);
  std::vector<Value> q = {0.1, 0.9};
  auto ad = searcher.KnMatch(q, 2, 3);
  auto naive = KnMatchNaive(db, q, 2, 3);
  ASSERT_TRUE(ad.ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(ad.value().matches[i].distance,
                     naive.value().matches[i].distance);
    EXPECT_DOUBLE_EQ(ad.value().matches[i].distance, 0.4);
  }
}

TEST(EdgeCases, ConstantColumnEverywhere) {
  // A constant dimension: the VA-file's cell width is zero there.
  Matrix m(50, 3);
  Rng rng(200);
  for (size_t r = 0; r < 50; ++r) {
    m.at(r, 0) = 0.7;  // constant
    m.at(r, 1) = rng.Uniform01();
    m.at(r, 2) = rng.Uniform01();
  }
  Dataset db(std::move(m));
  DiskSimulator disk;
  RowStore rows(db, &disk);
  VaFile va(db, &disk, 8);
  VaKnMatchSearcher searcher(va, rows);
  std::vector<Value> q = {0.7, 0.5, 0.5};
  auto va_result = searcher.FrequentKnMatch(q, 1, 3, 5);
  auto naive = FrequentKnMatchNaive(db, q, 1, 3, 5);
  ASSERT_TRUE(va_result.ok());
  EXPECT_EQ(va_result.value().base.matches, naive.value().matches);
}

TEST(EdgeCases, KEqualsCardinalityEverywhere) {
  Dataset db = datagen::MakeUniform(37, 4, 201);
  AdSearcher searcher(db);
  std::vector<Value> q(4, 0.41);
  auto ad = searcher.FrequentKnMatch(q, 1, 4, 37);
  auto naive = FrequentKnMatchNaive(db, q, 1, 4, 37);
  ASSERT_TRUE(ad.ok());
  EXPECT_EQ(ad.value().matches, naive.value().matches);
  // Every point appears in every answer set.
  for (const uint32_t f : ad.value().frequencies) EXPECT_EQ(f, 4u);
  // Full frequent run at k = c touches every attribute.
  EXPECT_EQ(ad.value().attributes_retrieved, 37u * 4u);
}

TEST(EdgeCases, NEqualsDAndKOne) {
  Dataset db = datagen::MakeUniform(64, 9, 202);
  AdSearcher searcher(db);
  std::vector<Value> q(9, 0.5);
  auto ad = searcher.KnMatch(q, 9, 1);
  auto naive = KnMatchNaive(db, q, 9, 1);
  ASSERT_TRUE(ad.ok());
  EXPECT_EQ(ad.value().matches, naive.value().matches);
}

TEST(EdgeCases, RowStoreExactlyFullPages) {
  // (4096 - 8 frame bytes) / (8 * 8B) = 63 rows per page; 126 rows =
  // exactly 2 full pages.
  Dataset db = datagen::MakeUniform(126, 8, 203);
  DiskSimulator disk;
  RowStore rows(db, &disk);
  EXPECT_EQ(rows.rows_per_page(), 63u);
  EXPECT_EQ(rows.num_pages(), 2u);
  const DiskStream s_handle = rows.OpenStream();
  const size_t s = s_handle.id();
  std::vector<Value> buf;
  auto row = rows.ReadRow(s, 125, &buf);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.value()[0], db.at(125, 0));
}

TEST(EdgeCases, ColumnStoreSingleEntryPerPage) {
  DiskConfig config;
  config.page_size = 20;  // 8 frame bytes + exactly one 12-byte entry
  DiskSimulator disk(config);
  Dataset db = datagen::MakeUniform(20, 2, 204);
  ColumnStore store(db, &disk);
  EXPECT_EQ(store.entries_per_page(), 1u);
  EXPECT_EQ(store.num_pages(), 40u);
  SortedColumns reference(db);
  const DiskStream s_handle = store.OpenStream();
  const size_t s = s_handle.id();
  for (size_t idx = 0; idx < 20; ++idx) {
    auto entry = store.ReadEntry(s, 1, idx);
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(entry.value(), reference.entry(1, idx));
  }
  for (int trial = 0; trial < 20; ++trial) {
    const Value v = static_cast<Value>(trial) / 19.0;
    EXPECT_EQ(store.LowerBound(0, v), reference.LowerBound(0, v));
  }
}

TEST(EdgeCases, IGridMorePartitionsThanPoints) {
  Dataset db = datagen::MakeUniform(5, 16, 205);
  IGridIndex index(db, IGridOptions{.partitions = 100});
  EXPECT_LE(index.partitions(), 5u);
  std::vector<Value> q(16, 0.5);
  auto r = index.Search(q, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().matches.size(), 3u);
}

TEST(EdgeCases, IGridSimilarityIsNegatedAndBounded) {
  Dataset db = datagen::MakeUniform(100, 8, 206);
  IGridIndex index(db);
  auto r = index.Search(db.point(0), 1);
  ASSERT_TRUE(r.ok());
  // Self-similarity: every dimension co-located with contribution 1,
  // so the negated similarity is -d.
  EXPECT_NEAR(r.value().matches[0].distance, -8.0, 1e-9);
}

TEST(EdgeCases, MetricDistancesAgreeWithClosedForms) {
  const Value a[] = {0.0, 0.0, 0.0};
  const Value b[] = {3.0, 4.0, 0.0};
  EXPECT_DOUBLE_EQ(MetricDistance(a, b, Metric::kEuclidean), 5.0);
  EXPECT_DOUBLE_EQ(MetricDistance(a, b, Metric::kManhattan), 7.0);
  EXPECT_DOUBLE_EQ(MetricDistance(a, b, Metric::kChebyshev), 4.0);
  // Fractional (p = 0.5): (sqrt(3) + sqrt(4))^2.
  const double expected = std::pow(std::sqrt(3.0) + 2.0, 2.0);
  EXPECT_NEAR(MetricDistance(a, b, Metric::kFractional), expected, 1e-12);
}

TEST(EdgeCases, WeightedStreamMatchesWeightedBatch) {
  Dataset db = datagen::MakeUniform(150, 4, 207);
  SortedColumns columns(db);
  AdSearcher searcher(db);
  std::vector<Value> q(4, 0.3);
  std::vector<Value> w = {2.0, 0.5, 1.0, 4.0};
  AdMatchStream stream(columns, q, 2, w);
  auto batch = searcher.KnMatch(q, 2, 12, w);
  ASSERT_TRUE(batch.ok());
  for (const Neighbor& expected : batch.value().matches) {
    auto next = stream.Next();
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(*next, expected);
  }
}

TEST(EdgeCases, EngineWeightedQueries) {
  SimilarityEngine engine(datagen::MakeUniform(120, 5, 208));
  std::vector<Value> q(5, 0.5);
  std::vector<Value> w = {1, 1, 1, 1, 10};
  auto weighted = engine.KnMatch(q, 3, 4, w);
  auto plain = engine.KnMatch(q, 3, 4);
  ASSERT_TRUE(weighted.ok());
  ASSERT_TRUE(plain.ok());
  // Weighting must at least be accepted and produce valid output.
  EXPECT_EQ(weighted.value().matches.size(), 4u);
  EXPECT_FALSE(engine.FrequentKnMatch(q, 1, 5, 4,
                                      std::vector<Value>{1, -1, 1, 1, 1})
                   .ok());
}

TEST(EdgeCases, FrequentRangeFullDimsOnTinyD) {
  // d = 1: the frequent query degenerates to plain 1-match.
  Dataset db = datagen::MakeUniform(40, 1, 209);
  AdSearcher searcher(db);
  std::vector<Value> q = {0.77};
  auto f = searcher.FrequentKnMatch(q, 1, 1, 5);
  auto p = searcher.KnMatch(q, 1, 5);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value().per_n_sets[0], p.value().matches);
}

TEST(EdgeCases, NaiveAttributesAccountingIsExact) {
  Dataset db = datagen::MakeUniform(33, 7, 210);
  std::vector<Value> q(7, 0.1);
  auto r = KnMatchNaive(db, q, 3, 4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().attributes_retrieved, 33u * 7u);
}

TEST(EdgeCases, VaFileOneBitPerDimension) {
  Dataset db = datagen::MakeUniform(300, 6, 211);
  DiskSimulator disk;
  RowStore rows(db, &disk);
  VaFile va(db, &disk, 1);
  EXPECT_EQ(va.cells(), 2u);
  VaKnMatchSearcher searcher(va, rows);
  std::vector<Value> q(6, 0.4);
  auto va_result = searcher.FrequentKnMatch(q, 2, 5, 4);
  auto naive = FrequentKnMatchNaive(db, q, 2, 5, 4);
  ASSERT_TRUE(va_result.ok());
  EXPECT_EQ(va_result.value().base.matches, naive.value().matches);
  // With 1-bit cells pruning is almost useless but still correct.
  EXPECT_LE(va_result.value().points_refined, db.size());
}

TEST(EdgeCases, VaFileSixteenBits) {
  Dataset db = datagen::MakeUniform(200, 3, 212);
  DiskSimulator disk;
  RowStore rows(db, &disk);
  VaFile va(db, &disk, 16);
  EXPECT_EQ(va.cells(), 65536u);
  VaKnMatchSearcher searcher(va, rows);
  std::vector<Value> q(3, 0.6);
  auto va_result = searcher.FrequentKnMatch(q, 1, 3, 5);
  auto naive = FrequentKnMatchNaive(db, q, 1, 3, 5);
  ASSERT_TRUE(va_result.ok());
  EXPECT_EQ(va_result.value().base.matches, naive.value().matches);
}

TEST(EdgeCases, DatasetLabelArityMismatchFailsValidation) {
  Matrix m = Matrix::FromRows({{1}, {2}});
  Dataset db(std::move(m), {0, 1});
  EXPECT_TRUE(db.Validate().ok());
}

TEST(EdgeCases, PerNSetsAreCappedAtK) {
  // Definition 4: each per-n answer set holds the first k completions
  // only, even though more points eventually reach n appearances.
  Dataset db = datagen::MakeUniform(50, 4, 214);
  AdSearcher searcher(db);
  std::vector<Value> q(4, 0.5);
  auto r = searcher.FrequentKnMatch(q, 1, 4, 3);
  ASSERT_TRUE(r.ok());
  for (const auto& set : r.value().per_n_sets) {
    EXPECT_EQ(set.size(), 3u);
    for (size_t i = 0; i + 1 < set.size(); ++i) {
      EXPECT_LE(set[i].distance, set[i + 1].distance);
    }
  }
}

TEST(EdgeCases, BPlusTreeAscendingInsertWorstCase) {
  // Monotonically increasing keys: every insert lands in the rightmost
  // leaf — the classic split-heavy pattern.
  DiskSimulator disk;
  BPlusTree tree(&disk);
  for (PointId pid = 0; pid < 3000; ++pid) {
    tree.Insert(ColumnEntry{static_cast<Value>(pid), pid});
  }
  EXPECT_EQ(tree.size(), 3000u);
  ASSERT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
  const DiskStream s_handle = tree.OpenStream();
  const size_t s = s_handle.id();
  auto it = tree.SeekLowerBound(s, -1.0);
  for (PointId pid = 0; pid < 3000; ++pid) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.Get().pid, pid);
    it.Next();
  }
}

TEST(EdgeCases, CsvWriteToUnwritablePathFails) {
  Dataset db = datagen::MakeUniform(5, 2, 215);
  EXPECT_FALSE(io::WriteCsv(db, "/nonexistent-dir/x.csv").ok());
  EXPECT_FALSE(io::SaveDataset(db, "/nonexistent-dir/x.knm").ok());
}

TEST(EdgeCases, DatasetAppendGrowsAndLabels) {
  Dataset db(Matrix::FromRows({{0.1, 0.2}}), {7});
  const std::vector<Value> coords = {0.3, 0.4};
  const PointId pid = db.Append(coords, 9);
  EXPECT_EQ(pid, 1u);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.label(1), 9);
  EXPECT_TRUE(db.Validate().ok());

  Dataset unlabelled(Matrix::FromRows({{0.5}}));
  unlabelled.Append(std::vector<Value>{0.6});
  EXPECT_FALSE(unlabelled.labelled());
  EXPECT_EQ(unlabelled.size(), 2u);
}

TEST(EdgeCases, JoinOnEngineAfterInsertSeesNewPoint) {
  SimilarityEngine engine(Dataset(Matrix::FromRows({
      {0.10, 0.10},
      {0.90, 0.90},
  })));
  auto before = engine.SelfJoin(2, 0.05);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before.value().empty());
  engine.InsertPoint(std::vector<Value>{0.11, 0.11});
  auto after = engine.SelfJoin(2, 0.05);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), (std::vector<JoinPair>{{0, 2}}));
}

TEST(EdgeCases, QueryFarOutsideEveryColumn) {
  Dataset db = datagen::MakeUniform(100, 3, 213);
  AdSearcher searcher(db);
  std::vector<Value> q = {50.0, -50.0, 100.0};
  auto ad = searcher.FrequentKnMatch(q, 1, 3, 10);
  auto naive = FrequentKnMatchNaive(db, q, 1, 3, 10);
  ASSERT_TRUE(ad.ok());
  EXPECT_EQ(ad.value().matches, naive.value().matches);
}

}  // namespace
}  // namespace knmatch
