#include "knmatch/baselines/sstree.h"

#include <cmath>

#include <gtest/gtest.h>

#include "knmatch/baselines/knn_scan.h"
#include "knmatch/common/random.h"
#include "knmatch/datagen/generators.h"

namespace knmatch {
namespace {

TEST(SsTreeTest, EmptyTree) {
  SsTree tree(4);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  std::vector<Value> q(4, 0.5);
  EXPECT_FALSE(tree.Knn(q, 1).ok());
}

TEST(SsTreeTest, SinglePoint) {
  SsTree tree(2);
  const Value p[] = {0.3, 0.7};
  tree.Insert(0, p);
  auto r = tree.Knn(std::vector<Value>{0.0, 0.0}, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().matches[0].pid, 0u);
  EXPECT_NEAR(r.value().matches[0].distance, std::hypot(0.3, 0.7), 1e-12);
}

TEST(SsTreeTest, GrowsAndKeepsInvariants) {
  Dataset db = datagen::MakeUniform(3000, 5, 140);
  DiskSimulator disk;
  SsTree tree = SsTree::Build(db, &disk);
  EXPECT_EQ(tree.size(), 3000u);
  EXPECT_GE(tree.height(), 2u);
  ASSERT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
}

TEST(SsTreeTest, KnnMatchesScanExactly) {
  Dataset db = datagen::MakeUniform(2000, 4, 141);
  SsTree tree = SsTree::Build(db);
  Rng rng(142);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Value> q(4);
    for (Value& v : q) v = rng.Uniform01();
    auto tree_result = tree.Knn(q, 8);
    auto scan_result = KnnScan(db, q, 8, Metric::kEuclidean);
    ASSERT_TRUE(tree_result.ok());
    EXPECT_EQ(tree_result.value().matches, scan_result.value().matches);
  }
}

TEST(SsTreeTest, KnnOnSkewedData) {
  Dataset db = datagen::MakeSkewed(2500, 6, 143);
  SsTree tree = SsTree::Build(db);
  Rng rng(144);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Value> q(6);
    for (Value& v : q) v = rng.Uniform01();
    auto tree_result = tree.Knn(q, 12);
    auto scan_result = KnnScan(db, q, 12, Metric::kEuclidean);
    ASSERT_TRUE(tree_result.ok());
    EXPECT_EQ(tree_result.value().matches, scan_result.value().matches);
  }
}

TEST(SsTreeTest, PrunesInLowDimensionsCursesInHigh) {
  double low = 0, high = 0;
  for (const size_t d : {size_t{2}, size_t{24}}) {
    Dataset db = datagen::MakeUniform(4000, d, 145);
    SsTree tree = SsTree::Build(db);
    std::vector<Value> q(d, 0.5);
    auto r = tree.Knn(q, 10);
    ASSERT_TRUE(r.ok());
    const double fraction =
        static_cast<double>(r.value().attributes_retrieved /
                            (tree.node_capacity() * d)) /
        static_cast<double>(tree.num_nodes());
    (d == 2 ? low : high) = fraction;
  }
  EXPECT_LT(low, 0.35);
  EXPECT_GT(high, 2 * low);
}

TEST(SsTreeTest, ChargesNodeVisits) {
  Dataset db = datagen::MakeUniform(2000, 3, 146);
  DiskSimulator disk;
  SsTree tree = SsTree::Build(db, &disk);
  disk.ResetCounters();
  auto r = tree.Knn(std::vector<Value>(3, 0.4), 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(disk.total_reads(),
            r.value().attributes_retrieved / (tree.node_capacity() * 3));
}

TEST(SsTreeTest, DuplicatePointsAllRetrievable) {
  SsTree tree(2);
  const Value p[] = {0.4, 0.4};
  for (PointId pid = 0; pid < 40; ++pid) tree.Insert(pid, p);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  auto r = tree.Knn(std::vector<Value>{0.4, 0.4}, 40);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().matches.size(), 40u);
}

}  // namespace
}  // namespace knmatch
