#include "knmatch/baselines/rtree.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "knmatch/baselines/knn_scan.h"
#include "knmatch/common/random.h"
#include "knmatch/datagen/generators.h"

namespace knmatch {
namespace {

TEST(RTreeTest, EmptyTree) {
  RTree tree(4);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 0u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  std::vector<Value> q(4, 0.5);
  EXPECT_FALSE(tree.Knn(q, 1).ok());
}

TEST(RTreeTest, SinglePoint) {
  RTree tree(3);
  const Value p[] = {0.1, 0.2, 0.3};
  tree.Insert(0, p);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1u);
  std::vector<Value> q(3, 0.0);
  auto r = tree.Knn(q, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().matches[0].pid, 0u);
}

TEST(RTreeTest, GrowsAndKeepsInvariants) {
  Dataset db = datagen::MakeUniform(3000, 4, 61);
  DiskSimulator disk;
  RTree tree = RTree::Build(db, &disk);
  EXPECT_EQ(tree.size(), 3000u);
  EXPECT_GE(tree.height(), 2u);
  ASSERT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
}

TEST(RTreeTest, KnnMatchesScanExactly) {
  Dataset db = datagen::MakeUniform(2000, 5, 62);
  RTree tree = RTree::Build(db);
  Rng rng(63);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Value> q(5);
    for (Value& v : q) v = rng.Uniform01();
    auto tree_result = tree.Knn(q, 10);
    auto scan_result = KnnScan(db, q, 10, Metric::kEuclidean);
    ASSERT_TRUE(tree_result.ok());
    EXPECT_EQ(tree_result.value().matches, scan_result.value().matches);
  }
}

TEST(RTreeTest, KnnOnClusteredData) {
  Dataset db = datagen::MakeSkewed(3000, 4, 64);
  RTree tree = RTree::Build(db);
  Rng rng(65);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Value> q(4);
    for (Value& v : q) v = rng.Uniform01();
    auto tree_result = tree.Knn(q, 7);
    auto scan_result = KnnScan(db, q, 7, Metric::kEuclidean);
    ASSERT_TRUE(tree_result.ok());
    EXPECT_EQ(tree_result.value().matches, scan_result.value().matches);
  }
}

TEST(RTreeTest, KnnVisitsFewNodesInLowDimensions) {
  Dataset db = datagen::MakeUniform(5000, 2, 66);
  RTree tree = RTree::Build(db);
  std::vector<Value> q = {0.4, 0.6};
  auto r = tree.Knn(q, 10);
  ASSERT_TRUE(r.ok());
  // In 2-d the best-first search should prune the vast majority.
  const uint64_t visited =
      r.value().attributes_retrieved / (tree.node_capacity() * 2);
  EXPECT_LT(visited, tree.num_nodes() / 4);
}

TEST(RTreeTest, DimensionalityCurseDegradesPruning) {
  // The related-work claim: the visited fraction grows sharply with d.
  double low_d_fraction = 0, high_d_fraction = 0;
  for (const size_t d : {size_t{2}, size_t{24}}) {
    Dataset db = datagen::MakeUniform(4000, d, 67);
    RTree tree = RTree::Build(db);
    std::vector<Value> q(d, 0.5);
    auto r = tree.Knn(q, 10);
    ASSERT_TRUE(r.ok());
    const double fraction =
        static_cast<double>(r.value().attributes_retrieved /
                            (tree.node_capacity() * d)) /
        static_cast<double>(tree.num_nodes());
    (d == 2 ? low_d_fraction : high_d_fraction) = fraction;
  }
  EXPECT_GT(high_d_fraction, 3 * low_d_fraction);
}

TEST(RTreeTest, RangeQueryMatchesBruteForce) {
  Dataset db = datagen::MakeUniform(1500, 3, 68);
  RTree tree = RTree::Build(db);
  const std::vector<Value> lo = {0.2, 0.3, 0.1};
  const std::vector<Value> hi = {0.6, 0.7, 0.5};
  auto result = tree.RangeQuery(lo, hi);

  std::vector<PointId> expected;
  for (PointId pid = 0; pid < db.size(); ++pid) {
    bool inside = true;
    for (size_t i = 0; i < 3; ++i) {
      if (db.at(pid, i) < lo[i] || db.at(pid, i) > hi[i]) inside = false;
    }
    if (inside) expected.push_back(pid);
  }
  EXPECT_EQ(result, expected);
}

TEST(RTreeTest, RangeQueryEmptyBox) {
  Dataset db = datagen::MakeUniform(500, 2, 69);
  RTree tree = RTree::Build(db);
  const std::vector<Value> lo = {2.0, 2.0};
  const std::vector<Value> hi = {3.0, 3.0};
  EXPECT_TRUE(tree.RangeQuery(lo, hi).empty());
}

TEST(RTreeTest, ChargesNodeVisits) {
  Dataset db = datagen::MakeUniform(3000, 2, 70);
  DiskSimulator disk;
  RTree tree = RTree::Build(db, &disk);
  disk.ResetCounters();
  std::vector<Value> q = {0.5, 0.5};
  auto r = tree.Knn(q, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(disk.total_reads(),
            r.value().attributes_retrieved / (tree.node_capacity() * 2));
}

TEST(RTreeTest, DuplicatePointsAllRetrievable) {
  RTree tree(2);
  const Value p[] = {0.5, 0.5};
  for (PointId pid = 0; pid < 50; ++pid) tree.Insert(pid, p);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  auto r = tree.Knn(std::vector<Value>{0.5, 0.5}, 50);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().matches.size(), 50u);
  for (const Neighbor& nb : r.value().matches) {
    EXPECT_EQ(nb.distance, 0.0);
  }
}

}  // namespace
}  // namespace knmatch
