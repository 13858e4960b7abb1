#include <set>

#include <gtest/gtest.h>

#include "knmatch/baselines/idistance.h"
#include "knmatch/baselines/knn_scan.h"
#include "knmatch/common/kmeans.h"
#include "knmatch/common/random.h"
#include "knmatch/datagen/generators.h"

namespace knmatch {
namespace {

TEST(KMeansTest, ShapesAndDeterminism) {
  Dataset db = datagen::MakeUniform(500, 4, 120);
  KMeansResult a = KMeans(db, 8, 7);
  KMeansResult b = KMeans(db, 8, 7);
  EXPECT_EQ(a.centers.rows(), 8u);
  EXPECT_EQ(a.centers.cols(), 4u);
  EXPECT_EQ(a.assignment.size(), 500u);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.inertia, b.inertia);
  for (const uint32_t cluster : a.assignment) EXPECT_LT(cluster, 8u);
}

TEST(KMeansTest, KClampedToCardinality) {
  Dataset db = datagen::MakeUniform(5, 3, 121);
  KMeansResult r = KMeans(db, 50, 1);
  EXPECT_EQ(r.centers.rows(), 5u);
}

TEST(KMeansTest, RecoversWellSeparatedClusters) {
  datagen::ClusteredSpec spec;
  spec.cardinality = 300;
  spec.dims = 6;
  spec.num_classes = 3;
  spec.cluster_sigma = 0.02;
  spec.noise_dim_fraction = 0;
  spec.outlier_prob = 0;
  spec.seed = 122;
  Dataset db = datagen::MakeClustered(spec);
  KMeansResult r = KMeans(db, 3, 9);
  // Every k-means cluster should be (near-)pure in true labels.
  for (uint32_t cluster = 0; cluster < 3; ++cluster) {
    std::set<Label> labels;
    for (PointId pid = 0; pid < db.size(); ++pid) {
      if (r.assignment[pid] == cluster) labels.insert(db.label(pid));
    }
    EXPECT_EQ(labels.size(), 1u) << "cluster " << cluster;
  }
}

TEST(KMeansTest, AssignmentIsNearestCenter) {
  Dataset db = datagen::MakeUniform(200, 3, 123);
  KMeansResult r = KMeans(db, 5, 11);
  for (PointId pid = 0; pid < db.size(); ++pid) {
    double assigned = MetricDistance(
        db.point(pid), r.centers.row(r.assignment[pid]),
        Metric::kEuclidean);
    for (size_t center = 0; center < 5; ++center) {
      EXPECT_LE(assigned, MetricDistance(db.point(pid),
                                         r.centers.row(center),
                                         Metric::kEuclidean) +
                              1e-12);
    }
  }
}

class IDistanceSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(IDistanceSweep, KnnMatchesScanExactly) {
  const size_t d = GetParam();
  Dataset db = datagen::MakeSkewed(2000, d, 124);
  DiskSimulator disk;
  IDistanceIndex index(db, &disk);
  Rng rng(125);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Value> q(d);
    for (Value& v : q) v = rng.Uniform01();
    auto idist = index.Knn(q, 10);
    auto scan = KnnScan(db, q, 10, Metric::kEuclidean);
    ASSERT_TRUE(idist.ok());
    EXPECT_EQ(idist.value().matches, scan.value().matches)
        << "d=" << d << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, IDistanceSweep,
                         ::testing::Values(2, 4, 8, 16),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "d" + std::to_string(info.param);
                         });

TEST(IDistanceTest, ExaminesFractionOnClusteredData) {
  Dataset db = datagen::MakeSkewed(8000, 8, 126);
  DiskSimulator disk;
  IDistanceIndex index(db, &disk);
  std::vector<Value> q(db.point(17).begin(), db.point(17).end());
  auto r = index.Knn(q, 10);
  ASSERT_TRUE(r.ok());
  const uint64_t examined = r.value().attributes_retrieved / db.dims();
  EXPECT_LT(examined, db.size() / 2);
}

TEST(IDistanceTest, KEqualsCardinality) {
  Dataset db = datagen::MakeUniform(60, 3, 127);
  DiskSimulator disk;
  IDistanceIndex index(db, &disk);
  std::vector<Value> q(3, 0.5);
  auto r = index.Knn(q, 60);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().matches.size(), 60u);
  std::set<PointId> pids;
  for (const Neighbor& nb : r.value().matches) pids.insert(nb.pid);
  EXPECT_EQ(pids.size(), 60u);
}

TEST(IDistanceTest, ValidatesParameters) {
  Dataset db = datagen::MakeUniform(50, 4, 128);
  DiskSimulator disk;
  IDistanceIndex index(db, &disk);
  std::vector<Value> q(4, 0.5);
  EXPECT_FALSE(index.Knn(q, 0).ok());
  EXPECT_FALSE(index.Knn(q, 51).ok());
  std::vector<Value> bad(3, 0.5);
  EXPECT_FALSE(index.Knn(bad, 1).ok());
}

TEST(IDistanceTest, ChargesTreePages) {
  Dataset db = datagen::MakeSkewed(5000, 6, 129);
  DiskSimulator disk;
  IDistanceIndex index(db, &disk);
  disk.ResetCounters();
  std::vector<Value> q(6, 0.3);
  auto r = index.Knn(q, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(disk.total_reads(), 0u);
}

TEST(BufferPoolTest, HitsAreFreeAndLruEvicts) {
  DiskConfig config;
  config.buffer_pool_pages = 2;
  DiskSimulator disk(config);
  disk.AllocatePages(10);
  const size_t s = disk.OpenStream();
  disk.RecordRead(s, 0);  // miss
  disk.RecordRead(s, 1);  // miss (sequential)
  EXPECT_EQ(disk.total_reads(), 2u);
  EXPECT_EQ(disk.buffer_hits(), 0u);
  disk.RecordRead(s, 0);  // hit
  disk.RecordRead(s, 1);  // hit
  EXPECT_EQ(disk.total_reads(), 2u);
  EXPECT_EQ(disk.buffer_hits(), 2u);
  disk.RecordRead(s, 5);  // miss, evicts LRU (page 0)
  disk.RecordRead(s, 0);  // miss again
  EXPECT_EQ(disk.buffer_hits(), 2u);
  EXPECT_EQ(disk.total_reads(), 4u);
}

TEST(BufferPoolTest, SurvivesCounterResetAndDrops) {
  DiskConfig config;
  config.buffer_pool_pages = 4;
  DiskSimulator disk(config);
  disk.AllocatePages(10);
  const size_t s = disk.OpenStream();
  disk.RecordRead(s, 3);
  disk.ResetCounters();
  disk.RecordRead(s, 3);  // warm: a hit even after reset
  EXPECT_EQ(disk.buffer_hits(), 1u);
  EXPECT_EQ(disk.total_reads(), 0u);
  // Dropping the pool AND resetting the stream buffers makes the next
  // read cold again.
  disk.DropBufferPool();
  disk.ResetCounters();
  disk.RecordRead(s, 3);
  EXPECT_EQ(disk.total_reads(), 1u);
  EXPECT_EQ(disk.buffer_hits(), 0u);
}

}  // namespace
}  // namespace knmatch
