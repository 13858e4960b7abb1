// Randomized differential tests: every structure against a trivially
// correct reference, under adversarial conditions the unit tests do not
// reach — duplicate-heavy data (ties everywhere), tiny pages (every
// path crosses page boundaries), and long random operation sequences.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "knmatch/baselines/rtree.h"
#include "knmatch/baselines/knn_scan.h"
#include "knmatch/common/random.h"
#include "knmatch/core/ad_algorithm.h"
#include "knmatch/core/nmatch.h"
#include "knmatch/core/nmatch_naive.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/diskalgo/disk_ad.h"
#include "knmatch/diskalgo/disk_scan.h"
#include "knmatch/storage/bplus_tree.h"
#include "knmatch/storage/column_store.h"
#include "knmatch/storage/row_store.h"
#include "knmatch/vafile/va_file.h"
#include "knmatch/vafile/va_knmatch.h"

namespace knmatch {
namespace {

/// Quantized data: coordinates drawn from a small value alphabet, so
/// exact ties are everywhere.
Dataset MakeDuplicateHeavy(size_t c, size_t d, uint64_t seed,
                           uint64_t levels = 7) {
  Rng rng(seed);
  Matrix m(c, d);
  for (Value& v : m.data()) {
    v = static_cast<Value>(rng.UniformInt(levels)) /
        static_cast<Value>(levels - 1);
  }
  Dataset db(std::move(m));
  db.set_name("duplicate-heavy");
  return db;
}

class FuzzSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSeeds, BPlusTreeMatchesReferenceUnderRandomOps) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  DiskSimulator disk;
  BPlusTree tree(&disk);

  auto entry_less = [](const ColumnEntry& a, const ColumnEntry& b) {
    if (a.value != b.value) return a.value < b.value;
    return a.pid < b.pid;
  };
  std::set<std::pair<Value, PointId>> reference;

  for (int op = 0; op < 3000; ++op) {
    const uint64_t roll = rng.UniformInt(10);
    if (roll < 7 || reference.empty()) {
      // Insert (dup-prone value alphabet).
      const ColumnEntry e{
          static_cast<Value>(rng.UniformInt(50)) / 49.0,
          static_cast<PointId>(rng.UniformInt(100000))};
      if (reference.insert({e.value, e.pid}).second) {
        tree.Insert(e);
      }
    } else {
      // Erase a random existing entry.
      auto it = reference.begin();
      std::advance(it, static_cast<long>(
                           rng.UniformInt(reference.size())));
      ASSERT_TRUE(tree.Erase(ColumnEntry{it->first, it->second}).value());
      reference.erase(it);
    }
    if (op % 500 == 499) {
      ASSERT_TRUE(tree.CheckInvariants().ok())
          << tree.CheckInvariants().ToString() << " at op " << op;
      ASSERT_EQ(tree.size(), reference.size());
      // Probe a few random seeks.
      const DiskStream stream_handle = tree.OpenStream();
      const size_t stream = stream_handle.id();
      for (int probe = 0; probe < 10; ++probe) {
        const Value v = rng.Uniform(-0.1, 1.1);
        auto expected = std::find_if(
            reference.begin(), reference.end(),
            [&](const auto& p) { return p.first >= v; });
        auto it2 = tree.SeekLowerBound(stream, v);
        if (expected == reference.end()) {
          EXPECT_FALSE(it2.Valid());
        } else {
          ASSERT_TRUE(it2.Valid());
          EXPECT_EQ(it2.Get().value, expected->first);
          EXPECT_EQ(it2.Get().pid, expected->second);
        }
      }
    }
  }
  (void)entry_less;
}

TEST_P(FuzzSeeds, RTreeMatchesScanUnderIncrementalInserts) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0xABCD);
  const size_t d = 3 + seed % 3;
  RTree tree(d);
  Matrix m(0, d);
  std::vector<Value> point(d);
  for (PointId pid = 0; pid < 800; ++pid) {
    for (Value& v : point) v = rng.Uniform01();
    tree.Insert(pid, point);
    m.AppendRow(point);
    if (pid % 200 == 199) {
      ASSERT_TRUE(tree.CheckInvariants().ok());
      Dataset snapshot{Matrix(m)};
      std::vector<Value> q(d);
      for (Value& v : q) v = rng.Uniform01();
      auto tree_knn = tree.Knn(q, 5);
      auto scan_knn = KnnScan(snapshot, q, 5);
      ASSERT_TRUE(tree_knn.ok());
      EXPECT_EQ(tree_knn.value().matches, scan_knn.value().matches);
    }
  }
}

TEST_P(FuzzSeeds, AdOnDuplicateHeavyDataIsDistanceCorrect) {
  const uint64_t seed = GetParam();
  Dataset db = MakeDuplicateHeavy(400, 6, seed);
  AdSearcher searcher(db);
  Rng rng(seed ^ 0x55);
  std::vector<Value> q(6);
  for (Value& v : q) {
    v = static_cast<Value>(rng.UniformInt(7)) / 6.0;
  }
  for (size_t n = 1; n <= 6; ++n) {
    auto ad = searcher.KnMatch(q, n, 20);
    auto naive = KnMatchNaive(db, q, n, 20);
    ASSERT_TRUE(ad.ok());
    ASSERT_EQ(ad.value().matches.size(), naive.value().matches.size());
    for (size_t i = 0; i < ad.value().matches.size(); ++i) {
      // Under ties the pid order may legitimately differ, but the
      // distance sequence must match and every reported distance must
      // be the point's true n-match difference.
      const Neighbor& nb = ad.value().matches[i];
      EXPECT_DOUBLE_EQ(nb.distance, naive.value().matches[i].distance)
          << "n=" << n << " i=" << i;
      EXPECT_DOUBLE_EQ(nb.distance,
                       NMatchDifference(db.point(nb.pid), q, n));
    }
    // No duplicate pids in the answer.
    std::set<PointId> pids;
    for (const Neighbor& nb : ad.value().matches) pids.insert(nb.pid);
    EXPECT_EQ(pids.size(), ad.value().matches.size());
  }
}

TEST_P(FuzzSeeds, VaFileExactOnDuplicateHeavyData) {
  const uint64_t seed = GetParam();
  Dataset db = MakeDuplicateHeavy(500, 5, seed, 9);
  DiskSimulator disk;
  RowStore rows(db, &disk);
  VaFile va(db, &disk, 4);
  VaKnMatchSearcher searcher(va, rows);
  Rng rng(seed ^ 0x99);
  std::vector<Value> q(5);
  for (Value& v : q) v = rng.Uniform01();
  auto va_result = searcher.FrequentKnMatch(q, 2, 4, 6);
  auto naive = FrequentKnMatchNaive(db, q, 2, 4, 6);
  ASSERT_TRUE(va_result.ok());
  // Both sides break ties by (difference, pid), so equality is exact
  // even with massive duplication.
  EXPECT_EQ(va_result.value().base.per_n_sets, naive.value().per_n_sets);
  EXPECT_EQ(va_result.value().base.matches, naive.value().matches);
}

TEST_P(FuzzSeeds, TinyPagesExerciseEveryBoundary) {
  const uint64_t seed = GetParam();
  DiskConfig config;
  config.page_size = 256;  // 21 column entries / 4 rows (d=8) per page
  DiskSimulator disk(config);
  Dataset db = datagen::MakeUniform(300, 8, seed);
  RowStore rows(db, &disk);
  ColumnStore columns(db, &disk);
  DiskAdSearcher ad(columns);
  DiskScan scan(rows);
  AdSearcher mem(db);

  Rng rng(seed ^ 0x11);
  std::vector<Value> q(8);
  for (Value& v : q) v = rng.Uniform01();

  auto disk_ad = ad.FrequentKnMatch(q, 2, 6, 9);
  auto mem_ad = mem.FrequentKnMatch(q, 2, 6, 9);
  ASSERT_TRUE(disk_ad.ok());
  EXPECT_EQ(disk_ad.value().matches, mem_ad.value().matches);
  EXPECT_EQ(disk_ad.value().per_n_sets, mem_ad.value().per_n_sets);

  auto disk_scan = scan.FrequentKnMatch(q, 2, 6, 9);
  ASSERT_TRUE(disk_scan.ok());
  EXPECT_EQ(disk_scan.value().matches, mem_ad.value().matches);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(1, 2, 3, 4, 5),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace knmatch
