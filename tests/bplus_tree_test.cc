#include "knmatch/storage/bplus_tree.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "knmatch/common/random.h"
#include "knmatch/core/nmatch_naive.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/diskalgo/btree_ad.h"
#include "knmatch/core/ad_algorithm.h"

namespace knmatch {
namespace {

std::vector<ColumnEntry> SortedEntries(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<ColumnEntry> entries(count);
  for (size_t i = 0; i < count; ++i) {
    entries[i] = ColumnEntry{rng.Uniform01(), static_cast<PointId>(i)};
  }
  std::sort(entries.begin(), entries.end(),
            [](const ColumnEntry& a, const ColumnEntry& b) {
              if (a.value != b.value) return a.value < b.value;
              return a.pid < b.pid;
            });
  return entries;
}

TEST(BPlusTreeTest, EmptyTree) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 0u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const DiskStream s_handle = tree.OpenStream();
  const size_t s = s_handle.id();
  EXPECT_FALSE(tree.SeekLowerBound(s, 0.5).Valid());
  EXPECT_FALSE(tree.SeekBefore(s, 0.5).Valid());
  EXPECT_EQ(tree.RankOf(s, 0.5).value(), 0u);
}

TEST(BPlusTreeTest, BulkLoadSingleLeaf) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  auto entries = SortedEntries(100, 1);
  tree.BulkLoad(entries);
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeTest, BulkLoadMultiLevel) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  auto entries = SortedEntries(100000, 2);
  tree.BulkLoad(entries);
  EXPECT_EQ(tree.size(), 100000u);
  EXPECT_GE(tree.height(), 2u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeTest, ForwardScanVisitsAllInOrder) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  auto entries = SortedEntries(5000, 3);
  tree.BulkLoad(entries);
  const DiskStream s_handle = tree.OpenStream();
  const size_t s = s_handle.id();
  auto it = tree.SeekLowerBound(s, -1.0);
  for (const ColumnEntry& expected : entries) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.Get(), expected);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

TEST(BPlusTreeTest, BackwardScanVisitsAllInReverse) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  auto entries = SortedEntries(5000, 4);
  tree.BulkLoad(entries);
  const DiskStream s_handle = tree.OpenStream();
  const size_t s = s_handle.id();
  auto it = tree.SeekBefore(s, 2.0);  // after everything
  for (size_t i = entries.size(); i-- > 0;) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.Get(), entries[i]);
    it.Prev();
  }
  EXPECT_FALSE(it.Valid());
}

TEST(BPlusTreeTest, CopyRunStopsAtTheLeafEndWithoutCharging) {
  // Bulk-loaded leaves hold 256 entries: [0, 256), [256, 512), ...
  DiskSimulator disk;
  BPlusTree tree(&disk);
  auto entries = SortedEntries(1000, 6);
  tree.BulkLoad(entries);
  Value values[64];
  PointId pids[64];

  const DiskStream up = tree.OpenStream();
  auto it = tree.SeekLowerBound(up.id(), entries[250].value);
  uint64_t reads = disk.total_reads();
  ASSERT_EQ(it.CopyRun(/*descending=*/false, 64, values, pids), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ((ColumnEntry{values[i], pids[i]}), entries[250 + i]);
  }
  EXPECT_EQ(disk.total_reads(), reads);
  EXPECT_EQ(it.Get(), entries[255]);  // on the last entry copied
  it.Next();                           // the leaf crossing is charged
  EXPECT_EQ(disk.total_reads(), reads + 1);
  ASSERT_EQ(it.CopyRun(false, 64, values, pids), 64u);
  EXPECT_EQ((ColumnEntry{values[63], pids[63]}), entries[319]);
  EXPECT_EQ(it.Get(), entries[319]);

  const DiskStream down = tree.OpenStream();
  it = tree.SeekBefore(down.id(), entries[260].value);
  reads = disk.total_reads();
  ASSERT_EQ(it.CopyRun(/*descending=*/true, 64, values, pids), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ((ColumnEntry{values[i], pids[i]}), entries[259 - i]);
  }
  EXPECT_EQ(it.Get(), entries[256]);
  it.Prev();
  EXPECT_EQ(disk.total_reads(), reads + 1);
  ASSERT_EQ(it.CopyRun(true, 2, values, pids), 2u);
  EXPECT_EQ(it.Get(), entries[254]);
}

TEST(BPlusTreeTest, RunWalkChargesLikeAnEntryWalk) {
  // Walking a column by runs (copy, then one step) visits the same
  // entries and charges the same pages as stepping entry by entry.
  auto entries = SortedEntries(3000, 7);
  DiskSimulator run_disk;
  BPlusTree run_tree(&run_disk);
  run_tree.BulkLoad(entries);
  DiskSimulator entry_disk;
  BPlusTree entry_tree(&entry_disk);
  entry_tree.BulkLoad(entries);

  const DiskStream run_stream = run_tree.OpenStream();
  const DiskStream entry_stream = entry_tree.OpenStream();
  auto run = run_tree.SeekLowerBound(run_stream.id(), -1.0);
  auto entry = entry_tree.SeekLowerBound(entry_stream.id(), -1.0);
  Value values[100];
  PointId pids[100];
  size_t at = 0;
  while (run.Valid()) {
    const size_t got = run.CopyRun(false, 100, values, pids);
    for (size_t i = 0; i < got; ++i, ++at) {
      ASSERT_TRUE(entry.Valid());
      EXPECT_EQ((ColumnEntry{values[i], pids[i]}), entries[at]);
      EXPECT_EQ(entry.Get(), entries[at]);
      entry.Next();
    }
    run.Next();
    EXPECT_EQ(run_disk.total_reads(), entry_disk.total_reads());
  }
  EXPECT_EQ(at, entries.size());
  EXPECT_FALSE(entry.Valid());
  EXPECT_EQ(run_disk.random_reads(), entry_disk.random_reads());
  EXPECT_EQ(run_disk.sequential_reads(), entry_disk.sequential_reads());
}

TEST(BPlusTreeTest, SeekAgreesWithStdLowerBound) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  auto entries = SortedEntries(3000, 5);
  tree.BulkLoad(entries);
  Rng rng(77);
  const DiskStream s_handle = tree.OpenStream();
  const size_t s = s_handle.id();
  for (int trial = 0; trial < 300; ++trial) {
    const Value v = rng.Uniform(-0.1, 1.1);
    auto expected = std::lower_bound(
        entries.begin(), entries.end(), v,
        [](const ColumnEntry& e, Value t) { return e.value < t; });
    auto it = tree.SeekLowerBound(s, v);
    if (expected == entries.end()) {
      EXPECT_FALSE(it.Valid());
    } else {
      ASSERT_TRUE(it.Valid());
      EXPECT_EQ(it.Get(), *expected);
    }
    // RankOf matches the std::lower_bound index.
    EXPECT_EQ(tree.RankOf(s, v).value(),
              static_cast<size_t>(expected - entries.begin()));
    // SeekBefore gives the predecessor.
    auto before = tree.SeekBefore(s, v);
    if (expected == entries.begin()) {
      EXPECT_FALSE(before.Valid());
    } else {
      ASSERT_TRUE(before.Valid());
      EXPECT_EQ(before.Get(), *(expected - 1));
    }
  }
}

TEST(BPlusTreeTest, SeekChargesRootToLeafPages) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  tree.BulkLoad(SortedEntries(100000, 6));
  const size_t s = disk.OpenStream();
  // Use the tree's stream accounting: a fresh stream's seek charges
  // height() node visits (all random for the first seek).
  (void)s;
  const DiskStream stream_handle = tree.OpenStream();
  const size_t stream = stream_handle.id();
  disk.ResetCounters();
  tree.SeekLowerBound(stream, 0.5);
  EXPECT_EQ(disk.total_reads(), tree.height());
}

TEST(BPlusTreeTest, InsertIntoEmptyAndGrow) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  Rng rng(7);
  std::vector<ColumnEntry> reference;
  for (PointId pid = 0; pid < 2000; ++pid) {
    const ColumnEntry e{rng.Uniform01(), pid};
    tree.Insert(e);
    reference.push_back(e);
    if (pid % 500 == 499) {
      ASSERT_TRUE(tree.CheckInvariants().ok()) << "after " << pid + 1;
    }
  }
  EXPECT_EQ(tree.size(), 2000u);
  EXPECT_GE(tree.height(), 2u);
  ASSERT_TRUE(tree.CheckInvariants().ok());

  std::sort(reference.begin(), reference.end(),
            [](const ColumnEntry& a, const ColumnEntry& b) {
              if (a.value != b.value) return a.value < b.value;
              return a.pid < b.pid;
            });
  const DiskStream s_handle = tree.OpenStream();
  const size_t s = s_handle.id();
  auto it = tree.SeekLowerBound(s, -1.0);
  for (const ColumnEntry& expected : reference) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.Get(), expected);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

TEST(BPlusTreeTest, InsertAfterBulkLoad) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  auto entries = SortedEntries(1000, 8);
  tree.BulkLoad(entries);
  Rng rng(9);
  for (PointId pid = 1000; pid < 1500; ++pid) {
    tree.Insert(ColumnEntry{rng.Uniform01(), pid});
  }
  EXPECT_EQ(tree.size(), 1500u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeTest, EraseExistingAndMissing) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  auto entries = SortedEntries(500, 10);
  tree.BulkLoad(entries);
  EXPECT_TRUE(tree.Erase(entries[250]).value());
  EXPECT_EQ(tree.size(), 499u);
  EXPECT_FALSE(tree.Erase(entries[250]).value());  // already gone
  EXPECT_FALSE(tree.Erase(ColumnEntry{2.0, 1}).value());
  EXPECT_TRUE(tree.CheckInvariants().ok());

  // The erased entry is skipped by scans.
  const DiskStream s_handle = tree.OpenStream();
  const size_t s = s_handle.id();
  auto it = tree.SeekLowerBound(s, -1.0);
  size_t seen = 0;
  while (it.Valid()) {
    EXPECT_FALSE(it.Get() == entries[250]);
    ++seen;
    it.Next();
  }
  EXPECT_EQ(seen, 499u);
}

TEST(BPlusTreeTest, EraseWholeLeafThenIterate) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  auto entries = SortedEntries(1000, 11);
  tree.BulkLoad(entries);
  // Erase a contiguous run wider than one leaf (capacity 256).
  for (size_t i = 100; i < 400; ++i) {
    ASSERT_TRUE(tree.Erase(entries[i]).value());
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const DiskStream s_handle = tree.OpenStream();
  const size_t s = s_handle.id();
  auto it = tree.SeekLowerBound(s, -1.0);
  size_t seen = 0;
  while (it.Valid()) {
    ++seen;
    it.Next();
  }
  EXPECT_EQ(seen, 700u);
  // Backward over the hole as well.
  auto back = tree.SeekBefore(s, 2.0);
  seen = 0;
  while (back.Valid()) {
    ++seen;
    back.Prev();
  }
  EXPECT_EQ(seen, 700u);
}

TEST(BTreeColumnsTest, AdOverBTreesMatchesMemoryAdExactly) {
  Dataset db = datagen::MakeUniform(3000, 6, 12);
  DiskSimulator disk;
  BTreeColumns columns(db, &disk);
  BTreeAdSearcher btree_ad(columns);
  AdSearcher mem(db);

  Rng rng(13);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Value> q(6);
    for (Value& v : q) v = rng.Uniform01();
    for (size_t n : {size_t{1}, size_t{3}, size_t{6}}) {
      auto a = btree_ad.KnMatch(q, n, 7);
      auto b = mem.KnMatch(q, n, 7);
      ASSERT_TRUE(a.ok());
      EXPECT_EQ(a.value().matches, b.value().matches);
      EXPECT_EQ(a.value().attributes_retrieved,
                b.value().attributes_retrieved);
    }
    auto fa = btree_ad.FrequentKnMatch(q, 2, 5, 9);
    auto fb = mem.FrequentKnMatch(q, 2, 5, 9);
    ASSERT_TRUE(fa.ok());
    EXPECT_EQ(fa.value().matches, fb.value().matches);
    EXPECT_EQ(fa.value().per_n_sets, fb.value().per_n_sets);
  }
}

TEST(BTreeColumnsTest, InsertPointThenSearchFindsIt) {
  Dataset db = datagen::MakeUniform(500, 4, 14);
  DiskSimulator disk;
  BTreeColumns columns(db, &disk);
  // Insert a point identical to an existing query target.
  std::vector<Value> coords = {0.21, 0.43, 0.65, 0.87};
  columns.InsertPoint(500, coords);
  EXPECT_EQ(columns.column_size(), 501u);

  BTreeAdSearcher searcher(columns);
  auto r = searcher.KnMatch(coords, 4, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().matches[0].pid, 500u);
  EXPECT_EQ(r.value().matches[0].distance, 0.0);
}

}  // namespace
}  // namespace knmatch
