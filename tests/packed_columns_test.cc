// Differential soak for the bit-packed compressed columns: the packed
// disk store must be invisible to the algorithm. The disk ColumnStore,
// the PackedColumnStore and the B+-tree organization must produce
// bit-identical answer sets and the same attributes_retrieved across a
// randomized query soak. Also pins the codec itself (entry round trip,
// LowerBound agreement, run decode, compression actually shrinking).

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "knmatch/common/random.h"
#include "knmatch/core/packed_columns.h"
#include "knmatch/core/sorted_columns.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/diskalgo/btree_ad.h"
#include "knmatch/diskalgo/disk_ad.h"
#include "knmatch/diskalgo/packed_disk_ad.h"
#include "knmatch/eval/experiment.h"
#include "knmatch/storage/column_store.h"
#include "knmatch/storage/packed_column_store.h"

namespace knmatch {
namespace {

void ExpectIdenticalSets(const std::vector<std::vector<Neighbor>>& a,
                         const std::vector<std::vector<Neighbor>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t lvl = 0; lvl < a.size(); ++lvl) {
    ASSERT_EQ(a[lvl].size(), b[lvl].size()) << "level " << lvl;
    for (size_t i = 0; i < a[lvl].size(); ++i) {
      EXPECT_EQ(a[lvl][i].pid, b[lvl][i].pid)
          << "level " << lvl << " slot " << i;
      EXPECT_EQ(a[lvl][i].distance, b[lvl][i].distance)
          << "level " << lvl << " slot " << i;
    }
  }
}

TEST(PackedColumnsTest, EntriesRoundTripBitForBit) {
  const Dataset db = datagen::MakeUniform(1000, 6, 41);
  const SortedColumns flat(db);
  const PackedColumns packed(flat);
  ASSERT_EQ(packed.dims(), flat.dims());
  ASSERT_EQ(packed.size(), flat.size());
  for (size_t d = 0; d < flat.dims(); ++d) {
    for (size_t i = 0; i < flat.size(); ++i) {
      const ColumnEntry want = flat.entry(d, i);
      const ColumnEntry got = packed.entry(d, i);
      EXPECT_EQ(got.value, want.value) << "dim " << d << " idx " << i;
      EXPECT_EQ(got.pid, want.pid) << "dim " << d << " idx " << i;
    }
  }
}

TEST(PackedColumnsTest, LowerBoundMatchesFlatColumns) {
  const Dataset db = datagen::MakeUniform(2000, 4, 42);
  const SortedColumns flat(db);
  const PackedColumns packed(flat);
  Rng rng(4243);
  for (size_t trial = 0; trial < 500; ++trial) {
    const size_t d = trial % flat.dims();
    const Value probe = rng.Uniform01() * 1.2 - 0.1;  // overshoot both ends
    const auto& vals = flat.values(d);
    const size_t want = static_cast<size_t>(
        std::lower_bound(vals.begin(), vals.end(), probe) - vals.begin());
    EXPECT_EQ(packed.LowerBound(d, probe), want)
        << "dim " << d << " probe " << probe;
  }
}

TEST(PackedColumnsTest, CompressionShrinksUniformColumns) {
  const Dataset db = datagen::MakeUniform(20000, 8, 43);
  const PackedColumns packed((SortedColumns(db)));
  EXPECT_LT(packed.packed_bytes(), packed.unpacked_bytes());
}

TEST(PackedColumnsTest, DecodeRunMatchesBothWalkDirections) {
  const Dataset db = datagen::MakeUniform(3000, 3, 44);
  const SortedColumns flat(db);
  const PackedColumns packed(flat);
  Rng rng(4244);
  std::vector<Value> values(64);
  std::vector<PointId> pids(64);
  for (size_t trial = 0; trial < 400; ++trial) {
    const size_t d = trial % flat.dims();
    for (const bool descending : {false, true}) {
      const size_t idx = static_cast<size_t>(rng.UniformInt(flat.size()));
      const size_t room = descending ? idx + 1 : flat.size() - idx;
      const size_t len = std::min<size_t>(1 + rng.UniformInt(64), room);
      packed.DecodeRun(d, idx, len, descending, values.data(), pids.data());
      for (size_t j = 0; j < len; ++j) {
        const size_t at = descending ? idx - j : idx + j;
        const ColumnEntry want = flat.entry(d, at);
        ASSERT_EQ(values[j], want.value)
            << "dim " << d << " idx " << idx << " step " << j
            << (descending ? " down" : " up");
        ASSERT_EQ(pids[j], want.pid);
      }
    }
  }
}

// Disk organizations: the uncompressed ColumnStore, the packed page
// store, and the B+-tree columns must all deliver the same answers and
// attribute counts; the packed store must also charge fewer pages.
TEST(PackedDifferentialTest, DiskAndBTreeSoakIsBitIdentical) {
  const Dataset db = datagen::MakeUniform(4000, 8, 47);
  DiskSimulator disk;
  const ColumnStore flat_store(db, &disk);
  const PackedColumnStore packed_store(db, &disk);
  const BTreeColumns btree(db, &disk);
  EXPECT_LT(packed_store.num_pages(), flat_store.num_pages());

  const DiskAdSearcher flat_ad(flat_store);
  const PackedDiskAdSearcher packed_ad(packed_store);
  const BTreeAdSearcher btree_ad(btree);
  size_t ran = 0;
  for (const PointId pid : eval::SampleQueryPids(db, 120, 902)) {
    const std::vector<Value> q(db.point(pid).begin(), db.point(pid).end());
    const size_t n0 = 1 + (ran % 3), n1 = n0 + (ran % 4);
    const size_t k = 1 + (ran % 10);
    auto a = flat_ad.FrequentKnMatch(q, n0, n1, k);
    auto b = packed_ad.FrequentKnMatch(q, n0, n1, k);
    auto c = btree_ad.FrequentKnMatch(q, n0, n1, k);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(c.ok());
    ExpectIdenticalSets(a.value().per_n_sets, b.value().per_n_sets);
    ExpectIdenticalSets(a.value().per_n_sets, c.value().per_n_sets);
    EXPECT_EQ(a.value().matches, b.value().matches);
    EXPECT_EQ(a.value().matches, c.value().matches);
    EXPECT_EQ(a.value().attributes_retrieved,
              b.value().attributes_retrieved);
    EXPECT_EQ(a.value().attributes_retrieved,
              c.value().attributes_retrieved);
    ++ran;
  }
}

}  // namespace
}  // namespace knmatch
