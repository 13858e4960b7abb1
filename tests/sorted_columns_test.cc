#include "knmatch/core/sorted_columns.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "knmatch/common/random.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/datagen/texture_like.h"

namespace knmatch {
namespace {

/// Reference order: a comparator sort on (value, pid) reading the
/// dataset, exactly what SortedColumns built before its radix sort.
/// operator< ranks −0.0 and +0.0 equal, so their ties break by pid.
void ExpectMatchesComparatorSort(const Dataset& db) {
  const SortedColumns columns(db);
  ASSERT_EQ(columns.dims(), db.dims());
  std::vector<PointId> order(db.size());
  for (size_t dim = 0; dim < db.dims(); ++dim) {
    std::iota(order.begin(), order.end(), PointId{0});
    std::sort(order.begin(), order.end(), [&](PointId a, PointId b) {
      const Value va = db.at(a, dim);
      const Value vb = db.at(b, dim);
      if (va != vb) return va < vb;
      return a < b;
    });
    auto vals = columns.values(dim);
    auto ids = columns.pids(dim);
    ASSERT_EQ(vals.size(), db.size());
    ASSERT_EQ(ids.size(), db.size());
    for (size_t i = 0; i < order.size(); ++i) {
      ASSERT_EQ(ids[i], order[i]) << "dim=" << dim << " i=" << i;
      // Bit equality: a −0.0 must keep its sign.
      ASSERT_EQ(std::bit_cast<uint64_t>(vals[i]),
                std::bit_cast<uint64_t>(db.at(order[i], dim)))
          << "dim=" << dim << " i=" << i;
    }
  }
}

TEST(SortedColumnsTest, EmptyDefault) {
  SortedColumns columns;
  EXPECT_EQ(columns.dims(), 0u);
  EXPECT_EQ(columns.size(), 0u);
}

TEST(SortedColumnsTest, ColumnsAreSortedAndComplete) {
  Dataset db = datagen::MakeUniform(200, 6, 3);
  SortedColumns columns(db);
  ASSERT_EQ(columns.dims(), 6u);
  ASSERT_EQ(columns.size(), 200u);
  for (size_t dim = 0; dim < 6; ++dim) {
    auto vals = columns.values(dim);
    auto ids = columns.pids(dim);
    ASSERT_EQ(vals.size(), ids.size());
    std::set<PointId> pids;
    for (size_t i = 0; i < vals.size(); ++i) {
      if (i > 0) {
        EXPECT_LE(vals[i - 1], vals[i]);
      }
      EXPECT_EQ(vals[i], db.at(ids[i], dim));
      EXPECT_EQ(columns.entry(dim, i), (ColumnEntry{vals[i], ids[i]}));
      pids.insert(ids[i]);
    }
    EXPECT_EQ(pids.size(), 200u) << "every pid appears exactly once";
  }
}

TEST(SortedColumnsTest, DuplicateValuesTieBrokenByPid) {
  Dataset db(Matrix::FromRows({{0.5}, {0.5}, {0.2}, {0.5}}));
  SortedColumns columns(db);
  auto ids = columns.pids(0);
  EXPECT_EQ(ids[0], 2u);
  EXPECT_EQ(ids[1], 0u);
  EXPECT_EQ(ids[2], 1u);
  EXPECT_EQ(ids[3], 3u);
}

TEST(SortedColumnsTest, BitIdenticalToComparatorSortOnTies) {
  // Few distinct values per column: long runs of equal keys.
  Dataset db = datagen::MakeUniform(3000, 4, 31);
  Matrix m(0, 0);
  for (PointId pid = 0; pid < db.size(); ++pid) {
    std::vector<Value> row;
    for (const Value v : db.point(pid)) row.push_back(std::floor(v * 7) / 7);
    m.AppendRow(row);
  }
  ExpectMatchesComparatorSort(Dataset(std::move(m)));
}

TEST(SortedColumnsTest, BitIdenticalToComparatorSortOnSignedZeros) {
  const Value nz = -0.0;
  Dataset db(Matrix::FromRows({{0.0, nz},
                               {nz, -1.5},
                               {0.0, 0.0},
                               {-1e-300, nz},
                               {nz, 2.0},
                               {1e-300, 0.0},
                               {0.0, nz}}));
  ExpectMatchesComparatorSort(db);
  // The zeros tie, so they sit in pid order whatever their sign.
  const SortedColumns columns(db);
  const auto ids = columns.pids(0);
  EXPECT_EQ(std::vector<PointId>(ids.begin(), ids.end()),
            (std::vector<PointId>{3, 0, 1, 2, 4, 6, 5}));
  EXPECT_TRUE(std::signbit(columns.values(0)[2]));  // pid 1's −0.0
}

TEST(SortedColumnsTest, BitIdenticalToComparatorSortOnNegativeValues) {
  Rng rng(41);
  Matrix m(0, 0);
  for (int i = 0; i < 2000; ++i) {
    m.AppendRow(std::vector<Value>{
        rng.Uniform(-1e6, 1e6), rng.Uniform(-1, 1) * 1e-200,
        -rng.Uniform01(), std::numeric_limits<Value>::lowest() / (i + 1),
        static_cast<Value>(static_cast<int>(rng.UniformInt(9)) - 4)});
  }
  ExpectMatchesComparatorSort(Dataset(std::move(m)));
}

TEST(SortedColumnsTest, BitIdenticalToComparatorSortOnOnePoint) {
  ExpectMatchesComparatorSort(
      Dataset(Matrix::FromRows({{0.25, -0.0, -3.0}})));
}

TEST(SortedColumnsTest, BitIdenticalToComparatorSortOnTexture) {
  ExpectMatchesComparatorSort(datagen::MakeTextureLike());
}

TEST(SortedColumnsTest, LowerBoundSemantics) {
  Dataset db(Matrix::FromRows({{0.1}, {0.3}, {0.3}, {0.7}}));
  SortedColumns columns(db);
  EXPECT_EQ(columns.LowerBound(0, 0.0), 0u);
  EXPECT_EQ(columns.LowerBound(0, 0.1), 0u);
  EXPECT_EQ(columns.LowerBound(0, 0.2), 1u);
  EXPECT_EQ(columns.LowerBound(0, 0.3), 1u);   // first of the duplicates
  EXPECT_EQ(columns.LowerBound(0, 0.31), 3u);
  EXPECT_EQ(columns.LowerBound(0, 0.7), 3u);
  EXPECT_EQ(columns.LowerBound(0, 0.8), 4u);   // past the end
}

TEST(SortedColumnsTest, LowerBoundAgreesWithStdLowerBound) {
  Dataset db = datagen::MakeUniform(500, 3, 17);
  SortedColumns columns(db);
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t dim = trial % 3;
    const Value v = rng.Uniform(-0.1, 1.1);
    auto vals = columns.values(dim);
    auto it = std::lower_bound(vals.begin(), vals.end(), v);
    EXPECT_EQ(columns.LowerBound(dim, v),
              static_cast<size_t>(it - vals.begin()));
  }
}

}  // namespace
}  // namespace knmatch
