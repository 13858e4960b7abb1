#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "knmatch/common/random.h"
#include "knmatch/core/nmatch_naive.h"
#include "knmatch/baselines/knn_scan.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/storage/row_store.h"
#include "knmatch/vafile/va_file.h"
#include "knmatch/vafile/va_knmatch.h"
#include "knmatch/vafile/va_knn.h"

namespace knmatch {
namespace {

TEST(VaFileTest, QuantizeRoundTripsIntoCell) {
  Dataset db = datagen::MakeUniform(400, 5, 20);
  DiskSimulator disk;
  VaFile va(db, &disk, 8);
  EXPECT_EQ(va.cells(), 256u);
  for (PointId pid = 0; pid < 50; ++pid) {
    for (size_t dim = 0; dim < db.dims(); ++dim) {
      const Value v = db.at(pid, dim);
      const uint32_t code = va.Quantize(dim, v);
      EXPECT_LE(va.CellLower(dim, code), v + 1e-12);
      EXPECT_GE(va.CellUpper(dim, code), v - 1e-12);
    }
  }
}

TEST(VaFileTest, ApproxScanReproducesQuantization) {
  Dataset db = datagen::MakeUniform(1000, 6, 21);
  DiskSimulator disk;
  VaFile va(db, &disk, 8);
  const DiskStream s_handle = va.OpenStream();
  const size_t s = s_handle.id();
  PointId expected = 0;
  va.ForEachApprox(s, [&](PointId pid, std::span<const uint32_t> codes) {
    ASSERT_EQ(pid, expected++);
    for (size_t dim = 0; dim < db.dims(); ++dim) {
      ASSERT_EQ(codes[dim], va.Quantize(dim, db.at(pid, dim)))
          << "pid=" << pid << " dim=" << dim;
    }
  });
  EXPECT_EQ(expected, 1000u);
  // The scan is sequential.
  EXPECT_EQ(disk.random_reads(), 1u);
}

TEST(VaFileTest, OddBitWidthsPackCorrectly) {
  Dataset db = datagen::MakeUniform(300, 7, 22);
  DiskSimulator disk;
  VaFile va(db, &disk, 5);  // 35 bits per row -> deliberately unaligned
  EXPECT_EQ(va.cells(), 32u);
  const DiskStream s_handle = va.OpenStream();
  const size_t s = s_handle.id();
  va.ForEachApprox(s, [&](PointId pid, std::span<const uint32_t> codes) {
    for (size_t dim = 0; dim < db.dims(); ++dim) {
      ASSERT_EQ(codes[dim], va.Quantize(dim, db.at(pid, dim)))
          << "pid=" << pid << " dim=" << dim;
    }
  });
}

TEST(VaFileTest, ApproximationIsSmallerThanRowFile) {
  Dataset db = datagen::MakeUniform(20000, 16, 23);
  DiskSimulator disk;
  RowStore rows(db, &disk);
  VaFile va(db, &disk, 8);
  // 8 bits vs 64-bit doubles: the approximation should be ~1/8 the
  // size (the paper's float data gives 25%).
  EXPECT_LT(va.num_pages(), rows.num_pages() / 6);
}

TEST(VaFileTest, BoundsBracketTrueDifference) {
  Dataset db = datagen::MakeUniform(200, 4, 24);
  DiskSimulator disk;
  VaFile va(db, &disk, 6);
  Rng rng(55);
  std::vector<Value> q(4);
  for (Value& v : q) v = rng.Uniform01();
  for (PointId pid = 0; pid < db.size(); ++pid) {
    for (size_t dim = 0; dim < 4; ++dim) {
      const uint32_t code = va.Quantize(dim, db.at(pid, dim));
      const Value lo = va.CellLower(dim, code);
      const Value hi = va.CellUpper(dim, code);
      Value lb = 0;
      if (q[dim] < lo) {
        lb = lo - q[dim];
      } else if (q[dim] > hi) {
        lb = q[dim] - hi;
      }
      const Value ub =
          std::max(std::abs(q[dim] - lo), std::abs(q[dim] - hi));
      const Value truth = std::abs(db.at(pid, dim) - q[dim]);
      EXPECT_LE(lb, truth + 1e-12);
      EXPECT_GE(ub, truth - 1e-12);
    }
  }
}

// The bit-at-a-time writer the VA-file shipped with: the reference the
// byte-wise codec must reproduce exactly.
void PutBitsBitwise(std::vector<std::byte>* out, size_t bit_pos,
                    uint32_t code, unsigned bits) {
  for (unsigned b = 0; b < bits; ++b) {
    const size_t pos = bit_pos + b;
    if (pos / 8 >= out->size()) out->resize(pos / 8 + 1, std::byte{0});
    if ((code >> b) & 1u) (*out)[pos / 8] |= std::byte{1} << (pos % 8);
  }
}

TEST(VaFileTest, PageImagesMatchBitwiseCodecForEveryWidth) {
  Dataset db = datagen::MakeUniform(700, 7, 27);
  for (unsigned bits = 1; bits <= 16; ++bits) {
    DiskSimulator disk;
    VaFile va(db, &disk, bits);
    const size_t row_bytes = (db.dims() * bits + 7) / 8;
    const size_t rows_per_page = va.file().payload_capacity() / row_bytes;
    std::vector<std::vector<std::byte>> pages;
    std::vector<std::byte> image;
    for (PointId pid = 0; pid < db.size(); ++pid) {
      const size_t row = pid % rows_per_page;
      for (size_t dim = 0; dim < db.dims(); ++dim) {
        PutBitsBitwise(&image, (row * row_bytes * 8) + dim * bits,
                       va.Quantize(dim, db.at(pid, dim)), bits);
      }
      image.resize((row + 1) * row_bytes, std::byte{0});
      if (row + 1 == rows_per_page || pid + 1 == db.size()) {
        pages.push_back(image);
        image.clear();
      }
    }
    ASSERT_EQ(va.num_pages(), pages.size()) << "bits=" << bits;
    for (size_t p = 0; p < pages.size(); ++p) {
      auto got = va.file().PeekPage(p);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(std::equal(got.value().begin(), got.value().end(),
                             pages[p].begin(), pages[p].end()))
          << "bits=" << bits << " page=" << p;
    }
    // And the byte-wise reader decodes what was written.
    const DiskStream s_handle = va.OpenStream();
    const size_t s = s_handle.id();
    ASSERT_TRUE(va.ForEachApprox(s, [&](PointId pid,
                                        std::span<const uint32_t> codes) {
                    for (size_t dim = 0; dim < db.dims(); ++dim) {
                      ASSERT_EQ(codes[dim],
                                va.Quantize(dim, db.at(pid, dim)))
                          << "bits=" << bits << " pid=" << pid;
                    }
                  }).ok());
  }
}

TEST(VaFileTest, BoundsForMatchesCellEdgeArithmetic) {
  Dataset db = datagen::MakeUniform(300, 3, 28);
  DiskSimulator disk;
  VaFile va(db, &disk, 6);
  // In range, on a cell edge, and outside the data range on both sides.
  for (const std::vector<Value>& q :
       {std::vector<Value>{0.3, 0.5, 0.9}, std::vector<Value>{-0.5, 1.5, 0.0},
        std::vector<Value>{va.CellLower(0, 17), va.CellUpper(1, 40), 2.0}}) {
    const std::vector<VaFile::CellBound> bounds = va.BoundsFor(q);
    ASSERT_EQ(bounds.size(), db.dims() * va.cells());
    for (size_t dim = 0; dim < db.dims(); ++dim) {
      for (uint32_t code = 0; code < va.cells(); ++code) {
        const Value lo = va.CellLower(dim, code);
        const Value hi = va.CellUpper(dim, code);
        Value lb = 0;
        if (q[dim] < lo) {
          lb = lo - q[dim];
        } else if (q[dim] > hi) {
          lb = q[dim] - hi;
        }
        const Value ub =
            std::max(std::abs(q[dim] - lo), std::abs(q[dim] - hi));
        const VaFile::CellBound& b = bounds[dim * va.cells() + code];
        ASSERT_EQ(std::bit_cast<uint64_t>(b.lower),
                  std::bit_cast<uint64_t>(lb));
        ASSERT_EQ(std::bit_cast<uint64_t>(b.upper),
                  std::bit_cast<uint64_t>(ub));
      }
    }
  }
}

class VaEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(VaEquivalence, FrequentKnMatchExactlyMatchesNaive) {
  const unsigned bits = GetParam();
  Dataset db = datagen::MakeUniform(800, 8, 25);
  DiskSimulator disk;
  RowStore rows(db, &disk);
  VaFile va(db, &disk, bits);
  VaKnMatchSearcher searcher(va, rows);

  Rng rng(77);
  std::vector<Value> q(8);
  for (Value& v : q) v = rng.Uniform01();

  auto va_result = searcher.FrequentKnMatch(q, 2, 7, 6);
  auto naive = FrequentKnMatchNaive(db, q, 2, 7, 6);
  ASSERT_TRUE(va_result.ok());
  EXPECT_EQ(va_result.value().base.matches, naive.value().matches);
  EXPECT_EQ(va_result.value().base.frequencies, naive.value().frequencies);
  EXPECT_EQ(va_result.value().base.per_n_sets, naive.value().per_n_sets);
  EXPECT_LE(va_result.value().points_refined, db.size());
}

TEST_P(VaEquivalence, MoreBitsPruneMore) {
  Dataset db = datagen::MakeSkewed(2000, 8, 26);
  DiskSimulator disk;
  RowStore rows(db, &disk);
  VaFile coarse(db, &disk, 2);
  VaFile fine(db, &disk, 8);
  VaKnMatchSearcher coarse_search(coarse, rows);
  VaKnMatchSearcher fine_search(fine, rows);
  std::vector<Value> q(db.point(3).begin(), db.point(3).end());
  auto rc = coarse_search.FrequentKnMatch(q, 2, 7, 5);
  auto rf = fine_search.FrequentKnMatch(q, 2, 7, 5);
  ASSERT_TRUE(rc.ok());
  ASSERT_TRUE(rf.ok());
  EXPECT_LE(rf.value().points_refined, rc.value().points_refined);
  EXPECT_EQ(rf.value().base.matches, rc.value().base.matches);
}

INSTANTIATE_TEST_SUITE_P(Bits, VaEquivalence, ::testing::Values(4, 6, 8),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "bits" + std::to_string(info.param);
                         });

TEST(VaKnnTest, ExactlyMatchesScanKnn) {
  Dataset db = datagen::MakeUniform(600, 10, 27);
  DiskSimulator disk;
  RowStore rows(db, &disk);
  VaFile va(db, &disk, 8);
  VaKnnSearcher searcher(va, rows);
  Rng rng(88);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Value> q(10);
    for (Value& v : q) v = rng.Uniform01();
    auto va_result = searcher.Knn(q, 9);
    auto scan = KnnScan(db, q, 9, Metric::kEuclidean);
    ASSERT_TRUE(va_result.ok());
    EXPECT_EQ(va_result.value().matches, scan.value().matches);
    const uint64_t refined =
        va_result.value().attributes_retrieved / db.dims() - db.size();
    EXPECT_LT(refined, db.size());
  }
}

TEST(VaKnmatchTest, KnMatchSpecialCaseMatchesNaive) {
  Dataset db = datagen::MakeUniform(300, 6, 28);
  DiskSimulator disk;
  RowStore rows(db, &disk);
  VaFile va(db, &disk, 8);
  VaKnMatchSearcher searcher(va, rows);
  std::vector<Value> q(6, 0.66);
  auto va_result = searcher.KnMatch(q, 3, 4);
  auto naive = KnMatchNaive(db, q, 3, 4);
  ASSERT_TRUE(va_result.ok());
  EXPECT_EQ(va_result.value().base.per_n_sets[0], naive.value().matches);
}

TEST(VaKnmatchTest, RejectsMismatchedStores) {
  Dataset a = datagen::MakeUniform(100, 4, 29);
  Dataset b = datagen::MakeUniform(50, 4, 30);
  DiskSimulator disk;
  RowStore rows(a, &disk);
  VaFile va(b, &disk, 8);
  VaKnMatchSearcher searcher(va, rows);
  std::vector<Value> q(4, 0.5);
  EXPECT_FALSE(searcher.FrequentKnMatch(q, 1, 4, 3).ok());
}

}  // namespace
}  // namespace knmatch
