// Property-based sweep: on continuous random data (ties have
// probability zero) the AD algorithm must return byte-identical answers
// to the naive scan, for both query types, across cardinalities,
// dimensionalities, parameter ranges and data distributions — and its
// attribute-retrieval count must match the optimality characterization
// of Theorem 3.2.

#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>

#include <gtest/gtest.h>

#include "knmatch/common/random.h"
#include "knmatch/core/ad_algorithm.h"
#include "knmatch/core/nmatch.h"
#include "knmatch/core/nmatch_naive.h"
#include "knmatch/datagen/generators.h"

namespace knmatch {
namespace {

// 64-bit, so Params has no padding: gtest prints a parameter's raw
// bytes into the test names, and padding bytes are indeterminate.
enum class Gen : uint64_t { kUniform, kSkewed, kCorrelated };

struct Params {
  size_t cardinality;
  size_t dims;
  Gen gen;
  uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<Params>);

Dataset MakeData(const Params& p) {
  switch (p.gen) {
    case Gen::kUniform:
      return datagen::MakeUniform(p.cardinality, p.dims, p.seed);
    case Gen::kSkewed:
      return datagen::MakeSkewed(p.cardinality, p.dims, p.seed);
    case Gen::kCorrelated:
      return datagen::MakeCorrelated(p.cardinality, p.dims, p.seed);
  }
  return {};
}

class AdEquivalence : public ::testing::TestWithParam<Params> {};

TEST_P(AdEquivalence, KnMatchEqualsNaiveForAllNAndSeveralK) {
  const Params& p = GetParam();
  Dataset db = MakeData(p);
  AdSearcher searcher(db);
  Rng rng(p.seed ^ 0xABCDEF);
  std::vector<Value> q(p.dims);
  for (Value& v : q) v = rng.Uniform01();

  for (size_t n = 1; n <= p.dims; ++n) {
    for (const size_t k : {size_t{1}, size_t{5}, p.cardinality / 2}) {
      if (k == 0 || k > p.cardinality) continue;
      auto ad = searcher.KnMatch(q, n, k);
      auto naive = KnMatchNaive(db, q, n, k);
      ASSERT_TRUE(ad.ok());
      ASSERT_TRUE(naive.ok());
      ASSERT_EQ(ad.value().matches, naive.value().matches)
          << db.name() << " n=" << n << " k=" << k;
    }
  }
}

TEST_P(AdEquivalence, FrequentEqualsNaive) {
  const Params& p = GetParam();
  Dataset db = MakeData(p);
  AdSearcher searcher(db);
  Rng rng(p.seed ^ 0x123456);
  std::vector<Value> q(p.dims);
  for (Value& v : q) v = rng.Uniform01();

  const size_t k = std::min<size_t>(8, p.cardinality);
  const size_t n0 = 1 + p.dims / 4;
  const size_t n1 = p.dims;
  auto ad = searcher.FrequentKnMatch(q, n0, n1, k);
  auto naive = FrequentKnMatchNaive(db, q, n0, n1, k);
  ASSERT_TRUE(ad.ok());
  ASSERT_TRUE(naive.ok());
  ASSERT_EQ(ad.value().per_n_sets.size(), naive.value().per_n_sets.size());
  for (size_t i = 0; i < ad.value().per_n_sets.size(); ++i) {
    EXPECT_EQ(ad.value().per_n_sets[i], naive.value().per_n_sets[i])
        << db.name() << " n=" << (n0 + i);
  }
  EXPECT_EQ(ad.value().matches, naive.value().matches);
  EXPECT_EQ(ad.value().frequencies, naive.value().frequencies);
}

TEST_P(AdEquivalence, AttributeCountMatchesOptimalCharacterization) {
  // Theorem 3.2: every attribute whose difference to the query is
  // strictly below the final k-n-match difference epsilon must be
  // retrieved by any correct algorithm. The AD algorithm retrieves
  // those, the ones equal to epsilon it happens to pop, plus at most
  // one in-flight attribute per cursor direction (2d).
  const Params& p = GetParam();
  Dataset db = MakeData(p);
  AdSearcher searcher(db);
  Rng rng(p.seed ^ 0x777);
  std::vector<Value> q(p.dims);
  for (Value& v : q) v = rng.Uniform01();

  const size_t n = (p.dims + 1) / 2;
  const size_t k = std::min<size_t>(5, p.cardinality);
  auto ad = searcher.KnMatch(q, n, k);
  ASSERT_TRUE(ad.ok());
  const Value epsilon = ad.value().matches.back().distance;

  uint64_t below = 0, at_or_below = 0;
  for (PointId pid = 0; pid < db.size(); ++pid) {
    for (size_t dim = 0; dim < p.dims; ++dim) {
      const Value diff = std::abs(db.at(pid, dim) - q[dim]);
      if (diff < epsilon) ++below;
      if (diff <= epsilon) ++at_or_below;
    }
  }
  EXPECT_GE(ad.value().attributes_retrieved, below);
  EXPECT_LE(ad.value().attributes_retrieved, at_or_below + 2 * p.dims);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdEquivalence,
    ::testing::Values(
        Params{1, 1, Gen::kUniform, 1}, Params{2, 1, Gen::kUniform, 2},
        Params{10, 2, Gen::kUniform, 3}, Params{50, 3, Gen::kUniform, 4},
        Params{100, 4, Gen::kUniform, 5}, Params{100, 8, Gen::kUniform, 6},
        Params{250, 16, Gen::kUniform, 7},
        Params{400, 5, Gen::kUniform, 8}, Params{64, 32, Gen::kUniform, 9},
        Params{100, 8, Gen::kSkewed, 10}, Params{250, 12, Gen::kSkewed, 11},
        Params{333, 6, Gen::kSkewed, 12},
        Params{100, 8, Gen::kCorrelated, 13},
        Params{200, 10, Gen::kCorrelated, 14},
        Params{77, 7, Gen::kCorrelated, 15}),
    [](const ::testing::TestParamInfo<Params>& info) {
      const char* gen = info.param.gen == Gen::kUniform      ? "uniform"
                        : info.param.gen == Gen::kSkewed     ? "skewed"
                                                             : "correlated";
      return std::string(gen) + "_c" +
             std::to_string(info.param.cardinality) + "_d" +
             std::to_string(info.param.dims);
    });

}  // namespace
}  // namespace knmatch
