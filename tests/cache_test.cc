// Tests for the query-result cache: key exactness, LRU bounding,
// exact-hit serving through the engine and the batch executor, precise
// insert/erase invalidation (the inverted index and the guard band),
// the B+-tree mutation bridge, the warm-start differential guarantee,
// a randomized update/query soak against an uncached mirror, and a
// concurrency hammer for the TSan gate.
//
// Every answer comparison in this file compares answer fields only
// (matches, per_n_sets, frequencies) — a cache hit intentionally
// returns the populating run's attributes_retrieved, which a re-run
// need not reproduce.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "knmatch/cache/btree_bridge.h"
#include "knmatch/cache/query_cache.h"
#include "knmatch/common/random.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/engine.h"
#include "knmatch/obs/catalog.h"

namespace knmatch {
namespace {

using cache::CacheConfig;
using cache::QueryResultCache;

void ExpectSameMatches(const std::vector<Neighbor>& a,
                       const std::vector<Neighbor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pid, b[i].pid) << "slot " << i;
    EXPECT_EQ(a[i].distance, b[i].distance) << "slot " << i;
  }
}

void ExpectSameFrequent(const FrequentKnMatchResult& a,
                        const FrequentKnMatchResult& b) {
  ExpectSameMatches(a.matches, b.matches);
  EXPECT_EQ(a.frequencies, b.frequencies);
  ASSERT_EQ(a.per_n_sets.size(), b.per_n_sets.size());
  for (size_t lvl = 0; lvl < a.per_n_sets.size(); ++lvl) {
    ExpectSameMatches(a.per_n_sets[lvl], b.per_n_sets[lvl]);
  }
}

// Brace lists don't convert to std::span; V names the vector.
std::vector<Value> V(std::initializer_list<Value> values) { return values; }

KnMatchResult MakeResult(std::vector<Neighbor> matches) {
  KnMatchResult r;
  r.matches = std::move(matches);
  r.attributes_retrieved = 123;
  return r;
}

// ---------------------------------------------------------------------------
// CacheUnitTest: the data structure in isolation.

TEST(CacheUnitTest, ExactKeyHitAndParameterMisses) {
  QueryResultCache cache;
  const std::vector<Value> q{0.1, 0.2, 0.3};
  const KnMatchResult r = MakeResult({{7, 0.01}, {3, 0.02}});
  cache.StoreKnMatch(/*epoch=*/1, q, /*n=*/2, /*k=*/2, {}, r);

  auto hit = cache.LookupKnMatch(1, q, 2, 2, {});
  ASSERT_TRUE(hit.has_value());
  ExpectSameMatches(hit->matches, r.matches);
  EXPECT_EQ(hit->attributes_retrieved, r.attributes_retrieved);

  // Every key field participates: change one, miss.
  EXPECT_FALSE(cache.LookupKnMatch(2, q, 2, 2, {}).has_value());
  EXPECT_FALSE(cache.LookupKnMatch(1, q, 3, 2, {}).has_value());
  EXPECT_FALSE(cache.LookupKnMatch(1, q, 2, 3, {}).has_value());
  const std::vector<Value> q2{0.1, 0.2, 0.30000001};
  EXPECT_FALSE(cache.LookupKnMatch(1, q2, 2, 2, {}).has_value());
  const std::vector<Value> w{1.0, 2.0, 1.0};
  EXPECT_FALSE(cache.LookupKnMatch(1, q, 2, 2, w).has_value());
  // Methods never alias, even with identical numeric parameters.
  EXPECT_FALSE(cache.LookupKnn(1, q, 2, Metric::kEuclidean).has_value());

  const auto stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 6u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(CacheUnitTest, ByteBudgetEvictsFromTheLruTail) {
  CacheConfig config;
  config.shards = 1;
  config.max_bytes = 4096;
  QueryResultCache cache(config);
  for (size_t i = 0; i < 64; ++i) {
    const std::vector<Value> q{static_cast<Value>(i), 0.5};
    const auto pid = static_cast<PointId>(i);
    cache.StoreKnMatch(1, q, 1, 2, {},
                       MakeResult({{pid, 0.1}, {pid + 1000, 0.2}}));
  }
  const auto stats = cache.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 64u);
  EXPECT_LE(stats.bytes, config.max_bytes);
  // The most recent store must have survived; the oldest must be gone.
  EXPECT_TRUE(
      cache.LookupKnMatch(1, V({63.0, 0.5}),1, 2, {}).has_value());
  EXPECT_FALSE(cache.LookupKnMatch(1, V({0.0, 0.5}),1, 2, {}).has_value());
}

TEST(CacheUnitTest, ClearDropsEverything) {
  QueryResultCache cache;
  cache.StoreKnMatch(1, V({0.1}),1, 1, {}, MakeResult({{0, 0.5}}));
  cache.StoreKnn(1, V({0.2}),1, Metric::kManhattan, MakeResult({{1, 0.5}}));
  EXPECT_EQ(cache.Stats().entries, 2u);
  cache.Clear();
  const auto stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_FALSE(cache.LookupKnMatch(1, V({0.1}),1, 1, {}).has_value());
}

// ---------------------------------------------------------------------------
// CacheEngineTest: exact hits through the facade and the batch path.

TEST(CacheEngineTest, ServesAllThreeMethodsBitIdentically) {
  SimilarityEngine engine(datagen::MakeUniform(400, 6, 11));
  engine.EnableCache();
  const std::vector<Value> q{0.2, 0.4, 0.6, 0.8, 0.3, 0.5};

  const auto km1 = engine.KnMatch(q, 3, 5);
  const auto km2 = engine.KnMatch(q, 3, 5);
  ASSERT_TRUE(km1.ok() && km2.ok());
  ExpectSameMatches(km1.value().matches, km2.value().matches);

  const auto fr1 = engine.FrequentKnMatch(q, 2, 5, 4);
  const auto fr2 = engine.FrequentKnMatch(q, 2, 5, 4);
  ASSERT_TRUE(fr1.ok() && fr2.ok());
  ExpectSameFrequent(fr1.value(), fr2.value());

  const auto nn1 = engine.Knn(q, 5);
  const auto nn2 = engine.Knn(q, 5);
  ASSERT_TRUE(nn1.ok() && nn2.ok());
  ExpectSameMatches(nn1.value().matches, nn2.value().matches);

  const auto stats = engine.cache()->Stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.stores, 3u);

  // And the cached answers match an uncached engine exactly.
  SimilarityEngine plain(datagen::MakeUniform(400, 6, 11));
  ExpectSameMatches(km2.value().matches,
                    plain.KnMatch(q, 3, 5).value().matches);
  ExpectSameFrequent(fr2.value(),
                     plain.FrequentKnMatch(q, 2, 5, 4).value());
  ExpectSameMatches(nn2.value().matches, plain.Knn(q, 5).value().matches);
}

TEST(CacheEngineTest, WeightedQueriesKeyOnTheirWeights) {
  SimilarityEngine engine(datagen::MakeUniform(300, 4, 12));
  engine.EnableCache();
  const std::vector<Value> q{0.3, 0.6, 0.2, 0.8};
  const std::vector<Value> w{2.0, 1.0, 1.0, 0.5};
  const auto plain = engine.KnMatch(q, 2, 4);
  const auto weighted = engine.KnMatch(q, 2, 4, w);
  ASSERT_TRUE(plain.ok() && weighted.ok());
  EXPECT_EQ(engine.cache()->Stats().hits, 0u);  // distinct keys
  const auto weighted_again = engine.KnMatch(q, 2, 4, w);
  ASSERT_TRUE(weighted_again.ok());
  EXPECT_EQ(engine.cache()->Stats().hits, 1u);
  ExpectSameMatches(weighted.value().matches,
                    weighted_again.value().matches);
}

TEST(CacheEngineTest, BatchSharesTheCacheWithSequentialCalls) {
  SimilarityEngine engine(datagen::MakeUniform(500, 5, 13));
  engine.EnableCache();
  exec::BatchRequest request;
  Rng rng(99);
  for (int i = 0; i < 12; ++i) {
    std::vector<Value> q(5);
    for (Value& v : q) v = rng.Uniform01();
    request.queries.push_back(std::move(q));
  }
  request.options.threads = 2;
  request.options.allow_oversubscription = true;

  const auto cold = engine.KnMatchBatch(request, 3, 4);
  ASSERT_TRUE(cold.ok());
  const uint64_t stores = engine.cache()->Stats().stores;
  EXPECT_EQ(stores, 12u);

  // The whole second batch is served from cache...
  const auto warm = engine.KnMatchBatch(request, 3, 4);
  ASSERT_TRUE(warm.ok());
  EXPECT_GE(engine.cache()->Stats().hits, 12u);
  for (size_t i = 0; i < request.queries.size(); ++i) {
    ExpectSameMatches(cold.value().results[i].matches,
                      warm.value().results[i].matches);
  }
  // ...and a sequential call sees the batch's entries.
  const auto seq = engine.KnMatch(request.queries[0], 3, 4);
  ASSERT_TRUE(seq.ok());
  ExpectSameMatches(seq.value().matches, cold.value().results[0].matches);
}

// ---------------------------------------------------------------------------
// CacheInvalidationTest: precision of the two mutation hooks.

TEST(CacheInvalidationTest, EraseEvictsExactlyTheEntriesContainingThePid) {
  QueryResultCache cache;
  cache.StoreKnMatch(1, V({0.1}),1, 2, {}, MakeResult({{5, 0.1}, {9, 0.2}}));
  cache.StoreKnMatch(1, V({0.2}),1, 2, {}, MakeResult({{9, 0.1}, {3, 0.2}}));
  cache.StoreKnMatch(1, V({0.3}),1, 2, {}, MakeResult({{3, 0.1}, {4, 0.2}}));

  cache.OnPointErased(9);  // in entries 1 and 2, not 3
  EXPECT_FALSE(cache.LookupKnMatch(1, V({0.1}),1, 2, {}).has_value());
  EXPECT_FALSE(cache.LookupKnMatch(1, V({0.2}),1, 2, {}).has_value());
  EXPECT_TRUE(cache.LookupKnMatch(1, V({0.3}),1, 2, {}).has_value());
  EXPECT_EQ(cache.Stats().invalidated_erase, 2u);

  cache.OnPointErased(12345);  // in no entry: nothing changes
  EXPECT_EQ(cache.Stats().invalidated_erase, 2u);
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(CacheInvalidationTest, InsertEvictsOnlyEntriesTheNewPointCouldEnter) {
  QueryResultCache cache;
  // Entry A: query at 0.1, k-th best difference 0.05.
  cache.StoreKnMatch(1, V({0.1, 0.1}),1, 2, {},
                     MakeResult({{5, 0.02}, {9, 0.05}}));
  // Entry B: query at 0.9, k-th best difference 0.04.
  cache.StoreKnMatch(1, V({0.9, 0.9}),1, 2, {},
                     MakeResult({{2, 0.01}, {7, 0.04}}));

  // A point near A's query (1-match dif 0.03 <= 0.05) but far from B's
  // (1-match dif 0.77 > 0.04): A must go, B must stay.
  cache.OnPointInserted(100, std::vector<Value>{0.13, 0.8});
  EXPECT_FALSE(cache.LookupKnMatch(1, V({0.1, 0.1}),1, 2, {}).has_value());
  EXPECT_TRUE(cache.LookupKnMatch(1, V({0.9, 0.9}),1, 2, {}).has_value());
  EXPECT_EQ(cache.Stats().invalidated_insert, 1u);

  // A point outside every entry's threshold evicts nothing.
  cache.OnPointInserted(101, std::vector<Value>{0.5, 0.5});
  EXPECT_TRUE(cache.LookupKnMatch(1, V({0.9, 0.9}),1, 2, {}).has_value());
  EXPECT_EQ(cache.Stats().invalidated_insert, 1u);
}

TEST(CacheInvalidationTest, BoundaryTieEvictsWithoutAGuardBand) {
  QueryResultCache cache;
  cache.StoreKnMatch(1, V({0.5}),1, 1, {}, MakeResult({{3, 0.25}}));
  // 1-match difference exactly equal to the k-th best: could tie into
  // the answer set, so the <= test must evict.
  cache.OnPointInserted(50, std::vector<Value>{0.75});
  EXPECT_FALSE(cache.LookupKnMatch(1, V({0.5}),1, 1, {}).has_value());
}

TEST(CacheInvalidationTest, EngineInsertKeepsUnaffectedEntriesWarm) {
  SimilarityEngine engine(datagen::MakeUniform(500, 4, 42));
  engine.EnableCache();
  const std::vector<Value> qa{0.1, 0.1, 0.1, 0.1};
  const std::vector<Value> qb{0.9, 0.9, 0.9, 0.9};
  ASSERT_TRUE(engine.KnMatch(qa, 2, 3).ok());
  ASSERT_TRUE(engine.KnMatch(qb, 2, 3).ok());

  // Insert right on top of qa: its entry must be invalidated; qb's
  // entry (2-match difference ~0.8 away) must survive.
  engine.InsertPoint(std::vector<Value>{0.1, 0.1, 0.1, 0.1});
  EXPECT_EQ(engine.cache()->Stats().invalidated_insert, 1u);
  EXPECT_EQ(engine.cache()->Stats().entries, 1u);

  // Both queries must now agree exactly with an uncached engine over
  // the mutated dataset — qa recomputed, qb served from cache.
  SimilarityEngine mirror(datagen::MakeUniform(500, 4, 42));
  mirror.InsertPoint(std::vector<Value>{0.1, 0.1, 0.1, 0.1});
  const auto ra = engine.KnMatch(qa, 2, 3);
  const auto rb = engine.KnMatch(qb, 2, 3);
  ASSERT_TRUE(ra.ok() && rb.ok());
  ExpectSameMatches(ra.value().matches,
                    mirror.KnMatch(qa, 2, 3).value().matches);
  ExpectSameMatches(rb.value().matches,
                    mirror.KnMatch(qb, 2, 3).value().matches);
}

TEST(CacheInvalidationTest, BTreeBridgeTranslatesTreeMutations) {
  QueryResultCache cache;
  cache.StoreKnMatch(1, V({0.1, 0.1}),1, 2, {},
                     MakeResult({{5, 0.02}, {9, 0.05}}));
  cache.StoreKnMatch(1, V({0.9, 0.9}),1, 2, {},
                     MakeResult({{2, 0.01}, {7, 0.04}}));

  DiskSimulator disk;
  BPlusTree dim0(&disk);
  BPlusTree dim1(&disk);
  cache::BTreeCacheBridge bridge(&cache, 2);
  dim0.set_mutation_listener(bridge.ListenerFor(0));
  dim1.set_mutation_listener(bridge.ListenerFor(1));

  // Inserting pid 100 at (0.12, 0.11) — inside the first entry's
  // threshold — fires OnPointInserted once BOTH dimensions landed.
  ASSERT_TRUE(dim0.Insert(ColumnEntry{0.12, 100}).ok());
  EXPECT_EQ(cache.Stats().invalidated_insert, 0u);  // coords incomplete
  ASSERT_TRUE(dim1.Insert(ColumnEntry{0.11, 100}).ok());
  EXPECT_EQ(cache.Stats().invalidated_insert, 1u);
  EXPECT_FALSE(cache.LookupKnMatch(1, V({0.1, 0.1}),1, 2, {}).has_value());
  EXPECT_TRUE(cache.LookupKnMatch(1, V({0.9, 0.9}),1, 2, {}).has_value());

  // Erasing an answer pid of the surviving entry evicts it on the
  // first per-dimension erase.
  ASSERT_TRUE(dim0.Erase(ColumnEntry{0.5, 7}).ok());  // not present: no-op
  EXPECT_EQ(cache.Stats().invalidated_erase, 0u);
  ASSERT_TRUE(dim0.Insert(ColumnEntry{0.5, 7}).ok());  // evicts nothing new
  ASSERT_TRUE(dim0.Erase(ColumnEntry{0.5, 7}).value());
  EXPECT_FALSE(cache.LookupKnMatch(1, V({0.9, 0.9}),1, 2, {}).has_value());
  EXPECT_GE(cache.Stats().invalidated_erase, 1u);

  dim0.set_mutation_listener(nullptr);
  dim1.set_mutation_listener(nullptr);
}

// ---------------------------------------------------------------------------
// CacheWarmStartTest: the differential bit-identity guarantee.

TEST(CacheWarmStartTest, WarmAnswersAreBitIdenticalToColdRuns) {
  const Dataset db = datagen::MakeUniform(2000, 8, 21);
  SimilarityEngine cached(datagen::MakeUniform(2000, 8, 21));
  SimilarityEngine cold(datagen::MakeUniform(2000, 8, 21));
  CacheConfig config;
  config.warm_radius = 0.05;
  cached.EnableCache(config);

  const uint64_t warm_before = obs::Cat().cache_warm_hits->Value();
  Rng rng(7);
  size_t compared = 0;
  for (int round = 0; round < 20; ++round) {
    // Seed query: a database point; probe query: a nearby perturbation
    // within the warm radius.
    const auto p = db.point(rng.UniformInt(db.size()));
    std::vector<Value> q(p.begin(), p.end());
    ASSERT_TRUE(cached.KnMatch(q, 4, 5).ok());
    std::vector<Value> probe = q;
    for (Value& v : probe) {
      v = std::clamp(v + rng.Uniform(-0.02, 0.02), 0.0, 1.0);
    }
    const auto warm = cached.KnMatch(probe, 4, 5);
    const auto reference = cold.KnMatch(probe, 4, 5);
    ASSERT_TRUE(warm.ok() && reference.ok());
    ExpectSameMatches(warm.value().matches, reference.value().matches);
    ++compared;

    const auto fwarm = cached.FrequentKnMatch(probe, 3, 6, 5);
    const auto fref = cold.FrequentKnMatch(probe, 3, 6, 5);
    ASSERT_TRUE(fwarm.ok() && fref.ok());
    ExpectSameFrequent(fwarm.value(), fref.value());
  }
  EXPECT_EQ(compared, 20u);
  if (obs::Enabled()) {
    // On continuous uniform data ties are measure-zero: the seeded
    // path must have actually served some of these probes.
    EXPECT_GT(obs::Cat().cache_warm_hits->Value(), warm_before);
  }
}

TEST(CacheWarmStartTest, QuantizedTiesFallBackToColdAndStayCorrect) {
  // Coordinates on a coarse grid make equal differences common; the
  // seeded path must refuse those (returning the cold answer) rather
  // than guess at the kernel's pop order.
  Dataset db = datagen::MakeUniform(600, 4, 31);
  Matrix quantized(db.size(), db.dims());
  for (size_t r = 0; r < db.size(); ++r) {
    const auto p = db.point(r);
    for (size_t c = 0; c < db.dims(); ++c) {
      quantized.at(r, c) = std::round(p[c] * 8.0) / 8.0;
    }
  }
  Dataset qdb(quantized);
  SimilarityEngine cached{Dataset(quantized)};
  SimilarityEngine cold{Dataset(quantized)};
  CacheConfig config;
  config.warm_radius = 0.3;
  cached.EnableCache(config);

  Rng rng(17);
  for (int round = 0; round < 15; ++round) {
    const auto p = qdb.point(rng.UniformInt(qdb.size()));
    std::vector<Value> q(p.begin(), p.end());
    ASSERT_TRUE(cached.KnMatch(q, 2, 4).ok());
    std::vector<Value> probe = q;
    probe[rng.UniformInt(probe.size())] += 0.125;  // stays on-grid
    const auto warm = cached.KnMatch(probe, 2, 4);
    const auto reference = cold.KnMatch(probe, 2, 4);
    ASSERT_TRUE(warm.ok() && reference.ok());
    ExpectSameMatches(warm.value().matches, reference.value().matches);
  }
}

// ---------------------------------------------------------------------------
// CacheSoakTest: interleaved updates and queries never serve stale.

TEST(CacheSoakTest, RandomInterleavedUpdatesNeverServeStaleAnswers) {
  SimilarityEngine cached(datagen::MakeUniform(300, 4, 55));
  SimilarityEngine mirror(datagen::MakeUniform(300, 4, 55));
  CacheConfig config;
  config.warm_radius = 0.04;
  cached.EnableCache(config);

  Rng rng(123);
  // A small query pool so repeats (and therefore hits) are common.
  std::vector<std::vector<Value>> pool;
  for (int i = 0; i < 8; ++i) {
    std::vector<Value> q(4);
    for (Value& v : q) v = rng.Uniform01();
    pool.push_back(std::move(q));
  }

  for (int step = 0; step < 60; ++step) {
    if (rng.Bernoulli(0.3)) {
      std::vector<Value> coords(4);
      for (Value& v : coords) v = rng.Uniform01();
      cached.InsertPoint(coords);
      mirror.InsertPoint(coords);
    }
    const auto& q = pool[rng.UniformInt(pool.size())];
    if (rng.Bernoulli(0.5)) {
      const auto a = cached.KnMatch(q, 2, 5);
      const auto b = mirror.KnMatch(q, 2, 5);
      ASSERT_TRUE(a.ok() && b.ok());
      ExpectSameMatches(a.value().matches, b.value().matches);
    } else {
      const auto a = cached.FrequentKnMatch(q, 2, 4, 5);
      const auto b = mirror.FrequentKnMatch(q, 2, 4, 5);
      ASSERT_TRUE(a.ok() && b.ok());
      ExpectSameFrequent(a.value(), b.value());
    }
  }
  // The soak must actually have exercised the cache.
  EXPECT_GT(cached.cache()->Stats().hits + cached.cache()->Stats().stores,
            0u);
}

// ---------------------------------------------------------------------------
// CacheConcurrencyTest: for the TSan gate.

TEST(CacheConcurrencyTest, ConcurrentLookupsStoresAndInvalidations) {
  QueryResultCache cache;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&cache, &stop, t] {
      Rng rng(1000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::vector<Value> q{rng.Uniform01(), rng.Uniform01()};
        if (rng.Bernoulli(0.5)) {
          cache.StoreKnMatch(
              1, q, 1, 2, {},
              MakeResult(
                  {{static_cast<PointId>(rng.UniformInt(50)), 0.1},
                   {static_cast<PointId>(rng.UniformInt(50) + 50), 0.2}}));
        } else {
          (void)cache.LookupKnMatch(1, q, 1, 2, {});
        }
      }
    });
  }
  threads.emplace_back([&cache, &stop] {
    Rng rng(2000);
    while (!stop.load(std::memory_order_relaxed)) {
      cache.OnPointErased(rng.UniformInt(100));
      cache.OnPointInserted(
          rng.UniformInt(100) + 200,
          std::vector<Value>{rng.Uniform01(), rng.Uniform01()});
      (void)cache.Stats();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  // The structure must still be coherent after the hammer.
  cache.Clear();
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST(CacheConcurrencyTest, ConcurrentEngineQueriesShareTheCache) {
  SimilarityEngine engine(datagen::MakeUniform(400, 4, 77));
  engine.EnableCache();
  std::vector<std::vector<Value>> pool;
  Rng rng(3);
  for (int i = 0; i < 6; ++i) {
    std::vector<Value> q(4);
    for (Value& v : q) v = rng.Uniform01();
    pool.push_back(std::move(q));
  }
  std::vector<std::thread> threads;
  std::atomic<bool> all_ok{true};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&engine, &pool, &all_ok, t] {
      for (int i = 0; i < 25; ++i) {
        const auto& q = pool[(t + i) % pool.size()];
        if (!engine.KnMatch(q, 2, 5).ok()) all_ok = false;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(all_ok);
  EXPECT_GT(engine.cache()->Stats().hits, 0u);
}

}  // namespace
}  // namespace knmatch
