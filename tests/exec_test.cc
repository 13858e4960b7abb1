// Tests for the query-execution subsystem: the fixed thread pool, the
// per-worker AdScratch arena, the flat cursor heap, the batch entry
// points on SimilarityEngine, and the engine's concurrent-query
// contract. The determinism tests are the load-bearing ones: batch
// answers must be bit-for-bit identical to sequential per-query
// answers, for every thread count, run after run.

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "knmatch/common/random.h"
#include "knmatch/core/ad_scratch.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/engine.h"
#include "knmatch/eval/experiment.h"
#include "knmatch/exec/thread_pool.h"

namespace knmatch {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  exec::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  std::atomic<bool> worker_in_range{true};
  pool.ParallelFor(kCount, [&](size_t worker, size_t i) {
    if (worker >= 4) worker_in_range = false;
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_TRUE(worker_in_range);
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInlineOnCaller) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  size_t ran = 0;
  bool on_caller = true;
  pool.ParallelFor(17, [&](size_t worker, size_t /*i*/) {
    if (std::this_thread::get_id() != caller || worker != 0) {
      on_caller = false;
    }
    ++ran;  // safe: inline execution is single-threaded
  });
  EXPECT_TRUE(on_caller);
  EXPECT_EQ(ran, 17u);
}

TEST(ThreadPoolTest, ReusableAcrossManyDispatches) {
  exec::ThreadPool pool(3);
  std::atomic<size_t> total{0};
  for (size_t round = 0; round < 50; ++round) {
    pool.ParallelFor(round, [&](size_t, size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50u * 49u / 2);
}

TEST(ThreadPoolTest, ConcurrentCallersEachRunTheirOwnJob) {
  // One pool shared by several calling threads, as the shard router's
  // fan-out pool is by concurrent queries. Each call must run exactly
  // its own indices, each once, before it returns.
  exec::ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr size_t kRounds = 60;
  std::atomic<int> bad_calls{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (size_t round = 0; round < kRounds; ++round) {
        const size_t count = 50 + 13 * static_cast<size_t>(c) + round;
        std::vector<std::atomic<int>> hits(count);
        std::atomic<bool> in_range{true};
        auto hit = [&](size_t i) {
          if (i >= count) {
            in_range = false;
            return;
          }
          hits[i].fetch_add(1, std::memory_order_relaxed);
        };
        if ((round + static_cast<size_t>(c)) % 2 == 0) {
          pool.ParallelFor(count, [&](size_t, size_t i) { hit(i); });
        } else {
          pool.ParallelForChunked(count, 3,
                                  [&](size_t, size_t begin, size_t end) {
                                    for (size_t i = begin; i < end; ++i) {
                                      hit(i);
                                    }
                                  });
        }
        bool exact = in_range.load();
        for (size_t i = 0; i < count; ++i) {
          if (hits[i].load() != 1) exact = false;
        }
        if (!exact) bad_calls.fetch_add(1);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(bad_calls.load(), 0);
}

TEST(ThreadPoolTest, ResolveThreadsMapsZeroToHardware) {
  const size_t hw = exec::ResolveThreads(0);
  EXPECT_GE(hw, 1u);
  // Default: explicit requests are clamped to the hardware thread count
  // (oversubscribing a CPU-bound pool only adds context switches).
  EXPECT_EQ(exec::ResolveThreads(5), std::min<size_t>(5, hw));
  EXPECT_EQ(exec::ResolveThreads(100000), std::min<size_t>(256, hw));
  // The documented override takes the request literally (up to 256).
  EXPECT_EQ(exec::ResolveThreads(5, /*allow_oversubscription=*/true), 5u);
  EXPECT_EQ(exec::ResolveThreads(100000, /*allow_oversubscription=*/true),
            256u);
}

// ---------------------------------------------------------------------------
// AdCursorHeap

TEST(AdCursorHeapTest, PopsInAscendingDifferenceThenSlotOrder) {
  internal::AdCursorHeap heap;
  heap.Reset(16);
  ASSERT_TRUE(heap.empty());
  // Includes a tie on dif (0.25) that must break by slot.
  const std::vector<std::pair<Value, uint32_t>> items = {
      {0.5, 3}, {0.25, 7}, {0.75, 1}, {0.25, 2}, {0.0, 9},
      {1.5, 0}, {0.125, 4}, {0.625, 6}, {0.25, 5}, {2.0, 8}};
  for (const auto& [dif, slot] : items) {
    heap.Push(internal::AdHeapItem{dif, slot, ColumnEntry{dif, slot}});
  }
  EXPECT_EQ(heap.size(), items.size());
  std::vector<std::pair<Value, uint32_t>> popped;
  while (!heap.empty()) {
    popped.emplace_back(heap.top().dif, heap.top().slot);
    heap.Pop();
  }
  auto sorted = items;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(popped, sorted);
}

TEST(AdCursorHeapTest, ResetReusesStorageAcrossQueries) {
  internal::AdCursorHeap heap;
  for (int round = 0; round < 3; ++round) {
    heap.Reset(4);
    for (uint32_t s = 0; s < 4; ++s) {
      heap.Push(internal::AdHeapItem{Value(4 - s), s, {}});
    }
    Value prev = -1;
    while (!heap.empty()) {
      EXPECT_GT(heap.top().dif, prev);
      prev = heap.top().dif;
      heap.Pop();
    }
  }
}

// ---------------------------------------------------------------------------
// AdScratch reuse

TEST(AdScratchTest, ReusedScratchGivesIdenticalAnswers) {
  const Dataset db = datagen::MakeUniform(500, 6, 991);
  const AdSearcher searcher(db);
  internal::AdScratch scratch;
  for (size_t qi = 0; qi < 40; ++qi) {
    std::vector<Value> q(db.point(qi * 7 % db.size()).begin(),
                         db.point(qi * 7 % db.size()).end());
    auto fresh = searcher.KnMatch(q, 3, 8);
    auto reused = searcher.KnMatch(q, 3, 8, {}, &scratch);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(reused.ok());
    EXPECT_EQ(fresh.value().matches, reused.value().matches);
    EXPECT_EQ(fresh.value().attributes_retrieved,
              reused.value().attributes_retrieved);

    auto ffresh = searcher.FrequentKnMatch(q, 2, 5, 8);
    auto freused = searcher.FrequentKnMatch(q, 2, 5, 8, {}, &scratch);
    ASSERT_TRUE(ffresh.ok());
    ASSERT_TRUE(freused.ok());
    EXPECT_EQ(ffresh.value().matches, freused.value().matches);
    EXPECT_EQ(ffresh.value().frequencies, freused.value().frequencies);
    EXPECT_EQ(ffresh.value().per_n_sets, freused.value().per_n_sets);
  }
}

TEST(AdScratchTest, OneScratchServesDatasetsOfDifferentShapes) {
  // The arena grows to the largest shape seen and keeps serving
  // smaller ones; alternating shapes exercises Prepare's epoch logic.
  const Dataset small = datagen::MakeUniform(120, 4, 5);
  const Dataset large = datagen::MakeUniform(800, 10, 6);
  const AdSearcher s_small(small);
  const AdSearcher s_large(large);
  internal::AdScratch scratch;
  for (size_t round = 0; round < 10; ++round) {
    std::vector<Value> qs(small.point(round).begin(),
                          small.point(round).end());
    std::vector<Value> ql(large.point(round).begin(),
                          large.point(round).end());
    auto rs = s_small.KnMatch(qs, 2, 5, {}, &scratch);
    auto rl = s_large.KnMatch(ql, 6, 5, {}, &scratch);
    ASSERT_TRUE(rs.ok());
    ASSERT_TRUE(rl.ok());
    EXPECT_EQ(rs.value().matches, s_small.KnMatch(qs, 2, 5).value().matches);
    EXPECT_EQ(rl.value().matches, s_large.KnMatch(ql, 6, 5).value().matches);
  }
}

// ---------------------------------------------------------------------------
// Batch determinism

std::vector<std::vector<Value>> MixedQueries(const Dataset& db,
                                             size_t count) {
  // Half dataset points (selective queries), half uniform random
  // vectors (unselective) — both classes must be deterministic.
  std::vector<std::vector<Value>> queries;
  for (const PointId pid : eval::SampleQueryPids(db, count / 2, 77)) {
    auto p = db.point(pid);
    queries.emplace_back(p.begin(), p.end());
  }
  Rng rng(123);
  while (queries.size() < count) {
    std::vector<Value> q(db.dims());
    for (Value& v : q) v = rng.Uniform01();
    queries.push_back(std::move(q));
  }
  return queries;
}

TEST(BatchDeterminismTest, KnMatchBatchMatchesSequentialAtEveryThreadCount) {
  SimilarityEngine engine(datagen::MakeUniform(2000, 8, 321));
  exec::BatchRequest request;
  request.queries = MixedQueries(engine.dataset(), 48);

  std::vector<KnMatchResult> sequential;
  uint64_t total_attrs = 0;
  for (const auto& q : request.queries) {
    auto r = engine.KnMatch(q, 4, 10);
    ASSERT_TRUE(r.ok());
    total_attrs += r.value().attributes_retrieved;
    sequential.push_back(std::move(r).value());
  }

  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    request.options.threads = threads;
    request.options.allow_oversubscription = true;
    for (int run = 0; run < 2; ++run) {  // run-to-run determinism too
      auto batch = engine.KnMatchBatch(request, 4, 10);
      ASSERT_TRUE(batch.ok()) << "threads=" << threads;
      ASSERT_EQ(batch.value().results.size(), sequential.size());
      EXPECT_EQ(batch.value().attributes_retrieved, total_attrs);
      for (size_t i = 0; i < sequential.size(); ++i) {
        EXPECT_EQ(batch.value().results[i].matches, sequential[i].matches)
            << "threads=" << threads << " run=" << run << " query=" << i;
        EXPECT_EQ(batch.value().results[i].attributes_retrieved,
                  sequential[i].attributes_retrieved);
      }
    }
  }
}

TEST(BatchDeterminismTest, FrequentKnMatchBatchMatchesSequential) {
  SimilarityEngine engine(datagen::MakeUniform(1500, 8, 654));
  exec::BatchRequest request;
  request.queries = MixedQueries(engine.dataset(), 32);

  std::vector<FrequentKnMatchResult> sequential;
  for (const auto& q : request.queries) {
    auto r = engine.FrequentKnMatch(q, 2, 6, 10);
    ASSERT_TRUE(r.ok());
    sequential.push_back(std::move(r).value());
  }

  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    request.options.threads = threads;
    request.options.allow_oversubscription = true;
    auto batch = engine.FrequentKnMatchBatch(request, 2, 6, 10);
    ASSERT_TRUE(batch.ok()) << "threads=" << threads;
    ASSERT_EQ(batch.value().results.size(), sequential.size());
    for (size_t i = 0; i < sequential.size(); ++i) {
      const auto& b = batch.value().results[i];
      EXPECT_EQ(b.matches, sequential[i].matches) << "query " << i;
      EXPECT_EQ(b.frequencies, sequential[i].frequencies);
      EXPECT_EQ(b.per_n_sets, sequential[i].per_n_sets);
      EXPECT_EQ(b.attributes_retrieved, sequential[i].attributes_retrieved);
    }
  }
}

TEST(BatchDeterminismTest, KnnBatchMatchesSequential) {
  SimilarityEngine engine(datagen::MakeUniform(1200, 6, 987));
  exec::BatchRequest request;
  request.queries = MixedQueries(engine.dataset(), 24);

  std::vector<KnMatchResult> sequential;
  for (const auto& q : request.queries) {
    auto r = engine.Knn(q, 7);
    ASSERT_TRUE(r.ok());
    sequential.push_back(std::move(r).value());
  }

  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    request.options.threads = threads;
    request.options.allow_oversubscription = true;
    auto batch = engine.KnnBatch(request, 7);
    ASSERT_TRUE(batch.ok()) << "threads=" << threads;
    ASSERT_EQ(batch.value().results.size(), sequential.size());
    for (size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(batch.value().results[i].matches, sequential[i].matches)
          << "query " << i;
    }
  }
}

TEST(BatchDeterminismTest, WeightedBatchMatchesWeightedSequential) {
  SimilarityEngine engine(datagen::MakeUniform(600, 5, 42));
  const std::vector<Value> weights = {1.0, 2.0, 0.5, 3.0, 1.5};
  exec::BatchRequest request;
  request.queries = MixedQueries(engine.dataset(), 16);
  request.options.threads = 4;
  request.options.allow_oversubscription = true;

  auto batch = engine.KnMatchBatch(request, 3, 6, weights);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < request.queries.size(); ++i) {
    auto r = engine.KnMatch(request.queries[i], 3, 6, weights);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(batch.value().results[i].matches, r.value().matches);
  }
}

// ---------------------------------------------------------------------------
// Batch validation & lifecycle

TEST(BatchValidationTest, RejectsBadQueryUpFrontNamingItsIndex) {
  SimilarityEngine engine(datagen::MakeUniform(100, 4, 1));
  exec::BatchRequest request;
  request.queries = {std::vector<Value>(4, 0.5), std::vector<Value>(3, 0.5)};
  auto r = engine.KnMatchBatch(request, 2, 5);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("query 1"), std::string::npos)
      << r.status().message();

  // Shared parameters are validated too.
  request.queries.pop_back();
  EXPECT_FALSE(engine.KnMatchBatch(request, 9, 5).ok());
  EXPECT_FALSE(engine.KnMatchBatch(request, 2, 500).ok());
  std::vector<Value> bad_weights(4, -1.0);
  EXPECT_FALSE(engine.KnMatchBatch(request, 2, 5, bad_weights).ok());
}

TEST(BatchValidationTest, EmptyBatchSucceedsWithNoResults) {
  SimilarityEngine engine(datagen::MakeUniform(100, 4, 2));
  exec::BatchRequest request;
  auto r = engine.FrequentKnMatchBatch(request, 1, 3, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().results.empty());
  EXPECT_EQ(r.value().attributes_retrieved, 0u);
}

TEST(BatchLifecycleTest, BatchWorksAcrossInsertPointInvalidation) {
  SimilarityEngine engine(datagen::MakeUniform(300, 4, 3));
  exec::BatchRequest request;
  request.queries = MixedQueries(engine.dataset(), 8);
  request.options.threads = 2;
  request.options.allow_oversubscription = true;

  auto before = engine.KnMatchBatch(request, 2, 5);
  ASSERT_TRUE(before.ok());

  engine.InsertPoint(std::vector<Value>(4, 0.5));
  auto after = engine.KnMatchBatch(request, 2, 5);
  ASSERT_TRUE(after.ok());
  // The rebuilt index covers the new point; answers may legitimately
  // differ, but each must equal its sequential counterpart.
  for (size_t i = 0; i < request.queries.size(); ++i) {
    EXPECT_EQ(after.value().results[i].matches,
              engine.KnMatch(request.queries[i], 2, 5).value().matches);
  }
}

TEST(BatchLifecycleTest, ChangingThreadCountRebuildsPoolTransparently) {
  SimilarityEngine engine(datagen::MakeUniform(400, 6, 4));
  exec::BatchRequest request;
  request.queries = MixedQueries(engine.dataset(), 12);
  std::vector<Neighbor> reference;
  for (const size_t threads : {2u, 8u, 1u, 4u, 2u}) {
    request.options.threads = threads;
    request.options.allow_oversubscription = true;
    auto r = engine.KnMatchBatch(request, 3, 5);
    ASSERT_TRUE(r.ok());
    if (reference.empty()) {
      reference = r.value().results[0].matches;
    } else {
      EXPECT_EQ(r.value().results[0].matches, reference);
    }
  }
}

// ---------------------------------------------------------------------------
// Engine concurrency (the call_once contract; run under TSan by
// scripts/check_tsan.sh)

TEST(EngineConcurrencyTest, ConcurrentFirstQueriesRaceOnlyOnCallOnce) {
  SimilarityEngine engine(datagen::MakeUniform(800, 6, 5));
  std::vector<Value> q(engine.dataset().point(11).begin(),
                       engine.dataset().point(11).end());
  const auto expected = engine.KnMatch(q, 3, 5);  // warm reference
  ASSERT_TRUE(expected.ok());

  SimilarityEngine cold(datagen::MakeUniform(800, 6, 5));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        auto r = cold.KnMatch(q, 3, 5);       // first calls race EnsureAd
        auto f = cold.FrequentKnMatch(q, 2, 4, 5);
        auto s = cold.Knn(q, 5);
        if (!r.ok() || !f.ok() || !s.ok() ||
            r.value().matches != expected.value().matches) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(EngineConcurrencyTest, ConcurrentBatchCallsSerializeSafely) {
  SimilarityEngine engine(datagen::MakeUniform(500, 6, 6));
  exec::BatchRequest request;
  request.queries = MixedQueries(engine.dataset(), 16);
  request.options.threads = 2;
  request.options.allow_oversubscription = true;
  auto reference = engine.KnMatchBatch(request, 3, 5);
  ASSERT_TRUE(reference.ok());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 4; ++i) {
        auto r = engine.KnMatchBatch(request, 3, 5);
        if (!r.ok() ||
            r.value().results[0].matches !=
                reference.value().results[0].matches) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(EngineConcurrencyTest, ConcurrentDiskQueriesReportTheirOwnMethod) {
  // One thread per explicit disk method, all on one cold engine (so the
  // threads also race its first page reads). Each call's DiskReport must
  // name its own method, and every answer must equal the same query run
  // alone on a twin engine.
  SimilarityEngine engine(datagen::MakeUniform(600, 6, 7));
  SimilarityEngine twin(datagen::MakeUniform(600, 6, 7));
  using Method = SimilarityEngine::DiskMethod;
  const Method methods[] = {Method::kScan, Method::kAd, Method::kVaFile,
                            Method::kMemoryAd};
  const std::vector<std::vector<Value>> queries =
      MixedQueries(engine.dataset(), 12);
  std::vector<std::vector<FrequentKnMatchResult>> alone(std::size(methods));
  for (size_t m = 0; m < std::size(methods); ++m) {
    for (const auto& q : queries) {
      auto r = twin.DiskFrequentKnMatch(q, 2, 4, 5, methods[m]);
      ASSERT_TRUE(r.ok());
      alone[m].push_back(std::move(r.value()));
    }
  }

  std::atomic<int> wrong_method{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t m = 0; m < std::size(methods); ++m) {
    threads.emplace_back([&, m] {
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          SimilarityEngine::DiskReport report;
          auto r = engine.DiskFrequentKnMatch(queries[i], 2, 4, 5, methods[m],
                                              nullptr, &report);
          if (report.method != methods[m] || !report.fallback.empty()) {
            wrong_method.fetch_add(1);
          }
          const FrequentKnMatchResult& want = alone[m][i];
          if (!r.ok() || r.value().matches != want.matches ||
              r.value().frequencies != want.frequencies ||
              r.value().per_n_sets != want.per_n_sets) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong_method.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// Chunked dispatch and duplicate collapse

TEST(ThreadPoolTest, ChunkedRunsEveryIndexOnceForAnyGrain) {
  exec::ThreadPool pool(4);
  constexpr size_t kCount = 997;  // prime: exercises the short tail chunk
  for (const size_t grain : {size_t{1}, size_t{7}, size_t{64}, size_t{2000}}) {
    std::vector<std::atomic<int>> hits(kCount);
    bool ranges_ok = true;
    pool.ParallelForChunked(kCount, grain,
                            [&](size_t /*worker*/, size_t begin, size_t end) {
                              if (end <= begin || end > kCount) {
                                ranges_ok = false;
                              }
                              for (size_t i = begin; i < end; ++i) {
                                hits[i].fetch_add(1, std::memory_order_relaxed);
                              }
                            });
    EXPECT_TRUE(ranges_ok) << "grain " << grain;
    for (size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "grain " << grain << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ChunkedZeroWorkerPoolRunsInline) {
  exec::ThreadPool pool(0);
  size_t ran = 0;
  pool.ParallelForChunked(10, 3, [&](size_t worker, size_t begin, size_t end) {
    EXPECT_EQ(worker, 0u);
    ran += end - begin;
  });
  EXPECT_EQ(ran, 10u);
}

TEST(BatchDedupTest, DuplicateQueriesCollapseToOneExecution) {
  SimilarityEngine engine(datagen::MakeUniform(400, 4, 91));
  exec::BatchRequest request;
  const std::vector<Value> hot{0.2, 0.4, 0.6, 0.8};
  const std::vector<Value> other{0.7, 0.1, 0.3, 0.9};
  // 6 copies of `hot` interleaved with 2 distinct queries.
  request.queries = {hot, other, hot, hot, {0.5, 0.5, 0.5, 0.5},
                     hot, hot, hot};
  request.options.threads = 2;
  request.options.allow_oversubscription = true;

  const auto batch = engine.KnMatchBatch(request, 2, 5);
  ASSERT_TRUE(batch.ok());
  // Every duplicate slot carries the representative's exact answer.
  const auto solo = engine.KnMatch(hot, 2, 5);
  ASSERT_TRUE(solo.ok());
  for (const size_t i : {0u, 2u, 3u, 5u, 6u, 7u}) {
    EXPECT_TRUE(batch.value().results[i].matches == solo.value().matches)
        << "slot " << i;
  }
  // The batch's cost metric counts the 3 distinct executions once each.
  uint64_t distinct_cost = solo.value().attributes_retrieved;
  for (const auto& q : {other, std::vector<Value>{0.5, 0.5, 0.5, 0.5}}) {
    distinct_cost += engine.KnMatch(q, 2, 5).value().attributes_retrieved;
  }
  EXPECT_EQ(batch.value().attributes_retrieved, distinct_cost);

  // With collapsing off the answers are identical and the cost metric
  // counts every slot.
  request.options.collapse_duplicates = false;
  const auto full = engine.KnMatchBatch(request, 2, 5);
  ASSERT_TRUE(full.ok());
  for (size_t i = 0; i < request.queries.size(); ++i) {
    EXPECT_TRUE(full.value().results[i].matches ==
                batch.value().results[i].matches)
        << "slot " << i;
  }
  EXPECT_GT(full.value().attributes_retrieved,
            batch.value().attributes_retrieved);
}

TEST(BatchDedupTest, GovernanceAccountingSeesDistinctQueriesOnly) {
  SimilarityEngine engine(datagen::MakeUniform(400, 4, 92));
  exec::BatchRequest request;
  const std::vector<Value> hot{0.3, 0.6, 0.2, 0.8};
  request.queries.assign(8, hot);  // one distinct query, 8 slots
  request.options.threads = 1;
  // An attribute pool large enough for exactly one execution of `hot`:
  // collapsing must satisfy all 8 slots from that single run.
  const auto solo = engine.KnMatch(hot, 2, 4);
  ASSERT_TRUE(solo.ok());
  request.options.attribute_pool = solo.value().attributes_retrieved;

  const auto batch = engine.KnMatchBatch(request, 2, 4);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(batch.value().statuses[i].ok()) << "slot " << i;
    EXPECT_TRUE(batch.value().results[i].matches == solo.value().matches)
        << "slot " << i;
  }
  EXPECT_EQ(batch.value().attributes_retrieved,
            solo.value().attributes_retrieved);

  // Without collapsing, the same pool is exhausted after the first
  // query and the remaining slots shed.
  request.options.collapse_duplicates = false;
  const auto shed = engine.KnMatchBatch(request, 2, 4);
  ASSERT_TRUE(shed.ok());
  EXPECT_TRUE(shed.value().statuses[0].ok());
  size_t exhausted = 0;
  for (size_t i = 1; i < 8; ++i) {
    if (shed.value().statuses[i].code() == StatusCode::kResourceExhausted) {
      ++exhausted;
    }
  }
  EXPECT_EQ(exhausted, 7u);
}

TEST(BatchDedupTest, QueueDepthCapAppliesBeforeCollapse) {
  SimilarityEngine engine(datagen::MakeUniform(300, 3, 93));
  exec::BatchRequest request;
  const std::vector<Value> hot{0.5, 0.5, 0.5};
  request.queries.assign(6, hot);
  request.options.threads = 1;
  request.options.max_queue_depth = 4;  // sheds slots 4 and 5 first

  const auto batch = engine.KnMatchBatch(request, 2, 3);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(batch.value().statuses[i].ok()) << "slot " << i;
  }
  for (size_t i = 4; i < 6; ++i) {
    EXPECT_EQ(batch.value().statuses[i].code(),
              StatusCode::kResourceExhausted)
        << "slot " << i;
  }
}

TEST(BatchDedupTest, ChunkedBatchStaysDeterministicAcrossThreadCounts) {
  SimilarityEngine engine(datagen::MakeUniform(800, 6, 94));
  exec::BatchRequest request;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    std::vector<Value> q(6);
    for (Value& v : q) v = rng.Uniform01();
    request.queries.push_back(q);
    if (i % 3 == 0) request.queries.push_back(q);  // sprinkle duplicates
  }
  exec::BatchRequest seq = request;
  seq.options.threads = 1;
  const auto reference = engine.KnMatchBatch(seq, 3, 5);
  ASSERT_TRUE(reference.ok());
  for (const size_t threads : {2u, 4u, 8u}) {
    exec::BatchRequest par = request;
    par.options.threads = threads;
    par.options.allow_oversubscription = true;
    const auto got = engine.KnMatchBatch(par, 3, 5);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.value().results.size(), reference.value().results.size());
    for (size_t i = 0; i < got.value().results.size(); ++i) {
      EXPECT_TRUE(got.value().results[i].matches ==
                  reference.value().results[i].matches)
          << "threads " << threads << " slot " << i;
    }
    EXPECT_EQ(got.value().attributes_retrieved,
              reference.value().attributes_retrieved);
  }
}

}  // namespace
}  // namespace knmatch
