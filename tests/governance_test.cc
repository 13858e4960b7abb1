// In-flight query governance: deadlines, cooperative cancellation,
// resource budgets, overload shedding, and the circuit breakers behind
// kAuto routing. The Governance* suites also run under ASan/TSan (see
// scripts/check_asan.sh, check_tsan.sh).

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "knmatch.h"
#include "status_matchers.h"

namespace knmatch {
namespace {

using exec::CircuitBreaker;
using DiskMethod = SimilarityEngine::DiskMethod;

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// The 50k x 32 acceptance rig: every method must honour a 1 ms deadline
// and hand back a typed partial result within 10 ms of wall clock.

struct BigRig {
  SimilarityEngine engine;
  std::unique_ptr<DiskSimulator> disk;
  std::unique_ptr<BTreeColumns> btree_columns;
  std::vector<Value> query;

  BigRig() : engine(datagen::MakeUniform(50000, 32, 99)) {
    engine.DiskStorageStats();  // build the disk stores up front
    disk = std::make_unique<DiskSimulator>(DiskConfig());
    btree_columns =
        std::make_unique<BTreeColumns>(engine.dataset(), disk.get());
    query.assign(32, 0.5);
    // Warm every lazy structure with an ungoverned query so the timed
    // runs below measure the query, not index construction.
    (void)engine.FrequentKnMatch(query, 1, 2, 5);
    for (DiskMethod m :
         {DiskMethod::kScan, DiskMethod::kAd, DiskMethod::kVaFile}) {
      (void)engine.DiskFrequentKnMatch(query, 1, 2, 5, m);
    }
    (void)BTreeAdSearcher(*btree_columns).FrequentKnMatch(query, 1, 2, 5);
  }
};

BigRig& Rig() {
  static BigRig* rig = new BigRig();
  return *rig;
}

// The workload every method needs well over 1 ms for: the full n-range
// forces ~cardinality * dims attribute retrievals out of the AD
// methods, and the scan-shaped methods always pay c * d.
constexpr size_t kBigN0 = 1, kBigN1 = 32, kBigK = 100;

void ExpectDeadlineTrip(const Status& status, const QueryContext& ctx,
                        double elapsed_ms) {
  EXPECT_TRUE(StatusIs(status, StatusCode::kDeadlineExceeded));
  EXPECT_LT(elapsed_ms, 10.0) << "trip took too long to unwind";
  EXPECT_GT(ctx.trip().attributes_retrieved, 0u)
      << "a tripped query reports the progress it paid for";
}

TEST(GovernanceDeadlineTest, MemoryAdTripsWithinTenMilliseconds) {
  BigRig& rig = Rig();
  QueryContext ctx;
  ctx.set_deadline_in_ms(1.0);
  const auto start = std::chrono::steady_clock::now();
  auto r = rig.engine.FrequentKnMatch(rig.query, kBigN0, kBigN1, kBigK, {},
                                      &ctx);
  ExpectDeadlineTrip(r.status(), ctx, ElapsedMs(start));
  EXPECT_GT(ctx.trip().pops, 0u);
  EXPECT_EQ(ctx.trip().partial_per_n_sets.size(), kBigN1 - kBigN0 + 1);
}

TEST(GovernanceDeadlineTest, DiskAdTripsWithinTenMilliseconds) {
  BigRig& rig = Rig();
  QueryContext ctx;
  ctx.set_deadline_in_ms(1.0);
  const auto start = std::chrono::steady_clock::now();
  auto r = rig.engine.DiskFrequentKnMatch(rig.query, kBigN0, kBigN1, kBigK,
                                          DiskMethod::kAd, &ctx);
  ExpectDeadlineTrip(r.status(), ctx, ElapsedMs(start));
  EXPECT_GT(ctx.trip().pages_read, 0u);
}

TEST(GovernanceDeadlineTest, ScanTripsWithinTenMilliseconds) {
  BigRig& rig = Rig();
  QueryContext ctx;
  ctx.set_deadline_in_ms(1.0);
  const auto start = std::chrono::steady_clock::now();
  auto r = rig.engine.DiskFrequentKnMatch(rig.query, kBigN0, kBigN1, kBigK,
                                          DiskMethod::kScan, &ctx);
  ExpectDeadlineTrip(r.status(), ctx, ElapsedMs(start));
  // The scan snapshots its running top-k accumulators on the way out.
  EXPECT_EQ(ctx.trip().partial_per_n_sets.size(), kBigN1 - kBigN0 + 1);
  EXPECT_FALSE(ctx.trip().partial_per_n_sets[0].empty());
}

TEST(GovernanceDeadlineTest, VaFileTripsWithinTenMilliseconds) {
  BigRig& rig = Rig();
  QueryContext ctx;
  ctx.set_deadline_in_ms(1.0);
  const auto start = std::chrono::steady_clock::now();
  auto r = rig.engine.DiskFrequentKnMatch(rig.query, kBigN0, kBigN1, kBigK,
                                          DiskMethod::kVaFile, &ctx);
  ExpectDeadlineTrip(r.status(), ctx, ElapsedMs(start));
}

TEST(GovernanceDeadlineTest, BTreeAdTripsWithinTenMilliseconds) {
  BigRig& rig = Rig();
  BTreeAdSearcher searcher(*rig.btree_columns);
  QueryContext ctx;
  ctx.set_deadline_in_ms(1.0);
  const auto start = std::chrono::steady_clock::now();
  auto r = searcher.FrequentKnMatch(rig.query, kBigN0, kBigN1, kBigK, &ctx);
  ExpectDeadlineTrip(r.status(), ctx, ElapsedMs(start));
}

TEST(GovernanceDeadlineTest, AutoRoutedTripNeverFallsBack) {
  BigRig& rig = Rig();
  QueryContext ctx;
  ctx.set_deadline_in_ms(1.0);
  SimilarityEngine::DiskReport report;
  auto r = rig.engine.DiskFrequentKnMatch(rig.query, kBigN0, kBigN1, kBigK,
                                          DiskMethod::kAuto, &ctx, &report);
  EXPECT_TRUE(StatusIs(r.status(), StatusCode::kDeadlineExceeded));
  // The retry-amplification guard: a query that ran out of deadline is
  // surfaced, never re-run on a fallback method.
  EXPECT_TRUE(report.fallback.empty());
}

TEST(GovernanceDeadlineTest, EngineIsReusableAfterATrip) {
  BigRig& rig = Rig();
  QueryContext ctx;
  ctx.set_deadline_in_ms(1.0);
  ASSERT_FALSE(
      rig.engine
          .FrequentKnMatch(rig.query, kBigN0, kBigN1, kBigK, {}, &ctx)
          .ok());
  // Same engine, small untripped query: answers as if nothing happened.
  auto clean = rig.engine.FrequentKnMatch(rig.query, 1, 2, 5);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean.value().matches.size(), 5u);
}

// ---------------------------------------------------------------------------
// Budgets and cancellation on a small dataset.

TEST(GovernanceBudgetTest, AttributeBudgetTripsResourceExhausted) {
  SimilarityEngine engine(datagen::MakeUniform(2000, 8, 11));
  std::vector<Value> q(8, 0.4);
  QueryContext ctx;
  ctx.budgets().max_attributes = 512;
  auto r = engine.FrequentKnMatch(q, 1, 8, 50, {}, &ctx);
  EXPECT_TRUE(StatusIs(r.status(), StatusCode::kResourceExhausted));
  EXPECT_GT(ctx.trip().attributes_retrieved, 512u);
}

TEST(GovernanceBudgetTest, PageBudgetTripsOnDiskMethod) {
  SimilarityEngine engine(datagen::MakeUniform(5000, 8, 12));
  std::vector<Value> q(8, 0.4);
  QueryContext ctx;
  ctx.budgets().max_pages = 2;
  auto r = engine.DiskFrequentKnMatch(q, 1, 8, 50, DiskMethod::kScan, &ctx);
  EXPECT_TRUE(StatusIs(r.status(), StatusCode::kResourceExhausted));
  EXPECT_GT(ctx.trip().pages_read, 2u);
}

TEST(GovernanceBudgetTest, ScratchBudgetRefusesAtAdmission) {
  SimilarityEngine engine(datagen::MakeUniform(2000, 8, 13));
  std::vector<Value> q(8, 0.4);
  QueryContext ctx;
  ctx.budgets().max_scratch_bytes = 16;  // far below any real footprint
  auto r = engine.FrequentKnMatch(q, 1, 8, 10, {}, &ctx);
  EXPECT_TRUE(StatusIs(r.status(), StatusCode::kResourceExhausted));
  // Refused before any work happened.
  EXPECT_EQ(ctx.trip().attributes_retrieved, 0u);
  EXPECT_EQ(ctx.trip().pops, 0u);
}

TEST(GovernanceBudgetTest, PreSetCancelTripsUnavailable) {
  SimilarityEngine engine(datagen::MakeUniform(2000, 8, 14));
  std::vector<Value> q(8, 0.4);
  QueryContext ctx;
  auto cancel = std::make_shared<std::atomic<bool>>(true);
  ctx.set_cancel(cancel);
  auto r = engine.FrequentKnMatch(q, 1, 8, 50, {}, &ctx);
  EXPECT_TRUE(StatusIs(r.status(), StatusCode::kUnavailable));
}

TEST(GovernanceBudgetTest, KnnScanBaselineHonoursBudgets) {
  Dataset db = datagen::MakeUniform(5000, 8, 15);
  std::vector<Value> q(8, 0.4);
  QueryContext ctx;
  ctx.budgets().max_attributes = 4096;
  auto r = KnnScan(db, q, 10, Metric::kEuclidean, &ctx);
  EXPECT_TRUE(StatusIs(r.status(), StatusCode::kResourceExhausted));
  ASSERT_EQ(ctx.trip().partial_per_n_sets.size(), 1u);
  EXPECT_FALSE(ctx.trip().partial_per_n_sets[0].empty());
}

TEST(GovernanceBudgetTest, RearmClearsTheTripAndReusesTheContext) {
  SimilarityEngine engine(datagen::MakeUniform(2000, 8, 16));
  std::vector<Value> q(8, 0.4);
  QueryContext ctx;
  ctx.budgets().max_attributes = 512;
  ASSERT_FALSE(engine.FrequentKnMatch(q, 1, 8, 50, {}, &ctx).ok());
  ASSERT_TRUE(ctx.tripped());
  ctx.Rearm();
  EXPECT_FALSE(ctx.tripped());
  ctx.budgets().max_attributes = 0;  // lift the budget: query completes
  auto r = engine.FrequentKnMatch(q, 1, 8, 50, {}, &ctx);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

// ---------------------------------------------------------------------------
// Untripped governed queries are bit-identical to ungoverned runs.

TEST(GovernanceIdentityTest, GenerousLimitsChangeNothing) {
  SimilarityEngine engine(datagen::MakeUniform(3000, 6, 21));
  std::vector<Value> q = {0.2, 0.8, 0.4, 0.6, 0.1, 0.9};

  auto plain = engine.FrequentKnMatch(q, 1, 6, 20);
  ASSERT_TRUE(plain.ok());

  QueryContext ctx;
  ctx.set_deadline_in_ms(1e9);
  ctx.budgets().max_attributes = ~uint64_t{0} >> 1;
  ctx.budgets().max_pages = ~uint64_t{0} >> 1;
  ctx.set_cancel(std::make_shared<std::atomic<bool>>(false));
  auto governed = engine.FrequentKnMatch(q, 1, 6, 20, {}, &ctx);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();

  EXPECT_EQ(governed.value().per_n_sets, plain.value().per_n_sets);
  EXPECT_EQ(governed.value().matches, plain.value().matches);
  EXPECT_EQ(governed.value().attributes_retrieved,
            plain.value().attributes_retrieved);

  for (DiskMethod m :
       {DiskMethod::kScan, DiskMethod::kAd, DiskMethod::kVaFile}) {
    ctx.Rearm();
    auto disk_plain = engine.DiskFrequentKnMatch(q, 1, 6, 20, m);
    auto disk_governed = engine.DiskFrequentKnMatch(q, 1, 6, 20, m, &ctx);
    ASSERT_TRUE(disk_plain.ok());
    ASSERT_TRUE(disk_governed.ok()) << disk_governed.status().ToString();
    EXPECT_EQ(disk_governed.value().per_n_sets,
              disk_plain.value().per_n_sets);
    EXPECT_EQ(disk_governed.value().matches, disk_plain.value().matches);
  }
}

// ---------------------------------------------------------------------------
// Observability: the governance metrics equal the engine's own story.

TEST(GovernanceObsTest, TripCountersAndCostsMatchTheEngine) {
  SimilarityEngine engine(datagen::MakeUniform(5000, 8, 31));
  std::vector<Value> q(8, 0.3);

  obs::Counter* trips = obs::Cat().governance_trip_attributes;
  obs::Counter* attrs = obs::Cat().attrs_scan;
  const uint64_t trips_before = trips->Value();
  const uint64_t attrs_before = attrs->Value();

  QueryContext ctx;
  ctx.budgets().max_attributes = 4096;
  auto r = engine.DiskFrequentKnMatch(q, 1, 8, 20, DiskMethod::kScan, &ctx);
  ASSERT_TRUE(StatusIs(r.status(), StatusCode::kResourceExhausted));

  EXPECT_EQ(trips->Value() - trips_before, 1u);
  // The scan charged exactly the attributes the trip record reports.
  EXPECT_EQ(attrs->Value() - attrs_before, ctx.trip().attributes_retrieved);
}

TEST(GovernanceObsTest, DeadlineFractionHistogramObservesGovernedQueries) {
  SimilarityEngine engine(datagen::MakeUniform(1000, 4, 32));
  std::vector<Value> q(4, 0.5);
  const uint64_t before = obs::Cat().deadline_fraction->Snapshot().count;
  QueryContext ctx;
  ctx.set_deadline_in_ms(1e6);
  ASSERT_TRUE(engine.FrequentKnMatch(q, 1, 4, 5, {}, &ctx).ok());
  EXPECT_EQ(obs::Cat().deadline_fraction->Snapshot().count, before + 1);
}

// ---------------------------------------------------------------------------
// Batch admission control and shedding.

TEST(GovernanceBatchTest, QueueDepthCapShedsTheTailDeterministically) {
  SimilarityEngine engine(datagen::MakeUniform(500, 3, 41));
  exec::BatchRequest request;
  for (int i = 0; i < 8; ++i) {
    request.queries.push_back({0.1 * i, 0.4, 0.6});
  }
  request.options.threads = 2;
  request.options.allow_oversubscription = true;

  auto unbounded = engine.KnMatchBatch(request, 2, 5);
  ASSERT_TRUE(unbounded.ok());

  request.options.max_queue_depth = 4;
  auto capped = engine.KnMatchBatch(request, 2, 5);
  ASSERT_TRUE(capped.ok());
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(capped.value().statuses[i].ok());
    EXPECT_EQ(capped.value().results[i].matches,
              unbounded.value().results[i].matches);
  }
  for (size_t i = 4; i < 8; ++i) {
    EXPECT_TRUE(StatusIs(capped.value().statuses[i],
                         StatusCode::kResourceExhausted));
    EXPECT_TRUE(capped.value().results[i].matches.empty());
  }
}

TEST(GovernanceBatchTest, AttributePoolShedsOnceDrained) {
  SimilarityEngine engine(datagen::MakeUniform(500, 4, 42));
  exec::BatchRequest request;
  for (int i = 0; i < 6; ++i) {
    request.queries.push_back({0.1 * i, 0.4, 0.6, 0.2});
  }
  request.options.threads = 1;  // sequential, so the drain is ordered

  auto unbounded = engine.FrequentKnMatchBatch(request, 1, 4, 10);
  ASSERT_TRUE(unbounded.ok());
  const uint64_t per_query =
      unbounded.value().results[0].attributes_retrieved;
  ASSERT_GT(per_query, 0u);

  // Room for roughly two queries; the rest must shed.
  request.options.attribute_pool = per_query * 2;
  auto pooled = engine.FrequentKnMatchBatch(request, 1, 4, 10);
  ASSERT_TRUE(pooled.ok());
  size_t ok = 0, shed = 0;
  for (size_t i = 0; i < pooled.value().statuses.size(); ++i) {
    if (pooled.value().statuses[i].ok()) {
      ++ok;
      EXPECT_EQ(pooled.value().results[i].per_n_sets,
                unbounded.value().results[i].per_n_sets);
    } else {
      ++shed;
      EXPECT_TRUE(StatusIs(pooled.value().statuses[i],
                           StatusCode::kResourceExhausted));
    }
  }
  EXPECT_GE(ok, 2u);
  EXPECT_GE(shed, 1u);
}

TEST(GovernanceBatchTest, PerQueryBudgetsTripInFlight) {
  SimilarityEngine engine(datagen::MakeUniform(800, 4, 43));
  exec::BatchRequest request;
  for (int i = 0; i < 4; ++i) {
    request.queries.push_back({0.1 * i, 0.4, 0.6, 0.2});
  }
  request.options.threads = 2;
  request.options.allow_oversubscription = true;
  request.options.budgets.max_attributes = 1;

  auto r = engine.FrequentKnMatchBatch(request, 1, 4, 50);
  ASSERT_TRUE(r.ok());
  for (const Status& s : r.value().statuses) {
    EXPECT_TRUE(StatusIs(s, StatusCode::kResourceExhausted));
  }
}

TEST(GovernanceBatchTest, PredictiveSheddingIsIdleUnderAGenerousDeadline) {
  SimilarityEngine engine(datagen::MakeUniform(500, 3, 44));
  exec::BatchRequest request;
  for (int i = 0; i < 6; ++i) {
    request.queries.push_back({0.1 * i, 0.4, 0.6});
  }
  request.options.threads = 2;
  request.options.allow_oversubscription = true;
  request.options.deadline_ms = 1e9;
  request.options.predictive_shedding = true;

  auto r = engine.KnMatchBatch(request, 2, 5);
  ASSERT_TRUE(r.ok());
  for (const Status& s : r.value().statuses) {
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

// ---------------------------------------------------------------------------
// Circuit breaker: unit transitions, then engine integration.

TEST(GovernanceBreakerTest, OpensHalfOpensAndRecovers) {
  CircuitBreaker::Options options;
  options.window = 8;
  options.min_samples = 4;
  options.trip_ratio = 0.5;
  options.cooldown = 3;
  CircuitBreaker breaker(options);

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // Refusals while open count toward the cooldown; the call that
  // exhausts it admits one probe.
  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Allow()) << "one probe at a time";

  // Probe fails: straight back to open, cooldown restarts.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());
  EXPECT_TRUE(breaker.Allow());

  // Probe succeeds: closed, with a fresh window.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed)
      << "the pre-outage window was cleared; 3 < min_samples";
}

TEST(GovernanceBreakerTest, MixedOutcomesBelowRatioStayClosed) {
  CircuitBreaker breaker;  // defaults: window 16, min 8, ratio 0.5
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(breaker.Allow());
    if (i % 3 == 0) {
      breaker.RecordFailure();  // 1/3 failure rate < 0.5
    } else {
      breaker.RecordSuccess();
    }
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(GovernanceBreakerTest, EngineStopsRoutingToAFailingDiskAndRecovers) {
  SimilarityEngine engine(datagen::MakeUniform(500, 3, 51));
  std::vector<Value> q = {0.3, 0.5, 0.7};
  FaultInjector injector(
      FaultInjector::Config{.seed = 5, .transient_error_rate = 1.0});
  engine.SetFaultInjector(&injector);

  const uint64_t skipped_before = obs::Cat().breaker_skipped->Value();

  // Every disk read fails, so each kAuto query walks the whole chain to
  // the in-memory terminal and feeds one failure to every breaker.
  SimilarityEngine::DiskReport report;
  for (int i = 0; i < 12; ++i) {
    auto r = engine.DiskFrequentKnMatch(q, 1, 3, 5, DiskMethod::kAuto,
                                        nullptr, &report);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(report.method, DiskMethod::kMemoryAd);
  }
  for (DiskMethod m :
       {DiskMethod::kScan, DiskMethod::kAd, DiskMethod::kVaFile}) {
    EXPECT_EQ(engine.circuit_breaker(m)->state(),
              CircuitBreaker::State::kOpen)
        << "method " << static_cast<int>(m);
  }
  EXPECT_GT(obs::Cat().breaker_skipped->Value(), skipped_before);

  // Disk replaced: the preferred method's cooldown elapses, its
  // half-open probe succeeds, the breaker closes, and queries answer
  // from disk again. Breakers further down the chain are no longer
  // consulted once the first choice recovers, so they stay open
  // latently — they would probe the next time routing reaches them.
  engine.ClearFaults();
  for (int i = 0; i < 30; ++i) {
    auto r = engine.DiskFrequentKnMatch(q, 1, 3, 5, DiskMethod::kAuto,
                                        nullptr, &report);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ASSERT_NE(report.method, DiskMethod::kMemoryAd);
  EXPECT_EQ(engine.circuit_breaker(report.method)->state(),
            CircuitBreaker::State::kClosed);
}

// ---------------------------------------------------------------------------
// The randomized governance soak: 2000+ queries under random deadlines,
// budgets, and cancel points across the memory, disk, and B+-tree
// accessors. Every trip leaves the engine reusable; every untripped
// query is bit-identical to a governance-free run.

TEST(GovernanceSoakTest, TwoThousandRandomlyGovernedQueriesStayExact) {
  constexpr size_t kCardinality = 800;
  constexpr size_t kDims = 4;
  constexpr int kQueries = 2000;

  SimilarityEngine engine(datagen::MakeUniform(kCardinality, kDims, 71));
  SimilarityEngine reference(datagen::MakeUniform(kCardinality, kDims, 71));
  DiskSimulator btree_disk{DiskConfig()};
  BTreeColumns btree_columns(engine.dataset(), &btree_disk);
  BTreeAdSearcher btree(btree_columns);
  DiskSimulator btree_ref_disk{DiskConfig()};
  BTreeColumns btree_ref_columns(reference.dataset(), &btree_ref_disk);
  BTreeAdSearcher btree_ref(btree_ref_columns);

  std::mt19937 rng(2026);
  std::uniform_real_distribution<double> coord(0.0, 1.0);
  std::uniform_int_distribution<int> accessor_pick(0, 4);
  std::uniform_int_distribution<int> limit_pick(0, 3);

  int trips = 0, completions = 0;
  for (int iter = 0; iter < kQueries; ++iter) {
    std::vector<Value> q(kDims);
    for (Value& v : q) v = coord(rng);
    const size_t n0 = 1;
    const size_t n1 = 1 + static_cast<size_t>(rng() % kDims);
    const size_t k = 1 + static_cast<size_t>(rng() % 20);

    QueryContext ctx;
    switch (limit_pick(rng)) {
      case 0:  // hair-trigger limits: almost always a trip
        ctx.set_deadline_in_ms(1e-6);
        break;
      case 1:
        ctx.budgets().max_attributes = 1 + rng() % 256;
        ctx.budgets().max_pages = 1 + rng() % 4;
        break;
      case 2:
        ctx.set_cancel(std::make_shared<std::atomic<bool>>(rng() % 2 == 0));
        break;
      default:  // generous: must complete and match the reference
        ctx.set_deadline_in_ms(1e9);
        ctx.budgets().max_attributes = ~uint64_t{0} >> 1;
        break;
    }

    const int accessor = accessor_pick(rng);
    Result<FrequentKnMatchResult> governed = Status::Internal("unset");
    Result<FrequentKnMatchResult> plain = Status::Internal("unset");
    switch (accessor) {
      case 0:
        governed = engine.FrequentKnMatch(q, n0, n1, k, {}, &ctx);
        plain = reference.FrequentKnMatch(q, n0, n1, k);
        break;
      case 1:
        governed = engine.DiskFrequentKnMatch(q, n0, n1, k,
                                              DiskMethod::kAd, &ctx);
        plain = reference.DiskFrequentKnMatch(q, n0, n1, k, DiskMethod::kAd);
        break;
      case 2:
        governed = engine.DiskFrequentKnMatch(q, n0, n1, k,
                                              DiskMethod::kScan, &ctx);
        plain =
            reference.DiskFrequentKnMatch(q, n0, n1, k, DiskMethod::kScan);
        break;
      case 3:
        governed = engine.DiskFrequentKnMatch(q, n0, n1, k,
                                              DiskMethod::kVaFile, &ctx);
        plain = reference.DiskFrequentKnMatch(q, n0, n1, k,
                                              DiskMethod::kVaFile);
        break;
      default:
        governed = btree.FrequentKnMatch(q, n0, n1, k, &ctx);
        plain = btree_ref.FrequentKnMatch(q, n0, n1, k);
        break;
    }
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();

    if (governed.ok()) {
      ++completions;
      EXPECT_FALSE(ctx.tripped());
      ASSERT_EQ(governed.value().per_n_sets, plain.value().per_n_sets)
          << "accessor " << accessor << " iter " << iter;
      ASSERT_EQ(governed.value().matches, plain.value().matches);
      ASSERT_EQ(governed.value().attributes_retrieved,
                plain.value().attributes_retrieved);
    } else {
      ++trips;
      ASSERT_TRUE(ctx.tripped());
      EXPECT_EQ(governed.status().code(), ctx.trip_status().code());
      const StatusCode code = governed.status().code();
      EXPECT_TRUE(code == StatusCode::kDeadlineExceeded ||
                  code == StatusCode::kResourceExhausted ||
                  code == StatusCode::kUnavailable)
          << governed.status().ToString();
    }
  }
  // The mix must actually exercise both paths.
  EXPECT_GT(trips, kQueries / 10);
  EXPECT_GT(completions, kQueries / 10);
}

}  // namespace
}  // namespace knmatch
