// Sharded scatter-gather: partition plans, the exact answer merge, and
// the ShardRouter (hedged dispatch, replica failover, breaker-driven
// partial answers, rebalancing under snapshot reads). The Shard* suites
// also run under ASan/TSan (see scripts/check_asan.sh, check_tsan.sh).
//
// The heart of this file is ShardDifferentialSoak: >1000 randomized
// queries asserting the sharded answer is bit-identical to one
// unsharded engine, across all three partitioners, with hedging forced
// on, and under injected disk faults.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "knmatch.h"
#include "status_matchers.h"

namespace knmatch {
namespace {

using shard::Partitioner;
using shard::RouterOptions;
using shard::ShardRouter;

std::vector<Value> RandomQuery(Rng& rng, size_t dims) {
  std::vector<Value> q(dims);
  for (Value& v : q) v = static_cast<Value>(rng.Uniform01());
  return q;
}

void ExpectSameMatches(const std::vector<Neighbor>& sharded,
                       const std::vector<Neighbor>& unsharded,
                       const char* what) {
  ASSERT_EQ(sharded.size(), unsharded.size()) << what;
  for (size_t i = 0; i < sharded.size(); ++i) {
    EXPECT_EQ(sharded[i].pid, unsharded[i].pid) << what << " entry " << i;
    EXPECT_EQ(sharded[i].distance, unsharded[i].distance)
        << what << " entry " << i;
  }
}

void ExpectSameFrequent(const FrequentKnMatchResult& sharded,
                        const FrequentKnMatchResult& unsharded) {
  ExpectSameMatches(sharded.matches, unsharded.matches, "matches");
  EXPECT_EQ(sharded.frequencies, unsharded.frequencies);
  ASSERT_EQ(sharded.per_n_sets.size(), unsharded.per_n_sets.size());
  for (size_t n = 0; n < sharded.per_n_sets.size(); ++n) {
    ExpectSameMatches(sharded.per_n_sets[n], unsharded.per_n_sets[n],
                      "per_n_set");
  }
}

// ---------------------------------------------------------------------------
// The merge kernel (core/answer_merge.h).

TEST(ShardMerge, KWayMergeIsCanonical) {
  const std::vector<Neighbor> a = {{0, 0.1f}, {4, 0.3f}, {2, 0.5f}};
  const std::vector<Neighbor> b = {{3, 0.2f}, {1, 0.3f}};
  const std::vector<const std::vector<Neighbor>*> lists = {&a, &b};
  const std::vector<Neighbor> merged = internal::MergeAnswerLists(lists, 4);
  // Equal differences (0.3) order by pid: 1 before 4.
  const std::vector<Neighbor> want = {
      {0, 0.1f}, {3, 0.2f}, {1, 0.3f}, {4, 0.3f}};
  ASSERT_EQ(merged.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(merged[i].pid, want[i].pid) << i;
    EXPECT_EQ(merged[i].distance, want[i].distance) << i;
  }
}

TEST(ShardMerge, ResortsNonCanonicalInputAndClampsK) {
  // Same difference everywhere but pids out of order within a list:
  // the merge must still come out pid-ascending.
  const std::vector<Neighbor> a = {{7, 0.5f}, {1, 0.5f}};
  const std::vector<const std::vector<Neighbor>*> lists = {&a};
  const std::vector<Neighbor> merged = internal::MergeAnswerLists(lists, 10);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].pid, 1u);
  EXPECT_EQ(merged[1].pid, 7u);
  EXPECT_TRUE(internal::MergeAnswerLists({}, 5).empty());
}

TEST(ShardMerge, FrequentPartialsRankLikeTheNaiveRanker) {
  // Two shards, two levels (n0..n0+1). Point 5 appears on both levels,
  // points 2 and 9 once each; ranking is count desc, best diff asc,
  // pid asc — exactly RankByFrequency.
  FrequentKnMatchResult s0;
  s0.per_n_sets = {{{5, 0.2f}}, {{5, 0.1f}}};
  s0.attributes_retrieved = 10;
  FrequentKnMatchResult s1;
  s1.per_n_sets = {{{2, 0.05f}}, {{9, 0.3f}}};
  s1.attributes_retrieved = 7;
  const std::vector<const FrequentKnMatchResult*> partials = {&s0, &s1};
  const FrequentKnMatchResult merged =
      internal::MergeFrequentPartials(partials, 2, 2);
  ASSERT_EQ(merged.matches.size(), 2u);
  EXPECT_EQ(merged.matches[0].pid, 5u);
  EXPECT_EQ(merged.frequencies[0], 2u);
  EXPECT_EQ(merged.matches[1].pid, 2u);  // 0.05 beats 0.3
  EXPECT_EQ(merged.frequencies[1], 1u);
  EXPECT_EQ(merged.attributes_retrieved, 17u);
  ASSERT_EQ(merged.per_n_sets.size(), 2u);
}

// ---------------------------------------------------------------------------
// Partition plans.

TEST(ShardPartition, ParseRoundTrip) {
  for (Partitioner p : {Partitioner::kHash, Partitioner::kRange,
                        Partitioner::kKMeans}) {
    auto parsed = shard::ParsePartitioner(shard::PartitionerName(p));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), p);
  }
  EXPECT_TRUE(StatusIs(shard::ParsePartitioner("mod17"),
                       StatusCode::kInvalidArgument));
}

TEST(ShardPartition, PlanInvariants) {
  const Dataset db = datagen::MakeUniform(500, 6, 11);
  for (Partitioner p : {Partitioner::kHash, Partitioner::kRange,
                        Partitioner::kKMeans}) {
    const shard::PartitionPlan plan =
        shard::BuildPartitionPlan(db, p, 4, 8, 7);
    EXPECT_EQ(plan.num_shards, 4u);
    EXPECT_EQ(plan.partition_of.size(), db.size());
    EXPECT_EQ(plan.shard_of_partition.size(), plan.num_partitions);
    uint64_t total = 0;
    for (uint64_t n : plan.partition_points) total += n;
    EXPECT_EQ(total, db.size());
    const std::vector<uint64_t> shard_points = plan.ShardPoints();
    total = 0;
    for (uint64_t n : shard_points) total += n;
    EXPECT_EQ(total, db.size());
    for (PointId pid = 0; pid < db.size(); ++pid) {
      ASSERT_LT(plan.partition_of[pid], plan.num_partitions);
      ASSERT_LT(plan.shard_of(pid), plan.num_shards);
    }
  }
  // Range partitions are contiguous pid intervals.
  const shard::PartitionPlan range =
      shard::BuildPartitionPlan(db, Partitioner::kRange, 4, 8, 0);
  for (PointId pid = 1; pid < db.size(); ++pid) {
    EXPECT_GE(range.partition_of[pid], range.partition_of[pid - 1]);
  }
  // More shards than points: every partition still lands somewhere.
  const shard::PartitionPlan tiny = shard::BuildPartitionPlan(
      datagen::MakeUniform(3, 4, 1), Partitioner::kHash, 8, 8, 0);
  EXPECT_EQ(tiny.num_partitions, 3u);
}

TEST(ShardPartition, BalanceAssignmentLevelsSkew) {
  // Skewed partition sizes: one giant, many small.
  const std::vector<uint64_t> points = {100, 5, 5, 5, 5, 5, 5, 5};
  const std::vector<uint32_t> balanced =
      shard::BalanceAssignment(points, 4);
  std::vector<uint64_t> load(4, 0);
  for (size_t p = 0; p < points.size(); ++p) {
    load[balanced[p]] += points[p];
  }
  // Round-robin would stack 100+5 = 105 on shard 0; LPT isolates the
  // giant partition instead.
  EXPECT_EQ(*std::max_element(load.begin(), load.end()), 100u);
}

// ---------------------------------------------------------------------------
// Router basics.

TEST(ShardRouterBasics, SingleShardMatchesEngine) {
  const Dataset db = datagen::MakeUniform(200, 5, 21);
  const SimilarityEngine engine(db);
  RouterOptions options;
  options.shards = 1;
  const ShardRouter router(db, options);
  Rng rng(33);
  for (int i = 0; i < 20; ++i) {
    const std::vector<Value> q = RandomQuery(rng, db.dims());
    auto sharded = router.KnMatch(q, 2, 7);
    auto direct = engine.KnMatch(q, 2, 7);
    ASSERT_TRUE(sharded.ok());
    ASSERT_TRUE(direct.ok());
    ExpectSameMatches(sharded.value().matches, direct.value().matches,
                      "single shard");
    EXPECT_EQ(sharded.value().attributes_retrieved,
              direct.value().attributes_retrieved);
  }
}

TEST(ShardRouterBasics, MoreShardsThanPointsSkipsEmptyShards) {
  const Dataset db = datagen::MakeUniform(5, 4, 3);
  const SimilarityEngine engine(db);
  RouterOptions options;
  options.shards = 16;
  const ShardRouter router(db, options);
  const std::vector<Value> q(4, 0.4f);
  shard::DispatchReport report;
  auto sharded = router.KnMatch(q, 1, 5, {}, nullptr, &report);  // k == |db|
  auto direct = engine.KnMatch(q, 1, 5);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE(direct.ok());
  ExpectSameMatches(sharded.value().matches, direct.value().matches,
                    "tiny dataset");
  // Empty shards are neither dispatched nor failures.
  EXPECT_FALSE(report.degradation.partial());
  EXPECT_LE(report.shards_dispatched, 5u);
}

TEST(ShardRouterBasics, ValidatesLikeTheEngine) {
  const Dataset db = datagen::MakeUniform(50, 4, 5);
  const ShardRouter router(db);
  const std::vector<Value> q(4, 0.5f);
  EXPECT_TRUE(StatusIs(router.KnMatch(q, 0, 5),
                       StatusCode::kInvalidArgument));  // n < 1
  EXPECT_TRUE(StatusIs(router.KnMatch(q, 1, 0),
                       StatusCode::kInvalidArgument));  // k < 1
  EXPECT_TRUE(StatusIs(router.KnMatch({q.data(), 2}, 1, 5),
                       StatusCode::kInvalidArgument));  // dims mismatch
  EXPECT_TRUE(StatusIs(router.FrequentKnMatch(q, 3, 2, 5),
                       StatusCode::kInvalidArgument));  // n1 < n0

  // Weights work in memory, are rejected on the disk path.
  const std::vector<Value> w = {1.0f, 2.0f, 0.5f, 1.0f};
  EXPECT_TRUE(router.KnMatch(q, 2, 5, w).ok());
  RouterOptions disk;
  disk.method = RouterOptions::Method::kDiskAuto;
  const ShardRouter disk_router(db, disk);
  EXPECT_TRUE(StatusIs(disk_router.KnMatch(q, 2, 5, w),
                       StatusCode::kInvalidArgument));
}

TEST(ShardRouterBasics, StatsAndCacheHits) {
  const Dataset db = datagen::MakeUniform(300, 6, 17);
  RouterOptions options;
  options.shards = 4;
  ShardRouter router(db, options);
  shard::RouterStats stats = router.Stats();
  uint64_t total = 0;
  for (uint64_t n : stats.shard_points) total += n;
  EXPECT_EQ(total, db.size());
  for (size_t s = 0; s < router.num_shards(); ++s) {
    EXPECT_EQ(router.shard_size(s), stats.shard_points[s]);
  }

  router.EnableCache();
  const std::vector<Value> q(6, 0.3f);
  shard::DispatchReport report;
  auto cold = router.KnMatch(q, 2, 8, {}, nullptr, &report);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(report.cache_hit);
  auto warm = router.KnMatch(q, 2, 8, {}, nullptr, &report);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(report.cache_hit);
  ExpectSameMatches(warm.value().matches, cold.value().matches, "cache");

  stats = router.Stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.dispatches, 4u);  // only the cold query fanned out
  EXPECT_NE(router.cache_epoch(), 0u);
  router.DisableCache();
  EXPECT_EQ(router.cache(), nullptr);
}

// ---------------------------------------------------------------------------
// The randomized differential soak: sharded == unsharded, bit for bit.
// Continuous random coordinates make cross-point difference ties a
// measure-zero event, so the canonical merge order is THE order (see
// docs/sharding.md for the boundary-tie caveat this sidesteps).

struct SoakRig {
  Dataset db;
  SimilarityEngine reference;

  explicit SoakRig(size_t cardinality, size_t dims, uint64_t seed)
      : db(datagen::MakeUniform(cardinality, dims, seed)), reference(db) {}

  // Runs `queries` random queries against `router`, asserting
  // bit-identity with the unsharded reference engine and full shard
  // coverage in every query's own report.
  void Soak(const ShardRouter& router, int queries, Rng& rng) {
    for (int i = 0; i < queries; ++i) {
      const std::vector<Value> q = RandomQuery(rng, db.dims());
      const size_t n0 = 1 + rng.UniformInt(db.dims());
      const size_t n1 = n0 + rng.UniformInt(db.dims() - n0 + 1);
      const size_t k = 1 + rng.UniformInt(20);
      shard::DispatchReport report;
      if (i % 2 == 0) {
        auto sharded = router.KnMatch(q, n0, k, {}, nullptr, &report);
        auto direct = reference.KnMatch(q, n0, k);
        ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
        ASSERT_TRUE(direct.ok());
        ExpectSameMatches(sharded.value().matches, direct.value().matches,
                          "soak knmatch");
      } else {
        auto sharded =
            router.FrequentKnMatch(q, n0, n1, k, {}, nullptr, &report);
        auto direct = reference.FrequentKnMatch(q, n0, n1, k);
        ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
        ASSERT_TRUE(direct.ok());
        ExpectSameFrequent(sharded.value(), direct.value());
      }
      EXPECT_FALSE(report.degradation.partial()) << "soak query " << i;
      if (HasFatalFailure()) return;
    }
  }

  static bool HasFatalFailure() {
    return testing::Test::HasFatalFailure();
  }
};

TEST(ShardDifferentialSoak, AllPartitionersBitIdentical) {
  SoakRig rig(600, 8, 1234);
  Rng rng(99);
  for (Partitioner p : {Partitioner::kHash, Partitioner::kRange,
                        Partitioner::kKMeans}) {
    RouterOptions options;
    options.shards = 4;
    options.partitioner = p;
    options.partitions_per_shard = 4;
    const ShardRouter router(rig.db, options);
    rig.Soak(router, 300, rng);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(ShardDifferentialSoak, HedgingPreservesBitIdentity) {
  SoakRig rig(400, 6, 777);
  RouterOptions options;
  options.shards = 4;
  options.replicas = 2;
  options.hedge_threshold_ms = 1e-9;  // hedge every dispatch after the first
  const ShardRouter router(rig.db, options);
  Rng rng(42);
  rig.Soak(router, 150, rng);
  const shard::RouterStats stats = router.Stats();
  EXPECT_GT(stats.hedges, 0u);
  EXPECT_EQ(stats.failovers, 0u);
}

TEST(ShardDifferentialSoak, AutoDiskAbsorbsInjectedFaults) {
  // kDiskAuto lets each shard's engine degrade internally: a fault on
  // one replica's disk never surfaces to the router, and answers stay
  // bit-identical (the engine's degradation chain is itself exact).
  SoakRig rig(300, 5, 31);
  RouterOptions options;
  options.shards = 4;
  options.method = RouterOptions::Method::kDiskAuto;
  const ShardRouter router(rig.db, options);
  // One injector per engine: a FaultInjector is not thread-safe, and
  // the router queries shards concurrently.
  const FaultInjector::Config chaos{.seed = 5,
                                    .transient_error_rate = 0.4,
                                    .corruption_rate = 0.1};
  FaultInjector chaos0(chaos);
  FaultInjector chaos2(chaos);
  router.replica_engine(0, 0)->SetFaultInjector(&chaos0);
  router.replica_engine(2, 0)->SetFaultInjector(&chaos2);
  Rng rng(8);
  rig.Soak(router, 60, rng);
  router.replica_engine(0, 0)->SetFaultInjector(nullptr);
  router.replica_engine(2, 0)->SetFaultInjector(nullptr);
}

TEST(ShardDifferentialSoak, ExplicitDiskFailsOverToReplicas) {
  // An explicitly-requested disk method surfaces faults instead of
  // degrading, so a dead replica 0 forces router-level failover — and
  // the failover answer is still bit-identical.
  SoakRig rig(300, 5, 57);
  RouterOptions options;
  options.shards = 4;
  options.replicas = 2;
  options.method = RouterOptions::Method::kDiskScan;
  const ShardRouter router(rig.db, options);
  // One injector per engine: a FaultInjector is not thread-safe, and
  // the router queries shards concurrently.
  std::vector<std::unique_ptr<FaultInjector>> dead;
  for (size_t s = 0; s < router.num_shards(); ++s) {
    dead.push_back(std::make_unique<FaultInjector>(
        FaultInjector::Config{.seed = 3, .transient_error_rate = 1.0}));
    router.replica_engine(s, 0)->SetFaultInjector(dead.back().get());
  }
  Rng rng(16);
  rig.Soak(router, 40, rng);
  const shard::RouterStats stats = router.Stats();
  EXPECT_GT(stats.failovers, 0u);
  EXPECT_EQ(stats.partial_answers, 0u);
  for (size_t s = 0; s < router.num_shards(); ++s) {
    router.replica_engine(s, 0)->SetFaultInjector(nullptr);
  }
}

// ---------------------------------------------------------------------------
// Governance: breaker-driven partial answers, deadline slices, budgets.

TEST(ShardGovernance, BreakerTripYieldsWellFormedPartialAnswer) {
  const Dataset db = datagen::MakeUniform(400, 5, 71);
  RouterOptions options;
  options.shards = 4;
  options.method = RouterOptions::Method::kDiskScan;
  const ShardRouter router(db, options);

  // Kill shard 1's only replica. Every dispatch to it fails with
  // kUnavailable until the breaker opens and skips it outright.
  FaultInjector dead(
      FaultInjector::Config{.seed = 9, .transient_error_rate = 1.0});
  router.replica_engine(1, 0)->SetFaultInjector(&dead);

  // The reference: an unsharded engine over everything EXCEPT shard
  // 1's points. BuildPartitionPlan is deterministic, so rebuilding the
  // router's plan tells us exactly which points those are.
  const shard::PartitionPlan plan = shard::BuildPartitionPlan(
      db, options.partitioner, options.shards, options.partitions_per_shard,
      options.seed);
  Dataset survivors;
  for (PointId pid = 0; pid < db.size(); ++pid) {
    if (plan.shard_of(pid) != 1) survivors.Append(db.point(pid));
  }
  // Surviving pids are dense in the reference engine; map them back.
  std::vector<PointId> to_global;
  for (PointId pid = 0; pid < db.size(); ++pid) {
    if (plan.shard_of(pid) != 1) to_global.push_back(pid);
  }
  const SimilarityEngine reference(std::move(survivors));

  Rng rng(6);
  bool saw_breaker_skip = false;
  for (int i = 0; i < 20; ++i) {
    const std::vector<Value> q = RandomQuery(rng, db.dims());
    shard::DispatchReport report;
    auto partial = router.FrequentKnMatch(q, 2, 4, 9, {}, nullptr, &report);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    const shard::ShardDegradation& deg = report.degradation;
    ASSERT_TRUE(deg.partial());
    ASSERT_EQ(deg.failed.size(), 1u);
    EXPECT_EQ(deg.failed[0].shard, 1u);
    EXPECT_TRUE(StatusIs(deg.failed[0].status, StatusCode::kUnavailable));
    EXPECT_EQ(deg.shards_answered, 3u);
    EXPECT_EQ(deg.shards_total, 4u);
    if (report.breaker_skips > 0) saw_breaker_skip = true;

    // The partial answer is exactly the full answer over the surviving
    // shards' points.
    auto expect = reference.FrequentKnMatch(q, 2, 4, 9);
    ASSERT_TRUE(expect.ok());
    FrequentKnMatchResult remapped = expect.value();
    for (auto& set : remapped.per_n_sets) {
      for (Neighbor& nb : set) nb.pid = to_global[nb.pid];
    }
    for (Neighbor& nb : remapped.matches) nb.pid = to_global[nb.pid];
    ExpectSameFrequent(partial.value(), remapped);
    if (testing::Test::HasFatalFailure()) return;
  }
  // The dead shard's breaker must eventually open and shed dispatches.
  EXPECT_TRUE(saw_breaker_skip);
  EXPECT_EQ(router.breaker_state(1), exec::CircuitBreaker::State::kOpen);
  EXPECT_GT(router.Stats().partial_answers, 0u);
  router.replica_engine(1, 0)->SetFaultInjector(nullptr);
}

TEST(ShardGovernance, PartialRefusedWhenDisallowed) {
  const Dataset db = datagen::MakeUniform(200, 4, 13);
  RouterOptions options;
  options.shards = 4;
  options.method = RouterOptions::Method::kDiskScan;
  options.allow_partial = false;
  const ShardRouter router(db, options);
  FaultInjector dead(
      FaultInjector::Config{.seed = 2, .transient_error_rate = 1.0});
  router.replica_engine(0, 0)->SetFaultInjector(&dead);
  const std::vector<Value> q(4, 0.5f);
  EXPECT_TRUE(
      StatusIs(router.KnMatch(q, 1, 5), StatusCode::kUnavailable));
  router.replica_engine(0, 0)->SetFaultInjector(nullptr);
}

TEST(ShardGovernance, ExpiredDeadlineTripsEveryShardSlice) {
  const Dataset db = datagen::MakeUniform(5000, 8, 91);
  const ShardRouter router(db);
  QueryContext ctx;
  ctx.set_deadline(QueryContext::Clock::now() -
                   std::chrono::milliseconds(1));
  const std::vector<Value> q(8, 0.5f);
  EXPECT_TRUE(StatusIs(router.KnMatch(q, 2, 10, {}, &ctx),
                       StatusCode::kDeadlineExceeded));
  // A latched trip short-circuits before any fan-out.
  const uint64_t dispatched = router.Stats().dispatches;
  EXPECT_TRUE(StatusIs(router.KnMatch(q, 2, 10, {}, &ctx),
                       StatusCode::kDeadlineExceeded));
  EXPECT_EQ(router.Stats().dispatches, dispatched);
}

TEST(ShardGovernance, CancellationPropagatesToShards) {
  const Dataset db = datagen::MakeUniform(2000, 6, 23);
  const ShardRouter router(db);
  auto flag = std::make_shared<std::atomic<bool>>(true);
  QueryContext ctx;
  ctx.set_cancel(flag);
  const std::vector<Value> q(6, 0.5f);
  EXPECT_TRUE(StatusIs(router.KnMatch(q, 2, 10, {}, &ctx),
                       StatusCode::kUnavailable));
}

TEST(ShardGovernance, SplitBudgetsStillAnswerWhenGenerous) {
  const Dataset db = datagen::MakeUniform(500, 6, 37);
  const SimilarityEngine reference(db);
  const ShardRouter router(db);
  QueryContext ctx;
  ctx.budgets().max_attributes = 10'000'000;  // generous, split 4 ways
  const std::vector<Value> q(6, 0.25f);
  auto governed = router.KnMatch(q, 2, 8, {}, &ctx);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  EXPECT_FALSE(ctx.tripped());
  auto direct = reference.KnMatch(q, 2, 8);
  ASSERT_TRUE(direct.ok());
  ExpectSameMatches(governed.value().matches, direct.value().matches,
                    "budgeted");

  // A starvation budget trips every slice with kResourceExhausted.
  // (Budget checks run once per governance stride, so the query must
  // be heavy enough that no shard finishes inside its first stride —
  // same sizing as the engine's own attribute-budget test.)
  const Dataset big = datagen::MakeUniform(2000, 8, 11);
  const ShardRouter big_router(big);
  QueryContext tiny;
  tiny.budgets().max_attributes = 512;
  const std::vector<Value> heavy(8, 0.4f);
  EXPECT_TRUE(
      StatusIs(big_router.FrequentKnMatch(heavy, 1, 8, 50, {}, &tiny),
               StatusCode::kResourceExhausted));
}

// ---------------------------------------------------------------------------
// Rebalancing under snapshot reads.

TEST(ShardRebalance, KMeansSkewLevelsAndAnswersAreInvariant) {
  SoakRig rig(500, 6, 19);
  RouterOptions options;
  options.shards = 4;
  options.partitioner = Partitioner::kKMeans;
  options.partitions_per_shard = 8;
  ShardRouter router(rig.db, options);

  Rng rng(3);
  std::vector<std::vector<Value>> queries;
  std::vector<FrequentKnMatchResult> before;
  for (int i = 0; i < 10; ++i) {
    queries.push_back(RandomQuery(rng, rig.db.dims()));
    auto r = router.FrequentKnMatch(queries.back(), 2, 4, 7);
    ASSERT_TRUE(r.ok());
    before.push_back(std::move(r.value()));
  }

  auto report = router.Rebalance();
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report.value().max_shard_points_after,
            report.value().max_shard_points_before);
  const shard::RouterStats stats = router.Stats();
  EXPECT_EQ(stats.rebalances, 1u);
  uint64_t total = 0;
  for (uint64_t n : stats.shard_points) total += n;
  EXPECT_EQ(total, rig.db.size());

  // Placement changed; answers must not.
  for (size_t i = 0; i < queries.size(); ++i) {
    auto after = router.FrequentKnMatch(queries[i], 2, 4, 7);
    ASSERT_TRUE(after.ok());
    ExpectSameFrequent(after.value(), before[i]);
  }

  // LPT is deterministic: a second rebalance of the same plan is a
  // no-op.
  auto again = router.Rebalance();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().partitions_moved, 0u);
}

TEST(ShardRebalance, QueriesKeepAnsweringDuringRebalance) {
  SoakRig rig(400, 5, 47);
  RouterOptions options;
  options.shards = 4;
  options.partitioner = Partitioner::kKMeans;
  ShardRouter router(rig.db, options);

  std::atomic<bool> stop{false};
  std::atomic<int> checked{0};
  std::thread reader([&] {
    Rng rng(12);
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<Value> q = RandomQuery(rng, rig.db.dims());
      auto sharded = router.KnMatch(q, 2, 6);
      auto direct = rig.reference.KnMatch(q, 2, 6);
      if (!sharded.ok() || !direct.ok() ||
          !(sharded.value().matches == direct.value().matches)) {
        ADD_FAILURE() << "divergence during rebalance";
        return;
      }
      checked.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Keep rebalancing until the reader has raced a few swaps (rebalance
  // of a small set can finish before the reader's first query lands).
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (checked.load(std::memory_order_relaxed) < 5 &&
         std::chrono::steady_clock::now() < give_up) {
    ASSERT_TRUE(router.Rebalance().ok());
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(checked.load(), 0);
}

// ---------------------------------------------------------------------------
// Concurrent queries: no router state is shared between calls, so
// queries run side by side (and beside Rebalance) with their own
// reports. Run under TSan by scripts/check_tsan.sh.

// Four query threads soak `router` while a fifth rebalances it once the
// queries are under way; every answer must equal the reference engine's
// and every report must show full coverage.
void ConcurrentSoakWithRebalance(const SoakRig& rig, ShardRouter* router,
                                 int per_thread) {
  constexpr int kThreads = 4;
  std::atomic<int> answered{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(500 + static_cast<uint64_t>(t));
      for (int i = 0; i < per_thread; ++i) {
        const std::vector<Value> q = RandomQuery(rng, rig.db.dims());
        const size_t k = 1 + rng.UniformInt(12);
        shard::DispatchReport report;
        bool same = false;
        if (i % 2 == 0) {
          auto sharded = router->KnMatch(q, 2, k, {}, nullptr, &report);
          auto direct = rig.reference.KnMatch(q, 2, k);
          same = sharded.ok() && direct.ok() &&
                 sharded.value().matches == direct.value().matches;
        } else {
          auto sharded =
              router->FrequentKnMatch(q, 2, 4, k, {}, nullptr, &report);
          auto direct = rig.reference.FrequentKnMatch(q, 2, 4, k);
          same = sharded.ok() && direct.ok() &&
                 sharded.value().matches == direct.value().matches &&
                 sharded.value().frequencies ==
                     direct.value().frequencies &&
                 sharded.value().per_n_sets == direct.value().per_n_sets;
        }
        if (!same || report.degradation.partial()) wrong.fetch_add(1);
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {
    // Let the readers get going so the swap lands mid-soak, then keep
    // rebalancing (later calls find the plan balanced and only pin and
    // compare) until the readers finish.
    while (answered.load(std::memory_order_relaxed) < 8) {
      std::this_thread::yield();
    }
    while (answered.load(std::memory_order_relaxed) <
           kThreads * per_thread) {
      if (!router->Rebalance().ok()) wrong.fetch_add(1);
      std::this_thread::yield();
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(router->Stats().rebalances, 1u);
}

TEST(ShardConcurrency, HedgedQueriesRacingRebalanceAreBitIdentical) {
  SoakRig rig(500, 6, 61);
  RouterOptions options;
  options.shards = 4;
  options.replicas = 2;
  options.partitioner = Partitioner::kKMeans;
  options.hedge_threshold_ms = 1e-9;  // hedge every dispatch after the first
  ShardRouter router(rig.db, options);
  ConcurrentSoakWithRebalance(rig, &router, 40);
  EXPECT_GT(router.Stats().partitions_moved, 0u);
  EXPECT_GT(router.Stats().hedges, 0u);
}

TEST(ShardConcurrency, DiskQueriesRacingRebalanceAreBitIdentical) {
  SoakRig rig(300, 5, 62);
  RouterOptions options;
  options.shards = 4;
  options.partitioner = Partitioner::kKMeans;
  options.method = RouterOptions::Method::kDiskAuto;
  ShardRouter router(rig.db, options);
  ConcurrentSoakWithRebalance(rig, &router, 20);
}

TEST(ShardConcurrency, EachCallerGetsItsOwnDispatchReport) {
  // One thread repeats cached queries while another runs fresh ones. A
  // report shared between callers would leak one thread's cache_hit
  // into the other's.
  const Dataset db = datagen::MakeUniform(400, 6, 63);
  RouterOptions options;
  options.shards = 4;
  ShardRouter router(db, options);
  router.EnableCache();
  Rng rng(64);
  std::vector<std::vector<Value>> hot;
  for (int i = 0; i < 8; ++i) {
    hot.push_back(RandomQuery(rng, db.dims()));
    ASSERT_TRUE(router.KnMatch(hot.back(), 3, 6).ok());
  }

  std::atomic<int> wrong_hits{0};
  std::atomic<int> wrong_misses{0};
  std::thread cached([&] {
    for (int round = 0; round < 60; ++round) {
      for (const auto& q : hot) {
        shard::DispatchReport report;
        auto r = router.KnMatch(q, 3, 6, {}, nullptr, &report);
        if (!r.ok() || !report.cache_hit) wrong_hits.fetch_add(1);
      }
    }
  });
  std::thread fresh([&] {
    Rng fresh_rng(65);
    for (int i = 0; i < 120; ++i) {
      shard::DispatchReport report;
      auto r = router.KnMatch(RandomQuery(fresh_rng, db.dims()), 3, 6, {},
                              nullptr, &report);
      if (!r.ok() || report.cache_hit || report.shards_dispatched != 4) {
        wrong_misses.fetch_add(1);
      }
    }
  });
  cached.join();
  fresh.join();
  EXPECT_EQ(wrong_hits.load(), 0);
  EXPECT_EQ(wrong_misses.load(), 0);
}

// ---------------------------------------------------------------------------
// Observability: the knmatch_shard_* family mirrors RouterStats 1:1.

TEST(ShardObs, MetricsEqualRouterStats) {
  const obs::Catalog& cat = obs::Cat();
  const uint64_t queries0 = cat.shard_queries->Value();
  const uint64_t dispatches0 = cat.shard_dispatches->Value();
  const uint64_t hedges0 = cat.shard_hedges->Value();
  const uint64_t hedge_wins0 = cat.shard_hedge_wins->Value();
  const uint64_t failovers0 = cat.shard_failovers->Value();
  const uint64_t skips0 = cat.shard_breaker_skips->Value();
  const uint64_t partial0 = cat.shard_partial_answers->Value();
  const uint64_t rebalances0 = cat.shard_rebalances->Value();
  const uint64_t moved0 = cat.shard_partitions_moved->Value();
  const uint64_t cache0 = cat.shard_cache_hits->Value();

  const Dataset db = datagen::MakeUniform(300, 6, 53);
  RouterOptions options;
  options.shards = 4;
  options.replicas = 2;
  options.hedge_threshold_ms = 1e-9;
  options.partitioner = Partitioner::kKMeans;
  ShardRouter router(db, options);
  EXPECT_EQ(cat.shard_count->Value(), 4);
  EXPECT_EQ(cat.shard_replicas->Value(), 2);
  for (size_t s = 0; s < router.num_shards(); ++s) {
    EXPECT_EQ(static_cast<uint64_t>(obs::ShardPointsGauge(s)->Value()),
              router.shard_size(s));
  }

  router.EnableCache();
  Rng rng(29);
  for (int i = 0; i < 12; ++i) {
    const std::vector<Value> q = RandomQuery(rng, db.dims());
    ASSERT_TRUE(router.KnMatch(q, 2, 6).ok());
  }
  const std::vector<Value> repeat(6, 0.5f);
  ASSERT_TRUE(router.KnMatch(repeat, 2, 6).ok());
  ASSERT_TRUE(router.KnMatch(repeat, 2, 6).ok());  // cache hit
  ASSERT_TRUE(router.Rebalance().ok());

  const shard::RouterStats stats = router.Stats();
  EXPECT_EQ(cat.shard_queries->Value() - queries0, stats.queries);
  EXPECT_EQ(cat.shard_dispatches->Value() - dispatches0, stats.dispatches);
  EXPECT_EQ(cat.shard_hedges->Value() - hedges0, stats.hedges);
  EXPECT_EQ(cat.shard_hedge_wins->Value() - hedge_wins0, stats.hedge_wins);
  EXPECT_EQ(cat.shard_failovers->Value() - failovers0, stats.failovers);
  EXPECT_EQ(cat.shard_breaker_skips->Value() - skips0, stats.breaker_skips);
  EXPECT_EQ(cat.shard_partial_answers->Value() - partial0,
            stats.partial_answers);
  EXPECT_EQ(cat.shard_rebalances->Value() - rebalances0, stats.rebalances);
  EXPECT_EQ(cat.shard_partitions_moved->Value() - moved0,
            stats.partitions_moved);
  EXPECT_EQ(cat.shard_cache_hits->Value() - cache0, stats.cache_hits);
}

}  // namespace
}  // namespace knmatch
