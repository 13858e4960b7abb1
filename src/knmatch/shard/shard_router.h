#ifndef KNMATCH_SHARD_SHARD_ROUTER_H_
#define KNMATCH_SHARD_SHARD_ROUTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "knmatch/cache/query_cache.h"
#include "knmatch/common/dataset.h"
#include "knmatch/common/status.h"
#include "knmatch/core/match_types.h"
#include "knmatch/core/query_context.h"
#include "knmatch/engine.h"
#include "knmatch/exec/circuit_breaker.h"
#include "knmatch/exec/ewma.h"
#include "knmatch/exec/thread_pool.h"
#include "knmatch/shard/partition.h"
#include "knmatch/storage/disk_simulator.h"

namespace knmatch::shard {

/// Options for a ShardRouter. Defaults give a 4-shard, unreplicated,
/// hash-partitioned, in-memory router with hedging off.
struct RouterOptions {
  /// Shard count S. Each shard holds a horizontal slice of the dataset
  /// behind `replicas` full SimilarityEngines.
  size_t shards = 4;
  /// Replica group size per shard. Each replica is its own engine over
  /// its own DiskSimulator — independent fault domains, so hedging and
  /// failover have somewhere to go.
  size_t replicas = 1;
  /// Virtual partitions per shard (placement granularity; see
  /// PartitionPlan). More partitions = finer rebalancing.
  size_t partitions_per_shard = 8;
  Partitioner partitioner = Partitioner::kHash;
  /// Seed for the k-means partitioner (hash/range ignore it).
  uint64_t seed = 1;
  /// Fan-out worker threads; 0 picks min(shards, hardware). Requests
  /// are capped at the shard count — more workers than shards is waste.
  size_t threads = 0;

  /// Per-shard execution method. kMemoryAd runs the in-memory AD
  /// kernel; the kDisk* methods route through each replica engine's
  /// DiskFrequentKnMatch (kDiskAuto with the engine's own degradation
  /// chain, so an injected fault degrades inside the shard before the
  /// router ever sees it; the explicit disk methods surface faults to
  /// the router, exercising replica failover instead). Every method
  /// computes identical answers. The disk methods reject per-dimension
  /// weights, as the engine's disk path does.
  enum class Method { kMemoryAd, kDiskAuto, kDiskScan, kDiskAd, kDiskVaFile };
  Method method = Method::kMemoryAd;

  /// Hedging: when a shard's EWMA dispatch latency (exec/ewma.h) is at
  /// or above this threshold and the shard has a second replica, the
  /// dispatch is duplicated to the next replica concurrently and the
  /// first usable answer wins (answers are identical; hedging buys
  /// latency and masks a slow or failing primary). 0 disables.
  double hedge_threshold_ms = 0;

  /// Fraction of the caller's remaining deadline granted to each shard
  /// slice, the rest being merge/gather headroom. Slices are absolute:
  /// every shard of one query races the same wall-clock instant.
  double deadline_slice_fraction = 0.9;
  /// Divide the caller's attribute/page budgets evenly across the
  /// non-empty shards (scratch budgets pass through unchanged — each
  /// shard's arena is already proportionally smaller).
  bool split_budgets = true;

  /// When a shard produces no answer (breaker open, every replica
  /// failed, or its slice tripped), answer from the surviving shards
  /// and report the loss in the query's DispatchReport.degradation
  /// instead of failing the query. False surfaces the first shard error.
  bool allow_partial = true;

  /// Per-shard circuit breaker tuning (exec/circuit_breaker.h).
  exec::CircuitBreaker::Options breaker;

  /// Disk model for every replica engine (each builds its own
  /// DiskSimulator from this, lazily).
  DiskConfig disk_config;
};

/// One shard that contributed no answer to a scatter-gather query.
struct ShardFailure {
  uint32_t shard = 0;
  Status status;
};

/// GovernanceTrip-style degradation record for a scatter-gather
/// answer: which shards are missing from it and why. Populated in the
/// query's DispatchReport whenever it returns with partial coverage.
struct ShardDegradation {
  /// Shards that produced no answer, ascending by shard index.
  std::vector<ShardFailure> failed;
  /// Non-empty shards that answered.
  size_t shards_answered = 0;
  /// Non-empty shards the query needed.
  size_t shards_total = 0;

  bool partial() const { return !failed.empty(); }
};

/// Per-query dispatch diagnostics, filled through the optional
/// `report` argument of ShardRouter::KnMatch/FrequentKnMatch (in the
/// mold of the engine's DiskReport).
struct DispatchReport {
  /// Shards actually dispatched to (non-empty, breaker allowed).
  size_t shards_dispatched = 0;
  /// Hedged duplicate dispatches issued.
  size_t hedges = 0;
  /// Hedges whose replica finished first with a usable answer.
  size_t hedge_wins = 0;
  /// Failover re-dispatches to further replicas.
  size_t failovers = 0;
  /// Shards skipped because their breaker was open.
  size_t breaker_skips = 0;
  /// Query served from the router's result cache (no fan-out).
  bool cache_hit = false;
  ShardDegradation degradation;
};

/// Lifetime counters, mirrored 1:1 by the knmatch_shard_* metric
/// family (the metric==engine equality tests hold them to each other).
struct RouterStats {
  uint64_t queries = 0;
  uint64_t dispatches = 0;
  uint64_t hedges = 0;
  uint64_t hedge_wins = 0;
  uint64_t failovers = 0;
  uint64_t breaker_skips = 0;
  uint64_t partial_answers = 0;
  uint64_t rebalances = 0;
  uint64_t partitions_moved = 0;
  uint64_t cache_hits = 0;
  /// Points per shard under the current assignment.
  std::vector<uint64_t> shard_points;
};

/// What a Rebalance() call changed.
struct RebalanceReport {
  size_t partitions_moved = 0;
  uint64_t max_shard_points_before = 0;
  uint64_t max_shard_points_after = 0;
};

/// Scatter-gather k-n-match over S shards with replica groups.
///
/// The dataset is split by a PartitionPlan into S shards; each shard
/// is `replicas` full SimilarityEngines over the shard's slice (each
/// with its own fault-injectable DiskSimulator). A query fans out
/// across the shards on a fixed ThreadPool, each shard answers its
/// local top-min(k, |shard|) under a per-shard governance slice, and
/// the partials merge exactly through the global n-match-difference
/// heap (core/answer_merge.h) — bit-identical to one unsharded engine
/// over the whole dataset (see docs/sharding.md for the argument and
/// the boundary-tie caveat).
///
/// Resilience, layered per shard on the existing primitives:
///  - a CircuitBreaker per shard (open shard => skipped, reported);
///  - EWMA-triggered hedged dispatch to the next replica;
///  - read failover across the replica group on kDataLoss/kUnavailable
///    (never on governance trips — no retry amplification);
///  - partial answers from surviving shards with a ShardDegradation
///    record when allow_partial.
///
/// Rebalance() moves whole partitions between shards under snapshot
/// reads: queries pin the current immutable shard set via shared_ptr
/// and keep answering while the rebalanced set is built, then the
/// pointer swaps. Answers are placement-invariant, so the router's
/// cache epoch survives a rebalance.
///
/// Thread-safety: queries may run from many threads at once and beside
/// Rebalance(); each fills its own DispatchReport. Cache hits never
/// wait; misses take turns on the fan-out pool. EnableCache/
/// DisableCache/replica_engine() require external quiescence.
class ShardRouter {
 public:
  /// Copies (slices of) `db` into the shards. The source dataset is
  /// not retained.
  explicit ShardRouter(const Dataset& db, RouterOptions options = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Scatter-gather k-n-match. `ctx` governs the whole query; each
  /// shard runs under a slice of its deadline/budgets (see
  /// RouterOptions). When `report` is non-null it receives this
  /// call's dispatch diagnostics: on a full-coverage answer
  /// report->degradation.partial() is false; under allow_partial a
  /// shard failure degrades coverage instead of failing the call.
  Result<KnMatchResult> KnMatch(std::span<const Value> query, size_t n,
                                size_t k,
                                std::span<const Value> weights = {},
                                QueryContext* ctx = nullptr,
                                DispatchReport* report = nullptr) const;

  /// Scatter-gather frequent k-n-match; as KnMatch.
  Result<FrequentKnMatchResult> FrequentKnMatch(
      std::span<const Value> query, size_t n0, size_t n1, size_t k,
      std::span<const Value> weights = {}, QueryContext* ctx = nullptr,
      DispatchReport* report = nullptr) const;

  /// Recomputes a balanced partition->shard assignment (longest-
  /// processing-time greedy) and atomically swaps in a freshly built
  /// shard set. In-flight and concurrent queries keep reading their
  /// pinned snapshot. Replica breakers/EWMAs restart fresh; attached
  /// fault injectors do not carry over (re-attach via replica_engine).
  Result<RebalanceReport> Rebalance();

  /// Lifetime counters plus current shard sizes.
  RouterStats Stats() const;

  const RouterOptions& options() const { return options_; }
  size_t num_shards() const { return options_.shards; }
  size_t num_replicas() const { return options_.replicas; }
  /// Points currently placed on `shard`.
  size_t shard_size(size_t shard) const;
  /// Breaker state of `shard` in the current set.
  exec::CircuitBreaker::State breaker_state(size_t shard) const;

  /// One replica's engine in the current shard set — for tests and
  /// fault tooling (SetFaultInjector). The pointer is invalidated by
  /// Rebalance(); requires external quiescence.
  SimilarityEngine* replica_engine(size_t shard, size_t replica) const;

  /// Router-level result cache over full-coverage answers (partial
  /// answers are never cached). Keys carry the router's own result
  /// epoch (cache::NextResultEpoch), so a cache may be observed across
  /// engines and routers without aliasing.
  void EnableCache(cache::CacheConfig config = cache::CacheConfig());
  void DisableCache();
  cache::QueryResultCache* cache() const { return cache_.get(); }
  uint64_t cache_epoch() const { return cache_epoch_; }

 private:
  struct Replica;
  struct Shard;
  struct ShardSet;
  struct ShardOutcome;

  /// The shared scatter-gather path under both public entry points.
  Result<FrequentKnMatchResult> RunQuery(std::span<const Value> query,
                                         size_t n0, size_t n1, size_t k,
                                         std::span<const Value> weights,
                                         QueryContext* ctx, bool frequent,
                                         DispatchReport* report) const;

  /// One shard's dispatch: breaker consult, primary (+ optional hedged
  /// replica) attempt, failover walk. Runs on a fan-out worker.
  void DispatchShard(const ShardSet& set, size_t shard_index,
                     std::span<const Value> query, size_t n0, size_t n1,
                     size_t k, std::span<const Value> weights,
                     bool frequent, bool has_deadline,
                     QueryContext::Clock::time_point slice_deadline,
                     const QueryBudgets& budgets,
                     const std::shared_ptr<std::atomic<bool>>& cancel,
                     ShardOutcome* out) const;

  /// One replica attempt; translates answer pids to global ids.
  Result<FrequentKnMatchResult> RunReplica(
      const Shard& sh, size_t replica_index, std::span<const Value> query,
      size_t n0, size_t n1, size_t k, std::span<const Value> weights,
      bool frequent, bool has_deadline,
      QueryContext::Clock::time_point slice_deadline,
      const QueryBudgets& budgets,
      const std::shared_ptr<std::atomic<bool>>& cancel,
      bool* governance_trip) const;

  /// Builds a shard set for the given partition->shard assignment.
  std::shared_ptr<const ShardSet> BuildShardSet(
      const Dataset& db, const PartitionPlan& plan) const;

  std::shared_ptr<const ShardSet> Pin() const;
  void PublishShardGauges(const ShardSet& set) const;

  RouterOptions options_;
  PartitionPlan plan_;                 // guarded by set_mu_
  /// Rebalance rebuilds shards from this flat copy of the dataset.
  Dataset db_;
  std::unique_ptr<cache::QueryResultCache> cache_;
  uint64_t cache_epoch_ = 0;

  mutable std::mutex set_mu_;          // guards set_ swaps and plan_
  std::shared_ptr<const ShardSet> set_;

  mutable std::unique_ptr<exec::ThreadPool> pool_;

  // Lifetime counters (relaxed; read by Stats() and the obs family).
  mutable std::atomic<uint64_t> queries_{0};
  mutable std::atomic<uint64_t> dispatches_{0};
  mutable std::atomic<uint64_t> hedges_{0};
  mutable std::atomic<uint64_t> hedge_wins_{0};
  mutable std::atomic<uint64_t> failovers_{0};
  mutable std::atomic<uint64_t> breaker_skips_{0};
  mutable std::atomic<uint64_t> partial_answers_{0};
  mutable std::atomic<uint64_t> rebalances_{0};
  mutable std::atomic<uint64_t> partitions_moved_{0};
  mutable std::atomic<uint64_t> cache_hits_{0};
};

}  // namespace knmatch::shard

#endif  // KNMATCH_SHARD_SHARD_ROUTER_H_
