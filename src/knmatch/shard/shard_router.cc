#include "knmatch/shard/shard_router.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "knmatch/core/ad_algorithm.h"
#include "knmatch/core/answer_merge.h"
#include "knmatch/core/nmatch.h"
#include "knmatch/obs/catalog.h"

namespace knmatch::shard {

namespace {

using Clock = QueryContext::Clock;

int64_t ElapsedNs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              since)
      .count();
}

SimilarityEngine::DiskMethod ToDiskMethod(RouterOptions::Method method) {
  switch (method) {
    case RouterOptions::Method::kDiskScan:
      return SimilarityEngine::DiskMethod::kScan;
    case RouterOptions::Method::kDiskAd:
      return SimilarityEngine::DiskMethod::kAd;
    case RouterOptions::Method::kDiskVaFile:
      return SimilarityEngine::DiskMethod::kVaFile;
    case RouterOptions::Method::kDiskAuto:
    case RouterOptions::Method::kMemoryAd:
      break;
  }
  return SimilarityEngine::DiskMethod::kAuto;
}

/// True for the transient/data-loss statuses replica failover can heal.
/// Governance trips and validation errors are deterministic — retrying
/// them on another replica would only amplify load.
bool IsAvailabilityError(const Status& status) {
  return status.code() == StatusCode::kDataLoss ||
         status.code() == StatusCode::kUnavailable;
}

}  // namespace

/// One replica: a full engine over this shard's slice, with its own
/// DiskSimulator (independent fault domain).
struct ShardRouter::Replica {
  std::unique_ptr<SimilarityEngine> engine;
};

struct ShardRouter::Shard {
  /// Local pid -> global pid. Slices are built in ascending global pid
  /// order, so this is sorted — local tie order equals global tie
  /// order, which the canonical merge relies on.
  std::vector<PointId> to_global;
  std::vector<Replica> replicas;
  /// Fed by every dispatch to this shard; locks itself, so concurrent
  /// queries and /health readers share it safely.
  mutable exec::CircuitBreaker breaker;
  mutable exec::EwmaLatency ewma;
  /// Round-robin primary-replica cursor.
  mutable std::atomic<uint64_t> rr{0};

  explicit Shard(exec::CircuitBreaker::Options breaker_options)
      : breaker(breaker_options) {}
};

/// An immutable shard layout. Queries pin it via shared_ptr; Rebalance
/// builds a replacement off to the side and swaps the pointer.
struct ShardRouter::ShardSet {
  std::vector<std::unique_ptr<Shard>> shards;
};

/// What one shard's dispatch produced, written by its fan-out worker
/// and aggregated single-threaded after the barrier.
struct ShardRouter::ShardOutcome {
  bool empty = false;         // shard holds no points; skipped silently
  bool dispatched = false;    // at least one replica attempt ran
  bool breaker_skip = false;  // refused by the shard's open breaker
  bool hedged = false;
  bool hedge_win = false;
  size_t failovers = 0;
  bool ok = false;
  FrequentKnMatchResult answer;  // valid when ok
  Status status;                 // valid when !ok
  int64_t elapsed_ns = 0;        // whole dispatch (all attempts)
};

ShardRouter::ShardRouter(const Dataset& db, RouterOptions options)
    : options_(std::move(options)), db_(db) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.replicas == 0) options_.replicas = 1;
  plan_ = BuildPartitionPlan(db_, options_.partitioner, options_.shards,
                             options_.partitions_per_shard, options_.seed);
  set_ = BuildShardSet(db_, plan_);
  cache_epoch_ = cache::NextResultEpoch();

  size_t workers = options_.threads == 0
                       ? exec::ResolveThreads(0)
                       : exec::ResolveThreads(options_.threads,
                                              /*allow_oversubscription=*/true);
  workers = std::min(workers, options_.shards);
  pool_ = std::make_unique<exec::ThreadPool>(workers);

  obs::Cat().shard_count->Set(static_cast<int64_t>(options_.shards));
  obs::Cat().shard_replicas->Set(static_cast<int64_t>(options_.replicas));
  PublishShardGauges(*set_);
}

ShardRouter::~ShardRouter() = default;

std::shared_ptr<const ShardRouter::ShardSet> ShardRouter::BuildShardSet(
    const Dataset& db, const PartitionPlan& plan) const {
  const size_t S = options_.shards;
  const size_t R = options_.replicas;
  auto set = std::make_shared<ShardSet>();
  set->shards.reserve(S);

  // Slice in one ascending-pid sweep so every shard's local order is
  // the global order restricted to it.
  std::vector<Dataset> slices(S);
  std::vector<std::vector<PointId>> to_global(S);
  for (PointId pid = 0; pid < db.size(); ++pid) {
    const uint32_t s = plan.shard_of(pid);
    slices[s].Append(db.point(pid), db.label(pid));
    to_global[s].push_back(pid);
  }

  for (size_t s = 0; s < S; ++s) {
    auto sh = std::make_unique<Shard>(options_.breaker);
    sh->to_global = std::move(to_global[s]);
    slices[s].set_name(db.name() + "/shard" + std::to_string(s));
    sh->replicas.reserve(R);
    for (size_t r = 0; r < R; ++r) {
      Dataset copy = (r + 1 == R) ? std::move(slices[s]) : slices[s];
      auto engine = std::make_unique<SimilarityEngine>(std::move(copy),
                                                       options_.disk_config);
      sh->replicas.push_back(Replica{std::move(engine)});
    }
    set->shards.push_back(std::move(sh));
  }
  return set;
}

std::shared_ptr<const ShardRouter::ShardSet> ShardRouter::Pin() const {
  std::scoped_lock lock(set_mu_);
  return set_;
}

void ShardRouter::PublishShardGauges(const ShardSet& set) const {
  for (size_t s = 0; s < set.shards.size(); ++s) {
    obs::ShardPointsGauge(s)->Set(
        static_cast<int64_t>(set.shards[s]->to_global.size()));
  }
}

Result<KnMatchResult> ShardRouter::KnMatch(std::span<const Value> query,
                                           size_t n, size_t k,
                                           std::span<const Value> weights,
                                           QueryContext* ctx,
                                           DispatchReport* report) const {
  auto merged =
      RunQuery(query, n, n, k, weights, ctx, /*frequent=*/false, report);
  if (!merged.ok()) return merged.status();
  KnMatchResult out;
  out.matches = std::move(merged.value().per_n_sets[0]);
  out.attributes_retrieved = merged.value().attributes_retrieved;
  return out;
}

Result<FrequentKnMatchResult> ShardRouter::FrequentKnMatch(
    std::span<const Value> query, size_t n0, size_t n1, size_t k,
    std::span<const Value> weights, QueryContext* ctx,
    DispatchReport* report) const {
  return RunQuery(query, n0, n1, k, weights, ctx, /*frequent=*/true, report);
}

Result<FrequentKnMatchResult> ShardRouter::RunQuery(
    std::span<const Value> query, size_t n0, size_t n1, size_t k,
    std::span<const Value> weights, QueryContext* ctx, bool frequent,
    DispatchReport* report) const {
  DispatchReport local;
  DispatchReport& rep = report != nullptr ? *report : local;
  rep = DispatchReport{};
  Status valid =
      ValidateMatchParams(db_.size(), db_.dims(), query.size(), n0, n1, k);
  if (!valid.ok()) return valid;
  valid = ValidateAdWeights(weights, db_.dims());
  if (!valid.ok()) return valid;
  if (!weights.empty() && options_.method != RouterOptions::Method::kMemoryAd) {
    return Status::InvalidArgument(
        "per-dimension weights require the in-memory method (the disk "
        "path takes none)");
  }
  if (ctx != nullptr && ctx->tripped()) return ctx->trip_status();
  if (ctx != nullptr) {
    ctx->ArmPages(nullptr);
    // Latch an already-expired deadline or a raised cancel flag on the
    // caller's context before any fan-out work starts (the batch
    // executor skips doomed queries the same way).
    if (ctx->governed() && !ctx->Recheck(0, 0)) return ctx->trip_status();
  }

  queries_.fetch_add(1, std::memory_order_relaxed);
  obs::Cat().shard_queries->Add();

  // Router-level cache: full-coverage answers only, keyed under the
  // router's own result epoch.
  if (cache_ != nullptr) {
    std::optional<FrequentKnMatchResult> hit;
    if (frequent) {
      hit = cache_->LookupFrequent(cache_epoch_, query, n0, n1, k, weights);
    } else if (auto flat = cache_->LookupKnMatch(cache_epoch_, query, n0, k,
                                                 weights)) {
      hit.emplace();
      hit->per_n_sets.push_back(std::move(flat->matches));
      hit->attributes_retrieved = flat->attributes_retrieved;
    }
    if (hit) {
      rep.cache_hit = true;
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      obs::Cat().shard_cache_hits->Add();
      return std::move(*hit);
    }
  }

  const std::shared_ptr<const ShardSet> set = Pin();
  const size_t S = set->shards.size();
  size_t live = 0;
  for (const auto& sh : set->shards) {
    if (!sh->to_global.empty()) ++live;
  }

  // Governance slices: every shard races the same absolute deadline (a
  // fraction of the caller's remaining time, keeping gather headroom),
  // and the caller's attribute/page budgets split evenly across the
  // live shards.
  const bool has_deadline = ctx != nullptr && ctx->has_deadline();
  Clock::time_point slice_deadline{};
  if (has_deadline) {
    const Clock::time_point now = Clock::now();
    auto remaining = ctx->deadline() - now;
    if (remaining.count() < 0) remaining = Clock::duration::zero();
    slice_deadline =
        now + std::chrono::duration_cast<Clock::duration>(
                  remaining * options_.deadline_slice_fraction);
  }
  QueryBudgets budgets;
  std::shared_ptr<std::atomic<bool>> cancel;
  if (ctx != nullptr) {
    budgets = ctx->budgets();
    cancel = ctx->cancel_token();
    if (options_.split_budgets && live > 1) {
      if (budgets.max_attributes != 0) {
        budgets.max_attributes =
            std::max<uint64_t>(1, budgets.max_attributes / live);
      }
      if (budgets.max_pages != 0) {
        budgets.max_pages = std::max<uint64_t>(1, budgets.max_pages / live);
      }
    }
  }

  std::vector<ShardOutcome> outcomes(S);
  const Clock::time_point fanout_start = Clock::now();
  pool_->ParallelFor(S, [&](size_t, size_t s) {
    DispatchShard(*set, s, query, n0, n1, k, weights, frequent,
                  has_deadline, slice_deadline, budgets, cancel,
                  &outcomes[s]);
  });
  const int64_t fanout_ns = ElapsedNs(fanout_start);

  // Aggregate single-threaded: counters, metrics, degradation record.
  std::vector<const FrequentKnMatchResult*> partials;
  partials.reserve(S);
  for (size_t s = 0; s < S; ++s) {
    ShardOutcome& o = outcomes[s];
    if (o.empty) continue;
    ++rep.degradation.shards_total;
    if (o.breaker_skip) {
      ++rep.breaker_skips;
      rep.degradation.failed.push_back(
          {static_cast<uint32_t>(s), o.status});
      continue;
    }
    ++rep.shards_dispatched;
    if (o.hedged) ++rep.hedges;
    if (o.hedge_win) ++rep.hedge_wins;
    rep.failovers += o.failovers;
    obs::Cat().shard_dispatch_seconds->Observe(
        static_cast<uint64_t>(o.elapsed_ns));
    if (o.ok) {
      ++rep.degradation.shards_answered;
      partials.push_back(&o.answer);
    } else {
      rep.degradation.failed.push_back(
          {static_cast<uint32_t>(s), o.status});
    }
  }
  dispatches_.fetch_add(rep.shards_dispatched, std::memory_order_relaxed);
  hedges_.fetch_add(rep.hedges, std::memory_order_relaxed);
  hedge_wins_.fetch_add(rep.hedge_wins, std::memory_order_relaxed);
  failovers_.fetch_add(rep.failovers, std::memory_order_relaxed);
  breaker_skips_.fetch_add(rep.breaker_skips, std::memory_order_relaxed);
  {
    const obs::Catalog& cat = obs::Cat();
    cat.shard_dispatches->Add(rep.shards_dispatched);
    cat.shard_hedges->Add(rep.hedges);
    cat.shard_hedge_wins->Add(rep.hedge_wins);
    cat.shard_failovers->Add(rep.failovers);
    cat.shard_breaker_skips->Add(rep.breaker_skips);
    cat.shard_fanout_seconds->Observe(static_cast<uint64_t>(fanout_ns));
  }

  if (rep.degradation.shards_answered == 0 ||
      (rep.degradation.partial() && !options_.allow_partial)) {
    // Nothing usable (or partial coverage refused): surface the first
    // failed shard's status.
    return rep.degradation.failed.empty()
               ? Status::Internal("sharded query produced no answer")
               : rep.degradation.failed.front().status;
  }
  if (rep.degradation.partial()) {
    partial_answers_.fetch_add(1, std::memory_order_relaxed);
    obs::Cat().shard_partial_answers->Add();
  }

  FrequentKnMatchResult merged =
      internal::MergeFrequentPartials(partials, n1 - n0 + 1, k);

  // The gather keeps honoring the caller's own deadline/cancel; the
  // shard slices already enforced the (split) budgets.
  if (ctx != nullptr && ctx->governed() && !ctx->Recheck(0, 0)) {
    ctx->StorePartialSets(&merged.per_n_sets);
    return ctx->trip_status();
  }

  if (cache_ != nullptr && !rep.degradation.partial()) {
    if (frequent) {
      cache_->StoreFrequent(cache_epoch_, query, n0, n1, k, weights, merged);
    } else {
      KnMatchResult flat;
      flat.matches = merged.per_n_sets[0];
      flat.attributes_retrieved = merged.attributes_retrieved;
      cache_->StoreKnMatch(cache_epoch_, query, n0, k, weights, flat);
    }
  }
  if (ctx != nullptr) ctx->ObserveDeadlineFraction();
  return merged;
}

void ShardRouter::DispatchShard(
    const ShardSet& set, size_t shard_index, std::span<const Value> query,
    size_t n0, size_t n1, size_t k, std::span<const Value> weights,
    bool frequent, bool has_deadline,
    Clock::time_point slice_deadline, const QueryBudgets& budgets,
    const std::shared_ptr<std::atomic<bool>>& cancel,
    ShardOutcome* out) const {
  const Shard& sh = *set.shards[shard_index];
  if (sh.to_global.empty()) {
    out->empty = true;
    return;
  }
  if (!sh.breaker.Allow()) {
    out->breaker_skip = true;
    out->status = Status::Unavailable("shard circuit breaker open");
    return;
  }
  out->dispatched = true;
  const Clock::time_point start = Clock::now();
  const size_t R = sh.replicas.size();
  const size_t k_eff = std::min(k, sh.to_global.size());
  const size_t primary =
      sh.rr.fetch_add(1, std::memory_order_relaxed) % R;

  std::vector<char> tried(R, 0);
  bool trip = false;
  Result<FrequentKnMatchResult> res =
      Status::Unavailable("shard not dispatched");

  const bool hedge = options_.hedge_threshold_ms > 0 && R > 1 &&
                     sh.ewma.ms() >= options_.hedge_threshold_ms;
  if (hedge) {
    // Wait-both hedging: the duplicate runs on the next replica's engine
    // concurrently (other queries may be on either engine too) and is
    // joined before returning, as it borrows this frame. "First usable
    // answer wins" decides attribution (hedge_win), not which answer is
    // used — answers are identical, so preferring the primary's is
    // harmless.
    out->hedged = true;
    const size_t hedge_replica = (primary + 1) % R;
    tried[primary] = 1;
    tried[hedge_replica] = 1;
    Result<FrequentKnMatchResult> hedge_res =
        Status::Unavailable("hedge not dispatched");
    bool hedge_trip = false;
    std::atomic<int> first{-1};
    std::thread duplicate([&] {
      hedge_res = RunReplica(sh, hedge_replica, query, n0, n1, k_eff,
                             weights, frequent, has_deadline,
                             slice_deadline, budgets, cancel, &hedge_trip);
      int expected = -1;
      first.compare_exchange_strong(expected, 1,
                                    std::memory_order_acq_rel);
    });
    res = RunReplica(sh, primary, query, n0, n1, k_eff, weights, frequent,
                     has_deadline, slice_deadline, budgets, cancel, &trip);
    int expected = -1;
    first.compare_exchange_strong(expected, 0, std::memory_order_acq_rel);
    duplicate.join();
    if (first.load(std::memory_order_acquire) == 1 && hedge_res.ok()) {
      out->hedge_win = true;
    }
    if (!res.ok() && hedge_res.ok()) {
      // The hedge rescued a failed (or tripped) primary.
      res = std::move(hedge_res);
      trip = false;
      out->hedge_win = true;
    }
  } else {
    tried[primary] = 1;
    res = RunReplica(sh, primary, query, n0, n1, k_eff, weights, frequent,
                     has_deadline, slice_deadline, budgets, cancel, &trip);
  }

  if (!res.ok() && !trip && IsAvailabilityError(res.status())) {
    for (size_t i = 1; i < R; ++i) {
      const size_t r = (primary + i) % R;
      if (tried[r]) continue;
      ++out->failovers;
      trip = false;
      res = RunReplica(sh, r, query, n0, n1, k_eff, weights, frequent,
                       has_deadline, slice_deadline, budgets, cancel, &trip);
      if (res.ok() || trip || !IsAvailabilityError(res.status())) break;
    }
  }

  out->elapsed_ns = ElapsedNs(start);
  sh.ewma.Record(out->elapsed_ns);
  if (res.ok()) {
    sh.breaker.RecordSuccess();
    out->ok = true;
    out->answer = std::move(res.value());
  } else {
    sh.breaker.RecordFailure();
    out->status = res.status();
  }
}

Result<FrequentKnMatchResult> ShardRouter::RunReplica(
    const Shard& sh, size_t replica_index, std::span<const Value> query,
    size_t n0, size_t n1, size_t k, std::span<const Value> weights,
    bool frequent, bool has_deadline,
    Clock::time_point slice_deadline, const QueryBudgets& budgets,
    const std::shared_ptr<std::atomic<bool>>& cancel,
    bool* governance_trip) const {
  *governance_trip = false;
  SimilarityEngine& engine = *sh.replicas[replica_index].engine;

  QueryContext slice;
  if (has_deadline) slice.set_deadline(slice_deadline);
  if (cancel != nullptr) slice.set_cancel(cancel);
  slice.budgets() = budgets;
  QueryContext* pc = slice.governed() ? &slice : nullptr;

  Result<FrequentKnMatchResult> res =
      Status::Unavailable("replica not dispatched");
  switch (options_.method) {
    case RouterOptions::Method::kMemoryAd:
      if (frequent) {
        res = engine.FrequentKnMatch(query, n0, n1, k, weights, pc);
      } else {
        auto kn = engine.KnMatch(query, n0, k, weights, pc);
        if (!kn.ok()) {
          res = kn.status();
        } else {
          FrequentKnMatchResult wrapped;
          wrapped.per_n_sets.push_back(std::move(kn.value().matches));
          wrapped.attributes_retrieved = kn.value().attributes_retrieved;
          res = std::move(wrapped);
        }
      }
      break;
    case RouterOptions::Method::kDiskAuto:
    case RouterOptions::Method::kDiskScan:
    case RouterOptions::Method::kDiskAd:
    case RouterOptions::Method::kDiskVaFile:
      res = engine.DiskFrequentKnMatch(query, n0, n1, k,
                                       ToDiskMethod(options_.method), pc);
      break;
  }
  if (!res.ok()) {
    if (pc != nullptr && pc->tripped()) *governance_trip = true;
    return res.status();
  }

  FrequentKnMatchResult& answer = res.value();
  for (std::vector<Neighbor>& set : answer.per_n_sets) {
    for (Neighbor& nb : set) nb.pid = sh.to_global[nb.pid];
  }
  for (Neighbor& nb : answer.matches) nb.pid = sh.to_global[nb.pid];
  return res;
}

Result<RebalanceReport> ShardRouter::Rebalance() {
  std::unique_lock<std::mutex> lock(set_mu_);
  PartitionPlan plan = plan_;
  lock.unlock();

  RebalanceReport report;
  {
    const std::vector<uint64_t> before = plan.ShardPoints();
    report.max_shard_points_before =
        *std::max_element(before.begin(), before.end());
  }
  std::vector<uint32_t> next =
      BalanceAssignment(plan.partition_points, options_.shards);
  for (size_t p = 0; p < plan.num_partitions; ++p) {
    if (next[p] != plan.shard_of_partition[p]) ++report.partitions_moved;
  }
  plan.shard_of_partition = std::move(next);
  {
    const std::vector<uint64_t> after = plan.ShardPoints();
    report.max_shard_points_after =
        *std::max_element(after.begin(), after.end());
  }

  if (report.partitions_moved != 0) {
    // Build off-lock: concurrent queries keep answering from their
    // pinned snapshot the whole time.
    std::shared_ptr<const ShardSet> next_set = BuildShardSet(db_, plan);
    lock.lock();
    plan_ = std::move(plan);
    set_ = std::move(next_set);
    lock.unlock();
    PublishShardGauges(*Pin());
  }

  rebalances_.fetch_add(1, std::memory_order_relaxed);
  partitions_moved_.fetch_add(report.partitions_moved,
                              std::memory_order_relaxed);
  obs::Cat().shard_rebalances->Add();
  obs::Cat().shard_partitions_moved->Add(report.partitions_moved);
  return report;
}

RouterStats ShardRouter::Stats() const {
  RouterStats stats;
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.dispatches = dispatches_.load(std::memory_order_relaxed);
  stats.hedges = hedges_.load(std::memory_order_relaxed);
  stats.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  stats.failovers = failovers_.load(std::memory_order_relaxed);
  stats.breaker_skips = breaker_skips_.load(std::memory_order_relaxed);
  stats.partial_answers = partial_answers_.load(std::memory_order_relaxed);
  stats.rebalances = rebalances_.load(std::memory_order_relaxed);
  stats.partitions_moved = partitions_moved_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  const std::shared_ptr<const ShardSet> set = Pin();
  stats.shard_points.reserve(set->shards.size());
  for (const auto& sh : set->shards) {
    stats.shard_points.push_back(sh->to_global.size());
  }
  return stats;
}

size_t ShardRouter::shard_size(size_t shard) const {
  const std::shared_ptr<const ShardSet> set = Pin();
  return shard < set->shards.size() ? set->shards[shard]->to_global.size()
                                    : 0;
}

exec::CircuitBreaker::State ShardRouter::breaker_state(size_t shard) const {
  const std::shared_ptr<const ShardSet> set = Pin();
  return shard < set->shards.size() ? set->shards[shard]->breaker.state()
                                    : exec::CircuitBreaker::State::kClosed;
}

SimilarityEngine* ShardRouter::replica_engine(size_t shard,
                                              size_t replica) const {
  const std::shared_ptr<const ShardSet> set = Pin();
  if (shard >= set->shards.size()) return nullptr;
  const Shard& sh = *set->shards[shard];
  if (replica >= sh.replicas.size()) return nullptr;
  return sh.replicas[replica].engine.get();
}

void ShardRouter::EnableCache(cache::CacheConfig config) {
  cache_ = std::make_unique<cache::QueryResultCache>(config);
}

void ShardRouter::DisableCache() { cache_.reset(); }

}  // namespace knmatch::shard
