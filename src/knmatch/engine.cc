#include "knmatch/engine.h"

#include <atomic>
#include <utility>
#include <vector>

#include "knmatch/cache/btree_bridge.h"
#include "knmatch/core/nmatch.h"
#include "knmatch/core/nmatch_join.h"
#include "knmatch/diskalgo/btree_ad.h"
#include "knmatch/eval/selectivity.h"
#include "knmatch/obs/catalog.h"
#include "knmatch/obs/trace.h"
#include "knmatch/storage/ingest.h"

namespace knmatch {

namespace {

obs::Counter* MethodCounter(SimilarityEngine::DiskMethod m) {
  switch (m) {
    case SimilarityEngine::DiskMethod::kScan:
      return obs::Cat().disk_method_scan;
    case SimilarityEngine::DiskMethod::kAd:
      return obs::Cat().disk_method_ad;
    case SimilarityEngine::DiskMethod::kVaFile:
      return obs::Cat().disk_method_va;
    case SimilarityEngine::DiskMethod::kMemoryAd:
      return obs::Cat().disk_method_memory;
    case SimilarityEngine::DiskMethod::kAuto:
      break;  // never the method that answered
  }
  return nullptr;
}

obs::Counter* FallbackCounter(SimilarityEngine::DiskMethod m) {
  switch (m) {
    case SimilarityEngine::DiskMethod::kScan:
      return obs::Cat().fallback_from_scan;
    case SimilarityEngine::DiskMethod::kAd:
      return obs::Cat().fallback_from_ad;
    case SimilarityEngine::DiskMethod::kVaFile:
      return obs::Cat().fallback_from_va;
    case SimilarityEngine::DiskMethod::kMemoryAd:
    case SimilarityEngine::DiskMethod::kAuto:
      break;  // the terminal method never falls back; kAuto never runs
  }
  return nullptr;
}

obs::Gauge* BreakerGauge(SimilarityEngine::DiskMethod m) {
  switch (m) {
    case SimilarityEngine::DiskMethod::kScan:
      return obs::Cat().breaker_state_scan;
    case SimilarityEngine::DiskMethod::kAd:
      return obs::Cat().breaker_state_ad;
    case SimilarityEngine::DiskMethod::kVaFile:
      return obs::Cat().breaker_state_va;
    case SimilarityEngine::DiskMethod::kMemoryAd:
    case SimilarityEngine::DiskMethod::kAuto:
      break;  // no breaker guards these
  }
  return nullptr;
}

}  // namespace

SimilarityEngine::SimilarityEngine(Dataset db, DiskConfig config)
    : db_(std::move(db)), config_(config) {
  cache_epoch_ = cache::NextResultEpoch();
  ResetOnceFlags();
}

void SimilarityEngine::EnableCache(cache::CacheConfig config) {
  cache_ = std::make_unique<cache::QueryResultCache>(config);
}

void SimilarityEngine::DisableCache() { cache_.reset(); }

SimilarityEngine::~SimilarityEngine() = default;

void SimilarityEngine::ResetOnceFlags() {
  ad_once_ = std::make_unique<std::once_flag>();
  igrid_once_ = std::make_unique<std::once_flag>();
  disk_once_ = std::make_unique<std::once_flag>();
  advisor_once_ = std::make_unique<std::once_flag>();
  estimator_once_ = std::make_unique<std::once_flag>();
}

void SimilarityEngine::EnsureAd() const {
  std::call_once(*ad_once_,
                 [this] { ad_ = std::make_unique<AdSearcher>(db_); });
}

void SimilarityEngine::EnsureIGrid() const {
  std::call_once(*igrid_once_,
                 [this] { igrid_ = std::make_unique<IGridIndex>(db_); });
}

void SimilarityEngine::EnsureDiskStores() const {
  std::call_once(*disk_once_, [this] {
    disk_ = std::make_unique<DiskSimulator>(config_);
    // The stores are built before the injector attaches: construction
    // writes pages, and the fault model covers reads only.
    rows_ = std::make_unique<RowStore>(db_, disk_.get());
    columns_ = std::make_unique<ColumnStore>(db_, disk_.get());
    va_ = std::make_unique<VaFile>(db_, disk_.get(), 8);
    disk_->set_fault_injector(injector_);
  });
}

void SimilarityEngine::EnsureAdvisor() const {
  std::call_once(*advisor_once_, [this] {
    advisor_ = std::make_unique<eval::QueryAdvisor>(db_, config_);
  });
}

void SimilarityEngine::EnsureEstimator() const {
  std::call_once(*estimator_once_, [this] {
    estimator_ = std::make_unique<eval::SelectivityEstimator>(db_);
  });
}

exec::BatchExecutor& SimilarityEngine::AcquireExecutor(
    const exec::BatchOptions& options) const {
  const size_t resolved =
      exec::ResolveThreads(options.threads, options.allow_oversubscription);
  if (executor_ == nullptr || executor_->threads() != resolved) {
    // `resolved` is final — re-resolving in the constructor must not
    // clamp an explicitly allowed oversubscribed count.
    executor_ = std::make_unique<exec::BatchExecutor>(
        resolved, /*allow_oversubscription=*/true);
  }
  return *executor_;
}

Result<KnMatchResult> SimilarityEngine::KnMatch(
    std::span<const Value> query, size_t n, size_t k,
    std::span<const Value> weights, QueryContext* ctx) const {
  EnsureAd();
  auto r = cache::CachedKnMatch(CacheHandle(), *ad_, query, n, k, weights,
                                nullptr, ctx);
  if (ctx != nullptr) ctx->ObserveDeadlineFraction();
  return r;
}

Result<FrequentKnMatchResult> SimilarityEngine::FrequentKnMatch(
    std::span<const Value> query, size_t n0, size_t n1, size_t k,
    std::span<const Value> weights, QueryContext* ctx) const {
  EnsureAd();
  auto r = cache::CachedFrequentKnMatch(CacheHandle(), *ad_, query, n0, n1,
                                        k, weights, nullptr, ctx);
  if (ctx != nullptr) ctx->ObserveDeadlineFraction();
  return r;
}

Result<KnMatchResult> SimilarityEngine::Knn(std::span<const Value> query,
                                            size_t k, Metric metric,
                                            QueryContext* ctx) const {
  auto r = cache::CachedKnn(CacheHandle(), db_, query, k, metric, ctx);
  if (ctx != nullptr) ctx->ObserveDeadlineFraction();
  return r;
}

Result<exec::KnMatchBatchResult> SimilarityEngine::KnMatchBatch(
    const exec::BatchRequest& request, size_t n, size_t k,
    std::span<const Value> weights) const {
  EnsureAd();
  std::scoped_lock lock(exec_mu_);
  return AcquireExecutor(request.options)
      .KnMatch(*ad_, request, n, k, weights, CacheHandle());
}

Result<exec::FrequentKnMatchBatchResult>
SimilarityEngine::FrequentKnMatchBatch(const exec::BatchRequest& request,
                                       size_t n0, size_t n1, size_t k,
                                       std::span<const Value> weights) const {
  EnsureAd();
  std::scoped_lock lock(exec_mu_);
  return AcquireExecutor(request.options)
      .FrequentKnMatch(*ad_, request, n0, n1, k, weights, CacheHandle());
}

Result<exec::KnMatchBatchResult> SimilarityEngine::KnnBatch(
    const exec::BatchRequest& request, size_t k, Metric metric) const {
  std::scoped_lock lock(exec_mu_);
  return AcquireExecutor(request.options)
      .Knn(db_, request, k, metric, CacheHandle());
}

Result<KnMatchResult> SimilarityEngine::IGridSearch(
    std::span<const Value> query, size_t k) const {
  EnsureIGrid();
  return igrid_->Search(query, k);
}

Result<std::vector<JoinPair>> SimilarityEngine::SelfJoin(
    size_t n, Value epsilon) const {
  return NMatchSelfJoin(db_, n, epsilon);
}

Result<SimilarityEngine::SelectivityEstimate>
SimilarityEngine::EstimateSelectivity(std::span<const Value> query,
                                      size_t n, size_t k) const {
  Status s =
      ValidateMatchParams(db_.size(), db_.dims(), query.size(), n, n, k);
  if (!s.ok()) return s;
  EnsureEstimator();
  SelectivityEstimate estimate;
  estimate.estimated_difference =
      estimator_->EstimateKnMatchDifference(query, n, k);
  estimate.ad_attribute_fraction =
      estimator_->EstimateAdAttributeFraction(query, n, k);
  return estimate;
}

PointId SimilarityEngine::InsertPoint(std::span<const Value> coords,
                                      Label label) {
  const PointId pid = db_.Append(coords, label);
  // Precise cache invalidation: evict only the entries the new point
  // could enter; everything else stays warm across the index rebuilds.
  if (cache_ != nullptr) cache_->OnPointInserted(pid, coords);
  // Invalidate every derived structure; each rebuilds on next use.
  // InsertPoint requires exclusive access to the engine, so re-arming
  // the call_once flags here is race-free. The batch executor survives:
  // its scratch arenas adapt to any dataset shape per query.
  ad_.reset();
  igrid_.reset();
  disk_.reset();
  rows_.reset();
  columns_.reset();
  va_.reset();
  advisor_.reset();
  estimator_.reset();
  ResetOnceFlags();
  return pid;
}

Status SimilarityEngine::BeginIngest(IngestConfig config) {
  if (live_ != nullptr) {
    return Status::FailedPrecondition(
        "an ingest session is already active; EndIngest() first");
  }
  if (db_.dims() == 0) {
    return Status::FailedPrecondition(
        "cannot ingest into an empty dataset (dimensionality unknown)");
  }
  live_disk_ = std::make_unique<DiskSimulator>(config_);
  LiveColumnIndex::Config live_config;
  live_config.group_commit_window = config.group_commit_window;
  auto live =
      std::make_unique<LiveColumnIndex>(db_, live_disk_.get(), live_config);
  live->set_fault_injector(injector_);
  if (cache_ != nullptr) {
    // Per-tree listeners translate entry mutations into precise cache
    // invalidations. The trees buffer notifications until commit
    // durability, so the cache never evicts for a transaction a crash
    // could still discard.
    live_bridge_ = std::make_unique<cache::BTreeCacheBridge>(cache_.get(),
                                                             db_.dims());
    for (size_t dim = 0; dim < db_.dims(); ++dim) {
      live->tree(dim).set_mutation_listener(live_bridge_->ListenerFor(dim));
    }
  }
  live_ = std::move(live);
  next_ingest_pid_ = static_cast<PointId>(db_.size());
  return Status::OK();
}

Status SimilarityEngine::BeginIngest() { return BeginIngest(IngestConfig()); }

Result<PointId> SimilarityEngine::IngestPoint(std::span<const Value> coords) {
  if (live_ == nullptr) {
    return Status::FailedPrecondition("no ingest session; BeginIngest() first");
  }
  const PointId pid = next_ingest_pid_;
  Status s = live_->Insert(pid, coords);
  if (!s.ok()) return s;
  ++next_ingest_pid_;
  return pid;
}

Result<bool> SimilarityEngine::ErasePoint(PointId pid) {
  if (live_ == nullptr) {
    return Status::FailedPrecondition("no ingest session; BeginIngest() first");
  }
  return live_->Erase(pid);
}

Status SimilarityEngine::FlushIngest() {
  if (live_ == nullptr) {
    return Status::FailedPrecondition("no ingest session; BeginIngest() first");
  }
  return live_->Flush();
}

Status SimilarityEngine::Checkpoint() {
  if (live_ == nullptr) {
    return Status::FailedPrecondition("no ingest session; BeginIngest() first");
  }
  return live_->Checkpoint();
}

Status SimilarityEngine::Recover() {
  if (live_ == nullptr) {
    return Status::FailedPrecondition("no ingest session; BeginIngest() first");
  }
  Status s = live_->Recover();
  // Entries cached before the crash may reflect transactions recovery
  // discarded (volatile WAL tail); a fresh epoch makes every one of
  // them unreachable, whatever recovery concluded.
  cache_epoch_ = cache::NextResultEpoch();
  return s;
}

Status SimilarityEngine::EndIngest() {
  if (live_ == nullptr) {
    return Status::FailedPrecondition("no ingest session; BeginIngest() first");
  }
  Status s = live_->Flush();
  if (!s.ok()) return s;
  s = live_->Checkpoint();
  if (!s.ok()) return s;

  // Materialize the committed live rows into a fresh dataset, ids
  // remapped to 0..n-1 in ascending live-id order. Labels are dropped:
  // after erases and inserts there is no per-row label assignment that
  // is both total and faithful to the base labelling.
  Dataset next;
  next.set_name(db_.name());
  for (const PointId pid : live_->LivePids()) {
    auto coords = live_->CoordsOf(pid);
    if (!coords.ok()) return coords.status();
    next.Append(coords.value());
  }
  db_ = std::move(next);

  live_.reset();
  live_bridge_.reset();
  live_disk_.reset();

  // The id space changed wholesale, so precise invalidation cannot
  // help: a fresh epoch strands every cached entry, and every derived
  // structure rebuilds on next use.
  cache_epoch_ = cache::NextResultEpoch();
  ad_.reset();
  igrid_.reset();
  disk_.reset();
  rows_.reset();
  columns_.reset();
  va_.reset();
  advisor_.reset();
  estimator_.reset();
  ResetOnceFlags();
  return Status::OK();
}

Result<KnMatchResult> SimilarityEngine::LiveKnMatch(
    std::span<const Value> query, size_t n, size_t k,
    QueryContext* ctx) const {
  if (live_ == nullptr) {
    return Status::FailedPrecondition("no ingest session; BeginIngest() first");
  }
  const auto snap = live_->PinSnapshot();
  SnapshotColumns columns(snap->trees, snap->pid_bound);
  auto r = SnapshotAdSearcher(columns).KnMatch(query, n, k, ctx);
  if (ctx != nullptr) ctx->ObserveDeadlineFraction();
  return r;
}

Result<FrequentKnMatchResult> SimilarityEngine::LiveFrequentKnMatch(
    std::span<const Value> query, size_t n0, size_t n1, size_t k,
    QueryContext* ctx) const {
  if (live_ == nullptr) {
    return Status::FailedPrecondition("no ingest session; BeginIngest() first");
  }
  const auto snap = live_->PinSnapshot();
  SnapshotColumns columns(snap->trees, snap->pid_bound);
  auto r = SnapshotAdSearcher(columns).FrequentKnMatch(query, n0, n1, k, ctx);
  if (ctx != nullptr) ctx->ObserveDeadlineFraction();
  return r;
}

void SimilarityEngine::SetFaultInjector(FaultInjector* injector) {
  injector_ = injector;
  if (disk_ != nullptr) disk_->set_fault_injector(injector_);
  if (live_ != nullptr) live_->set_fault_injector(injector_);
}

void SimilarityEngine::ClearFaults() {
  if (injector_ != nullptr) injector_->Clear();
  if (disk_ != nullptr) disk_->ClearQuarantine();
}

DiskSimulator* SimilarityEngine::disk_simulator() const {
  EnsureDiskStores();
  return disk_.get();
}

exec::CircuitBreaker* SimilarityEngine::breaker(DiskMethod method) const {
  switch (method) {
    case DiskMethod::kScan:
      return &breaker_scan_;
    case DiskMethod::kAd:
      return &breaker_ad_;
    case DiskMethod::kVaFile:
      return &breaker_va_;
    case DiskMethod::kMemoryAd:
    case DiskMethod::kAuto:
      break;
  }
  return nullptr;
}

const exec::CircuitBreaker* SimilarityEngine::circuit_breaker(
    DiskMethod method) const {
  return breaker(method);
}

Result<FrequentKnMatchResult> SimilarityEngine::RunDiskMethod(
    DiskMethod method, std::span<const Value> query, size_t n0, size_t n1,
    size_t k, QueryContext* ctx) const {
  switch (method) {
    case DiskMethod::kScan:
      return DiskScan(*rows_).FrequentKnMatch(query, n0, n1, k, ctx);
    case DiskMethod::kAd:
      return DiskAdSearcher(*columns_).FrequentKnMatch(query, n0, n1, k,
                                                       ctx);
    case DiskMethod::kVaFile: {
      auto va = VaKnMatchSearcher(*va_, *rows_).FrequentKnMatch(query, n0,
                                                                n1, k, ctx);
      if (!va.ok()) return va.status();
      return std::move(va).value().base;
    }
    case DiskMethod::kMemoryAd:
      EnsureAd();
      return ad_->FrequentKnMatch(query, n0, n1, k, {}, nullptr, ctx);
    case DiskMethod::kAuto:
      break;  // resolved by the caller
  }
  return Status::Internal("no disk method ran");
}

Result<FrequentKnMatchResult> SimilarityEngine::DiskFrequentKnMatch(
    std::span<const Value> query, size_t n0, size_t n1, size_t k,
    DiskMethod method, QueryContext* ctx) const {
  EnsureDiskStores();
  last_disk_fallback_.clear();

  const bool auto_routed = method == DiskMethod::kAuto;
  if (auto_routed) {
    EnsureAdvisor();
    auto estimate = advisor_->Estimate(query, n0, n1, k);
    if (!estimate.ok()) return estimate.status();
    switch (estimate.value().best) {
      case eval::SearchMethod::kSequentialScan:
        method = DiskMethod::kScan;
        break;
      case eval::SearchMethod::kDiskAd:
        method = DiskMethod::kAd;
        break;
      case eval::SearchMethod::kVaFile:
        method = DiskMethod::kVaFile;
        break;
    }
  }

  // The advisor's pick, then — for auto-routed queries only — the
  // degradation chain: cheapest-first among what remains, ending at the
  // in-memory AD, which needs no disk and so always answers.
  std::vector<DiskMethod> plan = {method};
  if (auto_routed) {
    for (DiskMethod fb : {DiskMethod::kAd, DiskMethod::kVaFile,
                          DiskMethod::kScan, DiskMethod::kMemoryAd}) {
      if (fb != method) plan.push_back(fb);
    }
  }

  Result<FrequentKnMatchResult> result =
      Status::Internal("no disk method ran");
  last_disk_cost_ = eval::MeasureQuery(disk_.get(), [&] {
    for (const DiskMethod attempt : plan) {
      exec::CircuitBreaker* brk = auto_routed ? breaker(attempt) : nullptr;
      if (brk != nullptr) {
        const bool admitted = brk->Allow();
        if (obs::Gauge* g = BreakerGauge(attempt)) {
          g->Set(static_cast<int64_t>(brk->state()));
        }
        if (!admitted) {
          // Breaker open: don't touch a backend that has been tripping;
          // the next method in the chain answers instead. Skipped, not
          // attempted, so no fallback step is recorded.
          obs::Cat().breaker_skipped->Add();
          continue;
        }
      }
      result = RunDiskMethod(attempt, query, n0, n1, k, ctx);
      last_disk_method_ = attempt;
      if (brk != nullptr) {
        // A governance trip counts as a breaker failure: the method
        // consumed a whole deadline/budget without answering, which is
        // exactly the overload signal the breaker sheds.
        if (result.ok()) {
          brk->RecordSuccess();
        } else {
          brk->RecordFailure();
        }
        if (obs::Gauge* g = BreakerGauge(attempt)) {
          g->Set(static_cast<int64_t>(brk->state()));
        }
      }
      if (result.ok()) return;
      // A governance trip never degrades: the query is out of deadline
      // or budget, and rerunning it on a (often costlier) fallback
      // would amplify exactly the load the trip shed. Surface the trip.
      if (ctx != nullptr && ctx->tripped()) return;
      const StatusCode code = result.status().code();
      // Only availability errors degrade; anything else (bad
      // parameters, internal bugs) surfaces immediately.
      if (code != StatusCode::kDataLoss && code != StatusCode::kUnavailable) {
        return;
      }
      // Only auto-routed queries degrade, so only they record fallback
      // steps; an explicit method's failure is the final answer.
      if (auto_routed) {
        last_disk_fallback_.push_back(
            DiskFallbackStep{attempt, result.status()});
        if (obs::Counter* c = FallbackCounter(attempt)) c->Add();
      }
    }
  });

  obs::Cat().queries_disk->Add();
  obs::Cat().latency_disk->ObserveSeconds(last_disk_cost_.cpu_seconds +
                                          last_disk_cost_.io_seconds);
  if (result.ok()) {
    if (obs::Counter* c = MethodCounter(last_disk_method_)) c->Add();
  }
  if (obs::QueryTrace* trace = obs::CurrentTrace()) {
    trace->AddPhaseSeconds(obs::Phase::kDiskIo,
                           last_disk_cost_.io_seconds);
    trace->counters().fallbacks += last_disk_fallback_.size();
  }
  if (ctx != nullptr) ctx->ObserveDeadlineFraction();
  return result;
}

SimilarityEngine::StorageStats SimilarityEngine::DiskStorageStats() const {
  EnsureDiskStores();
  StorageStats stats;
  stats.row_pages = rows_->num_pages();
  stats.column_pages = columns_->num_pages();
  stats.va_pages = va_->num_pages();
  obs::Cat().storage_row_pages->Set(static_cast<int64_t>(stats.row_pages));
  obs::Cat().storage_column_pages->Set(
      static_cast<int64_t>(stats.column_pages));
  obs::Cat().storage_va_pages->Set(static_cast<int64_t>(stats.va_pages));
  return stats;
}

}  // namespace knmatch
