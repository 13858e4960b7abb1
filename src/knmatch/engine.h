#ifndef KNMATCH_ENGINE_H_
#define KNMATCH_ENGINE_H_

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "knmatch/baselines/igrid.h"
#include "knmatch/baselines/knn_scan.h"
#include "knmatch/cache/cached_search.h"
#include "knmatch/cache/query_cache.h"
#include "knmatch/common/dataset.h"
#include "knmatch/common/status.h"
#include "knmatch/core/ad_algorithm.h"
#include "knmatch/core/match_types.h"
#include "knmatch/core/nmatch_join.h"
#include "knmatch/core/query_context.h"
#include "knmatch/diskalgo/disk_ad.h"
#include "knmatch/diskalgo/disk_scan.h"
#include "knmatch/eval/advisor.h"
#include "knmatch/eval/experiment.h"
#include "knmatch/exec/batch.h"
#include "knmatch/exec/circuit_breaker.h"
#include "knmatch/storage/column_store.h"
#include "knmatch/storage/fault_injector.h"
#include "knmatch/storage/row_store.h"
#include "knmatch/vafile/va_file.h"
#include "knmatch/vafile/va_knmatch.h"

namespace knmatch {

class LiveColumnIndex;

namespace cache {
class BTreeCacheBridge;
}  // namespace cache

namespace eval {
class SelectivityEstimator;
}  // namespace eval

/// One-stop similarity-search engine over a dataset: the public facade
/// a downstream application embeds. Owns the dataset and builds each
/// access structure (sorted columns, IGrid, the simulated-disk stores,
/// the cost advisor) lazily on first use, so cheap workloads pay only
/// for what they touch.
///
/// ```
/// SimilarityEngine engine(datagen::MakeTextureLike());
/// auto r = engine.FrequentKnMatch(q, 4, 8, 10);
/// auto d = engine.DiskFrequentKnMatch(q, 4, 8, 10);  // advisor-routed
///
/// exec::BatchRequest batch;
/// batch.queries = ...;            // Q independent queries
/// batch.options.threads = 8;
/// auto rs = engine.KnMatchBatch(batch, 8, 10);  // fanned across 8 workers
/// ```
///
/// Thread-safety (see docs/parallelism.md for the full contract): the
/// lazy builders are guarded by std::call_once, so the in-memory query
/// methods — KnMatch, FrequentKnMatch, Knn, and the *Batch entry
/// points — are safe to call concurrently from many threads. The Disk*
/// methods and EstimateSelectivity record per-call state (last cost,
/// simulator counters) and require external serialization, as does
/// InsertPoint (it mutates the dataset and invalidates every index).
class SimilarityEngine {
 public:
  /// Disk execution strategies for DiskFrequentKnMatch.
  enum class DiskMethod {
    kAuto,  // route via the sampling cost advisor
    kScan,
    kAd,
    kVaFile,
    kMemoryAd,  // in-memory AD: the last-resort fallback, no disk I/O
  };

  /// Takes ownership of the dataset. `config` parameterizes the
  /// simulated disk used by the Disk* entry points.
  explicit SimilarityEngine(Dataset db, DiskConfig config = DiskConfig());
  ~SimilarityEngine();

  SimilarityEngine(const SimilarityEngine&) = delete;
  SimilarityEngine& operator=(const SimilarityEngine&) = delete;

  /// The engine's dataset.
  const Dataset& dataset() const { return db_; }

  /// In-memory k-n-match via the AD algorithm. Optional `ctx` governs
  /// the query (deadline, cancellation, resource budgets — see
  /// QueryContext); on a trip the call returns the context's typed
  /// status (kDeadlineExceeded / kResourceExhausted / kUnavailable)
  /// and ctx->trip() holds progress plus the best-so-far partial
  /// result. The engine stays fully reusable after a trip.
  Result<KnMatchResult> KnMatch(std::span<const Value> query, size_t n,
                                size_t k,
                                std::span<const Value> weights = {},
                                QueryContext* ctx = nullptr) const;

  /// In-memory frequent k-n-match via the AD algorithm; `ctx` as on
  /// KnMatch.
  Result<FrequentKnMatchResult> FrequentKnMatch(
      std::span<const Value> query, size_t n0, size_t n1, size_t k,
      std::span<const Value> weights = {},
      QueryContext* ctx = nullptr) const;

  /// Exact kNN by scan; `ctx` as on KnMatch.
  Result<KnMatchResult> Knn(std::span<const Value> query, size_t k,
                            Metric metric = Metric::kEuclidean,
                            QueryContext* ctx = nullptr) const;

  /// Batch k-n-match: fans the request's queries across a fixed worker
  /// pool over the shared sorted columns, each worker reusing a private
  /// AdScratch arena. Results are index-aligned with the request's
  /// queries and bit-for-bit identical to per-query KnMatch calls,
  /// independent of thread count. Batch calls are internally
  /// serialized; concurrent callers queue on a mutex.
  Result<exec::KnMatchBatchResult> KnMatchBatch(
      const exec::BatchRequest& request, size_t n, size_t k,
      std::span<const Value> weights = {}) const;

  /// Batch frequent k-n-match; semantics as KnMatchBatch.
  Result<exec::FrequentKnMatchBatchResult> FrequentKnMatchBatch(
      const exec::BatchRequest& request, size_t n0, size_t n1, size_t k,
      std::span<const Value> weights = {}) const;

  /// Batch exact kNN by scan; semantics as KnMatchBatch.
  Result<exec::KnMatchBatchResult> KnnBatch(
      const exec::BatchRequest& request, size_t k,
      Metric metric = Metric::kEuclidean) const;

  /// IGrid similarity search (best-first; distance = negated
  /// similarity).
  Result<KnMatchResult> IGridSearch(std::span<const Value> query,
                                    size_t k) const;

  /// ε-n-match similarity self-join over the whole dataset.
  Result<std::vector<JoinPair>> SelfJoin(size_t n, Value epsilon) const;

  /// Analytic (histogram-based) estimate of a k-n-match query's
  /// difference threshold and AD attribute fraction.
  struct SelectivityEstimate {
    Value estimated_difference = 0;
    double ad_attribute_fraction = 0;
  };
  Result<SelectivityEstimate> EstimateSelectivity(
      std::span<const Value> query, size_t n, size_t k) const;

  /// Appends a point to the dataset (its id is the previous
  /// cardinality, which is returned). Every index built so far is
  /// invalidated and lazily rebuilt on next use — the simple,
  /// correct-by-construction policy for the occasional insert; bulk
  /// loads should construct a fresh engine. The result cache, if
  /// enabled, is NOT dropped wholesale: the insert invalidates
  /// precisely the entries the new point could change (see
  /// cache::QueryResultCache).
  PointId InsertPoint(std::span<const Value> coords, Label label = kNoLabel);

  /// Enables the shared query-result cache for the in-memory entry
  /// points (KnMatch / FrequentKnMatch / Knn and their batch
  /// variants). Replaces any existing cache (dropping its contents).
  /// Requires external serialization like InsertPoint — enable caching
  /// at setup time, not mid-query.
  void EnableCache(cache::CacheConfig config = cache::CacheConfig());

  /// Drops the cache and turns caching off. Same serialization rules
  /// as EnableCache.
  void DisableCache();

  /// The engine's result cache, or nullptr when caching is off. For
  /// stats, Clear(), and tests; the pointer is stable while enabled.
  cache::QueryResultCache* cache() const { return cache_.get(); }

  /// The dataset epoch the cache's entries are keyed under — unique
  /// per engine, so entries can never alias across engines sharing a
  /// cache in a future embedding.
  uint64_t cache_epoch() const { return cache_epoch_; }

  // --- Live ingest (crash-consistent streaming mutations) ---
  //
  // BeginIngest() opens a durable single-writer session over the
  // current dataset: one WAL-backed B+-tree per dimension
  // (LiveColumnIndex). IngestPoint/ErasePoint are then transactional
  // across all d trees, and LiveKnMatch/LiveFrequentKnMatch answer
  // from the last durably committed snapshot epoch — safe to call
  // concurrently with the writer from any thread, bit-identical to a
  // quiesced engine holding the same committed state. The classic
  // query paths keep answering over the dataset as of BeginIngest()
  // until EndIngest() materializes the session.
  //
  // Thread-safety: the Live* query methods are thread-safe;
  // everything else here is writer-side state and requires external
  // serialization (like InsertPoint).

  struct IngestConfig {
    /// WAL commits batched per fsync (see LiveColumnIndex::Config).
    size_t group_commit_window = 1;
  };

  /// Opens a live-ingest session (its own DiskSimulator; the base
  /// dataset is bulk-loaded and checkpointed durably). Fails when one
  /// is already active. When the result cache is enabled, each tree
  /// gets a cache-invalidation listener whose callbacks fire only
  /// after commit durability.
  Status BeginIngest(IngestConfig config);
  Status BeginIngest();

  /// True between BeginIngest() and EndIngest().
  bool ingest_active() const { return live_ != nullptr; }

  /// Durably inserts one point into the live session; its id extends
  /// the id space (base cardinality + inserts so far).
  Result<PointId> IngestPoint(std::span<const Value> coords);

  /// Durably erases a live point; false when `pid` is not live.
  Result<bool> ErasePoint(PointId pid);

  /// Syncs and publishes mutations waiting on the group-commit window.
  Status FlushIngest();

  /// Flushes dirty pages to the checkpoint file and truncates the WAL.
  Status Checkpoint();

  /// Rebuilds the live session's committed state from its durable
  /// surfaces after a (simulated) crash, and bumps the cache epoch so
  /// entries cached before the crash can never serve post-recovery
  /// answers.
  Status Recover();

  /// Ends the session: flush + checkpoint, then materializes the
  /// committed live rows into the engine's dataset (ids remapped to
  /// 0..n-1 in ascending live-id order; labels are dropped — erases
  /// make per-row labels ambiguous) and invalidates every derived
  /// structure, exactly like a bulk rebuild.
  Status EndIngest();

  /// k-n-match over the last durably committed snapshot epoch.
  /// Thread-safe; runs concurrently with the single writer.
  Result<KnMatchResult> LiveKnMatch(std::span<const Value> query, size_t n,
                                    size_t k,
                                    QueryContext* ctx = nullptr) const;

  /// Frequent k-n-match over the committed snapshot; as LiveKnMatch.
  Result<FrequentKnMatchResult> LiveFrequentKnMatch(
      std::span<const Value> query, size_t n0, size_t n1, size_t k,
      QueryContext* ctx = nullptr) const;

  /// The live session's index (nullptr when no session is active).
  /// For the CLI's wal/ingest tooling and tests.
  LiveColumnIndex* live_index() const { return live_.get(); }

  /// Frequent k-n-match against the simulated disk, with the execution
  /// method chosen explicitly or by the cost advisor. The I/O cost of
  /// the run is available from last_disk_cost() afterwards.
  ///
  /// Degradation: when routed with kAuto and the chosen method fails
  /// with kDataLoss or kUnavailable, the engine falls back through the
  /// remaining methods in order kAd -> kVaFile -> kScan -> kMemoryAd
  /// (the in-memory AD terminal fallback cannot hit the faulty disk).
  /// Every method computes identical answers, so a degraded query is
  /// bit-for-bit the same as a healthy one — only its cost differs.
  /// Explicitly-requested methods never fall back: their errors
  /// surface, so callers probing a specific structure see the truth.
  ///
  /// Governance (`ctx`): as on KnMatch, threaded into whichever method
  /// runs. A governance trip NEVER degrades — retrying a query that
  /// already ran out of deadline or budget on a (possibly more
  /// expensive) fallback would amplify exactly the load the trip was
  /// shedding — so tripped queries return immediately with
  /// last_disk_fallback() empty.
  ///
  /// Overload protection: each disk-touching method (scan, AD,
  /// VA-file) sits behind a CircuitBreaker fed by auto-routed
  /// attempts. kAuto skips methods whose breaker is open (half-open
  /// probes recover them); explicit methods bypass the breakers.
  Result<FrequentKnMatchResult> DiskFrequentKnMatch(
      std::span<const Value> query, size_t n0, size_t n1, size_t k,
      DiskMethod method = DiskMethod::kAuto,
      QueryContext* ctx = nullptr) const;

  /// The circuit breaker guarding one disk method (nullptr for methods
  /// that have none: kAuto routes, kMemoryAd cannot fail). Exposed for
  /// tests and diagnostics; same serialization rules as the other
  /// Disk* state.
  const exec::CircuitBreaker* circuit_breaker(DiskMethod method) const;

  /// The method DiskFrequentKnMatch actually executed last — with
  /// kAuto, the one that produced the answer after any fallbacks.
  DiskMethod last_disk_method() const { return last_disk_method_; }

  /// One abandoned attempt in the last query's degradation chain.
  struct DiskFallbackStep {
    DiskMethod method;
    Status status;  // why the method was abandoned
  };
  /// The methods the last DiskFrequentKnMatch tried and abandoned, in
  /// order; empty when the first choice succeeded.
  const std::vector<DiskFallbackStep>& last_disk_fallback() const {
    return last_disk_fallback_;
  }

  /// Cost of the most recent DiskFrequentKnMatch call.
  const eval::QueryCost& last_disk_cost() const { return last_disk_cost_; }

  /// Attaches a fault injector to the simulated disk (pass nullptr to
  /// detach). The injector must outlive the engine; it survives
  /// InsertPoint rebuilds. Requires external serialization like the
  /// other Disk* state.
  void SetFaultInjector(FaultInjector* injector);

  /// Clears injected fault schedules and lifts every page quarantine —
  /// "the operator replaced the disk". Subsequent queries run clean.
  void ClearFaults();

  /// The simulated disk behind the Disk* entry points (built on first
  /// use). For tests and the CLI's fault tooling.
  DiskSimulator* disk_simulator() const;

  /// Structure sizes, for diagnostics and the CLI's `info` command.
  struct StorageStats {
    size_t row_pages = 0;
    size_t column_pages = 0;
    size_t va_pages = 0;
  };
  /// Builds (if needed) and reports the disk stores' footprints.
  StorageStats DiskStorageStats() const;

 private:
  void EnsureAd() const;
  void EnsureIGrid() const;
  void EnsureDiskStores() const;
  void EnsureAdvisor() const;
  void EnsureEstimator() const;

  /// Returns the cached batch executor, rebuilding it if the requested
  /// thread count differs. Caller must hold exec_mu_.
  exec::BatchExecutor& AcquireExecutor(const exec::BatchOptions& options) const;

  /// Re-arms every call_once flag after an invalidation (InsertPoint).
  void ResetOnceFlags();

  /// The cache handle the query paths and the batch executor share.
  cache::CacheBinding CacheHandle() const {
    return cache::CacheBinding{cache_.get(), cache_epoch_};
  }

  /// Runs one concrete disk method (not kAuto) over the built stores.
  Result<FrequentKnMatchResult> RunDiskMethod(DiskMethod method,
                                              std::span<const Value> query,
                                              size_t n0, size_t n1, size_t k,
                                              QueryContext* ctx) const;

  /// Mutable breaker lookup (kScan/kAd/kVaFile only).
  exec::CircuitBreaker* breaker(DiskMethod method) const;

  Dataset db_;
  DiskConfig config_;
  /// Result cache; null when disabled. Epoch is assigned once per
  /// engine from a process-wide counter.
  std::unique_ptr<cache::QueryResultCache> cache_;
  uint64_t cache_epoch_ = 0;
  mutable std::unique_ptr<AdSearcher> ad_;
  mutable std::unique_ptr<IGridIndex> igrid_;
  mutable std::unique_ptr<DiskSimulator> disk_;
  mutable std::unique_ptr<RowStore> rows_;
  mutable std::unique_ptr<ColumnStore> columns_;
  mutable std::unique_ptr<VaFile> va_;
  mutable std::unique_ptr<eval::QueryAdvisor> advisor_;
  mutable std::unique_ptr<eval::SelectivityEstimator> estimator_;
  mutable DiskMethod last_disk_method_ = DiskMethod::kScan;
  mutable eval::QueryCost last_disk_cost_;
  mutable std::vector<DiskFallbackStep> last_disk_fallback_;
  // Per-disk-method breakers for kAuto routing; serialized with the
  // rest of the Disk* state.
  mutable exec::CircuitBreaker breaker_scan_;
  mutable exec::CircuitBreaker breaker_ad_;
  mutable exec::CircuitBreaker breaker_va_;
  FaultInjector* injector_ = nullptr;

  // Live-ingest session state (null when inactive). The session gets
  // its own simulator so ingest I/O accounting never perturbs the
  // Disk* methods' counters. Declaration order matters: the trees in
  // live_ hold raw listener pointers into live_bridge_, so the index
  // must be destroyed first.
  std::unique_ptr<DiskSimulator> live_disk_;
  std::unique_ptr<cache::BTreeCacheBridge> live_bridge_;
  std::unique_ptr<LiveColumnIndex> live_;
  PointId next_ingest_pid_ = 0;

  // Lazy-builder guards. std::once_flag is not resettable, so each
  // lives behind a unique_ptr that InsertPoint recreates when it
  // invalidates the structures (InsertPoint already requires exclusive
  // access — it swaps the dataset under every index).
  mutable std::unique_ptr<std::once_flag> ad_once_;
  mutable std::unique_ptr<std::once_flag> igrid_once_;
  mutable std::unique_ptr<std::once_flag> disk_once_;
  mutable std::unique_ptr<std::once_flag> advisor_once_;
  mutable std::unique_ptr<std::once_flag> estimator_once_;

  // Batch execution: one cached pool + per-worker scratch arenas,
  // rebuilt when a request asks for a different thread count. The
  // mutex serializes whole batch calls (the scratches are per-worker,
  // not per-call).
  mutable std::mutex exec_mu_;
  mutable std::unique_ptr<exec::BatchExecutor> executor_;
};

}  // namespace knmatch

#endif  // KNMATCH_ENGINE_H_
