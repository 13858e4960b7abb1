#ifndef KNMATCH_EXEC_BATCH_H_
#define KNMATCH_EXEC_BATCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "knmatch/baselines/knn_scan.h"
#include "knmatch/cache/cached_search.h"
#include "knmatch/common/dataset.h"
#include "knmatch/common/status.h"
#include "knmatch/common/types.h"
#include "knmatch/core/ad_algorithm.h"
#include "knmatch/core/ad_scratch.h"
#include "knmatch/core/match_types.h"
#include "knmatch/core/query_context.h"
#include "knmatch/exec/thread_pool.h"
#include "knmatch/obs/metrics.h"

namespace knmatch::exec {

/// Execution knobs for a batch call.
struct BatchOptions {
  /// Worker threads fanning the batch out; 0 means "one per hardware
  /// thread". 1 still runs on a pool of one worker — useful for
  /// apples-to-apples throughput comparisons. Requests above the
  /// hardware thread count are clamped to it unless
  /// `allow_oversubscription` is set (see below).
  size_t threads = 0;
  /// By default an explicit `threads` request is clamped to
  /// hardware_concurrency(): the workload is CPU-bound, and extra
  /// workers only add context switches (measured 0.75–0.78x throughput
  /// at 8 workers on a 1-core host). Set true to take `threads`
  /// literally — for scheduling experiments, or when queries spend
  /// their time blocked somewhere the executor cannot see.
  bool allow_oversubscription = false;
  /// Wall-clock budget for the whole batch, measured from the moment
  /// the executor starts fanning out; 0 means no deadline. Enforced at
  /// three levels: queries not yet started when it passes are skipped
  /// with kDeadlineExceeded at their start boundary (including ones
  /// still queued behind busy workers); queries whose predicted
  /// completion (now + an EWMA of completed-query latencies) would pass
  /// it are shed at that boundary with kDeadlineExceeded, converting a
  /// doomed start into an immediate refusal; and queries already in
  /// flight share the same absolute deadline through their
  /// QueryContext, so they trip cooperatively instead of running to
  /// completion — the overshoot is one governance stride, not one
  /// query's latency.
  double deadline_ms = 0;
  /// Optional cancellation flag shared with the caller: set it to true
  /// (from any thread) and workers stop picking up queries at the next
  /// boundary; in-flight queries trip with kUnavailable at their next
  /// governance check. Null means not cancellable.
  std::shared_ptr<std::atomic<bool>> cancel;
  /// Per-query resource budgets applied to every query (see
  /// QueryBudgets; zero fields are unlimited).
  QueryBudgets budgets;
};

/// A batch of same-shaped queries. The match parameters (n, k, ...) are
/// per call — a serving batch groups queries of one kind; per-query
/// variation is the query vector itself.
struct BatchRequest {
  std::vector<std::vector<Value>> queries;
  BatchOptions options;
};

/// Results of a batch call, index-aligned with BatchRequest::queries.
/// Malformed parameters fail the whole call up front (validation runs
/// before any work is fanned out); after that, each query lands an OK
/// status and an answer, or a typed governance status and a
/// default-constructed result: kDeadlineExceeded when the batch
/// deadline passed before the query started (or predicted shedding
/// refused it) or tripped it in flight, kResourceExhausted when a
/// per-query budget tripped it, kUnavailable when the cancel flag
/// stopped it. Queries that ran to completion are bit-identical to solo
/// execution regardless of which others were skipped or tripped.
///
/// Exact-duplicate queries within a batch collapse: each distinct query
/// vector executes once and its result (or governance status) is fanned
/// out to the duplicates' slots. Duplicates do not pass the admission
/// boundary or count in the per-query metrics (they land in
/// knmatch_batch_dup_collapsed_total instead), and the batch's
/// attributes_retrieved sums each distinct query once — the batch
/// reports the work actually done. Answers are unaffected: a
/// duplicate's answer is by definition the representative's.
template <typename ResultT>
struct BatchResult {
  std::vector<ResultT> results;
  /// Per-query outcome, index-aligned with `results`. OK slots hold
  /// answers; non-OK slots were shed, skipped, or tripped (see above).
  std::vector<Status> statuses;
  /// Sum of attributes retrieved over the queries that ran (the
  /// paper's cost metric); 0 for algorithms that do not report it.
  uint64_t attributes_retrieved = 0;
};

using KnMatchBatchResult = BatchResult<KnMatchResult>;
using FrequentKnMatchBatchResult = BatchResult<FrequentKnMatchResult>;

/// Fans batches of independent queries across a fixed thread pool over
/// the shared read-only sorted columns, giving each worker a private
/// AdScratch arena that is reused from query to query (the O(1)-reset
/// epoch trick — no per-query O(cardinality) allocation).
///
/// Answers are bit-for-bit identical to running each query alone:
/// every query is deterministic given its inputs, workers share no
/// mutable state, and results are written into the slot of the query's
/// index, so neither thread count nor scheduling order can show
/// through.
///
/// The executor itself must not run two batches concurrently (the
/// per-worker scratches would be shared); SimilarityEngine serializes
/// its batch entry points.
class BatchExecutor {
 public:
  /// Spawns `threads` workers (after ResolveThreads, which clamps to
  /// the hardware thread count unless `allow_oversubscription`; 1
  /// worker minimum).
  explicit BatchExecutor(size_t threads, bool allow_oversubscription = false);

  /// Worker count (>= 1).
  size_t threads() const { return pool_.size(); }

  /// Batch KNMatchAD over `searcher`'s sorted columns. `binding`
  /// (engine-provided) routes each query through the shared result
  /// cache; a default binding means caching off.
  Result<KnMatchBatchResult> KnMatch(const AdSearcher& searcher,
                                     const BatchRequest& request, size_t n,
                                     size_t k,
                                     std::span<const Value> weights = {},
                                     const cache::CacheBinding& binding = {});

  /// Batch FKNMatchAD over `searcher`'s sorted columns.
  Result<FrequentKnMatchBatchResult> FrequentKnMatch(
      const AdSearcher& searcher, const BatchRequest& request, size_t n0,
      size_t n1, size_t k, std::span<const Value> weights = {},
      const cache::CacheBinding& binding = {});

  /// Batch exact kNN by scan over `db`.
  Result<KnMatchBatchResult> Knn(const Dataset& db,
                                 const BatchRequest& request, size_t k,
                                 Metric metric = Metric::kEuclidean,
                                 const cache::CacheBinding& binding = {});

 private:
  Status ValidateBatch(size_t cardinality, size_t dims,
                       const BatchRequest& request, size_t n0, size_t n1,
                       size_t k) const;

  /// Tracks one batch's deadline, cancel flag, and latency EWMA;
  /// queries consult it at their start boundary and settle into it
  /// when they finish.
  class RunGuard;

  /// Shared fan-out skeleton: duplicate collapse, per-query admission,
  /// governance context wiring, chunked dispatch over the distinct
  /// queries, and result/status settling
  /// (including the duplicate fan-out copy after the barrier).
  /// `run(worker, i, ctx)` executes query `i` and returns its result.
  template <typename ResultT, typename RunFn>
  Result<BatchResult<ResultT>> RunGoverned(const BatchRequest& request,
                                           RunFn&& run);

  ThreadPool pool_;
  std::vector<internal::AdScratch> scratches_;  // one per worker
  /// knmatch_batch_query_seconds{worker=...}, resolved once per worker
  /// at construction so the per-query path is one pointer chase.
  std::vector<obs::Histogram*> worker_latency_;
};

}  // namespace knmatch::exec

#endif  // KNMATCH_EXEC_BATCH_H_
