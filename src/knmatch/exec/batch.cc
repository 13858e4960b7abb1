#include "knmatch/exec/batch.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <string>
#include <unordered_map>
#include <utility>

#include "knmatch/core/nmatch.h"
#include "knmatch/exec/ewma.h"
#include "knmatch/obs/catalog.h"

namespace knmatch::exec {

namespace {

/// Times one admitted query and settles its metrics on destruction:
/// one run-count increment, one latency observation on the worker's
/// histogram, one queue-depth decrement.
class QueryMeter {
 public:
  explicit QueryMeter(obs::Histogram* latency)
      : latency_(latency), armed_(obs::Enabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }
  ~QueryMeter() {
    if (!armed_) return;
    obs::Cat().batch_queries->Add();
    obs::Cat().batch_queue_depth->Add(-1);
    latency_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }

 private:
  obs::Histogram* latency_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

BatchExecutor::BatchExecutor(size_t threads, bool allow_oversubscription)
    : pool_(std::max<size_t>(
          1, ResolveThreads(threads, allow_oversubscription))),
      scratches_(pool_.size()) {
  worker_latency_.reserve(pool_.size());
  for (size_t w = 0; w < pool_.size(); ++w) {
    worker_latency_.push_back(obs::BatchWorkerLatency(w));
  }
  obs::Cat().batch_workers->Set(static_cast<int64_t>(pool_.size()));
}

/// One batch call's governance state: the shared deadline and cancel
/// flag, and the latency EWMA behind predictive shedding. Admit() is
/// consulted by every worker at each query's start boundary; admitted
/// queries additionally carry a QueryContext configured by
/// Configure(), so the same deadline/cancel/budgets trip them
/// cooperatively in flight.
class BatchExecutor::RunGuard {
 public:
  explicit RunGuard(const BatchOptions& options)
      : cancel_(options.cancel),
        has_deadline_(options.deadline_ms > 0),
        budgets_(options.budgets) {
    if (has_deadline_) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          options.deadline_ms));
    }
  }

  /// OK while the batch may still start queries. Called exactly once
  /// per query at its start boundary, so a refusal here counts the
  /// query as skipped (and drains it from the queue-depth gauge).
  Status Admit() {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      obs::Cat().batch_skipped_cancel->Add();
      obs::Cat().batch_queue_depth->Add(-1);
      return Status::Unavailable("batch cancelled");
    }
    if (has_deadline_) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline_) {
        obs::Cat().batch_skipped_deadline->Add();
        obs::Cat().batch_queue_depth->Add(-1);
        return Status::DeadlineExceeded("batch deadline exceeded");
      }
      // Predictive shedding: refuse a start whose expected completion
      // already passes the deadline.
      const int64_t predicted = ewma_.ns();
      if (predicted > 0 &&
          now + std::chrono::nanoseconds(predicted) >= deadline_) {
        obs::Cat().batch_shed_predicted->Add();
        obs::Cat().batch_queue_depth->Add(-1);
        return Status::DeadlineExceeded(
            "batch deadline predicted to pass before completion");
      }
    }
    return Status::OK();
  }

  /// Whether admitted queries need an in-flight governance context.
  bool governed() const {
    return has_deadline_ || cancel_ != nullptr || budgets_.any();
  }

  /// A deadline arms predictive shedding, which needs per-query
  /// latencies even when obs is off.
  bool has_deadline() const { return has_deadline_; }

  /// Arms `ctx` with the batch's absolute deadline, cancel flag, and
  /// per-query budgets.
  void Configure(QueryContext* ctx) const {
    if (has_deadline_) ctx->set_deadline(deadline_);
    if (cancel_ != nullptr) ctx->set_cancel(cancel_);
    ctx->budgets() = budgets_;
  }

  /// Folds one finished (or tripped) query's latency into the EWMA.
  void RecordLatency(int64_t latency_ns) { ewma_.Record(latency_ns); }

 private:
  std::shared_ptr<std::atomic<bool>> cancel_;
  bool has_deadline_;
  std::chrono::steady_clock::time_point deadline_;
  QueryBudgets budgets_;
  EwmaLatency ewma_;
};

namespace {

/// FNV-1a over a query vector's value bytes — the duplicate-collapse
/// bucket hash (exactness comes from the vector comparison, not the
/// hash).
uint64_t HashQuery(const std::vector<Value>& query) {
  uint64_t h = 14695981039346656037ull;
  for (const Value v : query) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&v);
    for (size_t b = 0; b < sizeof(Value); ++b) {
      h ^= bytes[b];
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace

template <typename ResultT, typename RunFn>
Result<BatchResult<ResultT>> BatchExecutor::RunGoverned(
    const BatchRequest& request, RunFn&& run) {
  BatchResult<ResultT> out;
  const size_t total = request.queries.size();
  out.results.resize(total);
  out.statuses.assign(total, Status::OK());
  obs::Cat().batch_calls->Add();

  // Duplicate collapse: rep[i] is the first index with a bit-identical
  // query vector; only representatives (rep[i] == i) enter the queue.
  std::vector<size_t> rep(total);
  std::vector<size_t> distinct;
  distinct.reserve(total);
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  buckets.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    std::vector<size_t>& bucket = buckets[HashQuery(request.queries[i])];
    rep[i] = i;
    for (const size_t j : bucket) {
      if (request.queries[j] == request.queries[i]) {
        rep[i] = j;
        break;
      }
    }
    if (rep[i] == i) {
      bucket.push_back(i);
      distinct.push_back(i);
    }
  }
  if (const size_t collapsed = total - distinct.size(); collapsed != 0) {
    obs::Cat().batch_dup_collapsed->Add(static_cast<uint64_t>(collapsed));
  }
  // The queue holds the distinct queries only: duplicates never pass
  // the admission boundary, so the depth gauge drains to zero as the
  // representatives finish.
  obs::Cat().batch_queue_depth->Set(static_cast<int64_t>(distinct.size()));

  RunGuard guard(request.options);
  const auto run_one = [&](size_t worker, size_t i) {
    if (Status admit = guard.Admit(); !admit.ok()) {
      out.statuses[i] = std::move(admit);
      return;
    }
    QueryMeter meter(worker_latency_[worker]);
    QueryContext ctx;
    QueryContext* ctx_ptr = nullptr;
    if (guard.governed()) {
      guard.Configure(&ctx);
      ctx_ptr = &ctx;
    }
    std::chrono::steady_clock::time_point start;
    if (guard.has_deadline()) start = std::chrono::steady_clock::now();
    Result<ResultT> r = run(worker, i, ctx_ptr);
    if (guard.has_deadline()) {
      guard.RecordLatency(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
    if (r.ok()) {
      out.results[i] = std::move(r).value();
    } else {
      out.statuses[i] = r.status();
    }
  };
  // Chunked handoff: a grain of queries per claim amortizes the
  // dispatch overhead (one atomic RMW + one std::function indirection)
  // that dominates when individual queries are cheap — the knn_k10
  // batch lane regressed below 1x sequential on exactly that overhead.
  // ~4 chunks per worker keeps dynamic load balancing meaningful.
  const size_t workers = std::max<size_t>(1, pool_.size());
  const size_t grain = std::clamp<size_t>(
      distinct.size() / (workers * 4), 1, 64);
  pool_.ParallelForChunked(
      distinct.size(), grain, [&](size_t worker, size_t begin, size_t end) {
        for (size_t u = begin; u < end; ++u) run_one(worker, distinct[u]);
      });

  // The batch's cost metric counts each distinct query once.
  for (const size_t i : distinct) {
    if (out.statuses[i].ok()) {
      out.attributes_retrieved += out.results[i].attributes_retrieved;
    }
  }
  // Fan the representatives' outcomes out to their duplicates.
  for (size_t i = 0; i < total; ++i) {
    if (rep[i] == i) continue;
    out.statuses[i] = out.statuses[rep[i]];
    if (out.statuses[i].ok()) out.results[i] = out.results[rep[i]];
  }
  return out;
}

Status BatchExecutor::ValidateBatch(size_t cardinality, size_t dims,
                                    const BatchRequest& request, size_t n0,
                                    size_t n1, size_t k) const {
  for (size_t i = 0; i < request.queries.size(); ++i) {
    const Status s = ValidateMatchParams(
        cardinality, dims, request.queries[i].size(), n0, n1, k);
    if (!s.ok()) {
      return Status(s.code(),
                    "query " + std::to_string(i) + ": " + s.message());
    }
  }
  return Status::OK();
}

Result<KnMatchBatchResult> BatchExecutor::KnMatch(
    const AdSearcher& searcher, const BatchRequest& request, size_t n,
    size_t k, std::span<const Value> weights,
    const cache::CacheBinding& binding) {
  Status s = ValidateBatch(searcher.columns().size(),
                           searcher.columns().dims(), request, n, n, k);
  if (!s.ok()) return s;
  s = ValidateAdWeights(weights, searcher.columns().dims());
  if (!s.ok()) return s;

  return RunGoverned<KnMatchResult>(
      request, [&](size_t worker, size_t i, QueryContext* ctx) {
        return cache::CachedKnMatch(binding, searcher, request.queries[i],
                                    n, k, weights, &scratches_[worker],
                                    ctx);
      });
}

Result<FrequentKnMatchBatchResult> BatchExecutor::FrequentKnMatch(
    const AdSearcher& searcher, const BatchRequest& request, size_t n0,
    size_t n1, size_t k, std::span<const Value> weights,
    const cache::CacheBinding& binding) {
  Status s = ValidateBatch(searcher.columns().size(),
                           searcher.columns().dims(), request, n0, n1, k);
  if (!s.ok()) return s;
  s = ValidateAdWeights(weights, searcher.columns().dims());
  if (!s.ok()) return s;

  return RunGoverned<FrequentKnMatchResult>(
      request, [&](size_t worker, size_t i, QueryContext* ctx) {
        return cache::CachedFrequentKnMatch(binding, searcher,
                                            request.queries[i], n0, n1, k,
                                            weights, &scratches_[worker],
                                            ctx);
      });
}

Result<KnMatchBatchResult> BatchExecutor::Knn(const Dataset& db,
                                              const BatchRequest& request,
                                              size_t k, Metric metric,
                                              const cache::CacheBinding& binding) {
  // kNN has no n parameter; n0 = n1 = 1 is always legal for d >= 1, so
  // this reuses the shared validator for the (c, d, query dims, k)
  // checks.
  const Status s = ValidateBatch(db.size(), db.dims(), request, 1, 1, k);
  if (!s.ok()) return s;

  return RunGoverned<KnMatchResult>(
      request, [&](size_t worker, size_t i, QueryContext* ctx) {
        (void)worker;
        return cache::CachedKnn(binding, db, request.queries[i], k, metric,
                                ctx);
      });
}

}  // namespace knmatch::exec
