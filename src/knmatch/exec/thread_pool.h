#ifndef KNMATCH_EXEC_THREAD_POOL_H_
#define KNMATCH_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace knmatch::exec {

/// A fixed pool of worker threads executing index ranges — the
/// execution substrate of the batch query API. Deliberately
/// work-stealing-free: queries over the shared read-only sorted columns
/// are uniform enough that a single shared atomic index (dynamic
/// self-scheduling) balances load without per-worker deques.
///
/// Workers are started once in the constructor and joined in the
/// destructor; ParallelFor dispatches one "job" at a time. The worker
/// index passed to the body is stable for the lifetime of the pool, so
/// callers can key per-thread state (e.g. an AdScratch arena) on it.
///
/// Thread-safety: ParallelFor/ParallelForChunked may be called from
/// several threads; a job lock held for the whole call runs their jobs
/// one at a time. The pool may be constructed/destructed on any thread.
class ThreadPool {
 public:
  /// Starts `num_threads` workers. 0 is allowed: ParallelFor then runs
  /// the whole range inline on the calling thread (worker index 0).
  explicit ThreadPool(size_t num_threads);

  /// Stops and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 for an inline pool).
  size_t size() const { return workers_.size(); }

  /// Runs body(worker, index) for every index in [0, count), spread
  /// across the workers, and blocks until all indices complete.
  /// `worker` is in [0, max(1, size())). Bodies must not throw (the
  /// library reports errors via Status) and must not call ParallelFor
  /// reentrantly.
  void ParallelFor(size_t count,
                   const std::function<void(size_t, size_t)>& body);

  /// Chunked work handoff: runs body(worker, begin, end) over
  /// consecutive ranges of [0, count), `grain` indices per range (the
  /// last may be short). One atomic claim and one body indirection per
  /// grain indices instead of per index — the dispatch amortization
  /// that matters when each index is a cheap query. grain == 1 is the
  /// same schedule as ParallelFor. Same restrictions as ParallelFor.
  void ParallelForChunked(
      size_t count, size_t grain,
      const std::function<void(size_t, size_t, size_t)>& body);

 private:
  void WorkerLoop(size_t worker);

  /// Held by a caller from publishing its job until the job drains.
  std::mutex job_mu_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(size_t, size_t)>* body_ = nullptr;  // current job
  /// Chunked job, exclusive with body_.
  const std::function<void(size_t, size_t, size_t)>* chunk_body_ = nullptr;
  size_t grain_ = 1;
  size_t count_ = 0;
  std::atomic<size_t> next_{0};
  size_t active_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Resolves a user-facing thread-count request: 0 means "use the
/// hardware". Explicit requests are capped at 256 (keeps a typo from
/// spawning thousands of threads) and, unless `allow_oversubscription`,
/// clamped to hardware_concurrency(): with CPU-bound uniform queries,
/// workers beyond the core count only add context-switch overhead
/// (BENCH_throughput recorded 0.75–0.78x at 8 workers on a 1-core
/// host), so running more is an explicit opt-in, not a default.
size_t ResolveThreads(size_t requested, bool allow_oversubscription = false);

}  // namespace knmatch::exec

#endif  // KNMATCH_EXEC_THREAD_POOL_H_
