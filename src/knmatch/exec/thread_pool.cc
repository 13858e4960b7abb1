#include "knmatch/exec/thread_pool.h"

#include <algorithm>

namespace knmatch::exec {

ThreadPool::ThreadPool(size_t num_threads) {
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::ParallelFor(
    size_t count, const std::function<void(size_t, size_t)>& body) {
  if (count == 0) return;
  if (workers_.empty()) {
    for (size_t i = 0; i < count; ++i) body(0, i);
    return;
  }
  std::scoped_lock job(job_mu_);
  std::unique_lock lock(mu_);
  body_ = &body;
  chunk_body_ = nullptr;
  count_ = count;
  next_.store(0, std::memory_order_relaxed);
  active_ = workers_.size();
  ++generation_;
  work_cv_.notify_all();
  done_cv_.wait(lock, [this] { return active_ == 0; });
  body_ = nullptr;
}

void ThreadPool::ParallelForChunked(
    size_t count, size_t grain,
    const std::function<void(size_t, size_t, size_t)>& body) {
  if (count == 0) return;
  grain = std::max<size_t>(1, grain);
  if (workers_.empty()) {
    for (size_t begin = 0; begin < count; begin += grain) {
      body(0, begin, std::min(begin + grain, count));
    }
    return;
  }
  std::scoped_lock job(job_mu_);
  std::unique_lock lock(mu_);
  chunk_body_ = &body;
  body_ = nullptr;
  grain_ = grain;
  count_ = count;
  next_.store(0, std::memory_order_relaxed);
  active_ = workers_.size();
  ++generation_;
  work_cv_.notify_all();
  done_cv_.wait(lock, [this] { return active_ == 0; });
  chunk_body_ = nullptr;
}

void ThreadPool::WorkerLoop(size_t worker) {
  uint64_t seen = 0;
  for (;;) {
    const std::function<void(size_t, size_t)>* body;
    const std::function<void(size_t, size_t, size_t)>* chunk_body;
    size_t count;
    size_t grain;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock,
                    [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      body = body_;
      chunk_body = chunk_body_;
      count = count_;
      grain = grain_;
    }
    if (chunk_body != nullptr) {
      for (;;) {
        const size_t chunk = next_.fetch_add(1, std::memory_order_relaxed);
        const size_t begin = chunk * grain;
        if (begin >= count) break;
        (*chunk_body)(worker, begin, std::min(begin + grain, count));
      }
    } else {
      for (;;) {
        const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        (*body)(worker, i);
      }
    }
    {
      std::scoped_lock lock(mu_);
      if (--active_ == 0) done_cv_.notify_all();
    }
  }
}

size_t ResolveThreads(size_t requested, bool allow_oversubscription) {
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const size_t hw = hw_raw == 0 ? 1 : hw_raw;
  if (requested == 0) return hw;
  const size_t capped = std::min<size_t>(requested, 256);
  return allow_oversubscription ? capped : std::min(capped, hw);
}

}  // namespace knmatch::exec
