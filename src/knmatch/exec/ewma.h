#ifndef KNMATCH_EXEC_EWMA_H_
#define KNMATCH_EXEC_EWMA_H_

#include <atomic>
#include <cstdint>

namespace knmatch::exec {

/// Exponentially weighted moving average of a latency stream, in
/// nanoseconds, with a fixed alpha of 1/4 in integer arithmetic:
///
///   next = old == 0 ? sample : (3 * old + sample) / 4
///
/// Shared by the batch executor's predictive shedding and the serving
/// admission gate. Racy read-modify-write on purpose: the EWMA feeds
/// heuristics (shed decisions), and a lost update under contention only
/// delays convergence by one sample — so the atomics are relaxed and
/// Record never loops.
class EwmaLatency {
 public:
  /// Folds one latency sample in; non-positive samples are ignored.
  void Record(int64_t latency_ns) {
    if (latency_ns <= 0) return;
    const int64_t old = ewma_ns_.load(std::memory_order_relaxed);
    const int64_t next = old == 0 ? latency_ns : (3 * old + latency_ns) / 4;
    ewma_ns_.store(next, std::memory_order_relaxed);
  }

  /// Current estimate in nanoseconds; 0 until the first sample.
  int64_t ns() const { return ewma_ns_.load(std::memory_order_relaxed); }

  /// Current estimate in milliseconds; 0 until the first sample.
  double ms() const { return static_cast<double>(ns()) / 1e6; }

  /// Drops the estimate back to "no samples yet".
  void Reset() { ewma_ns_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> ewma_ns_{0};
};

}  // namespace knmatch::exec

#endif  // KNMATCH_EXEC_EWMA_H_
