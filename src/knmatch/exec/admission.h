#ifndef KNMATCH_EXEC_ADMISSION_H_
#define KNMATCH_EXEC_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "knmatch/exec/ewma.h"

namespace knmatch::exec {

/// Admission controller for a request-at-a-time serving front end —
/// the batch executor's RunGuard shedding policy, refactored for
/// callers that admit one request at a time instead of one batch at a
/// time. Two independent shed rules:
///
///  - concurrency: at most `max_inflight` admitted requests may be in
///    flight at once (the queue behind them is the transport's);
///  - predictive deadline: with a request deadline armed, the request
///    is shed when now + EWMA(completed-request latency) already
///    passes it — the same rule a batch with BatchOptions::deadline_ms
///    applies, converting a doomed start into an immediate refusal the
///    client can retry elsewhere.
///
/// Thread-safe; Admit/Finish pair around each admitted request.
class AdmissionController {
 public:
  using Clock = std::chrono::steady_clock;

  /// Why a request was refused.
  enum class Shed {
    kNone,       // admitted
    kInflight,   // concurrency cap reached
    kPredicted,  // predicted to miss its deadline
  };

  explicit AdmissionController(uint32_t max_inflight)
      : max_inflight_(max_inflight) {}

  /// Decides one request. `has_deadline`/`deadline` are the request's
  /// (already absolute — queue time counts). On kNone the caller owns
  /// one in-flight slot and must Finish() exactly once.
  Shed Admit(bool has_deadline, Clock::time_point deadline) {
    if (has_deadline) {
      const int64_t predicted_ns = ewma_.ns();
      if (predicted_ns > 0 &&
          Clock::now() + std::chrono::nanoseconds(predicted_ns) >= deadline) {
        return Shed::kPredicted;
      }
    }
    // Optimistic claim; back out on overshoot. Two racing admits at
    // the cap can both back out — strictness over throughput.
    const uint32_t prior = inflight_.fetch_add(1, std::memory_order_relaxed);
    if (max_inflight_ != 0 && prior >= max_inflight_) {
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      return Shed::kInflight;
    }
    return Shed::kNone;
  }

  /// Releases the in-flight slot and folds the request's latency into
  /// the shedding EWMA.
  void Finish(int64_t latency_ns) {
    ewma_.Record(latency_ns);
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }

  uint32_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

  /// Predicted request latency in milliseconds (0 before the first
  /// completion) — what a shed client should wait before retrying.
  double predicted_ms() const { return ewma_.ms(); }

 private:
  const uint32_t max_inflight_;
  std::atomic<uint32_t> inflight_{0};
  EwmaLatency ewma_;
};

}  // namespace knmatch::exec

#endif  // KNMATCH_EXEC_ADMISSION_H_
