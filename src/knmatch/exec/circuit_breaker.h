#ifndef KNMATCH_EXEC_CIRCUIT_BREAKER_H_
#define KNMATCH_EXEC_CIRCUIT_BREAKER_H_

#include <cstddef>
#include <cstdint>
#include <mutex>

namespace knmatch::exec {

/// Count-based circuit breaker guarding one backend (here: one disk
/// method of the auto-routed degradation chain). Deterministic on
/// purpose — state advances only on recorded outcomes and refused
/// requests, never on wall-clock time — so tests and replays see the
/// same transitions every run.
///
/// Closed: requests flow; outcomes land in a sliding window, and once
/// at least `min_samples` outcomes show a failure ratio >=
/// `trip_ratio`, the breaker opens. Open: requests are refused;
/// after `cooldown` refusals the breaker goes half-open and admits
/// exactly one probe. Half-open: the probe's success closes the
/// breaker (window cleared), its failure re-opens it.
///
/// Thread-safety: every method takes the breaker's own mutex, so
/// concurrent queries and /health readers may share one breaker.
class CircuitBreaker {
 public:
  struct Options {
    /// Sliding window of most-recent outcomes judged for the trip.
    size_t window = 16;
    /// Outcomes required before the ratio is trusted at all.
    size_t min_samples = 8;
    /// Failure ratio (within the window) that opens the breaker.
    double trip_ratio = 0.5;
    /// Refused requests while open before one half-open probe runs.
    size_t cooldown = 8;
  };

  enum class State { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  CircuitBreaker() = default;
  explicit CircuitBreaker(Options options) : options_(options) {}

  /// May a request be routed to the protected backend? Refusals while
  /// open count toward the cooldown; the call that exhausts it flips
  /// to half-open and admits the probe.
  bool Allow() {
    std::scoped_lock lock(mu_);
    switch (state_) {
      case State::kClosed:
        return true;
      case State::kOpen:
        if (++refusals_ >= options_.cooldown) {
          state_ = State::kHalfOpen;
          return true;  // the probe
        }
        return false;
      case State::kHalfOpen:
        return false;  // one probe at a time; its outcome decides
    }
    return true;
  }

  /// Reports the outcome of an admitted request.
  void RecordSuccess() {
    std::scoped_lock lock(mu_);
    if (state_ == State::kHalfOpen) {
      Reset();
      return;
    }
    Push(false);
  }
  void RecordFailure() {
    std::scoped_lock lock(mu_);
    if (state_ == State::kHalfOpen) {
      Open();
      return;
    }
    Push(true);
    if (samples_ >= options_.min_samples &&
        static_cast<double>(failures_) >=
            options_.trip_ratio * static_cast<double>(samples_)) {
      Open();
    }
  }

  State state() const {
    std::scoped_lock lock(mu_);
    return state_;
  }

 private:
  // The helpers below run with mu_ held.
  void Open() {
    state_ = State::kOpen;
    refusals_ = 0;
    // The window restarts after recovery; a re-trip should reflect
    // fresh outcomes, not pre-outage history.
    samples_ = 0;
    failures_ = 0;
    head_ = 0;
    window_bits_ = 0;
  }

  void Reset() {
    state_ = State::kClosed;
    refusals_ = 0;
    samples_ = 0;
    failures_ = 0;
    head_ = 0;
    window_bits_ = 0;
  }

  /// Sliding window as a bitset (options_.window <= 64 enforced by
  /// clamping): one bit per outcome, 1 = failure.
  void Push(bool failure) {
    const size_t cap = options_.window < 64 ? options_.window : 64;
    const uint64_t mask = uint64_t{1} << head_;
    if (samples_ == cap) {
      if (window_bits_ & mask) --failures_;
    } else {
      ++samples_;
    }
    if (failure) {
      window_bits_ |= mask;
      ++failures_;
    } else {
      window_bits_ &= ~mask;
    }
    head_ = (head_ + 1) % cap;
  }

  mutable std::mutex mu_;  // guards every member below
  Options options_;
  State state_ = State::kClosed;
  size_t refusals_ = 0;
  size_t samples_ = 0;
  size_t failures_ = 0;
  size_t head_ = 0;
  uint64_t window_bits_ = 0;
};

}  // namespace knmatch::exec

#endif  // KNMATCH_EXEC_CIRCUIT_BREAKER_H_
