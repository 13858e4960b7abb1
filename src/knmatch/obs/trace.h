#ifndef KNMATCH_OBS_TRACE_H_
#define KNMATCH_OBS_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "knmatch/obs/metrics.h"

namespace knmatch::obs {

/// Phases of a query's execution, the rows of a trace.
///  - kLocate: positioning every cursor at the query's attributes
///    (binary search on the in-memory columns, root-to-leaf descents on
///    the disk structures).
///  - kAscend: the AD stepping loop — popping attributes in ascending
///    difference order until the answer completes (the paper's cost).
///  - kVerify: exact-distance refinement of candidates (the VA-file's
///    phase 2) and page checksum verification.
///  - kRank: frequency ranking of the per-n answer sets.
///  - kDiskIo: *modelled* I/O seconds from the DiskSimulator — kept
///    apart from the wall-clock CPU phases above so a trace splits a
///    disk query's time into compute vs. (simulated) disk exactly the
///    way eval::QueryCost does.
enum class Phase : uint8_t {
  kLocate = 0,
  kAscend,
  kVerify,
  kRank,
  kDiskIo,
};
inline constexpr size_t kNumPhases = 5;

/// Name of a phase ("locate", "ascend", ...).
const char* PhaseName(Phase p);

/// The paper's cost model plus the fault/storage events of one query,
/// accumulated while the trace is installed.
struct TraceCounters {
  uint64_t attributes_retrieved = 0;  // the paper's optimality metric
  uint64_t heap_pops = 0;             // AD cursor-heap pops
  uint64_t sequential_pages = 0;
  uint64_t random_pages = 0;
  uint64_t buffer_hits = 0;
  uint64_t failed_reads = 0;   // physical attempts that returned nothing
  uint64_t retries = 0;        // re-attempts after transient failures
  uint64_t quarantines = 0;    // pages declared unrecoverable
  uint64_t fallbacks = 0;      // abandoned methods in a degradation chain
  uint64_t points_refined = 0; // candidates exactly re-checked (VA phase 2)
};

/// A per-query trace: phase timings plus cost counters. Install one
/// with TraceScope around a query call; instrumented code finds it via
/// CurrentTrace() and records into it. Single-threaded by design — a
/// trace follows one query on one thread (batch workers each need
/// their own), which is what keeps recording free of atomics.
class QueryTrace {
 public:
  void AddPhaseSeconds(Phase p, double seconds) {
    seconds_[static_cast<size_t>(p)] += seconds;
  }
  double phase_seconds(Phase p) const {
    return seconds_[static_cast<size_t>(p)];
  }
  /// Sum of the wall-clock (CPU) phases; excludes modelled kDiskIo.
  double cpu_seconds() const;

  TraceCounters& counters() { return counters_; }
  const TraceCounters& counters() const { return counters_; }

  void Clear();

  /// Human-readable multi-line rendering (the CLI's `trace` output).
  std::string ToString() const;
  /// One JSON object: {"phases":{...},"counters":{...}}.
  std::string ToJson() const;

 private:
  std::array<double, kNumPhases> seconds_{};
  TraceCounters counters_;
};

#if KNMATCH_OBS_ENABLED

/// The trace installed on this thread, or nullptr. One thread_local
/// read — cheap enough to consult at per-query (not per-attribute)
/// granularity on the hot path.
QueryTrace* CurrentTrace();

/// Installs `trace` as the calling thread's current trace for the
/// scope's lifetime; restores the previous one (scopes nest).
class TraceScope {
 public:
  explicit TraceScope(QueryTrace* trace);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  QueryTrace* prev_;
};

/// RAII phase timer: charges the span's wall-clock time to `phase` of
/// the thread's current trace. When no trace is installed the
/// constructor skips the clock read entirely, so untraced queries pay
/// one thread_local load and a branch per span.
class TraceSpan {
 public:
  explicit TraceSpan(Phase phase) : trace_(CurrentTrace()), phase_(phase) {
    if (trace_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~TraceSpan() {
    if (trace_ != nullptr) {
      trace_->AddPhaseSeconds(
          phase_, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  QueryTrace* trace_;
  Phase phase_;
  std::chrono::steady_clock::time_point start_;
};

#else  // !KNMATCH_OBS_ENABLED

inline QueryTrace* CurrentTrace() { return nullptr; }

class TraceScope {
 public:
  explicit TraceScope(QueryTrace*) {}
};

class TraceSpan {
 public:
  explicit TraceSpan(Phase) {}
};

#endif  // KNMATCH_OBS_ENABLED

}  // namespace knmatch::obs

#endif  // KNMATCH_OBS_TRACE_H_
