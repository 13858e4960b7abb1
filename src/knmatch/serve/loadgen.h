#ifndef KNMATCH_SERVE_LOADGEN_H_
#define KNMATCH_SERVE_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "knmatch/common/status.h"
#include "knmatch/common/types.h"

namespace knmatch::serve {

/// Open-loop load profile against a running HttpServer. Open loop:
/// request send times are scheduled by a Poisson process up front and
/// never wait for responses — a slow server faces a growing backlog
/// exactly as it would behind real independent clients, and latency is
/// measured from the *scheduled* arrival, so coordinated omission
/// cannot hide queueing delay.
struct LoadgenOptions {
  uint16_t port = 0;
  /// Offered load ramps linearly rps_start -> rps_end over duration_s.
  double rps_start = 100;
  double rps_end = 100;
  double duration_s = 2;
  /// Concurrent client connections draining the schedule.
  size_t connections = 4;
  /// X-Knmatch-Deadline-Ms on every request; 0 sends none.
  double deadline_ms = 0;
  /// Query kind: "knmatch", "fknmatch", or "knn".
  std::string type = "knmatch";
  size_t n = 0;  // 0 = query dimensionality
  size_t k = 10;
  /// Fraction of events that inject a client-side network fault
  /// (reset, torn frame, stalled dribble, malformed bytes) instead of
  /// a well-formed request.
  double fault_fraction = 0;
  uint64_t seed = 1;
};

/// What an open-loop run saw, by outcome class. Latency percentiles
/// cover completed requests (any HTTP status); fault events and
/// transport failures are counted, never timed.
struct LoadReport {
  uint64_t scheduled = 0;   // events in the schedule
  uint64_t sent = 0;        // well-formed requests sent
  uint64_t ok = 0;          // 2xx
  uint64_t shed = 0;        // 429
  uint64_t deadline = 0;    // 504
  uint64_t client_error = 0;  // other 4xx
  uint64_t server_error = 0;  // other 5xx
  uint64_t partial = 0;       // 2xx answers marked "partial": true
  uint64_t transport_errors = 0;  // connect/send/recv failures
  uint64_t faults_injected = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double max_ms = 0;
  double achieved_rps = 0;
  /// shed / (sent well-formed), the admission-control pressure gauge.
  double shed_rate = 0;
};

/// Runs the profile against 127.0.0.1:port. `query_pool` supplies the
/// query vectors (pre-skewed, e.g. datagen::MakeZipfianQueryMix);
/// events cycle through it pseudo-randomly. Fails with
/// kInvalidArgument on an empty pool or non-positive load.
Result<LoadReport> RunOpenLoopLoad(
    const LoadgenOptions& options,
    const std::vector<std::vector<Value>>& query_pool);

}  // namespace knmatch::serve

#endif  // KNMATCH_SERVE_LOADGEN_H_
