#ifndef KNMATCH_PERFBENCH_COMMON_H_
#define KNMATCH_PERFBENCH_COMMON_H_

// Shared plumbing of the benchmark program: arguments, the metric table
// every workload reports into, percentiles, peak RSS, core rotation,
// and the span recorder of the traced run.

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "knmatch/common/dataset.h"
#include "knmatch/core/match_types.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test hook: flips one answer before the checks run, so the
  /// checks can be shown to catch a wrong answer.
  bool corrupt = false;
  /// Where the traced run writes its spans (JSON lines); may be empty.
  std::string trace_out;
};

/// Everything a run reports. Workloads fill `values`; main() prints the
/// end-to-end or per-layer subset of the metric table (see main.cc),
/// with 0 for a layer metric the workload does not exercise.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  /// Human-readable notes (stderr): check failures, sample counts.
  std::vector<std::string> notes;

  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

double SecondsSince(Clock::time_point t0);
double MsBetween(Clock::time_point a, Clock::time_point b);

/// Nearest-rank percentile (q in [0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Sum(const std::vector<double>& v);
double Mean(const std::vector<double>& v);

/// Peak resident set of the process, in MB.
double PeakRssMb();

/// Number of online processors.
size_t Nproc();

/// Moves the calling thread to the next processor it may run on each
/// time Tick() finds `period_s` elapsed, and restores the thread's
/// affinity when destroyed. On a shared host each core's speed varies
/// with its neighbours' load, independently of the other cores, so a
/// single-threaded phase left on one core inherits that core's luck;
/// rotating makes every run sample all cores.
class CoreRotation {
 public:
  explicit CoreRotation(double period_s = 0.1);
  ~CoreRotation();
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  void Tick();

 private:
  double period_s_;
  std::vector<int> cpus_;
  size_t next_ = 0;
  Clock::time_point next_switch_;
  cpu_set_t saved_;
  bool have_saved_ = false;
};

/// Query vectors copied from `count` distinct points of `db`, chosen by
/// `seed`.
std::vector<std::vector<knmatch::Value>> SampleQueries(
    const knmatch::Dataset& db, size_t count, uint64_t seed);

/// Frequent-answer equality: same pids, bit-identical distances and
/// frequencies, in order.
bool SameFrequent(const knmatch::FrequentKnMatchResult& a,
                  const knmatch::FrequentKnMatchResult& b);

/// In-memory span recorder for the traced run. Spans are recorded by
/// perfbench around its own calls into the library's public API.
class Tracer {
 public:
  struct Span {
    std::string name;  // "<layer>.<what>", e.g. "core.knmatch"
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  // index into spans(), -1 for a root
    uint64_t request = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its index (or -1 when disabled).
  int64_t Begin(const std::string& name, uint64_t request,
                int64_t parent = -1);
  void End(int64_t span);
  /// Records an already measured interval.
  int64_t Add(const std::string& name, uint64_t request, Clock::time_point a,
              Clock::time_point b, int64_t parent = -1);

  /// Durations in ms of every span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Share of the root spans' total time that no child span covers.
  double UnattributedFrac() const;

  /// Writes the spans as JSON lines to `path`; false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// The three workloads; each fills `report`.
void RunInprocTexture(const Args& args, Report* report);
void RunServeShardedZipf(const Args& args, Report* report);
void RunLiveIngest(const Args& args, Report* report);

}  // namespace perfbench

#endif  // KNMATCH_PERFBENCH_COMMON_H_
