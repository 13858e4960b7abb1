#include "knmatch/obs/trace.h"

#include <cstdio>
#include <functional>

namespace knmatch::obs {

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kLocate: return "locate";
    case Phase::kAscend: return "ascend";
    case Phase::kVerify: return "verify";
    case Phase::kRank: return "rank";
    case Phase::kDiskIo: return "disk_io";
  }
  return "?";
}

double QueryTrace::cpu_seconds() const {
  double total = 0;
  for (size_t i = 0; i < kNumPhases; ++i) {
    if (static_cast<Phase>(i) != Phase::kDiskIo) total += seconds_[i];
  }
  return total;
}

void QueryTrace::Clear() {
  seconds_.fill(0);
  counters_ = TraceCounters{};
}

namespace {

void AppendCounter(std::string* out, const char* name, uint64_t v,
                   bool json, bool* first) {
  char buf[96];
  if (json) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", *first ? "" : ",",
                  name, static_cast<unsigned long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "  %-21s %llu\n", name,
                  static_cast<unsigned long long>(v));
  }
  *out += buf;
  *first = false;
}

void ForEachCounter(
    const TraceCounters& c,
    const std::function<void(const char*, uint64_t)>& fn) {
  fn("attributes_retrieved", c.attributes_retrieved);
  fn("heap_pops", c.heap_pops);
  fn("sequential_pages", c.sequential_pages);
  fn("random_pages", c.random_pages);
  fn("buffer_hits", c.buffer_hits);
  fn("failed_reads", c.failed_reads);
  fn("retries", c.retries);
  fn("quarantines", c.quarantines);
  fn("fallbacks", c.fallbacks);
  fn("points_refined", c.points_refined);
}

}  // namespace

std::string QueryTrace::ToString() const {
  std::string out = "phases:\n";
  char buf[96];
  for (size_t i = 0; i < kNumPhases; ++i) {
    std::snprintf(buf, sizeof(buf), "  %-8s %.6fs\n",
                  PhaseName(static_cast<Phase>(i)), seconds_[i]);
    out += buf;
  }
  out += "counters:\n";
  bool first = true;
  ForEachCounter(counters_, [&](const char* name, uint64_t v) {
    AppendCounter(&out, name, v, /*json=*/false, &first);
  });
  return out;
}

std::string QueryTrace::ToJson() const {
  std::string out = "{\"phases\":{";
  char buf[96];
  for (size_t i = 0; i < kNumPhases; ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.9f", i == 0 ? "" : ",",
                  PhaseName(static_cast<Phase>(i)), seconds_[i]);
    out += buf;
  }
  out += "},\"counters\":{";
  bool first = true;
  ForEachCounter(counters_, [&](const char* name, uint64_t v) {
    AppendCounter(&out, name, v, /*json=*/true, &first);
  });
  out += "}}";
  return out;
}

#if KNMATCH_OBS_ENABLED

namespace {
thread_local QueryTrace* g_current_trace = nullptr;
}  // namespace

QueryTrace* CurrentTrace() { return g_current_trace; }

TraceScope::TraceScope(QueryTrace* trace) : prev_(g_current_trace) {
  g_current_trace = trace;
}

TraceScope::~TraceScope() { g_current_trace = prev_; }

#endif  // KNMATCH_OBS_ENABLED

}  // namespace knmatch::obs
