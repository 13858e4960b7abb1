#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "knmatch/eval/experiment.h"

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Sum(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return sum;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : Sum(v) / static_cast<double>(v.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

size_t Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

CoreRotation::CoreRotation(double period_s)
    : period_s_(period_s), next_switch_(Clock::now()) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) == 0) {
    have_saved_ = true;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
    }
  }
}

CoreRotation::~CoreRotation() {
  if (have_saved_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

void CoreRotation::Tick() {
  if (cpus_.size() < 2 || Clock::now() < next_switch_) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
  next_switch_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(period_s_));
}

std::vector<std::vector<knmatch::Value>> SampleQueries(
    const knmatch::Dataset& db, size_t count, uint64_t seed) {
  std::vector<std::vector<knmatch::Value>> queries;
  for (const knmatch::PointId pid :
       knmatch::eval::SampleQueryPids(db, count, seed)) {
    auto p = db.point(pid);
    queries.emplace_back(p.begin(), p.end());
  }
  return queries;
}

bool SameFrequent(const knmatch::FrequentKnMatchResult& a,
                  const knmatch::FrequentKnMatchResult& b) {
  return a.matches == b.matches && a.frequencies == b.frequencies;
}

int64_t Tracer::Begin(const std::string& name, uint64_t request,
                      int64_t parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, NowNs(), 0, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t span) {
  if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

int64_t Tracer::Add(const std::string& name, uint64_t request,
                    Clock::time_point a, Clock::time_point b,
                    int64_t parent) {
  if (!enabled_) return -1;
  auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  };
  spans_.push_back(Span{name, ns(a), ns(b), parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

double Tracer::UnattributedFrac() const {
  double total = 0;
  double covered = 0;
  for (const Span& s : spans_) {
    const double ns = static_cast<double>(s.end_ns - s.start_ns);
    if (s.parent < 0) {
      total += ns;
    } else if (spans_[static_cast<size_t>(s.parent)].parent < 0) {
      covered += ns;
    }
  }
  return total > 0 ? 1.0 - covered / total : 0;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%lld,\"request\":%llu}\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
