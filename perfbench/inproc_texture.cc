// inproc_texture: one caller thread, closed loop, over an in-process
// SimilarityEngine on the paper's Corel-texture efficiency set (a
// 68040 x 16 replica), result cache off. A fixed seeded mix of
// k-n-match (n=8, k=10), frequent k-n-match ([4,8], k=10) and, as a
// minority, advisor-routed DiskFrequentKnMatch; then the in-memory part
// of the same stream through the batch executor at T = nproc. The
// kernel, the disk path and the batch executor do almost all the work;
// the cache, router and server do none.

#include <algorithm>
#include <memory>

#include "common.h"
#include "knmatch/common/random.h"
#include "knmatch/core/nmatch_naive.h"
#include "knmatch/datagen/texture_like.h"
#include "knmatch/engine.h"

namespace perfbench {
namespace {

using knmatch::FrequentKnMatchResult;
using knmatch::SimilarityEngine;
using knmatch::Value;

constexpr size_t kN = 8;
constexpr size_t kN0 = 4;
constexpr size_t kN1 = 8;
constexpr size_t kK = 10;
constexpr size_t kStream = 4096;   // distinct query points
constexpr size_t kSetups = 5;      // setup_s is their median
constexpr size_t kNaiveChecks = 6;  // per in-memory kind
constexpr size_t kDiskChecks = 16;
constexpr size_t kBatchChunk = 64;
// Counts are averaged over a fixed prefix so they repeat exactly.
constexpr size_t kCountPrefix = 256;
constexpr size_t kDiskCountPrefix = 24;

enum class Op { kKnMatch, kFrequent, kDisk };

// 45% k-n-match, 45% frequent, 10% disk.
Op DrawOp(knmatch::Rng& rng) {
  const double u = rng.Uniform01();
  return u < 0.45 ? Op::kKnMatch : (u < 0.90 ? Op::kFrequent : Op::kDisk);
}

struct Done {
  size_t query = 0;
  Op op = Op::kKnMatch;
  bool ok = false;
  double ms = 0;
  uint64_t attrs = 0;
  uint64_t pages = 0;
  double io_ms = 0;
  FrequentKnMatchResult result;  // k-n-match answers use .matches only
};

// Builds the engine and everything the timed ops touch lazily (sorted
// columns, disk stores, the cost advisor).
std::unique_ptr<SimilarityEngine> Setup(const knmatch::Dataset& db,
                                        const std::vector<Value>& q) {
  auto engine = std::make_unique<SimilarityEngine>(db);
  (void)engine->KnMatch(q, kN, kK);
  (void)engine->DiskFrequentKnMatch(q, kN0, kN1, kK);
  return engine;
}

// Runs the sequential closed loop for `seconds` starting at op `first`.
std::vector<Done> RunSequential(const SimilarityEngine& engine,
                                const std::vector<std::vector<Value>>& qs,
                                const std::vector<Op>& ops, size_t first,
                                double seconds, Tracer* tracer,
                                double* wall_s) {
  std::vector<Done> done;
  knmatch::DiskSimulator* disk = engine.disk_simulator();
  CoreRotation rotation;
  const Clock::time_point start = Clock::now();
  for (size_t i = first; SecondsSince(start) < seconds; ++i) {
    rotation.Tick();
    Done d;
    d.query = i % qs.size();
    d.op = ops[d.query];
    const std::vector<Value>& q = qs[d.query];
    const int64_t root = tracer->Begin("op", i);
    const Clock::time_point a = Clock::now();
    if (d.op == Op::kKnMatch) {
      const int64_t s = tracer->Begin("core.knmatch", i, root);
      auto r = engine.KnMatch(q, kN, kK);
      tracer->End(s);
      d.ok = r.ok();
      if (d.ok) {
        d.attrs = r.value().attributes_retrieved;
        d.result.matches = std::move(r.value().matches);
      }
    } else if (d.op == Op::kFrequent) {
      const int64_t s = tracer->Begin("core.fknmatch", i, root);
      auto r = engine.FrequentKnMatch(q, kN0, kN1, kK);
      tracer->End(s);
      d.ok = r.ok();
      if (d.ok) {
        d.attrs = r.value().attributes_retrieved;
        d.result = std::move(r.value());
      }
    } else {
      const int64_t s = tracer->Begin("diskalgo.fknmatch", i, root);
      auto r = engine.DiskFrequentKnMatch(q, kN0, kN1, kK);
      tracer->End(s);
      // The engine resets the simulator's counters as each disk query
      // starts, so they now hold this query's I/O.
      d.pages = disk->total_reads();
      d.io_ms = disk->SimulatedIoSeconds() * 1e3;
      d.ok = r.ok();
      if (d.ok) {
        d.attrs = r.value().attributes_retrieved;
        d.result = std::move(r.value());
      }
    }
    d.ms = MsBetween(a, Clock::now());
    tracer->End(root);
    done.push_back(std::move(d));
  }
  *wall_s = SecondsSince(start);
  return done;
}

}  // namespace

void RunInprocTexture(const Args& args, Report* report) {
  // The data set is fixed, as the paper's is; the seed draws the query
  // stream and the op mix.
  const knmatch::Dataset db = knmatch::datagen::MakeTextureLike();
  const std::vector<std::vector<Value>> qs =
      SampleQueries(db, kStream, args.seed * 7919 + 1);
  knmatch::Rng rng(args.seed * 104729 + 3);
  std::vector<Op> ops(qs.size());
  for (Op& op : ops) op = DrawOp(rng);

  std::vector<double> setups;
  std::unique_ptr<SimilarityEngine> engine;
  {
    CoreRotation rotation;
    for (size_t i = 0; i < kSetups; ++i) {
      rotation.Tick();
      engine.reset();
      const Clock::time_point t0 = Clock::now();
      engine = Setup(db, qs.back());
      setups.push_back(SecondsSince(t0));
    }
  }
  report->values["setup_s"] = Median(setups);

  // --- Sequential phase. A traced run measures it twice, untraced then
  // traced over the same ops, for the tracing overhead. ---
  const double seq_s = args.seconds * 0.6;
  Tracer off(false);
  Tracer tracer(true);
  double wall_s = 0;
  std::vector<Done> seq =
      RunSequential(*engine, qs, ops, 0, args.trace ? seq_s / 2 : seq_s,
                    &off, &wall_s);
  report->values["qps"] = static_cast<double>(seq.size()) / wall_s;
  if (args.trace) {
    double traced_wall_s = 0;
    std::vector<Done> traced = RunSequential(*engine, qs, ops, 0, seq_s / 2,
                                             &tracer, &traced_wall_s);
    report->values["trace_overhead_pct"] =
        100.0 * (traced_wall_s / static_cast<double>(traced.size()) /
                     (wall_s / static_cast<double>(seq.size())) -
                 1.0);
    seq = std::move(traced);
  }
  if (args.corrupt && !seq.empty() && !seq[0].result.matches.empty()) {
    ++seq[0].result.matches[0].pid;
  }

  std::vector<double> lat;
  double mem_ms = 0;
  size_t mem_ops = 0;
  size_t counted = 0, disk_counted = 0;
  double count_ms = 0, attrs = 0, pages = 0, io_ms = 0;
  for (const Done& d : seq) {
    ++report->attempted;
    if (!d.ok) {
      ++report->failed;
      continue;
    }
    lat.push_back(d.ms);
    if (d.op == Op::kDisk) {
      if (disk_counted < kDiskCountPrefix) {
        ++disk_counted;
        pages += static_cast<double>(d.pages);
        io_ms += d.io_ms;
      }
      continue;
    }
    mem_ms += d.ms;
    ++mem_ops;
    if (counted < kCountPrefix) {
      ++counted;
      count_ms += d.ms;
      attrs += static_cast<double>(d.attrs);
    }
  }
  report->values["p50_ms"] = Median(lat);
  report->values["tail_ms"] = Percentile(lat, 99);
  report->notes.push_back("sequential ops timed: " +
                          std::to_string(lat.size()) + " (tail = p99)");
  if (counted > 0) {
    report->values["core.attrs_per_query"] = attrs / counted;
  }
  if (disk_counted > 0) {
    report->values["diskalgo.pages_per_query"] = pages / disk_counted;
    report->values["diskalgo.io_model_ms"] = io_ms / disk_counted;
  }

  // --- Answer checks: a seeded sample against the naive scan, and disk
  // answers against the in-memory path. ---
  size_t kn_checks = 0, fk_checks = 0, disk_checks = 0;
  for (const Done& d : seq) {
    if (!d.ok) continue;
    const std::vector<Value>& q = qs[d.query];
    bool same = true;
    if (d.op == Op::kKnMatch && kn_checks < kNaiveChecks) {
      ++kn_checks;
      auto naive = knmatch::KnMatchNaive(db, q, kN, kK);
      same = naive.ok() && naive.value().matches == d.result.matches;
    } else if (d.op == Op::kFrequent && fk_checks < kNaiveChecks) {
      ++fk_checks;
      auto naive = knmatch::FrequentKnMatchNaive(db, q, kN0, kN1, kK);
      same = naive.ok() && SameFrequent(naive.value(), d.result);
    } else if (d.op == Op::kDisk && disk_checks < kDiskChecks) {
      ++disk_checks;
      auto mem = engine->FrequentKnMatch(q, kN0, kN1, kK);
      same = mem.ok() && SameFrequent(mem.value(), d.result);
    }
    if (!same) {
      ++report->failed;
      report->Fail("inproc_texture: query " + std::to_string(d.query) +
                   " differs from its reference answer");
    }
  }

  // --- Batch phase: the in-memory ops of the same stream, in chunks
  // alternating k-n-match and frequent, at T = nproc. Every answer must
  // equal the sequential phase's. ---
  std::vector<const Done*> kn, fk;
  for (const Done& d : seq) {
    if (!d.ok || d.op == Op::kDisk) continue;
    (d.op == Op::kKnMatch ? kn : fk).push_back(&d);
  }
  Tracer& batch_trace = args.trace ? tracer : off;
  size_t batch_queries = 0;
  double batch_wall_s = 0;
  if (!kn.empty() && !fk.empty()) {
    const double batch_s = args.seconds * 0.35;
    size_t kn_next = 0, fk_next = 0;
    const Clock::time_point start = Clock::now();
    for (size_t round = 0; SecondsSince(start) < batch_s; ++round) {
      const bool frequent = (round % 2) == 1;
      const std::vector<const Done*>& src = frequent ? fk : kn;
      size_t& next = frequent ? fk_next : kn_next;
      std::vector<const Done*> chunk;
      knmatch::exec::BatchRequest request;
      request.options.threads = Nproc();
      for (size_t j = 0; j < kBatchChunk; ++j) {
        chunk.push_back(src[next++ % src.size()]);
        request.queries.push_back(qs[chunk.back()->query]);
      }
      const int64_t root = batch_trace.Begin("batch", round);
      const int64_t span = batch_trace.Begin("exec.batch", round, root);
      if (frequent) {
        auto r = engine->FrequentKnMatchBatch(request, kN0, kN1, kK);
        batch_trace.End(span);
        for (size_t j = 0; j < chunk.size(); ++j) {
          const bool ok = r.ok() && r.value().statuses[j].ok() &&
                          SameFrequent(r.value().results[j], chunk[j]->result);
          if (!ok) ++report->failed;
        }
      } else {
        auto r = engine->KnMatchBatch(request, kN, kK);
        batch_trace.End(span);
        for (size_t j = 0; j < chunk.size(); ++j) {
          const bool ok = r.ok() && r.value().statuses[j].ok() &&
                          r.value().results[j].matches ==
                              chunk[j]->result.matches;
          if (!ok) ++report->failed;
        }
      }
      batch_trace.End(root);
      batch_queries += chunk.size();
    }
    batch_wall_s = SecondsSince(start);
  }
  report->attempted += batch_queries;
  if (batch_queries > 0 && mem_ops > 0) {
    const double batch_qps = static_cast<double>(batch_queries) / batch_wall_s;
    report->values["batch_qps"] = batch_qps;
    report->values["exec.batch_speedup"] =
        batch_qps / (static_cast<double>(mem_ops) / (mem_ms / 1e3));
  }
  if (report->failed > 0 && report->correct) {
    report->Fail("inproc_texture: " + std::to_string(report->failed) +
                 " ops failed or answered wrongly");
  }

  // --- Layer numbers from the traced spans. ---
  if (args.trace) {
    std::vector<double> mem = tracer.DurationsMs("core.knmatch");
    for (const double ms : tracer.DurationsMs("core.fknmatch")) {
      mem.push_back(ms);
    }
    report->values["core.query_ms"] = Mean(mem);
    if (attrs > 0) report->values["core.ns_per_attr"] = count_ms * 1e6 / attrs;
    report->values["diskalgo.query_ms"] =
        Mean(tracer.DurationsMs("diskalgo.fknmatch"));
    report->values["unattributed_frac"] = tracer.UnattributedFrac();
    if (!args.trace_out.empty() && !tracer.WriteJsonl(args.trace_out)) {
      report->notes.push_back("could not write " + args.trace_out);
    }
  }
}

}  // namespace perfbench
