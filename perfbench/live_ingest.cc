// live_ingest: one writer thread streams IngestPoint, and as many
// ErasePoint on random live ids, at a fixed rate (group-commit window 8,
// Checkpoint() every fixed number of ops), while one reader thread runs a closed loop
// of LiveKnMatch / LiveFrequentKnMatch over a uniform 12500 x 16 base.
// The kernel runs through the B+-tree snapshot accessor, and this is the
// only workload where the WAL, copy-on-write and checkpoints work;
// because writes run beside reads, a gain for one that costs the other
// shows up.

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "common.h"
#include "knmatch/common/random.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/engine.h"
#include "knmatch/obs/catalog.h"
#include "knmatch/storage/ingest.h"

namespace perfbench {
namespace {

using knmatch::PointId;
using knmatch::SimilarityEngine;
using knmatch::Value;

constexpr size_t kBase = 12500;
constexpr size_t kDims = 16;
constexpr uint64_t kDataSeed = 7;  // fixed base; the seed draws traffic
constexpr size_t kN = 8;
constexpr size_t kN0 = 4;
constexpr size_t kN1 = 8;
constexpr size_t kK = 10;
constexpr size_t kQueries = 2048;
constexpr size_t kInserts = 8192;
constexpr size_t kGroupCommit = 8;
constexpr size_t kCheckpointEvery = 32;
/// The writer streams at a fixed offered rate, so how much it contends
/// with the reader does not depend on how fast it happens to run; its
/// op latency runs from each op's scheduled start.
constexpr double kWriteRate = 200;
// Erases balance inserts so the live size stays near the base size: a
// growing set would make read cost drift with the writer's speed.
constexpr double kEraseShare = 0.5;
constexpr size_t kSetups = 5;  // setup_s is their median
constexpr size_t kChecks = 8;  // per query kind
constexpr size_t kSoloIngests = 24;
constexpr size_t kPins = 2000;

struct Phase {
  std::vector<double> read_ms;
  /// From each op's scheduled start; includes the checkpoint it
  /// triggered.
  std::vector<double> write_ms;
  std::vector<double> checkpoint_ms;
  size_t failed = 0;
  double wall_s = 0;
};

std::unique_ptr<SimilarityEngine> Setup(const knmatch::Dataset& base,
                                        const std::vector<Value>& q) {
  auto engine = std::make_unique<SimilarityEngine>(base);
  SimilarityEngine::IngestConfig config;
  config.group_commit_window = kGroupCommit;
  if (!engine->BeginIngest(config).ok()) return nullptr;
  (void)engine->LiveKnMatch(q, kN, kK);
  return engine;
}

/// Writer state carried across phases: the next insert point and the
/// live ids erases choose from.
struct Writer {
  const knmatch::Dataset* points = nullptr;
  size_t next_insert = 0;
  size_t ops = 0;
  size_t inserts = 0;
  std::vector<PointId> live;
  knmatch::Rng rng{1};
};

Phase RunPhase(SimilarityEngine& engine, Writer& writer,
               const std::vector<std::vector<Value>>& queries,
               double seconds, Tracer* read_trace, Tracer* write_trace) {
  Phase phase;
  std::atomic<bool> stop{false};
  size_t write_failed = 0;
  const Clock::time_point start = Clock::now();
  std::thread writer_thread([&] {
    for (size_t n = 0; !stop.load(std::memory_order_relaxed); ++n) {
      const Clock::time_point a =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(n / kWriteRate));
      std::this_thread::sleep_until(a);
      const size_t i = writer.ops++;
      const int64_t root = write_trace->Begin("write", i);
      bool ok = true;
      if (writer.rng.Uniform01() < kEraseShare && !writer.live.empty()) {
        const size_t at = writer.rng.UniformInt(writer.live.size());
        const int64_t s = write_trace->Begin("storage.erase", i, root);
        auto r = engine.ErasePoint(writer.live[at]);
        write_trace->End(s);
        ok = r.ok() && r.value();
        writer.live[at] = writer.live.back();
        writer.live.pop_back();
      } else {
        const size_t p = writer.next_insert++ % writer.points->size();
        const int64_t s = write_trace->Begin("storage.ingest", i, root);
        auto r = engine.IngestPoint(writer.points->point(p));
        write_trace->End(s);
        ok = r.ok();
        if (ok) {
          writer.live.push_back(r.value());
          ++writer.inserts;
        }
      }
      if ((i + 1) % kCheckpointEvery == 0) {
        const Clock::time_point c = Clock::now();
        const int64_t s = write_trace->Begin("storage.checkpoint", i, root);
        ok = engine.Checkpoint().ok() && ok;
        write_trace->End(s);
        phase.checkpoint_ms.push_back(MsBetween(c, Clock::now()));
      }
      write_trace->End(root);
      phase.write_ms.push_back(MsBetween(a, Clock::now()));
      if (!ok) ++write_failed;
    }
  });

  // Reader: alternating k-n-match and frequent k-n-match, closed loop.
  // The writer thread already exists, so it keeps the full affinity.
  CoreRotation rotation;
  for (size_t i = 0; SecondsSince(start) < seconds; ++i) {
    rotation.Tick();
    const std::vector<Value>& q = queries[i % queries.size()];
    const int64_t root = read_trace->Begin("read", i);
    const Clock::time_point a = Clock::now();
    bool ok;
    if (i % 2 == 0) {
      const int64_t s = read_trace->Begin("core.live_knmatch", i, root);
      ok = engine.LiveKnMatch(q, kN, kK).ok();
      read_trace->End(s);
    } else {
      const int64_t s = read_trace->Begin("core.live_fknmatch", i, root);
      ok = engine.LiveFrequentKnMatch(q, kN0, kN1, kK).ok();
      read_trace->End(s);
    }
    read_trace->End(root);
    if (ok) {
      phase.read_ms.push_back(MsBetween(a, Clock::now()));
    } else {
      ++phase.failed;
    }
  }
  phase.wall_s = SecondsSince(start);
  stop.store(true);
  writer_thread.join();
  phase.failed += write_failed;
  return phase;
}

/// Compares sampled live answers with a fresh engine over the committed
/// rows (ids remapped back to live ids; the remap is monotone, so tie
/// order is preserved).
void CheckAnswers(SimilarityEngine& engine,
                  const std::vector<std::vector<Value>>& queries,
                  bool corrupt, Report* report) {
  if (!engine.FlushIngest().ok()) {
    report->Fail("live_ingest: FlushIngest failed");
    return;
  }
  const knmatch::LiveColumnIndex* live = engine.live_index();
  const std::vector<PointId> pids = live->LivePids();
  knmatch::Dataset rows;
  for (const PointId pid : pids) {
    auto coords = live->CoordsOf(pid);
    if (!coords.ok()) {
      report->Fail("live_ingest: committed row without coordinates");
      return;
    }
    rows.Append(coords.value());
  }
  SimilarityEngine fresh(std::move(rows));
  auto remap = [&](std::vector<knmatch::Neighbor> m) {
    for (knmatch::Neighbor& n : m) n.pid = pids[n.pid];
    return m;
  };
  for (size_t i = 0; i < kChecks; ++i) {
    const std::vector<Value>& q = queries[(i * 131) % queries.size()];
    auto got = engine.LiveKnMatch(q, kN, kK);
    auto want = fresh.KnMatch(q, kN, kK);
    if (got.ok() && corrupt && i == 0 && !got.value().matches.empty()) {
      ++got.value().matches[0].pid;
    }
    ++report->attempted;
    if (!got.ok() || !want.ok() ||
        got.value().matches != remap(want.value().matches)) {
      ++report->failed;
      report->Fail("live_ingest: LiveKnMatch differs from a fresh engine");
    }
    auto fgot = engine.LiveFrequentKnMatch(q, kN0, kN1, kK);
    auto fwant = fresh.FrequentKnMatch(q, kN0, kN1, kK);
    ++report->attempted;
    if (!fgot.ok() || !fwant.ok() ||
        fgot.value().matches != remap(fwant.value().matches) ||
        fgot.value().frequencies != fwant.value().frequencies) {
      ++report->failed;
      report->Fail(
          "live_ingest: LiveFrequentKnMatch differs from a fresh engine");
    }
  }
}

}  // namespace

void RunLiveIngest(const Args& args, Report* report) {
  const knmatch::Dataset base =
      knmatch::datagen::MakeUniform(kBase, kDims, kDataSeed);
  const knmatch::Dataset inserts =
      knmatch::datagen::MakeUniform(kInserts, kDims, args.seed + 1000003);
  const std::vector<std::vector<Value>> queries =
      SampleQueries(base, kQueries, args.seed * 7919 + 3);

  std::vector<double> setups;
  std::unique_ptr<SimilarityEngine> engine;
  {
    CoreRotation rotation;
    for (size_t i = 0; i < kSetups && (i == 0 || engine); ++i) {
      rotation.Tick();
      engine.reset();
      const Clock::time_point t0 = Clock::now();
      engine = Setup(base, queries.back());
      setups.push_back(SecondsSince(t0));
    }
  }
  if (engine == nullptr) {
    report->Fail("live_ingest: BeginIngest failed");
    return;
  }
  report->values["setup_s"] = Median(setups);

  Writer writer;
  writer.points = &inserts;
  writer.rng = knmatch::Rng(args.seed * 104729 + 5);
  for (size_t i = 0; i < kBase; ++i) {
    writer.live.push_back(static_cast<PointId>(i));
  }

  const knmatch::obs::Catalog& cat = knmatch::obs::Cat();
  const uint64_t wal0 = cat.wal_bytes->Value();
  const uint64_t fsync0 = cat.wal_fsyncs->Value();
  const uint64_t flushed0 = cat.ingest_pages_flushed->Value();

  // A traced run measures the phase twice, untraced then traced, for
  // the tracing overhead.
  const double phase_s = args.seconds * 0.85;
  Tracer off(false);
  Tracer read_trace(true);
  Tracer write_trace(true);
  Phase phase = RunPhase(*engine, writer, queries,
                         args.trace ? phase_s / 2 : phase_s, &off, &off);
  if (args.trace) {
    Phase traced = RunPhase(*engine, writer, queries, phase_s / 2,
                            &read_trace, &write_trace);
    report->values["trace_overhead_pct"] =
        100.0 * ((phase.read_ms.size() / phase.wall_s) /
                     (traced.read_ms.size() / traced.wall_s) -
                 1.0);
    phase = std::move(traced);
  }
  const size_t ops = writer.ops;

  report->attempted += phase.read_ms.size() + phase.write_ms.size();
  report->failed += phase.failed;
  report->values["qps"] = phase.read_ms.size() / phase.wall_s;
  report->values["p50_ms"] = Median(phase.read_ms);
  report->values["tail_ms"] = Percentile(phase.read_ms, 99);
  report->values["ingest_ops_s"] = phase.write_ms.size() / phase.wall_s;
  report->values["ingest_tail_ms"] = Percentile(phase.write_ms, 99);
  report->notes.push_back(
      "reads timed: " + std::to_string(phase.read_ms.size()) +
      " (tail = p99); writes timed: " +
      std::to_string(phase.write_ms.size()) + " (ingest tail = p99)");
  if (ops > 0) {
    report->values["storage.fsyncs_per_op"] =
        static_cast<double>(cat.wal_fsyncs->Value() - fsync0) / ops;
    report->values["storage.pages_flushed_per_op"] =
        static_cast<double>(cat.ingest_pages_flushed->Value() - flushed0) /
        ops;
  }
  if (writer.inserts > 0) {
    report->values["storage.wal_bytes_per_user_byte"] =
        static_cast<double>(cat.wal_bytes->Value() - wal0) /
        static_cast<double>(writer.inserts * kDims * sizeof(Value));
  }
  report->values["storage.checkpoint_ms"] = Mean(phase.checkpoint_ms);

  if (args.trace) {
    report->values["core.live_query_ms"] =
        Mean(read_trace.DurationsMs("core.live_knmatch"));
    // Direct calls with no reader running.
    std::vector<double> solo;
    for (size_t i = 0; i < kSoloIngests; ++i) {
      const Clock::time_point a = Clock::now();
      auto r = engine->IngestPoint(
          inserts.point(writer.next_insert++ % inserts.size()));
      solo.push_back(MsBetween(a, Clock::now()));
      if (r.ok()) writer.live.push_back(r.value());
    }
    report->values["storage.ingest_op_ms"] = Median(solo);
    const Clock::time_point a = Clock::now();
    for (size_t i = 0; i < kPins; ++i) {
      (void)engine->live_index()->PinSnapshot();
    }
    report->values["storage.snapshot_pin_us"] =
        MsBetween(a, Clock::now()) * 1e3 / kPins;
    const double read_total = Sum(read_trace.DurationsMs("read"));
    const double write_total = Sum(write_trace.DurationsMs("write"));
    report->values["unattributed_frac"] =
        (read_trace.UnattributedFrac() * read_total +
         write_trace.UnattributedFrac() * write_total) /
        std::max(1e-9, read_total + write_total);
    if (!args.trace_out.empty() &&
        (!read_trace.WriteJsonl(args.trace_out) ||
         !write_trace.WriteJsonl(args.trace_out + ".writer"))) {
      report->notes.push_back("could not write " + args.trace_out);
    }
  }

  CheckAnswers(*engine, queries, args.corrupt, report);
  if (phase.failed > 0) {
    report->Fail("live_ingest: " + std::to_string(phase.failed) +
                 " ops failed");
  }
}

}  // namespace perfbench
