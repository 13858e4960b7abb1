// Tests for per-query tracing: scope installation/nesting, phase
// spans, and end-to-end traces of in-memory and disk queries, where
// the trace's cost counters must agree with the answers the engine
// itself reports.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "knmatch/engine.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/obs/trace.h"

namespace knmatch::obs {
namespace {

std::vector<Value> QueryAt(const Dataset& db, PointId pid) {
  const auto p = db.point(pid);
  return std::vector<Value>(p.begin(), p.end());
}

#if !KNMATCH_OBS_ENABLED

// KNMATCH_DISABLE_METRICS build: tracing is compiled out; the no-op
// scope/span must still be constructible around untraced queries.
TEST(ObsTraceTest, CompiledOutScopeAndSpanAreInert) {
  QueryTrace trace;
  TraceScope scope(&trace);
  TraceSpan span(Phase::kAscend);
  EXPECT_EQ(CurrentTrace(), nullptr);
}

#else

TEST(ObsTraceScopeTest, InstallsAndRestoresNested) {
  EXPECT_EQ(CurrentTrace(), nullptr);
  QueryTrace outer;
  {
    TraceScope a(&outer);
    EXPECT_EQ(CurrentTrace(), &outer);
    QueryTrace inner;
    {
      TraceScope b(&inner);
      EXPECT_EQ(CurrentTrace(), &inner);
    }
    EXPECT_EQ(CurrentTrace(), &outer);
  }
  EXPECT_EQ(CurrentTrace(), nullptr);
}

TEST(ObsTraceScopeTest, IsThreadLocal) {
  QueryTrace trace;
  TraceScope scope(&trace);
  QueryTrace* seen = &trace;  // sentinel; the thread must overwrite it
  std::thread([&] { seen = CurrentTrace(); }).join();
  EXPECT_EQ(seen, nullptr);
  EXPECT_EQ(CurrentTrace(), &trace);
}

TEST(ObsTraceSpanTest, ChargesElapsedTimeToPhase) {
  QueryTrace trace;
  {
    TraceScope scope(&trace);
    TraceSpan span(Phase::kAscend);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(trace.phase_seconds(Phase::kAscend), 0.0);
  EXPECT_EQ(trace.phase_seconds(Phase::kLocate), 0.0);
  EXPECT_DOUBLE_EQ(trace.cpu_seconds(),
                   trace.phase_seconds(Phase::kAscend));
}

TEST(ObsTraceSpanTest, NoTraceMeansNoRecording) {
  ASSERT_EQ(CurrentTrace(), nullptr);
  TraceSpan span(Phase::kVerify);  // must be a harmless no-op
}

TEST(ObsTraceTest, DiskIoExcludedFromCpuSeconds) {
  QueryTrace trace;
  trace.AddPhaseSeconds(Phase::kLocate, 0.5);
  trace.AddPhaseSeconds(Phase::kDiskIo, 2.0);
  EXPECT_DOUBLE_EQ(trace.cpu_seconds(), 0.5);
  EXPECT_DOUBLE_EQ(trace.phase_seconds(Phase::kDiskIo), 2.0);
}

TEST(ObsTraceTest, ClearZeroesEverything) {
  QueryTrace trace;
  trace.AddPhaseSeconds(Phase::kRank, 1.0);
  trace.counters().attributes_retrieved = 7;
  trace.Clear();
  EXPECT_EQ(trace.phase_seconds(Phase::kRank), 0.0);
  EXPECT_EQ(trace.counters().attributes_retrieved, 0u);
}

TEST(ObsTraceTest, RenderingsNamePhasesAndCounters) {
  QueryTrace trace;
  trace.AddPhaseSeconds(Phase::kAscend, 0.25);
  trace.counters().attributes_retrieved = 42;
  const std::string text = trace.ToString();
  EXPECT_NE(text.find("ascend"), std::string::npos);
  EXPECT_NE(text.find("attributes_retrieved"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"ascend\":0.250000000"), std::string::npos);
  EXPECT_NE(json.find("\"attributes_retrieved\":42"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ObsTraceEndToEndTest, MemoryQueryTraceMatchesAnswerStats) {
  const Dataset db = datagen::MakeUniform(500, 8, /*seed=*/3);
  SimilarityEngine engine(datagen::MakeUniform(500, 8, /*seed=*/3));
  QueryTrace trace;
  Result<KnMatchResult> r = Status::Internal("unset");
  {
    TraceScope scope(&trace);
    r = engine.KnMatch(QueryAt(db, 21), /*n=*/5, /*k=*/8);
  }
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(trace.counters().attributes_retrieved,
            r.value().attributes_retrieved);
  EXPECT_GT(trace.counters().heap_pops, 0u);
  EXPECT_GT(trace.phase_seconds(Phase::kAscend), 0.0);
  EXPECT_EQ(trace.phase_seconds(Phase::kDiskIo), 0.0);
}

TEST(ObsTraceEndToEndTest, FrequentQueryChargesRankPhase) {
  const Dataset db = datagen::MakeUniform(400, 6, /*seed=*/11);
  SimilarityEngine engine(datagen::MakeUniform(400, 6, /*seed=*/11));
  QueryTrace trace;
  Result<FrequentKnMatchResult> r = Status::Internal("unset");
  {
    TraceScope scope(&trace);
    r = engine.FrequentKnMatch(QueryAt(db, 5), /*n0=*/2, /*n1=*/5,
                               /*k=*/6);
  }
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(trace.counters().attributes_retrieved,
            r.value().attributes_retrieved);
  EXPECT_GT(trace.phase_seconds(Phase::kRank), 0.0);
}

TEST(ObsTraceEndToEndTest, DiskQueryRecordsPagesAndModelledIo) {
  const Dataset db = datagen::MakeUniform(300, 6, /*seed=*/17);
  SimilarityEngine engine(datagen::MakeUniform(300, 6, /*seed=*/17));
  QueryTrace trace;
  Result<FrequentKnMatchResult> r = Status::Internal("unset");
  SimilarityEngine::DiskReport report;
  {
    TraceScope scope(&trace);
    r = engine.DiskFrequentKnMatch(QueryAt(db, 9), /*n0=*/2, /*n1=*/4,
                                   /*k=*/5,
                                   SimilarityEngine::DiskMethod::kScan,
                                   nullptr, &report);
  }
  ASSERT_TRUE(r.ok());
  const TraceCounters& c = trace.counters();
  EXPECT_GT(c.sequential_pages + c.random_pages + c.buffer_hits, 0u);
  EXPECT_GT(trace.phase_seconds(Phase::kDiskIo), 0.0);
  EXPECT_EQ(trace.phase_seconds(Phase::kDiskIo),
            report.cost.io_seconds);
  EXPECT_EQ(c.attributes_retrieved, r.value().attributes_retrieved);
  EXPECT_EQ(c.fallbacks, 0u);
}

TEST(ObsTraceEndToEndTest, SuccessiveQueriesAccumulateUntilCleared) {
  const Dataset db = datagen::MakeUniform(300, 6, /*seed=*/23);
  SimilarityEngine engine(datagen::MakeUniform(300, 6, /*seed=*/23));
  QueryTrace trace;
  TraceScope scope(&trace);
  ASSERT_TRUE(engine.KnMatch(QueryAt(db, 1), 3, 4).ok());
  const uint64_t after_one = trace.counters().attributes_retrieved;
  ASSERT_TRUE(engine.KnMatch(QueryAt(db, 2), 3, 4).ok());
  EXPECT_GT(trace.counters().attributes_retrieved, after_one);
  trace.Clear();
  EXPECT_EQ(trace.counters().attributes_retrieved, 0u);
}

#endif  // KNMATCH_OBS_ENABLED

}  // namespace
}  // namespace knmatch::obs
