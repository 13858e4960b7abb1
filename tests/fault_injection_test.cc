#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "knmatch/common/random.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/engine.h"
#include "knmatch/exec/batch.h"
#include "knmatch/storage/bplus_tree.h"
#include "knmatch/storage/disk_simulator.h"
#include "knmatch/storage/fault_injector.h"
#include "knmatch/storage/page_codec.h"
#include "knmatch/storage/paged_file.h"
#include "status_matchers.h"

namespace knmatch {
namespace {

using DiskMethod = SimilarityEngine::DiskMethod;

// ---------------------------------------------------------------------------
// Page codec

TEST(PageCodecTest, RoundTripsPayload) {
  std::vector<std::byte> payload;
  for (int i = 0; i < 100; ++i) payload.push_back(std::byte(i * 7 + 3));
  std::vector<std::byte> page = FrameChecksummedPage(payload, 4096);
  ASSERT_EQ(page.size(), 4096u);

  auto unframed = VerifyAndUnframePage(page);
  ASSERT_TRUE(unframed.ok());
  ASSERT_EQ(unframed.value().size(), payload.size());
  for (size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(unframed.value()[i], payload[i]);
  }
}

TEST(PageCodecTest, EmptyPayloadRoundTrips) {
  std::vector<std::byte> page = FrameChecksummedPage({}, 64);
  auto unframed = VerifyAndUnframePage(page);
  ASSERT_TRUE(unframed.ok());
  EXPECT_EQ(unframed.value().size(), 0u);
}

TEST(PageCodecTest, AnySingleByteFlipIsDetected) {
  std::vector<std::byte> payload = {std::byte{0xAB}, std::byte{0x00},
                                    std::byte{0xFF}, std::byte{0x5C}};
  const std::vector<std::byte> page = FrameChecksummedPage(payload, 64);
  // Flip every byte of the frame in turn — header, payload, padding,
  // and the checksum itself must all be covered.
  for (size_t i = 0; i < page.size(); ++i) {
    std::vector<std::byte> damaged = page;
    damaged[i] ^= std::byte{0x01};
    auto verdict = VerifyAndUnframePage(damaged);
    EXPECT_TRUE(StatusIs(verdict, StatusCode::kDataLoss))
        << "flip at byte " << i << " went undetected";
  }
}

// The one-byte-per-step CRC the codec shipped with: the reference the
// sliced CRC must match on every length and alignment.
uint32_t Crc32Bytewise(std::span<const std::byte> data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (const std::byte b : data) {
    crc ^= static_cast<uint8_t>(b);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(PageCodecTest, Crc32KnownAnswer) {
  const char* check = "123456789";
  const auto* bytes = reinterpret_cast<const std::byte*>(check);
  EXPECT_EQ(Crc32(std::span<const std::byte>(bytes, 9)), 0xCBF43926u);
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(PageCodecTest, Crc32MatchesBytewiseAtEveryLengthAndOffset) {
  Rng rng(7);
  std::vector<std::byte> buf(4104 + 8);
  for (std::byte& b : buf) b = std::byte(rng.UniformInt(256));
  for (const size_t offset : {0, 1, 3, 7}) {
    for (size_t len = 0; len <= 4104; ++len) {
      const std::span<const std::byte> data(buf.data() + offset, len);
      ASSERT_EQ(Crc32(data), Crc32Bytewise(data))
          << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(PageCodecTest, TruncatedImageRejected) {
  std::vector<std::byte> tiny(kPageFrameOverhead, std::byte{0});
  EXPECT_TRUE(StatusIs(VerifyAndUnframePage(tiny), StatusCode::kDataLoss));
  EXPECT_TRUE(StatusIs(VerifyAndUnframePage({}), StatusCode::kDataLoss));
}

// ---------------------------------------------------------------------------
// Fault injector

TEST(FaultInjectorTest, DeterministicGivenSeedAndSequence) {
  const FaultInjector::Config config{.seed = 17,
                                     .transient_error_rate = 0.3,
                                     .corruption_rate = 0.05};
  FaultInjector a(config);
  FaultInjector b(config);
  for (uint64_t page = 0; page < 50; ++page) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      EXPECT_EQ(a.OnReadAttempt(page), b.OnReadAttempt(page))
          << "page " << page << " attempt " << attempt;
    }
  }
  EXPECT_EQ(a.transient_faults_injected(), b.transient_faults_injected());
  EXPECT_EQ(a.corruptions_injected(), b.corruptions_injected());
}

TEST(FaultInjectorTest, ScriptedFailuresCountDownThenSucceed) {
  FaultInjector injector;
  injector.FailNextReads(4, 2);
  EXPECT_EQ(injector.OnReadAttempt(4), FaultInjector::Outcome::kTransientError);
  EXPECT_EQ(injector.OnReadAttempt(4), FaultInjector::Outcome::kTransientError);
  EXPECT_EQ(injector.OnReadAttempt(4), FaultInjector::Outcome::kOk);
  EXPECT_EQ(injector.OnReadAttempt(5), FaultInjector::Outcome::kOk);
  EXPECT_EQ(injector.transient_faults_injected(), 2u);
}

TEST(FaultInjectorTest, ScriptedCorruptionIsStickyUntilHealed) {
  FaultInjector injector;
  injector.CorruptPage(9);
  EXPECT_EQ(injector.OnReadAttempt(9), FaultInjector::Outcome::kCorruption);
  EXPECT_EQ(injector.OnReadAttempt(9), FaultInjector::Outcome::kCorruption);
  injector.HealPage(9);
  EXPECT_EQ(injector.OnReadAttempt(9), FaultInjector::Outcome::kOk);
}

TEST(FaultInjectorTest, ClearStopsAllFaults) {
  FaultInjector injector(FaultInjector::Config{.seed = 1,
                                               .transient_error_rate = 1.0,
                                               .corruption_rate = 1.0});
  injector.FailNextReads(0, 100);
  EXPECT_NE(injector.OnReadAttempt(0), FaultInjector::Outcome::kOk);
  injector.Clear();
  for (uint64_t page = 0; page < 20; ++page) {
    EXPECT_EQ(injector.OnReadAttempt(page), FaultInjector::Outcome::kOk);
  }
}

// ---------------------------------------------------------------------------
// Disk simulator retry accounting (the counter-skew regression suite)

TEST(DiskSimulatorFaultTest, EveryPhysicalAttemptIsCharged) {
  DiskSimulator disk;
  disk.AllocatePages(10);
  FaultInjector injector;
  disk.set_fault_injector(&injector);
  const size_t s = disk.OpenStream();

  injector.FailNextReads(5, 2);
  EXPECT_TRUE(disk.ChargedRead(s, 5).ok());
  // Three physical attempts: the first is a seek (random), the two
  // same-page retries run with the head already in place (sequential).
  EXPECT_EQ(disk.total_reads(), 3u);
  EXPECT_EQ(disk.random_reads(), 1u);
  EXPECT_EQ(disk.sequential_reads(), 2u);
  EXPECT_EQ(disk.failed_reads(), 2u);
}

TEST(DiskSimulatorFaultTest, RetriesExhaustBudgetThenUnavailable) {
  DiskSimulator disk;
  disk.AllocatePages(10);
  FaultInjector injector;
  disk.set_fault_injector(&injector);
  const size_t s = disk.OpenStream();

  injector.FailNextReads(3, DiskSimulator::kMaxReadAttempts);
  EXPECT_TRUE(StatusIs(disk.ChargedRead(s, 3), StatusCode::kUnavailable));
  EXPECT_EQ(disk.failed_reads(),
            static_cast<uint64_t>(DiskSimulator::kMaxReadAttempts));
  // The script is spent, so the next charged read succeeds — and it is
  // a real physical read, not a phantom buffer hit.
  const uint64_t before = disk.total_reads();
  EXPECT_TRUE(disk.ChargedRead(s, 3).ok());
  EXPECT_EQ(disk.total_reads(), before + 1);
  EXPECT_EQ(disk.buffer_hits(), 0u);
}

TEST(DiskSimulatorFaultTest, FailedReadsDoNotPopulateBufferPool) {
  DiskConfig config;
  config.buffer_pool_pages = 8;
  DiskSimulator disk(config);
  disk.AllocatePages(4);
  FaultInjector injector;
  disk.set_fault_injector(&injector);
  const size_t s = disk.OpenStream();
  const size_t t = disk.OpenStream();
  const size_t u = disk.OpenStream();

  injector.FailNextReads(2, DiskSimulator::kMaxReadAttempts);
  EXPECT_TRUE(StatusIs(disk.ChargedRead(s, 2), StatusCode::kUnavailable));
  // Another stream must go to the media: the failed transfers must not
  // have left page 2 in the shared pool.
  EXPECT_TRUE(disk.ChargedRead(t, 2).ok());
  EXPECT_EQ(disk.buffer_hits(), 0u);
  // That successful read *does* populate the pool.
  EXPECT_TRUE(disk.ChargedRead(u, 2).ok());
  EXPECT_EQ(disk.buffer_hits(), 1u);
}

TEST(DiskSimulatorFaultTest, QuarantinedPageRefusedWithoutIo) {
  DiskSimulator disk;
  disk.AllocatePages(4);
  FaultInjector injector;
  disk.set_fault_injector(&injector);
  const size_t s = disk.OpenStream();

  injector.CorruptPage(1);
  EXPECT_TRUE(StatusIs(disk.ChargedRead(s, 1), StatusCode::kDataLoss));
  EXPECT_TRUE(disk.IsQuarantined(1));
  EXPECT_EQ(disk.quarantined_pages(), 1u);

  disk.ResetCounters();
  EXPECT_TRUE(StatusIs(disk.ChargedRead(s, 1), StatusCode::kDataLoss));
  EXPECT_EQ(disk.total_reads(), 0u);  // refusal is free

  injector.HealPage(1);
  disk.ClearQuarantine();
  EXPECT_TRUE(disk.ChargedRead(s, 1).ok());
}

// ---------------------------------------------------------------------------
// PagedFile under faults

std::vector<std::byte> TestPayload() {
  std::vector<std::byte> payload;
  PutScalar<double>(&payload, 6.5);
  PutScalar<uint32_t>(&payload, 99);
  return payload;
}

TEST(PagedFileFaultTest, OutOfRangeIndexIsAnError) {
  DiskSimulator disk;
  PagedFile file(&disk);
  file.AppendPage(TestPayload());
  const size_t s = disk.OpenStream();
  EXPECT_TRUE(StatusIs(file.ReadPage(s, 1), StatusCode::kOutOfRange));
  EXPECT_TRUE(StatusIs(file.ReadPage(s, 999), StatusCode::kOutOfRange));
  EXPECT_TRUE(StatusIs(file.PeekPage(7), StatusCode::kOutOfRange));
  EXPECT_EQ(disk.total_reads(), 0u);
}

TEST(PagedFileFaultTest, TransientFaultsHealWithinRetryBudget) {
  DiskSimulator disk;
  FaultInjector injector;
  disk.set_fault_injector(&injector);
  PagedFile file(&disk);
  const std::vector<std::byte> payload = TestPayload();
  file.AppendPage(payload);

  injector.FailNextReads(file.first_global_page(),
                         DiskSimulator::kMaxReadAttempts - 1);
  auto read = file.ReadPage(disk.OpenStream(), 0);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(GetScalar<double>(read.value(), 0), 6.5);
  EXPECT_EQ(disk.failed_reads(),
            static_cast<uint64_t>(DiskSimulator::kMaxReadAttempts - 1));
}

TEST(PagedFileFaultTest, TransientFaultsBeyondBudgetAreUnavailable) {
  DiskSimulator disk;
  FaultInjector injector;
  disk.set_fault_injector(&injector);
  PagedFile file(&disk);
  file.AppendPage(TestPayload());
  const size_t s = disk.OpenStream();

  injector.FailNextReads(file.first_global_page(),
                         DiskSimulator::kMaxReadAttempts);
  EXPECT_TRUE(StatusIs(file.ReadPage(s, 0), StatusCode::kUnavailable));
  // Unavailable means exactly that: the same read succeeds once the
  // fault passes, and the payload is intact.
  auto read = file.ReadPage(s, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(GetScalar<uint32_t>(read.value(), sizeof(double)), 99u);
}

TEST(PagedFileFaultTest, TransferCorruptionQuarantinesThenHeals) {
  DiskSimulator disk;
  FaultInjector injector;
  disk.set_fault_injector(&injector);
  PagedFile file(&disk);
  file.AppendPage(TestPayload());
  const uint64_t global = file.first_global_page();
  const size_t s = disk.OpenStream();

  injector.CorruptPage(global);
  EXPECT_TRUE(StatusIs(file.ReadPage(s, 0), StatusCode::kDataLoss));
  EXPECT_TRUE(disk.IsQuarantined(global));

  // Re-reads are refused from the quarantine, without touching disk.
  disk.ResetCounters();
  EXPECT_TRUE(StatusIs(file.ReadPage(s, 0), StatusCode::kDataLoss));
  EXPECT_EQ(disk.total_reads(), 0u);

  // The corruption was a transfer fault — the stored image is intact,
  // so healing the page restores the original bytes exactly.
  injector.HealPage(global);
  disk.ClearQuarantine();
  auto read = file.ReadPage(s, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(GetScalar<double>(read.value(), 0), 6.5);
  EXPECT_EQ(GetScalar<uint32_t>(read.value(), sizeof(double)), 99u);
}

TEST(PagedFileFaultTest, AtRestDamageFailsChecksum) {
  DiskSimulator disk;
  PagedFile file(&disk);
  file.AppendPage(TestPayload());
  const size_t s = disk.OpenStream();
  ASSERT_TRUE(file.ReadPage(s, 0).ok());  // verified and memoized

  file.CorruptStoredByte(0, 5);  // bit rot inside the payload
  EXPECT_TRUE(StatusIs(file.PeekPage(0), StatusCode::kDataLoss));
  // A charged read quarantines the damaged page.
  disk.ClearQuarantine();
  EXPECT_TRUE(StatusIs(file.ReadPage(s, 0), StatusCode::kDataLoss));
  EXPECT_TRUE(disk.IsQuarantined(file.first_global_page()));

  // Restoring the byte heals the image (XOR is its own inverse).
  file.CorruptStoredByte(0, 5);
  disk.ClearQuarantine();
  EXPECT_TRUE(file.ReadPage(s, 0).ok());
}

// ---------------------------------------------------------------------------
// B+-tree under faults

TEST(BPlusTreeFaultTest, SeeksAndMutationsReportUnreadableNodes) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  std::vector<ColumnEntry> entries;
  for (PointId pid = 0; pid < 2000; ++pid) {
    entries.push_back(ColumnEntry{static_cast<Value>(pid) / 2000.0, pid});
  }
  tree.BulkLoad(entries);

  FaultInjector injector(
      FaultInjector::Config{.seed = 3, .transient_error_rate = 1.0});
  disk.set_fault_injector(&injector);
  const DiskStream s_handle = tree.OpenStream();
  const size_t s = s_handle.id();

  auto it = tree.SeekLowerBound(s, 0.5);
  EXPECT_FALSE(it.Valid());
  EXPECT_TRUE(StatusIs(it.status(), StatusCode::kUnavailable));

  EXPECT_TRUE(StatusIs(tree.RankOf(s, 0.5), StatusCode::kUnavailable));

  const size_t size_before = tree.size();
  EXPECT_TRUE(
      StatusIs(tree.Insert(ColumnEntry{0.25, 5000}), StatusCode::kUnavailable));
  EXPECT_EQ(tree.size(), size_before);  // failed insert mutates nothing
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeFaultTest, IteratorLatchesErrorAtLeafBoundary) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  std::vector<ColumnEntry> entries;
  for (PointId pid = 0; pid < 2000; ++pid) {
    entries.push_back(ColumnEntry{static_cast<Value>(pid) / 2000.0, pid});
  }
  tree.BulkLoad(entries);

  const DiskStream s_handle = tree.OpenStream();

  const size_t s = s_handle.id();
  auto it = tree.SeekLowerBound(s, -1.0);  // healthy seek to the front
  ASSERT_TRUE(it.Valid());

  FaultInjector injector(
      FaultInjector::Config{.seed = 3, .transient_error_rate = 1.0});
  disk.set_fault_injector(&injector);
  size_t visited = 0;
  while (it.Valid() && it.status().ok()) {
    it.Next();
    ++visited;
  }
  // The walk dies at the first leaf-boundary crossing, not the column
  // end, and reports the damage rather than pretending exhaustion.
  EXPECT_LT(visited, entries.size());
  EXPECT_FALSE(it.Valid());
  EXPECT_TRUE(StatusIs(it.status(), StatusCode::kUnavailable));
}

// ---------------------------------------------------------------------------
// Engine-level degradation

std::vector<Value> MidQuery(size_t dims) {
  std::vector<Value> q(dims);
  for (size_t i = 0; i < dims; ++i) {
    q[i] = 0.3 + 0.1 * static_cast<Value>(i);
  }
  return q;
}

TEST(EngineFaultTest, ExplicitMethodSurfacesItsError) {
  SimilarityEngine engine(datagen::MakeUniform(600, 3, 11));
  FaultInjector injector(
      FaultInjector::Config{.seed = 5, .corruption_rate = 1.0});
  engine.SetFaultInjector(&injector);

  const std::vector<Value> q = MidQuery(3);
  SimilarityEngine::DiskReport report;
  auto r = engine.DiskFrequentKnMatch(q, 1, 3, 5, DiskMethod::kAd, nullptr,
                                      &report);
  EXPECT_TRUE(StatusIs(r, StatusCode::kDataLoss));
  EXPECT_EQ(report.method, DiskMethod::kAd);
  EXPECT_TRUE(report.fallback.empty());
}

TEST(EngineFaultTest, AutoDegradesToMemoryAdWhenDiskIsGone) {
  SimilarityEngine clean(datagen::MakeUniform(600, 3, 11));
  SimilarityEngine faulty(datagen::MakeUniform(600, 3, 11));
  FaultInjector injector(
      FaultInjector::Config{.seed = 5, .transient_error_rate = 1.0});
  faulty.SetFaultInjector(&injector);

  const std::vector<Value> q = MidQuery(3);
  auto expected = clean.DiskFrequentKnMatch(q, 1, 3, 5, DiskMethod::kScan);
  ASSERT_TRUE(expected.ok());

  SimilarityEngine::DiskReport report;
  auto got = faulty.DiskFrequentKnMatch(q, 1, 3, 5, DiskMethod::kAuto,
                                        nullptr, &report);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(report.method, DiskMethod::kMemoryAd);
  // Whatever the advisor picked, the three disk methods all failed.
  ASSERT_EQ(report.fallback.size(), 3u);
  for (const auto& step : report.fallback) {
    EXPECT_TRUE(StatusIs(step.status, StatusCode::kUnavailable));
    EXPECT_NE(step.method, DiskMethod::kMemoryAd);
  }
  // Degraded answers are bit-identical to healthy ones.
  EXPECT_EQ(got.value().matches, expected.value().matches);
  EXPECT_EQ(got.value().frequencies, expected.value().frequencies);
  EXPECT_EQ(got.value().per_n_sets, expected.value().per_n_sets);
}

TEST(EngineFaultTest, AutoRoutesAroundAPoisonedColumnStore) {
  SimilarityEngine clean(datagen::MakeUniform(600, 3, 11));
  SimilarityEngine faulty(datagen::MakeUniform(600, 3, 11));
  FaultInjector injector;
  faulty.SetFaultInjector(&injector);

  // Pages are laid out rows, then columns, then the VA file; corrupt
  // every column page so only the AD method loses its data.
  const auto stats = faulty.DiskStorageStats();
  for (uint64_t p = stats.row_pages; p < stats.row_pages + stats.column_pages;
       ++p) {
    injector.CorruptPage(p);
  }

  const std::vector<Value> q = MidQuery(3);
  auto expected = clean.DiskFrequentKnMatch(q, 1, 3, 5, DiskMethod::kScan);
  ASSERT_TRUE(expected.ok());
  SimilarityEngine::DiskReport report;
  auto got = faulty.DiskFrequentKnMatch(q, 1, 3, 5, DiskMethod::kAuto,
                                        nullptr, &report);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // The answer came from a method that still has its data.
  EXPECT_NE(report.method, DiskMethod::kAd);
  for (const auto& step : report.fallback) {
    EXPECT_EQ(step.method, DiskMethod::kAd);
    EXPECT_TRUE(StatusIs(step.status, StatusCode::kDataLoss));
  }
  EXPECT_EQ(got.value().matches, expected.value().matches);
  EXPECT_EQ(got.value().per_n_sets, expected.value().per_n_sets);
}

TEST(EngineFaultTest, ClearFaultsRestoresEveryMethod) {
  SimilarityEngine engine(datagen::MakeUniform(600, 3, 11));
  FaultInjector injector(
      FaultInjector::Config{.seed = 5, .corruption_rate = 1.0});
  engine.SetFaultInjector(&injector);

  const std::vector<Value> q = MidQuery(3);
  ASSERT_FALSE(
      engine.DiskFrequentKnMatch(q, 1, 3, 5, DiskMethod::kAd).ok());
  ASSERT_GT(engine.disk_simulator()->quarantined_pages(), 0u);

  engine.ClearFaults();
  EXPECT_EQ(engine.disk_simulator()->quarantined_pages(), 0u);
  for (DiskMethod m :
       {DiskMethod::kScan, DiskMethod::kAd, DiskMethod::kVaFile}) {
    auto r = engine.DiskFrequentKnMatch(q, 1, 3, 5, m);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Batch deadline / cancellation

TEST(BatchDeadlineTest, PreSetCancelSkipsEveryQuery) {
  SimilarityEngine engine(datagen::MakeUniform(500, 3, 17));
  exec::BatchRequest request;
  for (int i = 0; i < 8; ++i) {
    request.queries.push_back({0.1 * i, 0.4, 0.6});
  }
  request.options.threads = 2;
  request.options.allow_oversubscription = true;
  request.options.cancel = std::make_shared<std::atomic<bool>>(true);

  auto r = engine.KnMatchBatch(request, 2, 5);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().statuses.size(), request.queries.size());
  for (const Status& s : r.value().statuses) {
    EXPECT_TRUE(StatusIs(s, StatusCode::kUnavailable));
  }
  for (const KnMatchResult& res : r.value().results) {
    EXPECT_TRUE(res.matches.empty());
  }
  EXPECT_EQ(r.value().attributes_retrieved, 0u);
}

TEST(BatchDeadlineTest, ExpiredDeadlineSkipsEveryQuery) {
  SimilarityEngine engine(datagen::MakeUniform(500, 3, 17));
  exec::BatchRequest request;
  for (int i = 0; i < 6; ++i) {
    request.queries.push_back({0.1 * i, 0.4, 0.6});
  }
  request.options.threads = 2;
  request.options.allow_oversubscription = true;
  request.options.deadline_ms = 1e-6;  // expires before any query starts

  auto r = engine.FrequentKnMatchBatch(request, 1, 3, 5);
  ASSERT_TRUE(r.ok());
  // Deadline skips carry the typed deadline status (cancellation keeps
  // kUnavailable), so callers can tell "retry with a larger deadline"
  // from "the batch was called off".
  for (const Status& s : r.value().statuses) {
    EXPECT_TRUE(StatusIs(s, StatusCode::kDeadlineExceeded));
  }
}

TEST(BatchDeadlineTest, GenerousDeadlineMatchesUnboundedRun) {
  SimilarityEngine engine(datagen::MakeUniform(500, 3, 17));
  exec::BatchRequest request;
  for (int i = 0; i < 6; ++i) {
    request.queries.push_back({0.15 * i, 0.3, 0.7});
  }
  request.options.threads = 2;
  request.options.allow_oversubscription = true;

  auto unbounded = engine.KnMatchBatch(request, 2, 5);
  ASSERT_TRUE(unbounded.ok());

  request.options.deadline_ms = 1e9;
  request.options.cancel = std::make_shared<std::atomic<bool>>(false);
  auto bounded = engine.KnMatchBatch(request, 2, 5);
  ASSERT_TRUE(bounded.ok());

  ASSERT_EQ(bounded.value().results.size(), unbounded.value().results.size());
  for (size_t i = 0; i < bounded.value().results.size(); ++i) {
    EXPECT_TRUE(bounded.value().statuses[i].ok());
    EXPECT_EQ(bounded.value().results[i].matches,
              unbounded.value().results[i].matches);
  }
  EXPECT_EQ(bounded.value().attributes_retrieved,
            unbounded.value().attributes_retrieved);
}

// ---------------------------------------------------------------------------
// The randomized fault-schedule soak

TEST(FaultSoakTest, TwoThousandQueriesSurviveARandomizedFaultSchedule) {
  constexpr size_t kCardinality = 800;
  constexpr size_t kDims = 4;
  constexpr int kQueries = 2000;

  SimilarityEngine clean(datagen::MakeUniform(kCardinality, kDims, 42));
  SimilarityEngine faulty(datagen::MakeUniform(kCardinality, kDims, 42));
  FaultInjector injector(FaultInjector::Config{
      .seed = 7, .transient_error_rate = 0.01, .corruption_rate = 0.001});
  faulty.SetFaultInjector(&injector);

  // Midway through, a deterministic mechanical failure takes out one
  // row page and one column page on top of the random schedule.
  const auto stats = faulty.DiskStorageStats();
  ASSERT_GT(stats.row_pages, 2u);
  ASSERT_GT(stats.column_pages, 2u);

  Rng rng(99);
  size_t degraded = 0;
  for (int qi = 0; qi < kQueries; ++qi) {
    if (qi == kQueries / 2) {
      injector.CorruptPage(2);                   // a row-store page
      injector.CorruptPage(stats.row_pages + 1);  // a column page
    }
    std::vector<Value> q(kDims);
    for (size_t d = 0; d < kDims; ++d) q[d] = rng.Uniform(0.0, 1.0);

    auto expected = clean.DiskFrequentKnMatch(q, 2, 4, 5, DiskMethod::kScan);
    ASSERT_TRUE(expected.ok());

    // kAuto must always answer (the in-memory terminal fallback cannot
    // fail), and the answer must be bit-identical to the healthy run.
    SimilarityEngine::DiskReport report;
    auto got = faulty.DiskFrequentKnMatch(q, 2, 4, 5, DiskMethod::kAuto,
                                          nullptr, &report);
    ASSERT_TRUE(got.ok()) << "query " << qi << ": "
                          << got.status().ToString();
    ASSERT_EQ(got.value().matches, expected.value().matches) << "query " << qi;
    ASSERT_EQ(got.value().frequencies, expected.value().frequencies)
        << "query " << qi;
    ASSERT_EQ(got.value().per_n_sets, expected.value().per_n_sets)
        << "query " << qi;
    if (!report.fallback.empty()) ++degraded;
  }
  // The schedule genuinely fired.
  EXPECT_GT(injector.transient_faults_injected(), 0u);
  EXPECT_GT(injector.corruptions_injected(), 0u);
  EXPECT_GT(degraded, 0u);

  // Operator swaps the disk: faults cleared, quarantines lifted. The
  // stored images were never touched, so every query must now run
  // undegraded and still bit-identical.
  faulty.ClearFaults();
  EXPECT_EQ(faulty.disk_simulator()->quarantined_pages(), 0u);
  for (int qi = 0; qi < 200; ++qi) {
    std::vector<Value> q(kDims);
    for (size_t d = 0; d < kDims; ++d) q[d] = rng.Uniform(0.0, 1.0);
    auto expected = clean.DiskFrequentKnMatch(q, 2, 4, 5, DiskMethod::kScan);
    ASSERT_TRUE(expected.ok());
    SimilarityEngine::DiskReport report;
    auto got = faulty.DiskFrequentKnMatch(q, 2, 4, 5, DiskMethod::kAuto,
                                          nullptr, &report);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(report.fallback.empty()) << "query " << qi;
    ASSERT_EQ(got.value().matches, expected.value().matches);
    ASSERT_EQ(got.value().per_n_sets, expected.value().per_n_sets);
  }
}

}  // namespace
}  // namespace knmatch
