#include "knmatch/storage/ingest.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "knmatch/cache/query_cache.h"
#include "knmatch/common/random.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/diskalgo/btree_ad.h"
#include "knmatch/engine.h"
#include "knmatch/obs/catalog.h"
#include "knmatch/storage/fault_injector.h"
#include "status_matchers.h"

namespace knmatch {
namespace {

using CrashPoint = FaultInjector::CrashPoint;

/// A quiesced reference: one bulk-loaded tree per dimension over an
/// explicit row set, frozen into SnapshotColumns. Live answers must be
/// bit-identical to this.
struct Mirror {
  DiskSimulator disk;
  std::vector<std::unique_ptr<BPlusTree>> trees;
  size_t pid_bound = 0;

  explicit Mirror(
      const std::unordered_map<PointId, std::vector<Value>>& rows,
      size_t dims) {
    std::vector<ColumnEntry> column;
    column.reserve(rows.size());
    for (size_t dim = 0; dim < dims; ++dim) {
      column.clear();
      for (const auto& [pid, coords] : rows) {
        column.push_back(ColumnEntry{coords[dim], pid});
        pid_bound = std::max<size_t>(pid_bound, pid + 1);
      }
      std::sort(column.begin(), column.end(),
                [](const ColumnEntry& a, const ColumnEntry& b) {
                  if (a.value != b.value) return a.value < b.value;
                  return a.pid < b.pid;
                });
      auto tree = std::make_unique<BPlusTree>(&disk);
      tree->BulkLoad(column);
      trees.push_back(std::move(tree));
    }
  }

  SnapshotColumns Freeze() {
    std::vector<BPlusTree::Snapshot> snaps;
    snaps.reserve(trees.size());
    for (auto& tree : trees) snaps.push_back(tree->CreateSnapshot());
    return SnapshotColumns(std::move(snaps), pid_bound);
  }
};

std::unordered_map<PointId, std::vector<Value>> RowsOf(const Dataset& db) {
  std::unordered_map<PointId, std::vector<Value>> rows;
  rows.reserve(db.size());
  for (size_t pid = 0; pid < db.size(); ++pid) {
    const auto p = db.point(static_cast<PointId>(pid));
    rows.emplace(static_cast<PointId>(pid),
                 std::vector<Value>(p.begin(), p.end()));
  }
  return rows;
}

std::vector<std::vector<Value>> TestQueries(size_t dims, size_t count,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Value>> queries(count);
  for (auto& q : queries) {
    q.resize(dims);
    for (auto& v : q) v = rng.Uniform01();
  }
  return queries;
}

SnapshotColumns FreezeLive(const LiveColumnIndex& live) {
  const auto snap = live.PinSnapshot();
  return SnapshotColumns(snap->trees, snap->pid_bound);
}

/// Bit-identical answer check (pids, differences, attribute counts) for
/// both query types over every test query.
void ExpectSameAnswers(const SnapshotColumns& got,
                       const SnapshotColumns& want,
                       std::span<const std::vector<Value>> queries,
                       size_t k) {
  ASSERT_EQ(got.column_size(), want.column_size());
  const size_t dims = got.dims();
  const size_t n = dims >= 2 ? dims - 1 : 1;  // n <= d required
  for (const auto& q : queries) {
    auto a = SnapshotAdSearcher(got).KnMatch(q, n, k);
    auto b = SnapshotAdSearcher(want).KnMatch(q, n, k);
    ASSERT_TRUE(StatusIs(a, StatusCode::kOk));
    ASSERT_TRUE(StatusIs(b, StatusCode::kOk));
    EXPECT_EQ(a.value().matches, b.value().matches);
    EXPECT_EQ(a.value().attributes_retrieved,
              b.value().attributes_retrieved);

    auto fa = SnapshotAdSearcher(got).FrequentKnMatch(q, 1, dims, k);
    auto fb = SnapshotAdSearcher(want).FrequentKnMatch(q, 1, dims, k);
    ASSERT_TRUE(StatusIs(fa, StatusCode::kOk));
    ASSERT_TRUE(StatusIs(fb, StatusCode::kOk));
    EXPECT_EQ(fa.value().matches, fb.value().matches);
    EXPECT_EQ(fa.value().frequencies, fb.value().frequencies);
  }
}

TEST(LiveColumnIndexTest, InsertEraseAndSnapshotMatchQuiescedMirror) {
  const Dataset base = datagen::MakeUniform(300, 3, 21);
  DiskSimulator disk;
  LiveColumnIndex live(base, &disk);
  EXPECT_EQ(live.live_size(), 300u);
  EXPECT_EQ(live.epoch(), 1u);

  auto rows = RowsOf(base);
  Rng rng(77);
  for (PointId pid = 300; pid < 320; ++pid) {
    std::vector<Value> coords(3);
    for (auto& v : coords) v = rng.Uniform01();
    ASSERT_TRUE(StatusIs(live.Insert(pid, coords), StatusCode::kOk));
    rows[pid] = coords;
  }
  for (PointId pid = 0; pid < 30; pid += 3) {
    auto erased = live.Erase(pid);
    ASSERT_TRUE(StatusIs(erased, StatusCode::kOk));
    EXPECT_TRUE(erased.value());
    rows.erase(pid);
  }
  EXPECT_EQ(live.live_size(), rows.size());
  EXPECT_EQ(live.epoch(), 31u);  // 30 committed ops, one epoch each

  Mirror mirror(rows, 3);
  const auto queries = TestQueries(3, 6, 5);
  ExpectSameAnswers(FreezeLive(live), mirror.Freeze(), queries, 6);

  // Not-live points are refused / reported absent.
  EXPECT_FALSE(live.Erase(0).value());
  EXPECT_TRUE(StatusIs(live.Insert(5, std::vector<Value>(3, 0.5)),
                       StatusCode::kInvalidArgument));
  EXPECT_TRUE(StatusIs(live.CoordsOf(0), StatusCode::kNotFound));
}

TEST(LiveColumnIndexTest, BulkLoadPagesMatchTheComparatorSort) {
  // Duplicate-heavy values with signed zeros: ties span leaves, and
  // −0.0 and +0.0 tie by pid while each keeps its sign in the pages.
  constexpr size_t kRows = 1200;
  constexpr size_t kDims = 3;
  Matrix m(kRows, kDims);
  Rng rng(23);
  for (size_t row = 0; row < kRows; ++row) {
    for (size_t dim = 0; dim < kDims; ++dim) {
      const uint64_t r = rng.UniformInt(6);
      m.at(row, dim) = r == 0   ? -0.0
                       : r == 1 ? 0.0
                                : Value(rng.UniformInt(8)) / 8.0;
    }
  }
  const Dataset base(std::move(m));
  DiskSimulator disk;
  const LiveColumnIndex live(base, &disk);

  DiskSimulator reference_disk;
  for (size_t dim = 0; dim < kDims; ++dim) {
    std::vector<ColumnEntry> column;
    for (PointId pid = 0; pid < kRows; ++pid) {
      column.push_back(ColumnEntry{base.at(pid, dim), pid});
    }
    std::sort(column.begin(), column.end(),
              [](const ColumnEntry& a, const ColumnEntry& b) {
                if (a.value != b.value) return a.value < b.value;
                return a.pid < b.pid;
              });
    BPlusTree reference(&reference_disk);
    reference.BulkLoad(column);

    const BPlusTree& tree = live.tree(dim);
    ASSERT_EQ(tree.num_nodes(), reference.num_nodes()) << "dim " << dim;
    EXPECT_EQ(tree.SerializeMeta(), reference.SerializeMeta())
        << "dim " << dim;
    for (uint32_t slot = 0; slot < tree.num_nodes(); ++slot) {
      EXPECT_EQ(tree.SerializeNode(slot), reference.SerializeNode(slot))
          << "dim " << dim << " slot " << slot;
    }
  }
}

TEST(LiveColumnIndexTest, PinnedSnapshotIsImmuneToLaterWrites) {
  const Dataset base = datagen::MakeUniform(200, 2, 22);
  DiskSimulator disk;
  LiveColumnIndex live(base, &disk);
  const auto queries = TestQueries(2, 4, 9);

  const auto pinned = live.PinSnapshot();
  SnapshotColumns before(pinned->trees, pinned->pid_bound);
  std::vector<std::vector<Neighbor>> answers;
  for (const auto& q : queries) {
    answers.push_back(
        SnapshotAdSearcher(before).KnMatch(q, 2, 5).value().matches);
  }

  Rng rng(13);
  for (PointId pid = 200; pid < 260; ++pid) {
    std::vector<Value> coords{rng.Uniform01(), rng.Uniform01()};
    ASSERT_TRUE(StatusIs(live.Insert(pid, coords), StatusCode::kOk));
  }
  EXPECT_EQ(pinned->epoch, 1u);
  EXPECT_EQ(live.epoch(), 61u);

  SnapshotColumns after(pinned->trees, pinned->pid_bound);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(
        SnapshotAdSearcher(after).KnMatch(queries[i], 2, 5).value().matches,
        answers[i]);
  }
}

TEST(LiveColumnIndexTest, GroupCommitPublishesOnlyWhenTheWindowFills) {
  const Dataset base = datagen::MakeUniform(100, 2, 23);
  DiskSimulator disk;
  LiveColumnIndex live(base, &disk,
                       LiveColumnIndex::Config{/*group_commit_window=*/3});
  const uint64_t epoch0 = live.epoch();

  Rng rng(31);
  for (PointId pid = 100; pid < 102; ++pid) {
    std::vector<Value> coords{rng.Uniform01(), rng.Uniform01()};
    ASSERT_TRUE(StatusIs(live.Insert(pid, coords), StatusCode::kOk));
  }
  // Applied but unpublished: readers still see the old epoch and size.
  EXPECT_EQ(live.pending_ops(), 2u);
  EXPECT_EQ(live.epoch(), epoch0);
  EXPECT_EQ(live.live_size(), 100u);
  EXPECT_EQ(live.committed_ops().size(), 0u);

  std::vector<Value> coords{rng.Uniform01(), rng.Uniform01()};
  ASSERT_TRUE(StatusIs(live.Insert(102, coords), StatusCode::kOk));
  EXPECT_EQ(live.pending_ops(), 0u);
  EXPECT_EQ(live.epoch(), epoch0 + 1);
  EXPECT_EQ(live.live_size(), 103u);
  EXPECT_EQ(live.committed_ops().size(), 3u);

  // Flush publishes a partial window.
  ASSERT_TRUE(StatusIs(live.Insert(103, coords), StatusCode::kOk));
  EXPECT_EQ(live.pending_ops(), 1u);
  ASSERT_TRUE(StatusIs(live.Flush(), StatusCode::kOk));
  EXPECT_EQ(live.pending_ops(), 0u);
  EXPECT_EQ(live.live_size(), 104u);
}

/// Captures MutationListener callbacks (satellite regression: under the
/// live index they must arrive only after commit durability).
struct RecordingListener : BPlusTree::MutationListener {
  std::vector<std::pair<bool, ColumnEntry>> events;
  void OnInsert(const ColumnEntry& entry) override {
    events.emplace_back(true, entry);
  }
  void OnErase(const ColumnEntry& entry) override {
    events.emplace_back(false, entry);
  }
};

TEST(LiveColumnIndexTest, ListenersFireOnlyAfterCommitDurability) {
  const Dataset base = datagen::MakeUniform(50, 2, 24);
  DiskSimulator disk;
  LiveColumnIndex live(base, &disk,
                       LiveColumnIndex::Config{/*group_commit_window=*/2});
  RecordingListener listener;
  live.tree(0).set_mutation_listener(&listener);

  ASSERT_TRUE(
      StatusIs(live.Insert(50, std::vector<Value>{0.1, 0.2}),
               StatusCode::kOk));
  EXPECT_TRUE(listener.events.empty());  // applied, not yet durable

  ASSERT_TRUE(
      StatusIs(live.Insert(51, std::vector<Value>{0.3, 0.4}),
               StatusCode::kOk));
  ASSERT_EQ(listener.events.size(), 2u);  // window synced: both fire
  EXPECT_TRUE(listener.events[0].first);
  EXPECT_EQ(listener.events[0].second.pid, 50u);
  EXPECT_EQ(listener.events[1].second.pid, 51u);

  auto erased = live.Erase(50);
  ASSERT_TRUE(StatusIs(erased, StatusCode::kOk));
  EXPECT_EQ(listener.events.size(), 2u);  // pending again
  ASSERT_TRUE(StatusIs(live.Flush(), StatusCode::kOk));
  ASSERT_EQ(listener.events.size(), 3u);
  EXPECT_FALSE(listener.events[2].first);
  EXPECT_EQ(listener.events[2].second.pid, 50u);
}

TEST(LiveColumnIndexTest, ListenersNeverFireForACrashDiscardedTxn) {
  const Dataset base = datagen::MakeUniform(50, 2, 25);
  DiskSimulator disk;
  LiveColumnIndex live(base, &disk,
                       LiveColumnIndex::Config{/*group_commit_window=*/4});
  FaultInjector injector;
  live.set_fault_injector(&injector);
  RecordingListener listener;
  live.tree(0).set_mutation_listener(&listener);

  ASSERT_TRUE(
      StatusIs(live.Insert(50, std::vector<Value>{0.1, 0.2}),
               StatusCode::kOk));
  injector.ScheduleCrash(CrashPoint::kMidFsync);
  EXPECT_TRUE(StatusIs(live.Flush(), StatusCode::kUnavailable));
  ASSERT_TRUE(live.crashed());

  ASSERT_TRUE(StatusIs(live.Recover(), StatusCode::kOk));
  EXPECT_TRUE(listener.events.empty());  // the txn never became durable
  EXPECT_EQ(live.committed_ops().size(), 0u);
  EXPECT_EQ(live.live_size(), 50u);

  // The listener survives recovery: the retried insert notifies.
  ASSERT_TRUE(
      StatusIs(live.Insert(50, std::vector<Value>{0.1, 0.2}),
               StatusCode::kOk));
  ASSERT_TRUE(StatusIs(live.Flush(), StatusCode::kOk));
  ASSERT_EQ(listener.events.size(), 1u);
  EXPECT_EQ(listener.events[0].second.pid, 50u);
}

// ---------------------------------------------------------------------
// Crash-recovery matrix: kill the writer at every crash point and prove
// recovery lands bit-identically on the pre- or post-transaction state.
// ---------------------------------------------------------------------

constexpr size_t kScenarioInserts = 10;
constexpr size_t kScenarioOps = 15;

std::vector<Value> OpCoords(size_t k, size_t dims) {
  Rng rng(1000 + k);
  std::vector<Value> coords(dims);
  for (auto& v : coords) v = rng.Uniform01();
  return coords;
}

/// Applies scripted op `k` to `rows` (the quiesced reference) — must
/// mirror ApplyOp exactly.
void ApplyOpToRows(size_t k,
                   std::unordered_map<PointId, std::vector<Value>>* rows) {
  if (k < kScenarioInserts) {
    (*rows)[static_cast<PointId>(400 + k)] = OpCoords(k, 2);
  } else {
    rows->erase(static_cast<PointId>((k - kScenarioInserts) * 3));
  }
}

Status ApplyOp(LiveColumnIndex& live, size_t k) {
  if (k < kScenarioInserts) {
    return live.Insert(static_cast<PointId>(400 + k), OpCoords(k, 2));
  }
  auto erased = live.Erase(static_cast<PointId>((k - kScenarioInserts) * 3));
  if (!erased.ok()) return erased.status();
  EXPECT_TRUE(erased.value());
  return Status::OK();
}

/// Runs the scripted scenario with a crash scheduled at (point, nth),
/// recovers, and differentially checks the recovered state against a
/// quiesced mirror of the expected committed prefix.
///
/// `survives`: whether the in-flight transaction must be present after
/// recovery (kAfterFsync: commit durable, publication lost). For the
/// checkpoint-only points the crash fires after all ops committed.
void RunCrashScenario(CrashPoint point, uint32_t nth, bool survives,
                      bool fires_in_checkpoint) {
  SCOPED_TRACE(testing::Message()
               << "point=" << static_cast<int>(point) << " nth=" << nth);
  const Dataset base = datagen::MakeUniform(400, 2, 11);
  DiskSimulator disk;
  LiveColumnIndex live(base, &disk);
  FaultInjector injector;
  live.set_fault_injector(&injector);
  injector.ScheduleCrash(point, nth);

  size_t applied = 0;
  for (size_t k = 0; k < kScenarioOps; ++k) {
    Status s = ApplyOp(live, k);
    if (!s.ok()) {
      ASSERT_TRUE(StatusIs(s, StatusCode::kUnavailable));
      ASSERT_TRUE(live.crashed());
      break;
    }
    ++applied;
  }
  if (fires_in_checkpoint) {
    ASSERT_EQ(applied, kScenarioOps);
    ASSERT_FALSE(live.crashed());
    EXPECT_TRUE(StatusIs(live.Checkpoint(), StatusCode::kUnavailable));
    ASSERT_TRUE(live.crashed());
  } else {
    ASSERT_LT(applied, kScenarioOps) << "crash never fired";
  }
  EXPECT_EQ(injector.crashes_delivered(), 1u);

  // Mutations are refused until recovery.
  EXPECT_TRUE(StatusIs(live.Insert(900, std::vector<Value>(2, 0.5)),
                       StatusCode::kFailedPrecondition));

  ASSERT_TRUE(StatusIs(live.Recover(), StatusCode::kOk));
  EXPECT_FALSE(live.crashed());

  const size_t expected = fires_in_checkpoint ? kScenarioOps
                          : survives         ? applied + 1
                                             : applied;
  EXPECT_EQ(live.committed_ops().size(), expected);

  auto rows = RowsOf(base);
  for (size_t k = 0; k < expected; ++k) ApplyOpToRows(k, &rows);
  EXPECT_EQ(live.live_size(), rows.size());
  for (size_t dim = 0; dim < 2; ++dim) {
    EXPECT_TRUE(StatusIs(live.tree(dim).CheckInvariants(), StatusCode::kOk));
  }
  const auto queries = TestQueries(2, 5, 3);
  {
    Mirror mirror(rows, 2);
    ExpectSameAnswers(FreezeLive(live), mirror.Freeze(), queries, 6);
  }

  // The recovered index is fully operational: more mutations, another
  // checkpoint, and the differential still holds.
  Rng rng(500);
  for (PointId pid = 600; pid < 603; ++pid) {
    std::vector<Value> coords{rng.Uniform01(), rng.Uniform01()};
    ASSERT_TRUE(StatusIs(live.Insert(pid, coords), StatusCode::kOk));
    rows[pid] = coords;
  }
  auto erased = live.Erase(601);
  ASSERT_TRUE(StatusIs(erased, StatusCode::kOk));
  rows.erase(601);
  ASSERT_TRUE(StatusIs(live.Checkpoint(), StatusCode::kOk));
  EXPECT_EQ(live.live_size(), rows.size());
  {
    Mirror mirror(rows, 2);
    ExpectSameAnswers(FreezeLive(live), mirror.Freeze(), queries, 6);
  }
}

TEST(CrashMatrixTest, AfterWalAppendLosesTheInFlightTxn) {
  RunCrashScenario(CrashPoint::kAfterWalAppend, 1, false, false);
  RunCrashScenario(CrashPoint::kAfterWalAppend, 12, false, false);
}

TEST(CrashMatrixTest, AfterCommitAppendLosesTheInFlightTxn) {
  RunCrashScenario(CrashPoint::kAfterCommitAppend, 1, false, false);
  RunCrashScenario(CrashPoint::kAfterCommitAppend, 12, false, false);
}

TEST(CrashMatrixTest, MidFsyncTearsAndDiscardsTheInFlightTxn) {
  RunCrashScenario(CrashPoint::kMidFsync, 1, false, false);
  RunCrashScenario(CrashPoint::kMidFsync, 12, false, false);
}

TEST(CrashMatrixTest, AfterFsyncKeepsTheDurableUnpublishedTxn) {
  RunCrashScenario(CrashPoint::kAfterFsync, 1, true, false);
  RunCrashScenario(CrashPoint::kAfterFsync, 12, true, false);
}

TEST(CrashMatrixTest, MidPageFlushTearsAPageTheWalRestores) {
  RunCrashScenario(CrashPoint::kMidPageFlush, 1, false, true);
  RunCrashScenario(CrashPoint::kMidPageFlush, 3, false, true);
}

TEST(CrashMatrixTest, AfterPageFlushLosesNothing) {
  RunCrashScenario(CrashPoint::kAfterPageFlush, 1, false, true);
  RunCrashScenario(CrashPoint::kAfterPageFlush, 3, false, true);
}

TEST(CrashMatrixTest, MidCheckpointFsyncKeepsThePriorCheckpointUsable) {
  RunCrashScenario(CrashPoint::kMidCheckpoint, 1, false, true);
}

TEST(CrashMatrixTest, HealthyRecoveryDrillIsLossless) {
  const Dataset base = datagen::MakeUniform(400, 2, 11);
  DiskSimulator disk;
  LiveColumnIndex live(base, &disk);
  auto rows = RowsOf(base);
  for (size_t k = 0; k < kScenarioOps; ++k) {
    ASSERT_TRUE(StatusIs(ApplyOp(live, k), StatusCode::kOk));
    ApplyOpToRows(k, &rows);
  }
  ASSERT_TRUE(StatusIs(live.Recover(), StatusCode::kOk));
  EXPECT_EQ(live.committed_ops().size(), kScenarioOps);
  EXPECT_EQ(live.live_size(), rows.size());
  Mirror mirror(rows, 2);
  ExpectSameAnswers(FreezeLive(live), mirror.Freeze(),
                    TestQueries(2, 5, 3), 6);
}

TEST(CrashMatrixTest, RecoversAcrossReclaimedNodeSlots) {
  // Mass erases reclaim whole leaves (and their parents); a crash in
  // the next transaction must recover across the freed slots.
  const Dataset base = datagen::MakeUniform(1500, 2, 41);
  DiskSimulator disk;
  LiveColumnIndex live(base, &disk);
  auto rows = RowsOf(base);
  // Erase in ascending dimension-0 order so whole leaves of tree 0
  // empty out and get reclaimed.
  std::vector<PointId> by_value(1500);
  for (PointId pid = 0; pid < 1500; ++pid) by_value[pid] = pid;
  std::sort(by_value.begin(), by_value.end(),
            [&base](PointId a, PointId b) {
              return base.at(a, 0) < base.at(b, 0);
            });
  for (size_t i = 0; i < 1200; ++i) {
    auto erased = live.Erase(by_value[i]);
    ASSERT_TRUE(StatusIs(erased, StatusCode::kOk));
    ASSERT_TRUE(erased.value());
    rows.erase(by_value[i]);
  }
  EXPECT_GT(live.free_slots(), 0u);

  FaultInjector injector;
  live.set_fault_injector(&injector);
  injector.ScheduleCrash(CrashPoint::kAfterCommitAppend);
  EXPECT_TRUE(StatusIs(live.Insert(2000, std::vector<Value>{0.5, 0.5}),
                       StatusCode::kUnavailable));
  ASSERT_TRUE(StatusIs(live.Recover(), StatusCode::kOk));

  EXPECT_EQ(live.live_size(), rows.size());
  for (size_t dim = 0; dim < 2; ++dim) {
    EXPECT_TRUE(StatusIs(live.tree(dim).CheckInvariants(), StatusCode::kOk));
  }
  Mirror mirror(rows, 2);
  ExpectSameAnswers(FreezeLive(live), mirror.Freeze(),
                    TestQueries(2, 5, 8), 6);

  // Freed slots are reused, not leaked: refilling does not grow the
  // node count past what the full tree ever needed.
  const size_t nodes_before = live.tree(0).num_nodes();
  Rng rng(43);
  for (PointId pid = 2000; pid < 2300; ++pid) {
    std::vector<Value> coords{rng.Uniform01(), rng.Uniform01()};
    ASSERT_TRUE(StatusIs(live.Insert(pid, coords), StatusCode::kOk));
  }
  EXPECT_EQ(live.tree(0).num_nodes(), nodes_before);
}

TEST(CrashMatrixTest, SurvivesBackToBackCrashes) {
  const Dataset base = datagen::MakeUniform(200, 2, 51);
  DiskSimulator disk;
  LiveColumnIndex live(base, &disk);
  FaultInjector injector;
  live.set_fault_injector(&injector);
  auto rows = RowsOf(base);

  injector.ScheduleCrash(CrashPoint::kAfterWalAppend);
  EXPECT_TRUE(StatusIs(live.Insert(200, std::vector<Value>{0.1, 0.9}),
                       StatusCode::kUnavailable));
  ASSERT_TRUE(StatusIs(live.Recover(), StatusCode::kOk));

  ASSERT_TRUE(StatusIs(live.Insert(200, std::vector<Value>{0.1, 0.9}),
                       StatusCode::kOk));
  rows[200] = {0.1, 0.9};

  injector.ScheduleCrash(CrashPoint::kMidPageFlush, 2);
  EXPECT_TRUE(StatusIs(live.Checkpoint(), StatusCode::kUnavailable));
  ASSERT_TRUE(StatusIs(live.Recover(), StatusCode::kOk));

  EXPECT_EQ(live.live_size(), rows.size());
  Mirror mirror(rows, 2);
  ExpectSameAnswers(FreezeLive(live), mirror.Freeze(),
                    TestQueries(2, 4, 6), 5);
}

// ---------------------------------------------------------------------
// Observability: the catalog's WAL/ingest metrics must equal the
// engine-side stats they mirror.
// ---------------------------------------------------------------------

TEST(IngestObsTest, CatalogMetricsMatchWalStats) {
  const uint64_t appends0 = obs::Cat().wal_appends->Value();
  const uint64_t commits0 = obs::Cat().wal_commits->Value();
  const uint64_t fsyncs0 = obs::Cat().wal_fsyncs->Value();
  const uint64_t checkpoints0 = obs::Cat().wal_checkpoints->Value();
  const uint64_t txns0 = obs::Cat().ingest_txns->Value();

  const Dataset base = datagen::MakeUniform(100, 2, 61);
  DiskSimulator disk;
  LiveColumnIndex live(base, &disk);
  Rng rng(62);
  for (PointId pid = 100; pid < 120; ++pid) {
    std::vector<Value> coords{rng.Uniform01(), rng.Uniform01()};
    ASSERT_TRUE(StatusIs(live.Insert(pid, coords), StatusCode::kOk));
  }
  ASSERT_TRUE(StatusIs(live.Checkpoint(), StatusCode::kOk));

  const WriteAheadLog::Stats st = live.wal().stats();
  EXPECT_EQ(obs::Cat().wal_appends->Value() - appends0, st.appends);
  EXPECT_EQ(obs::Cat().wal_commits->Value() - commits0, st.commits);
  EXPECT_EQ(obs::Cat().wal_fsyncs->Value() - fsyncs0, st.fsyncs);
  EXPECT_EQ(obs::Cat().wal_checkpoints->Value() - checkpoints0,
            st.checkpoints);
  EXPECT_EQ(obs::Cat().ingest_txns->Value() - txns0, 20u);
  EXPECT_EQ(obs::Cat().snapshot_epoch->Value(),
            static_cast<int64_t>(live.epoch()));
  EXPECT_EQ(obs::Cat().ingest_free_slots->Value(),
            static_cast<int64_t>(live.free_slots()));
}

TEST(IngestObsTest, RecoveryCountersTrackReplayAndDiscard) {
  const uint64_t recoveries0 = obs::Cat().recoveries->Value();
  const uint64_t discarded0 = obs::Cat().recovery_discarded_txns->Value();

  const Dataset base = datagen::MakeUniform(100, 2, 63);
  DiskSimulator disk;
  LiveColumnIndex live(base, &disk);
  FaultInjector injector;
  live.set_fault_injector(&injector);
  injector.ScheduleCrash(CrashPoint::kMidFsync);
  EXPECT_TRUE(StatusIs(live.Insert(100, std::vector<Value>{0.2, 0.8}),
                       StatusCode::kUnavailable));
  ASSERT_TRUE(StatusIs(live.Recover(), StatusCode::kOk));

  EXPECT_EQ(obs::Cat().recoveries->Value() - recoveries0, 1u);
  EXPECT_EQ(obs::Cat().recovery_discarded_txns->Value() - discarded0, 1u);
}

// ---------------------------------------------------------------------
// Engine facade.
// ---------------------------------------------------------------------

TEST(EngineIngestTest, LifecycleIngestQueryMaterialize) {
  SimilarityEngine engine(datagen::MakeUniform(200, 3, 71));
  EXPECT_FALSE(engine.ingest_active());
  EXPECT_TRUE(StatusIs(engine.IngestPoint(std::vector<Value>(3, 0.5)),
                       StatusCode::kFailedPrecondition));

  ASSERT_TRUE(StatusIs(engine.BeginIngest(), StatusCode::kOk));
  EXPECT_TRUE(engine.ingest_active());
  EXPECT_TRUE(StatusIs(engine.BeginIngest(), StatusCode::kFailedPrecondition));

  Rng rng(72);
  for (int i = 0; i < 5; ++i) {
    std::vector<Value> coords(3);
    for (auto& v : coords) v = rng.Uniform01();
    auto pid = engine.IngestPoint(coords);
    ASSERT_TRUE(StatusIs(pid, StatusCode::kOk));
    EXPECT_EQ(pid.value(), 200u + static_cast<PointId>(i));
  }
  auto erased = engine.ErasePoint(0);
  ASSERT_TRUE(StatusIs(erased, StatusCode::kOk));
  EXPECT_TRUE(erased.value());

  // The classic path still answers over the base dataset...
  EXPECT_EQ(engine.dataset().size(), 200u);
  auto classic = engine.KnMatch(std::vector<Value>(3, 0.5), 3, 5);
  ASSERT_TRUE(StatusIs(classic, StatusCode::kOk));

  // ...while the live path answers over the committed live state,
  // bit-identically to a quiesced mirror of it.
  const LiveColumnIndex* live = engine.live_index();
  ASSERT_NE(live, nullptr);
  std::unordered_map<PointId, std::vector<Value>> rows;
  for (const PointId pid : live->LivePids()) {
    rows[pid] = live->CoordsOf(pid).value();
  }
  EXPECT_EQ(rows.size(), 204u);
  Mirror mirror(rows, 3);
  SnapshotColumns want = mirror.Freeze();
  for (const auto& q : TestQueries(3, 4, 73)) {
    auto got = engine.LiveKnMatch(q, 3, 5);
    auto ref = SnapshotAdSearcher(want).KnMatch(q, 3, 5);
    ASSERT_TRUE(StatusIs(got, StatusCode::kOk));
    EXPECT_EQ(got.value().matches, ref.value().matches);
    auto fgot = engine.LiveFrequentKnMatch(q, 2, 3, 5);
    auto fref = SnapshotAdSearcher(want).FrequentKnMatch(q, 2, 3, 5);
    ASSERT_TRUE(StatusIs(fgot, StatusCode::kOk));
    EXPECT_EQ(fgot.value().matches, fref.value().matches);
  }

  // EndIngest materializes: 200 + 5 - 1 rows, ids remapped to 0..203.
  ASSERT_TRUE(StatusIs(engine.EndIngest(), StatusCode::kOk));
  EXPECT_FALSE(engine.ingest_active());
  EXPECT_EQ(engine.dataset().size(), 204u);
  auto after = engine.KnMatch(std::vector<Value>(3, 0.5), 3, 5);
  ASSERT_TRUE(StatusIs(after, StatusCode::kOk));
  for (const Neighbor& nb : after.value().matches) {
    EXPECT_LT(nb.pid, 204u);
  }
}

TEST(EngineIngestTest, IngestCostStaysFlatWithoutACheckpoint) {
  // The WAL grows with every op until a checkpoint truncates it. An
  // append that copied the whole log would make each op cost more than
  // the last; a ratio of means holds on a noisy host where absolute
  // times do not.
  SimilarityEngine engine(datagen::MakeUniform(2000, 8, 91));
  ASSERT_TRUE(StatusIs(engine.BeginIngest(), StatusCode::kOk));
  constexpr size_t kOps = 256;
  constexpr size_t kWindow = 32;
  Rng rng(92);
  std::vector<double> op_ms;
  std::vector<Value> coords(8);
  for (size_t i = 0; i < kOps; ++i) {
    for (Value& v : coords) v = rng.Uniform01();
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(StatusIs(engine.IngestPoint(coords), StatusCode::kOk));
    op_ms.push_back(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  }
  const double first =
      std::accumulate(op_ms.begin(), op_ms.begin() + kWindow, 0.0) / kWindow;
  const double last =
      std::accumulate(op_ms.end() - kWindow, op_ms.end(), 0.0) / kWindow;
  EXPECT_LE(last, 4 * first) << "first " << kWindow << " ops " << first
                             << " ms each, last " << last << " ms each";
  ASSERT_TRUE(StatusIs(engine.EndIngest(), StatusCode::kOk));
}

TEST(EngineIngestTest, LiveQueriesReleaseTheirStreams) {
  // A live query holds 2d cursor streams and one locate stream, and a
  // writer op one descent stream per tree; all are released when done,
  // so stream ids stay below a bound no matter how many queries ran.
  constexpr size_t kDims = 6;
  SimilarityEngine engine(datagen::MakeUniform(800, kDims, 95));
  ASSERT_TRUE(StatusIs(engine.BeginIngest(), StatusCode::kOk));
  Rng rng(96);
  std::vector<Value> coords(kDims);
  const auto queries = TestQueries(kDims, 16, 97);
  for (size_t i = 0; i < 1000; ++i) {
    if (i % 10 == 0) {
      for (Value& v : coords) v = rng.Uniform01();
      ASSERT_TRUE(StatusIs(engine.IngestPoint(coords), StatusCode::kOk));
      ASSERT_TRUE(StatusIs(engine.ErasePoint(static_cast<PointId>(i)),
                           StatusCode::kOk));
    }
    const auto& q = queries[i % queries.size()];
    if (i % 2 == 0) {
      ASSERT_TRUE(StatusIs(engine.LiveKnMatch(q, 3, 5), StatusCode::kOk));
    } else {
      ASSERT_TRUE(StatusIs(engine.LiveFrequentKnMatch(q, 2, 4, 5),
                           StatusCode::kOk));
    }
  }
  const DiskStream probe = engine.live_index()->tree(0).OpenStream();
  EXPECT_LT(probe.id(), 4 * kDims + 8);
}

TEST(EngineIngestTest, CacheInvalidationWaitsForCommitDurability) {
  SimilarityEngine engine(datagen::MakeUniform(100, 2, 81));
  engine.EnableCache(cache::CacheConfig{});
  const std::vector<Value> q{0.42, 0.42};
  ASSERT_TRUE(StatusIs(engine.KnMatch(q, 2, 3), StatusCode::kOk));
  ASSERT_TRUE(StatusIs(engine.KnMatch(q, 2, 3), StatusCode::kOk));
  ASSERT_GE(engine.cache()->Stats().hits, 1u);

  SimilarityEngine::IngestConfig config;
  config.group_commit_window = 2;
  ASSERT_TRUE(StatusIs(engine.BeginIngest(config), StatusCode::kOk));

  // A point that would certainly enter the cached answer, applied but
  // not yet durable: the entry must stay.
  const uint64_t invalidated0 = engine.cache()->Stats().invalidated_insert;
  ASSERT_TRUE(StatusIs(engine.IngestPoint(q), StatusCode::kOk));
  EXPECT_EQ(engine.cache()->Stats().invalidated_insert, invalidated0);

  // The second insert fills the window; both commits become durable and
  // only now does the bridge invalidate.
  ASSERT_TRUE(StatusIs(engine.IngestPoint(std::vector<Value>{0.9, 0.9}),
                       StatusCode::kOk));
  EXPECT_GT(engine.cache()->Stats().invalidated_insert, invalidated0);
}

TEST(EngineIngestTest, RecoverBumpsTheCacheEpoch) {
  SimilarityEngine engine(datagen::MakeUniform(100, 2, 82));
  engine.EnableCache(cache::CacheConfig{});
  const std::vector<Value> q{0.3, 0.7};
  ASSERT_TRUE(StatusIs(engine.KnMatch(q, 2, 3), StatusCode::kOk));
  ASSERT_TRUE(StatusIs(engine.KnMatch(q, 2, 3), StatusCode::kOk));
  const auto warm = engine.cache()->Stats();
  ASSERT_GE(warm.hits, 1u);

  FaultInjector injector;
  engine.SetFaultInjector(&injector);
  ASSERT_TRUE(StatusIs(engine.BeginIngest(), StatusCode::kOk));

  const uint64_t epoch0 = engine.cache_epoch();
  injector.ScheduleCrash(CrashPoint::kAfterWalAppend);
  EXPECT_TRUE(StatusIs(engine.IngestPoint(std::vector<Value>{0.5, 0.5}),
                       StatusCode::kUnavailable));
  ASSERT_TRUE(engine.live_index()->crashed());
  ASSERT_TRUE(StatusIs(engine.Recover(), StatusCode::kOk));
  EXPECT_NE(engine.cache_epoch(), epoch0);

  // The pre-crash entry is stranded under the old epoch: same query,
  // cache miss.
  const auto before = engine.cache()->Stats();
  ASSERT_TRUE(StatusIs(engine.KnMatch(q, 2, 3), StatusCode::kOk));
  const auto after = engine.cache()->Stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses + 1);
}

TEST(EngineIngestTest, EndIngestStrandsEveryCachedEntry) {
  SimilarityEngine engine(datagen::MakeUniform(100, 2, 83));
  engine.EnableCache(cache::CacheConfig{});
  const std::vector<Value> q{0.6, 0.1};
  ASSERT_TRUE(StatusIs(engine.KnMatch(q, 2, 3), StatusCode::kOk));
  const uint64_t epoch0 = engine.cache_epoch();

  ASSERT_TRUE(StatusIs(engine.BeginIngest(), StatusCode::kOk));
  ASSERT_TRUE(StatusIs(engine.IngestPoint(std::vector<Value>{0.5, 0.5}),
                       StatusCode::kOk));
  ASSERT_TRUE(StatusIs(engine.EndIngest(), StatusCode::kOk));
  EXPECT_NE(engine.cache_epoch(), epoch0);

  const auto before = engine.cache()->Stats();
  ASSERT_TRUE(StatusIs(engine.KnMatch(q, 2, 3), StatusCode::kOk));
  EXPECT_EQ(engine.cache()->Stats().hits, before.hits);
}

// ---------------------------------------------------------------------
// Concurrent reader/writer soak: N query threads over pinned snapshots
// while one writer ingests, checkpoints included; every sampled answer
// is differentially checked against a quiesced mirror of the epoch it
// was served from. Duration scales via KNMATCH_SOAK_MS (the TSan lane
// runs it long).
// ---------------------------------------------------------------------

TEST(IngestSoakTest, ConcurrentReadersMatchQuiescedMirrors) {
  int soak_ms = 1500;
  if (const char* env = std::getenv("KNMATCH_SOAK_MS")) {
    soak_ms = std::max(1, std::atoi(env));
  }
  constexpr size_t kReaders = 4;
  constexpr size_t kDims = 3;
  constexpr size_t kN = 2;
  constexpr size_t kK = 6;

  const Dataset base = datagen::MakeUniform(500, kDims, 91);
  DiskSimulator disk;
  LiveColumnIndex live(base, &disk);
  const auto queries = TestQueries(kDims, 8, 92);

  struct Sample {
    uint64_t epoch = 0;
    size_t query = 0;
    std::vector<Neighbor> matches;
    uint64_t attributes = 0;
  };
  std::vector<std::vector<Sample>> samples(kReaders);
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      size_t iteration = r;  // desynchronize the query mix
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = live.PinSnapshot();
        SnapshotColumns columns(snap->trees, snap->pid_bound);
        const size_t qi = iteration++ % queries.size();
        auto result = SnapshotAdSearcher(columns).KnMatch(queries[qi], kN, kK);
        ASSERT_TRUE(StatusIs(result, StatusCode::kOk));
        if (samples[r].size() < 64) {
          samples[r].push_back(Sample{snap->epoch, qi,
                                      result.value().matches,
                                      result.value().attributes_retrieved});
        }
      }
    });
  }

  // The single writer: scripted inserts and erases (committed order ==
  // call order with a window of 1), periodic checkpoints.
  std::vector<std::pair<bool, PointId>> ops;  // (insert?, pid)
  std::vector<PointId> inserted;              // erased FIFO from the front
  size_t next_victim = 0;
  Rng rng(93);
  PointId next_pid = 500;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(soak_ms);
  size_t step = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (step % 5 == 4 && next_victim < inserted.size()) {
      const PointId victim = inserted[next_victim++];
      auto erased = live.Erase(victim);
      ASSERT_TRUE(StatusIs(erased, StatusCode::kOk));
      ops.emplace_back(false, victim);
    } else {
      std::vector<Value> coords(kDims);
      for (auto& v : coords) v = rng.Uniform01();
      ASSERT_TRUE(StatusIs(live.Insert(next_pid, coords), StatusCode::kOk));
      ops.emplace_back(true, next_pid);
      inserted.push_back(next_pid);
      ++next_pid;
    }
    if (step % 128 == 127) {
      ASSERT_TRUE(StatusIs(live.Checkpoint(), StatusCode::kOk));
    }
    ++step;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  ASSERT_GT(ops.size(), 0u);

  // Reconstruct each sampled epoch's quiesced state: epoch e is the
  // base plus the first e-1 committed ops (the constructor publishes
  // epoch 1 with none). Replay incrementally in epoch order.
  std::vector<Sample> all;
  for (auto& chunk : samples) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  ASSERT_GT(all.size(), 0u);
  std::sort(all.begin(), all.end(),
            [](const Sample& a, const Sample& b) { return a.epoch < b.epoch; });

  auto rows = RowsOf(base);
  Rng replay(93);  // must regenerate the writer's coordinate stream
  size_t applied = 0;
  std::unique_ptr<Mirror> mirror;
  uint64_t mirror_epoch = 0;
  size_t verified = 0;
  for (const Sample& sample : all) {
    ASSERT_GE(sample.epoch, 1u);
    ASSERT_LE(sample.epoch - 1, ops.size());
    if (mirror == nullptr || sample.epoch != mirror_epoch) {
      while (applied < sample.epoch - 1) {
        const auto& [was_insert, pid] = ops[applied];
        if (was_insert) {
          std::vector<Value> coords(kDims);
          for (auto& v : coords) v = replay.Uniform01();
          rows[pid] = std::move(coords);
        } else {
          rows.erase(pid);
        }
        ++applied;
      }
      mirror = std::make_unique<Mirror>(rows, kDims);
      mirror_epoch = sample.epoch;
    }
    auto want = SnapshotAdSearcher(mirror->Freeze())
                    .KnMatch(queries[sample.query], kN, kK);
    ASSERT_TRUE(StatusIs(want, StatusCode::kOk));
    EXPECT_EQ(sample.matches, want.value().matches)
        << "epoch " << sample.epoch << " query " << sample.query;
    EXPECT_EQ(sample.attributes, want.value().attributes_retrieved);
    ++verified;
  }
  EXPECT_GT(verified, 0u);
}

}  // namespace
}  // namespace knmatch
