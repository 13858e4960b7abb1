// Tests for the block-ascending AD kernel (core/ad_kernel.h): the
// loser tree's selection order, and the kernel's bit-for-bit
// equivalence to the reference heap engine — pop order, answer sets,
// attributes_retrieved, and (on disk) every I/O counter, with and
// without injected faults. These are the tests that license swapping
// the kernel into every production entry point.

#include "knmatch/core/ad_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "knmatch/common/random.h"
#include "knmatch/core/ad_engine.h"
#include "knmatch/core/ad_scratch.h"
#include "knmatch/core/sorted_columns.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/diskalgo/btree_accessor.h"
#include "knmatch/diskalgo/btree_ad.h"
#include "knmatch/storage/bplus_tree.h"
#include "knmatch/storage/column_store.h"
#include "knmatch/storage/disk_simulator.h"
#include "knmatch/storage/fault_injector.h"

namespace knmatch {
namespace {

using internal::AdEngine;
using internal::AdKernel;
using internal::AdLoserTree;
using internal::AdOutput;
using internal::AdScratch;
using internal::MemoryColumnAccessor;
using internal::RunAdSearch;
using internal::RunAdSearchReference;

// ---------------------------------------------------------------------------
// AdLoserTree selection order

/// Linear-scan argmin by (key, slot) — the specification the tree must
/// match exactly.
uint32_t ScanWinner(const std::vector<Value>& keys) {
  uint32_t best = 0;
  for (uint32_t s = 1; s < keys.size(); ++s) {
    if (keys[s] < keys[best]) best = s;
  }
  return best;
}

uint32_t ScanRunnerUp(const std::vector<Value>& keys, uint32_t winner) {
  uint32_t best = AdLoserTree::kNone;
  for (uint32_t s = 0; s < keys.size(); ++s) {
    if (s == winner) continue;
    if (best == AdLoserTree::kNone || keys[s] < keys[best]) best = s;
  }
  return best;
}

TEST(AdKernelLoserTreeTest, WinnerAndRunnerUpMatchLinearScan) {
  const Value inf = std::numeric_limits<Value>::infinity();
  for (const size_t m : {2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u}) {
    Rng rng(1000 + m);
    // Quantized keys: heavy duplicates, so the slot tie-break decides
    // most matches.
    std::vector<Value> keys(m);
    for (Value& k : keys) k = Value(rng.UniformInt(4)) / 4.0;
    AdLoserTree tree;
    tree.Build(m, keys.data());
    size_t live = m;
    for (int step = 0; step < 400 && live > 0; ++step) {
      const uint32_t w = tree.winner();
      ASSERT_EQ(w, ScanWinner(keys)) << "m=" << m << " step=" << step;
      ASSERT_EQ(tree.RunnerUp(w, keys.data()), ScanRunnerUp(keys, w))
          << "m=" << m << " step=" << step;
      // Advance the winner like a real cursor: key never decreases,
      // occasionally exhausting.
      if (rng.Bernoulli(0.05)) {
        keys[w] = inf;
        --live;
      } else {
        keys[w] += Value(rng.UniformInt(3)) / 4.0;
      }
      tree.Replay(w, keys.data());
    }
  }
}

TEST(AdKernelLoserTreeTest, AllExhaustedLeavesInfiniteWinner) {
  const Value inf = std::numeric_limits<Value>::infinity();
  std::vector<Value> keys = {0.5, 0.25, 0.75, 0.125};
  AdLoserTree tree;
  tree.Build(keys.size(), keys.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint32_t w = tree.winner();
    EXPECT_EQ(w, ScanWinner(keys));
    keys[w] = inf;
    tree.Replay(w, keys.data());
  }
  EXPECT_EQ(keys[tree.winner()], inf);
}

// ---------------------------------------------------------------------------
// Differential: kernel vs reference heap engine, in memory

/// Snaps every attribute of `db` to a `levels`-step grid, producing a
/// duplicate-heavy dataset where equal differences are the norm.
Dataset Quantize(const Dataset& db, double levels) {
  Matrix m(db.size(), db.dims());
  for (PointId pid = 0; pid < db.size(); ++pid) {
    for (size_t dim = 0; dim < db.dims(); ++dim) {
      m.at(pid, dim) = std::round(db.at(pid, dim) * levels) / levels;
    }
  }
  return Dataset(std::move(m));
}

void ExpectSameOutput(const AdOutput& kernel, const AdOutput& reference,
                      const char* what, size_t qi) {
  ASSERT_EQ(kernel.per_n_sets.size(), reference.per_n_sets.size())
      << what << " query " << qi;
  for (size_t s = 0; s < kernel.per_n_sets.size(); ++s) {
    EXPECT_EQ(kernel.per_n_sets[s], reference.per_n_sets[s])
        << what << " query " << qi << " set " << s;
  }
  EXPECT_EQ(kernel.attributes_retrieved, reference.attributes_retrieved)
      << what << " query " << qi;
  EXPECT_EQ(kernel.heap_pops, reference.heap_pops)
      << what << " query " << qi;
}

/// Runs `queries` randomized (n0, n1, k, weights) queries over `db`,
/// asserting the kernel's output is identical to the reference's.
void DifferentialSweep(const Dataset& db, size_t queries, uint64_t seed,
                       const char* what) {
  const SortedColumns columns(db);
  MemoryColumnAccessor acc(columns);
  AdScratch kernel_scratch;
  AdScratch reference_scratch;
  Rng rng(seed);
  const size_t d = db.dims();
  for (size_t qi = 0; qi < queries; ++qi) {
    std::vector<Value> q(d);
    // Mix in-range, boundary, and out-of-range coordinates: the latter
    // start one direction cursor exhausted from the first step.
    for (Value& v : q) v = rng.Uniform(-0.2, 1.2);
    const size_t n0 = 1 + rng.UniformInt(d);
    const size_t n1 = n0 + rng.UniformInt(d - n0 + 1);
    // Large k (up to the full cardinality) forces exhaustion mid-run
    // on a fair fraction of the queries.
    const size_t k = 1 + rng.UniformInt(db.size());
    std::vector<Value> weights;
    if (rng.Bernoulli(0.3)) {
      weights.resize(d);
      for (Value& w : weights) w = 0.25 + rng.Uniform01();
    }
    const AdOutput kernel =
        RunAdSearch(acc, q, n0, n1, k, weights, &kernel_scratch);
    const AdOutput reference = RunAdSearchReference(
        acc, q, n0, n1, k, weights, &reference_scratch);
    ExpectSameOutput(kernel, reference, what, qi);
  }
}

TEST(AdKernelDifferentialTest, UniformDataMatchesReference) {
  DifferentialSweep(datagen::MakeUniform(400, 6, 11), 250, 21, "uniform");
}

TEST(AdKernelDifferentialTest, DuplicateHeavyDataMatchesReference) {
  // Values quantized to an 8-level grid: equal differences across
  // slots and inside runs everywhere, so the slot tie-break (and the
  // run-stop condition's tie handling) carries the whole order.
  DifferentialSweep(Quantize(datagen::MakeUniform(300, 5, 12), 8.0), 250,
                    22, "duplicate");
}

TEST(AdKernelDifferentialTest, SkewedDataMatchesReference) {
  DifferentialSweep(datagen::MakeSkewed(350, 4, 13, 2.0), 250, 23,
                    "skewed");
}

TEST(AdKernelDifferentialTest, TinyDataExhaustsIdentically) {
  // 20 points, 2 dims: almost every query exhausts every cursor, so
  // the final-pop and all-exhausted paths run constantly.
  DifferentialSweep(datagen::MakeUniform(20, 2, 14), 250, 24, "tiny");
}

// ---------------------------------------------------------------------------
// Differential: ragged columns (and the ReadRun + column_length mix)

/// Ragged accessor with a full-service ReadRun: some points lack
/// values in some dimensions, and the kernel must size its run reads
/// by column_length, not column_size.
class RaggedRunAccessor {
 public:
  RaggedRunAccessor(std::vector<std::vector<ColumnEntry>> columns,
                    size_t cardinality)
      : columns_(std::move(columns)), cardinality_(cardinality) {}

  size_t dims() const { return columns_.size(); }
  size_t column_size() const { return cardinality_; }
  size_t column_length(size_t dim) const { return columns_[dim].size(); }
  ColumnEntry ReadEntry(size_t dim, size_t idx, uint32_t /*slot*/) const {
    return columns_[dim][idx];
  }
  size_t ReadRun(size_t dim, size_t idx, size_t len, uint32_t slot,
                 Value* values, PointId* pids) const {
    for (size_t i = 0; i < len; ++i) {
      const ColumnEntry& e =
          columns_[dim][slot % 2 == 0 ? idx - i : idx + i];
      values[i] = e.value;
      pids[i] = e.pid;
    }
    return len;
  }
  size_t LocateLowerBound(size_t dim, Value v) const {
    const auto& col = columns_[dim];
    size_t lo = 0;
    while (lo < col.size() && col[lo].value < v) ++lo;
    return lo;
  }

 private:
  std::vector<std::vector<ColumnEntry>> columns_;
  size_t cardinality_;
};

TEST(AdKernelDifferentialTest, RaggedColumnsMatchReference) {
  Rng rng(31);
  for (int round = 0; round < 25; ++round) {
    const size_t cardinality = 30 + rng.UniformInt(30);
    const size_t d = 2 + rng.UniformInt(4);
    std::vector<std::vector<ColumnEntry>> columns(d);
    for (size_t dim = 0; dim < d; ++dim) {
      for (PointId pid = 0; pid < cardinality; ++pid) {
        if (rng.Bernoulli(0.25)) continue;  // missing attribute
        // Quantized: ragged AND duplicate-heavy at once.
        columns[dim].push_back(
            {Value(rng.UniformInt(8)) / 8.0, pid});
      }
      // Keep at least one entry so LocateLowerBound stays in range.
      if (columns[dim].empty()) {
        columns[dim].push_back({0.5, 0});
      }
      std::sort(columns[dim].begin(), columns[dim].end(),
                [](const ColumnEntry& a, const ColumnEntry& b) {
                  if (a.value != b.value) return a.value < b.value;
                  return a.pid < b.pid;
                });
    }
    RaggedRunAccessor acc(columns, cardinality);
    AdScratch kernel_scratch;
    AdScratch reference_scratch;
    for (int qi = 0; qi < 40; ++qi) {
      std::vector<Value> q(d);
      for (Value& v : q) v = rng.Uniform01();
      const size_t n1 = 1 + rng.UniformInt(d);
      const size_t n0 = 1 + rng.UniformInt(n1);
      // k up to the cardinality: with missing attributes the columns
      // regularly exhaust before k points complete n1 appearances, so
      // the partial-answer path is exercised heavily.
      const size_t k = 1 + rng.UniformInt(cardinality);
      const AdOutput kernel =
          RunAdSearch(acc, q, n0, n1, k, {}, &kernel_scratch);
      const AdOutput reference =
          RunAdSearchReference(acc, q, n0, n1, k, {}, &reference_scratch);
      ExpectSameOutput(kernel, reference, "ragged", qi);
    }
  }
}

// ---------------------------------------------------------------------------
// Pop sequence: every pop Drive delivers, in order, against the heap engine

TEST(AdKernelStepTest, StepSequenceMatchesHeapEngineToExhaustion) {
  // Duplicate-heavy so ties cover the selection's whole order; drain the
  // kernel through Drive and the heap engine through Step, and require
  // identical pop sequences. 3 dims take the flat-scan selection, 40
  // the loser tree.
  for (const size_t dims : {size_t{3}, size_t{40}}) {
    const Dataset db = Quantize(datagen::MakeUniform(120, dims, 17), 4.0);
    const SortedColumns columns(db);
    MemoryColumnAccessor acc(columns);
    Rng rng(41);
    for (int qi = 0; qi < 20; ++qi) {
      std::vector<Value> q(db.dims());
      for (Value& v : q) v = rng.Uniform(-0.1, 1.1);
      AdKernel<MemoryColumnAccessor> kernel(acc, q);
      AdEngine<MemoryColumnAccessor> engine(acc, q);
      size_t pops = 0;
      bool same = true;
      kernel.Drive([&](PointId pid, Value dif, uint16_t appearances) {
        const auto ep = engine.Step();
        same = ep.has_value() && ep->pid == pid && ep->dif == dif &&
               ep->appearances == appearances;
        if (same) ++pops;
        return same;
      });
      ASSERT_TRUE(same) << "dims " << dims << " query " << qi << " pop "
                        << pops;
      EXPECT_EQ(pops, db.size() * db.dims());
      EXPECT_EQ(kernel.attributes_retrieved(),
                engine.attributes_retrieved());
      EXPECT_FALSE(engine.Step().has_value()) << "heap engine not drained";
    }
  }
}

// ---------------------------------------------------------------------------
// Disk: ReadRun accounting and fault soak

/// The production disk accessor's shape, local to the test so both the
/// run-reading and the entry-only variant can be compared over
/// independent simulators.
template <bool kWithReadRun>
class TestDiskAccessor {
 public:
  explicit TestDiskAccessor(const ColumnStore& columns)
      : columns_(columns) {
    for (size_t i = 0; i < 2 * columns.dims(); ++i) {
      streams_.push_back(columns.OpenStream());
    }
  }

  size_t dims() const { return columns_.dims(); }
  size_t column_size() const { return columns_.column_size(); }

  ColumnEntry ReadEntry(size_t dim, size_t idx, uint32_t slot) {
    Result<ColumnEntry> e = columns_.ReadEntry(streams_[slot].id(), dim, idx);
    if (!e.ok()) {
      status_ = e.status();
      return ColumnEntry{};
    }
    return e.value();
  }

  size_t ReadRun(size_t dim, size_t idx, size_t len, uint32_t slot,
                 Value* values, PointId* pids)
    requires(kWithReadRun)
  {
    Result<size_t> n = columns_.ReadRun(streams_[slot].id(), dim, idx, len,
                                        slot % 2 == 0, values, pids);
    if (!n.ok()) {
      status_ = n.status();
      return 0;
    }
    return n.value();
  }

  size_t LocateLowerBound(size_t dim, Value v) const {
    return columns_.LowerBound(dim, v);
  }

  const Status& status() const { return status_; }

 private:
  const ColumnStore& columns_;
  std::vector<DiskStream> streams_;
  Status status_;
};

static_assert(internal::RunReadingAccessor<TestDiskAccessor<true>>);
static_assert(!internal::RunReadingAccessor<TestDiskAccessor<false>>);

struct DiskCounters {
  uint64_t sequential, random, buffer_hits, failed;

  explicit DiskCounters(const DiskSimulator& disk)
      : sequential(disk.sequential_reads()),
        random(disk.random_reads()),
        buffer_hits(disk.buffer_hits()),
        failed(disk.failed_reads()) {}

  friend bool operator==(const DiskCounters&, const DiskCounters&) =
      default;
};

/// Runs the same randomized query stream through (a) the kernel over a
/// run-reading accessor and (b) the reference heap engine over an
/// entry-only accessor, each on its own identically configured
/// simulator, asserting identical answers, attribute charges, statuses
/// and I/O counters after every query.
void DiskDifferentialSoak(FaultInjector* kernel_faults,
                          FaultInjector* reference_faults, size_t queries,
                          const char* what) {
  // A small page (21 entries) against kAdRunBlock = 64 makes nearly
  // every refill want more than one page can serve — the page-boundary
  // short-read path runs constantly.
  DiskConfig config;
  config.page_size = 256;
  config.buffer_pool_pages = 8;
  const Dataset db = datagen::MakeUniform(700, 3, 19);

  DiskSimulator kernel_disk(config);
  ColumnStore kernel_store(db, &kernel_disk);
  kernel_disk.set_fault_injector(kernel_faults);

  DiskSimulator reference_disk(config);
  ColumnStore reference_store(db, &reference_disk);
  reference_disk.set_fault_injector(reference_faults);

  ASSERT_GT(db.size() / kernel_store.entries_per_page(), 30u)
      << "dataset must span many pages for the boundary test to bite";

  Rng rng(53);
  for (size_t qi = 0; qi < queries; ++qi) {
    std::vector<Value> q(db.dims());
    for (Value& v : q) v = rng.Uniform01();
    const size_t n = 1 + rng.UniformInt(db.dims());
    const size_t k = 1 + rng.UniformInt(50);

    TestDiskAccessor<true> kernel_acc(kernel_store);
    TestDiskAccessor<false> reference_acc(reference_store);
    const AdOutput kernel = RunAdSearch(kernel_acc, q, n, n, k);
    const AdOutput reference =
        RunAdSearchReference(reference_acc, q, n, n, k);

    ASSERT_EQ(kernel_acc.status().code(), reference_acc.status().code())
        << what << " query " << qi;
    ExpectSameOutput(kernel, reference, what, qi);
    ASSERT_EQ(DiskCounters(kernel_disk), DiskCounters(reference_disk))
        << what << " query " << qi;
  }
}

TEST(AdKernelDiskTest, RunReadsChargeIdenticallyToEntryReads) {
  DiskDifferentialSoak(nullptr, nullptr, 60, "fault-free");
}

TEST(AdKernelDiskTest, FaultSoakStaysBitIdentical) {
  // Separate injector instances with one seed: both sides must issue
  // the same physical attempt sequence to see the same faults — which
  // is itself part of what is being asserted.
  FaultInjector::Config faults;
  faults.seed = 77;
  faults.transient_error_rate = 0.05;
  faults.corruption_rate = 0.01;
  FaultInjector kernel_faults(faults);
  FaultInjector reference_faults(faults);
  DiskDifferentialSoak(&kernel_faults, &reference_faults, 60, "faulted");
}

// ---------------------------------------------------------------------------
// B+-tree columns: leaf-run reads against the per-entry reference

/// BPlusTree's bulk-load leaf fill: a column's leaf boundaries sit at
/// multiples of this rank until erases shift them.
constexpr size_t kLeafEntries = 256;

/// Per-dimension B+-trees over `db` on `disk`, bulk-loaded from the
/// shared column sort; the points in `erased` then leave every tree.
struct TestTrees {
  std::vector<std::unique_ptr<BPlusTree>> trees;
  size_t pid_bound;

  TestTrees(const Dataset& db, const SortedColumns& sorted,
            DiskSimulator* disk, bool reclaim,
            const std::vector<PointId>& erased)
      : pid_bound(db.size()) {
    std::vector<ColumnEntry> column(db.size());
    for (size_t dim = 0; dim < db.dims(); ++dim) {
      for (size_t i = 0; i < column.size(); ++i) {
        column[i] = sorted.entry(dim, i);
      }
      auto tree = std::make_unique<BPlusTree>(disk);
      if (reclaim) tree->EnableReclamation();
      tree->BulkLoad(column);
      for (const PointId pid : erased) {
        Result<bool> gone = tree->Erase(ColumnEntry{db.at(pid, dim), pid});
        EXPECT_TRUE(gone.ok() && gone.value());
      }
      trees.push_back(std::move(tree));
    }
  }

  SnapshotColumns Freeze() {
    std::vector<BPlusTree::Snapshot> snaps;
    for (auto& tree : trees) snaps.push_back(tree->CreateSnapshot());
    return SnapshotColumns(std::move(snaps), pid_bound);
  }
};

static_assert(internal::RunReadingAccessor<
              internal::BTreeColumnAccessor<SnapshotColumns>>);

/// Points whose rank in dimension 0 or 1 falls in one of a few bands
/// wider than a leaf: erasing them from every tree empties at least
/// one whole leaf of each of those two columns.
std::vector<PointId> LeafEmptyingErasures(const SortedColumns& sorted) {
  std::vector<bool> erase(sorted.size(), false);
  for (size_t dim = 0; dim < 2; ++dim) {
    for (const size_t leaf : {1u, 4u, 5u}) {
      const size_t from = leaf * kLeafEntries - 20;
      for (size_t i = from; i < from + kLeafEntries + 40; ++i) {
        erase[sorted.pids(dim)[i]] = true;
      }
    }
  }
  std::vector<PointId> pids;
  for (PointId pid = 0; pid < erase.size(); ++pid) {
    if (erase[pid]) pids.push_back(pid);
  }
  return pids;
}

/// A query coordinate for `dim`: mostly the value at (or one off) a
/// bulk-load leaf boundary, so cursors start on a leaf's first or last
/// entry; otherwise anywhere in or just outside the data's range.
Value LeafEdgeCoordinate(const SortedColumns& sorted, size_t dim, Rng& rng) {
  if (rng.Bernoulli(0.25)) return rng.Uniform(-0.1, 1.1);
  const size_t leaves = sorted.size() / kLeafEntries;
  const size_t edge = (1 + rng.UniformInt(leaves - 1)) * kLeafEntries;
  const size_t idx = edge - 1 + rng.UniformInt(3);
  return sorted.values(dim)[idx];
}

/// Runs one randomized query stream through (a) the kernel over the
/// B+-tree accessor, which reads leaf runs, and (b) the reference heap
/// engine over the same accessor type, which reads entry by entry;
/// each side on its own identically built trees and simulator. Answers,
/// attribute charges, statuses and I/O counters must match after every
/// query. Returns how many queries failed after every cursor had
/// started — a failure a leaf crossing caused, since steps inside a
/// leaf read no page.
size_t BTreeDifferentialSoak(const Dataset& db, bool erase_leaves,
                             bool reclaim, const FaultInjector::Config* faults,
                             size_t queries, const char* what) {
  DiskConfig config;
  config.buffer_pool_pages = 8;
  const SortedColumns sorted(db);
  const std::vector<PointId> erased =
      erase_leaves ? LeafEmptyingErasures(sorted) : std::vector<PointId>{};

  DiskSimulator kernel_disk(config);
  TestTrees kernel_trees(db, sorted, &kernel_disk, reclaim, erased);
  const SnapshotColumns kernel_columns = kernel_trees.Freeze();
  DiskSimulator reference_disk(config);
  TestTrees reference_trees(db, sorted, &reference_disk, reclaim, erased);
  const SnapshotColumns reference_columns = reference_trees.Freeze();

  std::optional<FaultInjector> kernel_faults;
  std::optional<FaultInjector> reference_faults;
  if (faults != nullptr) {
    kernel_faults.emplace(*faults);
    reference_faults.emplace(*faults);
    kernel_disk.set_fault_injector(&*kernel_faults);
    reference_disk.set_fault_injector(&*reference_faults);
  }

  Rng rng(61);
  size_t crossing_failures = 0;
  for (size_t qi = 0; qi < queries; ++qi) {
    std::vector<Value> q(db.dims());
    for (size_t dim = 0; dim < q.size(); ++dim) {
      q[dim] = LeafEdgeCoordinate(sorted, dim, rng);
    }
    const size_t n1 = 1 + rng.UniformInt(db.dims());
    const size_t n0 = rng.Bernoulli(0.5) ? n1 : 1 + rng.UniformInt(n1);
    const size_t k = 1 + rng.UniformInt(400);

    internal::BTreeColumnAccessor<SnapshotColumns> kernel_acc(kernel_columns,
                                                              q);
    internal::BTreeColumnAccessor<SnapshotColumns> reference_acc(
        reference_columns, q);
    const AdOutput kernel = RunAdSearch(kernel_acc, q, n0, n1, k);
    const AdOutput reference =
        RunAdSearchReference(reference_acc, q, n0, n1, k);

    EXPECT_EQ(kernel_acc.status().code(), reference_acc.status().code())
        << what << " query " << qi;
    ExpectSameOutput(kernel, reference, what, qi);
    EXPECT_EQ(DiskCounters(kernel_disk), DiskCounters(reference_disk))
        << what << " query " << qi;
    if (!kernel_acc.status().ok() &&
        kernel.attributes_retrieved > 2 * db.dims()) {
      ++crossing_failures;
    }
  }
  return crossing_failures;
}

TEST(AdKernelBTreeTest, LeafRunsChargeIdenticallyToEntryReads) {
  BTreeDifferentialSoak(datagen::MakeUniform(3000, 3, 71), false, false,
                        nullptr, 80, "bulk-loaded");
}

TEST(AdKernelBTreeTest, DuplicateValuesAcrossLeafEdges) {
  // A 16-level grid: runs of equal values span whole leaves, so seeks
  // and leaf crossings land inside ties.
  BTreeDifferentialSoak(Quantize(datagen::MakeUniform(3000, 3, 72), 16.0),
                        false, false, nullptr, 80, "duplicate");
}

TEST(AdKernelBTreeTest, EraseEmptiedLeavesAreSkippedIdentically) {
  BTreeDifferentialSoak(datagen::MakeUniform(3000, 3, 73), true, false,
                        nullptr, 80, "emptied leaves kept");
}

TEST(AdKernelBTreeTest, ReclaimedLeavesAreSkippedIdentically) {
  BTreeDifferentialSoak(datagen::MakeUniform(3000, 3, 74), true, true,
                        nullptr, 80, "emptied leaves reclaimed");
}

TEST(AdKernelBTreeTest, FaultsDuringLeafCrossingsStayBitIdentical) {
  // Each side gets its own injector with one seed: both must issue the
  // same physical attempt sequence to see the same faults.
  FaultInjector::Config faults;
  faults.seed = 79;
  faults.transient_error_rate = 0.2;
  faults.corruption_rate = 0.005;
  for (const bool reclaim : {false, true}) {
    const size_t crossing_failures =
        BTreeDifferentialSoak(datagen::MakeUniform(3000, 3, 75), true,
                              reclaim, &faults, 120, "faulted");
    EXPECT_GT(crossing_failures, 0u) << "reclaim " << reclaim;
  }
}

TEST(AdKernelBTreeTest, LiveTreesMatchTheReference) {
  // BTreeColumns (live, not snapshotted trees) shares the accessor.
  const Dataset db = datagen::MakeUniform(2000, 4, 76);
  DiskSimulator kernel_disk;
  const BTreeColumns kernel_columns(db, &kernel_disk);
  DiskSimulator reference_disk;
  const BTreeColumns reference_columns(db, &reference_disk);
  Rng rng(77);
  for (size_t qi = 0; qi < 40; ++qi) {
    std::vector<Value> q(db.dims());
    for (Value& v : q) v = rng.Uniform01();
    const size_t n = 1 + rng.UniformInt(db.dims());
    const size_t k = 1 + rng.UniformInt(300);
    internal::BTreeColumnAccessor<BTreeColumns> kernel_acc(kernel_columns, q);
    internal::BTreeColumnAccessor<BTreeColumns> reference_acc(
        reference_columns, q);
    ExpectSameOutput(RunAdSearch(kernel_acc, q, n, n, k),
                     RunAdSearchReference(reference_acc, q, n, n, k),
                     "live trees", qi);
    EXPECT_EQ(DiskCounters(kernel_disk), DiskCounters(reference_disk))
        << "query " << qi;
  }
}

}  // namespace
}  // namespace knmatch
