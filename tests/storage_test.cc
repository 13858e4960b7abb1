#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "knmatch/common/random.h"
#include "knmatch/core/sorted_columns.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/storage/column_store.h"
#include "knmatch/storage/disk_simulator.h"
#include "knmatch/storage/paged_file.h"
#include "knmatch/storage/row_store.h"

namespace knmatch {
namespace {

TEST(DiskSimulatorTest, FirstReadOfStreamIsRandom) {
  DiskSimulator disk;
  disk.AllocatePages(10);
  const size_t s = disk.OpenStream();
  disk.RecordRead(s, 5);
  EXPECT_EQ(disk.random_reads(), 1u);
  EXPECT_EQ(disk.sequential_reads(), 0u);
}

TEST(DiskSimulatorTest, AdjacentReadsAreSequentialBothDirections) {
  DiskSimulator disk;
  disk.AllocatePages(10);
  const size_t s = disk.OpenStream();
  disk.RecordRead(s, 5);
  disk.RecordRead(s, 6);  // forward
  disk.RecordRead(s, 5);  // backward
  EXPECT_EQ(disk.sequential_reads(), 2u);
  EXPECT_EQ(disk.random_reads(), 1u);
}

TEST(DiskSimulatorTest, RereadOfCurrentPageIsFree) {
  DiskSimulator disk;
  disk.AllocatePages(10);
  const size_t s = disk.OpenStream();
  disk.RecordRead(s, 3);
  disk.RecordRead(s, 3);
  disk.RecordRead(s, 3);
  EXPECT_EQ(disk.total_reads(), 1u);
}

TEST(DiskSimulatorTest, JumpIsRandom) {
  DiskSimulator disk;
  disk.AllocatePages(10);
  const size_t s = disk.OpenStream();
  disk.RecordRead(s, 1);
  disk.RecordRead(s, 7);
  EXPECT_EQ(disk.random_reads(), 2u);
}

TEST(DiskSimulatorTest, StreamsAreIndependent) {
  DiskSimulator disk;
  disk.AllocatePages(10);
  const size_t a = disk.OpenStream();
  const size_t b = disk.OpenStream();
  disk.RecordRead(a, 1);
  disk.RecordRead(b, 2);  // adjacent to a's page, but b's first read
  EXPECT_EQ(disk.random_reads(), 2u);
  disk.RecordRead(a, 2);  // still sequential for a
  EXPECT_EQ(disk.sequential_reads(), 1u);
}

TEST(DiskSimulatorTest, ReusedStreamReadsLikeANewOne) {
  // One simulator closes a stream and reopens its id; the other opens
  // a never-used stream. The same reads must classify identically.
  DiskSimulator reused;
  DiskSimulator fresh;
  reused.AllocatePages(10);
  fresh.AllocatePages(10);
  const size_t s = reused.OpenStream();
  reused.RecordRead(s, 5);
  reused.RecordRead(s, 6);
  const size_t f = fresh.OpenStream();
  fresh.RecordRead(f, 5);
  fresh.RecordRead(f, 6);
  reused.CloseStream(s);

  const size_t again = reused.OpenStream();
  EXPECT_EQ(again, s) << "a closed id is handed out again";
  const size_t other = fresh.OpenStream();
  // Page 6 sat in the old stream's buffer and page 7 is adjacent to
  // it; on a reset stream both are seeks, as on a new one.
  for (const uint64_t page : {6u, 7u}) {
    reused.RecordRead(again, page);
    fresh.RecordRead(other, page);
  }
  EXPECT_EQ(reused.random_reads(), fresh.random_reads());
  EXPECT_EQ(reused.sequential_reads(), fresh.sequential_reads());
  EXPECT_EQ(reused.random_reads(), 2u);
  EXPECT_EQ(reused.sequential_reads(), 2u);
}

TEST(DiskSimulatorTest, StreamHandleReleasesItsIdOnce) {
  DiskSimulator disk;
  size_t first;
  {
    const DiskStream a(&disk);
    first = a.id();
    EXPECT_TRUE(a.is_open());
  }
  DiskStream b(&disk);
  EXPECT_EQ(b.id(), first);
  DiskStream c = std::move(b);
  EXPECT_FALSE(b.is_open());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.id(), first);
  // The moved-from handle released nothing: the id is still taken.
  const DiskStream d(&disk);
  EXPECT_NE(d.id(), first);
  c = DiskStream();
  EXPECT_EQ(DiskStream(&disk).id(), first);
  EXPECT_FALSE(DiskStream().is_open());
}

TEST(DiskSimulatorTest, ConcurrentStreamsNeverShareAnId) {
  // Readers on several threads open, read and release streams at once
  // (as snapshot queries beside the ingest writer do): no id may be
  // handed to two open handles, and recycling keeps the ids small.
  constexpr size_t kThreads = 4;
  constexpr size_t kHeld = 3;
  DiskSimulator disk;
  disk.AllocatePages(64);
  std::vector<std::atomic<int>> holders(kThreads * kHeld + 1);
  std::atomic<bool> shared_id{false};
  std::atomic<bool> id_out_of_bound{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < 500; ++round) {
        std::vector<DiskStream> held;
        for (size_t i = 0; i < kHeld; ++i) {
          held.emplace_back(&disk);
          const size_t id = held.back().id();
          if (id >= holders.size()) {
            id_out_of_bound = true;
            continue;
          }
          if (holders[id].fetch_add(1) != 0) shared_id = true;
          disk.RecordRead(id, (t * 16 + round + i) % 64);
        }
        for (const DiskStream& stream : held) {
          if (stream.id() < holders.size()) holders[stream.id()].fetch_sub(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(shared_id.load());
  EXPECT_FALSE(id_out_of_bound.load());
  EXPECT_EQ(disk.total_reads(), kThreads * 500 * kHeld);
}

TEST(DiskSimulatorTest, SimulatedTimeUsesConfig) {
  DiskConfig config;
  config.sequential_read_ms = 1.0;
  config.random_read_ms = 10.0;
  DiskSimulator disk(config);
  disk.AllocatePages(4);
  const size_t s = disk.OpenStream();
  disk.RecordRead(s, 0);  // random
  disk.RecordRead(s, 1);  // sequential
  disk.RecordRead(s, 2);  // sequential
  EXPECT_DOUBLE_EQ(disk.SimulatedIoSeconds(), (10.0 + 2.0) / 1000.0);
}

TEST(DiskSimulatorTest, ResetCountersClearsAndReseeks) {
  DiskSimulator disk;
  disk.AllocatePages(4);
  const size_t s = disk.OpenStream();
  disk.RecordRead(s, 0);
  disk.RecordRead(s, 1);
  disk.ResetCounters();
  EXPECT_EQ(disk.total_reads(), 0u);
  // After a reset the stream's first read counts as a seek again.
  disk.RecordRead(s, 2);
  EXPECT_EQ(disk.random_reads(), 1u);
}

TEST(DiskSimulatorTest, SingleHeadModeInterleavingDestroysLocality) {
  DiskConfig config;
  config.single_head = true;
  DiskSimulator disk(config);
  disk.AllocatePages(100);
  const size_t a = disk.OpenStream();
  const size_t b = disk.OpenStream();
  // Two interleaved forward scans: per-stream each is sequential, but
  // a single head bounces between them.
  disk.RecordRead(a, 0);
  disk.RecordRead(b, 50);
  disk.RecordRead(a, 1);
  disk.RecordRead(b, 51);
  EXPECT_EQ(disk.random_reads(), 4u);
  EXPECT_EQ(disk.sequential_reads(), 0u);

  // The same pattern with per-stream buffering: only the two initial
  // seeks are random.
  DiskSimulator buffered;
  buffered.AllocatePages(100);
  const size_t c = buffered.OpenStream();
  const size_t d = buffered.OpenStream();
  buffered.RecordRead(c, 0);
  buffered.RecordRead(d, 50);
  buffered.RecordRead(c, 1);
  buffered.RecordRead(d, 51);
  EXPECT_EQ(buffered.random_reads(), 2u);
  EXPECT_EQ(buffered.sequential_reads(), 2u);
}

TEST(DiskSimulatorTest, SingleHeadRereadIsFree) {
  DiskConfig config;
  config.single_head = true;
  DiskSimulator disk(config);
  disk.AllocatePages(10);
  const size_t s = disk.OpenStream();
  disk.RecordRead(s, 3);
  disk.RecordRead(s, 3);
  EXPECT_EQ(disk.total_reads(), 1u);
}

TEST(PagedFileTest, RoundTripsPageImages) {
  DiskSimulator disk;
  PagedFile file(&disk);
  std::vector<std::byte> image;
  PutScalar<double>(&image, 3.25);
  PutScalar<uint32_t>(&image, 77);
  const size_t page = file.AppendPage(image);
  EXPECT_EQ(page, 0u);
  EXPECT_EQ(file.num_pages(), 1u);

  const size_t s = disk.OpenStream();
  auto read = file.ReadPage(s, 0);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().size(), image.size());
  EXPECT_EQ(GetScalar<double>(read.value(), 0), 3.25);
  EXPECT_EQ(GetScalar<uint32_t>(read.value(), sizeof(double)), 77u);
  EXPECT_EQ(disk.total_reads(), 1u);
}

TEST(PagedFileTest, ShortImagesKeepTheirLength) {
  DiskSimulator disk;
  PagedFile file(&disk);
  std::vector<std::byte> image = {std::byte{0xFF}};
  file.AppendPage(image);
  auto read = file.PeekPage(0);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().size(), 1u);
  EXPECT_EQ(static_cast<uint8_t>(read.value()[0]), 0xFF);
}

TEST(PagedFileTest, CrossFileAdjacencyIsPhysicalAdjacency) {
  DiskSimulator disk;
  PagedFile a(&disk);
  std::vector<std::byte> img = {std::byte{1}};
  a.AppendPage(img);
  a.AppendPage(img);
  PagedFile b(&disk);
  b.AppendPage(img);
  const size_t s = disk.OpenStream();
  a.ReadPage(s, 1);  // global page 1 (random, first read)
  b.ReadPage(s, 0);  // global page 2 — adjacent globally, but that is
                     // genuinely how it would sit on disk: sequential.
  EXPECT_EQ(disk.sequential_reads(), 1u);
}

TEST(RowStoreTest, ReadRowMatchesDataset) {
  Dataset db = datagen::MakeUniform(300, 7, 5);
  DiskSimulator disk;
  RowStore rows(db, &disk);
  EXPECT_EQ(rows.size(), 300u);
  EXPECT_EQ(rows.dims(), 7u);
  // Frame overhead (length header + checksum) comes off the page.
  EXPECT_EQ(rows.rows_per_page(),
            (4096u - kPageFrameOverhead) / (7 * sizeof(Value)));

  const DiskStream s_handle = rows.OpenStream();

  const size_t s = s_handle.id();
  std::vector<Value> buf;
  for (PointId pid : {PointId{0}, PointId{150}, PointId{299}}) {
    auto row = rows.ReadRow(s, pid, &buf);
    ASSERT_TRUE(row.ok());
    ASSERT_EQ(row.value().size(), 7u);
    for (size_t dim = 0; dim < 7; ++dim) {
      EXPECT_EQ(row.value()[dim], db.at(pid, dim));
    }
  }
}

TEST(RowStoreTest, ForEachRowVisitsAllInOrderSequentially) {
  Dataset db = datagen::MakeUniform(500, 4, 6);
  DiskSimulator disk;
  RowStore rows(db, &disk);
  const DiskStream s_handle = rows.OpenStream();
  const size_t s = s_handle.id();
  PointId expected = 0;
  Status io = rows.ForEachRow(s, [&](PointId pid, std::span<const Value> p) {
    ASSERT_EQ(pid, expected++);
    for (size_t dim = 0; dim < 4; ++dim) {
      ASSERT_EQ(p[dim], db.at(pid, dim));
    }
  });
  EXPECT_TRUE(io.ok());
  EXPECT_EQ(expected, 500u);
  // One random seek to page 0, the rest sequential.
  EXPECT_EQ(disk.random_reads(), 1u);
  EXPECT_EQ(disk.total_reads(), rows.num_pages());
}

TEST(ColumnStoreTest, EntriesMatchInMemorySortedColumns) {
  Dataset db = datagen::MakeUniform(700, 5, 8);
  DiskSimulator disk;
  ColumnStore store(db, &disk);
  SortedColumns reference(db);
  EXPECT_EQ(store.dims(), 5u);
  EXPECT_EQ(store.column_size(), 700u);

  const DiskStream s_handle = store.OpenStream();

  const size_t s = s_handle.id();
  for (size_t dim = 0; dim < 5; ++dim) {
    for (size_t idx : {size_t{0}, size_t{341}, size_t{342}, size_t{699}}) {
      auto entry = store.ReadEntry(s, dim, idx);
      ASSERT_TRUE(entry.ok());
      EXPECT_EQ(entry.value(), reference.entry(dim, idx))
          << "dim=" << dim << " idx=" << idx;
    }
  }
}

// Every page payload of `got` equals `want`'s byte for byte (the
// frame around a payload is a pure function of it, so the stored page
// images are equal too).
void ExpectSamePages(const PagedFile& got, const PagedFile& want) {
  ASSERT_EQ(got.num_pages(), want.num_pages());
  for (size_t p = 0; p < got.num_pages(); ++p) {
    auto a = got.PeekPage(p);
    auto b = want.PeekPage(p);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value().size(), b.value().size()) << "page " << p;
    ASSERT_EQ(std::memcmp(a.value().data(), b.value().data(),
                          a.value().size()),
              0)
        << "page " << p;
  }
}

TEST(ColumnStoreTest, SharedSortPagesAreByteIdentical) {
  Dataset db = datagen::MakeUniform(1500, 4, 12);
  DiskSimulator disk;
  const SortedColumns sorted(db);
  const ColumnStore shared(sorted, &disk);
  const ColumnStore own(db, &disk);
  ExpectSamePages(shared.file(), own.file());

  // And both hold the comparator sort's (value, pid) entries, paged in
  // order: the layout the paper's disk figures count.
  DiskSimulator ref_disk;
  PagedFile reference(&ref_disk);
  std::vector<PointId> order(db.size());
  std::vector<std::byte> image;
  for (size_t dim = 0; dim < db.dims(); ++dim) {
    std::iota(order.begin(), order.end(), PointId{0});
    std::sort(order.begin(), order.end(), [&](PointId a, PointId b) {
      const Value va = db.at(a, dim);
      const Value vb = db.at(b, dim);
      if (va != vb) return va < vb;
      return a < b;
    });
    for (size_t i = 0; i < order.size(); ++i) {
      PutScalar(&image, db.at(order[i], dim));
      PutScalar(&image, order[i]);
      if ((i + 1) % own.entries_per_page() == 0 || i + 1 == order.size()) {
        reference.AppendPage(image);
        image.clear();
      }
    }
  }
  ExpectSamePages(own.file(), reference);
}

TEST(ColumnStoreTest, LowerBoundMatchesInMemory) {
  Dataset db = datagen::MakeUniform(900, 3, 9);
  DiskSimulator disk;
  ColumnStore store(db, &disk);
  SortedColumns reference(db);
  Rng rng(123);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t dim = trial % 3;
    const Value v = rng.Uniform(-0.05, 1.05);
    EXPECT_EQ(store.LowerBound(dim, v), reference.LowerBound(dim, v));
  }
}

TEST(ColumnStoreTest, SequentialEntryReadsShareAPage) {
  Dataset db = datagen::MakeUniform(1000, 2, 10);
  DiskSimulator disk;
  ColumnStore store(db, &disk);
  const DiskStream s_handle = store.OpenStream();
  const size_t s = s_handle.id();
  // Entries 0..340 live in one page: one physical read.
  for (size_t idx = 0; idx < store.entries_per_page(); ++idx) {
    store.ReadEntry(s, 0, idx);
  }
  EXPECT_EQ(disk.total_reads(), 1u);
  // Crossing into the next page adds one sequential read.
  store.ReadEntry(s, 0, store.entries_per_page());
  EXPECT_EQ(disk.total_reads(), 2u);
  EXPECT_EQ(disk.sequential_reads(), 1u);
}

}  // namespace
}  // namespace knmatch
