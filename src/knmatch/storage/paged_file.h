#ifndef KNMATCH_STORAGE_PAGED_FILE_H_
#define KNMATCH_STORAGE_PAGED_FILE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "knmatch/common/status.h"
#include "knmatch/storage/disk_simulator.h"
#include "knmatch/storage/page_codec.h"

namespace knmatch {

/// A page-structured file on the simulated disk. Pages have the fixed
/// byte size of the owning DiskSimulator's config; reads are accounted
/// against a stream. The backing store is memory-resident (the
/// simulation is about *counting* I/O, not performing it), but all data
/// round-trips through serialized page images, so layout code is
/// genuinely exercised.
///
/// Every stored page is framed with a CRC32 checksum (see
/// storage/page_codec.h), verified on read. A read can therefore fail:
/// transient faults from the simulator's injector are retried up to
/// DiskSimulator::kMaxReadAttempts times; checksum failures — whether
/// from an injected transfer corruption or damage to the stored image —
/// quarantine the page and report kDataLoss. Reads of a quarantined
/// page are refused immediately without charging I/O.
class PagedFile {
 public:
  /// Creates an empty file on `disk`. The simulator must outlive the
  /// file.
  explicit PagedFile(DiskSimulator* disk);

  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;
  PagedFile(PagedFile&&) = default;
  PagedFile& operator=(PagedFile&&) = default;

  /// Page size in bytes (frame included).
  size_t page_size() const { return page_size_; }
  /// Payload bytes available per page (page_size minus the checksum
  /// frame).
  size_t payload_capacity() const {
    return page_size_ - kPageFrameOverhead;
  }
  /// Number of pages in the file.
  size_t num_pages() const { return pages_.size(); }
  /// Global page id of this file's first page.
  uint64_t first_global_page() const { return first_global_page_; }
  /// Global page id of page `index`. Bulk-built files have contiguous
  /// runs (first_global_page() + index); files that keep growing while
  /// other files allocate (the live-ingest WAL era) may not.
  uint64_t global_page(size_t index) const { return global_of_[index]; }

  /// Appends a page holding `payload` (at most payload_capacity()
  /// bytes; asserted). Returns the new page's index within this file.
  /// Writes are a build-time operation and are not I/O-accounted.
  size_t AppendPage(std::span<const std::byte> payload);

  /// Overwrites page `index` in place with a freshly framed `payload`
  /// (write-time I/O is not modelled, matching AppendPage). Clears the
  /// cached verification verdict.
  void WritePage(size_t index, std::span<const std::byte> payload);

  /// Crash simulation: an overwrite (append when `index` ==
  /// num_pages()) interrupted part-way. The stored image gets the
  /// first `valid_bytes` of the new frame and keeps/zero-fills the
  /// rest, so its CRC no longer matches — exactly a torn page write.
  void WritePageTorn(size_t index, std::span<const std::byte> payload,
                     size_t valid_bytes);

  /// Reads page `index`, charging the access to `stream`, and returns
  /// the verified payload (its exact appended length). Fails with
  /// kOutOfRange for a bad index, kDataLoss for a quarantined or
  /// corrupt page, kUnavailable when transient faults exhaust the
  /// retry budget.
  Result<std::span<const std::byte>> ReadPage(size_t stream,
                                              size_t index) const;

  /// Reads page `index` without charging any I/O (and without the
  /// injector's transfer faults — but the stored image is still
  /// verified). For build-time verification and tests only.
  Result<std::span<const std::byte>> PeekPage(size_t index) const;

  /// Test hook: XORs `mask` into byte `offset` of stored page `index`,
  /// modelling at-rest damage (bit rot). The next verified read fails
  /// its checksum.
  void CorruptStoredByte(size_t index, size_t offset,
                         uint8_t mask = 0xFF);

 private:
  /// Verifies the stored image of page `index`, caching the verdict
  /// (at-rest damage does not heal, so one verification per image
  /// suffices; CorruptStoredByte invalidates the cache entry).
  Result<std::span<const std::byte>> VerifyStored(size_t index) const;

  DiskSimulator* disk_;
  size_t page_size_;
  uint64_t first_global_page_ = 0;
  std::vector<std::vector<std::byte>> pages_;
  /// Per-page global ids (contiguous for bulk-built files, but live
  /// ingest interleaves allocations across files).
  std::vector<uint64_t> global_of_;
  /// Per-page memo of a passed at-rest verification: one byte per page,
  /// read and set through std::atomic_ref by concurrent readers.
  mutable std::vector<uint8_t> verified_;
};

/// Helpers to serialize plain scalar values into / out of page images.
/// Little-endian host layout is assumed (x86-64).
template <typename T>
void PutScalar(std::vector<std::byte>* out, T value) {
  const size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &value, sizeof(T));
}

template <typename T>
T GetScalar(std::span<const std::byte> in, size_t offset) {
  assert(offset + sizeof(T) <= in.size() &&
         "GetScalar reads past the end of the page image");
  T value;
  std::memcpy(&value, in.data() + offset, sizeof(T));
  return value;
}

}  // namespace knmatch

#endif  // KNMATCH_STORAGE_PAGED_FILE_H_
