#ifndef KNMATCH_STORAGE_PACKED_COLUMN_STORE_H_
#define KNMATCH_STORAGE_PACKED_COLUMN_STORE_H_

#include <vector>

#include "knmatch/common/dataset.h"
#include "knmatch/common/status.h"
#include "knmatch/common/types.h"
#include "knmatch/core/packed_columns.h"
#include "knmatch/core/sorted_columns.h"
#include "knmatch/storage/paged_file.h"

namespace knmatch {

/// Bit-packed variant of ColumnStore: the same per-dimension sorted
/// columns, but each page holds delta-encoded, bit-packed blocks of
/// PackedColumns::kBlock entries instead of raw (value, pid) pairs.
/// Typical datasets fit several times more entries per page, so a
/// cursor's forward run charges proportionally fewer sequential pages —
/// the disk-side payoff of the compressed layout.
///
/// The read API mirrors ColumnStore exactly (ReadEntry / ReadRun /
/// LowerBound, stream-accounted), and ReadRun stays page-granular: one
/// charged ReadPage serves every entry returned, decoded from the
/// page's packed blocks on the spot. Answers are bit-for-bit identical
/// to the uncompressed store's (modulo the -0.0 canonicalization
/// documented on OrderKey in core/sorted_columns.h).
class PackedColumnStore {
 public:
  /// Builds the packed, paged columns for `db` on the simulated disk.
  PackedColumnStore(const Dataset& db, DiskSimulator* disk);

  /// Dimensionality d.
  size_t dims() const { return dims_; }
  /// Cardinality c (entries per column).
  size_t column_size() const { return size_; }
  /// Total pages across all columns (compare against an uncompressed
  /// ColumnStore's num_pages() for the on-disk compression ratio).
  size_t num_pages() const { return file_.num_pages(); }

  /// Opens an I/O accounting stream (one per cursor direction),
  /// released when the handle goes away.
  DiskStream OpenStream() const;

  /// The simulator this store charges its I/O to.
  const DiskSimulator* disk() const { return disk_; }

  /// Reads the idx-th smallest entry of `dim`, charging the page access
  /// to `stream`.
  Result<ColumnEntry> ReadEntry(size_t stream, size_t dim,
                                size_t idx) const;

  /// Reads up to `len` consecutive entries of `dim` starting at `idx`,
  /// walking descending (down cursor) or ascending, into the SoA
  /// outputs in walk order. Bounded to the single page holding `idx`,
  /// same contract as ColumnStore::ReadRun. Returns the entry count
  /// produced (>= 1).
  Result<size_t> ReadRun(size_t stream, size_t dim, size_t idx, size_t len,
                         bool descending, Value* values,
                         PointId* pids) const;

  /// Index of the first entry of `dim` whose value is >= v. In-memory
  /// page directory plus one uncharged peek; infallible — a damaged
  /// page falls back to the directory's conservative bound, and the
  /// cursor's first charged read surfaces the error.
  size_t LowerBound(size_t dim, Value v) const;

 private:
  struct PageInfo {
    size_t first_entry = 0;  // dim-relative index of the page's first entry
    Value first_value = 0;
  };

  /// File-level page index holding entry `idx` of `dim`.
  size_t PageOf(size_t dim, size_t idx) const;

  /// Decodes the page image's block holding dim-relative entry `idx`
  /// into the caller's arrays; returns the block's dim-relative first
  /// entry index and length via the out parameters. Fails on a
  /// malformed image (treated as data loss upstream).
  Status DecodePageBlock(std::span<const std::byte> image, size_t idx,
                         size_t* block_first, size_t* block_len,
                         Value* values, PointId* pids) const;

  size_t dims_;
  size_t size_;
  DiskSimulator* disk_;
  PagedFile file_;
  /// pages_[dim] describes that dimension's pages in file order;
  /// page_base_[dim] is the file-level index of its first page (each
  /// dimension's pages are contiguous).
  std::vector<std::vector<PageInfo>> pages_;
  std::vector<size_t> page_base_;
};

}  // namespace knmatch

#endif  // KNMATCH_STORAGE_PACKED_COLUMN_STORE_H_
